"""Attack scenarios against a FIAT-protected smart home (§5.1, §7).

Walks through the paper's threat model, one attacker at a time:

1. **Account compromise** — a remote attacker injects a command through
   the hijacked vendor account; no human proof exists -> blocked.
2. **Replay** — the attacker captured an old QUIC 0-RTT auth message and
   resends it verbatim alongside a new command -> the channel rejects
   the proof (``replay`` inside the 30 s freshness window, ``stale``
   after it), the command is blocked.
3. **Brute force** — repeated injections hoping for a classifier miss ->
   after three violations the device is disconnected (lockout friction).
4. **Spyware piggyback** (§7) — spyware fires its command exactly while
   the user genuinely operates the app; real human motion exists, so
   FIAT (by design) cannot tell them apart -> the documented residual
   risk, still strictly harder than defeating SMS 2FA.

Run:  python examples/smart_home_defense.py
"""

from repro.core import FiatConfig, FiatSystem
from repro.net import TrafficClass
from repro.testbed import AccountCompromiseAttack, BruteForceAttack

DEVICE = "SP10"


def banner(text: str) -> None:
    print(f"\n{'=' * 70}\n{text}\n{'=' * 70}")


def run_packets(system: FiatSystem, packets) -> bool:
    """Feed an attack's packets to the proxy; True = command executed."""
    allowed = [system.proxy.process(p) for p in packets]
    system.proxy.flush()
    # The SP10 executes on its first packet: the command succeeds only
    # if every packet (incl. the first) went through.
    return all(allowed)


def main() -> None:
    system = FiatSystem([DEVICE], config=FiatConfig(bootstrap_s=0.0), seed=11)
    cloud = system.cloud
    clock = 1000.0

    banner("1. Account compromise: injected command, no human proof")
    attack = AccountCompromiseAttack(cloud, seed=1).launch(DEVICE, start=clock)
    executed = run_packets(system, attack.packets)
    print(f"command executed: {executed}   (expected: False — blocked)")
    system.proxy.unlock(DEVICE)

    banner("2. Replay: resending a captured 0-RTT auth message")
    # The user once sent a genuine proof; the attacker captured it.
    interaction = system.phone.interact(DEVICE, clock + 100.0, human=True, intensity=1.2)
    attempt = system.app.authenticate(interaction, now=clock + 100.0)
    system.proxy.receive_auth(attempt.wire, now=clock + 100.1)  # original: accepted
    # ... much later, the attacker replays the same wire bytes.
    replay_time = clock + 200.0
    system.proxy.receive_auth(attempt.wire, now=replay_time)
    attack = AccountCompromiseAttack(cloud, seed=2).launch(DEVICE, start=replay_time + 0.5)
    executed = run_packets(system, attack.packets)
    rejections = system.validation.receiver.rejections
    print(f"channel rejections so far: {dict(rejections)}")
    print(f"command executed: {executed}   (expected: False — replay rejected)")
    system.proxy.unlock(DEVICE)

    banner("3. Brute force: rapid-fire injections trigger lockout")
    burst = BruteForceAttack(cloud, seed=3).launch_burst(DEVICE, start=clock + 300.0, attempts=5)
    outcomes = [run_packets(system, event.packets) for event in burst]
    print(f"attempt outcomes: {outcomes}")
    print(f"device locked out: {system.proxy.is_locked(DEVICE)}   (expected: True)")
    print("alerts:", [a.reason for a in system.proxy.alerts[-3:]])
    system.proxy.unlock(DEVICE)

    banner("4. Spyware piggyback (§7): synced with a real user action")
    when = clock + 600.0
    # The user genuinely opens the app (e.g. to check the plug)...
    interaction = system.phone.interact(DEVICE, when - 0.5, human=True, intensity=1.2)
    attempt = system.app.authenticate(interaction, now=when - 0.5)
    system.proxy.receive_auth(attempt.wire, now=when - 0.4)
    # ...and the spyware fires its own command at that exact moment.
    attack = AccountCompromiseAttack(cloud, seed=4).launch(DEVICE, start=when)
    executed = run_packets(system, attack.packets)
    print(f"command executed: {executed}   (expected: True — the residual risk)")
    print("note: the attacker is confined to the moments the user interacts;")
    print("2FA without humanness would fall to a strictly weaker attacker.")


if __name__ == "__main__":
    main()
