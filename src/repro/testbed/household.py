"""Household simulator: renders device profiles into labelled traces.

Replaces the paper's physical testbed (Raspberry Pi access point + ARP
spoofing capture).  A :class:`Household` hosts a set of devices at one
location, schedules their control flows, routines and human-like manual
interactions (the NJ testbed drove these via ADB; the IL household used
a real user with a logging app), and renders everything into a single
timestamp-sorted :class:`~repro.net.trace.Trace` with ground-truth
labels and a :class:`~repro.events.labeling.GroundTruthLog`.

:func:`generate_labeled_events` is a fast path that renders unpredictable
events directly — the form consumed by the §4 classification experiments,
where the periodic background traffic is irrelevant.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..events.grouping import UnpredictableEvent
from ..events.labeling import GroundTruthLog, InteractionWindow, RoutineFiring
from ..net.packet import TCP_ACK, TCP_PSH, TLS_1_2, TLS_NONE, Direction, Packet, TrafficClass
from ..net.trace import Trace
from ..rng import WordStream
from ..util import spawn_seed
from .cloud import CloudDirectory, Endpoint, Location
from .devices import (
    BurstSpec,
    DeviceProfile,
    EventTemplate,
    PeriodicFlow,
    StreamSpec,
    profile_for,
)
from .routines import RoutineSchedule

__all__ = [
    "HouseholdConfig",
    "Household",
    "SimulationResult",
    "generate_labeled_events",
    "render_event",
]

#: How often a device re-opens its persistent cloud connection, drawing a
#: fresh ephemeral source port.  This is the behaviour §2.1 observed that
#: motivates the PortLess flow definition: same destination, new ports.
RECONNECT_PERIOD_S = 420.0


@dataclass
class HouseholdConfig:
    """Simulation parameters of one household."""

    location: Location = Location.US
    duration_s: float = 4 * 3600.0
    seed: int = 0
    routine_period_s: float = 1800.0
    manual_interval_s: Tuple[float, float] = (600.0, 1500.0)
    subnet: str = "192.168.1."
    phone_ip: str = "192.168.1.100"


@dataclass
class SimulationResult:
    """Output of one household simulation."""

    trace: Trace
    log: GroundTruthLog
    cloud: CloudDirectory
    device_ips: Dict[str, str]
    phone_ip: str


def _ephemeral_port(rng: np.random.Generator) -> int:
    return int(rng.integers(32768, 61000))


def _event_local_port(service: str, rng: np.random.Generator) -> int:
    """Local port for an event connection: a small per-service pool.

    IoT SDKs typically bind client sockets from a narrow range per
    subsystem, so event-time local ports are only mildly variable — they
    carry weak signal rather than pure noise (the paper's feature set
    includes both ports and still classifies well).
    """
    base = 37000 + (zlib.crc32(service.encode("utf-8")) % 180) * 16
    return base + int(rng.integers(0, 16))


def _make_packet(
    timestamp: float,
    size: int,
    direction: Direction,
    device: str,
    device_ip: str,
    endpoint: Endpoint,
    local_port: int,
    protocol: str,
    tls: int,
    flags: int,
    traffic_class: TrafficClass,
    event_id: Optional[str] = None,
    remote_ip: Optional[str] = None,
) -> Packet:
    remote = remote_ip if remote_ip is not None else endpoint.ip
    if direction is Direction.OUTBOUND:
        src_ip, dst_ip = device_ip, remote
        src_port, dst_port = local_port, endpoint.port
    else:
        src_ip, dst_ip = remote, device_ip
        src_port, dst_port = endpoint.port, local_port
    return Packet(
        timestamp=timestamp,
        size=size,
        src_ip=src_ip,
        dst_ip=dst_ip,
        src_port=src_port,
        dst_port=dst_port,
        protocol=protocol,
        direction=direction,
        device=device,
        tcp_flags=flags if protocol == "tcp" else 0,
        tls_version=tls if protocol == "tcp" else TLS_NONE,
        traffic_class=traffic_class,
        event_id=event_id,
    )


def _render_periodic(
    profile: DeviceProfile,
    flow: PeriodicFlow,
    device_ip: str,
    endpoint: Endpoint,
    t0: float,
    t1: float,
    rng: np.random.Generator,
) -> List[Packet]:
    """Render one periodic control flow across ``[t0, t1)``."""
    packets: List[Packet] = []
    local_port = _ephemeral_port(rng)
    remote_ip = endpoint.pick_ip(rng)
    next_reconnect = t0 + RECONNECT_PERIOD_S
    t = t0 + flow.phase_s
    while t < t1:
        if t >= next_reconnect:
            local_port = _ephemeral_port(rng)
            remote_ip = endpoint.pick_ip(rng)
            next_reconnect += RECONNECT_PERIOD_S
        jitter = float(rng.uniform(-flow.jitter_s, flow.jitter_s))
        for size, direction in (
            (flow.size_out, Direction.OUTBOUND),
            (flow.size_in, Direction.INBOUND),
        ):
            if size > 0:
                packets.append(
                    _make_packet(
                        timestamp=t + jitter + (0.01 if direction is Direction.INBOUND else 0.0),
                        size=size,
                        direction=direction,
                        device=profile.name,
                        device_ip=device_ip,
                        endpoint=endpoint,
                        local_port=local_port,
                        protocol=flow.protocol,
                        tls=flow.tls,
                        flags=TCP_ACK,
                        traffic_class=TrafficClass.CONTROL,
                        remote_ip=remote_ip,
                    )
                )
        t += flow.period_s
    return packets


def render_event(
    profile: DeviceProfile,
    template: EventTemplate,
    start: float,
    traffic_class: TrafficClass,
    device_ip: str,
    endpoints: Dict[str, Endpoint],
    rng: np.random.Generator,
    event_id: Optional[str] = None,
) -> List[Packet]:
    """Render one unpredictable event from a template.

    Every per-packet attribute is a two-valued marker drawn with the
    template's class-dependent probability (see
    :class:`~repro.testbed.devices.EventTemplate`).  The first packet
    additionally carries the template's distinctive attributes: a fixed
    notification size for rule-based devices, and the UDP opener for the
    WyzeCam.  ``endpoints`` must contain the template's two services.

    ``rng`` must be a PCG64 ``Generator``.  The per-packet uniforms are
    replayed from its raw words (:class:`~repro.rng.WordStream`); the
    values, and the generator's state afterwards, are those of one
    ``Generator`` call per draw.
    """
    n = int(rng.integers(template.n_packets[0], template.n_packets[1] + 1))
    local_port = _event_local_port(template.service_high, rng)
    # One load-balanced address per (event, service) connection, giving
    # each (service, inbound) pair its (src_ip, dst_ip, src_port, dst_port).
    ends = {}
    for service, endpoint in endpoints.items():
        remote = endpoint.pick_ip(rng)
        ends[service, False] = (device_ip, remote, local_port, endpoint.port)
        ends[service, True] = (remote, device_ip, endpoint.port, local_port)
    # The bounded integers above stay Generator calls, so the stream never
    # touches PCG64's 32-bit buffer; it replays the per-packet uniforms
    # from raw words.  Each marker draw ``random() < p`` compares the raw
    # word with its bound.  Sizes stay Generator normals.
    words = WordStream(rng)
    word = words.next64
    bound = WordStream.bound
    port_high = bound(template.port_high_prob)
    first_inbound = bound(template.first_inbound_prob)
    first_udp = bound(template.first_udp_prob)
    inbound_p = bound(template.inbound_prob)
    tcp_p = bound(template.tcp_prob)
    tls_p = bound(template.tls_prob)
    psh_p = bound(template.psh_prob)
    size_big = bound(template.size_big_prob)
    iat_fast = bound(template.iat_fast_prob)
    device = profile.name
    packets: List[Packet] = []
    t = start
    for i in range(n):
        service = template.service_high if word() < port_high else template.service_low
        if i == 0:
            inbound = word() < first_inbound
            udp = word() < first_udp
            tcp = not udp and word() < tcp_p
        else:
            inbound = word() < inbound_p
            tcp = word() < tcp_p
        if tcp:
            tls = TLS_1_2 if word() < tls_p else TLS_NONE
            flags = TCP_PSH | TCP_ACK if word() < psh_p else TCP_ACK
        else:
            tls = TLS_NONE
            flags = 0
        if i == 0 and template.first_size is not None:
            size = template.first_size
        else:
            mode = template.size_big if word() < size_big else template.size_small
            size = max(60, int(rng.normal(*mode)))
        src_ip, dst_ip, src_port, dst_port = ends[service, inbound]
        packets.append(
            Packet(
                timestamp=t,
                size=size,
                src_ip=src_ip,
                dst_ip=dst_ip,
                src_port=src_port,
                dst_port=dst_port,
                protocol="tcp" if tcp else "udp",
                direction=Direction.INBOUND if inbound else Direction.OUTBOUND,
                device=device,
                tcp_flags=flags,
                tls_version=tls,
                traffic_class=traffic_class,
                event_id=event_id,
            )
        )
        iat = template.iat_fast if word() < iat_fast else template.iat_slow
        t += words.uniform(*iat)
    words.close()
    return packets


def _render_burst(
    profile: DeviceProfile,
    burst: BurstSpec,
    start: float,
    traffic_class: TrafficClass,
    device_ip: str,
    endpoint: Endpoint,
    rng: np.random.Generator,
    event_id: Optional[str] = None,
) -> List[Packet]:
    """Render a predictable repetitive burst (same size, constant IAT)."""
    local_port = _ephemeral_port(rng)
    remote_ip = endpoint.pick_ip(rng)
    direction = Direction.INBOUND if burst.inbound else Direction.OUTBOUND
    return [
        _make_packet(
            timestamp=start + i * burst.iat_s + float(rng.uniform(-0.02, 0.02)),
            size=burst.size,
            remote_ip=remote_ip,
            direction=direction,
            device=profile.name,
            device_ip=device_ip,
            endpoint=endpoint,
            local_port=local_port,
            protocol="tcp",
            tls=TLS_1_2,
            flags=TCP_PSH | TCP_ACK,
            traffic_class=traffic_class,
            event_id=event_id,
        )
        for i in range(burst.n_packets)
    ]


def _render_stream(
    profile: DeviceProfile,
    stream: StreamSpec,
    start: float,
    device_ip: str,
    endpoint: Endpoint,
    rng: np.random.Generator,
    event_id: Optional[str] = None,
) -> List[Packet]:
    """Render a constant-rate outbound media stream (camera video)."""
    duration = float(rng.uniform(*stream.duration_range_s))
    n = max(2, int(duration * stream.rate_pps))
    iat = 1.0 / stream.rate_pps
    local_port = _ephemeral_port(rng)
    remote_ip = endpoint.pick_ip(rng)
    return [
        _make_packet(
            timestamp=start + i * iat + float(rng.uniform(-0.005, 0.005)),
            size=stream.size,
            remote_ip=remote_ip,
            direction=Direction.OUTBOUND,
            device=profile.name,
            device_ip=device_ip,
            endpoint=endpoint,
            local_port=local_port,
            protocol="udp",
            tls=TLS_NONE,
            flags=0,
            traffic_class=TrafficClass.MANUAL,
            event_id=event_id,
        )
        for i in range(n)
    ]


def _confused_template(
    profile: DeviceProfile,
    traffic_class: TrafficClass,
    rng: np.random.Generator,
) -> EventTemplate:
    """Pick the event template, applying cross-class confusion.

    With probability ``profile.confusion`` an event is rendered from a
    *different* class's template while keeping its ground-truth label —
    the source of the classifier's irreducible error, standing in for
    the "complex interactions not covered by the training set" the paper
    blames for e.g. the E4's misclassifications.
    """
    manual_templates = profile.manual_templates()
    templates = {
        TrafficClass.MANUAL: manual_templates[int(rng.integers(0, len(manual_templates)))],
        TrafficClass.AUTOMATED: profile.automated,
        TrafficClass.CONTROL: profile.control_noise,
    }
    own = templates[traffic_class]
    if profile.confusion > 0 and rng.random() < profile.confusion:
        others = [t for cls, t in templates.items() if cls is not traffic_class]
        return others[int(rng.integers(0, len(others)))]
    return own


class Household:
    """One simulated household: devices + schedules -> labelled trace."""

    def __init__(
        self,
        devices: Sequence[Union[str, DeviceProfile]],
        config: Optional[HouseholdConfig] = None,
        cloud: Optional[CloudDirectory] = None,
        routine_schedule: Optional["RoutineSchedule"] = None,
    ) -> None:
        self.config = config or HouseholdConfig()
        self.profiles: List[DeviceProfile] = [
            profile_for(d) if isinstance(d, str) else d for d in devices
        ]
        #: optional IFTTT-style schedule overriding the default periodic
        #: automation plan (see :mod:`repro.testbed.routines`)
        self.routine_schedule = routine_schedule
        self.cloud = cloud or CloudDirectory(seed=spawn_seed(self.config.seed, "cloud"))
        self.device_ips: Dict[str, str] = {
            profile.name: f"{self.config.subnet}{10 + i}"
            for i, profile in enumerate(self.profiles)
        }
        self._event_counter = itertools.count()

    def _endpoint(self, profile: DeviceProfile, service: str) -> Endpoint:
        return self.cloud.endpoint(profile.vendor, service, self.config.location)

    def _event_endpoints(
        self, profile: DeviceProfile, template: EventTemplate
    ) -> Dict[str, Endpoint]:
        return {
            service: self._endpoint(profile, service) for service in template.services()
        }

    def _next_event_id(self, profile: DeviceProfile, kind: str) -> str:
        return f"{profile.name}-{kind}-{next(self._event_counter)}"

    def simulate(self) -> SimulationResult:
        """Run the simulation and return the labelled capture."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        packets: List[Packet] = []
        log = GroundTruthLog()

        for profile in self.profiles:
            device_ip = self.device_ips[profile.name]

            # 1. Periodic control flows (the predictable bulk).
            for flow in profile.control_flows:
                endpoint = self._endpoint(profile, flow.service)
                packets.extend(
                    _render_periodic(profile, flow, device_ip, endpoint, 0.0, cfg.duration_s, rng)
                )

            # 2. Unpredictable control events (Poisson arrivals).
            rate = profile.control_noise_per_hour / 3600.0
            t = float(rng.exponential(1.0 / rate)) if rate > 0 else float("inf")
            while t < cfg.duration_s:
                template = _confused_template(profile, TrafficClass.CONTROL, rng)
                packets.extend(
                    render_event(
                        profile,
                        template,
                        t,
                        TrafficClass.CONTROL,
                        device_ip,
                        self._event_endpoints(profile, template),
                        rng,
                        event_id=self._next_event_id(profile, "control"),
                    )
                )
                t += float(rng.exponential(1.0 / rate))

            # 3. Routines: a predictable burst + unpredictable notification.
            if self.routine_schedule is not None:
                plan = self.routine_schedule.expand(cfg.duration_s, seed=cfg.seed)
                firing_times = [t for _, t in plan.get(profile.name, [])]
            else:
                firing_times = None
                t = float(rng.uniform(60.0, cfg.routine_period_s))
            firing_iter = iter(firing_times) if firing_times is not None else None
            if firing_iter is not None:
                t = next(firing_iter, cfg.duration_s + 1.0)
            while t < cfg.duration_s:
                event_id = self._next_event_id(profile, "automated")
                template = _confused_template(profile, TrafficClass.AUTOMATED, rng)
                packets.extend(
                    render_event(
                        profile,
                        template,
                        t,
                        TrafficClass.AUTOMATED,
                        device_ip,
                        self._event_endpoints(profile, template),
                        rng,
                        event_id=event_id,
                    )
                )
                if profile.automated_burst is not None:
                    burst_endpoint = self._endpoint(profile, profile.automated_burst.service)
                    packets.extend(
                        _render_burst(
                            profile,
                            profile.automated_burst,
                            t + 2.0,
                            TrafficClass.AUTOMATED,
                            device_ip,
                            burst_endpoint,
                            rng,
                            event_id=event_id,
                        )
                    )
                log.add_routine(RoutineFiring(device=profile.name, timestamp=t, duration=30.0))
                if firing_iter is not None:
                    t = next(firing_iter, cfg.duration_s + 1.0)
                else:
                    t += cfg.routine_period_s

            # 4. Manual interactions (human-like schedule, per device).
            t = float(rng.uniform(*cfg.manual_interval_s))
            while t < cfg.duration_s:
                event_id = self._next_event_id(profile, "manual")
                template = _confused_template(profile, TrafficClass.MANUAL, rng)
                event_packets = render_event(
                    profile,
                    template,
                    t,
                    TrafficClass.MANUAL,
                    device_ip,
                    self._event_endpoints(profile, template),
                    rng,
                    event_id=event_id,
                )
                packets.extend(event_packets)
                end = max(p.timestamp for p in event_packets)
                if profile.manual_stream is not None:
                    stream_endpoint = self._endpoint(profile, profile.manual_stream.service)
                    stream_packets = _render_stream(
                        profile, profile.manual_stream, end + 0.5, device_ip, stream_endpoint, rng, event_id
                    )
                    packets.extend(stream_packets)
                    end = max(end, max(p.timestamp for p in stream_packets))
                if profile.manual_tail is not None:
                    tail_endpoint = self._endpoint(profile, profile.manual_tail.service)
                    tail_packets = _render_burst(
                        profile,
                        profile.manual_tail,
                        end + 0.3,
                        TrafficClass.MANUAL,
                        device_ip,
                        tail_endpoint,
                        rng,
                        event_id=event_id,
                    )
                    packets.extend(tail_packets)
                    end = max(end, max(p.timestamp for p in tail_packets))
                log.add_interaction(
                    InteractionWindow(device=profile.name, start=t - 1.0, end=end + 1.0)
                )
                t = end + float(rng.uniform(*cfg.manual_interval_s))

        trace = Trace(packets, dns=self.cloud.dns, name=f"household-{cfg.location.value}")
        return SimulationResult(
            trace=trace,
            log=log,
            cloud=self.cloud,
            device_ips=self.device_ips,
            phone_ip=cfg.phone_ip,
        )


def generate_labeled_events(
    profile: Union[str, DeviceProfile],
    location: Location = Location.US,
    n_manual: int = 50,
    n_automated: int = 60,
    n_control: int = 60,
    seed: int = 0,
    cloud: Optional[CloudDirectory] = None,
) -> List[UnpredictableEvent]:
    """Render labelled unpredictable events directly (no background traffic).

    This is the dataset shape the §4 classification experiments consume:
    each event is an :class:`UnpredictableEvent` whose packets carry
    ground-truth classes.  Events are spaced far apart so they would
    never merge under the 5-second grouping rule.
    """
    if isinstance(profile, str):
        profile = profile_for(profile)
    rng = np.random.default_rng(seed)
    cloud = cloud or CloudDirectory(seed=spawn_seed(seed, "cloud"))
    device_ip = "192.168.1.10"
    events: List[UnpredictableEvent] = []
    t = 0.0
    plan = (
        [(TrafficClass.MANUAL, n_manual)]
        + [(TrafficClass.AUTOMATED, n_automated)]
        + [(TrafficClass.CONTROL, n_control)]
    )
    counter = itertools.count()
    for traffic_class, count in plan:
        for _ in range(count):
            template = _confused_template(profile, traffic_class, rng)
            endpoints = {
                service: cloud.endpoint(profile.vendor, service, location)
                for service in template.services()
            }
            event_packets = render_event(
                profile,
                template,
                t,
                traffic_class,
                device_ip,
                endpoints,
                rng,
                event_id=f"{profile.name}-{traffic_class.value}-{next(counter)}",
            )
            events.append(UnpredictableEvent(packets=event_packets))
            t = max(p.timestamp for p in event_packets) + 30.0
    return events
