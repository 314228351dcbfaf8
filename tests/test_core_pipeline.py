"""Integration tests for the end-to-end FIAT system (Table 6)."""

import pytest

from repro.core import FiatConfig, FiatSystem


@pytest.fixture(scope="module")
def system_results():
    system = FiatSystem(
        ["EchoDot4", "SP10", "WyzeCam"],
        config=FiatConfig(bootstrap_s=0.0),
        seed=0,
        n_training_events=160,
    )
    results = system.run_accuracy(n_manual=25, n_non_manual=50, n_attacks=25)
    return system, results


class TestAccuracyExperiment:
    def test_all_devices_reported(self, system_results):
        _, results = system_results
        assert set(results) == {"EchoDot4", "SP10", "WyzeCam"}

    def test_event_counts(self, system_results):
        _, results = system_results
        for row in results.values():
            assert row.n_manual == 25
            assert row.n_non_manual == 50
            assert row.n_attacks == 25

    def test_rule_device_perfect(self, system_results):
        _, results = system_results
        sp10 = results["SP10"]
        assert sp10.manual_precision == 1.0
        assert sp10.manual_recall == 1.0
        assert sp10.fp_non_manual_blocked == 0.0

    def test_ml_devices_paper_band(self, system_results):
        _, results = system_results
        for device in ("EchoDot4", "WyzeCam"):
            row = results[device]
            # Table 6: recalls >= 0.92, errors a few percent at most.
            assert row.manual_recall > 0.8, device
            assert row.non_manual_recall > 0.9, device
            assert row.fp_non_manual_blocked < 0.1, device

    def test_false_negatives_bounded(self, system_results):
        _, results = system_results
        for row in results.values():
            # paper: zero for half the devices, <= ~6 % for the rest;
            # allow slack for our smaller sample size
            assert row.false_negative < 0.25

    def test_human_validation_rates(self, system_results):
        system, _ = system_results
        rates = system.human_validation_rates()
        assert rates["human_recall"] > 0.85
        assert rates["non_human_recall"] > 0.9

    def test_proofless_attacks_on_rule_devices_always_blocked(self):
        system = FiatSystem(["SP10"], config=FiatConfig(bootstrap_s=0.0), seed=3)
        results = system.run_accuracy(
            n_manual=5, n_non_manual=5, n_attacks=20, attack_with_proof=0.0
        )
        assert results["SP10"].false_negative == 0.0

    def test_spyware_attacks_bounded_by_validator(self):
        system = FiatSystem(["SP10"], config=FiatConfig(bootstrap_s=0.0), seed=4)
        results = system.run_accuracy(
            n_manual=5, n_non_manual=5, n_attacks=30, attack_with_proof=1.0
        )
        # FN equals the validator's non-human miss rate (~1-2 %).
        assert results["SP10"].false_negative < 0.15


class TestProofTally:
    def test_channel_rejected_proof_leaves_human_confusion_unchanged(self, monkeypatch):
        system = FiatSystem(["SP10"], config=FiatConfig(bootstrap_s=0.0), seed=5)
        system._send_proof("SP10", 100.0, human=True)
        tallied = dict(system.human_confusion)
        assert sum(tallied.values()) == 1
        # A proof signed long before it is sent arrives stale: the
        # channel rejects it, so there is no interaction to tally, even
        # with the first one still inside its validity window.
        stale = system.app.channel.prepare("com.tplink.kasa", [0.0] * 48, now=0.0)
        monkeypatch.setattr(system.app.channel, "prepare", lambda *args, **kwargs: stale)
        system._send_proof("SP10", 130.0, human=False)
        assert "stale" in system.validation.receiver.rejections
        assert system.human_confusion == tallied
