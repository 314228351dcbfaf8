"""Tests for the ``repro.obs`` metrics registry and its snapshots."""

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS_MS,
    CounterView,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    NULL_OBS,
    Observability,
    merge_snapshots,
)


class TestCounters:
    def test_inc_and_total(self):
        registry = MetricsRegistry()
        registry.inc("packets_total", action="allow")
        registry.inc("packets_total", action="allow")
        registry.inc("packets_total", 3, action="drop")
        assert registry.get_counter("packets_total", action="allow") == 2
        assert registry.get_counter("packets_total", action="drop") == 3
        assert registry.counter_total("packets_total") == 5

    def test_unlabelled_and_labelled_series_coexist(self):
        registry = MetricsRegistry()
        registry.inc("hits")
        registry.inc("hits", device="SP10")
        assert registry.get_counter("hits") == 1
        assert registry.counter_total("hits") == 2

    def test_set_counter_is_absolute(self):
        registry = MetricsRegistry()
        registry.set_counter("n", 10)
        registry.set_counter("n", 7)
        assert registry.get_counter("n") == 7

    def test_unseen_counter_reads_zero(self):
        assert MetricsRegistry().get_counter("never") == 0.0


class TestGauges:
    def test_set_get(self):
        registry = MetricsRegistry()
        registry.set_gauge("breaker_state", 2, component="validation")
        assert registry.get_gauge("breaker_state", component="validation") == 2
        registry.set_gauge("breaker_state", 0, component="validation")
        assert registry.get_gauge("breaker_state", component="validation") == 0
        assert registry.get_gauge("breaker_state", default=-1, component="ml") == -1


class TestHistogram:
    def test_count_sum_min_max_mean(self):
        h = Histogram((1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(555.5)
        assert h.min == 0.5 and h.max == 500.0
        assert h.mean == pytest.approx(555.5 / 4)
        assert h.counts == [1, 1, 1, 1]  # one per bucket incl. +Inf

    def test_percentile_single_observation_is_exact(self):
        h = Histogram()
        h.observe(0.042)
        for q in (0.0, 0.5, 0.95, 1.0):
            assert h.percentile(q) == pytest.approx(0.042)

    def test_percentile_monotone_and_clamped(self):
        h = Histogram((1.0, 2.0, 4.0, 8.0))
        for v in (0.5, 1.5, 3.0, 6.0, 7.0, 12.0):
            h.observe(v)
        p50, p95 = h.percentile(0.5), h.percentile(0.95)
        assert h.min <= p50 <= p95 <= h.max

    def test_boundaries_must_increase(self):
        with pytest.raises(ValueError):
            Histogram((1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram((2.0, 1.0))

    def test_registry_pins_boundaries_per_name(self):
        registry = MetricsRegistry()
        registry.observe("lat_ms", 3.0, boundaries=(1.0, 10.0), device="a")
        # later label sets of the same name reuse the established
        # boundaries so the series stay merge-compatible
        registry.observe("lat_ms", 3.0, boundaries=(5.0, 50.0), device="b")
        assert registry.get_histogram("lat_ms", device="b").boundaries == (1.0, 10.0)

    def test_default_boundaries(self):
        registry = MetricsRegistry()
        registry.observe("lat_ms", 3.0)
        assert registry.get_histogram("lat_ms").boundaries == DEFAULT_LATENCY_BUCKETS_MS


class TestLabelCardinalityCap:
    def test_overflow_folds_into_reserved_series(self):
        registry = MetricsRegistry(max_label_sets=2)
        registry.inc("c", key="a")
        registry.inc("c", key="b")
        registry.inc("c", key="c")  # beyond the cap
        registry.inc("c", key="d")
        registry.inc("c", key="a")  # existing series still addressable
        assert registry.get_counter("c", key="a") == 2
        assert registry.get_counter("c", _overflow="true") == 2
        assert registry.n_label_overflows == 2
        assert registry.counter_total("c") == 5

    def test_cap_applies_per_metric_name(self):
        registry = MetricsRegistry(max_label_sets=1)
        registry.inc("x", k="1")
        registry.inc("y", k="1")
        assert registry.n_label_overflows == 0

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry(max_label_sets=0)


class TestSnapshot:
    def _populated(self):
        registry = MetricsRegistry()
        registry.inc("packets_total", 7, action="allow")
        registry.set_gauge("breaker_state", 1, component="ml")
        registry.observe("lat_ms", 0.02)
        registry.observe("lat_ms", 0.08)
        return registry

    def test_json_round_trip(self):
        snapshot = self._populated().snapshot()
        restored = MetricsSnapshot.from_json(snapshot.to_json())
        assert restored.to_json() == snapshot.to_json()
        assert restored.counter_total("packets_total") == 7
        assert restored.histogram("lat_ms").count == 2

    def test_snapshot_is_frozen_copy(self):
        registry = self._populated()
        snapshot = registry.snapshot()
        registry.inc("packets_total", 100, action="allow")
        registry.observe("lat_ms", 0.5)
        assert snapshot.counter_total("packets_total") == 7
        assert snapshot.histogram("lat_ms").count == 2

    def test_merge_adds_counters_and_histograms(self):
        a = self._populated().snapshot()
        b = self._populated().snapshot()
        merged = merge_snapshots([a, b])
        assert merged.counter_total("packets_total") == 14
        h = merged.histogram("lat_ms")
        assert h.count == 4
        assert h.sum == pytest.approx(0.2)

    def test_merge_disjoint_series_pass_through(self):
        a = MetricsRegistry()
        a.inc("only_a")
        b = MetricsRegistry()
        b.inc("only_b", 5)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged.counter_total("only_a") == 1
        assert merged.counter_total("only_b") == 5

    def test_render_prometheus(self):
        text = self._populated().snapshot().render_prometheus()
        assert "# TYPE packets_total counter" in text
        assert 'packets_total{action="allow"} 7' in text
        assert 'breaker_state{component="ml"} 1' in text
        assert "lat_ms_count 2" in text
        assert 'le="+Inf"' in text

    def test_empty(self):
        assert MetricsRegistry().snapshot().empty
        assert not self._populated().snapshot().empty


class TestCounterView:
    def test_dict_surface(self):
        registry = MetricsRegistry()
        view = CounterView(registry, "health_total", initial=("a", "b"))
        assert view.as_dict() == {"a": 0, "b": 0}
        view["a"] += 1
        view["a"] += 1
        view["c"] = 5
        assert view["a"] == 2
        assert view == {"a": 2, "b": 0, "c": 5}
        assert "c" in view and "z" not in view
        assert sorted(view.keys()) == ["a", "b", "c"]
        assert view.get("z", 9) == 9

    def test_writes_land_in_registry(self):
        registry = MetricsRegistry()
        view = CounterView(registry, "health_total")
        view["classifier_errors"] = 3
        assert registry.get_counter("health_total", kind="classifier_errors") == 3
        # and registry-side writes are visible through the view
        registry.inc("health_total", kind="classifier_errors")
        assert view["classifier_errors"] == 4


class TestObservabilityHandle:
    def test_disabled_handle_is_inert(self):
        obs = Observability(enabled=False)
        obs.inc("c")
        obs.gauge("g", 1)
        obs.observe("h", 1.0)
        with obs.timer("t"):
            pass
        assert obs.mint_trace("proof") == ""
        assert obs.snapshot().empty

    def test_null_obs_shared_and_disabled(self):
        assert NULL_OBS.enabled is False
        NULL_OBS.inc("c")
        assert NULL_OBS.snapshot().empty

    def test_enabled_handle_records(self):
        obs = Observability()
        obs.inc("c", device="SP10")
        with obs.timer("t_ms"):
            pass
        snapshot = obs.snapshot()
        assert snapshot.counter_total("c") == 1
        assert snapshot.histogram("t_ms").count == 1

    def test_trace_ids_deterministic_and_distinct(self):
        a = Observability(trace_seed=1)
        b = Observability(trace_seed=1)
        first = a.mint_trace("proof")
        assert first == b.mint_trace("proof")
        assert first.startswith("proof-")
        assert a.mint_trace("proof") != first
        assert Observability(trace_seed=2).mint_trace("proof") != first
