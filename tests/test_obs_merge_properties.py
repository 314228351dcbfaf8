"""Property tests for the exact snapshot merge algebra.

Fleet aggregation (`repro.fleet.aggregate`) folds per-home snapshots
through one exact :class:`~repro.obs.mergetree.SnapshotAccumulator` in
spec order, and :func:`~repro.obs.mergetree.merge_snapshots` is that
same fold over a finished sequence.  The fleet's determinism contract
rests on it behaving like a well-defined shard union: associative,
commutative over shard-disjoint gauges, with the empty snapshot as
identity.  These tests exercise those laws over randomly generated
shard populations rather than hand-picked examples.

Generator notes (the laws are *conditional*, and the conditions mirror
how the fleet actually shards):

* gauges are last-writer-wins on conflict, so each generated shard
  carries shard-unique gauge labels — exactly what per-home workers
  produce — and a separate test documents the conflicting-label case;
* all values are integer-valued, so every result is exact and the laws
  can be asserted byte for byte;
* histogram boundaries are pinned per metric name, as the registry
  pins them in production.
"""

import random

import pytest

from repro.obs.mergetree import merge_snapshots
from repro.obs.registry import Histogram, MetricsRegistry, MetricsSnapshot

#: Counter families sampled by the generator (names mirror production).
COUNTERS = ("proxy_decisions_total", "proofs_verified_total", "alerts_total")
GAUGES = ("journal_epoch", "breaker_state")
#: Histogram boundaries pinned per metric name, as the registry does.
HISTOGRAMS = {
    "proof_ttv_ms": (1.0, 5.0, 25.0, 125.0),
    "queue_depth": (1.0, 2.0, 4.0, 8.0, 16.0),
}


def make_shard(rng: random.Random, shard_id: int) -> MetricsSnapshot:
    """One random shard snapshot with shard-unique gauge labels."""
    counters = {}
    for name in COUNTERS:
        if rng.random() < 0.8:
            counters[name] = {
                f"device=SP{k}": float(rng.randrange(0, 50))
                for k in rng.sample(range(5), rng.randrange(1, 4))
            }
    gauges = {
        name: {f"shard={shard_id}": float(rng.randrange(0, 9))}
        for name in GAUGES
        if rng.random() < 0.8
    }
    histograms = {}
    for name, boundaries in HISTOGRAMS.items():
        if rng.random() < 0.8:
            series = {}
            for label in rng.sample(["", "device=SP10", "device=WP3"], rng.randrange(1, 3)):
                histogram = Histogram(boundaries=boundaries)
                for _ in range(rng.randrange(1, 20)):
                    histogram.observe(float(rng.randrange(0, 30)))
                series[label] = histogram.to_dict()
            histograms[name] = series
    return MetricsSnapshot(counters=counters, gauges=gauges, histograms=histograms)


def make_shards(seed: int, n: int = 5):
    rng = random.Random(seed)
    return [make_shard(rng, shard_id) for shard_id in range(n)]


@pytest.mark.parametrize("seed", range(20))
class TestMergeLaws:
    def test_commutative(self, seed):
        a, b = make_shards(seed, n=2)
        assert merge_snapshots([a, b]).to_json() == merge_snapshots([b, a]).to_json()

    def test_associative(self, seed):
        a, b, c = make_shards(seed, n=3)
        left = merge_snapshots([merge_snapshots([a, b]), c])
        right = merge_snapshots([a, merge_snapshots([b, c])])
        assert left.to_json() == right.to_json() == merge_snapshots([a, b, c]).to_json()

    def test_identity_with_empty(self, seed):
        (a,) = make_shards(seed, n=1)
        empty = MetricsSnapshot()
        assert merge_snapshots([empty, a]).to_json() == a.to_json()
        assert merge_snapshots([a, empty]).to_json() == a.to_json()
        assert merge_snapshots([a]).to_json() == a.to_json()
        assert merge_snapshots([empty, empty]).to_json() == MetricsSnapshot().to_json()

    def test_fold_order_independent(self, seed):
        """Any shard permutation folds to the same population snapshot."""
        shards = make_shards(seed, n=6)
        def fold(ordering):
            return merge_snapshots(ordering).to_json()

        reference = fold(shards)
        shuffled = list(shards)
        random.Random(seed + 1).shuffle(shuffled)
        assert fold(shuffled) == reference
        assert fold(list(reversed(shards))) == reference


class TestMergeSemantics:
    def test_merge_leaves_operands_unchanged(self):
        a, b = make_shards(3, n=2)
        before_a, before_b = a.to_json(), b.to_json()
        merge_snapshots([a, b])
        assert a.to_json() == before_a and b.to_json() == before_b

    def test_counters_add(self):
        a = MetricsSnapshot(counters={"x_total": {"k=1": 2.0}})
        b = MetricsSnapshot(counters={"x_total": {"k=1": 3.0, "k=2": 1.0}})
        merged = merge_snapshots([a, b])
        assert merged.counters["x_total"] == {"k=1": 5.0, "k=2": 1.0}

    def test_conflicting_gauge_labels_take_last_writer(self):
        """The documented non-commutative edge the fleet must avoid:
        two shards writing the *same* gauge series conflict, and the
        right-hand operand wins.  Workers therefore label gauges with
        shard-unique keys (or strip them) before aggregation."""
        a = MetricsSnapshot(gauges={"epoch": {"": 1.0}})
        b = MetricsSnapshot(gauges={"epoch": {"": 7.0}})
        assert merge_snapshots([a, b]).gauges["epoch"][""] == 7.0
        assert merge_snapshots([b, a]).gauges["epoch"][""] == 1.0

    def test_histogram_counts_and_sidecars_add(self):
        bounds = (1.0, 10.0)
        one, two = Histogram(boundaries=bounds), Histogram(boundaries=bounds)
        one.observe(0.5)
        two.observe(20.0)
        a = MetricsSnapshot(histograms={"h": {"": one.to_dict()}})
        b = MetricsSnapshot(histograms={"h": {"": two.to_dict()}})
        merged = merge_snapshots([a, b]).histogram("h")
        assert merged is not None
        assert merged.count == 2
        assert merged.sum == 20.5
        assert merged.min == 0.5 and merged.max == 20.0


class TestMergeEdgeCases:
    """Boundary conditions the fleet merge path must hold exactly."""

    def test_label_cardinality_cap_at_exact_boundary(self):
        """Filling the cap exactly creates no overflow series; the very
        next distinct label set folds into ``_overflow``."""
        registry = MetricsRegistry(max_label_sets=3)
        for k in range(3):
            registry.inc("c", key=str(k))
        assert registry.n_label_overflows == 0
        at_cap = registry.snapshot()
        assert len(at_cap.counters["c"]) == 3
        assert not any("_overflow" in key for key in at_cap.counters["c"])

        registry.inc("c", key="3")  # one past the cap
        assert registry.n_label_overflows == 1
        over = registry.snapshot()
        assert len(over.counters["c"]) == 4  # 3 real + the overflow bucket
        assert over.counters["c"]['_overflow=true'] == 1.0
        # Capped shards still merge like any other shard.
        merged = merge_snapshots([over, over])
        assert merged.counters["c"]['_overflow=true'] == 2.0

    def test_histogram_merge_over_disjoint_label_sets(self):
        """Series under the same metric name but different labels pass
        through untouched — no cross-label mixing."""
        bounds = (1.0, 10.0)
        one, two = Histogram(boundaries=bounds), Histogram(boundaries=bounds)
        one.observe(0.5)
        one.observe(2.0)
        two.observe(20.0)
        a = MetricsSnapshot(histograms={"h": {"device=A": one.to_dict()}})
        b = MetricsSnapshot(histograms={"h": {"device=B": two.to_dict()}})
        merged = merge_snapshots([a, b])
        assert set(merged.histograms["h"]) == {"device=A", "device=B"}
        left = merged.histogram("h", "device=A")
        right = merged.histogram("h", "device=B")
        assert left.count == 2 and left.sum == 2.5
        assert right.count == 1 and right.sum == 20.0

    def test_empty_shards_are_identity_anywhere_in_the_fold(self):
        """A fleet whose stream interleaves no-op shards aggregates to
        the same bytes as one without them."""
        shards = make_shards(11, n=4)
        def fold(sequence):
            return merge_snapshots(sequence).to_json()

        with_empties = [MetricsSnapshot()]
        for shard in shards:
            with_empties.extend([shard, MetricsSnapshot()])
        assert fold(with_empties) == fold(shards)


class TestPrometheusRendering:
    """The text exposition of merged population snapshots."""

    def _shard(self, inc, observations):
        registry = MetricsRegistry()
        registry.inc("packets_total", inc, action="allow")
        registry.set_gauge("breaker_state", inc, component="ml")
        for value in observations:
            registry.observe("lat_ms", value, boundaries=(1.0, 10.0))
        return registry.snapshot()

    def test_merged_population_renders_summed_series(self):
        merged = merge_snapshots([self._shard(3, [0.5]), self._shard(4, [2.0, 20.0])])
        text = merged.render_prometheus()
        assert "# TYPE packets_total counter" in text
        assert 'packets_total{action="allow"} 7' in text
        assert "# TYPE breaker_state gauge" in text
        assert 'breaker_state{component="ml"} 4' in text  # last writer
        assert "# TYPE lat_ms histogram" in text
        # Cumulative buckets over the merged counts: 1 below 1.0, 2
        # at or below 10.0, all 3 below +Inf.
        assert 'lat_ms_bucket{le="1"} 1' in text
        assert 'lat_ms_bucket{le="10"} 2' in text
        assert 'lat_ms_bucket{le="+Inf"} 3' in text
        assert "lat_ms_sum 22.5" in text
        assert "lat_ms_count 3" in text

    def test_bucket_lines_keep_series_labels(self):
        registry = MetricsRegistry()
        registry.observe("lat_ms", 0.5, boundaries=(1.0,), device="SP2")
        text = registry.snapshot().render_prometheus()
        assert 'lat_ms_bucket{device="SP2",le="1"} 1' in text
        assert 'lat_ms_count{device="SP2"} 1' in text

    def test_empty_snapshot_renders_empty(self):
        assert MetricsSnapshot().render_prometheus().strip() == ""
