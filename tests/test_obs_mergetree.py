"""Equivalence and state tests for the exact snapshot merge.

The fleet aggregate folds shard snapshots into one running
:class:`repro.obs.mergetree.SnapshotAccumulator` in spec order;
:func:`merge_snapshots` is the same fold over a finished sequence.  The
contract these tests pin down:

* merging partial ranges in order — any grouping of the sequence —
  renders byte-identically to the shard-by-shard fold, for *any* values
  (exact rational addition is associative).  Resuming a format-2
  aggregator checkpoint relies on this: it merges the stored partial
  ranges of the old binomial forest oldest first;
* for integral-valued shards — every production counter and histogram
  count — the exact fold is also byte-identical to the *old float*
  fold, so the exact sums changed no committed report bytes;
* serialising the accumulator mid-stream and resuming reproduces the
  uninterrupted result bit for bit (the checkpoint path).
"""

import json
import random

import pytest

from repro.fleet import FleetAggregator
from repro.obs.mergetree import SnapshotAccumulator, merge_snapshots
from repro.obs.registry import Histogram, MetricsSnapshot

from test_obs_merge_properties import HISTOGRAMS, make_shards


def make_fractional_shard(rng: random.Random, shard_id: int) -> MetricsSnapshot:
    """A shard with awkward fractional values (floats, not integers)."""
    counters = {
        "latency_total_ms": {
            f"device=SP{k}": rng.random() * 10.0 ** rng.randrange(-3, 4)
            for k in range(rng.randrange(1, 4))
        }
    }
    gauges = {"drift": {f"shard={shard_id}": rng.random()}}
    histograms = {}
    for name, boundaries in HISTOGRAMS.items():
        histogram = Histogram(boundaries=boundaries)
        for _ in range(rng.randrange(1, 12)):
            histogram.observe(rng.random() * 30.0)
        histograms[name] = {"": histogram.to_dict()}
    return MetricsSnapshot(counters=counters, gauges=gauges, histograms=histograms)


def make_fractional_shards(seed: int, n: int):
    rng = random.Random(seed)
    return [make_fractional_shard(rng, shard_id) for shard_id in range(n)]


def fold(shards) -> SnapshotAccumulator:
    """Exact accumulators folded left to right."""
    acc = SnapshotAccumulator()
    for shard in shards:
        acc = acc.merge(SnapshotAccumulator.from_snapshot(shard))
    return acc


def tree_fold(shards) -> SnapshotAccumulator:
    """Exact accumulators merged as a balanced tree over the sequence."""
    if len(shards) <= 1:
        return fold(shards)
    mid = len(shards) // 2
    return tree_fold(shards[:mid]).merge(tree_fold(shards[mid:]))


def old_float_fold(shards) -> MetricsSnapshot:
    """The float fold the fleet aggregate used before the exact sums."""
    merged = MetricsSnapshot()
    for shard in shards:
        merged = merged.merge(shard)
    return merged


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("n", [1, 2, 3, 7, 16])
class TestTreeEquivalence:
    def test_tree_matches_exact_linear_fold_fractional(self, seed, n):
        """A tree-shaped merge == the sequential fold, for any floats."""
        shards = make_fractional_shards(seed, n)
        assert tree_fold(shards).snapshot().to_json() == merge_snapshots(shards).to_json()

    def test_tree_matches_old_float_fold_integral(self, seed, n):
        """For integral shards (production counters/counts) the exact
        fold changed no report bytes."""
        shards = make_shards(seed, n=n)
        assert merge_snapshots(shards).to_json() == old_float_fold(shards).to_json()


class TestTreeStructure:
    def test_empty_tree_renders_empty_snapshot(self):
        assert merge_snapshots([]).to_json() == MetricsSnapshot().to_json()

    def test_empty_accumulator_is_identity(self):
        (shard,) = make_fractional_shards(2, 1)
        lifted = SnapshotAccumulator.from_snapshot(shard)
        left = SnapshotAccumulator().merge(lifted)
        right = lifted.merge(SnapshotAccumulator())
        assert left.snapshot().to_json() == shard.to_json()
        assert right.snapshot().to_json() == shard.to_json()

    def test_gauge_last_writer_order_preserved(self):
        """Conflicting gauge series resolve to the *latest* shard no
        matter how the merge groups the sequence."""
        shards = [
            MetricsSnapshot(gauges={"epoch": {"": float(i)}}) for i in range(9)
        ]
        assert merge_snapshots(shards).gauges["epoch"][""] == 8.0
        assert tree_fold(shards).snapshot().gauges["epoch"][""] == 8.0

    def test_histogram_boundary_conflict_later_range_wins(self):
        one = Histogram(boundaries=(1.0, 2.0))
        one.observe(0.5)
        two = Histogram(boundaries=(5.0, 50.0))
        two.observe(7.0)
        shards = [
            MetricsSnapshot(histograms={"h": {"": one.to_dict()}}),
            MetricsSnapshot(histograms={"h": {"": two.to_dict()}}),
        ]
        merged = merge_snapshots(shards).histogram("h")
        assert merged is not None
        assert list(merged.boundaries) == [5.0, 50.0]
        assert merged.count == 1 and merged.sum == 7.0


class TestTreeState:
    @pytest.mark.parametrize("cut", [0, 1, 3, 6])
    def test_state_roundtrip_midstream_is_bit_identical(self, cut):
        """Checkpoint the accumulator after ``cut`` shards, resume,
        finish: same bytes as the uninterrupted run."""
        shards = make_fractional_shards(5, 7)
        uninterrupted = merge_snapshots(shards)

        state = json.loads(json.dumps(fold(shards[:cut]).to_state()))  # through JSON
        resumed = SnapshotAccumulator.from_state(state)
        for shard in shards[cut:]:
            resumed = resumed.merge(SnapshotAccumulator.from_snapshot(shard))
        assert resumed.n_shards == len(shards)
        assert resumed.snapshot().to_json() == uninterrupted.to_json()

    def test_state_format_guard(self):
        """The aggregator checkpoint that carries the accumulator state
        refuses formats it does not know."""
        with pytest.raises(ValueError):
            FleetAggregator.from_state({"format": 99}, "fleet", 0)

    def test_accumulator_state_keeps_rationals_exact(self):
        acc = fold(make_fractional_shards(6, 3))
        state = json.loads(json.dumps(acc.to_state()))
        restored = SnapshotAccumulator.from_state(state)
        assert restored.snapshot().to_json() == acc.snapshot().to_json()
        # The state encodes exact rationals, not rounded floats.
        series = state["counters"]["latency_total_ms"]
        assert all("/" in value for value in series.values())


class TestAbsorb:
    """Merging later partial ranges into an earlier one, in order — what
    the format-2 checkpoint lift does with the stored forest levels."""

    @pytest.mark.parametrize("splits", [(3, 4), (1, 1, 5), (2, 2, 2, 1)])
    def test_group_trees_equal_flat_tree(self, splits):
        """shard -> group -> fleet == flat fold over the sequence."""
        shards = make_fractional_shards(7, sum(splits))
        flat = merge_snapshots(shards)

        fleet = SnapshotAccumulator()
        offset = 0
        for size in splits:
            fleet = fleet.merge(fold(shards[offset : offset + size]))
            offset += size
        assert fleet.n_shards == len(shards)
        assert fleet.snapshot().to_json() == flat.to_json()

    def test_absorb_empty_tree_is_noop(self):
        acc = fold(make_fractional_shards(8, 3))
        merged = acc.merge(SnapshotAccumulator())
        assert merged.n_shards == 3
        assert merged.snapshot().to_json() == acc.snapshot().to_json()

    def test_absorb_through_state_shipping(self):
        """Partial ranges serialise, reload and merge in range order."""
        shards = make_fractional_shards(9, 6)
        flat = merge_snapshots(shards)
        groups = [json.dumps(fold(shards[lo : lo + 2]).to_state()) for lo in (0, 2, 4)]
        fleet = SnapshotAccumulator()
        for payload in groups:
            fleet = fleet.merge(SnapshotAccumulator.from_state(json.loads(payload)))
        assert fleet.snapshot().to_json() == flat.to_json()
