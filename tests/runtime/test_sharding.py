"""Shard planning: disjoint cover, serial-identical enumeration."""

import random

import pytest

from repro.apps import get_benchmark
from repro.runtime import (
    ShardRangeError, plan_shards, resolve_shard_count, shard_seed,
)


@pytest.fixture(scope="module")
def space():
    bench = get_benchmark("tpchq6")
    return bench.param_space(bench.default_dataset())


def serial_sample(space, seed, max_points):
    return space.sample(random.Random(seed), max_points)


class TestPlanShards:
    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    def test_union_identical_to_serial(self, space, shards):
        reference = serial_sample(space, 5, 60)
        plan = plan_shards(space, 5, 60, shards)
        assert plan.sampled_points() == reference

    @pytest.mark.parametrize("shards", [1, 2, 7])
    def test_disjoint_contiguous_cover(self, space, shards):
        plan = plan_shards(space, 5, 60, shards)
        covered = []
        for shard in plan.shards:
            covered.extend(shard.indices)
        assert covered == list(range(plan.total_points))

    def test_balanced_partition(self, space):
        plan = plan_shards(space, 5, 60, 7)
        sizes = [len(s) for s in plan.shards]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == plan.total_points

    def test_more_shards_than_points(self, space):
        plan = plan_shards(space, 5, 3, 10)
        assert plan.n_shards <= 3
        assert plan.total_points == len(serial_sample(space, 5, 3))

    def test_rejects_bad_shard_counts(self, space):
        for bad in (0, -1, -7):
            with pytest.raises(ValueError, match="shards must be"):
                plan_shards(space, 5, 60, bad)
        with pytest.raises(ValueError, match="shards must be"):
            plan_shards(space, 5, 60, True)

    def test_cardinality_recorded(self, space):
        plan = plan_shards(space, 5, 60, 2)
        assert plan.space_cardinality == space.cardinality


class TestShardRange:
    def test_ranges_tile_the_full_partition(self, space):
        full = plan_shards(space, 5, 60, 6)
        a = plan_shards(space, 5, 60, 6, shard_range=(0, 2))
        b = plan_shards(space, 5, 60, 6, shard_range=(2, 6))
        assert a.sampled_points() + b.sampled_points() == (
            full.sampled_points()
        )
        assert a.is_partial and b.is_partial and not full.is_partial
        assert a.planned_shards == b.planned_shards == 6
        assert a.global_points == full.total_points

    def test_ranged_shards_keep_global_indices(self, space):
        full = plan_shards(space, 5, 60, 6)
        ranged = plan_shards(space, 5, 60, 6, shard_range=(3, 5))
        by_index = {s.index: s for s in full.shards}
        for shard in ranged.shards:
            assert shard.start == by_index[shard.index].start
            assert tuple(shard.points) == tuple(by_index[shard.index].points)

    def test_out_of_bounds_range_rejected(self, space):
        for bad in ((0, 7), (-1, 2), (3, 3), (4, 2)):
            with pytest.raises(ShardRangeError, match="shard_range"):
                plan_shards(space, 5, 60, 6, shard_range=bad)

    def test_non_integer_range_rejected(self, space):
        with pytest.raises(ShardRangeError, match="pair of integers"):
            plan_shards(space, 5, 60, 6, shard_range=(0, True))


class TestResolveShardCount:
    def test_int_passthrough(self):
        assert resolve_shard_count(7) == 7

    def test_rejects_bogus_strings_and_bools(self):
        for bad in ("fast", "auto", 1.5, True, 0, -3):
            with pytest.raises(ValueError, match="shards must be"):
                resolve_shard_count(bad)


class TestShardSeeds:
    def test_streams_decorrelated(self):
        seeds = {shard_seed(1, i) for i in range(100)}
        assert len(seeds) == 100
        assert shard_seed(1, 0) != shard_seed(2, 0)

    def test_per_shard_rng_reproducible(self, space):
        a = plan_shards(space, 5, 60, 4)
        b = plan_shards(space, 5, 60, 4)
        for sa, sb in zip(a.shards, b.shards):
            assert sa.rng().random() == sb.rng().random()

    def test_sibling_rngs_differ(self, space):
        plan = plan_shards(space, 5, 60, 4)
        draws = [s.rng().random() for s in plan.shards]
        assert len(set(draws)) == len(draws)
