"""ShardPlan: pure-function partitioning."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import ShardPlan


class TestShardPlan:
    def test_contiguous_steps_and_shards(self):
        plan = ShardPlan.for_days([10, 11, 12, 13, 14], days_per_step=2)
        assert [group.days for group in plan.steps] == [
            (10, 11), (12, 13), (14,)]
        assert [shard.days for shard in plan.steps[0].shards] == [
            (10,), (11,)]
        assert plan.steps[2].shards[0].days == (14,)   # ragged tail

    def test_multi_day_shards(self):
        plan = ShardPlan.for_days(list(range(10)), days_per_step=6,
                                  days_per_shard=2)
        assert [shard.days for shard in plan.steps[0].shards] == [
            (0, 1), (2, 3), (4, 5)]
        assert plan.max_shards == 3

    def test_degenerate_is_serial_schedule(self):
        plan = ShardPlan.for_days([3, 1, 2], days_per_step=1)
        assert len(plan) == 3
        assert all(len(group) == 1 and len(group.shards[0]) == 1
                   for group in plan.steps)

    def test_validation(self):
        with pytest.raises(ValueError, match="days_per_step"):
            ShardPlan.for_days([1], days_per_step=0)
        with pytest.raises(ValueError, match="days_per_shard"):
            ShardPlan.for_days([1], days_per_step=1, days_per_shard=0)

    @given(days=st.lists(st.integers(0, 500), min_size=0, max_size=60),
           per_step=st.integers(1, 9), per_shard=st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_plan_partitions_exactly(self, days, per_step, per_shard):
        plan = ShardPlan.for_days(days, per_step, per_shard)
        flat = [day for group in plan.steps for day in group.days]
        assert flat == list(days)                  # order preserved
        assert plan.num_days == len(days)
        for group in plan.steps:
            assert len(group.days) <= per_step
            assert [shard.index for shard in group.shards] == \
                list(range(len(group.shards)))
            for shard in group.shards:
                assert 1 <= len(shard) <= per_shard

    def test_plan_is_worker_count_free(self):
        # Nothing about the plan depends on any worker count: same
        # inputs, same plan — the determinism bar in one line.
        a = ShardPlan.for_days(range(17), 4, 2)
        b = ShardPlan.for_days(range(17), 4, 2)
        assert a == b
