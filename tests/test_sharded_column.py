"""Unit tests for the shard-parallel cracked column."""

import numpy as np
import pytest

from repro.core import CrackedColumn, ShardedCrackedColumn
from repro.core.sharded_column import ShardedSelectionResult
from repro.errors import CrackError
from repro.storage.bat import BAT


def make_bat(values, name="R.a", tail_type="int"):
    return BAT.from_values(name, values, tail_type=tail_type)


@pytest.fixture
def values(rng):
    return rng.permutation(5000)


@pytest.fixture
def column(values):
    return ShardedCrackedColumn(make_bat(values), shards=4)


class TestConstruction:
    def test_partitions_are_balanced_and_cover(self, column, values):
        sizes = [len(shard) for shard in column.shards]
        assert sum(sizes) == len(values)
        assert max(sizes) - min(sizes) <= 1
        oids = np.concatenate([shard.oids for shard in column.shards])
        assert np.array_equal(np.sort(oids), np.arange(len(values)))

    def test_shards_are_private_copies(self, column, values):
        base = make_bat(values)
        column.shards[0].values[:] = -1
        assert base.tail_array().min() >= 0

    def test_shard_count_capped_by_rows(self):
        column = ShardedCrackedColumn(make_bat([3, 1]), shards=8)
        assert column.shard_count == 2

    def test_invalid_shard_count_rejected(self, values):
        with pytest.raises(CrackError):
            ShardedCrackedColumn(make_bat(values), shards=0)

    def test_non_numeric_column_rejected(self):
        bat = BAT.from_values("R.s", ["a", "b"], tail_type="str")
        with pytest.raises(CrackError):
            ShardedCrackedColumn(bat, shards=2)


class TestRangeSelect:
    @pytest.mark.parametrize(
        "low,high,low_inc,high_inc",
        [
            (100, 900, True, True),
            (100, 900, False, False),
            (0, 5000, True, False),
            (2500, 2500, True, True),
            (2500, 2500, True, False),  # degenerate empty point
            (4000, 100, True, True),  # inverted
            (None, 1000, True, False),
            (3000, None, True, False),
        ],
    )
    def test_matches_numpy_oracle(self, column, values, low, high, low_inc, high_inc):
        result = column.range_select(
            low, high, low_inclusive=low_inc, high_inclusive=high_inc
        )
        mask = np.ones(len(values), dtype=bool)
        if low is not None:
            mask &= values >= low if low_inc else values > low
        if high is not None:
            mask &= values <= high if high_inc else values < high
        if low is not None and high is not None and (
            high < low or (low == high and not (low_inc and high_inc))
        ):
            mask[:] = False
        assert result.count == mask.sum()
        assert np.array_equal(np.sort(result.values), np.sort(values[mask]))
        # Oids are global base positions: they map back to the values.
        assert np.array_equal(values[result.oids], result.values)
        column.check_invariants()

    def test_matches_single_column_cracker(self, values):
        sharded = ShardedCrackedColumn(make_bat(values), shards=4)
        single = CrackedColumn(make_bat(values))
        rng = np.random.default_rng(9)
        for _ in range(25):
            low = int(rng.integers(0, 5000))
            high = low + int(rng.integers(0, 1500))
            a = sharded.range_select(low, high, high_inclusive=True)
            b = single.range_select(low, high, high_inclusive=True)
            assert a.count == b.count
            assert np.array_equal(np.sort(a.oids), np.sort(b.oids))
        sharded.check_invariants()
        single.check_invariants()

    def test_parallel_pool_agrees_with_serial(self, values):
        serial = ShardedCrackedColumn(make_bat(values), shards=4, parallel=False)
        pooled = ShardedCrackedColumn(make_bat(values), shards=4, max_workers=4)
        try:
            rng = np.random.default_rng(4)
            for _ in range(10):
                low = int(rng.integers(0, 5000))
                high = low + int(rng.integers(0, 800))
                a = serial.range_select(low, high, high_inclusive=True)
                b = pooled.range_select(low, high, high_inclusive=True)
                assert a.count == b.count
                assert np.array_equal(np.sort(a.oids), np.sort(b.oids))
            pooled.check_invariants()
        finally:
            pooled.close()

    def test_scan_without_cracking(self, values):
        # Every shard (1250 rows) is below the threshold: scanned, not cracked.
        column = ShardedCrackedColumn(make_bat(values), shards=4, crack_threshold=2000)
        before = column.piece_count
        result = column.range_select(100, 700, high_inclusive=True)
        assert result.count == ((values >= 100) & (values <= 700)).sum()
        assert column.piece_count == before


class TestShardedSelectionResult:
    def test_lazy_concatenation_is_cached(self, column):
        result = column.range_select(500, 1500, high_inclusive=True)
        assert isinstance(result, ShardedSelectionResult)
        assert not result.contiguous
        first = result.values
        assert result.values is first
        assert len(result.oids) == result.count

    def test_per_shard_spans_are_contiguous(self, column):
        result = column.range_select(500, 1500, high_inclusive=True)
        assert len(result.shard_results) == column.shard_count
        for shard_result in result.shard_results:
            assert shard_result.contiguous


class TestAppend:
    def test_append_distributes_and_queries_see_updates(self, column, values):
        rng = np.random.default_rng(2)
        extra = rng.integers(0, 5000, 333)
        column.append(extra)
        assert len(column) == len(values) + len(extra)
        combined = np.concatenate([values, extra])
        result = column.range_select(1000, 2000, high_inclusive=True)
        assert result.count == ((combined >= 1000) & (combined <= 2000)).sum()
        column.check_invariants()

    def test_append_oid_count_mismatch_rejected(self, column):
        with pytest.raises(CrackError):
            column.append([1, 2, 3], oids=[10])

    def test_appended_oids_are_unique_and_monotone(self, column, values):
        first = column.append([7, 8])
        second = column.append([9])
        assert first.tolist() == [len(values), len(values) + 1]
        assert second.tolist() == [len(values) + 2]
        column.check_invariants()


class TestInvariants:
    def test_detects_shard_corruption(self, column):
        column.range_select(1000, 2000, high_inclusive=True)
        shard = column.shards[0]
        # Break the piece invariant: move the global max into piece 0.
        shard.values[0] = 10_000_000
        with pytest.raises(CrackError):
            column.check_invariants()

    def test_detects_duplicated_oids(self, column):
        column.shards[1].oids[0] = int(column.shards[0].oids[0])
        with pytest.raises(CrackError):
            column.check_invariants()

    def test_stats_aggregate_over_shards(self, column):
        column.range_select(1000, 2000, high_inclusive=True)
        assert column.query_stats.queries == column.shard_count
        assert column.crack_stats.cracks >= 1
        assert column.piece_count >= column.shard_count
