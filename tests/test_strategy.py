"""Tests for the crack policy: eager cracking, the crack threshold and
piece fusion (``CrackerIndex.fuse``)."""

import numpy as np
import pytest

from repro.core.cracked_column import CrackedColumn
from repro.errors import CrackError
from repro.storage.bat import BAT


def make_column(values, crack_threshold: int = 0) -> CrackedColumn:
    return CrackedColumn(BAT.from_values("t", values), crack_threshold=crack_threshold)


class TestEagerStrategy:
    """The default policy (``crack_threshold=0``): crack on every query."""

    def test_always_cracks(self, rng):
        column = make_column(rng.permutation(1000))
        column.range_select(100, 200)
        assert column.piece_count == 3

    def test_answers_match_brute_force(self, rng):
        data = rng.permutation(500)
        column = make_column(data)
        result = column.range_select(50, 150, high_inclusive=True)
        assert result.count == int(np.sum((data >= 50) & (data <= 150)))


class TestLazyThreshold:
    """``crack_threshold``: never split a piece below the cut-off."""

    def test_small_pieces_not_cracked(self, rng):
        data = rng.permutation(1000)
        column = make_column(data, crack_threshold=2000)
        result = column.range_select(100, 200, high_inclusive=True)
        # Piece (the whole column, 1000 < 2000) is below the cut-off:
        # answered by scan, no reorganisation.
        assert column.piece_count == 1
        assert result.count == 101
        assert not result.contiguous

    def test_large_pieces_cracked(self, rng):
        column = make_column(rng.permutation(1000), crack_threshold=10)
        column.range_select(100, 200)
        assert column.piece_count == 3

    def test_cracking_stops_once_pieces_fit_blocks(self, rng):
        data = rng.permutation(1000)
        column = make_column(data, crack_threshold=300)
        for low in range(0, 900, 37):
            column.range_select(low, low + 50, high_inclusive=True)
        # All pieces are now below the block cut-off ...
        assert all(size < 300 for size in column.index.piece_sizes())
        pieces = column.piece_count
        # ... so further queries with fresh bounds never crack again.
        for low in (5, 123, 456, 789, 901):
            result = column.range_select(low, low + 17, high_inclusive=True)
            expected = int(np.sum((data >= low) & (data <= low + 17)))
            assert result.count == expected
        assert column.piece_count == pieces

    def test_existing_boundaries_still_answer_without_crack(self, rng):
        column = make_column(rng.permutation(1000), crack_threshold=10)
        column.range_select(100, 200)
        pieces_before = column.piece_count
        result = column.range_select(100, 200)
        assert column.piece_count == pieces_before
        assert result.contiguous


class TestBoundedPieces:
    """Fusing after each query caps the piece count."""

    def test_piece_count_capped(self, rng):
        column = make_column(rng.permutation(2000))
        fusions = 0
        for low in range(0, 1800, 61):
            column.range_select(low, low + 30, high_inclusive=True)
            fusions += column.index.fuse(5)
        assert column.piece_count <= 5
        assert fusions > 0

    def test_answers_correct_under_fusion(self, rng):
        data = rng.permutation(2000)
        column = make_column(data)
        for low in (100, 700, 1500, 300, 1100):
            result = column.range_select(low, low + 99, high_inclusive=True)
            expected = int(np.sum((data >= low) & (data <= low + 99)))
            assert result.count == expected
            column.index.fuse(4)
            column.check_invariants()


class TestFuseTo:
    def test_fuses_to_target(self, rng):
        column = make_column(rng.permutation(1000))
        for low in range(0, 900, 97):
            column.range_select(low, low + 20, high_inclusive=True)
        assert column.piece_count > 4
        removed = column.index.fuse(4)
        assert removed > 0
        assert column.piece_count == 4
        column.check_invariants()

    def test_fuse_noop_when_under_target(self, rng):
        column = make_column(rng.permutation(100))
        column.range_select(10, 20)
        assert column.index.fuse(100) == 0

    def test_fuse_prefers_smallest_neighbours(self):
        column = make_column(list(range(100)))
        column.range_select(2, 4)    # tiny pieces near the left edge
        column.range_select(50, 90)  # large pieces
        sizes_before = column.index.piece_sizes()
        column.index.fuse(column.piece_count - 1)
        # The smallest adjacent pair, [0, 2) and [2, 4), was fused.
        assert column.index.piece_sizes() == [4] + sizes_before[2:]

    def test_fuse_invalid_target_raises(self, rng):
        column = make_column(rng.permutation(10))
        with pytest.raises(CrackError):
            column.index.fuse(0)

    def test_data_unmoved_by_fusion(self, rng):
        data = rng.permutation(500)
        column = make_column(data)
        column.range_select(100, 200)
        column.range_select(300, 400)
        snapshot = column.values.copy()
        column.index.fuse(2)
        assert np.array_equal(column.values, snapshot)
