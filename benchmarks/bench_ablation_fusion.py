"""Ablation: cracker-index size control.

§3.2: "the cracker index grows quickly and becomes the target of a
resource management challenge."  This ablation compares three set-ups
over a long random-range workload: unbounded cracking, the piece-size
cut-off (``crack_threshold``), and an unbounded column whose index is
fused back to 64 pieces after every query (``CrackerIndex.fuse``) —
measuring the time cost of re-cracking fused pieces.
"""

import numpy as np
import pytest

from benchmarks.conftest import BENCH_ROWS
from repro.core.cracked_column import CrackedColumn

QUERIES = 200
MAX_PIECES = 64

#: set-up name -> (crack_threshold, pieces to fuse to after each query).
SETUPS = {
    "eager_unbounded": (0, None),
    "bounded_64_pieces": (0, MAX_PIECES),
    "lazy_block_cutoff": (1024, None),
}


def _workload(seed=0):
    rng = np.random.default_rng(seed)
    lows = rng.integers(1, BENCH_ROWS - 2000, QUERIES)
    spans = rng.integers(100, 2000, QUERIES)
    return list(zip(lows.tolist(), (lows + spans).tolist()))


@pytest.mark.parametrize("setup_name", sorted(SETUPS))
def test_ablation_fusion_policy(benchmark, tapestry, setup_name):
    workload = _workload()
    crack_threshold, max_pieces = SETUPS[setup_name]

    def setup():
        column = CrackedColumn(
            tapestry.build_relation("R").column("a"), crack_threshold=crack_threshold
        )
        return (column,), {}

    def sequence(column):
        total = 0
        for low, high in workload:
            total += column.range_select(low, high, high_inclusive=True).count
            if max_pieces is not None:
                column.index.fuse(max_pieces)
        return column.piece_count

    pieces = benchmark.pedantic(sequence, setup=setup, rounds=3, iterations=1)
    if max_pieces is not None:
        assert pieces <= max_pieces
