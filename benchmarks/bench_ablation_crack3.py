"""Ablation: crack-in-three versus two successive crack-in-twos.

The paper proposes the three-way Ξ crack for double-sided ranges (§3.1).
This ablation times the one-pass kernel against the naive composition of
two crack-in-twos on the same uncracked piece, the way
``bench_ablation_kernels.py`` times the two-way kernels.
"""

import numpy as np
import pytest

from benchmarks.conftest import BENCH_ROWS
from repro.core.crack import KIND_LE, KIND_LT, crack_in_three, crack_in_three_via_two

KERNELS = {
    "crack3": crack_in_three,
    "2x_crack2": crack_in_three_via_two,
}
LOW, HIGH = BENCH_ROWS // 4, 3 * BENCH_ROWS // 4


@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
def test_ablation_double_sided_strategy(benchmark, kernel_name):
    kernel = KERNELS[kernel_name]

    def setup():
        rng = np.random.default_rng(0)
        values = rng.permutation(BENCH_ROWS).astype(np.int64)
        return (values, np.arange(BENCH_ROWS, dtype=np.int64)), {}

    def crack(values, oids):
        return kernel(
            values, oids, 0, BENCH_ROWS, LOW, HIGH, low_kind=KIND_LT, high_kind=KIND_LE
        )

    splits = benchmark.pedantic(crack, setup=setup, rounds=5, iterations=1)
    assert splits == (LOW, HIGH + 1)
