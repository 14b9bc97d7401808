"""Seeded inputs and independent numpy reference answers.

Every input is a pure function of ``(rows, seed)`` and the workload, so
the engine under test receives only generated statements and the
benchmark can recompute every answer without it.

The table is ``r(k int, a int, b int)``: ``k`` = 0..rows-1, ``a`` a
seeded permutation of 0..rows-1, ``b`` uniform in [0, 1000).  Because
``a`` is a permutation, the rows with ``a`` in ``[lo, hi]`` are exactly
``inv[lo:hi+1]`` where ``inv[a[i]] = i``, so counts, sums and key
checksums of any range are prefix-sum differences.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_ROWS = 1_000_000
B_DOMAIN = 1000

# Sub-stream identifiers: each workload draws from its own seed sequence.
_TABLE, _ADHOC, _BULK_POOL, _BULK_CLIENT, _WRITE = range(5)


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *stream])


def make_table(rows: int, seed: int) -> dict[str, np.ndarray]:
    rng = rng_for(seed, _TABLE)
    return {
        "k": np.arange(rows, dtype=np.int64),
        "a": rng.permutation(rows).astype(np.int64),
        "b": rng.integers(0, B_DOMAIN, rows, dtype=np.int64),
    }


def load_table(db, columns: dict[str, np.ndarray]) -> None:
    """Bulk-load ``r`` into a fresh database (copies: the engine owns them)."""
    from repro.storage.table import Column, Relation, Schema

    relation = Relation.from_columns(
        "r",
        Schema([Column("k", "int"), Column("a", "int"), Column("b", "int")]),
        {name: values.copy() for name, values in columns.items()},
    )
    db.catalog.create_table(relation)


class RangeReference:
    """Range answers over the pristine table, from prefix sums."""

    def __init__(self, columns: dict[str, np.ndarray]) -> None:
        a = columns["a"]
        inv = np.empty_like(a)
        inv[a] = np.arange(len(a), dtype=np.int64)
        self.rows = len(a)
        self._b_prefix = np.concatenate(([0], np.cumsum(columns["b"][inv])))
        self._k_prefix = np.concatenate(([0], np.cumsum(columns["k"][inv])))

    def count(self, lo: int, hi: int) -> int:
        return hi - lo + 1

    def sum_b(self, lo: int, hi: int) -> int:
        return int(self._b_prefix[hi + 1] - self._b_prefix[lo])

    def sum_k(self, lo: int, hi: int) -> int:
        return int(self._k_prefix[hi + 1] - self._k_prefix[lo])


def _log_uniform_widths(rng, rows: int, low: float, high: float, n: int):
    exponents = rng.uniform(math.log(low), math.log(high), n)
    return np.maximum(1, np.rint(rows * np.exp(exponents))).astype(np.int64)


# --------------------------------------------------------------------- #
# adhoc_burn_in: never-repeating range aggregates from a cold column
# --------------------------------------------------------------------- #

COUNT_SELECTIVITY = (0.001, 0.25)
DRILL_SELECTIVITY = (0.0001, 0.01)


def adhoc_stream(rows: int, seed: int, chunk: int = 1024):
    """Yield ``(kind, (lo, hi), sql)`` forever; no statement text repeats.

    Every 4th statement is a ``sum(b)`` drill-down at 0.01%-1%
    selectivity, the others ``count(*)`` at 0.1%-25%, both log-uniform.
    """
    rng = rng_for(seed, _ADHOC)
    seen: set[tuple[int, int, int]] = set()
    index = 0
    while True:
        counts = _log_uniform_widths(rng, rows, *COUNT_SELECTIVITY, chunk)
        drills = _log_uniform_widths(rng, rows, *DRILL_SELECTIVITY, chunk)
        starts = rng.random(chunk)
        for i in range(chunk):
            drill = index % 4 == 3
            width = int(min(drills[i] if drill else counts[i], rows))
            lo = int(starts[i] * (rows - width + 1))
            while (drill, lo, width) in seen:
                lo = int(rng.integers(0, rows - width + 1))
            seen.add((drill, lo, width))
            hi = lo + width - 1
            if drill:
                yield "sum", (lo, hi), f"SELECT sum(b) FROM r WHERE a BETWEEN {lo} AND {hi}"
            else:
                yield "count", (lo, hi), f"SELECT count(*) FROM r WHERE a BETWEEN {lo} AND {hi}"
            index += 1


# --------------------------------------------------------------------- #
# bulk_fetch: a Zipf-popular pool of row-returning range SELECTs
# --------------------------------------------------------------------- #

POOL_SIZE = 256
BULK_ROWS = (1_000, 10_000, 50_000)


def bulk_pool(rows: int, seed: int) -> list[tuple[int, int, str]]:
    """256 distinct ``(lo, hi, sql)``; statement ``i`` returns
    ``BULK_ROWS[i % 3]`` rows (at most a quarter of a small table, so
    that 256 distinct ranges exist)."""
    rng = rng_for(seed, _BULK_POOL)
    pool: list[tuple[int, int, str]] = []
    seen: set[tuple[int, int]] = set()
    while len(pool) < POOL_SIZE:
        width = min(BULK_ROWS[len(pool) % len(BULK_ROWS)], rows // 4)
        lo = int(rng.integers(0, rows - width + 1))
        if (lo, width) in seen:
            continue
        seen.add((lo, width))
        hi = lo + width - 1
        pool.append((lo, hi, f"SELECT k, b FROM r WHERE a BETWEEN {lo} AND {hi}"))
    return pool


def bulk_sequence(seed: int, client: int, chunk: int = 1024):
    """Yield pool indices forever for one client connection.

    Size classes are visited round-robin and, within a class, a
    statement is drawn Zipf(1) over the class's members.  Every
    statement's overall popularity is therefore Zipf(1) within its class,
    while the rows per statement do not depend on the seed, so runs with
    different seeds measure the same amount of work.
    """
    rng = rng_for(seed, _BULK_CLIENT, client)
    classes = len(BULK_ROWS)
    members = [list(range(c, POOL_SIZE, classes)) for c in range(classes)]
    weights = []
    for group in members:
        w = 1.0 / np.arange(1, len(group) + 1)
        weights.append(w / w.sum())
    turn = client
    while True:
        draws = [rng.choice(len(group), size=chunk, p=p)
                 for group, p in zip(members, weights)]
        for i in range(chunk):
            for _ in range(classes):
                c = turn % classes
                turn += 1
                yield members[c][draws[c][i]]


# --------------------------------------------------------------------- #
# write_mix: reads under range UPDATEs, narrow DELETEs and small INSERTs
# --------------------------------------------------------------------- #

# One block of ten statements: 60% reads, 20% updates, 10% deletes, 10%
# inserts.  Every write is followed by a read, which merges the write's
# pending entries.  The order is fixed so that every seed sees the same
# mix of merging and non-merging reads; the seed draws the literals.
WRITE_BLOCK = ("read", "update", "read", "delete", "read",
               "update", "read", "insert", "read", "read")
UPDATE_SPAN = 20
DELETE_SPAN = 2
INSERT_ROWS = 10


def burn_in_reads(rows: int, seed: int, n: int) -> list[str]:
    """``n`` range counts that crack the cold ``a`` column before a run."""
    rng = rng_for(seed, _WRITE, 1)
    widths = _log_uniform_widths(rng, rows, *COUNT_SELECTIVITY, n)
    statements = []
    for width in widths:
        lo = int(rng.integers(0, rows - width + 1))
        statements.append(
            f"SELECT count(*) FROM r WHERE a BETWEEN {lo} AND {lo + width - 1}"
        )
    return statements


def write_stream(rows: int, seed: int):
    """Yield ``(kind, params, sql)`` forever.

    ``params`` is ``(lo, hi)`` for a read, ``(lo, hi, value)`` for an
    update, ``(lo, hi)`` for a delete and the inserted ``a`` values for
    an insert.
    """
    rng = rng_for(seed, _WRITE)
    next_k = rows
    while True:
        for kind in WRITE_BLOCK:
            if kind == "read":
                width = int(_log_uniform_widths(rng, rows, *COUNT_SELECTIVITY, 1)[0])
                lo = int(rng.integers(0, rows - width + 1))
                hi = lo + width - 1
                yield "read", (lo, hi), (
                    f"SELECT count(*) FROM r WHERE a BETWEEN {lo} AND {hi}"
                )
            elif kind == "update":
                lo = int(rng.integers(0, rows - UPDATE_SPAN))
                value = int(rng.integers(0, rows))
                hi = lo + UPDATE_SPAN
                yield "update", (lo, hi, value), (
                    f"UPDATE r SET a = {value} WHERE a BETWEEN {lo} AND {hi}"
                )
            elif kind == "delete":
                lo = int(rng.integers(0, rows - DELETE_SPAN))
                hi = lo + DELETE_SPAN
                yield "delete", (lo, hi), (
                    f"DELETE FROM r WHERE a BETWEEN {lo} AND {hi}"
                )
            else:
                a_values = rng.integers(0, rows, INSERT_ROWS)
                b_values = rng.integers(0, B_DOMAIN, INSERT_ROWS)
                values = ", ".join(
                    f"({next_k + i}, {int(a)}, {int(b)})"
                    for i, (a, b) in enumerate(zip(a_values, b_values))
                )
                next_k += INSERT_ROWS
                yield "insert", tuple(int(a) for a in a_values), (
                    f"INSERT INTO r VALUES {values}"
                )


class ValueCountModel:
    """Model of ``r``'s ``a`` column as a count per value.

    Every statement in the write mix reads or writes ``a`` by value
    range, so ``counts[v]`` (live rows with ``a == v``) answers each
    read and each DML's affected-row count in O(range width).
    """

    def __init__(self, a: np.ndarray, domain: int) -> None:
        self.counts = np.bincount(a, minlength=domain).astype(np.int64)

    def apply(self, kind: str, params) -> int:
        """Apply one statement; returns its expected answer."""
        counts = self.counts
        if kind == "read":
            lo, hi = params
            return int(counts[lo:hi + 1].sum())
        if kind == "update":
            lo, hi, value = params
            moved = int(counts[lo:hi + 1].sum())
            counts[lo:hi + 1] = 0
            counts[value] += moved
            return moved
        if kind == "delete":
            lo, hi = params
            gone = int(counts[lo:hi + 1].sum())
            counts[lo:hi + 1] = 0
            return gone
        np.add.at(counts, np.asarray(params, dtype=np.int64), 1)
        return len(params)

    def live_rows(self) -> int:
        return int(self.counts.sum())

    def sum_a(self) -> int:
        return int(self.counts @ np.arange(len(self.counts), dtype=np.int64))
