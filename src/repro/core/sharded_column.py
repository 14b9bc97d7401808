"""Shard-parallel cracking: K independently-cracked horizontal partitions.

The paper's cracker reorganises one contiguous cracker column per
attribute, which serialises every query on that attribute.  This module
horizontally partitions the column into ``shards`` blocks, each backed by
its own private :class:`~repro.core.cracked_column.CrackedColumn` and its
own mutex.  A range query fans out across the shards — numpy kernels
release the GIL, so on a multi-core box the shard cracks genuinely
overlap — and two concurrent queries that are cracking *different* shards
never block each other.  Even single-threaded, smaller shards keep the
crack kernels' working set cache-resident.

The answer of a sharded query is a :class:`ShardedSelectionResult`: one
contiguous cracker-column span per shard.  The vectorized executor feeds
each span through the pipeline as its own zero-copy batch
(:class:`~repro.volcano.vectorized.VecShardedCrackedScan`); consumers that
need one flat array get the lazily concatenated ``oids``/``values``.

Oids travel with values through every shard crack, so shard answers carry
global base-table positions and sibling-column gathers need no shard
arithmetic.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack

import numpy as np

from repro.core.crack import CrackStats
from repro.core.cracked_column import CrackedColumn, QueryStats, SelectionResult
from repro.errors import CrackError
from repro.storage.bat import BAT

#: Default shard count: one per core, capped — shards beyond the core
#: count only add fan-out overhead and index fragmentation.
DEFAULT_SHARDS = min(8, max(1, os.cpu_count() or 1))


class ShardedSelectionResult:
    """Answer of a sharded range query: one selection per shard.

    Mirrors the :class:`SelectionResult` surface (``oids``, ``values``,
    ``count``, ``contiguous``) so existing delivery paths work unchanged,
    while ``shard_results`` exposes the per-shard contiguous spans for
    executors that can exploit them.  Concatenation is lazy and cached:
    count-only deliveries never pay it.
    """

    __slots__ = ("shard_results", "_oids", "_values")

    def __init__(self, shard_results: list[SelectionResult]) -> None:
        self.shard_results = shard_results
        self._oids: np.ndarray | None = None
        self._values: np.ndarray | None = None

    @property
    def oids(self) -> np.ndarray:
        if self._oids is None:
            self._oids = np.concatenate(
                [result.oids for result in self.shard_results]
            )
        return self._oids

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = np.concatenate(
                [result.values for result in self.shard_results]
            )
        return self._values

    @property
    def count(self) -> int:
        return sum(result.count for result in self.shard_results)

    @property
    def contiguous(self) -> bool:
        """The flat view is a gather of per-shard spans, never one span."""
        return False

    #: Span bounds of the flat view do not exist; kept for SelectionResult
    #: attribute compatibility.
    start = None
    stop = None


class ShardedCrackedColumn:
    """A cracked column horizontally partitioned into independent shards.

    Args:
        source: base BAT (numeric tail) to crack.
        shards: number of horizontal partitions (contiguous row blocks).
        crack_threshold: piece-size crack cut-off, forwarded to every
            shard (each shard bounds its own pieces; 0 = always crack).
        parallel: fan shard work out over a thread pool.  With one usable
            core (or one shard) the fan-out runs inline instead — the
            pool would only add dispatch latency.
        max_workers: pool size; defaults to ``min(shards, os.cpu_count())``.

    Thread safety: each shard has its own lock, taken around any shard
    crack/merge/append.  Concurrent ``range_select`` calls are safe and
    crack disjoint shards without blocking each other; the caller is
    responsible for snapshotting results if it releases control of the
    column while still holding them (see the SQL layer).
    """

    def __init__(
        self,
        source: BAT,
        shards: int = DEFAULT_SHARDS,
        crack_threshold: int = 0,
        parallel: bool = True,
        max_workers: int | None = None,
    ) -> None:
        if source.tail_type not in ("int", "float", "oid"):
            raise CrackError(
                f"cracking requires a numeric column, got {source.tail_type!r}"
            )
        self._init_from_arrays(
            source.tail_array(),
            source.head_array(),
            shards,
            crack_threshold,
            parallel,
            max_workers,
        )
        self.source = source

    @classmethod
    def from_arrays(
        cls,
        values: np.ndarray,
        oids: np.ndarray | None = None,
        shards: int = DEFAULT_SHARDS,
        crack_threshold: int = 0,
        parallel: bool = True,
        max_workers: int | None = None,
    ) -> "ShardedCrackedColumn":
        """Build a sharded cracker directly over value/oid arrays.

        The tombstone-aware construction path: the provider hands the
        *live* rows (with their storage-position oids), so a cracker
        built after deletes never carries dead tuples.
        """
        values = np.asarray(values)
        if values.dtype.kind not in ("i", "u", "f"):
            raise CrackError(
                f"cracking requires a numeric column, got dtype {values.dtype}"
            )
        if oids is None:
            oids = np.arange(len(values), dtype=np.int64)
        column = cls.__new__(cls)
        column._init_from_arrays(
            values,
            np.asarray(oids, dtype=np.int64),
            shards,
            crack_threshold,
            parallel,
            max_workers,
        )
        column.source = None
        return column

    def _init_from_arrays(
        self,
        values: np.ndarray,
        oids: np.ndarray,
        shards: int,
        crack_threshold: int,
        parallel: bool,
        max_workers: int | None,
    ) -> None:
        if shards < 1:
            raise CrackError(f"shard count must be >= 1, got {shards}")
        if len(values) != len(oids):
            raise CrackError(
                f"got {len(values)} values but {len(oids)} oids"
            )
        self.shard_count = min(shards, len(values)) or 1
        edges = np.linspace(0, len(values), self.shard_count + 1, dtype=np.int64)
        self.shards: list[CrackedColumn] = [
            CrackedColumn.from_arrays(
                values[start:stop],
                oids[start:stop],
                crack_threshold=crack_threshold,
            )
            for start, stop in zip(edges[:-1], edges[1:])
        ]
        self._locks = [threading.Lock() for _ in self.shards]
        self.parallel = parallel
        if max_workers is None:
            max_workers = min(self.shard_count, os.cpu_count() or 1)
        self._max_workers = max(1, max_workers)
        self._executor: ThreadPoolExecutor | None = None
        self._executor_lock = threading.Lock()
        self._append_lock = threading.Lock()
        self._next_oid = int(oids.max()) + 1 if len(oids) else 0
        # Rows copied at first touch; the base BAT may keep growing, so
        # coverage checks compare against this snapshot plus appends.
        self._initial_rows = len(values)
        self._appended = 0
        self._deleted = 0
        # Optional introspection (see CrackedColumn._setup); attach()
        # shares one object across all shards.
        self.introspect = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards) + self.pending_count

    @property
    def piece_count(self) -> int:
        """Total pieces across all shard cracker indexes."""
        return sum(shard.piece_count for shard in self.shards)

    @property
    def pending_count(self) -> int:
        return sum(shard.pending_count for shard in self.shards)

    @property
    def crack_stats(self) -> CrackStats:
        """Aggregated crack accounting (recomputed snapshot, read-only)."""
        total = CrackStats()
        for shard in self.shards:
            total.tuples_touched += shard.crack_stats.tuples_touched
            total.tuples_moved += shard.crack_stats.tuples_moved
            total.cracks += shard.crack_stats.cracks
        return total

    @property
    def query_stats(self) -> QueryStats:
        """Aggregated query accounting (recomputed snapshot, read-only)."""
        total = QueryStats()
        for shard in self.shards:
            total.queries += shard.query_stats.queries
            total.pieces_inspected += shard.query_stats.pieces_inspected
            total.tuples_scanned += shard.query_stats.tuples_scanned
            total.merged_updates += shard.query_stats.merged_updates
        return total

    @property
    def item_bytes(self) -> int:
        """Bytes one (value, oid) pair occupies in shard storage."""
        shard = self.shards[0]
        return shard.values.itemsize + shard.oids.itemsize

    def observability(self) -> dict:
        """Aggregated per-column accounting plus the shard breakdown.

        Sums every shard's
        :meth:`~repro.core.cracked_column.CrackedColumn.observability`
        sample (each read under its shard lock) and adds the sharding
        view: per-shard piece/tuple counts and ``shard_imbalance`` —
        max minus min tuples per shard, the load-skew gauge the strategy
        advisor will watch.
        """
        per_shard: list[dict] = []
        for lock, shard in zip(self._locks, self.shards):
            with lock:
                per_shard.append(shard.observability())
        total = per_shard[0].copy()
        total["piece_tuples"] = dict(total["piece_tuples"])
        for info in per_shard[1:]:
            for key, value in info.items():
                if key == "piece_tuples":
                    continue
                total[key] += value
            total["piece_tuples"]["min"] = min(
                total["piece_tuples"]["min"], info["piece_tuples"]["min"]
            )
            total["piece_tuples"]["max"] = max(
                total["piece_tuples"]["max"], info["piece_tuples"]["max"]
            )
        piece_total = sum(info["pieces"] for info in per_shard)
        total["piece_tuples"]["mean"] = (
            sum(info["pieces"] * info["piece_tuples"]["mean"] for info in per_shard)
            / piece_total
            if piece_total
            else 0.0
        )
        shard_tuples = [info["tuples"] for info in per_shard]
        total["shards"] = self.shard_count
        total["shard_pieces"] = [info["pieces"] for info in per_shard]
        total["shard_tuples"] = shard_tuples
        total["shard_imbalance"] = max(shard_tuples) - min(shard_tuples)
        return total

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def range_select(
        self,
        low=None,
        high=None,
        low_inclusive: bool = True,
        high_inclusive: bool = False,
        snapshot: bool = False,
    ) -> ShardedSelectionResult:
        """Answer ``low θ attr θ high`` by cracking every shard.

        Each shard is cracked under its own lock; the fan-out runs on the
        column's thread pool when it can actually overlap (multiple
        shards, multiple workers), inline otherwise.  Concurrent calls
        are safe and serialise only per shard, not per column — two
        queries cracking different shards proceed in parallel.

        With ``snapshot=True`` each shard's answer is copied *inside*
        that shard's critical section, so the combined result stays
        stable even though another query may crack a finished shard
        while this one is still fanning out.
        """

        def select(index: int) -> SelectionResult:
            with self._locks[index]:
                result = self.shards[index].range_select(
                    low,
                    high,
                    low_inclusive=low_inclusive,
                    high_inclusive=high_inclusive,
                )
                return result.snapshot() if snapshot else result

        if self.parallel and self.shard_count > 1 and self._max_workers > 1:
            futures = [
                self._pool().submit(select, index)
                for index in range(self.shard_count)
            ]
            results = [future.result() for future in futures]
        else:
            results = [select(index) for index in range(self.shard_count)]
        return ShardedSelectionResult(results)

    def count_range(
        self,
        low=None,
        high=None,
        low_inclusive: bool = True,
        high_inclusive: bool = False,
    ) -> int:
        """Count qualifying tuples (cracks every shard as a side effect)."""
        return self.range_select(
            low, high, low_inclusive=low_inclusive, high_inclusive=high_inclusive
        ).count

    # ------------------------------------------------------------------ #
    # Updates (merge-on-query, distributed over shards)
    # ------------------------------------------------------------------ #

    def append(self, values, oids=None) -> np.ndarray:
        """Queue new tuples, spread across shards by ``oid % shard_count``.

        Any disjoint assignment is correct — shards partition rows, not
        value ranges — and the modulo keeps shard sizes balanced under a
        steady insert stream.
        """
        values = np.asarray(values, dtype=self.shards[0].values.dtype)
        # The append lock covers the whole distribution (not just the oid
        # claim): check_invariants holds it while snapshotting the
        # shards, and an append counted in ``_appended`` but not yet
        # placed in its shards would read as lost tuples.  Lock order
        # matches the checker: append lock, then shard locks.
        with self._append_lock:
            if oids is None:
                oids = np.arange(
                    self._next_oid, self._next_oid + len(values), dtype=np.int64
                )
            else:
                oids = np.asarray(oids, dtype=np.int64)
                if len(oids) != len(values):
                    raise CrackError(
                        f"append got {len(values)} values but {len(oids)} oids"
                    )
            if not len(values):
                return oids
            self._next_oid = max(self._next_oid, int(oids.max()) + 1)
            self._appended += len(values)
            target = oids % self.shard_count
            for index in range(self.shard_count):
                mask = target == index
                if not mask.any():
                    continue
                with self._locks[index]:
                    self.shards[index].append(values[mask], oids=oids[mask])
        return oids

    def delete(self, oids, old_values) -> int:
        """Queue deletions, fanned out to whichever shards hold the oids.

        Initial rows were split contiguously and appends route by modulo,
        so oid-to-shard membership cannot be computed arithmetically;
        every shard filters the full set through its row-state map
        (O(k)) and applies only its members, with their pre-images from
        ``old_values`` (aligned with ``oids``).  Returns the number of
        distinct live tuples removed.  Held under the append lock so the
        ``_deleted`` accounting and the per-shard buffers move as one
        consistent cut (same lock order as ``append``).
        """
        oids = np.asarray(oids, dtype=np.int64)
        if not oids.size:
            return 0
        applied = 0
        with self._append_lock:
            for index in range(self.shard_count):
                with self._locks[index]:
                    applied += self.shards[index].delete(oids, old_values)
            self._deleted += applied
        return applied

    def update(self, oids, values, old_values) -> int:
        """Queue in-place value updates for ``oids``, fanned out per shard.

        Like :meth:`delete`, each shard applies the subset of updates it
        owns; rows keep their oids (an update never moves a tuple across
        shards).  Returns the number of tuples updated.
        """
        oids = np.asarray(oids, dtype=np.int64)
        if not oids.size:
            return 0
        applied = 0
        with self._append_lock:
            for index in range(self.shard_count):
                with self._locks[index]:
                    applied += self.shards[index].update(oids, values, old_values)
        return applied

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def export_state(self) -> dict:
        """A serialisable snapshot of every shard plus global bookkeeping.

        Taken under the append lock plus all shard locks (the same
        acquisition order as :meth:`append` and :meth:`check_invariants`),
        so the export is a globally consistent cut: no tuple is half-way
        between the append path and its shard.
        """
        with ExitStack() as stack:
            stack.enter_context(self._append_lock)
            for lock in self._locks:
                stack.enter_context(lock)
            return {
                "shard_count": int(self.shard_count),
                "parallel": bool(self.parallel),
                "max_workers": int(self._max_workers),
                "next_oid": int(self._next_oid),
                "initial_rows": int(self._initial_rows),
                "appended": int(self._appended),
                "deleted": int(self._deleted),
                "shards": [shard.export_state() for shard in self.shards],
            }

    @classmethod
    def from_state(cls, state: dict) -> "ShardedCrackedColumn":
        """Re-attach a sharded column from :meth:`export_state` output.

        Every shard comes back with its own cracker index and pending
        buffers, so the warm-restarted column answers from the same
        pieces the exported one had earned.
        """
        column = cls.__new__(cls)
        column.source = None
        column.shards = [
            CrackedColumn.from_state(shard_state)
            for shard_state in state["shards"]
        ]
        column.shard_count = int(state["shard_count"])
        if column.shard_count != len(column.shards):
            raise CrackError(
                f"sharded state announces {column.shard_count} shards but "
                f"carries {len(column.shards)}"
            )
        column._locks = [threading.Lock() for _ in column.shards]
        column.parallel = bool(state["parallel"])
        column._max_workers = max(1, int(state["max_workers"]))
        column._executor = None
        column._executor_lock = threading.Lock()
        column._append_lock = threading.Lock()
        column._next_oid = int(state["next_oid"])
        column._initial_rows = int(state["initial_rows"])
        column._appended = int(state["appended"])
        # Pre-DML snapshots carry no delete accounting.
        column._deleted = int(state.get("deleted", 0))
        column.introspect = None
        column.check_invariants()
        return column

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def check_invariants(self) -> None:
        """Verify every shard's piece invariants plus global coverage.

        Global checks: the shards' oid sets (including pending areas) are
        pairwise disjoint, and together they hold exactly the initial
        rows plus every appended tuple.

        Safe to call while queries and appends are in flight: the check
        holds the append lock plus *all* shard locks for its duration
        (same acquisition order as :meth:`append`, so no deadlock), which
        freezes a globally consistent snapshot — without that, a crack
        permuting one shard's oids mid-check would look like a duplicate.
        """
        with ExitStack() as stack:
            stack.enter_context(self._append_lock)
            for lock in self._locks:
                stack.enter_context(lock)
            all_oids = []
            buffered_deletes = 0
            for shard in self.shards:
                shard.check_invariants()
                all_oids.append(shard.oids)
                all_oids.extend(shard._pending_oids)
                buffered_deletes += shard.pending_delete_count
            flat = (
                np.concatenate(all_oids)
                if all_oids
                else np.empty(0, dtype=np.int64)
            )
            # A delete already counted in ``_deleted`` stays physically in
            # its shard's storage until that shard's next merge, so the
            # live total is the physical total minus the still-buffered
            # deletions.
            expected = self._initial_rows + self._appended - self._deleted
            if len(flat) - buffered_deletes != expected:
                raise CrackError(
                    f"shards hold {len(flat) - buffered_deletes} live tuples "
                    f"({buffered_deletes} deletes buffered), expected {expected}"
                )
            if len(np.unique(flat)) != len(flat):
                raise CrackError("shards share oids; horizontal partition violated")

    # ------------------------------------------------------------------ #
    # Pool management
    # ------------------------------------------------------------------ #

    def _pool(self) -> ThreadPoolExecutor:
        executor = self._executor
        if executor is None:
            with self._executor_lock:
                executor = self._executor
                if executor is None:
                    executor = ThreadPoolExecutor(
                        max_workers=self._max_workers,
                        thread_name_prefix="repro-shard",
                    )
                    self._executor = executor
        return executor

    def close(self) -> None:
        """Shut the fan-out pool down (idempotent)."""
        with self._executor_lock:
            if self._executor is not None:
                self._executor.shutdown(wait=False)
                self._executor = None

    def __del__(self) -> None:  # pragma: no cover - finaliser best effort
        try:
            self.close()
        except Exception:
            pass
