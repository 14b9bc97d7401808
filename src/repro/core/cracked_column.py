"""A self-organising cracked column: the adaptive index of the paper.

A :class:`CrackedColumn` is the per-attribute cracker of §3.4.2: on first
touch it copies the base BAT's tail and oids into a private *cracker
column* (MonetDB shuffles the original storage area under transaction
protection; we keep the base BAT pristine and shuffle the copy, which is
the variant later adopted by the cracking literature and equivalent for
cost purposes — one extra sequential copy on first touch, charged to the
first query).  Every range query then:

1. navigates the cracker index to the pieces containing the bounds,
2. cracks those pieces (crack-in-three when both bounds fall in one
   piece, otherwise up to two crack-in-twos),
3. answers with a zero-copy contiguous span of the cracker column.

With a ``crack_threshold`` > 0, step 2 stops once the touched piece is
smaller than the threshold (the "stop at L1-sized pieces" refinement of
the cracking literature; §3.4.2 discusses disk-block cut-off points):
the bound's piece is answered by a vectorised filter scan instead of a
split, so the cracker index stops fragmenting once pieces reach the
cut-off while the answer stays exact.

Updates append to a pending area that the next query merges into the
pieces in place (the "updates" future-work item of §7, implemented as an
extension): deletes and updates carry each row's pre-image, so the merge
finds rows through the index and moves only tuples at piece edges.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.core.crack import (
    KIND_LE,
    KIND_LT,
    CrackStats,
    crack_in_three,
    crack_in_two,
)
from repro.core.cracker_index import CrackerIndex, Piece
from repro.errors import CrackError
from repro.obs import trace as obs_trace
from repro.storage.bat import BAT

#: Row states of ``CrackedColumn._state``, indexed by oid: unknown to the
#: column, stored, stored with a pending removal, or pending insert.
_ABSENT, _STORED, _REMOVING, _PENDING = 0, 1, 2, 3


def _flat(chunks: list[np.ndarray], dtype) -> np.ndarray:
    """One array holding a pending buffer's chunks."""
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=dtype)


def _ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the ranges ``[lo[i], hi[i])`` concatenated, and the
    ``i`` of each; empty or inverted ranges contribute nothing."""
    lengths = np.maximum(hi - lo, 0)
    which = np.repeat(np.arange(len(lo)), lengths)
    offsets = np.cumsum(lengths) - lengths
    return np.arange(len(which)) + (lo - offsets)[which], which


def _purge(value_chunks: list, oid_chunks: list, oids: np.ndarray) -> int:
    """Drop ``oids`` from a pending buffer in place; returns the count dropped."""
    if not len(oids):
        return 0
    dropped = 0
    kept_values, kept_oids = [], []
    for values, chunk_oids in zip(value_chunks, oid_chunks):
        keep = ~np.isin(chunk_oids, oids)
        dropped += len(chunk_oids) - int(np.count_nonzero(keep))
        if keep.any():
            kept_values.append(values[keep])
            kept_oids.append(chunk_oids[keep])
    value_chunks[:] = kept_values
    oid_chunks[:] = kept_oids
    return dropped


def _rewrite(
    value_chunks: list, oid_chunks: list, oids: np.ndarray, values: np.ndarray
) -> int:
    """Overwrite the buffered values of ``oids`` (sorted, unique) in place;
    returns how many of ``oids`` the buffer held."""
    if not len(oids):
        return 0
    held = 0
    for chunk_values, chunk_oids in zip(value_chunks, oid_chunks):
        at = np.flatnonzero(np.isin(chunk_oids, oids))
        chunk_values[at] = values[np.searchsorted(oids, chunk_oids[at])]
        held += len(at)
    return held


@dataclass
class SelectionResult:
    """Answer of a cracked range query.

    When the column was cracked for the query, the answer is the
    contiguous span ``[start, stop)`` of the cracker column and ``oids`` /
    ``values`` are zero-copy slices.  When threshold-bounded cracking
    answered an edge piece by scanning, the answer is a gathered
    (non-contiguous) subset; ``contiguous`` tells which case applies.

    ``owner`` is the producing :class:`CrackedColumn` for contiguous
    answers; it enables the copy-on-demand :meth:`snapshot` protocol.
    """

    oids: np.ndarray
    values: np.ndarray
    start: int | None = None
    stop: int | None = None
    owner: "CrackedColumn | None" = field(
        default=None, repr=False, compare=False
    )

    @property
    def contiguous(self) -> bool:
        return self.start is not None

    @property
    def count(self) -> int:
        return len(self.oids)

    def snapshot(self) -> "SelectionResult":
        """A stable view, immune to later in-place cracks and merges.

        The concurrent SQL layer takes one before releasing a column or
        shard lock: zero-copy answers are views into cracker storage,
        which the next crack or merge would shuffle underneath the holder.

        The copy is paid *on demand*, not here:

        * a gathered (non-contiguous) answer is already a private array,
          so it is returned as-is — no copy ever;
        * a contiguous span produced by a known column registers itself
          with that column, which retires (copies) its storage arrays
          just before the next in-place crack or merge *if* any registered
          snapshot is still alive.  Converged workloads — the sustained
          phase, where cracks no longer happen — therefore never copy.

        Callers may hold the snapshot or its ``oids``/``values`` arrays;
        views *derived* from those arrays (further slicing) are only
        guaranteed stable while the snapshot or its arrays stay alive.
        Must be called while holding the column's lock (the SQL layer's
        discipline), so registration cannot race an in-flight crack.
        """
        if not self.contiguous:
            return self
        if self.owner is not None:
            self.owner._register_snapshot(self)
            return self
        return SelectionResult(
            oids=self.oids.copy(),
            values=self.values.copy(),
            start=self.start,
            stop=self.stop,
        )


@dataclass
class QueryStats:
    """Per-column query accounting, complementing :class:`CrackStats`."""

    queries: int = 0
    pieces_inspected: int = 0
    tuples_scanned: int = 0
    merged_updates: int = 0

    def reset(self) -> None:
        self.queries = 0
        self.pieces_inspected = 0
        self.tuples_scanned = 0
        self.merged_updates = 0


class CrackedColumn:
    """The cracker for a single numeric column.

    Args:
        source: base BAT (int or float tail) to crack.  The BAT itself is
            never mutated; the cracker works on a private copy.
        crack_threshold: stop splitting pieces smaller than this many
            tuples; a bound falling in such a piece is answered by a
            vectorised filter scan of that piece instead of a crack.
            0 (default) cracks unconditionally (the paper's prototype).
    """

    def __init__(
        self,
        source: BAT,
        crack_threshold: int = 0,
    ) -> None:
        if source.tail_type not in ("int", "float", "oid"):
            raise CrackError(
                f"cracking requires a numeric column, got {source.tail_type!r}"
            )
        self.source = source
        self._setup(
            source.tail_array().copy(),
            source.head_array().copy(),
            crack_threshold,
        )

    @classmethod
    def from_arrays(
        cls,
        values: np.ndarray,
        oids: np.ndarray | None = None,
        crack_threshold: int = 0,
    ) -> "CrackedColumn":
        """Build a cracker directly over value/oid arrays (no BAT).

        The shard substrate: a :class:`ShardedCrackedColumn` hands each
        shard a private copy of its slice of the base column, so the
        shards crack independently.  ``oids`` defaults to the dense
        positions ``0..len(values)``; both arrays are copied.
        """
        values = np.asarray(values)
        if values.dtype.kind not in ("i", "u", "f"):
            raise CrackError(
                f"cracking requires a numeric column, got dtype {values.dtype}"
            )
        if oids is None:
            oids = np.arange(len(values), dtype=np.int64)
        else:
            oids = np.asarray(oids, dtype=np.int64)
            if len(oids) != len(values):
                raise CrackError(
                    f"from_arrays got {len(values)} values but {len(oids)} oids"
                )
        column = cls.__new__(cls)
        column.source = None
        column._setup(values.copy(), oids.copy(), crack_threshold)
        return column

    def _setup(
        self,
        values: np.ndarray,
        oids: np.ndarray,
        crack_threshold: int,
    ) -> None:
        if crack_threshold < 0:
            raise CrackError(
                f"crack_threshold must be >= 0, got {crack_threshold}"
            )
        self.crack_threshold = crack_threshold
        # Storage is the [:n] view of buffers with spare room, so a merge
        # grows the column in place (see _resize).
        self._buffer_values = values
        self._buffer_oids = oids
        self._resize(len(values))
        self.index = CrackerIndex(len(self.values))
        self.crack_stats = CrackStats()
        self.query_stats = QueryStats()
        #: Tuples merges have physically moved (gathered or scattered).
        self.merge_moved = 0
        self._pending_values: list[np.ndarray] = []
        self._pending_oids: list[np.ndarray] = []
        # DML buffers (the "updating a cracked database" follow-up): a
        # DELETE or UPDATE of a stored row queues its oid with its
        # pre-image, the value storage still holds, so the merge finds
        # the row through the index; an UPDATE also queues the new
        # value, which the merge inserts under the same oid.
        self._removal_oids: list[np.ndarray] = []
        self._removal_values: list[np.ndarray] = []
        self._pending_update_oids: list[np.ndarray] = []
        self._pending_update_values: list[np.ndarray] = []
        self._next_oid = int(self.oids.max()) + 1 if len(self.oids) else 0
        # Row state by oid, so DML membership costs O(k), not a pass over
        # storage, and a DML call scans a pending buffer only for oids
        # that sit in it.  Built by the first write (see _row_state).
        self._state: np.ndarray | None = None
        # Weak references to live zero-copy snapshots (and their
        # handed-out view arrays); storage is retired — copied — before
        # the next in-place crack or merge while any is still referenced.
        # A plain ref list, not a WeakSet: neither dataclass results nor
        # ndarrays are hashable.  See snapshot().
        self._live_snapshot_refs: list[weakref.ref] = []
        # Optional per-column introspection (lineage/workload profiler).
        # None unless Database(profile=True) attached one — every hook
        # below costs a single attribute check when disabled.
        self.introspect = None

    def __len__(self) -> int:
        return len(self.values)

    @property
    def piece_count(self) -> int:
        return self.index.piece_count

    @property
    def pending_count(self) -> int:
        return sum(len(chunk) for chunk in self._pending_values)

    @property
    def pending_delete_count(self) -> int:
        removals = sum(len(chunk) for chunk in self._removal_oids)
        return removals - self.pending_update_count

    @property
    def pending_update_count(self) -> int:
        return sum(len(chunk) for chunk in self._pending_update_oids)

    @property
    def has_pending(self) -> bool:
        return bool(self._pending_values or self._removal_oids)

    def observability(self) -> dict:
        """One flat dict of this column's crack/query/pending accounting.

        The per-column sample the observability layer exports (through
        ``Database.stats()`` and the metrics registry's collectors):
        piece count and size distribution, cumulative crack work, query
        counters, tuples moved by merges and the depths of the three
        pending buffers.  Caller holds whatever lock guards this column.
        """
        sizes = self.index.piece_sizes()
        return {
            "pieces": self.piece_count,
            "tuples": len(self.values),
            "cracks": self.crack_stats.cracks,
            "tuples_touched": self.crack_stats.tuples_touched,
            "tuples_moved": self.crack_stats.tuples_moved,
            "queries": self.query_stats.queries,
            "pieces_inspected": self.query_stats.pieces_inspected,
            "tuples_scanned": self.query_stats.tuples_scanned,
            "merged_updates": self.query_stats.merged_updates,
            "merge_moved": self.merge_moved,
            "pending_inserts": self.pending_count,
            "pending_deletes": self.pending_delete_count,
            "pending_updates": self.pending_update_count,
            "piece_tuples": {
                "min": min(sizes) if sizes else 0,
                "max": max(sizes) if sizes else 0,
                "mean": sum(sizes) / len(sizes) if sizes else 0.0,
            },
        }

    # ------------------------------------------------------------------ #
    # Snapshot copy-on-write
    # ------------------------------------------------------------------ #

    def _register_snapshot(self, result: SelectionResult) -> None:
        """Track a zero-copy answer whose stability snapshot() promised."""
        refs = self._live_snapshot_refs
        refs.append(weakref.ref(result))
        refs.append(weakref.ref(result.oids))
        refs.append(weakref.ref(result.values))
        if len(refs) > 64:
            # Bound the shield's liveness scan: drop refs whose snapshot
            # has already been garbage collected.
            self._live_snapshot_refs = [r for r in refs if r() is not None]

    def _shield_snapshots(self) -> None:
        """Retire current storage if any registered snapshot is alive.

        Called (under the caller's column/shard lock) immediately before
        an in-place crack kernel or merge runs.  Copying the storage
        buffers and installing the copies makes the retired generation
        immutable: every outstanding view — including views numpy
        re-based onto the old root array — stays valid forever, and the
        kernel shuffles only the fresh generation.  When no snapshot
        survives (the common case: results are consumed within their
        statement), this is an empty-list check and no copy happens.
        """
        refs = self._live_snapshot_refs
        if not refs:
            return
        if any(ref() is not None for ref in refs):
            self._reallocate(len(self._buffer_values))
        self._live_snapshot_refs = []

    def _reallocate(self, capacity: int) -> None:
        """Move storage into fresh buffers of ``capacity`` slots."""
        size = len(self.values)
        for name in ("values", "oids"):
            fresh = np.empty(capacity, dtype=getattr(self, name).dtype)
            fresh[:size] = getattr(self, name)
            setattr(self, f"_buffer_{name}", fresh)
            setattr(self, name, fresh[:size])

    def _resize(self, size: int) -> None:
        """Make storage the first ``size`` buffer slots, doubling the
        buffers (as :meth:`CrackerIndex._grow` does) when they are full."""
        capacity = len(self._buffer_values)
        if size > capacity:
            self._reallocate(max(size, 2 * capacity))
        self.values = self._buffer_values[:size]
        self.oids = self._buffer_oids[:size]

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def range_select(
        self,
        low=None,
        high=None,
        low_inclusive: bool = True,
        high_inclusive: bool = False,
    ) -> SelectionResult:
        """Answer ``low θ attr θ high`` adaptively.

        ``None`` bounds make the predicate one-sided.
        """
        self._merge_pending()
        self.query_stats.queries += 1
        degenerate_point = (
            low is not None
            and high is not None
            and low == high
            and not (low_inclusive and high_inclusive)
        )
        if (low is not None and high is not None and high < low) or degenerate_point:
            # Empty by construction; cracking would also invert the
            # boundary ordering (the high boundary would sort before the
            # low one), so answer without reorganising.
            empty = np.empty(0, dtype=self.oids.dtype)
            return SelectionResult(oids=empty, values=empty.astype(self.values.dtype))
        low_kind = KIND_LT if low_inclusive else KIND_LE
        high_kind = KIND_LE if high_inclusive else KIND_LT
        if self.crack_threshold > 0:
            return self._bounded_select(low, high, low_kind, high_kind)
        start = 0
        stop = len(self.values)
        if low is not None and high is not None:
            start, stop = self._crack_both(low, high, low_kind, high_kind)
        elif low is not None:
            start = self._ensure_boundary(low, low_kind)
        elif high is not None:
            stop = self._ensure_boundary(high, high_kind)
        return self._span_result(start, stop)

    def count_range(
        self,
        low=None,
        high=None,
        low_inclusive: bool = True,
        high_inclusive: bool = False,
    ) -> int:
        """Count qualifying tuples (cracks as a side effect)."""
        return self.range_select(
            low, high, low_inclusive=low_inclusive, high_inclusive=high_inclusive
        ).count

    def _span_result(self, start: int, stop: int) -> SelectionResult:
        """A zero-copy contiguous answer (registers nothing by itself)."""
        return SelectionResult(
            oids=self.oids[start:stop],
            values=self.values[start:stop],
            start=start,
            stop=stop,
            owner=self,
        )

    # ------------------------------------------------------------------ #
    # Threshold-bounded cracking
    # ------------------------------------------------------------------ #

    def _resolve_bound(self, value, kind: str) -> tuple[int | None, Piece | None]:
        """Resolve one bound to ``(position, None)`` or ``(None, piece)``.

        The position form means the boundary exists (found or just
        cracked); the piece form means the bound's piece is below the
        crack threshold and must be answered by scanning it.
        """
        existing = self.index.lookup(value, kind)
        if existing is not None:
            return existing, None
        piece = self.index.piece_for(value, kind)
        if piece.size < self.crack_threshold:
            return None, piece
        return self._split(piece, value, kind), None

    def _edge_positions(self, piece: Piece, low, high, low_kind, high_kind) -> np.ndarray:
        """Qualifying storage positions inside one scanned edge piece.

        Applies the *full* predicate, so an edge piece shared by both
        bounds (or one whose value range pokes past the other bound) is
        still filtered exactly.
        """
        window = self.values[piece.start : piece.stop]
        mask = np.ones(len(window), dtype=bool)
        if low is not None:
            mask &= window >= low if low_kind == KIND_LT else window > low
        if high is not None:
            mask &= window < high if high_kind == KIND_LT else window <= high
        self.query_stats.tuples_scanned += len(window)
        return piece.start + np.flatnonzero(mask)

    def _bounded_select(self, low, high, low_kind: str, high_kind: str) -> SelectionResult:
        """Range select that never splits a piece below the threshold."""
        n = len(self.values)
        if low is None and high is None:
            return self._span_result(0, n)
        if low is not None and high is not None:
            low_existing = self.index.lookup(low, low_kind)
            high_existing = self.index.lookup(high, high_kind)
            if low_existing is None and high_existing is None:
                low_piece = self.index.piece_for(low, low_kind)
                high_piece = self.index.piece_for(high, high_kind)
                same_piece = (
                    low_piece.start == high_piece.start
                    and low_piece.stop == high_piece.stop
                )
                if same_piece and low_piece.size >= self.crack_threshold:
                    start, stop = self._crack_both(low, high, low_kind, high_kind)
                    return self._span_result(start, stop)
        # Resolve sequentially: a crack for the low bound may split the
        # piece the high bound falls in, so the high lookup runs fresh.
        low_pos: int | None = None
        low_piece = None
        if low is not None:
            low_pos, low_piece = self._resolve_bound(low, low_kind)
        high_pos: int | None = None
        high_piece = None
        if high is not None:
            high_pos, high_piece = self._resolve_bound(high, high_kind)
        if low_piece is not None and high_piece is not None and (
            low_piece.start == high_piece.start
            and low_piece.stop == high_piece.stop
        ):
            # Both bounds in one sub-threshold piece: scan it once.  Both
            # coordinates must match — a degenerate empty piece legally
            # shares its start with the adjacent piece, and conflating
            # them would scan only the empty one.
            edge = self._edge_positions(low_piece, low, high, low_kind, high_kind)
            return SelectionResult(oids=self.oids[edge], values=self.values[edge])
        core_start = 0 if low is None else (
            low_pos if low_piece is None else low_piece.stop
        )
        core_stop = n if high is None else (
            high_pos if high_piece is None else high_piece.start
        )
        core_stop = max(core_start, core_stop)
        if low_piece is None and high_piece is None:
            return self._span_result(core_start, core_stop)
        oid_parts = []
        value_parts = []
        if low_piece is not None:
            edge = self._edge_positions(low_piece, low, high, low_kind, high_kind)
            oid_parts.append(self.oids[edge])
            value_parts.append(self.values[edge])
        oid_parts.append(self.oids[core_start:core_stop])
        value_parts.append(self.values[core_start:core_stop])
        if high_piece is not None:
            edge = self._edge_positions(high_piece, low, high, low_kind, high_kind)
            oid_parts.append(self.oids[edge])
            value_parts.append(self.values[edge])
        return SelectionResult(
            oids=np.concatenate(oid_parts), values=np.concatenate(value_parts)
        )

    # ------------------------------------------------------------------ #
    # Updates (merge-on-query extension)
    # ------------------------------------------------------------------ #

    def append(self, values, oids=None) -> np.ndarray:
        """Queue new tuples; they participate from the next query on."""
        values = np.asarray(values, dtype=self.values.dtype)
        if oids is None:
            oids = np.arange(self._next_oid, self._next_oid + len(values), dtype=np.int64)
        else:
            oids = np.asarray(oids, dtype=np.int64)
            if len(oids) != len(values):
                raise CrackError(
                    f"append got {len(values)} values but {len(oids)} oids"
                )
        if len(values):
            self._pending_values.append(values)
            self._pending_oids.append(oids)
            self._next_oid = max(self._next_oid, int(oids.max()) + 1)
            self._set_state(oids, _PENDING)
        return oids

    def delete(self, oids, old_values) -> int:
        """Queue deletions by oid; rows vanish from the next query on.

        ``old_values`` holds each row's current value, aligned with
        ``oids``.  Oids still in the pending-insert or pending-update
        buffers are resolved eagerly; a stored row is queued with its
        pre-image, which the merge uses to find it through the index.
        Returns the count of live rows removed.
        """
        oids = np.asarray(oids, dtype=np.int64)
        old_values = np.asarray(old_values, dtype=self.values.dtype)
        if len(oids) != len(old_values):
            raise CrackError(
                f"delete got {len(oids)} oids but {len(old_values)} old values"
            )
        oids, first = np.unique(oids, return_index=True)
        states = self._states(oids)
        pending = oids[states == _PENDING]
        applied = _purge(self._pending_values, self._pending_oids, pending)
        self._state[pending] = _ABSENT
        applied += _purge(
            self._pending_update_values,
            self._pending_update_oids,
            oids[states == _REMOVING],
        )
        stored = states == _STORED
        self._queue_removal(oids[stored], old_values[first][stored])
        return applied + int(np.count_nonzero(stored))

    def update(self, oids, values, old_values) -> int:
        """Queue value rewrites by oid (last write wins per oid).

        ``old_values`` holds each row's current value, aligned with
        ``oids``.  Rows still in the pending-insert or pending-update
        buffers are rewritten in place; a stored row is queued for
        removal with its pre-image and its new value is inserted under
        the same oid at the next merge.  Returns the count of distinct
        rows rewritten.
        """
        oids = np.asarray(oids, dtype=np.int64)
        values = np.asarray(values, dtype=self.values.dtype)
        old_values = np.asarray(old_values, dtype=self.values.dtype)
        if not len(oids) == len(values) == len(old_values):
            raise CrackError(
                f"update got {len(oids)} oids, {len(values)} values and "
                f"{len(old_values)} old values"
            )
        # Last write wins: keep each oid's final slot in the request.
        oids, last_reversed = np.unique(oids[::-1], return_index=True)
        last = len(values) - 1 - last_reversed
        values = values[last]
        states = self._states(oids)
        rewritten = 0
        for state, value_chunks, oid_chunks in (
            (_PENDING, self._pending_values, self._pending_oids),
            (_REMOVING, self._pending_update_values, self._pending_update_oids),
        ):
            mask = states == state
            rewritten += _rewrite(value_chunks, oid_chunks, oids[mask], values[mask])
        stored = states == _STORED
        if stored.any():
            self._queue_removal(oids[stored], old_values[last][stored])
            self._pending_update_oids.append(oids[stored])
            self._pending_update_values.append(values[stored])
        return rewritten + int(np.count_nonzero(stored))

    def _row_state(self) -> np.ndarray:
        """The row-state map, built on first use so that a column nobody
        writes to never pays the pass over storage."""
        if self._state is None:
            self._state = np.zeros(self._next_oid, dtype=np.int8)
            self._state[self.oids] = _STORED
        return self._state

    def _states(self, oids: np.ndarray) -> np.ndarray:
        """The row state of each of ``oids``, in O(k)."""
        state = self._row_state()
        states = np.zeros(len(oids), dtype=np.int8)
        inside = (oids >= 0) & (oids < len(state))
        states[inside] = state[oids[inside]]
        return states

    def _set_state(self, oids: np.ndarray, state: int) -> None:
        """Set the row state of ``oids``, doubling the map when needed."""
        if not len(oids):
            return
        top = int(oids.max()) + 1
        if top > len(self._row_state()):
            grow = max(top, 2 * len(self._state)) - len(self._state)
            self._state = np.pad(self._state, (0, grow))
        self._state[oids] = state

    def _queue_removal(self, oids: np.ndarray, old_values: np.ndarray) -> None:
        """Queue stored rows for removal under their pre-images.

        Only the first removal of a row records a pre-image: later DML
        on the same row finds it already in the removing state.
        """
        if len(oids):
            self._removal_oids.append(oids)
            self._removal_values.append(old_values)
            self._row_state()[oids] = _REMOVING

    def _merge_pending(self) -> None:
        """Fold the pending buffers into the pieces, if any exist.

        The guard is the per-query fast path (one bool over two lists);
        the work happens in :meth:`_merge_pending_now`, wrapped in a
        ``pending_merge`` span when a trace is active.
        """
        if not self.has_pending:
            return
        if not obs_trace.tracing():
            self._merge_pending_now()
            return
        with obs_trace.span(
            "pending_merge",
            inserts=self.pending_count,
            deletes=self.pending_delete_count,
            updates=self.pending_update_count,
        ):
            self._merge_pending_now()

    def _merge_pending_now(self) -> None:
        """Merge every pending buffer into the pieces, in place.

        The ripple merge of Idreos, Kersten & Manegold, "Updating a
        Cracked Database" (SIGMOD 2007), vectorised over the index:

        1. *Locate* (the ``tombstone_merge`` span): each pending
           removal's pre-image names its piece, and only those pieces
           are searched for rows whose presence bit is clear.  A
           pre-image that does not find its row raises
           :class:`CrackError`.
        2. *Plan*: piece ``j`` changes size by ``c_j`` (inserts minus
           removals), so it starts ``D_j = c_0 + ... + c_{j-1}`` later
           and ends ``D_{j+1}`` later.  Row order inside a piece is
           free, so only the surviving rows outside the piece's new
           range move, plus the inserted rows; the holes are the new
           range's slots that hold no surviving row of the piece.
        3. *Move*: one gather of the movers, one scatter into the holes
           (both grouped by piece), one prefix-sum boundary shift.

        Cost is O(k + moved + pieces) plus the searched pieces; at most
        ``k + sum |D_j|`` tuples move, never the whole column.
        """
        dtype = self.values.dtype
        removal_oids = _flat(self._removal_oids, np.int64)
        removal_values = _flat(self._removal_values, dtype)
        insert_values = _flat(self._pending_values + self._pending_update_values, dtype)
        insert_oids = _flat(self._pending_oids + self._pending_update_oids, np.int64)
        for buffer in (
            self._removal_oids, self._removal_values, self._pending_values,
            self._pending_oids, self._pending_update_values,
            self._pending_update_oids,
        ):
            buffer.clear()
        self._shield_snapshots()
        size = len(self.values)
        edges = np.empty(len(self.index) + 2, dtype=np.int64)
        edges[0] = 0
        edges[1:-1] = self.index.positions()
        edges[-1] = size
        starts, stops = edges[:-1], edges[1:]
        pieces = len(starts)
        removed_at = removed_piece = np.empty(0, dtype=np.int64)
        if len(removal_oids):
            with obs_trace.span("tombstone_merge"):
                searched = np.unique(self.index.piece_assignment(removal_values))
                candidates, which = _ranges(starts[searched], stops[searched])
                found = self._state[self.oids[candidates]] == _REMOVING
                removed_at = candidates[found]
                removed_piece = searched[which[found]]
            if len(removed_at) != len(removal_oids):
                raise CrackError(
                    f"{len(removal_oids) - len(removed_at)} pending removal(s) "
                    f"not found in the pieces their pre-images name"
                )
        insert_piece = self.index.piece_assignment(insert_values)
        change = np.bincount(insert_piece, minlength=pieces) - np.bincount(
            removed_piece, minlength=pieces
        )
        shift = np.zeros(pieces + 1, dtype=np.int64)
        np.cumsum(change, out=shift[1:])
        new_starts = starts + shift[:-1]
        new_stops = stops + shift[1:]
        # Old-range slots outside the new range (the piece's head when it
        # moves right, its tail when it moves left), then the new-range
        # slots outside the old range; survivors of the first fill the
        # second and the removed rows' slots inside the new range.
        outside_at, outside_piece = _ranges(
            np.concatenate([starts, np.maximum(starts, new_stops)]),
            np.concatenate([np.minimum(stops, new_starts), stops]),
        )
        survivor = self._state[self.oids[outside_at]] == _STORED
        mover_at = outside_at[survivor]
        mover_piece = np.concatenate([outside_piece[survivor] % pieces, insert_piece])
        hole_at, hole_piece = _ranges(
            np.concatenate([new_starts, np.maximum(new_starts, stops)]),
            np.concatenate([np.minimum(new_stops, starts), new_stops]),
        )
        reused = (removed_at >= new_starts[removed_piece]) & (
            removed_at < new_stops[removed_piece]
        )
        hole_at = np.concatenate([hole_at, removed_at[reused]])
        hole_piece = np.concatenate([hole_piece % pieces, removed_piece[reused]])
        if len(hole_at) != len(mover_piece):
            raise CrackError(
                f"internal error: merge planned {len(mover_piece)} movers "
                f"for {len(hole_at)} holes"
            )
        order = np.argsort(mover_piece, kind="stable")
        moving_values = np.concatenate([self.values[mover_at], insert_values])[order]
        moving_oids = np.concatenate([self.oids[mover_at], insert_oids])[order]
        target = hole_at[np.argsort(hole_piece, kind="stable")]
        self._resize(size + int(shift[-1]))
        self.values[target] = moving_values
        self.oids[target] = moving_oids
        self.index.merge_shift(change, len(self.values))
        self._state[removal_oids] = _ABSENT
        self._set_state(insert_oids, _STORED)
        moved = len(target)
        self.merge_moved += moved
        self.query_stats.merged_updates += len(removal_oids) + len(insert_oids)
        if self.introspect is not None:
            # An UPDATE's merge logs a tombstone and a merge event; the
            # tuples the whole merge moved are reported on the last one.
            if len(removal_oids):
                self.introspect.record_merge(
                    "tombstone", len(removal_oids),
                    moved=0 if len(insert_oids) else moved,
                )
            if len(insert_oids):
                self.introspect.record_merge("merge", len(insert_oids), moved=moved)

    def _ensure_boundary(self, value, kind: str) -> int:
        """Crack (if needed) so boundary ``(value, kind)`` exists; return it."""
        existing = self.index.lookup(value, kind)
        if existing is not None:
            return existing
        return self._split(self.index.piece_for(value, kind), value, kind)

    def _split(self, piece: Piece, value, kind: str) -> int:
        """Crack ``piece`` in two at boundary ``(value, kind)`` and index it."""
        self.query_stats.pieces_inspected += 1
        self._shield_snapshots()
        moved_before = self.crack_stats.tuples_moved
        split = crack_in_two(
            self.values, self.oids, piece.start, piece.stop, value, kind,
            stats=self.crack_stats,
        )
        self.index.add(value, kind, split)
        if self.introspect is not None:
            self.introspect.record_crack(
                bounds=(value,),
                piece_sizes=(split - piece.start, piece.stop - split),
                moved=self.crack_stats.tuples_moved - moved_before,
            )
        return split

    def _crack_both(self, low, high, low_kind: str, high_kind: str) -> tuple[int, int]:
        """Establish both range boundaries, preferring crack-in-three."""
        low_existing = self.index.lookup(low, low_kind)
        high_existing = self.index.lookup(high, high_kind)
        if low_existing is not None and high_existing is not None:
            return low_existing, max(low_existing, high_existing)
        if low_existing is None and high_existing is None:
            low_piece = self.index.piece_for(low, low_kind)
            high_piece = self.index.piece_for(high, high_kind)
            same_piece = (
                low_piece.start == high_piece.start
                and low_piece.stop == high_piece.stop
            )
            if same_piece:
                self.query_stats.pieces_inspected += 1
                self._shield_snapshots()
                moved_before = self.crack_stats.tuples_moved
                split_low, split_high = crack_in_three(
                    self.values, self.oids, low_piece.start, low_piece.stop,
                    low, high, low_kind=low_kind, high_kind=high_kind,
                    stats=self.crack_stats,
                )
                self.index.add(low, low_kind, split_low)
                self.index.add(high, high_kind, split_high)
                if self.introspect is not None:
                    self.introspect.record_crack(
                        bounds=(low, high),
                        piece_sizes=(
                            split_low - low_piece.start,
                            split_high - split_low,
                            low_piece.stop - split_high,
                        ),
                        moved=self.crack_stats.tuples_moved - moved_before,
                    )
                return split_low, split_high
        start = self._ensure_boundary(low, low_kind)
        stop = self._ensure_boundary(high, high_kind)
        return start, max(start, stop)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def export_state(self) -> dict:
        """A serialisable snapshot: storage, index and pending buffers.

        Array members are private copies, so the export stays valid while
        the live column keeps cracking.  Pre-images are not exported:
        :meth:`from_state` reads them back from storage.  Callers are
        responsible for the column's lock (the persistence layer holds
        the same write side the query path takes).
        """
        dtype = self.values.dtype
        update_oids = _flat(self._pending_update_oids, np.int64)
        return {
            "values": self.values.copy(),
            "oids": self.oids.copy(),
            "pending_values": _flat(self._pending_values, dtype),
            "pending_oids": _flat(self._pending_oids, np.int64),
            "pending_delete_oids": np.setdiff1d(
                _flat(self._removal_oids, np.int64), update_oids
            ),
            "pending_update_oids": update_oids,
            "pending_update_values": _flat(self._pending_update_values, dtype),
            "crack_threshold": int(self.crack_threshold),
            "next_oid": int(self._next_oid),
            "index": self.index.export_state(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "CrackedColumn":
        """Rebuild a cracked column from :meth:`export_state` output.

        The warm-restart path: the cracker index (piece boundaries) and
        the physically reorganised storage come back exactly as
        exported, so the first post-restore query pays an index lookup,
        not a re-crack.  Pending removals get their pre-images from one
        pass over storage.  Invariants are validated before the column
        is handed out.  Kernel-selection keys older builds wrote are
        ignored: every column runs the one crack path.
        """
        column = cls.__new__(cls)
        column.source = None
        column._setup(
            np.asarray(state["values"]).copy(),
            np.asarray(state["oids"], dtype=np.int64).copy(),
            int(state["crack_threshold"]),
        )
        column.index = CrackerIndex.from_state(state["index"])
        dtype = column.values.dtype
        pending_values = np.asarray(state["pending_values"])
        if len(pending_values):
            column.append(
                pending_values.astype(dtype),
                oids=np.asarray(state["pending_oids"], dtype=np.int64).copy(),
            )
        # DML buffers: absent in pre-DML snapshots (.get defaults keep
        # FORMAT_VERSION stable).
        empty = np.empty(0, dtype=np.int64)
        update_oids = np.asarray(state.get("pending_update_oids", empty), dtype=np.int64)
        update_values = np.asarray(state.get("pending_update_values", empty)).astype(dtype)
        # Older builds buffered every UPDATE of a row, so an oid may
        # repeat: the last value wins, as their merge did.
        update_oids, last_reversed = np.unique(update_oids[::-1], return_index=True)
        if len(update_oids):
            column._pending_update_oids = [update_oids]
            column._pending_update_values = [update_values[::-1][last_reversed]]
        removal = np.union1d(
            np.asarray(state.get("pending_delete_oids", empty), dtype=np.int64),
            update_oids,
        )
        if len(removal):
            at = np.flatnonzero(np.isin(column.oids, removal))
            if len(at) != len(removal):
                raise CrackError("pending removal references oids absent from storage")
            column._queue_removal(column.oids[at], column.values[at])
        column._next_oid = int(state["next_oid"])
        column.check_invariants()
        return column

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def check_invariants(self) -> None:
        """Verify piece/value invariants; raises :class:`CrackError`.

        Also checks the DML bookkeeping: every pending removal's
        pre-image equals its row's stored value, every pending update
        has a pending removal, and the row-state map agrees with storage
        and the pending buffers.
        """
        self.index.check_invariants()
        if self.index.column_size != len(self.values):
            raise CrackError(
                f"index thinks column has {self.index.column_size} tuples, "
                f"storage has {len(self.values)}"
            )
        state = self._row_state()
        removal_oids = _flat(self._removal_oids, np.int64)
        pending_oids = _flat(self._pending_oids, np.int64)
        if max(self.oids.max(initial=-1), pending_oids.max(initial=-1)) >= len(state):
            raise CrackError("row-state map does not cover every oid")
        expected = np.zeros(len(state), dtype=np.int8)
        expected[self.oids] = _STORED
        if len(removal_oids):
            at = np.flatnonzero(np.isin(self.oids, removal_oids))
            by_oid = np.argsort(self.oids[at])
            order = np.argsort(removal_oids)
            if not np.array_equal(self.oids[at][by_oid], removal_oids[order]):
                raise CrackError("pending removal references oids absent from storage")
            pre_images = _flat(self._removal_values, self.values.dtype)[order]
            if not np.array_equal(
                self.values[at][by_oid], pre_images,
                equal_nan=self.values.dtype.kind == "f",
            ):
                raise CrackError(
                    "pending removal pre-image differs from the stored value"
                )
            expected[removal_oids] = _REMOVING
        update_oids = _flat(self._pending_update_oids, np.int64)
        if not np.isin(update_oids, removal_oids).all():
            raise CrackError("pending update of a row with no pending removal")
        if len(np.unique(update_oids)) != len(update_oids):
            raise CrackError("row with more than one pending update")
        expected[pending_oids] = _PENDING
        if not np.array_equal(expected, state):
            raise CrackError("row-state map disagrees with storage and buffers")
        for piece in self.index.pieces():
            window = self.values[piece.start : piece.stop]
            if len(window) == 0:
                continue
            if piece.lower is not None:
                if piece.lower.kind == KIND_LT and window.min() < piece.lower.value:
                    raise CrackError(f"piece {piece.describes()} violates lower bound")
                if piece.lower.kind == KIND_LE and window.min() <= piece.lower.value:
                    raise CrackError(f"piece {piece.describes()} violates lower bound")
            if piece.upper is not None:
                if piece.upper.kind == KIND_LT and window.max() >= piece.upper.value:
                    raise CrackError(f"piece {piece.describes()} violates upper bound")
                if piece.upper.kind == KIND_LE and window.max() > piece.upper.value:
                    raise CrackError(f"piece {piece.describes()} violates upper bound")
