"""The shard-parallel cracking engine.

:class:`ShardedCrackedEngine` replaces the single cracker column per
attribute with a :class:`~repro.core.sharded_column.ShardedCrackedColumn`:
K horizontal shards, each cracked independently under its own lock, with
shard work fanned out over a thread pool (numpy kernels release the GIL,
so shard cracks genuinely overlap on multi-core hardware).  Delivery runs
on the batch executor, feeding one zero-copy batch per shard span into
the pipeline via :class:`~repro.volcano.vectorized.VecShardedCrackedScan`.

This is the configuration the ROADMAP's "heavy traffic" north star asks
for: many sessions cracking the same self-organising columns without
serialising on one column lock.  It sweeps in the Figure 1 experiment
next to the row store, the column store and the single-column vectorized
cracker.
"""

from __future__ import annotations

from repro.core.sharded_column import DEFAULT_SHARDS, ShardedCrackedColumn
from repro.engines.vectorized import VectorizedCrackedEngine
from repro.errors import CrackError
from repro.storage.table import Relation
from repro.volcano.vectorized import VecShardedCrackedScan


class ShardedCrackedEngine(VectorizedCrackedEngine):
    """Vectorized cracking engine over horizontally sharded crackers.

    Args:
        shards: shard count per cracked column (default: one per core,
            capped at 8).
        parallel: fan shard cracks out over a thread pool; False cracks
            the shards serially (still benefits from the smaller,
            cache-resident shard working sets).
        crack_threshold: per-shard piece-size crack cut-off (0 = always
            crack).
    """

    name = "sharded"

    def __init__(
        self,
        shards: int = DEFAULT_SHARDS,
        parallel: bool = True,
        crack_threshold: int = 0,
    ) -> None:
        super().__init__(crack_threshold=crack_threshold)
        self.shards = shards
        self.parallel = parallel
        self._sharded: dict[tuple[str, str], ShardedCrackedColumn] = {}

    # ------------------------------------------------------------------ #
    # Sharded cracker management
    # ------------------------------------------------------------------ #

    def sharded_column_for(self, table: str, attr: str) -> ShardedCrackedColumn:
        """The (lazily created) sharded cracker of ``table.attr``."""
        key = (table, attr)
        column = self._sharded.get(key)
        if column is None:
            relation = self.table(table)
            bat = relation.column(attr)
            # First touch: each shard copies its slice — one sequential
            # read plus one sequential write overall, same as the
            # single-column cracker.
            self.tracker.read_bytes(bat.name, bat.nbytes)
            self.tracker.write_bytes(f"{bat.name}#cracker", bat.nbytes)
            column = ShardedCrackedColumn(
                bat,
                shards=self.shards,
                parallel=self.parallel,
                crack_threshold=self._crack_threshold,
            )
            self._sharded[key] = column
        return column

    def cracker_for(self, table: str, attr: str):
        """Disabled: a parallel single-column cracker next to the sharded
        registry would crack the same attribute twice and skew
        accounting.  Use :meth:`sharded_column_for`."""
        raise NotImplementedError(
            "ShardedCrackedEngine cracks via sharded_column_for(table, attr)"
        )

    def has_cracker(self, table: str, attr: str) -> bool:
        return (table, attr) in self._sharded

    # ------------------------------------------------------------------ #
    # Warm restart (shard re-attach)
    # ------------------------------------------------------------------ #

    def export_cracker_states(self) -> dict:
        """Serialisable state of every sharded cracker, keyed (table, attr).

        The engine half of the durability layer's warm-restart path:
        pair with :meth:`attach_column` to move earned shard indexes
        across engine instances (or across process restarts via
        :mod:`repro.persist`).
        """
        return {
            key: column.export_state() for key, column in self._sharded.items()
        }

    def attach_column(
        self, table: str, attr: str, column: ShardedCrackedColumn
    ) -> None:
        """Re-attach a restored sharded cracker for ``table.attr``.

        The column answers from its restored piece boundaries
        immediately — no first-touch copy, no re-crack.  Refuses to
        replace a live cracker (that would discard earned pieces).
        """
        key = (table, attr)
        if key in self._sharded:
            raise CrackError(
                f"sharded cracker for {table}.{attr} already attached"
            )
        self._sharded[key] = column

    def piece_count(self, table: str, attr: str) -> int:
        column = self._sharded.get((table, attr))
        return column.piece_count if column else 1

    # ------------------------------------------------------------------ #
    # Range queries
    # ------------------------------------------------------------------ #

    def _execute_range(
        self,
        table: str,
        attr: str,
        low,
        high,
        delivery: str,
        low_inclusive: bool,
        high_inclusive: bool,
        target_name: str | None,
    ) -> tuple[int, dict]:
        relation = self.table(table)
        column = self.sharded_column_for(table, attr)
        before = column.crack_stats
        result = column.range_select(
            low, high, low_inclusive=low_inclusive, high_inclusive=high_inclusive
        )
        after = column.crack_stats
        moved = after.tuples_moved - before.tuples_moved
        touched = after.tuples_touched - before.tuples_touched
        item_bytes = column.item_bytes
        # Same accounting discipline as the single-column cracker: reads
        # for the pieces inspected, writes for the tuples shuffled.
        self.tracker.read_bytes(
            f"{table}.{attr}#cracker", max(touched, result.count) * item_bytes
        )
        self.tracker.counters.tuples_read += max(touched, result.count)
        if moved:
            self.tracker.write_bytes(f"{table}.{attr}#cracker", moved * item_bytes)
        extra: dict = {
            "pieces": column.piece_count,
            "shards": column.shard_count,
            "tuples_moved": moved,
            "tuples_touched": touched,
            "contiguous": False,
        }
        rows, deliver_extra = self._deliver_selection(
            relation, attr, result, delivery, target_name
        )
        extra.update(deliver_extra)
        return rows, extra

    def _selection_scan(self, relation: Relation, attr: str, result):
        return VecShardedCrackedScan(relation, attr, result, alias=relation.name)
