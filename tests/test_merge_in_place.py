"""The in-place pending merge: pre-images, snapshots, model checks, work bound.

DELETE and UPDATE hand the cracker each row's pre-image; the next query
finds the rows through the cracker index and moves only the tuples at
piece edges.  These tests pin the write-path contract (last write wins,
first pre-image kept, pending rows resolved eagerly), the stability of
zero-copy snapshots across an in-place merge, equivalence with a plain
numpy/dict model on every cracking config, and the merge's work bound.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cracked_column import CrackedColumn
from repro.core.sharded_column import ShardedCrackedColumn
from repro.errors import CrackError
from repro.sql import Database

CONFIGS = {
    "cracked": lambda values: CrackedColumn.from_arrays(values),
    "sharded": lambda values: ShardedCrackedColumn.from_arrays(
        values, shards=2, parallel=False
    ),
    "bounded": lambda values: CrackedColumn.from_arrays(values, crack_threshold=8),
}


def _pairs(result) -> list[tuple[int, int]]:
    return sorted(zip(result.oids.tolist(), result.values.tolist()))


def _cracked(size: int = 2000, queries: int = 60, seed: int = 3) -> CrackedColumn:
    rng = np.random.default_rng(seed)
    column = CrackedColumn.from_arrays(rng.permutation(size))
    for low in rng.integers(0, size, queries):
        column.range_select(int(low), int(low) + 40)
    return column


# ---------------------------------------------------------------------- #
# Write-path contract
# ---------------------------------------------------------------------- #


class TestWritePath:
    def test_last_write_wins_for_pending_insert(self):
        column = CrackedColumn.from_arrays(np.arange(10) * 10)
        column.append([100], oids=[10])
        assert column.update([10, 10], [1, 2], [100, 100]) == 1
        assert column.update([3, 3], [50, 60], [30, 30]) == 1
        merged = dict(_pairs(column.range_select()))
        assert merged[10] == 2
        assert merged[3] == 60

    def test_last_write_wins_for_pending_update(self):
        column = _cracked()
        stored = int(column.values[column.oids == 7][0])
        column.update([7], [5], [stored])
        column.update([7, 7, 7], [1, 9, 4], [5, 5, 5])
        assert dict(_pairs(column.range_select()))[7] == 4
        column.check_invariants()

    def test_first_pre_image_is_kept(self):
        column = _cracked()
        stored = int(column.values[column.oids == 11][0])
        column.update([11], [1500], [stored])
        # A second UPDATE and then a DELETE pass the pending value.
        column.update([11], [1600], [1500])
        column.check_invariants()
        assert column.delete([11], [1600]) == 1
        column.check_invariants()
        assert 11 not in column.range_select().oids
        column.check_invariants()

    def test_delete_of_pending_insert_never_reaches_storage(self):
        column = _cracked()
        column.append([77], oids=[5000])
        assert column.delete([5000], [77]) == 1
        assert column.pending_count == 0
        assert not column.has_pending
        assert column.delete([5000], [77]) == 0

    def test_dml_on_unknown_or_deleted_rows_is_a_no_op(self):
        column = _cracked()
        stored = int(column.values[column.oids == 4][0])
        assert column.delete([4], [stored]) == 1
        assert column.delete([4], [stored]) == 0
        assert column.update([4, 99999], [1, 1], [stored, 0]) == 0
        assert column.pending_delete_count == 1
        assert column.pending_update_count == 0
        column.check_invariants()

    def test_wrong_pre_image_raises(self):
        column = _cracked()
        stored = int(column.values[column.oids == 9][0])
        wrong = (stored + 1000) % 2000
        column.delete([9], [wrong])
        with pytest.raises(CrackError, match="pre-image"):
            column.check_invariants()
        with pytest.raises(CrackError, match="not found"):
            column.range_select(0, 10)

    def test_misaligned_pre_images_raise(self):
        column = _cracked()
        with pytest.raises(CrackError):
            column.update([1, 2], [3, 4], [5])
        with pytest.raises(CrackError):
            column.delete([1, 2], [3])

    def test_checkpoint_restores_pending_removals(self):
        column = _cracked()
        old = {oid: int(column.values[column.oids == oid][0]) for oid in (1, 2, 3)}
        column.update([1], [5], [old[1]])
        column.delete([2], [old[2]])
        column.append([6], oids=[2000])
        restored = CrackedColumn.from_state(column.export_state())
        assert restored.pending_update_count == 1
        assert restored.pending_delete_count == 1
        assert restored.pending_count == 1
        assert _pairs(restored.range_select()) == _pairs(column.range_select())
        restored.check_invariants()

    def test_restore_keeps_last_of_repeated_pending_updates(self):
        # Snapshots from builds that buffered every UPDATE of a row may
        # list an oid more than once; its last value wins.
        column = _cracked()
        state = column.export_state()
        model = dict(_pairs(column.range_select()))
        state["pending_update_oids"] = np.array([5, 8, 5, 8, 5], dtype=np.int64)
        state["pending_update_values"] = np.array(
            [1, 2, 3, 4, 1999], dtype=column.values.dtype
        )
        model.update({5: 1999, 8: 4})
        restored = CrackedColumn.from_state(state)
        assert restored.pending_update_count == 2
        assert restored.pending_delete_count == 0
        restored.check_invariants()
        assert _pairs(restored.range_select()) == sorted(model.items())
        expected = sum(value == 1999 for value in model.values())
        assert restored.count_range(1999, 1999, high_inclusive=True) == expected
        restored.check_invariants()


# ---------------------------------------------------------------------- #
# Zero-copy snapshots survive an in-place merge
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("config", ["cracked", "sharded"])
@pytest.mark.parametrize("write", ["update", "delete", "insert"])
def test_snapshot_survives_in_place_merge(config, write):
    rng = np.random.default_rng(5)
    values = rng.permutation(2000)
    column = CONFIGS[config](values)
    for low in range(0, 2000, 100):
        column.range_select(low, low + 100)
    if config == "sharded":
        held = column.range_select(500, 900, snapshot=True)
        parts = held.shard_results
    else:
        held = column.range_select(500, 900).snapshot()
        parts = [held]
    assert all(part.contiguous for part in parts)
    expected = [(part.oids.copy(), part.values.copy()) for part in parts]
    rows = np.flatnonzero((values >= 550) & (values < 850))
    if write == "update":
        column.update(rows, np.full(len(rows), 1990), values[rows])
    elif write == "delete":
        column.delete(rows, values[rows])
    else:
        column.append(np.arange(600, 700), oids=np.arange(2000, 2100))
    column.range_select(500, 900)  # merges in place
    for part, (oids, part_values) in zip(parts, expected):
        assert np.array_equal(part.oids, oids)
        assert np.array_equal(part.values, part_values)
    column.check_invariants()


# ---------------------------------------------------------------------- #
# Random DML sequences agree with a dict model on every config
# ---------------------------------------------------------------------- #

VALUES = st.integers(-5, 105)
OIDS = st.integers(0, 79)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("select"), VALUES, st.integers(0, 60)),
        st.tuples(st.just("insert"), st.lists(VALUES, min_size=1, max_size=4)),
        st.tuples(
            st.just("update"),
            st.lists(st.tuples(OIDS, VALUES), min_size=1, max_size=4),
        ),
        st.tuples(st.just("delete"), st.lists(OIDS, min_size=1, max_size=3)),
        st.tuples(st.just("checkpoint")),
    ),
    max_size=40,
)


@pytest.mark.parametrize("config", sorted(CONFIGS))
@settings(max_examples=40, deadline=None)
@given(ops=operations)
def test_property_dml_matches_model(config, ops):
    initial = np.random.default_rng(1).integers(0, 100, 40)
    column = CONFIGS[config](initial)
    live = dict(enumerate(initial.tolist()))
    # What the base table holds for every oid ever seen: a deleted row
    # keeps its last value, the pre-image a caller would read.
    stored = dict(live)
    next_oid = len(initial)
    for op in ops:
        if op[0] == "select":
            low, high = op[1], op[1] + op[2]
            result = column.range_select(low, high, high_inclusive=True)
            expected = sorted(
                (oid, value) for oid, value in live.items() if low <= value <= high
            )
            assert _pairs(result) == expected
        elif op[0] == "insert":
            oids = list(range(next_oid, next_oid + len(op[1])))
            next_oid += len(op[1])
            column.append(op[1], oids=oids)
            live.update(zip(oids, op[1]))
            stored.update(zip(oids, op[1]))
        elif op[0] == "update":
            oids = [oid for oid, _ in op[1]]
            new = [value for _, value in op[1]]
            pre = [stored.get(oid, 0) for oid in oids]
            applied = column.update(oids, new, pre)
            hits = {oid for oid in oids if oid in live}
            assert applied == len(hits)
            for oid, value in op[1]:
                if oid in hits:
                    live[oid] = stored[oid] = value
        elif op[0] == "delete":
            pre = [stored.get(oid, 0) for oid in op[1]]
            applied = column.delete(op[1], pre)
            hits = {oid for oid in op[1] if oid in live}
            assert applied == len(hits)
            for oid in hits:
                del live[oid]
        else:
            column = type(column).from_state(column.export_state())
        column.check_invariants()
    assert _pairs(column.range_select()) == sorted(live.items())
    column.check_invariants()


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_named_pending_sequences(config):
    values = np.arange(0, 400, 4)
    column = CONFIGS[config](values)
    for low in range(0, 400, 37):
        column.range_select(low, low + 20)
    # A chain of updates to one row, an update then a delete of another,
    # a delete of a row still pending insert, and a checkpoint with all
    # of it pending.
    column.update([10], [1], [40])
    column.update([10], [2], [1])
    column.update([10], [399], [2])
    column.update([20], [5], [80])
    column.delete([20], [5])
    column.append([123], oids=[100])
    column.delete([100], [123])
    column.append([124], oids=[101])
    column = type(column).from_state(column.export_state())
    column.check_invariants()
    expected = dict(enumerate(values.tolist()))
    expected[10] = 399
    del expected[20]
    expected[101] = 124
    assert _pairs(column.range_select()) == sorted(expected.items())
    column.check_invariants()


# ---------------------------------------------------------------------- #
# Merge work is proportional to the change
# ---------------------------------------------------------------------- #


def test_merge_moves_at_most_k_plus_piece_shifts():
    size = 100_000
    rng = np.random.default_rng(11)
    values = rng.permutation(size)
    column = CrackedColumn.from_arrays(values)
    for low in rng.integers(0, size, 300):
        column.range_select(int(low), int(low) + 500)
    pieces = column.piece_count
    assert pieces > 100
    updated = np.flatnonzero((values >= 40_000) & (values <= 40_020))
    deleted = np.flatnonzero((values >= 70_000) & (values <= 70_002))
    inserted = rng.integers(0, size, 10)
    column.update(updated, np.full(len(updated), 12_345), values[updated])
    column.delete(deleted, values[deleted])
    column.append(inserted)
    # D_j: net rows inserted before piece j, from each pending row's piece.
    net = np.zeros(pieces, dtype=np.int64)
    for arriving, sign in (
        (np.full(len(updated), 12_345), 1),
        (inserted, 1),
        (values[updated], -1),
        (values[deleted], -1),
    ):
        np.add.at(net, column.index.piece_assignment(arriving), sign)
    before_piece = np.concatenate([[0], np.cumsum(net)[:-1]])
    k = 2 * len(updated) + len(deleted) + len(inserted)
    bound = k + int(np.abs(before_piece).sum())
    moved_before = column.merge_moved
    cracked_before = column.crack_stats.tuples_moved
    column.range_select()
    moved = column.merge_moved - moved_before
    assert 0 < moved <= bound < size // 10
    assert column.crack_stats.tuples_moved == cracked_before
    assert column.observability()["merge_moved"] == column.merge_moved
    column.check_invariants()


def test_merge_work_reaches_lineage_and_stats():
    db = Database(cracking=True, profile=True)
    db.execute("CREATE TABLE r (k integer, a integer)")
    rows = ", ".join(f"({i}, {(i * 37) % 101})" for i in range(101))
    db.execute(f"INSERT INTO r VALUES {rows}")
    for low in range(0, 100, 10):
        db.execute(f"SELECT count(*) FROM r WHERE a BETWEEN {low} AND {low + 5}")
    db.execute("UPDATE r SET a = 99 WHERE a BETWEEN 3 AND 8")
    db.execute("SELECT count(*) FROM r WHERE a BETWEEN 0 AND 50")
    stats = db.stats()
    assert stats["cracker_detail"]["r.a"]["merge_moved"] > 0
    events = [
        event for event in stats["lineage"]["r.a"]["events"]
        if event["op"] in ("merge", "tombstone")
    ]
    assert {event["op"] for event in events} == {"merge", "tombstone"}
    assert sum(event["moved"] for event in events) == (
        stats["cracker_detail"]["r.a"]["merge_moved"]
    )
    db.check_invariants()
