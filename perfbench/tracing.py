"""Per-layer self-time, measured from outside the engine.

The traced run rebinds public functions of each module with timing
wrappers, runs the workload, then puts every original back.  Nothing
under ``src/`` knows it is being measured.

Self-time is a call's duration minus the durations of wrapped calls it
made on the same thread, so the layers of one statement partition the
time spent inside its outermost wrapped call.  Each thread keeps its own
stack of child-time accumulators; asyncio coroutines interleave on one
thread, so async functions are timed inclusively and never pushed onto
that stack.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

_now = time.perf_counter_ns


class LayerClock:
    """Accumulates self-time (ns), inclusive time (ns) and calls per layer."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._tables: list[tuple[dict, dict, dict]] = []
        self._tables_lock = threading.Lock()
        self.counters: dict[str, int] = defaultdict(int)
        self._counter_lock = threading.Lock()

    def _table(self):
        tables = getattr(self._local, "tables", None)
        if tables is None:
            tables = (defaultdict(int), defaultdict(int), defaultdict(int))
            self._local.tables = tables
            self._local.stack = []
            with self._tables_lock:
                self._tables.append(tables)
        return tables

    def enter(self) -> None:
        self._table()
        self._local.stack.append(0)

    def leave(self, name: str, elapsed: int) -> None:
        stack = self._local.stack
        children = stack.pop()
        if stack:
            stack[-1] += elapsed
        self_ns, incl_ns, calls = self._local.tables
        self_ns[name] += elapsed - children
        incl_ns[name] += elapsed
        calls[name] += 1

    def add_inclusive(self, name: str, elapsed: int) -> None:
        """Record a duration that is not part of any thread's call stack."""
        _, incl_ns, calls = self._table()
        incl_ns[name] += elapsed
        calls[name] += 1

    def count(self, name: str, amount: int = 1) -> None:
        with self._counter_lock:
            self.counters[name] += amount

    def totals(self) -> dict:
        """``{"self_ns", "incl_ns", "calls", "counters"}`` summed over threads."""
        self_ns: dict[str, int] = defaultdict(int)
        incl_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        with self._tables_lock:
            tables = list(self._tables)
        for table_self, table_incl, table_calls in tables:
            for key, value in list(table_self.items()):
                self_ns[key] += value
            for key, value in list(table_incl.items()):
                incl_ns[key] += value
            for key, value in list(table_calls.items()):
                calls[key] += value
        with self._counter_lock:
            counters = dict(self.counters)
        return {
            "self_ns": dict(self_ns),
            "incl_ns": dict(incl_ns),
            "calls": dict(calls),
            "counters": counters,
        }

    # -- wrapper factories -------------------------------------------- #

    def timed(self, fn, name):
        """Wrap a plain function; ``name`` may be a callable of the args."""
        name_of = name if callable(name) else None
        clock = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name_of(*args, **kwargs) if name_of is not None else name
            clock.enter()
            started = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                clock.leave(label, _now() - started)

        return wrapper

    def timed_generator(self, fn, name: str):
        """Wrap a generator function, timing each step of its iteration."""
        clock = self

        def steps(generator):
            while True:
                clock.enter()
                started = _now()
                try:
                    item = next(generator)
                except StopIteration:
                    clock.leave(name, _now() - started)
                    return
                except BaseException:
                    clock.leave(name, _now() - started)
                    raise
                clock.leave(name, _now() - started)
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return steps(fn(*args, **kwargs))

        return wrapper

    def timed_async(self, fn, name: str):
        """Wrap a coroutine function, timing it inclusively (no stack)."""
        clock = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            started = _now()
            try:
                return await fn(*args, **kwargs)
            finally:
                clock.add_inclusive(name, _now() - started)

        return wrapper


class Patches:
    """Attribute rebindings that can all be undone at once."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class _TimedOS:
    """Stands in for ``os`` inside one module, timing only ``fsync``."""

    def __init__(self, real_os, clock: LayerClock, name: str) -> None:
        self._real = real_os
        self.fsync = clock.timed(real_os.fsync, name)

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def _statement_verb(sql: str) -> str:
    head = sql.lstrip()[:6].lower()
    return head if head in ("select", "update", "delete", "insert") else "other"


def install_engine(clock: LayerClock, patches: Patches) -> None:
    """Wrap the engine layers: sql, plan cache, core, storage, persist."""
    import repro.persist.wal as wal_module
    from repro.core.cracked_column import CrackedColumn
    from repro.persist.store import PersistentStore
    from repro.persist.wal import StatementWAL
    from repro.sql import session
    from repro.sql.plan_cache import PlanCache
    from repro.sql.planner import CrackerProvider
    from repro.storage.table import Relation

    for attr, layer in (
        ("tokenize", "sql.lex"),
        ("normalize", "sql.normalize"),
        ("parse", "sql.parse"),
        ("analyze", "sql.analyze"),
        ("analyze_dml", "sql.analyze"),
        ("build_plan", "sql.plan"),
    ):
        patches.set(session, attr, clock.timed(getattr(session, attr), layer))

    def execute_layer(db, sql, *args, **kwargs):
        return "db.execute:" + _statement_verb(sql)

    patches.set(
        session.Database, "execute",
        clock.timed(session.Database.execute, execute_layer),
    )

    lookup_exact = PlanCache.lookup_exact
    lookup_template = PlanCache.lookup_template

    def counted_exact(cache, sql):
        found = lookup_exact(cache, sql)
        clock.count("plan_cache.exact_lookups")
        if found is not None:
            clock.count("plan_cache.exact_hits")
        return found

    def counted_template(cache, key):
        found = lookup_template(cache, key)
        clock.count("plan_cache.template_lookups")
        if found is not None:
            clock.count("plan_cache.template_hits")
        return found

    patches.set(PlanCache, "lookup_exact", counted_exact)
    patches.set(PlanCache, "lookup_template", counted_template)

    patches.set(
        CrackerProvider, "range_select",
        clock.timed(CrackerProvider.range_select, "sql.lock_wait"),
    )

    def crack_layer(column, *args, **kwargs):
        return "core.merge_select" if column.has_pending else "core.crack"

    patches.set(
        CrackedColumn, "range_select",
        clock.timed(CrackedColumn.range_select, crack_layer),
    )
    for verb in ("update", "delete", "insert"):
        attr = f"propagate_{verb}"
        patches.set(
            CrackerProvider, attr,
            clock.timed(getattr(CrackerProvider, attr), f"core.{attr}"),
        )
    for attr in ("update_positions", "delete_positions"):
        patches.set(
            Relation, attr, clock.timed(getattr(Relation, attr), f"storage.{attr}")
        )

    append = StatementWAL.append
    record_header = len(wal_module.frame_record(b""))

    def counted_append(wal, statement):
        clock.count("persist.wal_bytes", record_header + len(statement.encode("utf-8")))
        return append(wal, statement)

    patches.set(StatementWAL, "append", clock.timed(counted_append, "persist.wal_append"))
    patches.set(
        wal_module, "os", _TimedOS(wal_module.os, clock, "persist.wal_sync")
    )
    patches.set(
        PersistentStore, "checkpoint",
        clock.timed(PersistentStore.checkpoint, "persist.checkpoint"),
    )


def install_server(clock: LayerClock, patches: Patches) -> None:
    """Wrap the server's decode, encode and gateway (server process only)."""
    from repro.server import protocol
    from repro.server import server as server_module
    from repro.server.gateway import ExecutionGateway

    patches.set(
        protocol, "decode_payload",
        clock.timed(protocol.decode_payload, "server.decode"),
    )
    patches.set(
        server_module, "encode_frame",
        clock.timed(server_module.encode_frame, "server.encode"),
    )
    patches.set(
        server_module, "encode_result_frames",
        clock.timed_generator(server_module.encode_result_frames, "server.encode"),
    )
    patches.set(
        ExecutionGateway, "run",
        clock.timed_async(ExecutionGateway.run, "server.gateway_run"),
    )


def install_client(clock: LayerClock, patches: Patches) -> None:
    """Wrap the client's execute, frame decoding and result rehydration."""
    import repro.client as client_module
    from repro.server.protocol import FrameDecoder, ResultAssembler

    patches.set(
        client_module.Client, "execute",
        clock.timed(client_module.Client.execute, "client.wait"),
    )
    patches.set(
        FrameDecoder, "feed", clock.timed(FrameDecoder.feed, "client.decode")
    )
    patches.set(
        ResultAssembler, "feed", clock.timed(ResultAssembler.feed, "client.decode")
    )
    patches.set(
        client_module, "_result_from_reply",
        clock.timed(client_module._result_from_reply, "client.decode"),
    )
