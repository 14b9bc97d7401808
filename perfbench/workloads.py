"""The three workloads: set-up, the measured closed loop, answer checks.

Every workload runs the engine configuration ``repro serve`` uses by
default: ``Database(cracking=True, mode="vector", concurrent=True)``
with the plan cache on, one shard and no crack threshold.

Each workload object offers the same four steps, which ``run.py``
sequences: ``setup()`` builds a fresh engine and times it,
``measure()`` drives statements in a closed loop (each caller waits for
its reply) for a time or for a fixed number of statements, ``check()``
compares every recorded answer with the numpy reference outside the
timed region, and ``teardown()`` releases the engine.
"""

from __future__ import annotations

import gc
import json
import resource
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import data, tracing

HERE = Path(__file__).resolve().parent

ENGINE = dict(cracking=True, mode="vector", concurrent=True)

#: Statements whose cumulative time from the cold column is ``burn_in_s``
#: on ``adhoc_burn_in``.
BURN_IN_STATEMENTS = 1000
#: Client connections of ``bulk_fetch`` (one thread each).
CLIENTS = 2
#: Reads that crack the column during ``write_mix`` set-up.
WRITE_BURN_IN_READS = 200
#: ``write_mix`` durability policy: the ``repro serve`` fsync default and a
#: statement-count checkpoint that completes several times per run.
WAL_FSYNC_EVERY = 64
CHECKPOINT_STATEMENTS = 64
#: A served statement with no reply after this long fails the run.
STATEMENT_TIMEOUT_S = 30.0
#: How many failure messages a run keeps for its report.
MAX_NOTES = 5


@dataclass
class Env:
    """One set-up engine (embedded database or server process)."""

    setup_s: float
    burn_in_s: float | None = None
    db: object = None
    proc: subprocess.Popen | None = None
    port: int | None = None
    directory: Path | None = None
    server_report: dict | None = None


@dataclass
class Run:
    """What one measured loop produced."""

    window_s: float = 0.0
    latencies: list = field(default_factory=list)  # seconds, completed
    kinds: list = field(default_factory=list)      # per completed statement
    per_client: list = field(default_factory=list)  # statements attempted
    attempted: int = 0
    failed: int = 0
    result_rows: int = 0
    qualifying_rows: int = 0
    answers: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    reconnects: int = 0
    layers: dict | None = None
    cracker: dict | None = None
    extra: dict = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.notes) < MAX_NOTES:
            self.notes.append(what)


def cracker_counters(db) -> dict:
    """Crack work summed over the database's cracked columns."""
    totals = {"cracks": 0, "tuples_moved": 0, "tuples_touched": 0, "pieces": 0}
    for column in db.cracked_columns().values():
        sample = column.observability()
        for key in totals:
            totals[key] += sample[key]
    return totals


def cracker_delta(before: dict, after: dict) -> dict:
    """Work done between two samples; ``pieces`` is the count at the end."""
    return {
        key: after[key] if key == "pieces" else after[key] - before[key]
        for key in after
    }


def rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class _Embedded:
    """Shared closed loop for the workloads that call ``Database`` directly."""

    name = ""

    def __init__(self, rows: int, seed: int, workdir: Path) -> None:
        self.rows = rows
        self.seed = seed
        self.workdir = workdir
        self.columns = data.make_table(rows, seed)

    def stream(self):
        raise NotImplementedError

    def answer(self, kind, result):
        raise NotImplementedError

    def measure(self, env: Env, seconds=None, counts=None, clock=None) -> Run:
        db = env.db
        run = Run()
        limit = counts[0] if counts is not None else None
        before = cracker_counters(db)
        patches = tracing.Patches()
        if clock is not None:
            tracing.install_engine(clock, patches)
        perf = time.perf_counter
        latencies, kinds, answers = run.latencies, run.kinds, run.answers
        started = perf()
        deadline = started + seconds if seconds is not None else float("inf")
        try:
            for item in self.stream():
                if limit is not None and run.attempted >= limit:
                    break
                kind, params, sql = item
                run.attempted += 1
                t0 = perf()
                try:
                    result = db.execute(sql)
                except Exception as exc:  # counted, reported, never retried
                    t1 = perf()
                    run.fail(f"{kind}: {type(exc).__name__}: {exc}")
                    answers.append((kind, params, None))
                else:
                    t1 = perf()
                    latencies.append(t1 - t0)
                    kinds.append(kind)
                    run.result_rows += len(result.rows)
                    answers.append((kind, params, self.answer(kind, result)))
                if t1 >= deadline:
                    break
        finally:
            run.window_s = perf() - started
            patches.restore()
        run.per_client = [run.attempted]
        run.cracker = cracker_delta(before, cracker_counters(db))
        if clock is not None:
            run.layers = clock.totals()
        return run

    def check_invariants(self, env: Env, run: Run) -> None:
        try:
            env.db.check_invariants()
        except Exception as exc:
            run.fail(f"check_invariants: {type(exc).__name__}: {exc}")

    def teardown(self, env: Env) -> None:
        env.db.close()
        env.db = None
        gc.collect()  # free the engine now, so the next one's RSS starts clean
        if env.directory is not None:
            shutil.rmtree(env.directory, ignore_errors=True)


class AdhocBurnIn(_Embedded):
    """Never-repeating range aggregates from a cold column (embedded)."""

    name = "adhoc_burn_in"

    def __init__(self, rows: int, seed: int, workdir: Path) -> None:
        super().__init__(rows, seed, workdir)
        self.reference = data.RangeReference(self.columns)

    def stream(self):
        return data.adhoc_stream(self.rows, self.seed)

    def answer(self, kind, result):
        return result.rows[0][0]

    def setup(self, index: int = 0, trace: bool = False) -> Env:
        from repro.sql import Database

        started = time.perf_counter()
        db = Database(**ENGINE)
        data.load_table(db, self.columns)
        return Env(setup_s=time.perf_counter() - started, db=db)

    def burn_in_of(self, run: Run) -> float:
        return sum(run.latencies[:BURN_IN_STATEMENTS])

    def check(self, env: Env, run: Run) -> None:
        ref = self.reference
        for kind, (lo, hi), got in run.answers:
            if got is None:
                continue
            want = ref.count(lo, hi) if kind == "count" else ref.sum_b(lo, hi)
            run.qualifying_rows += ref.count(lo, hi)
            if got != want:
                run.fail(f"{kind} [{lo}, {hi}]: got {got}, want {want}")
        self.check_invariants(env, run)


class WriteMix(_Embedded):
    """Reads under UPDATE/DELETE/INSERT on a durable store (embedded)."""

    name = "write_mix"

    def stream(self):
        return data.write_stream(self.rows, self.seed)

    def answer(self, kind, result):
        return result.rows[0][0] if kind == "read" else result.affected

    def setup(self, index: int = 0, trace: bool = False) -> Env:
        from repro.sql import Database

        directory = self.workdir / f"write_mix-{index}"
        shutil.rmtree(directory, ignore_errors=True)
        started = time.perf_counter()
        db = Database(
            **ENGINE,
            persist_dir=directory,
            wal_fsync_every=WAL_FSYNC_EVERY,
            checkpoint_statements=CHECKPOINT_STATEMENTS,
        )
        data.load_table(db, self.columns)
        db.checkpoint()  # the bulk load bypasses the WAL; make it durable
        burn_started = time.perf_counter()
        for sql in data.burn_in_reads(self.rows, self.seed, WRITE_BURN_IN_READS):
            db.execute(sql)
        finished = time.perf_counter()
        return Env(
            setup_s=finished - started,
            burn_in_s=finished - burn_started,
            db=db,
            directory=directory,
        )

    def measure(self, env: Env, seconds=None, counts=None, clock=None) -> Run:
        generation = env.db.persistence_stats()["generation"]
        run = super().measure(env, seconds=seconds, counts=counts, clock=clock)
        run.extra["checkpoints"] = env.db.persistence_stats()["generation"] - generation
        return run

    def check(self, env: Env, run: Run) -> None:
        model = data.ValueCountModel(self.columns["a"], self.rows)
        for kind, params, got in run.answers:
            want = model.apply(kind, params)
            if kind == "read":
                run.qualifying_rows += want
            if got is not None and got != want:
                run.fail(f"{kind} {params}: got {got}, want {want}")
        db = env.db
        live = db.execute("SELECT count(*) FROM r").rows[0][0]
        total = db.execute("SELECT sum(a) FROM r").rows[0][0]
        if live != model.live_rows() or total != model.sum_a():
            run.fail(
                f"final state: count {live} sum(a) {total}, model "
                f"{model.live_rows()} {model.sum_a()}"
            )
        disk = sum(p.stat().st_size for p in env.directory.rglob("*") if p.is_file())
        run.extra["space_amp"] = disk / max(1, live * 3 * 8)
        self.check_invariants(env, run)


class BulkFetch:
    """Row-returning SELECTs from a Zipf pool, served to two connections."""

    name = "bulk_fetch"

    def __init__(self, rows: int, seed: int, workdir: Path) -> None:
        self.rows = rows
        self.seed = seed
        self.pool = data.bulk_pool(rows, seed)
        self.reference = data.RangeReference(data.make_table(rows, seed))
        #: Server processes not yet stopped (the run's watchdog kills them).
        self.processes: list[subprocess.Popen] = []

    def setup(self, index: int = 0, trace: bool = False) -> Env:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [
                sys.executable, str(HERE / "server_main.py"),
                "--rows", str(self.rows), "--seed", str(self.seed),
                "--trace", "1" if trace else "0",
            ],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.processes.append(proc)
        line = proc.stdout.readline()
        if not line:
            proc.stdin.close()
            proc.wait(timeout=60)
            self.processes.remove(proc)
            raise RuntimeError(f"server exited during start (code {proc.returncode})")
        hello = json.loads(line)
        return Env(
            setup_s=time.perf_counter() - started,
            burn_in_s=hello["burn_in_s"],
            proc=proc,
            port=hello["port"],
        )

    def _connect(self, env: Env):
        from repro.client import Client

        client = Client("127.0.0.1", env.port, reconnect=False)
        self._arm_timeout(client)
        return client

    @staticmethod
    def _arm_timeout(client) -> None:
        """Bound the wait for each reply (the client itself waits forever)."""
        sock = getattr(client, "_sock", None)
        if sock is not None:
            sock.settimeout(STATEMENT_TIMEOUT_S)

    def measure(self, env: Env, seconds=None, counts=None, clock=None) -> Run:
        run = Run()
        perf = time.perf_counter
        shared = {}

        patches = tracing.Patches()

        def release():
            # Runs once, after every client connected and before any
            # statement: connection set-up stays out of the trace.
            if clock is not None:
                tracing.install_client(clock, patches)
            shared["started"] = perf()
            shared["deadline"] = (
                shared["started"] + seconds if seconds is not None else float("inf")
            )

        barrier = threading.Barrier(CLIENTS, action=release)
        outcomes = [Run() for _ in range(CLIENTS)]
        finished = [0.0] * CLIENTS

        def client_loop(slot: int) -> None:
            out = outcomes[slot]
            limit = counts[slot] if counts is not None else None
            try:
                client = self._connect(env)
            except Exception as exc:
                out.fail(f"connect: {type(exc).__name__}: {exc}")
                barrier.abort()
                return
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                client.close()
                return
            deadline = shared["deadline"]
            try:
                for index in data.bulk_sequence(self.seed, slot):
                    if limit is not None and out.attempted >= limit:
                        break
                    sql = self.pool[index][2]
                    out.attempted += 1
                    t0 = perf()
                    try:
                        result = client.execute(sql)
                    except Exception as exc:  # counted, reported, never retried
                        t1 = perf()
                        out.fail(f"{type(exc).__name__}: {exc}")
                        try:
                            client.connect()
                        except Exception as again:
                            out.fail(f"reconnect: {type(again).__name__}: {again}")
                            break
                        out.reconnects += 1
                        self._arm_timeout(client)
                    else:
                        t1 = perf()
                        out.latencies.append(t1 - t0)
                        keys = getattr(result, "arrays", {}).get(result.columns[0])
                        checksum = (
                            int(keys.sum()) if keys is not None
                            else sum(int(row[0]) for row in result.rows)
                        )
                        out.result_rows += len(result.rows)
                        out.answers.append((index, len(result.rows), checksum))
                    if t1 >= deadline:
                        break
            finally:
                finished[slot] = perf()
                client.close()

        threads = [
            threading.Thread(target=client_loop, args=(slot,), name=f"bulk-{slot}")
            for slot in range(CLIENTS)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            patches.restore()
        run.window_s = max(finished) - shared.get("started", max(finished))
        for out in outcomes:
            run.latencies += out.latencies
            run.kinds += ["select"] * len(out.latencies)
            run.answers += out.answers
            run.per_client.append(out.attempted)
            run.attempted += out.attempted
            run.failed += out.failed
            run.notes += out.notes[: MAX_NOTES - len(run.notes)]
            run.result_rows += out.result_rows
            run.reconnects += out.reconnects
        if clock is not None:
            run.layers = clock.totals()
        return run

    def check(self, env: Env, run: Run) -> None:
        """Check every answer, then stop the server and take its report."""
        ref = self.reference
        for index, n_rows, checksum in run.answers:
            lo, hi, _ = self.pool[index]
            run.qualifying_rows += ref.count(lo, hi)
            if n_rows != ref.count(lo, hi) or checksum != ref.sum_k(lo, hi):
                run.fail(
                    f"[{lo}, {hi}]: got {n_rows} rows (k sum {checksum}), "
                    f"want {ref.count(lo, hi)} ({ref.sum_k(lo, hi)})"
                )
        report = self.teardown(env)
        if report["invariants"] != "ok":
            run.fail(f"check_invariants: {report['invariants']}")
        run.extra["rss_mb"] = report["rss_mb"]
        if run.layers is not None:
            server = report["layers"]
            for part in ("self_ns", "incl_ns", "calls", "counters"):
                merged = dict(run.layers[part])
                for key, value in server[part].items():
                    merged[key] = merged.get(key, 0) + value
                run.layers[part] = merged
        run.cracker = report["cracker"]

    def teardown(self, env: Env) -> dict:
        """Stop the server; its final report lands in ``env.server_report``."""
        proc = env.proc
        if proc is None:
            return env.server_report
        env.proc = None
        try:  # closing the server's stdin is its signal to stop
            output, _ = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("server did not stop within 60 s")
        finally:
            self.processes.remove(proc)
        lines = [line for line in output.splitlines() if line.startswith("{")]
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"server failed at shutdown (code {proc.returncode})")
        env.server_report = json.loads(lines[-1])
        return env.server_report


WORKLOADS = {cls.name: cls for cls in (AdhocBurnIn, BulkFetch, WriteMix)}
