"""The repository benchmark: three workloads, end to end and per layer.

One invocation runs one workload and prints its metrics, by name with
their units, then one JSON line::

    python3 perfbench/run.py --workload adhoc_burn_in --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers
installed.  ``--trace 1`` measures the same statements twice, untraced
then with every layer wrapped, and reports per-layer self-times, the
layer accounting and the tracing overhead.  ``--workload all`` runs every
workload both ways.  ``--out FILE`` saves the full record (metrics,
layers, machine ``meta``, config); ``--compare OLD NEW`` diffs two saved
records, refusing to compare runs of different rows or machines.

The benchmark imports the engine from ``src/`` next to this directory;
without it the run stops with an error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import threading
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:  # run as a script: make the package importable
    sys.path.insert(0, str(ROOT))

from perfbench import data, metrics, tracing, workloads  # noqa: E402

WATCHDOG_S = 170.0
ROUNDS = 5


def _import_engine() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: engine sources not found under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


def _start_watchdog(workload) -> threading.Timer:
    """Kill the run, and any server it started, if it overstays."""

    def expire():
        print(f"error: run exceeded {WATCHDOG_S:.0f} s", file=sys.stderr, flush=True)
        for proc in list(getattr(workload, "processes", ())):
            proc.kill()
            proc.wait()
        os._exit(3)

    timer = threading.Timer(WATCHDOG_S, expire)
    timer.daemon = True
    timer.start()
    return timer


def run_untraced(workload, seconds: float, rounds: int) -> dict:
    """``rounds`` fresh set-ups, each measured for ``seconds / rounds``.

    Spreading the run over several cold starts lets rates, set-up and
    burn-in be reported as medians, which a slow or fast spell of the
    machine during one round does not move.
    """
    segments, setup_times, burn_ins, rss = [], [], [], []
    for index in range(rounds):
        env = workload.setup(index)
        setup_times.append(env.setup_s)
        run = workload.measure(env, seconds=seconds / rounds)
        burn_ins.append(
            env.burn_in_s if env.burn_in_s is not None else workload.burn_in_of(run)
        )
        workload.check(env, run)
        workload.teardown(env)
        rss.append(run.extra.get("rss_mb", workloads.rss_mb()))
        segments.append(run)
    values = metrics.end_to_end(segments, setup_times, burn_ins, rss)
    latencies = sum(len(run.latencies) for run in segments)
    return {
        "metrics": {
            name: {"value": value, "unit": metrics.END_TO_END[name][0]}
            for name, (value, _) in values.items()
        },
        "samples": {name: samples for name, (_, samples) in values.items()},
        "attempted": sum(run.attempted for run in segments),
        "failed": sum(run.failed for run in segments),
        "notes": [note for run in segments for note in run.notes],
        "extra": {
            "rounds": rounds,
            "statements": latencies,
            "beyond_p99": latencies // 100,
            "reconnects": sum(run.reconnects for run in segments),
            **{
                key: sum(run.extra[key] for run in segments)
                for key in ("checkpoints",) if key in segments[0].extra
            },
        },
    }


def run_traced(workload, seconds: float) -> dict:
    env = workload.setup(0)
    untraced = workload.measure(env, seconds=seconds / 2)
    workload.check(env, untraced)
    workload.teardown(env)
    clock = tracing.LayerClock()
    env = workload.setup(1, trace=True)
    traced = workload.measure(env, counts=untraced.per_client, clock=clock)
    workload.check(env, traced)
    workload.teardown(env)
    values, accounting = metrics.per_layer(
        traced, untraced, served=workload.name == "bulk_fetch"
    )
    failed = untraced.failed + traced.failed
    notes = untraced.notes + traced.notes
    if not accounting["ok"]:
        failed += 1
        notes.append("layer accounting: self-times exceed the traced wall clock")
    return {
        "metrics": {
            name: {"value": values[name], "unit": metrics.PER_LAYER[name][0]}
            for name in metrics.PER_LAYER
        },
        "accounting": accounting,
        "attempted": untraced.attempted + traced.attempted,
        "failed": failed,
        "notes": notes,
    }


def render(record: dict) -> str:
    lines = [
        f"== {record['workload']}  seed {record['seed']}  rows {record['rows']}  "
        f"{record['seconds']} s  {'traced' if record['trace'] else 'untraced'} =="
    ]
    if record["trace"]:
        calls = record["accounting"]["calls"]
        lines.append(
            f"{'metric':34} {'value':>14} {'unit':10} {'calls':>8}  moves (on)"
        )
        for name, entry in record["metrics"].items():
            _, _, moves, on = metrics.PER_LAYER[name]
            count = calls.get(name, "")
            lines.append(
                f"{name:34} {entry['value']:14.6g} {entry['unit']:10} "
                f"{count!s:>8}  {moves} ({on})"
            )
        acc = record["accounting"]
        lines.append(
            f"accounting: wall {acc['wall_ms_per_stmt']:.4f} ms/stmt = "
            f"layers {acc['attributed_ms']:.4f} + unattributed "
            f"{acc['unattributed_ms']:.4f} over {acc['statements']} statements "
            f"({'ok' if acc['ok'] else 'FAILED'})"
        )
    else:
        lines.append(f"{'metric':20} {'value':>14} {'unit':6} {'samples':>8}")
        for name, entry in record["metrics"].items():
            lines.append(
                f"{name:20} {entry['value']:14.6g} {entry['unit']:6} "
                f"{record['samples'][name]:>8}"
            )
        extra = record["extra"]
        lines.append(
            "  ".join(f"{key}={value:.6g}" if isinstance(value, float)
                      else f"{key}={value}" for key, value in extra.items())
        )
    attempted, failed = record["attempted"], record["failed"]
    lines.append(
        f"failed_ratio {failed / max(1, attempted):.6g} ({failed}/{attempted})"
    )
    for note in record["notes"]:
        lines.append(f"  failure: {note}")
    return "\n".join(lines)


def run_one(name: str, seed: int, seconds: float, trace: bool, rows: int,
            rounds: int, workdir: Path) -> dict:
    from repro.benchmark.meta import collect_meta

    workload = workloads.WORKLOADS[name](rows, seed, workdir)
    watchdog = _start_watchdog(workload)
    try:
        result = (
            run_traced(workload, seconds) if trace
            else run_untraced(workload, seconds, rounds)
        )
    finally:
        watchdog.cancel()
        for proc in list(getattr(workload, "processes", ())):
            proc.kill()  # only left running when the run failed
            proc.wait()
    return {
        "workload": name,
        "seed": seed,
        "rows": rows,
        "seconds": seconds,
        "trace": int(trace),
        "config": {
            **workloads.ENGINE,
            "plan_cache": True,
            "shards": 1,
            "crack_threshold": 0,
            "clients": workloads.CLIENTS if name == "bulk_fetch" else 1,
            **({"wal_fsync_every": workloads.WAL_FSYNC_EVERY,
                "checkpoint_statements": workloads.CHECKPOINT_STATEMENTS}
               if name == "write_mix" else {}),
        },
        "meta": collect_meta(),
        **result,
    }


COMPARED_META = ("cpus", "python", "numpy")


def compare(old: dict, new: dict) -> list[str]:
    """Per-metric deltas, or why the two records cannot be compared."""
    reasons = [
        f"{key} {old[key]} vs {new[key]}"
        for key in ("workload", "rows", "trace") if old[key] != new[key]
    ] + [
        f"{key} {old['meta'][key]} vs {new['meta'][key]}"
        for key in COMPARED_META if old["meta"][key] != new["meta"][key]
    ]
    if reasons:
        return [f"{new['workload']}: incomparable ({', '.join(reasons)})"]
    lines = [f"{new['workload']} (seed {old['seed']} -> {new['seed']})"]
    for name, entry in new["metrics"].items():
        before = old["metrics"].get(name, {}).get("value")
        after = entry["value"]
        if before is None:
            lines.append(f"  {name:34} {after:14.6g}  (new)")
            continue
        delta = (after - before) / before * 100 if before else float("nan")
        lines.append(
            f"  {name:34} {before:14.6g} -> {after:14.6g} {entry['unit']:10} "
            f"{delta:+.1f}%"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see perfbench/README.md)."
    )
    parser.add_argument("--workload", default="all",
                        help="adhoc_burn_in, bulk_fetch, write_mix or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="also write the full record(s) to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="diff two saved records instead of running")
    args = parser.parse_args(argv)

    if args.compare:
        old, new = (json.loads(Path(p).read_text()) for p in args.compare)
        old = old if isinstance(old, list) else [old]
        new = new if isinstance(new, list) else [new]
        for after in new:
            match = [b for b in old if (b["workload"], b["trace"])
                     == (after["workload"], after["trace"])]
            if match:
                print("\n".join(compare(match[0], after)))
            else:
                print(f"{after['workload']}: no record to compare with")
        return 0

    _import_engine()
    # collect_meta() asks git for the revision: no lookups above the checkout.
    os.environ.setdefault("GIT_CEILING_DIRECTORIES", str(ROOT.parent))

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; have {list(workloads.WORKLOADS)}")
    runs = [(n, bool(args.trace)) for n in names]
    if args.workload == "all":
        runs = [(n, trace) for n in names for trace in (False, True)]

    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    records = []
    try:
        for name, trace in runs:
            record = run_one(name, args.seed, args.seconds, trace,
                             data.DEFAULT_ROWS, ROUNDS, workdir)
            print(render(record), flush=True)
            records.append(record)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only succeeds once no other run uses it
        except OSError:
            pass
    if args.out:
        Path(args.out).write_text(
            json.dumps(records[0] if len(records) == 1 else records, indent=1)
        )
    failed = sum(r["failed"] for r in records)
    summary = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": records[0]["metrics"] if len(records) == 1 else {
            f"{r['workload']}.{name}": entry
            for r in records for name, entry in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
