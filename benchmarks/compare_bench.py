"""Warn-only benchmark regression diff: fresh BENCH_*.json vs committed.

The bench sweeps (``python -m repro bench hotpath`` etc.) rewrite the
``benchmarks/BENCH_*.json`` result files in the working tree.  This
script diffs those fresh numbers against the committed baselines (the
``HEAD`` version via ``git show``) for the throughput/latency leaves —
``qps``, ``statements_per_s``, ``p50_ms``, ``p99_ms`` — and renders a
per-metric delta table.  Two reports are only diffed like for like: when
their top-level ``rows`` or ``cpu_count`` differ, or the ``meta.python``
/ ``meta.numpy`` versions differ where both carry ``meta``, the file gets
one "incomparable" row instead of deltas.  Regressions beyond
``--tolerance`` percent are flagged, but the exit code is always 0:
machine variance between CI runners makes a hard gate here noise, so
the table is a review aid (``--summary`` appends it to e.g.
``$GITHUB_STEP_SUMMARY``), not a merge blocker.

Usage::

    PYTHONPATH=src python benchmarks/compare_bench.py
    PYTHONPATH=src python benchmarks/compare_bench.py \
        --tolerance 30 --summary "$GITHUB_STEP_SUMMARY"
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

# Leaves worth diffing, with their improvement direction: +1 means
# higher is better (throughput), -1 means lower is better (latency).
METRIC_DIRECTION = {
    "qps": +1,
    "statements_per_s": +1,
    "p50_ms": -1,
    "p99_ms": -1,
}


def committed_baseline(path: Path) -> dict | None:
    """The HEAD version of a bench result file, or None when unborn."""
    relative = path.relative_to(BENCH_DIR.parent)
    proc = subprocess.run(
        ["git", "show", f"HEAD:{relative.as_posix()}"],
        cwd=BENCH_DIR.parent, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        return None
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        return None


def metric_leaves(node, prefix: str = "") -> dict[str, float]:
    """Flatten a report to ``section.sub.metric -> value`` for the
    throughput/latency leaves in METRIC_DIRECTION."""
    leaves: dict[str, float] = {}
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else key
            if key in METRIC_DIRECTION and isinstance(value, (int, float)):
                leaves[path] = float(value)
            else:
                leaves.update(metric_leaves(value, path))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            leaves.update(metric_leaves(value, f"{prefix}[{index}]"))
    return leaves


def incomparable_reason(baseline: dict, fresh: dict) -> str | None:
    """Why two reports were measured unlike, or None when they compare."""
    pairs = [(key, baseline.get(key), fresh.get(key)) for key in ("rows", "cpu_count")]
    base_meta, fresh_meta = baseline.get("meta"), fresh.get("meta")
    if isinstance(base_meta, dict) and isinstance(fresh_meta, dict):
        pairs += [(key, base_meta.get(key), fresh_meta.get(key)) for key in ("python", "numpy")]
    differences = [f"{key} {old} vs {new}" for key, old, new in pairs if old != new]
    return ", ".join(differences) or None


def compare_file(path: Path, tolerance: float) -> tuple[list[str], int]:
    """Markdown table rows for one BENCH file; returns (rows, regressions)."""
    baseline = committed_baseline(path)
    if baseline is None:
        return [f"| `{path.name}` | — | — | — | — | no committed baseline |"], 0
    try:
        fresh = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"| `{path.name}` | — | — | — | — | unreadable: {exc} |"], 0
    return compare_reports(path.name, baseline, fresh, tolerance)


def compare_reports(
    name: str, baseline: dict, fresh: dict, tolerance: float
) -> tuple[list[str], int]:
    """Markdown table rows diffing two reports; returns (rows, regressions)."""
    reason = incomparable_reason(baseline, fresh)
    if reason is not None:
        return [f"| `{name}` | — | — | — | — | incomparable ({reason}) |"], 0
    base_leaves = metric_leaves(baseline)
    fresh_leaves = metric_leaves(fresh)
    rows: list[str] = []
    regressions = 0
    for key in sorted(base_leaves.keys() & fresh_leaves.keys()):
        before, after = base_leaves[key], fresh_leaves[key]
        metric = key.rsplit(".", 1)[-1]
        direction = METRIC_DIRECTION[metric]
        if before == 0:
            delta_pct = 0.0
        else:
            delta_pct = (after - before) / before * 100.0
        # A regression is throughput going down or latency going up.
        regressed = direction * delta_pct < -tolerance
        improved = direction * delta_pct > tolerance
        mark = "⚠ regression" if regressed else ("improved" if improved else "")
        regressions += int(regressed)
        rows.append(
            f"| `{name}` | `{key}` | {before:g} | {after:g} "
            f"| {delta_pct:+.1f}% | {mark} |"
        )
    return rows, regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tolerance", type=float, default=25.0, metavar="PCT",
        help="flag deltas beyond this percentage (default 25)",
    )
    parser.add_argument(
        "--summary", default=None, metavar="PATH",
        help="also append the markdown table to this file "
        "(e.g. $GITHUB_STEP_SUMMARY)",
    )
    args = parser.parse_args(argv)

    lines = [
        "### Benchmark delta vs committed baselines "
        f"(warn-only, ±{args.tolerance:g}%)",
        "",
        "| file | metric | baseline | fresh | delta | |",
        "|---|---|---|---|---|---|",
    ]
    total_regressions = 0
    bench_files = sorted(BENCH_DIR.glob("BENCH_*.json"))
    if not bench_files:
        lines.append("| — | — | — | — | no BENCH_*.json files | |")
    for path in bench_files:
        rows, regressions = compare_file(path, args.tolerance)
        lines.extend(rows)
        total_regressions += regressions
    lines.append("")
    if total_regressions:
        lines.append(
            f"**{total_regressions} metric(s) regressed beyond tolerance** — "
            "warn-only; re-run locally before trusting CI runner variance."
        )
    else:
        lines.append("No metric regressed beyond tolerance.")
    report = "\n".join(lines) + "\n"
    print(report, end="")
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as handle:
            handle.write(report + "\n")
    # Warn-only by design: CI runner variance makes a hard gate noise.
    return 0


if __name__ == "__main__":
    sys.exit(main())
