"""The bench delta table diffs only like-for-like reports."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "compare_bench.py"
_spec = importlib.util.spec_from_file_location("compare_bench", SCRIPT)
compare_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_bench)


def report(rows=20_000, cpu_count=2, qps=100.0, meta=None):
    body = {"rows": rows, "cpu_count": cpu_count, "sustained": {"qps": qps}}
    if meta is not None:
        body["meta"] = meta
    return body


def test_comparable_reports_get_per_metric_deltas():
    meta = {"python": "3.11.7", "numpy": "2.4.6"}
    rows, regressions = compare_bench.compare_reports(
        "BENCH_x.json", report(qps=100.0, meta=meta), report(qps=50.0, meta=meta), 25.0
    )
    assert len(rows) == 1
    assert "`sustained.qps`" in rows[0] and "-50.0%" in rows[0]
    assert regressions == 1


def test_incomparable_reports_get_one_row_and_no_delta():
    rows, regressions = compare_bench.compare_reports(
        "BENCH_x.json",
        report(rows=1_000_000, qps=100.0),
        report(rows=20_000, qps=10.0),
        25.0,
    )
    assert rows == [
        "| `BENCH_x.json` | — | — | — | — | incomparable (rows 1000000 vs 20000) |"
    ]
    assert regressions == 0


def test_version_mismatch_is_incomparable_only_when_both_have_meta():
    old = report(meta={"python": "3.11.7", "numpy": "2.4.6"})
    new = report(meta={"python": "3.12.1", "numpy": "2.4.6"})
    reason = compare_bench.incomparable_reason(old, new)
    assert reason == "python 3.11.7 vs 3.12.1"
    # A baseline recorded before reports carried meta compares on rows/cpus.
    assert compare_bench.incomparable_reason(report(), new) is None
    assert "cpu_count 1 vs 2" in compare_bench.incomparable_reason(
        report(cpu_count=1), report(cpu_count=2)
    )
