"""Tiny-size runs of every workload, untraced and traced.

Each run must emit every named metric with its unit and pass its own
answer checks; a traced run must leave every wrapped function as it
found it.
"""

from __future__ import annotations

import numpy as np
import pytest

from perfbench import data, metrics, run, tracing, workloads

ROWS = 20_000


def _wrapped_targets():
    patches = tracing.Patches()
    clock = tracing.LayerClock()
    tracing.install_engine(clock, patches)
    tracing.install_server(clock, patches)
    tracing.install_client(clock, patches)
    targets = [(owner, attr) for owner, attr, _ in patches._saved]
    patches.restore()
    return {(owner, attr): owner.__dict__[attr] for owner, attr in targets}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name, tmp_path):
    record = run.run_one(name, seed=3, seconds=0.5, trace=False, rows=ROWS,
                         rounds=2, workdir=tmp_path)
    assert record["failed"] == 0, record["notes"]
    assert record["attempted"] > 0
    assert set(record["metrics"]) == set(metrics.END_TO_END)
    for metric, entry in record["metrics"].items():
        assert entry["unit"] == metrics.END_TO_END[metric][0]
        assert entry["value"] > 0, metric
    assert record["meta"]["cpus"] and record["meta"]["numpy"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_accounts_layers_and_restores_wrappers(name, tmp_path):
    originals = _wrapped_targets()
    record = run.run_one(name, seed=4, seconds=0.6, trace=True, rows=ROWS,
                         rounds=1, workdir=tmp_path)
    assert record["failed"] == 0, record["notes"]
    assert set(record["metrics"]) == set(metrics.PER_LAYER)
    for metric, entry in record["metrics"].items():
        assert entry["unit"] == metrics.PER_LAYER[metric][0]
    accounting = record["accounting"]
    assert accounting["ok"]
    assert accounting["unattributed_ms"] >= 0
    total = accounting["attributed_ms"] + accounting["unattributed_ms"]
    assert total == pytest.approx(accounting["wall_ms_per_stmt"])
    assert record["metrics"]["trace_overhead"]["value"] > 0
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original, f"{owner}.{attr} left wrapped"


def test_layer_clock_self_time_excludes_children():
    clock = tracing.LayerClock()
    inner = clock.timed(lambda: sum(range(20000)), "inner")
    outer = clock.timed(lambda: [inner() for _ in range(3)], "outer")
    outer()
    totals = clock.totals()
    assert totals["calls"] == {"inner": 3, "outer": 1}
    assert totals["incl_ns"]["outer"] == (
        totals["self_ns"]["outer"] + totals["incl_ns"]["inner"]
    )


def test_patches_restore_after_failure():
    class Target:
        def method(self):
            return "original"

    original = Target.__dict__["method"]
    patches = tracing.Patches()
    clock = tracing.LayerClock()
    patches.set(Target, "method", clock.timed(original, "layer"))
    with pytest.raises(ZeroDivisionError):
        try:
            1 / 0
        finally:
            patches.restore()
    assert Target.__dict__["method"] is original


def test_inputs_are_deterministic_per_seed():
    first = data.make_table(1000, 5)
    again = data.make_table(1000, 5)
    other = data.make_table(1000, 6)
    assert all(np.array_equal(first[c], again[c]) for c in first)
    assert not np.array_equal(first["a"], other["a"])
    take = lambda stream, n: [next(stream) for _ in range(n)]  # noqa: E731
    assert take(data.adhoc_stream(1000, 5), 50) == take(data.adhoc_stream(1000, 5), 50)
    assert take(data.write_stream(1000, 5), 50) == take(data.write_stream(1000, 5), 50)
    assert data.bulk_pool(100_000, 5) == data.bulk_pool(100_000, 5)


def test_adhoc_literals_never_repeat():
    statements = [sql for *_, sql in
                  (s for s, _ in zip(data.adhoc_stream(2000, 1), range(3000)))]
    assert len(set(statements)) == len(statements)


def test_value_count_model_matches_a_row_model():
    rng = np.random.default_rng(0)
    a = rng.permutation(500)
    model = data.ValueCountModel(a, 500)
    rows = list(a)
    for kind, params, _ in (s for s, _ in zip(data.write_stream(500, 2), range(300))):
        got = model.apply(kind, params)
        if kind == "read":
            lo, hi = params
            want = sum(lo <= v <= hi for v in rows)
        elif kind == "update":
            lo, hi, value = params
            want = sum(lo <= v <= hi for v in rows)
            rows = [value if lo <= v <= hi else v for v in rows]
        elif kind == "delete":
            lo, hi = params
            want = sum(lo <= v <= hi for v in rows)
            rows = [v for v in rows if not lo <= v <= hi]
        else:
            want = len(params)
            rows += list(params)
        assert got == want
    assert model.live_rows() == len(rows)
    assert model.sum_a() == sum(rows)


def _record(rows=1000, cpus=2, seed=1, value=10.0):
    return {
        "workload": "write_mix", "rows": rows, "trace": 0, "seed": seed,
        "meta": {"cpus": cpus, "python": "3.11.7", "numpy": "2.4.6"},
        "metrics": {"latency_p50_ms": {"value": value, "unit": "ms"}},
    }


def test_compare_refuses_unlike_runs():
    assert "incomparable" in run.compare(_record(rows=1000), _record(rows=2000))[0]
    assert "incomparable" in run.compare(_record(cpus=2), _record(cpus=8))[0]
    lines = run.compare(_record(value=10.0), _record(seed=2, value=12.0))
    assert "incomparable" not in lines[0]
    assert "+20.0%" in lines[1]
