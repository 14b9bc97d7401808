"""Metric definitions: end-to-end numbers from a run, per-layer numbers
from a traced run, and the layer-accounting check.

End-to-end metrics are measured with tracing off and must exist, never
0, on every workload.  ``PER_LAYER`` records, per layer metric, the
end-to-end metric it should move and the workload that loads it, so a
later change to one layer knows where to look for its effect.
"""

from __future__ import annotations

import statistics

import numpy as np

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "throughput_stmt_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p99_ms": ("ms", "lower"),
    "read_p99_ms": ("ms", "lower"),
    "rows_per_s": ("1/s", "higher"),
    "burn_in_s": ("s", "lower"),
    "rss_mb": ("MB", "lower"),
}

# Timed layers: metric name -> self-time key recorded by perfbench.tracing.
TIMED_LAYERS = {
    "sql.lex_ms": "sql.lex",
    "sql.normalize_ms": "sql.normalize",
    "sql.parse_ms": "sql.parse",
    "sql.analyze_ms": "sql.analyze",
    "sql.plan_ms": "sql.plan",
    "sql.lock_wait_ms": "sql.lock_wait",
    "core.crack_ms": "core.crack",
    "core.merge_select_ms": "core.merge_select",
    "core.propagate_update_ms": "core.propagate_update",
    "core.propagate_delete_ms": "core.propagate_delete",
    "core.propagate_insert_ms": "core.propagate_insert",
    "storage.update_positions_ms": "storage.update_positions",
    "storage.delete_positions_ms": "storage.delete_positions",
    "sql.dml_match_ms": "sql.dml_match",
    "volcano.gather_ms": "volcano.gather",
    "persist.wal_append_ms": "persist.wal_append",
    "persist.wal_sync_ms": "persist.wal_sync",
    "persist.checkpoint_ms": "persist.checkpoint",
    "server.decode_ms": "server.decode",
    "server.encode_ms": "server.encode",
    "client.decode_ms": "client.decode",
}

# name -> (unit, better, end-to-end metric it should move, workload)
PER_LAYER = {
    "sql.lex_ms": ("ms", "lower", "latency_p50_ms", "adhoc_burn_in"),
    "sql.normalize_ms": ("ms", "lower", "latency_p50_ms", "adhoc_burn_in"),
    "sql.parse_ms": ("ms", "lower", "latency_p50_ms", "adhoc_burn_in"),
    "sql.analyze_ms": ("ms", "lower", "throughput_stmt_s", "adhoc_burn_in"),
    "sql.plan_ms": ("ms", "lower", "latency_p50_ms", "adhoc_burn_in"),
    "sql.plan_cache_exact_hit_ratio": (
        "ratio", "higher", "latency_p50_ms", "bulk_fetch"),
    "sql.plan_cache_template_hit_ratio": (
        "ratio", "higher", "latency_p50_ms", "adhoc_burn_in"),
    "sql.lock_wait_ms": ("ms", "lower", "latency_p99_ms", "bulk_fetch"),
    "core.crack_ms": ("ms", "lower", "burn_in_s", "adhoc_burn_in"),
    "core.cracks": ("count/stmt", "lower", "burn_in_s", "adhoc_burn_in"),
    "core.tuples_moved": ("count/stmt", "lower", "burn_in_s", "adhoc_burn_in"),
    "core.tuples_touched": ("count/stmt", "lower", "latency_p99_ms", "adhoc_burn_in"),
    "core.pieces": ("count", "lower", "latency_p50_ms", "adhoc_burn_in"),
    "core.touched_per_result_row": (
        "ratio", "lower", "burn_in_s", "adhoc_burn_in"),
    "core.merge_select_ms": ("ms", "lower", "read_p99_ms", "write_mix"),
    "core.propagate_update_ms": ("ms", "lower", "write_p50_ms", "write_mix"),
    "core.propagate_delete_ms": ("ms", "lower", "write_p50_ms", "write_mix"),
    "core.propagate_insert_ms": ("ms", "lower", "throughput_stmt_s", "write_mix"),
    "storage.update_positions_ms": ("ms", "lower", "write_p50_ms", "write_mix"),
    "storage.delete_positions_ms": ("ms", "lower", "write_p50_ms", "write_mix"),
    "sql.dml_match_ms": ("ms", "lower", "write_p50_ms", "write_mix"),
    "volcano.gather_ms": ("ms", "lower", "rows_per_s", "bulk_fetch"),
    "persist.wal_append_ms": ("ms", "lower", "write_p99_ms", "write_mix"),
    "persist.wal_sync_ms": ("ms", "lower", "write_p99_ms", "write_mix"),
    "persist.wal_syncs": ("count/stmt", "lower", "write_p99_ms", "write_mix"),
    "persist.checkpoint_ms": ("ms", "lower", "write_p99_ms", "write_mix"),
    "persist.checkpoints": ("count", "lower", "write_p99_ms", "write_mix"),
    "persist.wal_bytes_per_write": ("B", "lower", "space_amp", "write_mix"),
    "persist.space_amp": ("ratio", "lower", "space_amp", "write_mix"),
    "server.engine_ms": ("ms", "lower", "rows_per_s", "bulk_fetch"),
    "server.gateway_wait_ms": ("ms", "lower", "latency_p99_ms", "bulk_fetch"),
    "server.encode_ms": ("ms", "lower", "rows_per_s", "bulk_fetch"),
    "server.decode_ms": ("ms", "lower", "latency_p50_ms", "bulk_fetch"),
    "client.decode_ms": ("ms", "lower", "rows_per_s", "bulk_fetch"),
    "client.wait_ms": ("ms", "lower", "latency_p50_ms", "bulk_fetch"),
    "client.reconnects": ("count", "lower", "throughput_stmt_s", "bulk_fetch"),
    "write_p50_ms": ("ms", "lower", "write_p50_ms", "write_mix"),
    "write_p99_ms": ("ms", "lower", "write_p99_ms", "write_mix"),
    "unattributed_ms": ("ms", "lower", "latency_p50_ms", "all"),
    "trace_overhead": ("ratio", "higher", "throughput_stmt_s", "all"),
}

WRITE_KINDS = ("update", "delete", "insert")


def percentile_ms(latencies, q: float) -> float:
    return float(np.percentile(np.asarray(latencies), q)) * 1000.0


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(segments, setups, burn_ins, rss) -> dict:
    """``name -> (value, samples)`` over the untraced rounds of a run.

    Rates, the median latency, set-up, burn-in and memory are medians
    over rounds, so one round caught by a slow spell of the machine does
    not move them.  The p99 tails pool every completed statement of the
    run, which gives them at least ten samples beyond the percentile.
    """
    latencies = [lat for run in segments for lat in run.latencies]
    reads = [lat for run in segments
             for lat, kind in zip(run.latencies, run.kinds)
             if kind not in WRITE_KINDS]
    rows = sum(run.result_rows for run in segments)
    return {
        "setup_s": (median(setups), len(setups)),
        "throughput_stmt_s": (
            median(len(run.latencies) / run.window_s for run in segments),
            len(latencies),
        ),
        "latency_p50_ms": (
            median(percentile_ms(run.latencies, 50) for run in segments),
            len(latencies),
        ),
        "latency_p99_ms": (percentile_ms(latencies, 99), len(latencies)),
        "read_p99_ms": (percentile_ms(reads, 99), len(reads)),
        "rows_per_s": (
            median(run.result_rows / run.window_s for run in segments), rows
        ),
        "burn_in_s": (median(burn_ins), len(burn_ins)),
        "rss_mb": (median(rss), len(rss)),
    }


def write_latencies(run) -> list:
    return [lat for lat, kind in zip(run.latencies, run.kinds) if kind in WRITE_KINDS]


def per_layer(traced, untraced, served: bool) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run plus its accounting.

    Times are self-time in ms per completed statement.  The accounting
    wall clock is the sum of the traced statements' latencies as the
    caller saw them; the layers that partition it are the timed layers
    (plus, when served, the gateway wait, which the engine layers do not
    cover) and ``unattributed`` is what remains: interpreter and socket
    time no wrapper covers, INSERT's own execute time and the wrappers'
    overhead.
    """
    totals = traced.layers
    # Database.execute self-time, by statement kind: the plan drain and
    # result building on SELECT, the WHERE match on UPDATE and DELETE.
    # INSERT's own execute time stays in the remainder.
    self_ns = dict(totals["self_ns"])
    incl_ns = totals["incl_ns"]
    calls = totals["calls"]
    counters = totals["counters"]
    self_ns["volcano.gather"] = self_ns.get("db.execute:select", 0)
    self_ns["sql.dml_match"] = (
        self_ns.get("db.execute:update", 0) + self_ns.get("db.execute:delete", 0)
    )
    calls = dict(calls)
    calls["volcano.gather"] = calls.get("db.execute:select", 0)
    calls["sql.dml_match"] = (
        calls.get("db.execute:update", 0) + calls.get("db.execute:delete", 0)
    )
    statements = max(1, len(traced.latencies))
    per_stmt = 1e-6 / statements  # ns total -> ms per statement

    values: dict[str, float] = {}
    layer_calls: dict[str, int] = {}
    for metric, key in TIMED_LAYERS.items():
        values[metric] = self_ns.get(key, 0) * per_stmt
        layer_calls[metric] = calls.get(key, 0)
    engine_ns = sum(v for k, v in incl_ns.items() if k.startswith("db.execute:"))
    engine_calls = sum(v for k, v in calls.items() if k.startswith("db.execute:"))
    gateway_ns = incl_ns.get("server.gateway_run", 0)
    values["server.engine_ms"] = engine_ns * per_stmt if served else 0.0
    layer_calls["server.engine_ms"] = engine_calls if served else 0
    values["server.gateway_wait_ms"] = (
        max(0, gateway_ns - engine_ns) * per_stmt if served else 0.0
    )
    layer_calls["server.gateway_wait_ms"] = calls.get("server.gateway_run", 0)
    values["client.wait_ms"] = self_ns.get("client.wait", 0) * per_stmt
    layer_calls["client.wait_ms"] = calls.get("client.wait", 0)

    def ratio(hits: str, lookups: str) -> float:
        return counters.get(hits, 0) / max(1, counters.get(lookups, 0))

    values["sql.plan_cache_exact_hit_ratio"] = ratio(
        "plan_cache.exact_hits", "plan_cache.exact_lookups")
    values["sql.plan_cache_template_hit_ratio"] = ratio(
        "plan_cache.template_hits", "plan_cache.template_lookups")
    cracker = traced.cracker or {}
    for key in ("cracks", "tuples_moved", "tuples_touched"):
        values[f"core.{key}"] = cracker.get(key, 0) / statements
    values["core.pieces"] = cracker.get("pieces", 0)
    values["core.touched_per_result_row"] = (
        cracker.get("tuples_touched", 0) / max(1, traced.qualifying_rows)
    )
    writes = sum(1 for kind in traced.kinds if kind in WRITE_KINDS)
    values["persist.wal_syncs"] = calls.get("persist.wal_sync", 0) / statements
    values["persist.checkpoints"] = calls.get("persist.checkpoint", 0)
    values["persist.wal_bytes_per_write"] = (
        counters.get("persist.wal_bytes", 0) / writes if writes else 0.0
    )
    values["persist.space_amp"] = traced.extra.get("space_amp", 0.0)
    values["client.reconnects"] = traced.reconnects
    wlat = write_latencies(untraced)
    values["write_p50_ms"] = percentile_ms(wlat, 50) if wlat else 0.0
    values["write_p99_ms"] = percentile_ms(wlat, 99) if wlat else 0.0
    values["trace_overhead"] = (
        (len(traced.latencies) / traced.window_s)
        / (len(untraced.latencies) / untraced.window_s)
    )

    wall_ms = sum(traced.latencies) * 1000.0 / statements
    parts = [metric for metric in TIMED_LAYERS]
    if served:
        parts.append("server.gateway_wait_ms")
    attributed = sum(values[metric] for metric in parts)
    values["unattributed_ms"] = wall_ms - attributed
    accounting = {
        "wall_ms_per_stmt": wall_ms,
        "layers": parts,
        "attributed_ms": attributed,
        "unattributed_ms": wall_ms - attributed,
        "calls": layer_calls,
        "statements": statements,
        # Self-times partition each statement's time, so the remainder
        # can only be negative through double counting.
        "ok": all(values[m] >= 0 for m in parts) and wall_ms - attributed >= -1e-6,
    }
    return values, accounting
