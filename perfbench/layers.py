"""Per-layer metrics of a traced phase.

Inputs are the spans and per-row counts that :mod:`tracing` recorded in
the process holding the database, the operations the callers timed, and
two scrapes of the program's own metrics registry (before and after the
phase).  Span times count only spans recorded on behalf of an operation
of the phase, and a name nested inside a span of the same name counts
once (its outermost call).

Each metric states the end-to-end metric it should move:

====================================  =====================================
metric                                moves
====================================  =====================================
server.request_ms, wire_ms, codec_us  paced_mean_ms @ point_read
server.gate_wait_ms                   paced_mean_ms, paced_ops_per_s @ txn_write
server.rejected                       failed_frac @ all
api.execute_us (self time)            paced_mean_ms @ point_read
api.*_cache_hit_ratio (+ lookups)     paced_ops_per_s @ point_read (≈0 elsewhere)
api.txn_begin_ms, txn_commit_ms       paced_mean_ms @ txn_write
api.txn_rollback_ms                   rollback_p50_ms @ txn_write
api.rows_ms                           <shape>_p50_ms @ analytic
quel.parse_us, parses_per_stmt        paced_mean_ms @ point_read
quel.plan_ms, est_error_ratio         join3_p50_ms @ analytic
stats.analyze_s                       setup_s @ all
exec.drain_ms                         <shape>_p50_ms @ analytic
exec.filter.ns_per_row                scan_eq_p50_ms @ analytic
exec.hashjoin.ns_per_row              join3_p50_ms @ analytic
exec.reduce.ns_per_row                reduce_p50_ms @ analytic
exec.indexprobe.ns_per_row            paced_mean_ms @ point_read
core.xtuple_new_per_row               join3_p50_ms @ analytic
core.compare_per_row                  scan_eq_p50_ms @ analytic
core.bulk_reduce_ms                   reduce_p50_ms @ analytic
core.join_kernel_ms                   join3_p50_ms @ analytic
storage.index_lookup_us               paced_mean_ms @ point_read
storage.bulk_mutation_ms              paced_mean_ms @ txn_write, setup_s
storage.snapshot_ms, wal_append_us    paced_mean_ms @ txn_write
storage.restore_ms                    rollback_p50_ms @ txn_write
storage.fsync_ms, fsyncs_per_commit   paced_ops_per_s @ txn_write
storage.wal_bytes_commit / _rollback  wal_bytes_per_txn @ txn_write
storage.recovered_records             recovery_s @ txn_write
====================================  =====================================

A metric whose layer a workload never calls reads 0.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Optional, Tuple

from harness import outermost, ratio, self_time, unattributed_share

OPERATORS = ("TableScan", "IndexProbe", "Filter", "HashJoin", "Rename", "Project", "Reduce")

#: (name, unit, better) of every per-layer metric, in report order.
METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("server.request_ms", "ms", "lower"),
    ("server.wire_ms", "ms", "lower"),
    ("server.gate_wait_ms", "ms", "lower"),
    ("server.codec_us", "us", "lower"),
    ("server.rejected", "count", "lower"),
    ("api.execute_us", "us", "lower"),
    ("api.plan_cache_hit_ratio", "ratio", "higher"),
    ("api.plan_cache_lookups", "count", "higher"),
    ("api.result_cache_hit_ratio", "ratio", "higher"),
    ("api.result_cache_lookups", "count", "higher"),
    ("api.txn_begin_ms", "ms", "lower"),
    ("api.txn_commit_ms", "ms", "lower"),
    ("api.txn_rollback_ms", "ms", "lower"),
    ("api.rows_ms", "ms", "lower"),
    ("quel.parse_us", "us", "lower"),
    ("quel.parses_per_stmt", "ratio", "lower"),
    ("quel.plan_ms", "ms", "lower"),
    ("quel.est_error_ratio", "ratio", "lower"),
    ("stats.analyze_s", "s", "lower"),
    ("exec.drain_ms", "ms", "lower"),
) + tuple(
    (f"exec.{operator.lower()}.ns_per_row", "ns/row", "lower") for operator in OPERATORS
) + (
    ("core.xtuple_new_per_row", "count/row", "lower"),
    ("core.compare_per_row", "count/row", "lower"),
    ("core.bulk_reduce_ms", "ms", "lower"),
    ("core.join_kernel_ms", "ms", "lower"),
    ("storage.index_lookup_us", "us", "lower"),
    ("storage.bulk_mutation_ms", "ms", "lower"),
    ("storage.snapshot_ms", "ms", "lower"),
    ("storage.restore_ms", "ms", "lower"),
    ("storage.wal_append_us", "us", "lower"),
    ("storage.fsync_ms", "ms", "lower"),
    ("storage.fsyncs_per_commit", "ratio", "lower"),
    ("storage.wal_bytes_commit", "bytes", "lower"),
    ("storage.wal_bytes_rollback", "bytes", "lower"),
    ("storage.recovered_records", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
)

Scrape = Dict[Tuple[str, tuple], float]


def counter_diff(before: Scrape, after: Scrape, name: str, exclude: Optional[Dict] = None,
                 **labels: str) -> float:
    """``after - before`` of the series *name*, summed over the series
    whose labels include *labels* and match none of *exclude*."""
    def total(scrape: Scrape) -> float:
        out = 0.0
        for (series, series_labels), value in scrape.items():
            if series != name:
                continue
            present = dict(series_labels)
            if all(present.get(k) == v for k, v in labels.items()) and not any(
                    present.get(k) == v for k, v in (exclude or {}).items()):
                out += value
        return out

    return total(after) - total(before)


def error_factor_median(before: Scrape, after: Scrape, name: str) -> Tuple[float, int]:
    """The median estimate-error factor ``max(r, 1/r)`` of the new
    observations of the actual/estimated ratio histogram *name* (1.0 is
    a perfect estimate), and their count.  Each bucket stands for the
    geometric mean of its bounds; the open-ended buckets for their one
    finite bound."""
    bounds = []
    for (series, labels), _ in after.items():
        if series == f"{name}_bucket":
            bound = dict(labels)["le"]
            bounds.append((float("inf") if bound == "+Inf" else float(bound), labels))
    bounds.sort()
    factors = []
    previous_bound, previous_seen = None, 0.0
    for bound, labels in bounds:
        seen = after[(f"{name}_bucket", labels)] - before.get((f"{name}_bucket", labels), 0.0)
        if bound == float("inf"):
            value = previous_bound
        elif previous_bound is None:
            value = bound
        else:
            value = (previous_bound * bound) ** 0.5
        if seen > previous_seen and value:
            factors.append((max(value, 1.0 / value), seen - previous_seen))
        previous_bound, previous_seen = bound, seen
    count = sum(weight for _, weight in factors)
    cumulative = 0.0
    for factor, weight in sorted(factors):
        cumulative += weight
        if cumulative >= count / 2:
            return factor, int(count)
    return 0.0, 0


def per_layer(spans: Iterable, loop, before: Scrape, after: Scrape,
              counts: Dict[str, int], overhead_frac: float,
              recovered_records: int = 0) -> Dict[str, Tuple[float, str, Optional[int]]]:
    """Every metric of :data:`METRICS` for one traced phase, as
    ``name → (value, unit, sample count)``."""
    spans = [tuple(span) for span in spans]
    kinds = {op: kind for op, _, _, kind in loop.ops}
    mine = [span for span in spans if span[2] in kinds]
    top = outermost(mine)
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in mine:
        if span[1] is not None:
            children.setdefault(span[1], []).append((span[4], span[5]))

    def named(name: str, pool=top) -> List[tuple]:
        return [span for span in pool if span[3] == name]

    def per_call(name: str, scale: float = 1e-6, pool=top) -> Tuple[float, int]:
        """Mean duration of one call, nanoseconds times *scale*."""
        calls = named(name, pool)
        if not calls:
            return 0.0, 0
        return sum(s[5] - s[4] for s in calls) / len(calls) * scale, len(calls)

    def per_op(name: str) -> Tuple[float, int]:
        """Milliseconds per operation, summed over its calls."""
        total = sum(s[5] - s[4] for s in named(name))
        return (total / len(loop.ops) * 1e-6 if loop.ops else 0.0), len(loop.ops)

    out: Dict[str, Tuple[float, Optional[int]]] = {}
    ops = len(loop.ops)
    requests = loop.requests

    # server
    request_s = counter_diff(before, after, "repro_server_request_seconds_sum",
                             exclude={"endpoint": "/metrics"})
    served = counter_diff(before, after, "repro_server_request_seconds_count",
                          exclude={"endpoint": "/metrics"})
    request_ms = request_s / served * 1000 if served else 0.0
    out["server.request_ms"] = (request_ms, int(served))
    client_ms = (sum(end - start for _, start, end, _ in loop.ops) / requests * 1e-6
                 if requests else 0.0)
    out["server.wire_ms"] = (client_ms - request_ms if served else 0.0, int(served))
    out["server.gate_wait_ms"] = per_call("server.gate_wait")
    codec_ns = sum(s[5] - s[4] for s in named("server.codec"))
    out["server.codec_us"] = (codec_ns / served / 1000 if served else 0.0, int(served))
    out["server.rejected"] = (counter_diff(before, after,
                                           "repro_server_rejected_overload_total"), None)

    # api
    executes = named("api.execute")
    self_us = [self_time(s[4], s[5], children.get(s[0], ())) / 1000 for s in executes]
    out["api.execute_us"] = (statistics.fmean(self_us) if self_us else 0.0, len(self_us))
    plan_hits = counter_diff(before, after, "repro_plan_cache_total", event="hit")
    plan_base = plan_hits + counter_diff(before, after, "repro_plan_cache_total", event="miss") \
        + counter_diff(before, after, "repro_plan_cache_total", event="stale_epoch")
    out["api.plan_cache_hit_ratio"] = ratio(plan_hits, plan_base)
    out["api.plan_cache_lookups"] = (plan_base, None)
    cache_hits = counter_diff(before, after, "repro_result_cache_total", event="hit")
    cache_base = cache_hits + counter_diff(before, after, "repro_result_cache_total",
                                           event="miss")
    out["api.result_cache_hit_ratio"] = ratio(cache_hits, cache_base)
    out["api.result_cache_lookups"] = (cache_base, None)
    out["api.txn_begin_ms"] = per_call("api.txn_begin")
    out["api.txn_commit_ms"] = per_call("api.txn_commit")
    out["api.txn_rollback_ms"] = per_call("api.txn_rollback")
    out["api.rows_ms"] = per_call("api.rows")

    # quel
    parse_us, parses = per_call("quel.parse", 1e-3)
    out["quel.parse_us"] = (parse_us, parses)
    out["quel.parses_per_stmt"] = (parses / len(executes) if executes else 0.0, len(executes))
    out["quel.plan_ms"] = per_call("quel.plan")
    out["quel.est_error_ratio"] = error_factor_median(
        before, after, "repro_plan_estimate_error_ratio")

    # stats: ANALYZE runs at set-up, outside any operation.
    out["stats.analyze_s"] = per_call("stats.analyze", 1e-9, pool=outermost(spans))

    # exec
    out["exec.drain_ms"] = per_call("exec.drain")
    for operator in OPERATORS:
        rows = counter_diff(before, after, "repro_exec_operator_rows_total",
                            operator=operator)
        seconds = counter_diff(before, after, "repro_exec_operator_seconds_total",
                               operator=operator)
        out[f"exec.{operator.lower()}.ns_per_row"] = (
            seconds / rows * 1e9 if rows else 0.0, int(rows))

    # core
    out["core.xtuple_new_per_row"] = (
        counts.get("core.xtuple_new", 0) / loop.rows_out if loop.rows_out else 0.0,
        loop.rows_out)
    scanned = sum(counter_diff(before, after, "repro_exec_operator_rows_total",
                               operator=operator)
                  for operator in ("TableScan", "IndexProbe"))
    out["core.compare_per_row"] = (
        counts.get("core.compare", 0) / scanned if scanned else 0.0, int(scanned))
    out["core.bulk_reduce_ms"] = per_call("core.bulk_reduce")
    out["core.join_kernel_ms"] = per_op("core.join_kernel")

    # storage
    out["storage.index_lookup_us"] = per_call("storage.index_lookup", 1e-3)
    out["storage.bulk_mutation_ms"] = per_call("storage.bulk_mutation")
    out["storage.snapshot_ms"] = per_call("storage.snapshot")
    out["storage.restore_ms"] = per_call("storage.restore")
    out["storage.wal_append_us"] = per_call("storage.wal_append", 1e-3)
    out["storage.fsync_ms"] = per_call("storage.fsync", pool=mine)
    commits = sum(1 for kind in kinds.values() if kind == "commit")
    fsyncs = len(named("storage.fsync", mine))
    out["storage.fsyncs_per_commit"] = (fsyncs / commits if commits else 0.0, commits)
    for outcome in ("commit", "rollback"):
        frames = [s for s in mine if s[3] == "storage.wal_frame" and kinds[s[2]] == outcome]
        txns = sum(1 for kind in kinds.values() if kind == outcome)
        out[f"storage.wal_bytes_{outcome}"] = (
            sum(s[6] for s in frames) / txns if txns else 0.0, txns)
    out["storage.recovered_records"] = (float(recovered_records), None)

    # the tracing itself
    out["trace.overhead_frac"] = (overhead_frac, ops)
    top_level: Dict[object, List[Tuple[int, int]]] = {}
    for span in mine:
        if span[1] is None:
            top_level.setdefault(span[2], []).append((span[4], span[5]))
    out["trace.unattributed_frac"] = (
        unattributed_share([(op, start, end) for op, start, end, _ in loop.ops], top_level),
        ops)

    units = {name: unit for name, unit, _ in METRICS}
    return {name: (float(value), units[name], samples)
            for name, (value, samples) in out.items()}
