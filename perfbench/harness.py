"""Measure one workload: set-up, warm-up, the timed (and traced) drive,
the end-of-run checks, and the end-to-end and per-layer metrics."""

from __future__ import annotations

import bisect
import gc
import time
from typing import Dict, List, Optional, Tuple

from perfbench import hygiene, stats, tracing
from perfbench.loops import Record
from perfbench.workloads import (QUERY_KINDS, SERVING_SPANS, WRITE_KINDS,
                                 Context, Workload, base_kind)

MS = 1e3


class Outcome:
    """Everything one run produced."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.notes: List[str] = []
        self.e2e: Dict[str, float] = {}
        self.per_layer: Dict[str, float] = {}
        self.report: List[str] = []
        self.stamp: dict = {}
        #: Printed-only end-to-end figures: ``{name: (value, unit)}``.
        self.extras: Dict[str, Tuple[float, str]] = {}

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


#: Equal slices of a run whose completion rates ``throughput_ops`` takes
#: the median of, so a host hiccup in one slice does not move it.
THROUGHPUT_WINDOWS = 10


def windowed_rate(records: List[Record]) -> float:
    """Median over equal time slices of completed operations a second."""
    if not records:
        return 0.0
    start = min(r.sent for r in records)
    width = (max(r.done for r in records) - start) / THROUGHPUT_WINDOWS
    if width <= 0:
        return 0.0
    counts = [0] * THROUGHPUT_WINDOWS
    for r in records:
        counts[min(THROUGHPUT_WINDOWS - 1, int((r.done - start) / width))] += 1
    return stats.median(counts) / width


def _latencies(records: List[Record], kinds) -> List[float]:
    return [r.latency for r in records if base_kind(r.kind) in kinds]


def end_to_end(records: List[Record]) -> Dict[str, float]:
    """The figures BENCHMARK.json gates (besides set-up time and RSS)."""
    return {
        "query_p50_ms": stats.median(_latencies(records, QUERY_KINDS)) * MS,
        "write_p50_ms": stats.median(_latencies(records, WRITE_KINDS)) * MS,
    }


def printed(records: List[Record]) -> Dict[str, Tuple[float, str]]:
    """Figures printed but not gated, because on a 2-CPU host they move by
    more than any usable bound from one run to the next: the p99s by the
    percentile rule, with their sample counts, and the throughput, which
    every latency outlier lowers (ten-seed spreads up to 0.35 of the
    median where the p50s stayed within 0.25)."""
    out = {"throughput_ops": (windowed_rate(records), "1/s")}
    for label, kinds in (("query", QUERY_KINDS), ("write", WRITE_KINDS)):
        t = stats.tail(_latencies(records, kinds))
        out[f"{label}_p99_ms"] = (t.value * MS, "ms")
        out[f"{label}_p99_ms.percentile"] = (t.q, "pct")
        out[f"{label}_p99_ms.samples"] = (float(t.n), "count")
    return out


def measure(cls, ctx: Context) -> Outcome:
    out = Outcome()
    workload: Workload = cls(ctx)
    shm = hygiene.ShmWatch()
    workload.prepare()
    setup_times: List[float] = []
    system = None
    halted = False
    stats_before = stats_after = cache_before = cache_after = None
    router_before = router_after = None
    warm: List[Record] = []
    untraced: List[Record] = []
    traced: List[Record] = []
    try:
        ctx.probes(True)
        for i in range(workload.SETUPS):
            t0 = time.perf_counter()
            booted = workload.boot()
            t1 = time.perf_counter()
            ctx.setup_windows.append((t0, t1))
            setup_times.append(t1 - t0)
            if i < workload.SETUPS - 1:
                workload.halt(booted)
            else:
                system = booted
        workload.set_tracing(system, False)
        gc.freeze()
        warm = workload.warm(system)
        if ctx.trace:
            half = ctx.seconds / 2.0
            untraced, _ = workload.drive(system, half, False)
            stats_before = workload.server_stats(system)
            router_before = workload.router_stats(system)
            cache_before = workload.cache_stats(system)
            workload.set_tracing(system, True)
            ta = time.perf_counter()
            traced, _ = workload.drive(system, half, True)
            tb = time.perf_counter()
            workload.set_tracing(system, False)
            ctx.traced_window = (ta, tb)
            stats_after = workload.server_stats(system)
            router_after = workload.router_stats(system)
            cache_after = workload.cache_stats(system)
            records = untraced
        else:
            records, _ = workload.drive(system, ctx.seconds, False)
        out.problems += workload.check_live(system)
        out.stamp["plan"] = workload.plans(system)
        halted = True
        workload.halt(system)
    finally:
        ctx.probes(False)
        try:
            if system is not None and not halted:
                workload.halt(system)
        finally:
            if system is None or not halted:
                hygiene.kill_survivors(workload.processes())
    out.problems += workload.check_stopped(system)
    dumps = workload.worker_dumps(system)
    everything = warm + (untraced + traced if ctx.trace else records)
    out.attempted = len(everything)
    out.failed = sum(1 for r in everything if not r.ok)
    gated = workload.e2e_view(records)
    out.e2e = end_to_end(gated)
    out.e2e["setup_s"] = stats.median(setup_times)
    out.e2e["rss_mb"] = workload.rss_mb(system)
    out.report.append(
        "# setup_s samples: " + ", ".join(f"{t:.4f}" for t in setup_times))
    out.report += workload.extra_report()
    extras = printed(gated)
    extras["failed_frac"] = (out.failed / max(1, out.attempted), "ratio")
    disk = workload.disk_bytes_per_tx(system)
    if disk is not None:
        extras["disk_bytes_per_tx"] = (disk, "B/tx")
    if hasattr(workload, "sustained_rate"):
        extras["sustained_rate_ops"] = (workload.sustained_rate(), "1/s")
        out.report.append(f"# latency limit: p99 <= {workload.limit_ms:g} ms")
    out.extras = extras
    if ctx.trace:
        out.per_layer = layer_metrics(
            ctx, workload, untraced, traced, stats_before, stats_after,
            cache_before, cache_after, router_before, router_after, dumps)
        out.report += self_time_lines(ctx, dumps)
    out.notes = workload.notes
    out.problems += hygiene.leaked_children(workload.processes())
    hygiene.kill_survivors(workload.processes())
    out.problems += shm.close()
    return out


def self_time_lines(ctx: Context, dumps: List[dict]) -> List[str]:
    """Self time per span name over the traced window, largest first."""
    spans = list(ctx.recorder.spans)
    for dump in dumps:
        spans.extend(dump["spans"])
    totals = tracing.self_times(tracing.in_window(spans, [ctx.traced_window]))
    return [f"# self time {name}: {seconds * MS:.1f} ms"
            for name, seconds in sorted(totals.items(), key=lambda kv: -kv[1])
            if seconds > 0]


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
class _Index:
    """Spans of some names in one process, sorted by start time."""

    def __init__(self, spans, names, proc=None):
        chosen = sorted(
            (s[3], s[4]) for s in spans
            if s[2] in names and (proc is None or s[5] == proc))
        self.starts = [a for a, _ in chosen]
        self.spans = chosen
        self.longest = max((b - a for a, b in chosen), default=0.0)

    def inside(self, t0: float, t1: float) -> List[Tuple[float, float]]:
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        return [s for s in self.spans[lo:hi] if s[1] <= t1]

    def overlapping(self, t0: float, t1: float) -> List[Tuple[float, float]]:
        lo = bisect.bisect_left(self.starts, t0 - self.longest)
        hi = bisect.bisect_right(self.starts, t1)
        return [(max(a, t0), min(b, t1)) for a, b in self.spans[lo:hi]
                if b > t0 and a < t1]


def _delta(after: Optional[dict], before: Optional[dict], key: str) -> float:
    if not after or not before:
        return 0.0
    return float(after.get(key, 0) - before.get(key, 0))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(ctx, workload, untraced, traced, stats_before, stats_after,
                  cache_before, cache_after, router_before, router_after,
                  dumps) -> Dict[str, float]:
    spans = list(ctx.recorder.spans)
    for dump in dumps:
        spans.extend(dump["spans"])
    req = tracing.in_window(spans, [ctx.traced_window])
    setup = tracing.in_window(spans, ctx.setup_windows)

    def p50(name, pool=req):
        return stats.median(tracing.durations(pool, name)) * MS

    def p99(name):
        return stats.tail(tracing.durations(req, name)).value * MS

    def count(name, proc=None):
        return sum(1 for s in req if s[2] == name
                   and (proc is None or s[5] == proc))

    routed = [r for r in traced if not r.kind.startswith("direct.")]
    direct = [r for r in traced if r.kind.startswith("direct.")]
    http = [r for r in routed if base_kind(r.kind) in SERVING_SPANS]
    m: Dict[str, float] = {}
    m["net.connects_per_request"] = _ratio(count("net.connect", "bench"),
                                           len([r for r in traced
                                                if base_kind(r.kind)
                                                in SERVING_SPANS]))
    m["net.read_ms.p50"] = p50("net.read")
    m["net.write_ms.p50"] = p50("net.write")
    overheads = []
    indexes: Dict[tuple, _Index] = {}
    for r in http:
        kind = base_kind(r.kind)
        key = (kind, workload.proc_of(r))
        if key not in indexes:
            indexes[key] = _Index(req, SERVING_SPANS[kind], key[1])
        inside = indexes[key].inside(r.sent, r.done)
        if inside:
            overheads.append((r.done - r.sent) - stats.union_length(inside))
    m["net.overhead_ms.p50"] = stats.median(overheads) * MS

    server_spans = [s for s in req if s[2] in ("server.implies",
                                               "server.check")]
    m["server.span_ms.p50"] = stats.median(
        [s[4] - s[3] for s in server_spans]) * MS
    # queue wait and linger: the server span minus its compute (decider
    # calls for implies, the constraint's own evaluation for checks)
    waits = []
    decides: Dict[str, _Index] = {}
    for s in server_spans:
        if s[5] not in decides:
            decides[s[5]] = _Index(req, {"decider.decide", "check.eval"}, s[5])
        busy = stats.union_length(decides[s[5]].overlapping(s[3], s[4]))
        waits.append(s[4] - s[3] - busy)
    m["server.wait_ms.p50"] = stats.median(waits) * MS
    requests = _delta(stats_after, stats_before, "requests")
    m["server.batch_size.mean"] = _ratio(
        requests, _delta(stats_after, stats_before, "batches"))
    m["server.coalesced_ratio"] = _ratio(
        _delta(stats_after, stats_before, "coalesced"), requests)
    m["server.cache_hit_ratio"] = _ratio(
        _delta(stats_after, stats_before, "cache_hits"), requests)

    m["decider.decide_ms.p50"] = p50("decider.decide")
    m["decider.decide_ms.p99"] = p99("decider.decide")
    m["decider.calls"] = _ratio(count("decider.decide"), len(traced))
    hits = _delta(cache_after, cache_before, "hits")
    misses = _delta(cache_after, cache_before, "misses")
    for dump in dumps:
        hits += _delta(dump["extra"]["cache_exit"], dump["extra"]["cache_on"],
                       "hits")
        misses += _delta(dump["extra"]["cache_exit"],
                         dump["extra"]["cache_on"], "misses")
    m["decider.table_hit_ratio"] = _ratio(hits, hits + misses)

    m["stream.apply_ms.p50"] = p50("stream.apply")
    m["stream.apply_ms.p99"] = p99("stream.apply")
    m["stream.support_ms.p50"] = p50("stream.support")
    m["incremental.apply_batch_ms.p50"] = p50("incremental.apply_batch")
    batches = tracing.values(req, "incremental.apply_batch")
    m["incremental.deltas"] = _ratio(sum(batches), len(batches))
    m["backends.add_on_subsets_ms.p50"] = p50("backends.add_on_subsets")
    setups = max(1, len(ctx.setup_windows))
    butterflies = tracing.durations(setup, "backends.butterfly")
    m["backends.butterfly_calls"] = len(butterflies) / setups
    m["backends.butterfly_ms.total"] = sum(butterflies) * MS / setups

    txs = count("stream.apply")
    m["persist.append_ms.p50"] = p50("persist.append")
    m["persist.append_ms.p99"] = p99("persist.append")
    m["persist.syncs_per_tx"] = _ratio(count("persist.fsync"), txs)
    m["persist.snapshot_ms.max"] = max(
        tracing.durations(req, "persist.snapshot"), default=0.0) * MS
    m["persist.snapshots"] = _ratio(count("persist.snapshot") * 1000.0, txs)
    written = (sum(tracing.values(req, "persist.append"))
               + sum(tracing.values(req, "persist.snapshot")))
    m["persist.bytes_per_tx"] = _ratio(written, txs)

    if direct:
        m["fleet.overhead_ms.p50"] = (
            stats.median([r.done - r.sent for r in routed])
            - stats.median([r.done - r.sent for r in direct])) * MS
    else:
        m["fleet.overhead_ms.p50"] = 0.0
    m["fleet.upstream_connects_per_request"] = _ratio(
        count("fleet.upstream_connect", "bench"), len(routed)) if direct else 0.0
    m["fleet.throttled"] = _delta(router_after, router_before, "throttled")
    m["shipping.append_ms.p50"] = p50("shipping.append")
    m["plan.plan_ms"] = _ratio(
        sum(tracing.durations(setup, "plan.plan")) * MS,
        len(tracing.durations(setup, "plan.plan")))
    m["parallel.fanouts"] = float(count("parallel.fanouts"))
    m["bench.lag_p99_ms"] = stats.tail([r.lag for r in traced]).value * MS

    def service_p50(records):
        return stats.median([r.done - r.sent for r in records
                             if not r.kind.startswith("direct.")])

    m["bench.trace_overhead"] = _ratio(service_p50(traced),
                                       service_p50(untraced))
    return m
