"""Where a traced run times the library, and the per-layer metrics.

Each instrumentation point wraps a public function of one layer at the
name its caller looks it up by (for example ``lbc_vertex_csr`` in
``repro.core.greedy_modified``, where the greedy loop finds it).  Every
workload's traced run reports every metric below; a layer the
workload's ops never call reads 0.

Unless its unit says otherwise, a metric is per traced op: counts and
seconds summed over the traced ops, divided by their number.
"""

from __future__ import annotations

import statistics
from multiprocessing.reduction import ForkingPickler
from typing import Dict, List, Tuple

import repro.core.greedy_modified as greedy_modified
import repro.flow.dinitz as dinitz
import repro.verification.spanner_check as spanner_check
from repro import registry
from repro.lbc.approx import LBCAnswer
from repro.parallel.dispatch import Dispatcher
from repro.parallel.pool import WorkerPool
from repro.serving.dispatcher import SpannerServer
from repro.session import SpannerSession

#: (name, unit, what it is) for every per-layer metric, in report order.
METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("lbc.calls", "count/op", "lbc_vertex_csr/lbc_edge_csr calls from the greedy"),
    ("lbc.busy_s", "s/op", "time inside those calls"),
    ("lbc.yes_frac", "frac", "kept edges / LBC calls"),
    ("graph.bfs_calls", "count/op", "SpannerResult.bfs_calls"),
    ("core.self_s", "s/op", "greedy build_spanner time minus lbc.busy_s"),
    ("flow.max_flow_calls", "count/op", "DisjointPathNetwork.max_flow calls"),
    ("flow.max_flow_s", "s/op", "time in max_flow, arc bans included"),
    ("flow.decompose_s", "s/op", "time in decompose_paths"),
    ("graph.bfs_dist_s", "s/op", "csr_bfs_distances as spanner_check calls it"),
    ("graph.freezes", "count/op", "csr_freeze_count() change"),
    ("verification.self_s", "s/op", "SpannerSession.verify minus its flow and BFS children"),
    ("verification.witnessed_frac", "frac", "pairs_witnessed / pairs_checked"),
    ("serving.service_ms", "ms", "median time inside SpannerServer.distances"),
    ("serving.queue_ms", "ms", "mean latency from due time minus service time"),
    ("loadgen.late_ms", "ms", "mean lateness of the caller issuing a request"),
    ("graph.sweep_ms", "ms", "median time of the same request on an in-process ScenarioSweep"),
    ("serving.overhead_ms", "ms", "median of service time minus sweep time"),
    ("parallel.dispatch_s", "s/op", "time in Dispatcher.dispatch"),
    ("parallel.bytes_out", "B/op", "pickled job payloads of completed dispatches"),
    ("parallel.bytes_in", "B/op", "pickled job results of completed dispatches"),
    ("parallel.spawn_s", "s/op", "time in WorkerPool.spawn"),
    ("serving.retries", "count", "stats_dict() retries over the timed phase"),
    ("serving.respawns", "count", "stats_dict() respawns over the timed phase"),
    ("serving.deadline_errors", "count", "stats_dict() deadline_errors over the timed phase"),
    ("serving.degraded_shards", "count", "stats_dict() degraded_shards over the timed phase"),
    ("serving.retry_frac", "frac", "retries / shards over the timed phase"),
    ("parallel.pool_start_s", "s/op", "time in WorkerPool.start"),
    ("parallel.close_s", "s/op", "time in WorkerPool.close"),
    ("distributed.seq_s", "s/op", "the same op with workers=None"),
    ("parallel.efficiency", "frac", "distributed.seq_s / (2 x op time)"),
    ("distributed.instances", "count/op", "extra['instances_run']"),
    ("distributed.rounds", "count/op", "SpannerResult.rounds"),
    ("trace.op_p50_ms", "ms", "median latency of the traced ops"),
    ("trace.untraced_op_p50_ms", "ms", "median latency of the untraced ops of the same run"),
)


def _build_span(args, kwargs) -> str:
    algorithm = args[1] if len(args) > 1 else kwargs.get("algorithm", "greedy")
    return "core.build_spanner" if algorithm == "greedy" else "distributed.build_spanner"


def _on_build(tracer, result, args, kwargs) -> None:
    tracer.counters["graph.bfs_calls"] += result.bfs_calls
    tracer.counters["distributed.rounds"] += result.rounds or 0
    tracer.counters["distributed.instances"] += result.extra.get("instances_run", 0)


def _on_lbc(tracer, result, args, kwargs) -> None:
    tracer.counters["lbc.yes"] += result.answer is LBCAnswer.YES


def _on_verify(tracer, report, args, kwargs) -> None:
    tracer.counters["verification.pairs_checked"] += report.pairs_checked
    tracer.counters["verification.pairs_witnessed"] += report.pairs_witnessed


def _on_dispatch(tracer, _, args, kwargs) -> None:
    jobs = args[1] if len(args) > 1 else kwargs["jobs"]
    for job in jobs:
        tracer.counters["parallel.bytes_out"] += len(ForkingPickler.dumps(job.payload))
        tracer.counters["parallel.bytes_in"] += len(ForkingPickler.dumps(job.result))


def install(tracer) -> None:
    """Register every instrumentation point with ``tracer``."""
    tracer.patch(registry, "build_spanner", _build_span, _on_build)
    tracer.patch(greedy_modified, "lbc_vertex_csr", "lbc", _on_lbc)
    tracer.patch(greedy_modified, "lbc_edge_csr", "lbc", _on_lbc)
    tracer.patch(SpannerSession, "verify", "verification.verify", _on_verify)
    tracer.patch(dinitz.DisjointPathNetwork, "max_flow", "flow.max_flow")
    tracer.patch(dinitz, "decompose_paths", "flow.decompose_paths")
    tracer.patch(spanner_check, "csr_bfs_distances", "graph.csr_bfs_distances")
    tracer.patch(SpannerServer, "distances", "serving.distances")
    tracer.patch(Dispatcher, "dispatch", "parallel.dispatch", _on_dispatch)
    tracer.patch(WorkerPool, "spawn", "parallel.spawn")
    tracer.patch(WorkerPool, "start", "parallel.pool_start")
    tracer.patch(WorkerPool, "close", "parallel.close")


def _median_ms(values: List[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def _mean_ms(values: List[float]) -> float:
    return statistics.fmean(values) * 1e3 if values else 0.0


def metrics(tracer, timed) -> Dict[str, float]:
    """Every per-layer metric of one traced run, by name."""
    agg = tracer.aggregate()
    c = tracer.counters
    traced = [r for r in timed.records if r.traced]
    untraced = [r for r in timed.records if not r.traced]
    n = max(1, len(traced))

    def calls(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def busy(name):
        return agg.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return agg.get(name, (0, 0.0, 0.0))[2]

    lbc_calls = calls("lbc")
    checked = c["verification.pairs_checked"]
    served = [r for r in traced if "sweep" in r.extra]
    seq = sum(r.extra.get("seq", 0.0) for r in traced)
    op_time = sum(r.latency for r in traced)
    shards = timed.stats.get("shards", 0)
    out = {
        "lbc.calls": lbc_calls / n,
        "lbc.busy_s": busy("lbc") / n,
        "lbc.yes_frac": c["lbc.yes"] / lbc_calls if lbc_calls else 0.0,
        "graph.bfs_calls": c["graph.bfs_calls"] / n,
        "core.self_s": self_s("core.build_spanner") / n,
        "flow.max_flow_calls": calls("flow.max_flow") / n,
        "flow.max_flow_s": busy("flow.max_flow") / n,
        "flow.decompose_s": busy("flow.decompose_paths") / n,
        "graph.bfs_dist_s": busy("graph.csr_bfs_distances") / n,
        "graph.freezes": c["graph.freezes"] / n,
        "verification.self_s": self_s("verification.verify") / n,
        "verification.witnessed_frac": (
            c["verification.pairs_witnessed"] / checked if checked else 0.0
        ),
        "serving.service_ms": _median_ms(
            [r.extra["service"] for r in traced if "service" in r.extra]
        ),
        # Means, not medians: the queue behind a stall is in the tail.
        "serving.queue_ms": _mean_ms(
            [r.latency - r.extra["service"] for r in traced if "service" in r.extra]
        ),
        "loadgen.late_ms": _mean_ms([r.extra["late"] for r in traced if "late" in r.extra]),
        "graph.sweep_ms": _median_ms([r.extra["sweep"] for r in served]),
        "serving.overhead_ms": _median_ms(
            [r.extra["service"] - r.extra["sweep"] for r in served]
        ),
        "parallel.dispatch_s": busy("parallel.dispatch") / n,
        "parallel.bytes_out": c["parallel.bytes_out"] / n,
        "parallel.bytes_in": c["parallel.bytes_in"] / n,
        "parallel.spawn_s": busy("parallel.spawn") / n,
        "serving.retries": timed.stats.get("retries", 0),
        "serving.respawns": timed.stats.get("respawns", 0),
        "serving.deadline_errors": timed.stats.get("deadline_errors", 0),
        "serving.degraded_shards": timed.stats.get("degraded_shards", 0),
        "serving.retry_frac": timed.stats.get("retries", 0) / shards if shards else 0.0,
        "parallel.pool_start_s": busy("parallel.pool_start") / n,
        "parallel.close_s": busy("parallel.close") / n,
        "distributed.seq_s": seq / n,
        "parallel.efficiency": seq / (2 * op_time) if seq and op_time else 0.0,
        "distributed.instances": c["distributed.instances"] / n,
        "distributed.rounds": c["distributed.rounds"] / n,
        "trace.op_p50_ms": _median_ms([r.latency for r in traced]),
        "trace.untraced_op_p50_ms": _median_ms([r.latency for r in untraced]),
    }
    return {name: out[name] for name, _, _ in METRICS}
