"""Open-loop load generator with post-hoc parity auditing.

Drives a :class:`~repro.serving.dispatcher.SpannerServer` the way a
latency benchmark should: requests arrive on a fixed schedule (open
loop), so a slow or crashing server *accumulates* queueing delay
instead of silently slowing the generator down with it (the
coordinated-omission trap of closed-loop load generation).  Each
request's latency is measured from its **scheduled** arrival to its
completion.

Every request is one fault scenario (drawn by
:func:`repro.applications.availability.sample_fault_scenario`, so the
``fault_process=`` models -- independent, clustered, or cascade --
apply here too) plus a batch of distance pairs among the survivors.  The whole
workload is pre-generated from one seeded RNG before the clock starts,
which keeps it independent of the server's chaos draws.

After the run, every completed answer is audited against a fresh
in-process :class:`~repro.graph.snapshot.ScenarioSweep` over the same
snapshot: ``parity_ok`` asserts the serving layer returned
bit-identical distances even while workers were being killed under it.
Deadline and unavailability errors are *counted*, never hidden -- the
resilience contract is "right answer or typed error", and the report
shows both sides.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.applications.availability import sample_fault_scenario
from repro.graph.snapshot import ScenarioSweep
from repro.parallel.errors import DeadlineExceeded, ServingUnavailable

__all__ = ["LoadReport", "run_load"]


@dataclass
class LoadReport:
    """Outcome of one load-generation run.

    Attributes
    ----------
    requests / completed / deadline_errors / unavailable:
        Request counts by outcome (they sum to ``requests``).
    elapsed_seconds:
        Wall-clock span from first scheduled arrival to last completion.
    throughput_rps:
        Completed requests per second of elapsed time.
    p50_ms / p99_ms:
        Latency quantiles over *completed* requests, measured from each
        request's scheduled arrival (open loop: queueing delay counts).
    parity_ok:
        ``True`` iff every completed answer was bit-identical to the
        in-process :class:`~repro.graph.snapshot.ScenarioSweep` truth.
    stats:
        The server's resilience counters after the run
        (:meth:`~repro.serving.dispatcher.SpannerServer.stats_dict`).
    """

    requests: int
    completed: int
    deadline_errors: int
    unavailable: int
    elapsed_seconds: float
    throughput_rps: float
    p50_ms: float
    p99_ms: float
    parity_ok: bool
    stats: Dict[str, int] = field(default_factory=dict)


def _quantile(sorted_vals: List[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (0.0 when empty)."""
    if not sorted_vals:
        return 0.0
    return sorted_vals[min(len(sorted_vals) - 1, int(q * len(sorted_vals)))]


def run_load(
    server,
    *,
    requests: int,
    rate: Optional[float] = None,
    pairs_per_request: int = 8,
    failures: int = 1,
    fault_model: str = "vertex",
    fault_process: str = "independent",
    seed: int = 0,
    deadline: Optional[float] = None,
) -> LoadReport:
    """Drive ``server`` with a seeded stream of fault-scenario batches.

    ``rate`` is the open-loop arrival rate in requests/second; ``None``
    (or a non-positive value) issues requests back-to-back instead
    (closed loop -- useful for a pure throughput ceiling).  ``deadline``
    overrides the server's default per-request budget.  The workload is
    a pure function of ``seed`` and the snapshot.
    """
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    if pairs_per_request < 1:
        raise ValueError(
            f"pairs_per_request must be >= 1, got {pairs_per_request}"
        )
    snap = server.snapshot
    nodes = sorted(snap.indexer, key=repr)
    if len(nodes) < failures + 2:
        raise ValueError("snapshot too small for that many failures")
    csr = snap.csr
    index = snap.indexer.index
    label = snap.indexer.node

    def neighbors(u):
        return [label(j) for j in csr.neighbors[index(u)]]

    rng = random.Random(seed)
    workload: List[Tuple[List, List[Tuple]]] = []
    for _ in range(requests):
        faults = sample_fault_scenario(
            nodes, failures, rng, fault_process, neighbors=neighbors
        )
        survivors = [x for x in nodes if x not in faults]
        pairs = [
            tuple(rng.sample(survivors, 2))
            for _ in range(pairs_per_request)
        ]
        workload.append((sorted(faults, key=repr), pairs))

    interval = 1.0 / rate if rate and rate > 0 else 0.0
    latencies: List[float] = []
    answers: List[Optional[List[float]]] = []
    deadline_errors = 0
    unavailable = 0
    start = time.monotonic()
    for i, (faults, pairs) in enumerate(workload):
        scheduled = start + i * interval
        now = time.monotonic()
        if now < scheduled:
            time.sleep(scheduled - now)
        elif interval == 0.0:
            scheduled = now  # closed loop: latency is pure service time
        try:
            result = server.distances(
                pairs, faults, fault_model, deadline=deadline
            )
        except DeadlineExceeded:
            deadline_errors += 1
            answers.append(None)
            continue
        except ServingUnavailable:
            unavailable += 1
            answers.append(None)
            continue
        latencies.append(time.monotonic() - scheduled)
        answers.append(result)
    elapsed = max(time.monotonic() - start, 1e-9)

    # Post-hoc audit: every completed answer must be bit-identical to
    # the in-process sweep over the same frozen snapshot.
    truth = ScenarioSweep(snap, search=server.search)
    parity_ok = True
    for (faults, pairs), got in zip(workload, answers):
        if got is None:
            continue
        truth.stamp(faults, fault_model)
        expect = [truth.distance(u, v) for u, v in pairs]
        if got != expect:
            parity_ok = False
            break

    latencies.sort()
    completed = len(latencies)
    return LoadReport(
        requests=requests,
        completed=completed,
        deadline_errors=deadline_errors,
        unavailable=unavailable,
        elapsed_seconds=elapsed,
        throughput_rps=completed / elapsed,
        p50_ms=_quantile(latencies, 0.50) * 1e3,
        p99_ms=_quantile(latencies, 0.99) * 1e3,
        parity_ok=parity_ok,
        stats=server.stats_dict(),
    )
