"""Load-test benchmark: the resilient serving core, healthy vs chaos.

Serves fault-scenario distance queries for a precomputed
fault-tolerant spanner through :class:`repro.serving.SpannerServer`
(multi-process workers adopting one shared-memory snapshot) and drives
it with the open-loop generator in :mod:`repro.serving.loadgen`:
arrivals are *scheduled* at a fixed rate and each request's latency is
measured from its scheduled arrival, so a slow server inflates the
recorded tail instead of silently back-pressuring the workload
(coordinated omission).  Results go to ``BENCH_serving.json`` at the
repository root.

Two rows per scenario, same workload seed:

* ``chaos_rate = 0.0`` -- the healthy baseline (throughput, p50/p99);
* ``chaos_rate = 0.1`` -- every shard send has a 10% chance of a
  seeded fault injection (worker SIGKILL mid-request or a stall that
  overruns the request deadline), exercising retry-with-backoff,
  hedging of stalled shards, health-checked respawn, and deadline
  enforcement under load.

The two rows run five times, interleaved, each on a fresh server.  A row reports the median and ``[q1, q3]`` (``*_iqr``)
of throughput, p50 and p99 over its repeats, the median of each
counter, and ``p50_vs_deadline`` -- ``under``, ``over`` or
``straddles`` as the p50 spread sits against the deadline.  The report
records ``cpus`` and ``chaos_throughput_retention`` (chaos over healthy
median throughput) with its range ``[chaos_q1 / healthy_q3, chaos_q3 /
healthy_q1]``.

Every *completed* answer is audited bit-identical against a fresh
in-process :class:`~repro.graph.snapshot.ScenarioSweep` after the
clock stops (``parity_ok``); a request that does not complete must
have resolved to a typed ``DeadlineExceeded``/``ServingUnavailable``
(counted), never a wrong answer and never a hang.  A parity failure
fails the run -- latency numbers for wrong answers are worthless.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_serving.py [--quick]

``--quick`` shrinks to a seconds-long smoke run of one repeat (used by
CI) and skips the JSON write unless ``--output`` is passed explicitly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
from pathlib import Path

from repro.core.greedy_modified import fault_tolerant_spanner
from repro.graph import generators
from repro.serving import ChaosPolicy, ServingConfig, SpannerServer, run_load

SEED = 42
K = 2
F = 2

INSTANCE = (120, 0.08)
QUICK_INSTANCE = (40, 0.2)
REQUESTS = 150
QUICK_REQUESTS = 20
# Interleaved healthy/chaos repeats behind each row's median and IQR.
REPEATS = 5
QUICK_REPEATS = 1
RATE_RPS = 100.0
DEADLINE_SECONDS = 1.0

# 10% total injection rate: mostly SIGKILLs (retried transparently),
# a few stalls long enough to overrun the request deadline (hedged to
# the idle worker at a quarter of the deadline; a typed
# DeadlineExceeded only when no copy answers in time).
CHAOS_KILL_RATE = 0.08
CHAOS_STALL_RATE = 0.02
CHAOS_STALL_SECONDS = 2.0

DEFAULT_OUTPUT = (
    Path(__file__).resolve().parent.parent / "BENCH_serving.json"
)


def _instance(n, p):
    return generators.ensure_connected(
        generators.gnp_random_graph(n, p, seed=SEED), seed=SEED
    )


def _serve_once(spanner, chaos_rate, requests, workers):
    """One open-loop run on a fresh server: its LoadReport."""
    chaos = None
    if chaos_rate > 0:
        chaos = ChaosPolicy(
            SEED,
            kill_rate=CHAOS_KILL_RATE,
            stall_rate=CHAOS_STALL_RATE,
            stall_seconds=CHAOS_STALL_SECONDS,
        )
    config = ServingConfig(
        workers=workers,
        deadline=DEADLINE_SECONDS,
        backoff_base=0.01,
        backoff_cap=0.05,
    )
    with SpannerServer(spanner, config=config, chaos=chaos) as server:
        report = run_load(
            server,
            requests=requests,
            rate=RATE_RPS,
            pairs_per_request=8,
            failures=F,
            seed=SEED,
        )
    print(
        f"  chaos={chaos_rate:4.0%}  {report.throughput_rps:7.1f} rps  "
        f"p50 {report.p50_ms:8.2f} ms  p99 {report.p99_ms:8.2f} ms  "
        f"deadline_errors={report.deadline_errors:2d}  "
        f"retries={report.stats['retries']:2d}  "
        f"hedges={report.stats['hedges']:2d}  "
        f"respawns={report.stats['respawns']:2d}  "
        f"parity={'ok' if report.parity_ok else 'FAIL'}"
    )
    return report


def _quartiles(values, digits):
    """(first quartile, median, third quartile), rounded to ``digits``."""
    if len(values) == 1:
        q = (values[0],) * 3
    else:
        q = statistics.quantiles(values, n=4, method="inclusive")
    return tuple(round(x, digits) for x in q)


def _p50_vs_deadline(p50_iqr, deadline_ms):
    """Where the p50 spread sits against the deadline: a label, not a
    gate (the chaos row's p50 is over it until serving stops blocking
    behind stalls)."""
    q1, q3 = p50_iqr
    if q3 <= deadline_ms:
        return "under"
    if q1 > deadline_ms:
        return "over"
    return "straddles"


def _row(reports, n, m, chaos_rate, requests, workers):
    """One row: the median and ``[q1, q3]`` of each repeat's latency
    and throughput, the median (low) of each counter."""
    row = {"n": n, "m": m, "workers": workers, "requests": requests}
    for key in ("completed", "unavailable"):
        row[key] = statistics.median_low(getattr(r, key) for r in reports)
    row["rate_rps"] = RATE_RPS
    for key, digits in (("throughput_rps", 2), ("p50_ms", 3),
                        ("p99_ms", 3)):
        q1, med, q3 = _quartiles([getattr(r, key) for r in reports], digits)
        row[key] = med
        row[f"{key}_iqr"] = [q1, q3]
    row["deadline_ms"] = DEADLINE_SECONDS * 1000.0
    row["p50_vs_deadline"] = _p50_vs_deadline(
        row["p50_ms_iqr"], row["deadline_ms"]
    )
    row["chaos_rate"] = chaos_rate
    row["deadline_errors"] = statistics.median_low(
        r.deadline_errors for r in reports
    )
    for key in ("retries", "hedges", "worker_deaths", "respawns",
                "degraded_shards"):
        row[key] = statistics.median_low(r.stats[key] for r in reports)
    row["parity_ok"] = all(r.parity_ok for r in reports)
    return row


def run(quick: bool = False):
    n, p = QUICK_INSTANCE if quick else INSTANCE
    requests = QUICK_REQUESTS if quick else REQUESTS
    repeats = QUICK_REPEATS if quick else REPEATS
    g = _instance(n, p)
    spanner = fault_tolerant_spanner(g, K, F, fault_model="vertex").spanner
    m = spanner.num_edges
    rates = (0.0, 0.1)
    scenarios = {}
    name = "open_loop_healthy_vs_chaos"
    print(f"{name}: n={n} m={m} "
          f"(spanner of a G({n}, {p}) instance, k={K}, f={F}), "
          f"{repeats} interleaved repeat(s)")
    runs = {rate: [] for rate in rates}
    for _ in range(repeats):
        for rate in rates:
            runs[rate].append(_serve_once(spanner, rate, requests, 2))
    rows = [_row(runs[rate], n, m, rate, requests, 2) for rate in rates]
    scenarios[name] = {
        "description": (
            "open-loop load (scheduled arrivals, latency measured from "
            "the schedule to dodge coordinated omission) against the "
            "multi-process serving pool on a shared-memory snapshot of "
            f"a (k={K}, f={F}) fault-tolerant spanner; the healthy row "
            "vs a 10% seeded injection of worker SIGKILLs and "
            "deadline-overrunning stalls; each row is the median and "
            "[q1, q3] over interleaved repeats"
        ),
        "parameters": {
            "k": K, "f": F, "p": p, "rate_rps": RATE_RPS,
            "pairs_per_request": 8, "deadline_seconds": DEADLINE_SECONDS,
            "kill_rate": CHAOS_KILL_RATE, "stall_rate": CHAOS_STALL_RATE,
            "stall_seconds": CHAOS_STALL_SECONDS,
        },
        "instances": rows,
    }
    report = {
        "benchmark": "resilient serving core, open-loop load test",
        "quick": quick,
        "seed": SEED,
        "repeats": repeats,
        "timing": "open-loop wall clock, latency from scheduled arrival; "
                  "median-of-interleaved-repeats",
        "python": platform.python_version(),
        "cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1),
        "scenarios": scenarios,
    }
    # From the rounded row values, so the committed JSON is
    # self-consistent for scripts/check_bench_json.py.
    healthy, chaotic = rows
    h_q1, h_q3 = healthy["throughput_rps_iqr"]
    c_q1, c_q3 = chaotic["throughput_rps_iqr"]
    report["chaos_throughput_retention"] = round(
        chaotic["throughput_rps"] / healthy["throughput_rps"], 3
    )
    report["chaos_throughput_retention_iqr"] = [
        round(c_q1 / h_q3, 3), round(c_q3 / h_q1, 3),
    ]
    return report


def _all_parity_ok(report) -> bool:
    return all(
        row["parity_ok"]
        for scenario in report["scenarios"].values()
        for row in scenario["instances"]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"where to write the JSON report "
                             f"(default: {DEFAULT_OUTPUT})")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: tiny instance, few requests, "
                             "one repeat (parity audit still applies)")
    args = parser.parse_args(argv)
    report = run(quick=args.quick)
    if args.quick and args.output == DEFAULT_OUTPUT:
        print("quick run: skipping JSON write (pass --output to force)")
    else:
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"report written to {args.output}")
    if not _all_parity_ok(report):
        print("ERROR: a served answer diverged from the in-process sweep")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
