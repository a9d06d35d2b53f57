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

Every *completed* answer is audited bit-identical against a fresh
in-process :class:`~repro.graph.snapshot.ScenarioSweep` after the
clock stops (``parity_ok``); a request that does not complete must
have resolved to a typed ``DeadlineExceeded``/``ServingUnavailable``
(counted), never a wrong answer and never a hang.  A parity failure
fails the run -- latency numbers for wrong answers are worthless.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_serving.py [--quick]

``--quick`` shrinks to a seconds-long smoke run (used by CI) and skips
the JSON write unless ``--output`` is passed explicitly.
"""

from __future__ import annotations

import argparse
import json
import platform
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


def _serve_once(spanner, n, m, chaos_rate, requests, workers):
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
    stats = report.stats
    row = {
        "n": n,
        "m": m,
        "workers": workers,
        "requests": report.requests,
        "completed": report.completed,
        "unavailable": report.unavailable,
        "rate_rps": RATE_RPS,
        "throughput_rps": round(report.throughput_rps, 2),
        "p50_ms": round(report.p50_ms, 3),
        "p99_ms": round(report.p99_ms, 3),
        "deadline_ms": DEADLINE_SECONDS * 1000.0,
        "chaos_rate": chaos_rate,
        "deadline_errors": report.deadline_errors,
        "retries": stats["retries"],
        "hedges": stats["hedges"],
        "worker_deaths": stats["worker_deaths"],
        "respawns": stats["respawns"],
        "degraded_shards": stats["degraded_shards"],
        "parity_ok": report.parity_ok,
    }
    print(
        f"  chaos={chaos_rate:4.0%}  {row['throughput_rps']:7.1f} rps  "
        f"p50 {row['p50_ms']:8.2f} ms  p99 {row['p99_ms']:8.2f} ms  "
        f"deadline_errors={row['deadline_errors']:2d}  "
        f"retries={row['retries']:2d}  hedges={row['hedges']:2d}  "
        f"respawns={row['respawns']:2d}  "
        f"parity={'ok' if row['parity_ok'] else 'FAIL'}"
    )
    return row


def run(quick: bool = False):
    n, p = QUICK_INSTANCE if quick else INSTANCE
    requests = QUICK_REQUESTS if quick else REQUESTS
    g = _instance(n, p)
    spanner = fault_tolerant_spanner(g, K, F, fault_model="vertex").spanner
    scenarios = {}
    name = "open_loop_healthy_vs_chaos"
    print(f"{name}: n={n} m={spanner.num_edges} "
          f"(spanner of a G({n}, {p}) instance, k={K}, f={F})")
    rows = [
        _serve_once(spanner, n, spanner.num_edges, rate, requests, 2)
        for rate in (0.0, 0.1)
    ]
    scenarios[name] = {
        "description": (
            "open-loop load (scheduled arrivals, latency measured from "
            "the schedule to dodge coordinated omission) against the "
            "multi-process serving pool on a shared-memory snapshot of "
            f"a (k={K}, f={F}) fault-tolerant spanner; the healthy row "
            "vs a 10% seeded injection of worker SIGKILLs and "
            "deadline-overrunning stalls"
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
        "repeats": 1,
        "timing": "open-loop wall clock, latency from scheduled arrival",
        "python": platform.python_version(),
        "scenarios": scenarios,
    }
    healthy, chaotic = rows
    if chaotic["throughput_rps"] > 0:
        report["chaos_throughput_retention"] = round(
            chaotic["throughput_rps"] / healthy["throughput_rps"], 3
        )
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
                        help="smoke run: tiny instance, few requests "
                             "(parity audit still applies)")
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
