"""Micro-benchmark: the CSR applications layer vs the dict reference.

Times the three spanner applications on the production CSR path and on
the dict reference implementations in ``tests/reference/`` (the
``dict`` columns), checks that the answers are bit-identical, and
writes the results to ``BENCH_applications.json`` at the repository
root so successive changes can track the layer's performance
trajectory:

* ``oracle_batch`` -- the monitoring pattern on a unit-weight spanner:
  a few fault scenarios, many distance queries per scenario.  The dict
  side answers pair by pair through ``distance()`` (per-query path, LRU
  warm); the CSR side uses the batch ``distances()`` API against one
  shared :class:`~repro.graph.snapshot.CSRSnapshot`.
* ``oracle_batch_weighted`` -- the same pattern on a weighted spanner
  (CSR Dijkstra instead of the BFS fast path).
* ``weighted_oracle_bucket`` -- the weighted pattern on an *integral*-
  weighted spanner, where the engine policy makes every cache-missed
  single-source run a Dial bucket-queue sweep instead of a binary heap
  (identical answers).
* ``oracle_batch_multi`` -- the unit monitoring pattern on larger
  instances: the CSR side answers each scenario's query batch with the
  multi-source frontier kernels (one SSSP per *distinct* source, many
  roots per frontier pass, numpy planes when available) against the
  dict side's per-query ``distance()`` loop.
* ``routing_tables`` -- per-fault-scenario next-hop table builds for
  many destinations (destination-rooted trees on the faulted spanner).
* ``routing_tables_multi`` -- the same table builds through the batched
  ``tables()`` API: all destination-rooted trees of a scenario ride one
  multi-source pass, vs the dict side's one ``table()`` call per
  destination.
* ``availability_sweep`` -- Monte-Carlo availability analysis of a
  weighted spanner (paired distance probes over sampled scenarios).

The CSR side of every scenario drives the unified public API: a fresh
:class:`~repro.session.SpannerSession` per timed run (so the timing
still covers the one-off CSR freeze, exactly like the pre-session
per-call behavior), with the oracle/router/availability consumers
sharing that session's snapshot.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_applications.py [--quick]

``--quick`` shrinks every scenario to a seconds-long smoke run (used by
CI); the JSON it writes is marked ``"quick": true`` so a full run's
numbers are never silently overwritten by smoke ones unless you ask for
it.

This is a plain script (not a pytest benchmark) so it can run quickly in
CI and emit machine-readable output; the statistical benchmarks live in
``benchmarks/test_bench_*.py``.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from pathlib import Path

from repro.graph import generators
from repro.registry import build_spanner
from repro.session import SpannerSession

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))  # the dict reference lives in tests/

from tests import reference as ref  # noqa: E402

SEED = 42
K = 2
F = 2

# (n, p) per instance, smallest to largest; seeds are fixed so the
# numbers are comparable across PRs.
ORACLE_INSTANCES = [(240, 0.06), (420, 0.035)]
ORACLE_WEIGHTED_INSTANCES = [(200, 0.06)]
ORACLE_BUCKET_INSTANCES = [(200, 0.06)]
ORACLE_MULTI_INSTANCES = [(240, 0.06), (420, 0.035)]
ROUTING_INSTANCES = [(180, 0.07)]
ROUTING_MULTI_INSTANCES = [(800, 0.02)]
AVAILABILITY_INSTANCES = [(110, 0.09)]

QUICK_ORACLE = [(100, 0.10)]
QUICK_ORACLE_WEIGHTED = [(80, 0.12)]
QUICK_ORACLE_BUCKET = [(80, 0.12)]
QUICK_ORACLE_MULTI = [(100, 0.10)]
QUICK_ROUTING = [(70, 0.12)]
QUICK_ROUTING_MULTI = [(70, 0.12)]
QUICK_AVAILABILITY = [(50, 0.15)]

ORACLE_SCENARIOS = 3
ORACLE_PAIRS = 500
QUICK_ORACLE_PAIRS = 120
ROUTING_SCENARIOS = 3
ROUTING_DESTS = 40
# The batched scenario routes *every* surviving node: one multi-source
# pass per fault scenario builds the full table set, which is where the
# frontier-vectorized kernel earns its keep.
ROUTING_MULTI_DESTS = 800
QUICK_ROUTING_DESTS = 12
AVAIL_SCENARIOS = 25
AVAIL_PAIRS = 25
QUICK_AVAIL_SCENARIOS = 8
QUICK_AVAIL_PAIRS = 8

DEFAULT_OUTPUT = (
    Path(__file__).resolve().parent.parent / "BENCH_applications.json"
)


def _best_of(fn, repeats: int):
    """Best-of-``repeats`` wall clock and the result of the last run."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _row(n, p, m, extra, t_dict, t_csr, identical):
    row = {
        "n": n,
        "p": p,
        "m": m,
        **extra,
        "seconds_dict": round(t_dict, 4),
        "seconds_csr": round(t_csr, 4),
        "speedup": round(t_dict / t_csr, 2) if t_csr > 0 else float("inf"),
        "identical_outputs": identical,
    }
    print(
        f"  n={n:4d} m={m:5d}  dict {t_dict:7.3f}s  csr {t_csr:7.3f}s  "
        f"speedup {row['speedup']:5.2f}x  "
        f"parity={'ok' if identical else 'FAIL'}"
    )
    return row


def _instance(n, p, weights):
    """A connected instance: ``weights`` is 'unit', 'float' or 'int'."""
    g = generators.gnp_random_graph(n, p, seed=SEED)
    if weights == "float":
        g = generators.with_random_weights(g, seed=SEED)
    elif weights == "int":
        g = generators.with_random_weights(
            g, low=1.0, high=10.0, seed=SEED, integral=True
        )
    return generators.ensure_connected(g, seed=SEED)


def _vertex_scenarios(nodes, count, rng):
    """``count`` random vertex fault sets of size F (plus fault-free)."""
    return [[]] + [rng.sample(nodes, F) for _ in range(count - 1)]


def _surviving_pairs(nodes, scenarios, count, rng):
    """Query pairs whose endpoints survive *every* scenario."""
    faulted = set()
    for sc in scenarios:
        faulted.update(sc)
    pool = [x for x in nodes if x not in faulted]
    return [tuple(rng.sample(pool, 2)) for _ in range(count)]


def bench_oracle_batch(instances, repeats, pairs_per_scenario, weights):
    rows = []
    for n, p in instances:
        g = _instance(n, p, weights)
        prebuilt = build_spanner(g, "greedy", k=K, f=F)
        rng = random.Random(SEED)
        nodes = sorted(g.nodes())
        scenarios = _vertex_scenarios(nodes, ORACLE_SCENARIOS, rng)
        pairs = _surviving_pairs(nodes, scenarios, pairs_per_scenario, rng)

        def run(csr, batch):
            # A fresh oracle per run so the timing covers real cache
            # misses (and, for CSR, the one-off snapshot build).
            if csr:
                session = SpannerSession(g, k=K, f=F)
                session.adopt(prebuilt)
                oracle = session.oracle(cache_size=2 * n)
            else:
                oracle = ref.FaultTolerantDistanceOracle(
                    g, K, F, cache_size=2 * n, prebuilt=prebuilt
                )
            answers = []
            for faults in scenarios:
                if batch:
                    answers.append(oracle.distances(pairs, faults=faults))
                else:
                    answers.append(
                        [oracle.distance(u, v, faults=faults)
                         for u, v in pairs]
                    )
            return answers

        t_dict, a_dict = _best_of(lambda: run(False, batch=False), repeats)
        t_csr, a_csr = _best_of(lambda: run(True, batch=True), repeats)
        rows.append(_row(n, p, g.num_edges, {
            "spanner_edges": prebuilt.spanner.num_edges,
            "scenarios": len(scenarios),
            "pairs_per_scenario": len(pairs),
        }, t_dict, t_csr, a_dict == a_csr))
    return {
        "description": (
            f"FaultTolerantDistanceOracle, {weights}-weight spanner: "
            f"batched distances() on one CSR snapshot vs "
            f"per-query dict distance()"
        ),
        "parameters": {"k": K, "f": F, "fault_model": "vertex",
                       "weights": weights},
        "instances": rows,
    }


def bench_routing_tables(instances, repeats, dests_per_scenario,
                         batch=False):
    rows = []
    for n, p in instances:
        g = _instance(n, p, weights="unit")
        prebuilt = build_spanner(g, "greedy", k=K, f=F)
        rng = random.Random(SEED)
        nodes = sorted(g.nodes())
        scenarios = _vertex_scenarios(nodes, ROUTING_SCENARIOS, rng)
        faulted = set()
        for sc in scenarios:
            faulted.update(sc)
        dests = [x for x in nodes if x not in faulted][:dests_per_scenario]

        def run(csr, use_batch):
            if csr:
                session = SpannerSession(g, k=K, f=F)
                session.adopt(prebuilt)
                router = session.router()
            else:
                router = ref.SpannerRouter(g, K, F, prebuilt=prebuilt)
            if use_batch:
                # One multi-source pass per scenario builds every
                # destination-rooted tree at once.
                return [
                    router.tables(dests, faults=faults)
                    for faults in scenarios
                ]
            return [
                {d: router.table(d, faults=faults) for d in dests}
                for faults in scenarios
            ]

        t_dict, tables_dict = _best_of(
            lambda: run(False, use_batch=False), repeats)
        t_csr, tables_csr = _best_of(
            lambda: run(True, use_batch=batch), repeats)
        rows.append(_row(n, p, g.num_edges, {
            "spanner_edges": prebuilt.spanner.num_edges,
            "scenarios": len(scenarios),
            "destinations": len(dests),
        }, t_dict, t_csr, tables_dict == tables_csr))
    api = "batched tables()" if batch else "per-destination table()"
    return {
        "description": f"SpannerRouter: per-scenario next-hop table builds "
                       f"(destination-rooted trees on the faulted spanner; "
                       f"csr side uses {api})",
        "parameters": {"k": K, "f": F, "fault_model": "vertex",
                       "weights": "unit"},
        "instances": rows,
    }


def bench_availability(instances, repeats, scenarios, pairs):
    rows = []
    for n, p in instances:
        g = _instance(n, p, weights="float")
        prebuilt = build_spanner(g, "greedy", k=K, f=F)

        def run():
            session = SpannerSession(g, k=K, f=F, seed=SEED)
            session.adopt(prebuilt)
            return session.availability(
                failures=F, scenarios=scenarios, pairs_per_scenario=pairs,
            )

        t_dict, r_dict = _best_of(
            lambda: ref.availability_analysis(
                g, prebuilt.spanner, failures=F, guarantee=2 * K - 1,
                scenarios=scenarios, pairs_per_scenario=pairs, seed=SEED,
            ),
            repeats,
        )
        t_csr, r_csr = _best_of(run, repeats)
        rows.append(_row(n, p, g.num_edges, {
            "spanner_edges": prebuilt.spanner.num_edges,
            "scenarios": scenarios,
            "pairs_per_scenario": pairs,
        }, t_dict, t_csr, r_dict == r_csr))
    return {
        "description": "availability_analysis, weighted: Monte-Carlo "
                       "stretch/connectivity sweep (paired distance probes)",
        "parameters": {"k": K, "f": F, "failures": F},
        "instances": rows,
    }


def run(repeats: int = 3, quick: bool = False, only: str = None):
    """Benchmark the scenarios (optionally filtered by name substring)."""
    if quick:
        repeats = 1
        plan = [
            ("oracle_batch", lambda: bench_oracle_batch(
                QUICK_ORACLE, repeats, QUICK_ORACLE_PAIRS, weights="unit")),
            ("oracle_batch_weighted", lambda: bench_oracle_batch(
                QUICK_ORACLE_WEIGHTED, repeats, QUICK_ORACLE_PAIRS,
                weights="float")),
            ("weighted_oracle_bucket", lambda: bench_oracle_batch(
                QUICK_ORACLE_BUCKET, repeats, QUICK_ORACLE_PAIRS,
                weights="int")),
            ("oracle_batch_multi", lambda: bench_oracle_batch(
                QUICK_ORACLE_MULTI, repeats, QUICK_ORACLE_PAIRS,
                weights="unit")),
            ("routing_tables", lambda: bench_routing_tables(
                QUICK_ROUTING, repeats, QUICK_ROUTING_DESTS)),
            ("routing_tables_multi", lambda: bench_routing_tables(
                QUICK_ROUTING_MULTI, repeats, QUICK_ROUTING_DESTS,
                batch=True)),
            ("availability_sweep", lambda: bench_availability(
                QUICK_AVAILABILITY, repeats, QUICK_AVAIL_SCENARIOS,
                QUICK_AVAIL_PAIRS)),
        ]
    else:
        plan = [
            ("oracle_batch", lambda: bench_oracle_batch(
                ORACLE_INSTANCES, repeats, ORACLE_PAIRS, weights="unit")),
            ("oracle_batch_weighted", lambda: bench_oracle_batch(
                ORACLE_WEIGHTED_INSTANCES, repeats, ORACLE_PAIRS,
                weights="float")),
            ("weighted_oracle_bucket", lambda: bench_oracle_batch(
                ORACLE_BUCKET_INSTANCES, repeats, ORACLE_PAIRS,
                weights="int")),
            ("oracle_batch_multi", lambda: bench_oracle_batch(
                ORACLE_MULTI_INSTANCES, max(repeats, 3), ORACLE_PAIRS,
                weights="unit")),
            ("routing_tables", lambda: bench_routing_tables(
                ROUTING_INSTANCES, repeats, ROUTING_DESTS)),
            ("routing_tables_multi", lambda: bench_routing_tables(
                ROUTING_MULTI_INSTANCES, max(repeats, 3), ROUTING_MULTI_DESTS,
                batch=True)),
            ("availability_sweep", lambda: bench_availability(
                AVAILABILITY_INSTANCES, repeats, AVAIL_SCENARIOS,
                AVAIL_PAIRS)),
        ]
    if only:
        plan = [entry for entry in plan if only in entry[0]]
        if not plan:
            raise SystemExit(f"--only {only!r} matches no scenario")
    scenarios = {}
    for name, fn in plan:
        print(f"{name}:")
        scenarios[name] = fn()
    report = {
        "benchmark": "dict vs csr backend, applications layer",
        "quick": quick,
        "seed": SEED,
        "repeats": repeats,
        "timing": "best-of-repeats",
        "python": platform.python_version(),
        "scenarios": scenarios,
    }
    # Headline trajectory: the batched oracle on the largest instance.
    if "oracle_batch" in scenarios:
        report["batched_oracle_speedup"] = (
            scenarios["oracle_batch"]["instances"][-1]["speedup"]
        )
    return report


def _all_parity_ok(report) -> bool:
    return all(
        row["identical_outputs"]
        for scenario in report["scenarios"].values()
        for row in scenario["instances"]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"where to write the JSON report "
                             f"(default: {DEFAULT_OUTPUT})")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions per side (default 3)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: tiny instances, one repeat "
                             "(parity checks still apply)")
    parser.add_argument("--only", default=None, metavar="SUBSTR",
                        help="run only scenarios whose name contains "
                             "this substring (e.g. 'bucket'); a "
                             "filtered run never writes the JSON report")
    args = parser.parse_args(argv)
    report = run(repeats=args.repeats, quick=args.quick, only=args.only)
    if args.only:
        print("filtered run: skipping JSON write")
    elif args.quick and args.output == DEFAULT_OUTPUT:
        print("quick run: skipping JSON write (pass --output to force)")
    else:
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"report written to {args.output}")
    if not _all_parity_ok(report):
        print("ERROR: parity with the dict reference violated")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
