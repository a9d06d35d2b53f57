"""Micro-benchmark: the CSR production path vs the dict reference.

Times five scenarios on the production CSR path and on the dict
reference implementations in ``tests/reference/`` (the ``dict`` columns),
checks output parity, and writes the results to ``BENCH_backend.json``
at the repository root so successive changes can track the CSR path's
performance trajectory:

* ``modified_greedy_unit`` -- ``fault_tolerant_spanner`` on unit-weight
  G(n, p) (the BFS/LBC hot path).
* ``classic_greedy_weighted`` -- the [ADD+93] baseline on weighted
  G(n, p) (one truncated Dijkstra per edge).
* ``exponential_greedy_weighted`` -- Algorithm 1 on a small weighted
  instance (the branch-and-bound Dijkstra search).
* ``verification_sweep`` -- exhaustive ``verify_ft_spanner`` of a
  weighted spanner (one Dijkstra per surviving edge per fault set).
* ``verify_bidir`` -- the same sweep on an *integral*-weighted instance
  with ``search="bidir"`` on the CSR side: every probe is a
  bidirectional Dijkstra meeting in the middle instead of a full
  forward search (identical report; the weighted-engine satellite of
  the snapshot substrate).

The CSR side of every scenario drives the unified public API
(``build_spanner`` / ``SpannerSession``), so this doubles as an
end-to-end check that registry dispatch adds no overhead and preserves
parity with the reference.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_backend.py [--quick]

``--quick`` shrinks every scenario to a seconds-long smoke run (used by
``scripts/verify.sh``); the JSON it writes is marked ``"quick": true``
so a full run's numbers are never silently overwritten by smoke ones
unless you ask for it.

This is a plain script (not a pytest benchmark) so it can run quickly in
CI and emit machine-readable output; the statistical benchmarks live in
``benchmarks/test_bench_*.py``.
"""

from __future__ import annotations

import argparse
import json
import platform
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
MODIFIED_INSTANCES = [(200, 0.10), (400, 0.05), (600, 0.04)]
CLASSIC_INSTANCES = [(300, 0.06), (500, 0.04)]
EXPONENTIAL_INSTANCES = [(24, 0.30), (30, 0.25)]
VERIFICATION_INSTANCES = [(50, 0.15), (70, 0.10)]
VERIFY_BIDIR_INSTANCES = [(50, 0.15), (70, 0.10)]

QUICK_MODIFIED = [(100, 0.12)]
QUICK_CLASSIC = [(120, 0.10)]
QUICK_EXPONENTIAL = [(12, 0.35)]
QUICK_VERIFICATION = [(30, 0.20)]
QUICK_VERIFY_BIDIR = [(30, 0.20)]

DEFAULT_OUTPUT = ROOT / "BENCH_backend.json"


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


def bench_modified_greedy(instances, repeats):
    rows = []
    for n, p in instances:
        g = generators.gnp_random_graph(n, p, seed=SEED)
        t_dict, r_dict = _best_of(
            lambda: ref.fault_tolerant_spanner(g, K, F), repeats
        )
        t_csr, r_csr = _best_of(
            lambda: build_spanner(g, "greedy", k=K, f=F), repeats
        )
        identical = set(r_dict.spanner.edges()) == set(r_csr.spanner.edges())
        rows.append(_row(n, p, g.num_edges, {
            "spanner_edges": r_csr.spanner.num_edges,
            "bfs_calls": r_csr.bfs_calls,
        }, t_dict, t_csr, identical))
    return {
        "description": "fault_tolerant_spanner, unit weights (BFS/LBC)",
        "parameters": {"k": K, "f": F, "fault_model": "vertex"},
        "instances": rows,
    }


def bench_classic_greedy(instances, repeats):
    rows = []
    for n, p in instances:
        g = generators.weighted_gnp(n, p, seed=SEED)
        t_dict, r_dict = _best_of(
            lambda: ref.classic_greedy_spanner(g, K), repeats
        )
        t_csr, r_csr = _best_of(
            lambda: build_spanner(g, "classic", k=K), repeats
        )
        identical = set(r_dict.spanner.edges()) == set(r_csr.spanner.edges())
        rows.append(_row(n, p, g.num_edges, {
            "spanner_edges": r_csr.spanner.num_edges,
        }, t_dict, t_csr, identical))
    return {
        "description": "classic_greedy_spanner, weighted (Dijkstra probes)",
        "parameters": {"k": K},
        "instances": rows,
    }


def bench_exponential_greedy(instances, repeats):
    rows = []
    f = 2
    for n, p in instances:
        g = generators.weighted_gnp(n, p, seed=SEED)
        t_dict, r_dict = _best_of(
            lambda: ref.exponential_greedy_spanner(g, K, f), repeats
        )
        t_csr, r_csr = _best_of(
            lambda: build_spanner(g, "exact-greedy", k=K, f=f), repeats
        )
        identical = (
            set(r_dict.spanner.edges()) == set(r_csr.spanner.edges())
            and r_dict.certificates == r_csr.certificates
        )
        rows.append(_row(n, p, g.num_edges, {
            "spanner_edges": r_csr.spanner.num_edges,
        }, t_dict, t_csr, identical))
    return {
        "description": "exponential_greedy_spanner, weighted "
                       "(branch-and-bound Dijkstra)",
        "parameters": {"k": K, "f": f, "fault_model": "vertex"},
        "instances": rows,
    }


def bench_verification(instances, repeats):
    rows = []
    f = 1
    t = 2 * K - 1
    for n, p in instances:
        g = generators.weighted_gnp(n, p, seed=SEED)
        prebuilt = build_spanner(g, "greedy", k=K, f=f)
        h = prebuilt.spanner

        def run():
            # A fresh session per run so the timing covers the CSR
            # freeze, exactly like the pre-session per-call behavior.
            session = SpannerSession(g, k=K, f=f)
            session.adopt(prebuilt)
            return session.verify(t=t)

        t_dict, r_dict = _best_of(
            lambda: ref.verify_ft_spanner(g, h, t=t, f=f), repeats
        )
        t_csr, r_csr = _best_of(run, repeats)
        identical = (
            r_dict.ok == r_csr.ok
            and r_dict.exhaustive == r_csr.exhaustive
            and r_dict.fault_sets_checked == r_csr.fault_sets_checked
            and r_dict.counterexample == r_csr.counterexample
        )
        rows.append(_row(n, p, g.num_edges, {
            "spanner_edges": h.num_edges,
            "fault_sets_checked": r_csr.fault_sets_checked,
        }, t_dict, t_csr, identical))
    return {
        "description": "verify_ft_spanner, weighted, exhaustive "
                       "(Dijkstra sweep per fault set)",
        "parameters": {"t": t, "f": f, "fault_model": "vertex"},
        "instances": rows,
    }


def bench_verify_bidir(instances, repeats):
    """Exhaustive verification on integral weights, bidir vs reference."""
    rows = []
    f = 1
    t = 2 * K - 1
    for n, p in instances:
        g = generators.with_random_weights(
            generators.gnp_random_graph(n, p, seed=SEED),
            low=1.0, high=10.0, seed=SEED, integral=True,
        )
        prebuilt = build_spanner(g, "greedy", k=K, f=f)
        h = prebuilt.spanner

        def run():
            # A fresh session per run so the timing covers the CSR
            # freeze, exactly like the pre-session per-call behavior.
            session = SpannerSession(g, k=K, f=f, search="bidir")
            session.adopt(prebuilt)
            return session.verify(t=t)

        t_dict, r_dict = _best_of(
            lambda: ref.verify_ft_spanner(g, h, t=t, f=f), repeats
        )
        t_csr, r_csr = _best_of(run, repeats)
        identical = (
            r_dict.ok == r_csr.ok
            and r_dict.exhaustive == r_csr.exhaustive
            and r_dict.fault_sets_checked == r_csr.fault_sets_checked
            and r_dict.counterexample == r_csr.counterexample
        )
        rows.append(_row(n, p, g.num_edges, {
            "spanner_edges": h.num_edges,
            "fault_sets_checked": r_csr.fault_sets_checked,
        }, t_dict, t_csr, identical))
    return {
        "description": "verify_ft_spanner, integral weights, exhaustive "
                       "(csr probes with search='bidir'; identical "
                       "report)",
        "parameters": {"t": t, "f": f, "fault_model": "vertex",
                       "search": "bidir"},
        "instances": rows,
    }


def run(repeats: int = 3, quick: bool = False, only: str = None):
    """Benchmark the scenarios (optionally filtered by name substring)."""
    if quick:
        plan = [
            ("modified_greedy_unit", bench_modified_greedy, QUICK_MODIFIED),
            ("classic_greedy_weighted", bench_classic_greedy, QUICK_CLASSIC),
            ("exponential_greedy_weighted", bench_exponential_greedy,
             QUICK_EXPONENTIAL),
            ("verification_sweep", bench_verification, QUICK_VERIFICATION),
            ("verify_bidir", bench_verify_bidir, QUICK_VERIFY_BIDIR),
        ]
        repeats = 1
    else:
        plan = [
            ("modified_greedy_unit", bench_modified_greedy,
             MODIFIED_INSTANCES),
            ("classic_greedy_weighted", bench_classic_greedy,
             CLASSIC_INSTANCES),
            ("exponential_greedy_weighted", bench_exponential_greedy,
             EXPONENTIAL_INSTANCES),
            ("verification_sweep", bench_verification,
             VERIFICATION_INSTANCES),
            ("verify_bidir", bench_verify_bidir, VERIFY_BIDIR_INSTANCES),
        ]
    if only:
        plan = [entry for entry in plan if only in entry[0]]
        if not plan:
            raise SystemExit(f"--only {only!r} matches no scenario")
    scenarios = {}
    for name, fn, instances in plan:
        print(f"{name}:")
        scenarios[name] = fn(instances, repeats)
    report = {
        "benchmark": "dict vs csr backend",
        "quick": quick,
        "seed": SEED,
        "repeats": repeats,
        "timing": "best-of-repeats",
        "python": platform.python_version(),
        "scenarios": scenarios,
    }
    # Scoped name: this tracks only the BFS/LBC hot-path scenario (the
    # headline trajectory since PR 1), not the Dijkstra scenarios.
    if "modified_greedy_unit" in scenarios:
        report["modified_greedy_largest_instance_speedup"] = (
            scenarios["modified_greedy_unit"]["instances"][-1]["speedup"]
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
                             "this substring (e.g. 'verify' for the "
                             "weighted-engine sweeps); a filtered run "
                             "never writes the JSON report")
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
