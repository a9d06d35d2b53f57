"""Micro-benchmark: parallel CONGEST execution vs the sequential simulator.

Runs the Theorem 15 fault-tolerant construction
(:func:`congest_ft_spanner`) twice -- sequentially (``workers=None``) and
with its N Baswana-Sen instances sharded over the shared parallel
substrate (:mod:`repro.parallel`) -- and checks the outputs are
bit-identical before recording any timing, writing the results to
``BENCH_distributed.json`` at the repository root.

* ``instances_congest_ft`` -- the instances are the embarrassingly
  parallel axis: ``workers=W`` shards them into one contiguous slice
  per worker process.  This scenario carries the headline
  ``parallel_speedup_at_max_n``.

``parity_ok`` records that the parallel run produced the bit-identical
spanner, round count, and measured extras as the sequential simulator --
the substrate's one correctness contract, asserted per row (a parity
failure fails the run).  The *speedup* is a measurement, not an
assertion: it depends on the CPUs actually available (recorded top-level
as ``cpus``).  On a single-core runner the parallel path cannot beat
sequential wall-clock for CPU-bound rounds; the report then records the
substrate's overhead honestly instead of a speedup.

Each row times ``--repeats`` (default 5) interleaved sequential/parallel
pairs and reports each mode's median with its interquartile range
(``*_iqr``: the first and third quartiles), so a row that moves with
host noise shows its spread instead of one lucky best time.  The
speedup is the ratio of the two medians; a row whose speedup range
``[seq_q1 / par_q3, seq_q3 / par_q1]`` contains 1.0 is labelled
``"within_noise": true``, since its spread cannot tell a speedup from a
slowdown.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_distributed.py [--quick]

``--quick`` shrinks to a seconds-long smoke run (used by CI); the JSON
it writes is marked ``"quick": true`` so a full run's numbers are never
silently overwritten by smoke ones unless you ask for it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time
from pathlib import Path

from repro.distributed import congest_ft_spanner
from repro.graph import generators

SEED = 42
RUN_SEED = 7
WORKERS = 2

# (n, p) rows; the largest n is the headline trajectory.
FT_INSTANCES = [(400, 0.025), (900, 0.012), (1400, 0.008)]
FT_QUICK = [(120, 0.08)]

DEFAULT_OUTPUT = (
    Path(__file__).resolve().parent.parent / "BENCH_distributed.json"
)


def _instance(n, p):
    return generators.ensure_connected(
        generators.gnp_random_graph(n, p, seed=SEED), seed=SEED
    )


def _fingerprint(result):
    """Everything observable about a SpannerResult, comparably."""
    return (
        sorted((repr(u), repr(v)) for u, v in result.spanner.edges()),
        result.rounds,
        sorted((result.extra or {}).items()),
    )


def _time_pair(run_sequential, run_parallel, repeats):
    """``repeats`` timings of both modes, alternating seq/par so
    machine noise lands on both sides evenly."""
    t_seq, t_par = [], []
    r_seq = r_par = None
    for _ in range(repeats):
        start = time.perf_counter()
        r_seq = run_sequential()
        t_seq.append(time.perf_counter() - start)
        start = time.perf_counter()
        r_par = run_parallel()
        t_par.append(time.perf_counter() - start)
    return t_seq, r_seq, t_par, r_par


def _quartiles(times):
    """(first quartile, median, third quartile), rounded to 0.1 ms."""
    if len(times) == 1:
        q = (times[0],) * 3
    else:
        q = statistics.quantiles(times, n=4, method="inclusive")
    return tuple(round(x, 4) for x in q)


def bench_ft_instances(instances, repeats):
    """Instance-sharded congest_ft: sequential vs substrate workers."""
    rows = []
    for n, p in instances:
        g = _instance(n, p)

        def seq():
            return congest_ft_spanner(
                g, 2, 2, seed=RUN_SEED, iteration_constant=0.5
            )

        def par():
            return congest_ft_spanner(
                g, 2, 2, seed=RUN_SEED, iteration_constant=0.5,
                workers=WORKERS,
            )

        t_seq, r_seq, t_par, r_par = _time_pair(seq, par, repeats)
        parity = _fingerprint(r_seq) == _fingerprint(r_par)
        q1_seq, sec_seq, q3_seq = _quartiles(t_seq)
        q1_par, sec_par, q3_par = _quartiles(t_par)
        row = {
            "n": n,
            "p": p,
            "m": g.num_edges,
            "workers": WORKERS,
            "instances": int(r_seq.extra["instances_run"]),
            "rounds": r_seq.rounds,
            "seconds_sequential": sec_seq,
            "seconds_sequential_iqr": [q1_seq, q3_seq],
            "seconds_parallel": sec_par,
            "seconds_parallel_iqr": [q1_par, q3_par],
            # From the rounded values on purpose: the committed JSON
            # must be self-consistent for scripts/check_bench_json.py.
            "speedup": round(sec_seq / sec_par, 2)
            if sec_par > 0 else float("inf"),
            "parity_ok": parity,
        }
        if q1_seq / q3_par <= 1.0 <= q3_seq / q1_par:
            row["within_noise"] = True
        rows.append(row)
        print(
            f"  n={n:5d} m={g.num_edges:6d} "
            f"instances={row['instances']:3d}  "
            f"seq {sec_seq:7.3f}s [{q1_seq:.3f}, {q3_seq:.3f}]  "
            f"par({WORKERS}w) {sec_par:7.3f}s [{q1_par:.3f}, {q3_par:.3f}]  "
            f"speedup {row['speedup']:5.2f}x  "
            f"parity={'ok' if parity else 'FAIL'}"
        )
    return {
        "description": (
            "Theorem 15 congest_ft_spanner end to end: the qualifying "
            "Baswana-Sen instances run serially in-process vs sharded "
            "into contiguous slices over substrate worker processes; "
            "spanner edges, round schedule, and measured extras must be "
            "bit-identical"
        ),
        "parameters": {
            "k": 2, "f": 2, "seed": RUN_SEED,
            "iteration_constant": 0.5, "workers": WORKERS,
        },
        "instances": rows,
    }


def run(repeats: int = 5, quick: bool = False):
    if quick:
        repeats = 1
    ft_rows = FT_QUICK if quick else FT_INSTANCES
    scenarios = {}
    print("instances_congest_ft:")
    scenarios["instances_congest_ft"] = bench_ft_instances(
        ft_rows, repeats
    )
    report = {
        "benchmark": "parallel CONGEST execution vs sequential simulator",
        "quick": quick,
        "seed": RUN_SEED,
        "repeats": repeats,
        "timing": "median-of-interleaved-repeats",
        "python": platform.python_version(),
        "cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1),
        "scenarios": scenarios,
    }
    # Headline trajectory: the largest n, where per-run substrate
    # overhead is smallest relative to work.
    report["parallel_speedup_at_max_n"] = (
        scenarios["instances_congest_ft"]["instances"][-1]["speedup"]
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
    parser.add_argument("--repeats", type=int, default=5,
                        help="interleaved timing repetitions per mode "
                             "(default 5)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: tiny instances, one repeat "
                             "(parity checks still apply)")
    args = parser.parse_args(argv)
    report = run(repeats=args.repeats, quick=args.quick)
    if args.quick and args.output == DEFAULT_OUTPUT:
        print("quick run: skipping JSON write (pass --output to force)")
    else:
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"report written to {args.output}")
    if not _all_parity_ok(report):
        print("ERROR: parallel execution diverged from the sequential "
              "simulator")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
