"""Seeded end-to-end benchmark of the fault-tolerant spanner library.

Run from the root of a checkout::

    python3 perfbench/run.py --workload build --seed 1 --seconds 20 --trace 0

Workloads: ``build``, ``certify``, ``serve``, ``congest`` (README.md
says why each exists).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the same ops with every other op traced, prints the
per-layer metrics and writes ``perfbench/out/<workload>.trace.json``
(Chrome trace events; open it in https://ui.perfetto.dev).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every output check and every hygiene check passed.  Without ``src/repro``
next to this directory the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Set

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-up runs this many times per run; setup_s reports the median.
SETUP_REPEATS = 3

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
)


class Interrupted(BaseException):
    """SIGTERM or SIGINT arrived; unwinds through every ``finally``."""

    def __init__(self, signum: int) -> None:
        super().__init__(signum)
        self.signum = signum


def host_speed_ms() -> float:
    """Median of seven timings of a fixed pure-Python loop (not a metric)."""
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def child_pids() -> Set[int]:
    me = str(os.getpid())
    out = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me:
            out.add(int(entry))
    return out


def shm_segments() -> Set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


def _tracker():
    from multiprocessing import resource_tracker

    return resource_tracker._resource_tracker


class Hygiene:
    """Signal handling and the end-of-run process / shared-memory checks."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.shm = shm_segments()
        self.children = child_pids()
        self.tracker_was_running = getattr(_tracker(), "_pid", None) is not None
        self.previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            self.previous[signum] = signal.signal(signum, self._on_signal)

    def _on_signal(self, signum, frame):
        if os.getpid() != self.pid:
            # A forked worker inherited this handler: die as the signal says.
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        raise Interrupted(signum)

    def check(self) -> List[str]:
        """Problems left behind by this run (call after every close)."""
        problems = []
        tracker = _tracker()
        if not self.tracker_was_running and getattr(tracker, "_pid", None) is not None:
            # The shared-memory resource tracker is a child this run
            # started (SpannerServer creates a segment); stop and reap
            # it.  Where it cannot be stopped the check below reports it.
            stop = getattr(tracker, "_stop", None)
            if stop is not None:
                stop()
        alive = multiprocessing.active_children()
        if alive:
            problems.append(f"worker processes still alive: {alive}")
        left = child_pids() - self.children
        if left:
            problems.append(f"child processes still running: {sorted(left)}")
        segments = shm_segments() - self.shm
        if segments:
            problems.append(f"/dev/shm segments left behind: {sorted(segments)}")
        return problems

    def restore(self) -> None:
        for signum, handler in self.previous.items():
            signal.signal(signum, handler)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child's, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def git_commit() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args) -> Dict[str, object]:
    from repro.graph.traversal import resolve_batch_accel

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "batch_kernels": resolve_batch_accel(),
        "git_commit": git_commit(),
    }


def quantile(values: List[float], q: int) -> float:
    """The q-th percentile (inclusive method; needs two or more values)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("build", "certify", "serve", "congest"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run(args, hygiene: Hygiene) -> Dict[str, object]:
    t0 = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import workloads

    import_s = time.perf_counter() - t0
    prov = provenance(args)
    print("provenance " + json.dumps(prov), flush=True)
    host_before = host_speed_ms()

    workload = workloads.WORKLOADS[args.workload]()
    n_ops = workload.op_count(args.seconds)
    states = []
    setups = []
    tracer = None
    try:
        for _ in range(SETUP_REPEATS):
            if states:
                workload.close(states.pop())
            t = time.perf_counter()
            states.append(workload.setup(workload.inputs(args.seed)))
            setups.append(time.perf_counter() - t)
        state = states[0]
        if args.trace:
            import layers
            from tracing import Tracer

            tracer = Tracer()
            layers.install(tracer)
        gc.collect()
        timed = workload.run(state, n_ops, tracer)
    finally:
        while states:
            workload.close(states.pop())
    rss = peak_rss_mb()

    problems = workload.check(state, timed)
    expected = workloads.load_digests().get(workload.name)
    got = workload.canary()
    if got != expected:
        problems.append(f"canary digest {got} != committed {expected} (perfbench/digests.json)")
    problems += hygiene.check()
    host_after = host_speed_ms()
    print(f"host speed: {host_before:.1f} ms before, {host_after:.1f} ms after (fixed loop; not a metric)")

    records = timed.records
    latencies = [r.latency for r in records]
    ok = sum(r.ok for r in records)
    failed = sum(r.failed for r in records)
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(
        f"{workload.name}: {len(records)} ops, {timed.completed} completed, "
        f"{ok} ok, {failed} failed, timed phase {timed.seconds:.2f} s"
    )
    if tracer is None:
        values = {
            "setup_s": import_s + statistics.median(setups),
            "ops_per_s": timed.completed / timed.seconds,
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": quantile(latencies, 90) * 1e3,
            "peak_rss_mb": rss,
            "ok_frac": ok / len(records),
        }
        units = dict(END_TO_END)
    else:
        values = layers.metrics(tracer, timed)
        units = {name: unit for name, unit, _ in layers.METRICS}
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"{workload.name}.trace.json"
        tracer.write_chrome(str(trace_path), prov)
        print(f"trace written to {trace_path.relative_to(ROOT)} (open in ui.perfetto.dev)")
    for name, value in values.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    return {
        "correct": not problems and failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} not found; run from a full checkout", file=sys.stderr)
        return 2
    hygiene = Hygiene()
    try:
        result = run(args, hygiene)
    except Interrupted as exc:
        print(f"perfbench: interrupted by signal {exc.signum}", file=sys.stderr)
        return 128 + exc.signum
    finally:
        hygiene.restore()
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
