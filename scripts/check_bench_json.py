#!/usr/bin/env python
"""Validate the committed ``BENCH_*.json`` benchmark reports.

The benchmark scripts only write a report after every scenario's
parity assertion passed, so a committed report is a claim: *these
speedups were measured on identical outputs*.  This checker
keeps that claim machine-enforced -- a hand-edited report, a truncated
write, or a scenario that silently recorded ``identical_outputs:
false`` fails CI instead of shipping.

Checks, per report:

* top-level metadata: ``benchmark``, ``seed``, ``repeats``, ``timing``,
  ``python``, ``quick`` (must be ``false`` for committed reports) and a
  non-empty ``scenarios`` mapping;
* per scenario: ``description``, ``parameters``, non-empty
  ``instances``;
* flow-benchmark instances (every row not matched below, as in
  ``BENCH_flow.json``): integral ``n``/``m``, exactly the two positive
  timings ``seconds_exhaustive`` (the baseline) and ``seconds_witness``,
  a ``speedup`` equal to ``seconds_exhaustive / seconds_witness`` (to
  rounding; the inverse ratio is reported), ``identical_outputs``
  exactly ``true``, an integral fault budget ``f >= 1`` and witness
  coverage counts with ``0 <= pairs_witnessed <= pairs_checked`` --
  ``identical_outputs`` asserts *verdict* parity between witness mode
  and the exhaustive sweep at full proof strength;
* serving-benchmark instances (any row carrying ``throughput_rps``, as
  in ``BENCH_serving.json``) follow a load-test schema instead:
  positive ``workers``/``requests``/``throughput_rps``/``deadline_ms``,
  latency quantiles with ``p99_ms >= p50_ms >= 0``, a ``chaos_rate``
  in ``[0, 1]``, non-negative ``deadline_errors``/``retries`` counters,
  and ``parity_ok`` exactly ``true`` (every completed answer was
  audited bit-identical against the in-process engine).  Throughput,
  p50 and p99 are medians over interleaved repeats, each with a
  ``*_iqr`` ``[q1, q3]`` bracketing it; ``p50_vs_deadline`` must say
  truthfully where the p50 spread sits against the deadline
  (``under``: q3 within it, ``over``: q1 past it, else
  ``straddles``) -- a label, not a gate.  The report's
  ``chaos_throughput_retention`` must equal the chaos row's median
  throughput over the healthy row's, with ``_iqr`` ``[chaos_q1 /
  healthy_q3, chaos_q3 / healthy_q1]`` around it.  Like the
  distributed reports below, it records ``cpus`` and at least
  ``MIN_SPREAD_REPEATS`` ``repeats``;
* dynamic-benchmark instances (any row carrying ``seconds_overlay``,
  as in ``BENCH_dynamic.json``) time the delta-overlay stream against
  a refreeze-per-batch baseline: positive ``updates``/``batches``,
  non-negative int ``compactions``/``overlay_depth``, a ``speedup``
  consistent with ``seconds_overlay``/``seconds_refreeze``, and
  ``parity_ok`` exactly ``true`` (every per-batch answer stream was
  bit-identical between the two modes);
* distributed-benchmark instances (any row carrying
  ``seconds_sequential``, as in ``BENCH_distributed.json``) time
  parallel CONGEST execution on the substrate worker pool against the
  sequential simulator: positive ``workers``, non-negative int
  ``rounds``, median timings with their interquartile ranges
  (``seconds_sequential_iqr``/``seconds_parallel_iqr``, each a
  ``[q1, q3]`` pair bracketing its median), a ``speedup`` consistent
  with ``seconds_sequential``/``seconds_parallel``, and ``parity_ok``
  exactly ``true`` (spanner edges, round count, and measured extras
  bit-identical between the two modes).  Such a report must record a
  positive int ``cpus`` and at least ``MIN_SPREAD_REPEATS`` interleaved
  ``repeats``, so each spread has quartiles worth the name.  The
  speedup itself is machine-dependent -- it reflects the CPUs the run
  actually had -- so its *value* is recorded, not asserted; parity is
  the invariant.  What is asserted is that a row says when its speedup
  is noise: when the range ``[seq_q1 / par_q3, seq_q3 / par_q1]``
  contains 1.0 the row must carry ``"within_noise": true``, and only
  then.

Exit status 0 when every report passes, 1 otherwise.

Usage::

    python scripts/check_bench_json.py [report.json ...]

With no arguments, checks every ``BENCH_*.json`` at the repository
root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TOP_KEYS = ("benchmark", "seed", "repeats", "timing", "python", "scenarios")
INSTANCE_KEYS = ("n", "m", "speedup", "identical_outputs")
#: Fewest interleaved repeats behind a reported median and IQR.
MIN_SPREAD_REPEATS = 5


def _fail(errors, path, where, message):
    errors.append(f"{path.name}: {where}: {message}")


def check_report(path: Path, errors: list) -> None:
    try:
        report = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        _fail(errors, path, "load", str(exc))
        return
    for key in TOP_KEYS:
        if key not in report:
            _fail(errors, path, "top-level", f"missing key {key!r}")
    if report.get("quick", False):
        _fail(errors, path, "top-level",
              "quick-mode report committed (expected a full run; "
              "re-run the benchmark without --quick)")
    scenarios = report.get("scenarios")
    if not isinstance(scenarios, dict) or not scenarios:
        _fail(errors, path, "top-level", "scenarios must be a non-empty "
                                         "mapping")
        return
    spreads = False  # whether any row reports a median and IQR
    serving_rows = []
    for name, scenario in scenarios.items():
        where = f"scenario {name!r}"
        for key in ("description", "parameters", "instances"):
            if key not in scenario:
                _fail(errors, path, where, f"missing key {key!r}")
        instances = scenario.get("instances")
        if not isinstance(instances, list) or not instances:
            _fail(errors, path, where, "instances must be a non-empty list")
            continue
        for i, inst in enumerate(instances):
            iw = f"{where} instance {i}"
            if "throughput_rps" in inst:
                # Serving rows (BENCH_serving.json) measure open-loop
                # latency under a load generator, not a two-backend
                # timing pair; they get their own schema.
                _check_serving_instance(path, iw, inst, errors)
                serving_rows.append(inst)
                spreads = True
                continue
            if "seconds_overlay" in inst:
                # Dynamic rows (BENCH_dynamic.json) compare churn
                # strategies; their parity flag audits answer streams,
                # not a single output, so they get their own schema.
                _check_dynamic_instance(path, iw, inst, errors)
                continue
            if "seconds_sequential" in inst:
                # Distributed rows (BENCH_distributed.json) compare
                # parallel substrate execution against the sequential
                # simulator; machine-dependent speedups, parity-gated.
                _check_distributed_instance(path, iw, inst, errors)
                spreads = True
                continue
            for key in INSTANCE_KEYS:
                if key not in inst:
                    _fail(errors, path, iw, f"missing key {key!r}")
            if not all(key in inst for key in INSTANCE_KEYS):
                continue
            if not (isinstance(inst["n"], int) and inst["n"] > 0):
                _fail(errors, path, iw, f"n must be a positive int, "
                                        f"got {inst['n']!r}")
            if not (isinstance(inst["m"], int) and inst["m"] >= 0):
                _fail(errors, path, iw, f"m must be a non-negative int, "
                                        f"got {inst['m']!r}")
            # Witness rows (BENCH_flow.json) time the exhaustive sweep
            # (the baseline, numerator) against witness mode.
            timings = {k: v for k, v in inst.items()
                       if k.startswith("seconds_")}
            if sorted(timings) != ["seconds_exhaustive", "seconds_witness"]:
                _fail(errors, path, iw,
                      f"expected timings seconds_exhaustive and "
                      f"seconds_witness, got {sorted(timings) or 'none'}")
                continue
            bad = [f"{k}={v!r}" for k, v in timings.items()
                   if not (isinstance(v, (int, float)) and v > 0)]
            if bad:
                _fail(errors, path, iw, "timings must be positive "
                                        "numbers: " + ", ".join(bad))
                continue
            claimed = inst["speedup"]
            actual = timings["seconds_exhaustive"] / timings["seconds_witness"]
            # The script rounds timings to 4 decimals and the ratio to
            # 2; allow that rounding, nothing more.
            if abs(claimed - actual) > max(0.011, 0.01 * actual):
                _fail(errors, path, iw,
                      f"speedup {claimed} inconsistent with timings "
                      f"(seconds_exhaustive / seconds_witness = "
                      f"{actual:.3f})")
            if inst["identical_outputs"] is not True:
                _fail(errors, path, iw,
                      f"identical_outputs must be true, got "
                      f"{inst['identical_outputs']!r} -- the recorded "
                      f"speedup was not parity-checked")
            _check_flow_instance(path, iw, inst, errors)
    if spreads:
        _check_spread_provenance(path, report, errors)
    if serving_rows:
        _check_retention(path, report, serving_rows, errors)


def _check_spread_provenance(path, report, errors) -> None:
    """A report of medians and IQRs records how many interleaved
    repeats they summarize and on how many CPUs."""
    cpus = report.get("cpus")
    if not (isinstance(cpus, int) and not isinstance(cpus, bool)
            and cpus > 0):
        _fail(errors, path, "top-level",
              f"cpus must be a positive int, got {cpus!r}")
    repeats = report.get("repeats")
    if not (isinstance(repeats, int) and repeats >= MIN_SPREAD_REPEATS):
        _fail(errors, path, "top-level",
              f"repeats must be an int >= {MIN_SPREAD_REPEATS} for a "
              f"median and IQR, got {repeats!r}")


SERVING_KEYS = (
    "n", "m", "workers", "requests", "throughput_rps",
    "throughput_rps_iqr", "p50_ms", "p50_ms_iqr", "p99_ms", "p99_ms_iqr",
    "deadline_ms", "p50_vs_deadline", "chaos_rate", "deadline_errors",
    "retries", "parity_ok",
)


def _check_serving_instance(path, iw, inst, errors) -> None:
    """Schema for dispatcher load-test rows (BENCH_serving.json).

    A serving row is a resilience claim, not a speedup claim: every
    *completed* request was audited bit-identical against an
    in-process :class:`ScenarioSweep` (``parity_ok``), and every other
    request resolved to a typed error counted in ``deadline_errors``
    (never a wrong answer, never a hang).
    """
    for key in SERVING_KEYS:
        if key not in inst:
            _fail(errors, path, iw, f"missing key {key!r}")
    if not all(key in inst for key in SERVING_KEYS):
        return
    for key in ("n", "workers", "requests"):
        if not (isinstance(inst[key], int) and inst[key] > 0):
            _fail(errors, path, iw,
                  f"{key} must be a positive int, got {inst[key]!r}")
    for key in ("m", "deadline_errors", "retries"):
        if not (isinstance(inst[key], int) and inst[key] >= 0):
            _fail(errors, path, iw,
                  f"{key} must be a non-negative int, got {inst[key]!r}")
    if not (isinstance(inst["throughput_rps"], (int, float))
            and inst["throughput_rps"] > 0):
        _fail(errors, path, iw,
              f"throughput_rps must be a positive number, got "
              f"{inst['throughput_rps']!r}")
    p50, p99 = inst["p50_ms"], inst["p99_ms"]
    if not all(isinstance(v, (int, float)) and v >= 0 for v in (p50, p99)):
        _fail(errors, path, iw,
              f"p50_ms/p99_ms must be non-negative numbers, got "
              f"{p50!r}/{p99!r}")
    elif p99 < p50:
        _fail(errors, path, iw,
              f"p99_ms ({p99}) must be >= p50_ms ({p50})")
    spreads_ok = True
    for key in ("throughput_rps", "p50_ms", "p99_ms"):
        if not _brackets(inst[f"{key}_iqr"], inst[key]):
            _fail(errors, path, iw,
                  f"{key}_iqr must be [q1, q3] with 0 <= q1 <= {key} "
                  f"({inst[key]!r}) <= q3, got {inst[f'{key}_iqr']!r}")
            spreads_ok = False
    deadline = inst["deadline_ms"]
    if not (isinstance(deadline, (int, float)) and deadline > 0):
        _fail(errors, path, iw,
              f"deadline_ms must be a positive number, got {deadline!r}")
    elif spreads_ok:
        # A label, not a gate: where the p50 spread sits against the
        # deadline must be stated truthfully, whichever side it is.
        q1, q3 = inst["p50_ms_iqr"]
        want = ("under" if q3 <= deadline
                else "over" if q1 > deadline else "straddles")
        if inst["p50_vs_deadline"] != want:
            _fail(errors, path, iw,
                  f"p50_vs_deadline must be {want!r} for p50_ms_iqr "
                  f"{[q1, q3]} against deadline_ms {deadline}, got "
                  f"{inst['p50_vs_deadline']!r}")
    rate = inst["chaos_rate"]
    if not (isinstance(rate, (int, float)) and 0 <= rate <= 1):
        _fail(errors, path, iw,
              f"chaos_rate must be in [0, 1], got {rate!r}")
    if inst["parity_ok"] is not True:
        _fail(errors, path, iw,
              f"parity_ok must be true, got {inst['parity_ok']!r} -- "
              f"a completed answer diverged from the in-process sweep")


def _brackets(iqr, median) -> bool:
    """Whether ``iqr`` is a ``[q1, q3]`` pair of non-negative numbers
    with ``q1 <= median <= q3``."""
    return (isinstance(iqr, list) and len(iqr) == 2
            and all(isinstance(v, (int, float)) and v >= 0 for v in iqr)
            and isinstance(median, (int, float))
            and iqr[0] <= median <= iqr[1])


def _check_retention(path, report, rows, errors) -> None:
    """``chaos_throughput_retention`` is the chaos row's median
    throughput over the healthy row's, and its ``_iqr`` is the range
    ``[chaos_q1 / healthy_q3, chaos_q3 / healthy_q1]`` around it."""
    healthy = [r for r in rows if r.get("chaos_rate") == 0]
    chaotic = [r for r in rows if r.get("chaos_rate", 0) > 0]
    if not (healthy and chaotic):
        return
    h, c = healthy[0], chaotic[0]
    if not (_brackets(h.get("throughput_rps_iqr"), h.get("throughput_rps"))
            and _brackets(c.get("throughput_rps_iqr"),
                          c.get("throughput_rps"))
            and h["throughput_rps_iqr"][0] > 0):
        return  # the row checks already reported it
    where = "chaos_throughput_retention"
    claimed = report.get(where)
    spread = report.get(f"{where}_iqr")
    if not isinstance(claimed, (int, float)):
        _fail(errors, path, "top-level",
              f"{where} must be a number, got {claimed!r}")
        return
    if not _brackets(spread, claimed):
        _fail(errors, path, "top-level",
              f"{where}_iqr must be [low, high] with low <= {where} "
              f"({claimed!r}) <= high, got {spread!r}")
        return
    (h_q1, h_q3), (c_q1, c_q3) = h["throughput_rps_iqr"], \
        c["throughput_rps_iqr"]
    # Rounded to 3 decimals from the rounded row values.
    for label, got, want in (
        (where, claimed, c["throughput_rps"] / h["throughput_rps"]),
        (f"{where}_iqr low", spread[0], c_q1 / h_q3),
        (f"{where}_iqr high", spread[1], c_q3 / h_q1),
    ):
        if abs(got - want) > 0.0011:
            _fail(errors, path, "top-level",
                  f"{label} {got} inconsistent with the rows' "
                  f"throughput (expected {want:.3f})")


DYNAMIC_KEYS = (
    "n", "m", "updates", "batches", "compactions", "overlay_depth",
    "seconds_overlay", "seconds_refreeze", "speedup", "parity_ok",
)


def _check_dynamic_instance(path, iw, inst, errors) -> None:
    """Schema for overlay-vs-refreeze churn rows (BENCH_dynamic.json).

    A dynamic row claims the overlay served the whole update stream
    bit-identically to a from-scratch freeze after every batch
    (``parity_ok``), and records how much overlay machinery that took
    (``compactions`` policy refreezes, final ``overlay_depth``).
    """
    for key in DYNAMIC_KEYS:
        if key not in inst:
            _fail(errors, path, iw, f"missing key {key!r}")
    if not all(key in inst for key in DYNAMIC_KEYS):
        return
    for key in ("n", "updates", "batches"):
        if not (isinstance(inst[key], int) and inst[key] > 0):
            _fail(errors, path, iw,
                  f"{key} must be a positive int, got {inst[key]!r}")
    for key in ("m", "compactions", "overlay_depth"):
        if not (isinstance(inst[key], int) and inst[key] >= 0):
            _fail(errors, path, iw,
                  f"{key} must be a non-negative int, got {inst[key]!r}")
    t_ov, t_rf = inst["seconds_overlay"], inst["seconds_refreeze"]
    if not all(isinstance(v, (int, float)) and v > 0 for v in (t_ov, t_rf)):
        _fail(errors, path, iw,
              f"timings must be positive numbers, got "
              f"seconds_overlay={t_ov!r}, seconds_refreeze={t_rf!r}")
        return
    claimed = inst["speedup"]
    actual = t_rf / t_ov
    if abs(claimed - actual) > max(0.011, 0.01 * actual):
        _fail(errors, path, iw,
              f"speedup {claimed} inconsistent with timings "
              f"(refreeze/overlay = {actual:.3f})")
    if inst["parity_ok"] is not True:
        _fail(errors, path, iw,
              f"parity_ok must be true, got {inst['parity_ok']!r} -- "
              f"the overlay's answers diverged from the refreeze "
              f"baseline")


DISTRIBUTED_KEYS = (
    "n", "m", "workers", "rounds", "seconds_sequential",
    "seconds_sequential_iqr", "seconds_parallel", "seconds_parallel_iqr",
    "speedup", "parity_ok",
)


def _check_distributed_instance(path, iw, inst, errors) -> None:
    """Schema for parallel-vs-sequential rows (BENCH_distributed.json).

    A distributed row is first a determinism claim: the substrate run
    produced the bit-identical spanner, round count, and measured
    extras as the sequential simulator (``parity_ok``).  Each timing is
    a median whose ``*_iqr`` ``[q1, q3]`` must bracket it.  The speedup
    is consistency-checked against the recorded medians but its value
    is machine-dependent (a single-core runner honestly records the
    substrate's overhead as a sub-1x "speedup"), so no floor is
    enforced here.
    """
    for key in DISTRIBUTED_KEYS:
        if key not in inst:
            _fail(errors, path, iw, f"missing key {key!r}")
    if not all(key in inst for key in DISTRIBUTED_KEYS):
        return
    for key in ("n", "workers"):
        if not (isinstance(inst[key], int) and inst[key] > 0):
            _fail(errors, path, iw,
                  f"{key} must be a positive int, got {inst[key]!r}")
    for key in ("m", "rounds"):
        if not (isinstance(inst[key], int) and inst[key] >= 0):
            _fail(errors, path, iw,
                  f"{key} must be a non-negative int, got {inst[key]!r}")
    t_seq, t_par = inst["seconds_sequential"], inst["seconds_parallel"]
    if not all(isinstance(v, (int, float)) and v > 0
               for v in (t_seq, t_par)):
        _fail(errors, path, iw,
              f"timings must be positive numbers, got "
              f"seconds_sequential={t_seq!r}, seconds_parallel={t_par!r}")
        return
    spreads_ok = True
    for mode, median in (("sequential", t_seq), ("parallel", t_par)):
        key = f"seconds_{mode}_iqr"
        iqr = inst[key]
        if not (isinstance(iqr, list) and len(iqr) == 2
                and all(isinstance(v, (int, float)) and v > 0
                        for v in iqr)
                and iqr[0] <= median <= iqr[1]):
            _fail(errors, path, iw,
                  f"{key} must be [q1, q3] with 0 < q1 <= "
                  f"seconds_{mode} ({median!r}) <= q3, got {iqr!r}")
            spreads_ok = False
    if spreads_ok:
        _check_noise_label(path, iw, inst, errors)
    claimed = inst["speedup"]
    actual = t_seq / t_par
    if abs(claimed - actual) > max(0.011, 0.01 * actual):
        _fail(errors, path, iw,
              f"speedup {claimed} inconsistent with timings "
              f"(sequential/parallel = {actual:.3f})")
    if inst["parity_ok"] is not True:
        _fail(errors, path, iw,
              f"parity_ok must be true, got {inst['parity_ok']!r} -- "
              f"the parallel run diverged from the sequential "
              f"simulator")


def _check_noise_label(path, iw, inst, errors) -> None:
    """A distributed row whose speedup range contains 1.0 is labelled
    ``"within_noise": true``; a row whose range does not is not."""
    seq_q1, seq_q3 = inst["seconds_sequential_iqr"]
    par_q1, par_q3 = inst["seconds_parallel_iqr"]
    low, high = seq_q1 / par_q3, seq_q3 / par_q1
    crosses = low <= 1.0 <= high
    label = inst.get("within_noise")
    where = f"speedup range [{low:.2f}, {high:.2f}]"
    if label is not None and label is not True:
        _fail(errors, path, iw,
              f"within_noise must be true or absent, got {label!r}")
    elif crosses and label is None:
        _fail(errors, path, iw,
              f"{where} contains 1.0 but the row is not labelled "
              f"within_noise: true")
    elif label and not crosses:
        _fail(errors, path, iw,
              f"{where} does not contain 1.0 but the row is labelled "
              f"within_noise")


def _check_flow_instance(path, iw, inst, errors) -> None:
    """Extra schema for witness-vs-exhaustive rows (BENCH_flow.json)."""
    f = inst.get("f")
    if not (isinstance(f, int) and f >= 1):
        _fail(errors, path, iw,
              f"flow instance needs an integral fault budget f >= 1, "
              f"got {f!r}")
    checked = inst.get("pairs_checked")
    witnessed = inst.get("pairs_witnessed")
    if not (isinstance(checked, int) and isinstance(witnessed, int)
            and 0 <= witnessed <= checked):
        _fail(errors, path, iw,
              f"need witness coverage counts with 0 <= pairs_witnessed "
              f"<= pairs_checked, got pairs_witnessed={witnessed!r}, "
              f"pairs_checked={checked!r}")


def main(argv) -> int:
    paths = [Path(a) for a in argv[1:]]
    if not paths:
        paths = sorted(ROOT.glob("BENCH_*.json"))
    if not paths:
        print("check_bench_json: no BENCH_*.json reports found",
              file=sys.stderr)
        return 1
    errors: list = []
    for path in paths:
        check_report(path, errors)
    if errors:
        for err in errors:
            print(f"check_bench_json: {err}", file=sys.stderr)
        return 1
    names = ", ".join(p.name for p in paths)
    print(f"check_bench_json: OK ({names})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
