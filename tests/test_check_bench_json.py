"""The committed-report checker (``scripts/check_bench_json.py``).

Every committed ``BENCH_*.json`` must pass it, and a report whose
parity flag is false, or whose speedup disagrees with its own timings,
must be reported.  The first half pins the schema of the reports that
exist, so removing or rewriting one cannot silently break another.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_bench_json", REPO / "scripts" / "check_bench_json.py"
)
check_bench_json = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench_json)

REPORTS = sorted(REPO.glob("BENCH_*.json"))


@pytest.mark.parametrize("path", REPORTS, ids=lambda p: p.name)
def test_committed_report_passes(path):
    errors = []
    check_bench_json.check_report(path, errors)
    assert errors == []


@pytest.mark.parametrize("mutation, message", [
    ("parity", "identical_outputs must be true"),
    ("speedup", "inconsistent with timings"),
])
def test_mutated_flow_report_is_reported(tmp_path, mutation, message):
    report = json.loads((REPO / "BENCH_flow.json").read_text())
    row = next(iter(report["scenarios"].values()))["instances"][0]
    if mutation == "parity":
        row["identical_outputs"] = False
    else:
        row["speedup"] = round(
            2 * row["seconds_exhaustive"] / row["seconds_witness"], 2
        )
    path = tmp_path / "BENCH_flow.json"
    path.write_text(json.dumps(report))
    errors = []
    check_bench_json.check_report(path, errors)
    assert len(errors) == 1 and message in errors[0]


def test_inverted_flow_speedup_is_reported(tmp_path):
    # The recorded ratio is exhaustive / witness; its inverse (0.35 for
    # 0.0094 / 0.0033 s, a true 2.85x) is a wrong claim, not a match.
    report = json.loads((REPO / "BENCH_flow.json").read_text())
    row = next(iter(report["scenarios"].values()))["instances"][0]
    row.update(seconds_exhaustive=0.0094, seconds_witness=0.0033,
               speedup=0.35)
    path = tmp_path / "BENCH_flow.json"
    path.write_text(json.dumps(report))
    errors = []
    check_bench_json.check_report(path, errors)
    assert len(errors) == 1 and "inconsistent with timings" in errors[0]


def test_flow_row_needs_both_timings(tmp_path):
    report = json.loads((REPO / "BENCH_flow.json").read_text())
    row = next(iter(report["scenarios"].values()))["instances"][0]
    row["seconds_baseline"] = row.pop("seconds_exhaustive")
    path = tmp_path / "BENCH_flow.json"
    path.write_text(json.dumps(report))
    errors = []
    check_bench_json.check_report(path, errors)
    assert len(errors) == 1 and "seconds_exhaustive" in errors[0]


def _distributed_errors(tmp_path, mutate):
    report = json.loads((REPO / "BENCH_distributed.json").read_text())
    mutate(report, report["scenarios"]["instances_congest_ft"]["instances"][0])
    path = tmp_path / "BENCH_distributed.json"
    path.write_text(json.dumps(report))
    errors = []
    check_bench_json.check_report(path, errors)
    return errors


@pytest.mark.parametrize("mutation, message", [
    # A quartile on the wrong side of its median.
    (lambda rep, row: row.update(seconds_sequential_iqr=[
        row["seconds_sequential"] * 1.1, row["seconds_sequential"] * 1.2,
    ]), "seconds_sequential_iqr must be [q1, q3]"),
    (lambda rep, row: row.pop("seconds_parallel_iqr"),
     "missing key 'seconds_parallel_iqr'"),
    (lambda rep, row: rep.pop("cpus"), "cpus must be a positive int"),
    (lambda rep, row: rep.update(repeats=3), "repeats must be an int >= 5"),
])
def test_distributed_spread_fields_are_checked(tmp_path, mutation, message):
    errors = _distributed_errors(tmp_path, mutation)
    assert len(errors) == 1 and message in errors[0]


def _respread(seq, par, label):
    """A mutation giving the row the quartiles ``seq``/``par`` around
    their midpoints, and ``within_noise: label`` unless ``label`` is
    None."""
    def mutate(report, row):
        row.update(
            seconds_sequential=sum(seq) / 2,
            seconds_sequential_iqr=list(seq),
            seconds_parallel=sum(par) / 2, seconds_parallel_iqr=list(par),
            speedup=round(sum(seq) / sum(par), 2),
        )
        row.pop("within_noise", None)
        if label is not None:
            row["within_noise"] = label
    return mutate


@pytest.mark.parametrize("seq, par, label, message", [
    # Range [0.75, 1.02] contains 1.0: the row must say it is noise.
    ((0.283, 0.3518), (0.3438, 0.38), None,
     "contains 1.0 but the row is not labelled"),
    # Range [1.26, 1.68] is a speedup: a noise label is false.
    ((0.6687, 0.8954), (0.438, 0.5318), True,
     "does not contain 1.0 but the row is labelled"),
    # Range [0.6, 0.8] is a slowdown: a noise label is false too.
    ((0.3, 0.32), (0.4, 0.5), True,
     "does not contain 1.0 but the row is labelled"),
    ((0.283, 0.3518), (0.3438, 0.38), "yes",
     "within_noise must be true or absent"),
])
def test_distributed_noise_label_is_checked(
    tmp_path, seq, par, label, message
):
    errors = _distributed_errors(tmp_path, _respread(seq, par, label))
    assert len(errors) == 1 and message in errors[0]


@pytest.mark.parametrize("seq, par, label", [
    ((0.283, 0.3518), (0.3438, 0.38), True),  # the committed n = 400 row
    ((0.6687, 0.8954), (0.438, 0.5318), None),
    ((0.3, 0.32), (0.4, 0.5), None),  # a clear slowdown is no noise
])
def test_distributed_noise_label_accepted(tmp_path, seq, par, label):
    assert _distributed_errors(tmp_path, _respread(seq, par, label)) == []


def _serving_errors(tmp_path, mutate):
    report = json.loads((REPO / "BENCH_serving.json").read_text())
    rows = report["scenarios"]["open_loop_healthy_vs_chaos"]["instances"]
    healthy, chaotic = rows
    assert healthy["chaos_rate"] == 0 and chaotic["chaos_rate"] > 0
    mutate(report, healthy, chaotic)
    path = tmp_path / "BENCH_serving.json"
    path.write_text(json.dumps(report))
    errors = []
    check_bench_json.check_report(path, errors)
    return errors


@pytest.mark.parametrize("mutation, message", [
    (lambda rep, h, c: rep.update(repeats=1), "repeats must be an int >= 5"),
    (lambda rep, h, c: rep.pop("cpus"), "cpus must be a positive int"),
    # A quartile on the wrong side of its median.
    (lambda rep, h, c: h.update(p99_ms_iqr=[
        h["p99_ms"] * 1.1, h["p99_ms"] * 1.2,
    ]), "p99_ms_iqr must be [q1, q3]"),
    (lambda rep, h, c: c.update(p50_ms_iqr=[
        c["p50_ms"] * 0.9, c["p50_ms"] * 0.95,
    ]), "p50_ms_iqr must be [q1, q3]"),
    (lambda rep, h, c: c.pop("throughput_rps_iqr"),
     "missing key 'throughput_rps_iqr'"),
    # The chaos p50 against its deadline is a label that must be true.
    (lambda rep, h, c: c.update(p50_vs_deadline="under"),
     "p50_vs_deadline must be"),
    (lambda rep, h, c: c.update(p50_ms_iqr=[
        c["deadline_ms"] * 0.5, c["p50_ms"],
    ]), "p50_vs_deadline must be 'straddles'"),
    (lambda rep, h, c: rep.update(
        chaos_throughput_retention=rep["chaos_throughput_retention"] + 0.1
    ), "chaos_throughput_retention_iqr must be [low, high]"),
    (lambda rep, h, c: rep.update(chaos_throughput_retention_iqr=[
        0.0, rep["chaos_throughput_retention_iqr"][1],
    ]), "chaos_throughput_retention_iqr low"),
    (lambda rep, h, c: rep.pop("chaos_throughput_retention_iqr"),
     "chaos_throughput_retention_iqr must be"),
])
def test_serving_spread_fields_are_checked(tmp_path, mutation, message):
    errors = _serving_errors(tmp_path, mutation)
    assert len(errors) == 1 and message in errors[0], errors


def test_serving_retention_must_match_the_rows(tmp_path):
    def mutate(rep, h, c):
        low, high = rep["chaos_throughput_retention_iqr"]
        rep["chaos_throughput_retention_iqr"] = [low - 0.1, high + 0.1]
        rep["chaos_throughput_retention"] += 0.05
    errors = _serving_errors(tmp_path, mutate)
    assert [e.split("top-level: ")[1].split(" 0.")[0] for e in errors] == [
        "chaos_throughput_retention",
        "chaos_throughput_retention_iqr low",
        "chaos_throughput_retention_iqr high",
    ]


def test_serving_chaos_p50_over_deadline_is_a_label(tmp_path):
    # The committed chaos row's p50 is over its deadline: that is
    # recorded, not failed.
    def mutate(rep, h, c):
        assert c["p50_vs_deadline"] == "over"
    assert _serving_errors(tmp_path, mutate) == []
