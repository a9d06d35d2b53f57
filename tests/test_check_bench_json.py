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
