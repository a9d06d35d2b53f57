"""The benchmark's output checks: a corrupted answer must fail the run.

Each test runs one short workload in-process (``--seconds 0.5``) with
the library's answer tampered with once, and expects the run to report
``correct: false`` with at least one failed op and exit code 1.  A
clean run of the same workload passes, so the checks are not simply
always failing.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def _bench(capsys, workload):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


def _corrupt_call(monkeypatch, owner, attr, call, tamper):
    original = getattr(owner, attr)
    calls = []

    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(None)
        if len(calls) == call:
            tamper(out)
        return out

    monkeypatch.setattr(owner, attr, wrapper)


def _drop_an_edge(result):
    u, v = next(iter(result.spanner.edges()))
    result.spanner.remove_edge(u, v)


def _shift_a_distance(answer):
    answer[0] += 1.0


def test_clean_build_run_passes(capsys):
    code, result = _bench(capsys, "build")
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0


@pytest.mark.parametrize("workload", ["build", "serve"])
def test_corrupted_answer_fails_the_run(monkeypatch, capsys, workload):
    import workloads
    from repro import registry
    from repro.serving import SpannerServer

    if workload == "build":
        _corrupt_call(monkeypatch, registry, "build_spanner", 2, _drop_an_edge)
    else:
        # The second timed request, after the untimed warm-up ones.
        call = workloads.Serve.warmup + 2
        _corrupt_call(monkeypatch, SpannerServer, "distances", call, _shift_a_distance)
    code, result = _bench(capsys, workload)
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
