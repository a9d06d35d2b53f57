#!/usr/bin/env sh
# One-command health check: tier-1 tests + parity benchmark smoke runs.
#
# Usage (from the repository root):
#   scripts/verify.sh            # or: make verify
#
# Fails (non-zero exit) if any test fails or if a quick benchmark finds
# the CSR path diverging from the dict reference in tests/reference/.
set -eu

cd "$(dirname "$0")/.."

PYTHON="${PYTHON:-python}"
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# The deterministic suite (tests/) rather than the full tier-1 command:
# benchmarks/test_bench_*.py contain wall-clock assertions that can flip
# on a loaded machine, and a health check that cries wolf gets ignored.
# CI's tier-1 gate still runs the full `pytest -x -q` (see ROADMAP.md);
# the benchmark *code* is exercised below via the --quick smoke run.
echo "== deterministic test suite =="
"$PYTHON" -m pytest -x -q tests

echo "== construction/verification benchmark smoke run (reference parity) =="
"$PYTHON" benchmarks/bench_backend.py --quick

echo "== applications benchmark smoke run (reference parity) =="
"$PYTHON" benchmarks/bench_applications.py --quick

echo "verify: OK"
