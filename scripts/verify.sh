#!/usr/bin/env sh
# One-command health check: the deterministic test suite.
#
# Usage (from the repository root):
#   scripts/verify.sh            # or: make verify
#
# Fails (non-zero exit) if any test fails, including the parity tests
# that compare the CSR production path with the dict reference in
# tests/reference/ (tests/test_backend_parity.py,
# tests/test_applications_parity.py).
set -eu

cd "$(dirname "$0")/.."

PYTHON="${PYTHON:-python}"
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# The deterministic suite (tests/) rather than the full tier-1 command:
# benchmarks/test_bench_*.py contain wall-clock assertions that can flip
# on a loaded machine, and a health check that cries wolf gets ignored.
# CI's tier-1 gate still runs the full `pytest -x -q` (see ROADMAP.md).
echo "== deterministic test suite =="
"$PYTHON" -m pytest -x -q tests

echo "verify: OK"
