"""Shared machinery for the benchmark harness.

Every benchmark prints the table behind one EXPERIMENTS.md row.  pytest
captures stdout, so :func:`emit` writes to the *real* stdout (visible in
``pytest benchmarks/ --benchmark-only`` runs and in bench_output.txt) and
also archives the table under the gitignored ``benchmarks/out/``, so a
test run never rewrites tracked files.  ``make results`` runs the suite
and copies the tables over the committed ``benchmarks/results/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.analysis.tables import Table

OUT_DIR = Path(__file__).parent / "out"


def emit(table: Table, experiment: str) -> None:
    """Print a table to the unredirected stdout and archive it."""
    text = table.render()
    print(f"\n{text}\n", file=sys.__stdout__, flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{experiment}.txt").write_text(text + "\n")


def geometric_mean(values) -> float:
    """Geometric mean (for ratio summaries)."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))
