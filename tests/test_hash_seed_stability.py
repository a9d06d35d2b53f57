"""Seeded builds and witness reports do not depend on ``PYTHONHASHSEED``.

String and tuple labels hash differently in every interpreter run, so
any output that follows ``set`` or ``frozenset`` iteration order moves
between runs.  Each hash seed gets its own subprocess; the spanner's
edge *list* (the insertion order that becomes the CSR row order), the
round count and the measured extras must be identical across them, for
the CONGEST builds, the greedy, classic, incremental, Baswana-Sen and
Dinitz-Krauthgamer builds, and the witness-mode report on the greedy spanner.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro

HASH_SEEDS = ("0", "1", "2")

_SCRIPT = """
import json
from repro import build_spanner
from repro.graph import generators
from repro.graph.graph import Graph
from repro.verification import verify_ft_spanner

base = generators.gnp_random_graph(60, 0.15, seed=1)
labels = {
    "str": lambda v: f"v{v}",
    "tuple": lambda v: ("n", v % 7, v),
}
out = {}
for kind, label in labels.items():
    g = Graph()
    g.add_nodes(label(v) for v in base.nodes())
    for u, v, w in base.weighted_edges():
        g.add_edge(label(u), label(v), weight=w)
    for algorithm, params in (
        ("congest", {"k": 2, "f": 2, "seed": 5}),
        ("congest-bs", {"k": 2, "seed": 5}),
        ("greedy", {"k": 2, "f": 2}),
        ("classic", {"k": 2}),
        ("incremental", {"k": 2}),
        ("baswana-sen", {"k": 2, "seed": 5}),
        ("dk", {"k": 2, "f": 1, "seed": 5}),
    ):
        r = build_spanner(g, algorithm, **params)
        out[f"{kind}/{algorithm}"] = [
            repr(list(r.spanner.edges())),
            r.rounds,
            sorted(r.extra.items()),
        ]
        if algorithm == "greedy":
            report = verify_ft_spanner(g, r.spanner, t=3, f=2, mode="witness")
            out[f"{kind}/witness"] = [
                report.ok, report.exhaustive, report.pairs_checked,
                report.pairs_witnessed, report.fault_sets_checked,
            ]
print(json.dumps(out))
"""

BUILDS = (
    "congest", "congest-bs", "greedy", "classic", "incremental",
    "baswana-sen", "dk",
)


def _run_under(hash_seed: str) -> dict:
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT], env=env, check=True,
        capture_output=True, text=True,
    )
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def runs():
    return {seed: _run_under(seed) for seed in HASH_SEEDS}


@pytest.mark.parametrize("label", ["str", "tuple"])
@pytest.mark.parametrize("output", BUILDS + ("witness",))
def test_outputs_equal_across_hash_seeds(runs, label, output):
    key = f"{label}/{output}"
    first = runs[HASH_SEEDS[0]][key]
    if output == "witness":
        ok, _, checked, witnessed, _ = first
        assert ok and 0 < witnessed <= checked
    else:
        edges, rounds, _ = first
        assert edges != "[]"
        assert rounds > 0 if output.startswith("congest") else rounds is None
    for seed in HASH_SEEDS[1:]:
        assert runs[seed][key] == first, (
            f"{key}: PYTHONHASHSEED={seed} differs from "
            f"PYTHONHASHSEED={HASH_SEEDS[0]}"
        )
