"""Property tests for the multi-source batch kernels (``*_multi`` queries).

The contract under test: a batched query is *bit-identical* to the
sequential per-root queries it replaces -- same keys, same values, same
python types -- across weight profiles, fault scenarios, repeated
roots, disconnected graphs, and both the numpy and stdlib kernel
variants.  The batch kernels are pure execution policy; any observable
difference from the sequential path is a bug.
"""

import os
import random
import subprocess
import sys

import pytest

import repro
from repro.graph import generators, snapshot, traversal
from repro.graph.snapshot import CSRSnapshot, ScenarioSweep
from repro.graph.traversal import HAVE_NUMPY


def _instance(n, p, weights, seed):
    g = generators.gnp_random_graph(n, p, seed=seed)
    if weights != "unit":
        g = generators.with_random_weights(
            g, low=1.0, high=9.0, seed=seed, integral=weights == "int"
        )
    return g


def _sweep_pair(g, faults=(), fault_model="vertex"):
    """Two sweeps on one snapshot: one batched, one queried per root."""
    snap = CSRSnapshot(g)
    batch = ScenarioSweep(snap)
    seq = ScenarioSweep(snap)
    if faults:
        batch.stamp(faults, fault_model)
        seq.stamp(faults, fault_model)
    return batch, seq


class TestBatchEqualsSequential:
    """distances_multi / parents_multi == per-root sequential calls."""

    @pytest.mark.parametrize("weights", ["unit", "int", "float"])
    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    def test_random_graphs_random_faults(self, weights, fault_model):
        rng = random.Random(90)
        for trial in range(12):
            n = rng.choice([8, 25, 60])
            g = _instance(n, rng.choice([0.08, 0.2, 0.4]), weights,
                          seed=trial)
            nodes = sorted(g.nodes())
            universe = nodes if fault_model == "vertex" else list(g.edges())
            faults = rng.sample(
                universe, rng.randint(0, min(4, max(len(universe) - 1, 0)))
            )
            alive = [v for v in nodes
                     if fault_model == "edge" or v not in set(faults)]
            if not alive:
                continue
            roots = rng.sample(alive, rng.randint(1, len(alive)))
            batch, seq = _sweep_pair(g, faults, fault_model)
            dists = batch.distances_multi(roots)
            parents = batch.parents_multi(roots)
            for r, d, p in zip(roots, dists, parents):
                assert d == seq.distances_from(r)
                assert p == seq.parents_toward(r)
                # Bit-identical includes python types (an int key must
                # not come back as a numpy scalar).
                for k, v in d.items():
                    assert type(k) is int
                    assert type(v) is float or type(v) is int
                for k, v in p.items():
                    assert type(k) is int and type(v) is int

    def test_repeated_roots(self):
        g = generators.ensure_connected(
            _instance(30, 0.15, "unit", seed=5), seed=5
        )
        batch, seq = _sweep_pair(g)
        roots = [3, 7, 3, 3, 11, 7]
        dists = batch.distances_multi(roots)
        parents = batch.parents_multi(roots)
        for r, d, p in zip(roots, dists, parents):
            assert d == seq.distances_from(r)
            assert p == seq.parents_toward(r)
        # Duplicates answer independently and identically.
        assert dists[0] == dists[2] == dists[3]
        assert parents[1] == parents[5]

    def test_disconnected_components(self):
        # No ensure_connected: sparse G(n, p) fragments, so batches mix
        # roots whose reachable sets are small islands.
        rng = random.Random(31)
        for trial in range(6):
            g = _instance(50, 0.03, "unit", seed=trial + 70)
            nodes = sorted(g.nodes())
            roots = rng.sample(nodes, 20)
            batch, seq = _sweep_pair(g)
            for r, d in zip(roots, batch.distances_multi(roots)):
                assert d == seq.distances_from(r)
            for r, p in zip(roots, batch.parents_multi(roots)):
                assert p == seq.parents_toward(r)

    def test_empty_batch(self):
        g = _instance(10, 0.3, "unit", seed=2)
        batch, _ = _sweep_pair(g)
        assert batch.distances_multi([]) == []
        assert batch.parents_multi([]) == []

    def test_faulted_root_raises_keyerror(self):
        g = generators.ensure_connected(
            _instance(20, 0.2, "unit", seed=9), seed=9
        )
        batch, seq = _sweep_pair(g, faults=[4])
        with pytest.raises(KeyError):
            batch.distances_multi([0, 4, 1])
        with pytest.raises(KeyError):
            batch.parents_multi([4])
        with pytest.raises(KeyError):
            seq.distances_from(4)  # same contract as the sequential path

    def test_unknown_root_raises_keyerror(self):
        g = _instance(12, 0.3, "unit", seed=1)
        batch, _ = _sweep_pair(g)
        with pytest.raises(KeyError):
            batch.distances_multi([0, "nope"])


class TestAccelVariants:
    """The numpy and stdlib kernels answer identically.

    The kernel is chosen by whether numpy imports, so the tests switch
    it by patching ``traversal.HAVE_NUMPY``.
    """

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not importable")
    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    def test_numpy_matches_stdlib(self, monkeypatch, fault_model):
        rng = random.Random(17)
        for trial in range(6):
            g = _instance(40, rng.choice([0.05, 0.15]), "unit",
                          seed=trial + 40)
            nodes = sorted(g.nodes())
            if fault_model == "vertex":
                faults = rng.sample(nodes, 2)
            else:
                faults = rng.sample(list(g.edges()), 4)
            roots = [v for v in nodes
                     if fault_model == "edge" or v not in set(faults)][:25]

            monkeypatch.setattr(traversal, "HAVE_NUMPY", False)
            batch, _ = _sweep_pair(g, faults, fault_model)
            d_std = batch.distances_multi(roots)
            p_std = batch.parents_multi(roots)

            monkeypatch.setattr(traversal, "HAVE_NUMPY", True)
            batch, _ = _sweep_pair(g, faults, fault_model)
            assert batch.distances_multi(roots) == d_std
            assert batch.parents_multi(roots) == p_std

    def test_stdlib_fallback_is_exact(self, monkeypatch):
        # Without numpy the stdlib loops must not change any answer
        # relative to a sequential sweep.
        monkeypatch.setattr(traversal, "HAVE_NUMPY", False)
        g = generators.ensure_connected(
            _instance(25, 0.2, "unit", seed=3), seed=3
        )
        batch, seq = _sweep_pair(g)
        roots = sorted(g.nodes())
        for r, d in zip(roots, batch.distances_multi(roots)):
            assert d == seq.distances_from(r)
        for r, p in zip(roots, batch.parents_multi(roots)):
            assert p == seq.parents_toward(r)

    @pytest.mark.parametrize("accel", [
        "stdlib",
        pytest.param("numpy", marks=pytest.mark.skipif(
            not HAVE_NUMPY, reason="numpy not importable")),
    ])
    def test_batches_wider_than_a_chunk_are_exact(self, monkeypatch, accel):
        # A batch wider than BATCH_ROOT_LIMIT roots (the numpy kernel:
        # NUMPY_BATCH_CELLS // n, if wider) runs chunk by chunk.  Shrink
        # both so 23 roots span six chunks, the last one ragged.
        monkeypatch.setattr(traversal, "HAVE_NUMPY", accel == "numpy")
        monkeypatch.setattr(snapshot, "BATCH_ROOT_LIMIT", 4)
        monkeypatch.setattr(snapshot, "NUMPY_BATCH_CELLS", 1)
        g = generators.ensure_connected(
            _instance(25, 0.2, "unit", seed=3), seed=3
        )
        batch, seq = _sweep_pair(g, faults=[5], fault_model="vertex")
        roots = [v for v in sorted(g.nodes()) if v != 5][:23]
        assert batch.distances_multi(roots) == \
            [seq.distances_from(r) for r in roots]
        assert batch.parents_multi(roots) == \
            [seq.parents_toward(r) for r in roots]

    def test_resolve_batch_accel_follows_numpy(self, monkeypatch):
        monkeypatch.setattr(traversal, "HAVE_NUMPY", False)
        assert traversal.resolve_batch_accel() == "stdlib"
        if HAVE_NUMPY:
            monkeypatch.setattr(traversal, "HAVE_NUMPY", True)
            assert traversal.resolve_batch_accel() == "numpy"

    def test_import_repro_leaves_numpy_unimported(self):
        # numpy is imported by the kernel on first use, not by
        # ``import repro`` (every CLI call would pay for it).
        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = (
            "import sys, repro, repro.cli, repro.serving\n"
            "from repro.graph.traversal import resolve_batch_accel\n"
            "print('numpy' in sys.modules, resolve_batch_accel())\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            capture_output=True, text=True,
        ).stdout.split()
        assert out == ["False", "numpy" if HAVE_NUMPY else "stdlib"]
