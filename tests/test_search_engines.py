"""The weighted search engines: bucket queue, bidirectional, selection.

Property-style differential tests (randomized over fixed seeds, so they
are deterministic) for the three CSR weighted engines:

* **bucket vs heap vs dict** -- on random integer-weight graphs the
  Dial bucket queue must reproduce the heap engine *exactly*: same
  distances, same settle order (push-order tie-breaking), same parent
  arrays, same reconstructed paths -- and both must match the dict
  backend's Dijkstra.  This also holds under :class:`FaultMask`
  re-stamps (the sweep pattern), which is where a stale-entry or
  bucket-clearing bug would surface.
* **bidir vs everything** -- the bidirectional probe returns the same
  s-t distance as the unidirectional engines on integral weights
  (sums are exact regardless of association order), including under
  masks and truncation budgets.
* **selection rules** -- the freeze-time weight profile, the
  profile-keyed engine policy, and the retired ``search=`` keyword
  (a ``TypeError`` on every former entry point).
"""

from __future__ import annotations

import math
import random

import pytest

from repro.applications import (
    FaultTolerantDistanceOracle,
    SpannerRouter,
    availability_analysis,
    degradation_profile,
)
from repro.core.greedy_modified import fault_tolerant_spanner
from repro.dynamic import DynamicSnapshot
from repro.graph import generators
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.graph.snapshot import (
    ENGINE_POLICY,
    CSRSnapshot,
    ScenarioSweep,
    pair_engine,
    path_engine,
    sssp_engine,
    weighted_pair_engine,
)
from repro.graph.traversal import (
    BUCKET_MAX_WEIGHT,
    DijkstraWorkspace,
    csr_bounded_dijkstra_path,
    csr_dijkstra,
    csr_dijkstra_parents,
    csr_weighted_distance,
    dijkstra,
    shortest_path,
    weight_profile,
)
from repro.graph.views import EdgeFaultView, VertexFaultView
from repro.serving import SpannerServer, WorkerPool
from repro.serving.pool import sweep_executor
from repro.session import SpannerSession
from repro.verification import (
    is_spanner,
    max_stretch,
    max_stretch_under_faults,
    pairwise_stretch,
    verify_ft_spanner,
)

INF = math.inf


def _int_weighted(n, p, seed, high=9):
    return generators.with_random_weights(
        generators.gnp_random_graph(n, p, seed=seed),
        low=1.0, high=float(high), seed=seed, integral=True,
    )


def _bidir_graph(kind, seed):
    """A sparse gnp graph (some pairs disconnected) with integral
    weights: all 2 (``"two"``), in {1, 2} (``"one-two"``) or in
    [1, BUCKET_MAX_WEIGHT] (``"wide"``)."""
    rng = random.Random(seed)
    base = generators.gnp_random_graph(26, 0.1, seed=seed)
    g = Graph()
    g.add_nodes(base.nodes())
    for u, v in base.edges():
        if kind == "two":
            w = 2
        elif kind == "one-two":
            w = rng.choice((1, 2))
        else:
            w = rng.randint(1, BUCKET_MAX_WEIGHT)
        g.add_edge(u, v, weight=float(w))
    return g


class TestBucketEngineParity:
    """Bucket vs heap vs dict on random integer-weight graphs (the
    re-stamp test also runs the unit and float rows)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_distances_and_parents_identical(self, seed):
        g = _int_weighted(36, 0.14, seed)
        csr = CSRGraph.from_graph(g)
        nodes = list(csr.indexer)
        ws = DijkstraWorkspace(csr.num_nodes)
        rng = random.Random(seed)
        for _ in range(5):
            src = rng.randrange(len(nodes))
            heap = csr_dijkstra(csr, src, workspace=ws, search="heap")
            bucket = csr_dijkstra(csr, src, workspace=ws, search="bucket")
            assert heap == bucket
            ref = dijkstra(g, nodes[src])
            assert {nodes[i]: d for i, d in bucket.items()} == ref
            ph = csr_dijkstra_parents(csr, src, workspace=ws, search="heap")
            pb = csr_dijkstra_parents(csr, src, workspace=ws,
                                      search="bucket")
            assert ph == pb

    @pytest.mark.parametrize("seed", range(6))
    def test_paths_identical_to_dict(self, seed):
        g = _int_weighted(30, 0.15, seed)
        csr = CSRGraph.from_graph(g)
        nodes = list(csr.indexer)
        ws = DijkstraWorkspace(csr.num_nodes)
        rng = random.Random(100 + seed)
        for _ in range(8):
            a, b = rng.sample(range(len(nodes)), 2)
            ph = csr_bounded_dijkstra_path(csr, a, b, workspace=ws,
                                           search="heap")
            pb = csr_bounded_dijkstra_path(csr, a, b, workspace=ws,
                                           search="bucket")
            assert ph == pb
            ref = shortest_path(g, nodes[a], nodes[b])
            assert (ref is None) == (pb is None)
            if pb is not None:
                assert [nodes[i] for i in pb] == ref

    @pytest.mark.parametrize("profile", ["unit", "int", "float"])
    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    def test_identical_under_fault_mask_restamps(self, profile, fault_model):
        # The sweep pattern: one workspace, many re-stamped scenarios.
        # Any bucket left dirty by a previous call (the early-exit
        # cleanup path) would corrupt a later scenario.  Every kernel
        # legal on the profile runs against the policy sweep's own
        # masks.
        g = generators.gnp_random_graph(32, 0.16, seed=42)
        if profile != "unit":
            g = generators.with_random_weights(
                g, low=1.0, high=9.0, seed=42, integral=profile == "int"
            )
        sssp = ("heap",) if profile == "float" else ("heap", "bucket")
        pair = ("heap",) if profile == "float" else ("heap", "bidir")
        snap = CSRSnapshot(g)
        assert snap.profile == profile
        csr = snap.csr
        index = snap.indexer.index
        label = snap.indexer.node
        sweep = ScenarioSweep(snap)
        ws = DijkstraWorkspace(csr.num_nodes)
        nodes = sorted(g.nodes())
        edges = list(g.edges())
        rng = random.Random(7)
        for trial in range(10):
            if fault_model == "vertex":
                faults = rng.sample(nodes, 3)
                view = VertexFaultView(g, set(faults))
                masks = {"vertex_mask": sweep.set_vertex_faults(faults)}
            else:
                faults = rng.sample(edges, 3)
                view = EdgeFaultView(
                    g, {tuple(sorted(e, key=repr)) for e in faults}
                )
                masks = {"edge_mask": sweep.set_edge_faults(faults)}
            survivors = [x for x in nodes if view.has_node(x)]
            src = rng.choice(survivors)
            ref = dijkstra(view, src)
            assert sweep.distances_from(src) == ref
            for engine in sssp:
                raw = csr_dijkstra(csr, index(src), workspace=ws,
                                   search=engine, **masks)
                assert {label(i): d for i, d in raw.items()} == ref
            for _ in range(4):
                u, v = rng.sample(survivors, 2)
                want = ref if u == src else dijkstra(view, u, target=v)
                expected = want.get(v, INF)
                assert sweep.distance(u, v) == expected
                for engine in pair:
                    assert csr_weighted_distance(
                        csr, index(u), index(v), workspace=ws,
                        search=engine, **masks,
                    ) == expected
            # Parent trees agree across engines and with the sweep.
            trees = [
                csr_dijkstra_parents(csr, index(src), workspace=ws,
                                     search=engine, **masks)
                for engine in sssp
            ]
            assert all(t == trees[0] for t in trees)
            assert sweep.parents_toward(src) == {
                label(i): label(p) for i, p in trees[0].items()
            }

    def test_truncation_budgets_identical(self):
        g = _int_weighted(34, 0.15, seed=3)
        csr = CSRGraph.from_graph(g)
        ws = DijkstraWorkspace(csr.num_nodes)
        rng = random.Random(3)
        for _ in range(20):
            a, b = rng.sample(range(csr.num_nodes), 2)
            budget = float(rng.randint(1, 12))
            dh = csr_weighted_distance(csr, a, b, max_dist=budget,
                                       workspace=ws, search="heap")
            # The bucket engine answers pairs only as a truncated
            # single-source run with the target as its early exit.
            db = csr_dijkstra(csr, a, target=b, max_dist=budget,
                              workspace=ws, search="bucket").get(b, INF)
            d2 = csr_weighted_distance(csr, a, b, max_dist=budget,
                                       workspace=ws, search="bidir")
            assert dh == db == d2

    def test_bucket_rejects_non_integral_weights(self):
        g = Graph()
        g.add_edge(0, 1, weight=1.5)
        csr = CSRGraph.from_graph(g)
        with pytest.raises(ValueError, match="integer"):
            csr_dijkstra(csr, 0, search="bucket")

    def test_unknown_engine_rejected_at_traversal_level(self):
        g = generators.path_graph(4)
        csr = CSRGraph.from_graph(g)
        with pytest.raises(ValueError, match="search"):
            csr_dijkstra(csr, 0, search="dial")
        with pytest.raises(ValueError, match="search"):
            csr_weighted_distance(csr, 0, 2, search="astar")
        with pytest.raises(ValueError, match="search"):
            csr_weighted_distance(csr, 0, 2, search="bucket")  # sssp-only
        with pytest.raises(ValueError, match="search"):
            csr_dijkstra_parents(csr, 0, search="bidir")  # pair-only
        with pytest.raises(ValueError, match="search"):
            csr_bounded_dijkstra_path(csr, 0, 2, search="bidir")


class TestBidirEngine:
    @pytest.mark.parametrize("seed", range(8))
    def test_distances_identical_incl_disconnected(self, seed):
        # Sparse enough that some pairs are disconnected.
        g = _int_weighted(40, 0.05, seed)
        csr = CSRGraph.from_graph(g)
        nodes = list(csr.indexer)
        ws = DijkstraWorkspace(csr.num_nodes)
        rng = random.Random(200 + seed)
        for _ in range(12):
            a, b = rng.sample(range(len(nodes)), 2)
            dh = csr_weighted_distance(csr, a, b, workspace=ws,
                                       search="heap")
            d2 = csr_weighted_distance(csr, a, b, workspace=ws,
                                       search="bidir")
            assert dh == d2
            ref = dijkstra(g, nodes[a], target=nodes[b]).get(nodes[b], INF)
            assert d2 == ref

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("mask", ["none", "vertex", "edge"])
    @pytest.mark.parametrize("kind", ["two", "one-two", "wide"])
    def test_pruned_pushes_keep_every_pair_exact(self, kind, mask, seed):
        # The probe drops relaxations with nd + top_other >= best.  Many
        # equal sums (every weight 2, weights in {1, 2}) and wide
        # weights (up to BUCKET_MAX_WEIGHT) stress that bound; a budget
        # at the exact distance must still find it, one below must not.
        g = _bidir_graph(kind, seed)
        snap = CSRSnapshot(g)
        assert snap.profile == "int"
        csr, index = snap.csr, snap.indexer.index
        sweep = ScenarioSweep(snap)
        rng = random.Random(seed)
        nodes = list(g.nodes())
        view, masks = g, {}
        if mask == "vertex":
            faults = rng.sample(nodes, 3)
            view = VertexFaultView(g, set(faults))
            masks = {"vertex_mask": sweep.set_vertex_faults(faults)}
        elif mask == "edge":
            faults = rng.sample(list(g.edges()), 4)
            view = EdgeFaultView(
                g, {tuple(sorted(e, key=repr)) for e in faults}
            )
            masks = {"edge_mask": sweep.set_edge_faults(faults)}
        survivors = [x for x in nodes if view.has_node(x)]
        ws = DijkstraWorkspace(csr.num_nodes)

        def probe(u, v, budget):
            return csr_weighted_distance(
                csr, index(u), index(v), max_dist=budget, workspace=ws,
                search="bidir", **masks,
            )

        disconnected = 0
        for u in survivors:
            ref = dijkstra(view, u)
            for v in survivors:
                if v == u:
                    continue
                want = ref.get(v, INF)
                assert probe(u, v, None) == want
                if want == INF:
                    disconnected += 1
                    continue
                assert probe(u, v, want) == want
                assert probe(u, v, want - 1) == INF
        assert disconnected

    def test_unit_weights_are_legal(self):
        g = generators.cycle_graph(9)
        csr = CSRGraph.from_graph(g)
        ws = DijkstraWorkspace(csr.num_nodes)
        assert csr_weighted_distance(csr, 0, 4, workspace=ws,
                                     search="bidir") == 4.0


class TestWeightProfile:
    def test_unit(self):
        assert weight_profile([1.0, 1.0]) == ("unit", 1)
        assert weight_profile([]) == ("unit", 1)

    def test_int(self):
        assert weight_profile([1.0, 4.0, 2.0]) == ("int", 4)
        assert weight_profile([float(BUCKET_MAX_WEIGHT)]) == (
            "int", BUCKET_MAX_WEIGHT
        )

    def test_float(self):
        assert weight_profile([1.5])[0] == "float"
        assert weight_profile([0.5])[0] == "float"
        assert weight_profile([1.0, float(BUCKET_MAX_WEIGHT + 1)])[0] \
            == "float"
        assert weight_profile([math.inf])[0] == "float"

    def test_snapshot_detects_profile_at_freeze(self):
        unit = CSRSnapshot(generators.cycle_graph(5))
        assert (unit.profile, unit.max_weight, unit.unit) == ("unit", 1, True)
        ints = CSRSnapshot(_int_weighted(12, 0.4, seed=1))
        assert ints.profile == "int" and ints.max_weight >= 2
        assert not ints.unit
        floats = CSRSnapshot(generators.weighted_gnp(12, 0.4, seed=1))
        assert (floats.profile, floats.max_weight) == ("float", 0)


class TestEnginePolicy:
    def test_policy_table(self):
        assert sssp_engine("unit") == "bfs"
        assert sssp_engine("int") == "bucket"
        assert sssp_engine("float") == "heap"
        assert pair_engine("unit") == "bfs"
        assert pair_engine("int") == "bidir"
        assert pair_engine("float") == "heap"
        assert weighted_pair_engine("unit") == "bidir"
        assert weighted_pair_engine("int") == "bidir"
        assert weighted_pair_engine("float") == "heap"
        assert path_engine("unit") == "bucket"
        assert path_engine("int") == "bucket"
        assert path_engine("float") == "heap"
        assert {p: k["batch"] for p, k in ENGINE_POLICY.items()} == {
            "unit": "bfs", "int": "loop", "float": "loop",
        }

    def test_sweep_unit_bfs_matches_weighted_kernels(self):
        # The unit fast path answers with hop-BFS; the values equal
        # every weighted kernel's.
        snap = CSRSnapshot(generators.cycle_graph(8))
        sweep = ScenarioSweep(snap)
        for v in range(1, 8):
            for engine in ("heap", "bidir"):
                assert sweep.distance(0, v) == csr_weighted_distance(
                    snap.csr, 0, v, search=engine
                )


def _small_pair():
    g = generators.ensure_connected(
        generators.gnp_random_graph(12, 0.3, seed=5), seed=5
    )
    return g, fault_tolerant_spanner(g, 2, 1)


#: Every public entry point that took ``search=`` before the engine
#: choice became the profile-keyed policy.  Each call binds ``search``
#: as an unknown keyword, so it fails before any work (or process
#: spawn) happens.
_RETIRED_SEARCH_CALLS = {
    "SpannerSession": lambda g, r: SpannerSession(g, search="heap"),
    "FaultTolerantDistanceOracle": lambda g, r: FaultTolerantDistanceOracle(
        g, 2, 1, prebuilt=r, search="heap"),
    "SpannerRouter": lambda g, r: SpannerRouter(
        g, 2, 1, prebuilt=r, search="heap"),
    "availability_analysis": lambda g, r: availability_analysis(
        g, r.spanner, 1, 3.0, search="heap"),
    "degradation_profile": lambda g, r: degradation_profile(
        g, r.spanner, 3.0, 1, search="heap"),
    "is_spanner": lambda g, r: is_spanner(g, r.spanner, 3, search="heap"),
    "verify_ft_spanner": lambda g, r: verify_ft_spanner(
        g, r.spanner, 3, 1, search="heap"),
    "pairwise_stretch": lambda g, r: pairwise_stretch(
        g, r.spanner, search="heap"),
    "max_stretch": lambda g, r: max_stretch(g, r.spanner, search="heap"),
    "max_stretch_under_faults": lambda g, r: max_stretch_under_faults(
        g, r.spanner, [0], search="heap"),
    "DynamicSnapshot.sweep": lambda g, r: DynamicSnapshot(g).sweep(
        search="heap"),
    "SpannerServer": lambda g, r: SpannerServer(g, search="heap"),
    "WorkerPool": lambda g, r: WorkerPool("unused", 1, search="heap"),
    "sweep_executor": lambda g, r: sweep_executor("unused", search="heap"),
}


class TestSearchKnobRetired:
    """The engine is execution policy, not an option."""

    @pytest.mark.parametrize("entry", sorted(_RETIRED_SEARCH_CALLS))
    def test_search_keyword_is_rejected(self, entry):
        g, result = _small_pair()
        with pytest.raises(TypeError, match="search"):
            _RETIRED_SEARCH_CALLS[entry](g, result)

    def test_scenario_sweep_keeps_only_auto(self):
        snap = CSRSnapshot(generators.cycle_graph(6))
        for search in (None, "auto"):
            assert ScenarioSweep(snap, search=search).distance(0, 3) == 3.0
        for search in ("heap", "bucket", "bidir", "batch"):
            with pytest.raises(ValueError, match="weight profile"):
                ScenarioSweep(snap, search=search)

    def test_environment_is_ignored(self, monkeypatch):
        # The retired environment switches no longer steer anything.
        monkeypatch.setenv("REPRO_SEARCH", "warp")
        monkeypatch.setenv("REPRO_BATCH_ACCEL", "warp")
        g = generators.weighted_gnp(10, 0.4, seed=8)
        sweep = ScenarioSweep(CSRSnapshot(g))
        assert sweep.distances_multi([0]) == [sweep.distances_from(0)]
