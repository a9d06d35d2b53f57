"""The snapshot/sweep query-engine substrate (repro.graph.snapshot).

The load-bearing property here is the same one the greedy family rests
on: every :class:`ScenarioSweep` query must return *exactly* what the
dict backend returns over the corresponding lazy fault view -- same
distances bit for bit, same paths node for node, same parent trees --
across many re-stamped scenarios on one shared snapshot.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.graph import generators
from repro.graph.graph import Graph
from repro.graph.snapshot import CSRSnapshot, DualCSRSnapshot, ScenarioSweep
from repro.graph.traversal import dijkstra, shortest_path
from repro.graph.views import EdgeFaultView, VertexFaultView

INFINITY = math.inf


def _graph(weighted: bool, seed: int = 404, n: int = 28, p: float = 0.2):
    gen = generators.weighted_gnp if weighted else generators.gnp_random_graph
    return generators.ensure_connected(gen(n, p, seed=seed), seed=seed)


class TestCSRSnapshot:
    def test_snapshot_attributes(self, small_gnp):
        snap = CSRSnapshot(small_gnp)
        assert snap.csr.num_nodes == small_gnp.num_nodes
        assert snap.csr.num_edges == small_gnp.num_edges
        assert snap.unit is True
        assert len(snap.indexer) == small_gnp.num_nodes

    def test_weighted_snapshot_not_unit(self, weighted_gnp_graph):
        assert CSRSnapshot(weighted_gnp_graph).unit is False

    def test_shared_indexer(self, small_gnp):
        snap = CSRSnapshot(small_gnp)
        again = CSRSnapshot(small_gnp, indexer=snap.indexer)
        assert again.indexer is snap.indexer


@pytest.mark.parametrize("weighted", [False, True])
class TestScenarioSweepParity:
    """One sweep, many scenarios vs fresh dict views every time."""

    def test_vertex_fault_scenarios(self, weighted):
        g = _graph(weighted)
        sweep = ScenarioSweep(g)
        rng = random.Random(1)
        nodes = sorted(g.nodes())
        for trial in range(15):
            faults = set(rng.sample(nodes, rng.randint(0, 3)))
            sweep.set_vertex_faults(faults)
            view = VertexFaultView(g, faults) if faults else g
            alive = [x for x in nodes if x not in faults]
            s = rng.choice(alive)
            assert sweep.distances_from(s) == dijkstra(view, s)
            for _ in range(5):
                u, v = rng.sample(alive, 2)
                expect = dijkstra(view, u, target=v).get(v, INFINITY)
                assert sweep.distance(u, v) == expect
                assert sweep.path(u, v) == shortest_path(view, u, v)

    def test_edge_fault_scenarios(self, weighted):
        g = _graph(weighted)
        sweep = ScenarioSweep(g)
        rng = random.Random(2)
        nodes = sorted(g.nodes())
        edges = list(g.edges())
        for trial in range(15):
            faults = set(rng.sample(edges, rng.randint(0, 3)))
            sweep.set_edge_faults(faults)
            view = EdgeFaultView(g, faults) if faults else g
            for _ in range(5):
                u, v = rng.sample(nodes, 2)
                expect = dijkstra(view, u, target=v).get(v, INFINITY)
                assert sweep.distance(u, v) == expect
                assert sweep.path(u, v) == shortest_path(view, u, v)

    def test_parents_toward(self, weighted):
        from tests.reference import dijkstra_parents as _dijkstra_parents

        g = _graph(weighted)
        sweep = ScenarioSweep(g)
        rng = random.Random(3)
        nodes = sorted(g.nodes())
        for trial in range(12):
            faults = set(rng.sample(nodes, rng.randint(0, 3)))
            sweep.set_vertex_faults(faults)
            view = VertexFaultView(g, faults) if faults else g
            root = rng.choice([x for x in nodes if x not in faults])
            assert sweep.parents_toward(root) == _dijkstra_parents(view, root)


class TestScenarioSweepSemantics:
    def test_distance_to_self(self, small_gnp):
        sweep = ScenarioSweep(small_gnp)
        assert sweep.distance(0, 0) == 0.0

    def test_unknown_source_raises(self, small_gnp):
        sweep = ScenarioSweep(small_gnp)
        with pytest.raises(KeyError):
            sweep.distance(999, 0)
        with pytest.raises(KeyError):
            sweep.distances_from(999)
        with pytest.raises(KeyError):
            sweep.parents_toward(999)

    def test_faulted_source_raises_like_view(self, small_gnp):
        sweep = ScenarioSweep(small_gnp)
        sweep.set_vertex_faults({0})
        with pytest.raises(KeyError):
            sweep.distances_from(0)

    def test_unknown_or_faulted_target_is_unreachable(self, small_gnp):
        sweep = ScenarioSweep(small_gnp)
        assert sweep.distance(0, 999) == INFINITY
        sweep.set_vertex_faults({5})
        assert sweep.distance(0, 5) == INFINITY

    def test_clear_faults_restores_fault_free(self, small_gnp):
        sweep = ScenarioSweep(small_gnp)
        base = sweep.distances_from(0)
        sweep.set_vertex_faults({1, 2})
        assert sweep.distances_from(0) != base
        sweep.clear_faults()
        assert sweep.distances_from(0) == base

    def test_switching_fault_models_resets_the_other(self, small_gnp):
        g = small_gnp
        sweep = ScenarioSweep(g)
        base = sweep.distances_from(0)
        sweep.set_vertex_faults({1})
        edge = next(iter(g.edges()))
        sweep.set_edge_faults({edge})
        # Vertex faults from the previous scenario must be gone.
        view = EdgeFaultView(g, {edge})
        assert sweep.distances_from(0) == dijkstra(view, 0)
        sweep.set_vertex_faults(set())
        assert sweep.distances_from(0) == base

    def test_stamp_dispatches_by_fault_model(self, small_gnp):
        g = small_gnp
        sweep = ScenarioSweep(g)
        base = sweep.distances_from(0)
        sweep.stamp({1}, "vertex")
        assert sweep.distances_from(0) == dijkstra(VertexFaultView(g, {1}), 0)
        edge = next(iter(g.edges()))
        sweep.stamp({edge}, "edge")
        assert sweep.distances_from(0) == dijkstra(EdgeFaultView(g, {edge}), 0)
        sweep.stamp((), "vertex")  # empty: back to fault-free
        assert sweep.distances_from(0) == base
        with pytest.raises(ValueError, match="fault model"):
            sweep.stamp({1}, "both")

    def test_unknown_faults_ignored(self, small_gnp):
        sweep = ScenarioSweep(small_gnp)
        base = sweep.distances_from(0)
        sweep.set_vertex_faults({"nope"})
        assert sweep.distances_from(0) == base
        sweep.set_edge_faults({("nope", "nah"), (0, 999)})
        assert sweep.distances_from(0) == base

    def test_accepts_prebuilt_snapshot(self, small_gnp):
        snap = CSRSnapshot(small_gnp)
        a = ScenarioSweep(snap)
        b = ScenarioSweep(snap)
        assert a.snap is b.snap
        assert a.distances_from(0) == b.distances_from(0)

    def test_unit_distances_are_floats(self, small_gnp):
        sweep = ScenarioSweep(small_gnp)
        for value in sweep.distances_from(0).values():
            assert isinstance(value, float)


class TestDualCSRSnapshot:
    def test_shared_index_space(self, small_gnp):
        from repro.core.greedy_modified import fault_tolerant_spanner

        h = fault_tolerant_spanner(small_gnp, 2, 1).spanner
        snap = DualCSRSnapshot(small_gnp, h)
        assert snap.indexer is snap.snap_g.indexer
        assert snap.csr_h.indexer is snap.indexer
        # One vertex mask is valid against both graphs.
        mask = snap.set_vertex_faults([0, 3])
        assert mask is snap.vmask
        assert snap.indexer.index(0) in mask

    def test_edge_faults_split_per_graph(self, path5):
        h = Graph([(0, 1), (1, 2), (2, 3), (3, 4)])
        g = Graph(list(path5.edges()) + [])
        snap = DualCSRSnapshot(g, h)
        mask_g, mask_h = snap.set_edge_faults([(0, 1), (7, 8)])
        assert snap.csr_g.edge_id(
            snap.indexer.index(0), snap.indexer.index(1)
        ) in mask_g
        # Unknown edges were ignored without error.
        assert len(mask_g.members) == 1 and len(mask_h.members) == 1
