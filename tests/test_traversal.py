"""Traversal primitives, cross-validated against networkx."""

from __future__ import annotations

import math
import random

import networkx as nx
import pytest

from repro.graph import generators
from repro.graph.csr import CSRGraph, FaultMask
from repro.graph.graph import Graph, edge_key
from repro.graph.index import NodeIndexer
from repro.graph.traversal import (
    BFSWorkspace,
    bfs_distances,
    bfs_tree,
    bounded_bfs_path,
    connected_components,
    csr_bounded_bfs_path,
    csr_bounded_bfs_path_edges,
    dijkstra,
    eccentricity,
    hop_diameter,
    hop_distance,
    is_connected,
    shortest_path,
    weighted_distance,
)
from repro.graph.views import EdgeFaultView, VertexFaultView


class TestBFS:
    def test_distances_on_path(self):
        g = generators.path_graph(5)
        assert bfs_distances(g, 0) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_distances_respect_max_hops(self):
        g = generators.path_graph(10)
        dist = bfs_distances(g, 0, max_hops=3)
        assert max(dist.values()) == 3
        assert set(dist) == {0, 1, 2, 3}

    def test_unreachable_absent(self):
        g = Graph([(1, 2)])
        g.add_node(3)
        assert 3 not in bfs_distances(g, 1)

    def test_missing_source_raises(self):
        with pytest.raises(KeyError):
            bfs_distances(Graph(), 1)

    def test_matches_networkx(self):
        g = generators.gnp_random_graph(40, 0.1, seed=5)
        nxg = g.to_networkx()
        ours = bfs_distances(g, 0)
        theirs = nx.single_source_shortest_path_length(nxg, 0)
        assert ours == dict(theirs)

    def test_bfs_tree_parents_consistent(self):
        g = generators.gnp_random_graph(30, 0.15, seed=6)
        parent = bfs_tree(g, 0)
        dist = bfs_distances(g, 0)
        for v, p in parent.items():
            if p is None:
                assert v == 0
            else:
                assert dist[v] == dist[p] + 1
                assert g.has_edge(v, p)


class TestBoundedBFSPath:
    def test_finds_short_path(self):
        g = generators.cycle_graph(8)
        path = bounded_bfs_path(g, 0, 3, max_hops=3)
        assert path == [0, 1, 2, 3]

    def test_respects_budget(self):
        g = generators.path_graph(6)
        assert bounded_bfs_path(g, 0, 5, max_hops=4) is None
        assert bounded_bfs_path(g, 0, 5, max_hops=5) == [0, 1, 2, 3, 4, 5]

    def test_same_node(self):
        g = generators.path_graph(3)
        assert bounded_bfs_path(g, 1, 1, max_hops=0) == [1]

    def test_zero_budget_distinct(self):
        g = generators.path_graph(3)
        assert bounded_bfs_path(g, 0, 1, max_hops=0) is None

    def test_on_vertex_fault_view(self):
        g = generators.cycle_graph(6)  # 0-1-2-3-4-5-0
        view = VertexFaultView(g, {1})
        path = bounded_bfs_path(view, 0, 2, max_hops=6)
        assert path == [0, 5, 4, 3, 2]

    def test_on_edge_fault_view(self):
        g = generators.cycle_graph(4)
        view = EdgeFaultView(g, [(0, 1)])
        path = bounded_bfs_path(view, 0, 1, max_hops=4)
        assert path == [0, 3, 2, 1]

    def test_disconnected_returns_none(self):
        g = Graph([(1, 2)])
        g.add_node(3)
        assert bounded_bfs_path(g, 1, 3, max_hops=10) is None

    def test_path_is_shortest_in_hops(self):
        g = generators.gnp_random_graph(30, 0.2, seed=7)
        nxg = g.to_networkx()
        for u, v in [(0, 10), (3, 25), (5, 17)]:
            try:
                expected = nx.shortest_path_length(nxg, u, v)
            except nx.NetworkXNoPath:
                continue
            path = bounded_bfs_path(g, u, v, max_hops=g.num_nodes)
            assert path is not None
            assert len(path) - 1 == expected


class TestCSRBoundedPathDifferential:
    """``csr_bounded_bfs_path{,_edges}`` against the dict
    :func:`bounded_bfs_path` on fault views: same path, node for node,
    and the ids of the edges it walks.  The CSR search stops one level
    early and meets the target's neighbourhood; these cases pin that it
    still returns the BFS parent chain."""

    BUDGETS = (1, 2, 3, 4, 5, 6, math.inf)

    @staticmethod
    def _frozen(g):
        indexer = NodeIndexer.from_graph(g)
        return indexer, CSRGraph.from_graph(g, indexer)

    def _check(self, g, faults, model, pairs, budgets=BUDGETS):
        indexer, csr = self._frozen(g)
        index, node = indexer.index, indexer.node
        ws = BFSWorkspace()
        vmask = emask = None
        if model == "vertex":
            view = VertexFaultView(g, faults)
            vmask = FaultMask(csr.num_nodes)
            vmask.add_all(index(x) for x in faults)
        elif model == "edge":
            view = EdgeFaultView(g, faults)
            emask = FaultMask(csr.num_edges)
            emask.add_all(csr.edge_id(index(a), index(b)) for a, b in faults)
        else:
            view = g
        for s, t in pairs:
            for hops in budgets:
                want = bounded_bfs_path(view, s, t, max_hops=hops)
                got = csr_bounded_bfs_path(
                    csr, index(s), index(t), hops, ws,
                    vertex_mask=vmask, edge_mask=emask,
                )
                got_edges = csr_bounded_bfs_path_edges(
                    csr, index(s), index(t), hops, ws,
                    vertex_mask=vmask, edge_mask=emask,
                )
                if want is None:
                    assert got is None and got_edges is None, (s, t, hops)
                    continue
                assert [node(i) for i in got] == want, (s, t, hops)
                nodes, eids = got_edges
                assert nodes == got
                assert eids == [
                    csr.edge_id(index(a), index(b))
                    for a, b in zip(want, want[1:])
                ]

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("model", [None, "vertex", "edge"])
    def test_random_graphs_and_masks(self, seed, model):
        rng = random.Random(seed)
        g = generators.gnp_random_graph(
            rng.randint(18, 40), rng.choice([0.06, 0.1, 0.18]), seed=seed
        )
        nodes = sorted(g.nodes())
        edges = sorted(edge_key(u, v) for u, v in g.edges())
        for _ in range(4):
            s, t = rng.sample(nodes, 2)
            if model == "vertex":
                pool = [x for x in nodes if x not in (s, t)]
                faults = rng.sample(pool, rng.randint(0, len(pool) // 4))
            elif model == "edge":
                faults = rng.sample(edges, rng.randint(0, len(edges) // 3))
            else:
                faults = []
            live = [x for x in nodes if x != s and x not in faults]
            pairs = [(s, t)] + [(s, x) for x in rng.sample(live, 6)]
            self._check(g, faults, model, pairs)

    def test_target_adjacent_to_frontier(self):
        # 0 -> {1, 2} -> 3: the target's neighbours 1 and 2 both sit on
        # the depth-1 frontier; the first in queue order is the parent.
        g = Graph([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (2, 5)])
        self._check(g, [], None, [(0, 3), (0, 4), (5, 3), (4, 0)])
        self._check(g, [1], "vertex", [(0, 3), (0, 4)])
        self._check(g, [(1, 3)], "edge", [(0, 3), (0, 4)])

    def test_first_discovery_wins_two_levels_out(self):
        # Depth-1 nodes 1, 2; depth-2 nodes 3 (via 1) and 4 (via 2);
        # both reach the target 9.  2's row lists 3 before 4, but 3 was
        # discovered by 1 first, so the path runs 0-1-3-9.
        g = Graph([(0, 1), (0, 2), (2, 3), (1, 3), (2, 4), (3, 9), (4, 9)])
        self._check(g, [], None, [(0, 9)])
        self._check(g, [1], "vertex", [(0, 9)])
        self._check(g, [(3, 9)], "edge", [(0, 9)])

    def test_isolated_target(self):
        g = generators.cycle_graph(6)
        g.add_node(99)
        self._check(g, [], None, [(0, 99), (99, 0)])
        self._check(g, [1], "vertex", [(0, 99)])

    def test_every_near_edge_faulted(self):
        g = generators.gnp_random_graph(20, 0.3, seed=4)
        t = 7
        incident = [edge_key(t, x) for x in g.neighbors(t)]
        pairs = [(s, t) for s in (0, 3, 11) if not g.has_edge(s, t)]
        assert len(pairs) >= 2
        self._check(g, incident, "edge", pairs)
        self._check(g, list(g.neighbors(t)), "vertex", pairs)
        assert all(
            bounded_bfs_path(EdgeFaultView(g, incident), s, t, 20) is None
            for s, _ in pairs
        )

    def test_non_integral_budget_acts_as_its_floor(self):
        # Pinned behaviour of the CSR search: 2.5 hops act as 2, 1.5 as
        # 1 and 0.5 as 0 (the dict search rounds up instead).
        indexer, csr = self._frozen(generators.path_graph(5))
        assert csr_bounded_bfs_path(csr, 0, 2, 2.5) == [0, 1, 2]
        assert csr_bounded_bfs_path(csr, 0, 3, 2.5) is None
        assert csr_bounded_bfs_path(csr, 0, 1, 1.5) == [0, 1]
        assert csr_bounded_bfs_path(csr, 0, 2, 1.5) is None
        assert csr_bounded_bfs_path(csr, 0, 1, 0.5) is None
        assert csr_bounded_bfs_path(csr, 0, 3, 3.5) == [0, 1, 2, 3]
        assert csr_bounded_bfs_path_edges(csr, 0, 3, 2.5) is None
        assert csr_bounded_bfs_path_edges(csr, 0, 2, 2.5) == (
            [0, 1, 2], [csr.edge_id(0, 1), csr.edge_id(1, 2)]
        )


class TestHopDistance:
    def test_basic(self):
        g = generators.path_graph(4)
        assert hop_distance(g, 0, 3) == 3
        assert hop_distance(g, 2, 2) == 0

    def test_disconnected_is_inf(self):
        g = Graph([(1, 2)])
        g.add_node(3)
        assert hop_distance(g, 1, 3) == math.inf


class TestDijkstra:
    def test_weighted_distances(self):
        g = Graph([(1, 2, 1.0), (2, 3, 1.0), (1, 3, 5.0)])
        dist = dijkstra(g, 1)
        assert dist[3] == 2.0

    def test_early_stop_at_target(self):
        g = generators.path_graph(100)
        dist = dijkstra(g, 0, target=3)
        assert dist[3] == 3.0
        # Early termination: far nodes unexplored.
        assert 99 not in dist

    def test_max_dist_prunes(self):
        g = generators.path_graph(10)
        dist = dijkstra(g, 0, max_dist=4.0)
        assert set(dist) == {0, 1, 2, 3, 4}

    def test_matches_networkx_weighted(self):
        g = generators.weighted_gnp(35, 0.2, seed=11)
        nxg = g.to_networkx()
        ours = dijkstra(g, 0)
        theirs = nx.single_source_dijkstra_path_length(nxg, 0)
        assert set(ours) == set(theirs)
        for v in ours:
            assert ours[v] == pytest.approx(theirs[v])

    def test_weighted_distance_disconnected(self):
        g = Graph([(1, 2, 1.0)])
        g.add_node(3)
        assert weighted_distance(g, 1, 3) == math.inf


class TestShortestPath:
    def test_prefers_light_path(self):
        g = Graph([(1, 2, 1.0), (2, 3, 1.0), (1, 3, 5.0)])
        assert shortest_path(g, 1, 3) == [1, 2, 3]

    def test_same_node(self):
        g = Graph([(1, 2)])
        assert shortest_path(g, 1, 1) == [1]

    def test_none_when_disconnected(self):
        g = Graph([(1, 2)])
        g.add_node(3)
        assert shortest_path(g, 1, 3) is None

    def test_path_weight_matches_networkx(self):
        g = generators.weighted_gnp(30, 0.25, seed=13)
        nxg = g.to_networkx()
        for u, v in [(0, 10), (5, 20), (3, 29)]:
            path = shortest_path(g, u, v)
            expected = nx.dijkstra_path_length(nxg, u, v)
            total = sum(
                g.weight(a, b) for a, b in zip(path, path[1:])
            )
            assert total == pytest.approx(expected)

    def test_missing_endpoint_raises(self):
        g = Graph([(1, 2)])
        with pytest.raises(KeyError):
            shortest_path(g, 1, 99)


class TestConnectivity:
    def test_components(self):
        g = Graph([(1, 2), (3, 4)])
        g.add_node(5)
        comps = connected_components(g)
        assert sorted(sorted(c) for c in comps) == [[1, 2], [3, 4], [5]]

    def test_is_connected(self):
        assert is_connected(generators.cycle_graph(5))
        assert is_connected(Graph())
        g = Graph([(1, 2)])
        g.add_node(3)
        assert not is_connected(g)

    def test_eccentricity_and_diameter(self):
        g = generators.path_graph(5)
        assert eccentricity(g, 0) == 4
        assert eccentricity(g, 2) == 2
        assert hop_diameter(g) == 4

    def test_diameter_disconnected_inf(self):
        g = Graph([(1, 2)])
        g.add_node(3)
        assert hop_diameter(g) == math.inf
