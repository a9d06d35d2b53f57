"""The flat-array (CSR) backend: indexer, CSR structures, masks, BFS.

The load-bearing tests here are the property tests asserting that a BFS
over ``CSRGraph`` + fault masks returns *exactly* the same path (node
for node) as the dict backend over the corresponding fault view -- the
invariant the backend-parity guarantee of the greedy family rests on.
"""

from __future__ import annotations

import random

import pytest

from repro.graph import generators
from repro.graph.csr import CSRBuilder, CSRGraph, FaultMask
from repro.graph.graph import Graph
from repro.graph.index import NodeIndexer
from repro.graph.traversal import (
    BFSWorkspace,
    bfs_distances,
    bounded_bfs_path,
    csr_bfs_distances,
    csr_bounded_bfs_path,
    csr_bounded_bfs_path_edges,
)
from repro.graph.views import EdgeFaultView, VertexFaultView


class TestNodeIndexer:
    def test_assigns_dense_indices_in_first_seen_order(self):
        ix = NodeIndexer(["a", "b", "c"])
        assert [ix.index(u) for u in "abc"] == [0, 1, 2]
        assert list(ix) == ["a", "b", "c"]

    def test_add_is_idempotent(self):
        ix = NodeIndexer()
        assert ix.add("x") == 0
        assert ix.add("y") == 1
        assert ix.add("x") == 0
        assert len(ix) == 2

    def test_roundtrip(self):
        ix = NodeIndexer(range(10, 20))
        for u in range(10, 20):
            assert ix.node(ix.index(u)) == u
        assert ix.nodes_of([0, 2]) == [10, 12]

    def test_unknown_node_raises(self):
        ix = NodeIndexer(["a"])
        with pytest.raises(KeyError):
            ix.index("b")
        assert ix.get("b") is None
        assert "a" in ix and "b" not in ix

    def test_from_graph_preserves_iteration_order(self):
        g = Graph([("w", "x"), ("y", "z"), ("x", "y")])
        ix = NodeIndexer.from_graph(g)
        assert list(ix) == list(g.nodes())


class TestFaultMask:
    def test_membership(self):
        m = FaultMask(5)
        m.add(2)
        assert 2 in m and 3 not in m
        assert m.members == [2]

    def test_clear_is_complete(self):
        m = FaultMask(5)
        m.add_all([0, 1, 4])
        m.clear()
        assert all(i not in m for i in range(5))
        assert m.members == []

    def test_generation_wrap(self):
        # The 1-byte stamp space wraps every 255 clears; membership must
        # stay exact across many wraps.
        m = FaultMask(4)
        for i in range(1000):
            m.clear()
            m.add(i % 4)
            assert (i % 4) in m
            assert ((i + 1) % 4) not in m

    def test_ensure_grows(self):
        m = FaultMask(2)
        m.ensure(6)
        m.add(5)
        assert 5 in m


class TestCSRGraph:
    def test_structure_matches_graph(self):
        g = Graph([(1, 2, 2.0), (2, 3, 5.0), (1, 3, 1.0)])
        csr = CSRGraph.from_graph(g)
        ix = csr.indexer
        assert csr.num_nodes == 3
        assert csr.num_edges == 3
        for u in g.nodes():
            ui = ix.index(u)
            assert csr.degree(ui) == g.degree(u)
            nbrs = [ix.node(v) for v in csr.neighbors[ui]]
            assert nbrs == list(g.neighbors(u))
        for u, v, w in g.weighted_edges():
            eid = csr.edge_id(ix.index(u), ix.index(v))
            assert csr.weights[eid] == w

    def test_edge_endpoints_canonical(self):
        g = Graph([(5, 3), (3, 9)])
        csr = CSRGraph.from_graph(g)
        for e in range(csr.num_edges):
            assert csr.edge_u[e] < csr.edge_v[e]

    def test_has_edge_and_missing_edge_id(self):
        g = Graph([(0, 1)])
        csr = CSRGraph.from_graph(g)
        assert csr.has_edge(0, 1) and csr.has_edge(1, 0)
        assert not csr.has_edge(0, 0)
        with pytest.raises(KeyError):
            csr.edge_id(0, 0)

    def test_reuses_supplied_indexer(self):
        ix = NodeIndexer(["ghost"])  # index 0 not in the graph
        g = Graph([("a", "b")])
        csr = CSRGraph.from_graph(g, indexer=ix)
        assert csr.num_nodes == 3
        assert csr.degree(0) == 0  # the ghost node is isolated
        assert csr.indexer is ix


class TestCSRBuilder:
    def test_mirrors_graph_insertion_order(self):
        gb = Graph()
        gb.add_nodes(range(6))
        b = CSRBuilder(6)
        for u, v in [(0, 1), (1, 2), (0, 3), (3, 4), (2, 5), (1, 4)]:
            gb.add_edge(u, v)
            b.add_edge(u, v)
        for u in range(6):
            assert list(b.neighbors[u]) == list(gb.neighbors(u))

    def test_readd_overwrites_weight(self):
        b = CSRBuilder(3)
        e = b.add_edge(0, 1, 2.0)
        assert b.add_edge(1, 0, 7.0) == e
        assert b.weights[e] == 7.0
        assert b.num_edges == 1

    def test_self_loop_rejected(self):
        b = CSRBuilder(2)
        with pytest.raises(ValueError):
            b.add_edge(1, 1)

    def test_add_node_and_ensure_nodes(self):
        b = CSRBuilder()
        assert b.add_node() == 0
        b.ensure_nodes(4)
        assert b.num_nodes == 4
        b.add_edge(0, 3)
        assert b.degree(3) == 1

    def test_repack_preserves_everything(self):
        b = CSRBuilder(5)
        for u, v, w in [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (0, 4, 4.0)]:
            b.add_edge(u, v, w)
        frozen = b.repack()
        assert frozen.num_nodes == b.num_nodes
        assert frozen.num_edges == b.num_edges
        assert list(frozen.weights) == list(b.weights)
        for u in range(5):
            assert list(frozen.neighbors[u]) == list(b.neighbors[u])
            assert list(frozen.edge_id_rows[u]) == list(b.edge_id_rows[u])

    def test_bfs_agrees_between_builder_and_repacked(self):
        b = CSRBuilder(6)
        for u, v in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]:
            b.add_edge(u, v)
        ws = BFSWorkspace(6)
        assert (
            csr_bounded_bfs_path(b, 0, 3, 6, ws)
            == csr_bounded_bfs_path(b.repack(), 0, 3, 6, ws)
        )

    def test_repack_leaves_the_builder_appendable(self):
        b = CSRBuilder(5)
        for u, v, w in [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (0, 4, 4.0)]:
            b.add_edge(u, v, w)
        frozen = b.repack()
        # Still a live builder after repacking; the frozen copy is not
        # touched by later insertions.
        b.add_edge(3, 4, 5.0)
        assert b.has_edge(3, 4) and b.num_edges == 5
        assert frozen.num_edges == 4
        assert list(frozen.neighbors[4]) == [0]
        ws = BFSWorkspace(5)
        assert csr_bounded_bfs_path(b, 0, 3, 5, ws) is not None


class TestCSRTraversalBasics:
    def test_trivial_cases(self):
        g = Graph([(0, 1)])
        csr = CSRGraph.from_graph(g)
        assert csr_bounded_bfs_path(csr, 0, 0, 3) == [0]
        assert csr_bounded_bfs_path(csr, 0, 1, 0) is None
        with pytest.raises(KeyError):
            csr_bounded_bfs_path(csr, 0, 7, 3)

    def test_faulted_terminal_raises(self):
        g = Graph([(0, 1), (1, 2)])
        csr = CSRGraph.from_graph(g)
        mask = csr.vertex_mask([0])
        with pytest.raises(KeyError):
            csr_bounded_bfs_path(csr, 0, 2, 3, vertex_mask=mask)

    def test_path_edges_variant_returns_matching_ids(self):
        g = Graph([(0, 1), (1, 2), (2, 3)])
        csr = CSRGraph.from_graph(g)
        nodes, eids = csr_bounded_bfs_path_edges(csr, 0, 3, 5)
        assert nodes == [0, 1, 2, 3]
        assert eids == [csr.edge_id(a, b) for a, b in zip(nodes, nodes[1:])]

    def test_distances_without_workspace(self):
        g = Graph([(0, 1), (1, 2), (2, 3)])
        csr = CSRGraph.from_graph(g)
        assert csr_bfs_distances(csr, 0) == {0: 0, 1: 1, 2: 2, 3: 3}
        assert csr_bfs_distances(csr, 0, max_hops=1) == {0: 0, 1: 1}


# ------------------------------------------------------------------ #
# Property tests: CSR + mask == dict + view, node for node
# ------------------------------------------------------------------ #


def _random_instance(seed):
    rng = random.Random(seed)
    n = rng.randint(12, 48)
    p = rng.uniform(0.05, 0.25)
    g = generators.gnp_random_graph(n, p, seed=seed)
    return rng, g


@pytest.mark.parametrize("seed", range(8))
def test_vertex_fault_mask_bfs_matches_view(seed):
    rng, g = _random_instance(seed)
    csr = CSRGraph.from_graph(g)
    ix = csr.indexer
    ws = BFSWorkspace(csr.num_nodes, csr.num_edges)
    nodes = list(g.nodes())
    for _ in range(60):
        s, t = rng.sample(nodes, 2)
        pool = [x for x in nodes if x not in (s, t)]
        faults = set(rng.sample(pool, rng.randint(0, min(6, len(pool)))))
        hops = rng.randint(1, g.num_nodes)
        view = VertexFaultView(g, faults) if faults else g
        expected = bounded_bfs_path(view, s, t, hops)
        mask = csr.vertex_mask(faults, mask=ws.vertex_mask)
        got = csr_bounded_bfs_path(
            csr, ix.index(s), ix.index(t), hops, ws, vertex_mask=mask
        )
        got_nodes = None if got is None else ix.nodes_of(got)
        assert expected == got_nodes, (s, t, hops, sorted(map(repr, faults)))


@pytest.mark.parametrize("seed", range(8))
def test_edge_fault_mask_bfs_matches_view(seed):
    rng, g = _random_instance(seed)
    if g.num_edges == 0:
        pytest.skip("empty random instance")
    csr = CSRGraph.from_graph(g)
    ix = csr.indexer
    ws = BFSWorkspace(csr.num_nodes, csr.num_edges)
    nodes = list(g.nodes())
    edges = list(g.edges())
    for _ in range(60):
        s, t = rng.sample(nodes, 2)
        faults = set(rng.sample(edges, rng.randint(0, min(8, len(edges)))))
        hops = rng.randint(1, g.num_nodes)
        view = EdgeFaultView(g, faults) if faults else g
        expected = bounded_bfs_path(view, s, t, hops)
        mask = csr.edge_mask(faults, mask=ws.edge_mask)
        got = csr_bounded_bfs_path(
            csr, ix.index(s), ix.index(t), hops, ws, edge_mask=mask
        )
        got_nodes = None if got is None else ix.nodes_of(got)
        assert expected == got_nodes, (s, t, hops, sorted(faults))


@pytest.mark.parametrize("seed", range(4))
def test_bfs_distances_match_views(seed):
    rng, g = _random_instance(seed)
    csr = CSRGraph.from_graph(g)
    ix = csr.indexer
    ws = BFSWorkspace(csr.num_nodes, csr.num_edges)
    nodes = list(g.nodes())
    edges = list(g.edges())
    for _ in range(25):
        s = rng.choice(nodes)
        hops = rng.choice([None, rng.randint(1, 6)])
        faults = set(
            rng.sample([x for x in nodes if x != s], rng.randint(0, 4))
        )
        view = VertexFaultView(g, faults) if faults else g
        expected = bfs_distances(view, s, max_hops=hops)
        mask = csr.vertex_mask(faults, mask=ws.vertex_mask)
        got = csr_bfs_distances(
            csr, ix.index(s), max_hops=hops, workspace=ws, vertex_mask=mask
        )
        assert expected == {ix.node(i): d for i, d in got.items()}
        if edges:
            efaults = set(
                rng.sample(edges, rng.randint(0, min(5, len(edges))))
            )
            eview = EdgeFaultView(g, efaults) if efaults else g
            expected_e = bfs_distances(eview, s, max_hops=hops)
            emask = csr.edge_mask(efaults, mask=ws.edge_mask)
            got_e = csr_bfs_distances(
                csr, ix.index(s), max_hops=hops, workspace=ws, edge_mask=emask
            )
            assert expected_e == {ix.node(i): d for i, d in got_e.items()}


def test_workspace_survives_many_generations():
    # One shared workspace across hundreds of searches with different
    # masks must never leak state between calls (generation wrap included).
    g = generators.gnp_random_graph(25, 0.2, seed=9)
    csr = CSRGraph.from_graph(g)
    ix = csr.indexer
    ws = BFSWorkspace(csr.num_nodes, csr.num_edges)
    rng = random.Random(9)
    nodes = list(g.nodes())
    for _ in range(600):
        s, t = rng.sample(nodes, 2)
        expected = bounded_bfs_path(g, s, t, 4)
        got = csr_bounded_bfs_path(csr, ix.index(s), ix.index(t), 4, ws)
        got_nodes = None if got is None else ix.nodes_of(got)
        assert expected == got_nodes
