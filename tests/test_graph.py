"""Unit tests for the core Graph data structure."""

from __future__ import annotations

import random

import pytest

from repro.graph.graph import Graph, edge_key


class TestConstruction:
    def test_empty(self):
        g = Graph()
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert list(g.nodes()) == []
        assert list(g.edges()) == []

    def test_from_edge_pairs(self):
        g = Graph([(1, 2), (2, 3)])
        assert g.num_nodes == 3
        assert g.num_edges == 2

    def test_from_weighted_triples(self):
        g = Graph([(1, 2, 5.0), (2, 3, 7.5)])
        assert g.weight(1, 2) == 5.0
        assert g.weight(2, 3) == 7.5

    def test_from_bad_tuple_raises(self):
        with pytest.raises(ValueError):
            Graph([(1, 2, 3, 4)])

    def test_from_adjacency_roundtrip(self):
        g = Graph([(1, 2, 3.0), (2, 3, 1.0)])
        adj = {u: dict(g.neighbor_items(u)) for u in g.nodes()}
        g2 = Graph.from_adjacency(adj)
        assert g == g2

    def test_from_adjacency_asymmetric_raises(self):
        with pytest.raises(ValueError):
            Graph.from_adjacency({1: {2: 1.0}, 2: {}})


class TestMutation:
    def test_add_node_idempotent(self):
        g = Graph()
        g.add_node("a")
        g.add_node("a")
        assert g.num_nodes == 1

    def test_add_edge_creates_nodes(self):
        g = Graph()
        g.add_edge(1, 2)
        assert g.has_node(1) and g.has_node(2)

    def test_add_edge_twice_overwrites_weight(self):
        g = Graph()
        g.add_edge(1, 2, weight=3.0)
        g.add_edge(1, 2, weight=9.0)
        assert g.num_edges == 1
        assert g.weight(1, 2) == 9.0
        assert g.weight(2, 1) == 9.0

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.add_edge(1, 1)

    def test_negative_weight_rejected(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.add_edge(1, 2, weight=-1.0)

    def test_remove_edge(self):
        g = Graph([(1, 2), (2, 3)])
        g.remove_edge(1, 2)
        assert not g.has_edge(1, 2)
        assert not g.has_edge(2, 1)
        assert g.num_edges == 1
        assert g.has_node(1)  # node survives

    def test_remove_missing_edge_raises(self):
        g = Graph([(1, 2)])
        with pytest.raises(KeyError):
            g.remove_edge(1, 3)

    def test_remove_node_drops_incident_edges(self):
        g = Graph([(1, 2), (2, 3), (1, 3)])
        g.remove_node(2)
        assert g.num_nodes == 2
        assert g.num_edges == 1
        assert g.has_edge(1, 3)

    def test_remove_missing_node_raises(self):
        g = Graph()
        with pytest.raises(KeyError):
            g.remove_node(42)


class TestQueries:
    def test_neighbors_symmetric(self):
        g = Graph([(1, 2), (1, 3)])
        assert sorted(g.neighbors(1)) == [2, 3]
        assert list(g.neighbors(2)) == [1]

    def test_degree(self):
        g = Graph([(1, 2), (1, 3), (1, 4)])
        assert g.degree(1) == 3
        assert g.degree(4) == 1

    def test_weight_missing_edge_raises(self):
        g = Graph([(1, 2)])
        with pytest.raises(KeyError):
            g.weight(1, 3)

    def test_edges_canonical_and_unique(self):
        g = Graph([(2, 1), (3, 2)])
        edges = list(g.edges())
        assert len(edges) == 2
        assert all(e == edge_key(*e) for e in edges)
        assert len(set(edges)) == 2

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("label", [int, str])
    def test_edges_in_first_seen_order_after_churn(self, seed, label):
        # Each edge comes out once, keyed, where the adjacency scan
        # first meets it -- also after removals reorder the rows.
        rng = random.Random(seed)
        g = Graph()
        for _ in range(120):
            u, v = label(rng.randrange(15)), label(rng.randrange(15))
            op = rng.random()
            if op < 0.6 and u != v:
                g.add_edge(u, v)
            elif op < 0.9 and g.has_edge(u, v):
                g.remove_edge(u, v)
            elif op >= 0.9 and g.has_node(u):
                g.remove_node(u)
        seen, expected = set(), []
        for u in g.nodes():
            for v in g.neighbors(u):
                if edge_key(u, v) not in seen:
                    seen.add(edge_key(u, v))
                    expected.append(edge_key(u, v))
        assert list(g.edges()) == expected
        assert len(expected) == g.num_edges

    def test_weighted_edges(self):
        g = Graph([(1, 2, 4.0)])
        assert list(g.weighted_edges()) == [(1, 2, 4.0)]

    def test_total_weight(self):
        g = Graph([(1, 2, 4.0), (2, 3, 6.0)])
        assert g.total_weight() == 10.0

    def test_is_unit_weighted(self):
        assert Graph([(1, 2)]).is_unit_weighted()
        assert not Graph([(1, 2, 2.0)]).is_unit_weighted()
        assert Graph().is_unit_weighted()
        near = Graph([(1, 2), (2, 3, 1.05)])
        assert not near.is_unit_weighted()
        assert near.is_unit_weighted(tol=0.1)

    def test_max_degree_and_density(self):
        g = Graph([(1, 2), (1, 3)])
        assert g.max_degree() == 2
        assert g.density() == pytest.approx(2 / 3)
        assert Graph().max_degree() == 0
        assert Graph().density() == 0.0

    def test_dunder_protocol(self):
        g = Graph([(1, 2)])
        assert 1 in g
        assert 5 not in g
        assert len(g) == 2
        assert set(iter(g)) == {1, 2}
        assert "n=2" in repr(g)

    def test_equality(self):
        a = Graph([(1, 2, 3.0)])
        b = Graph([(2, 1, 3.0)])
        assert a == b
        b.add_edge(1, 2, weight=4.0)
        assert a != b
        assert (a == object()) is False or (a == object()) is NotImplemented or True


class TestDerivation:
    def test_copy_is_independent(self):
        g = Graph([(1, 2)])
        h = g.copy()
        h.add_edge(2, 3)
        assert g.num_edges == 1
        assert h.num_edges == 2

    def test_subgraph_induced(self):
        g = Graph([(1, 2), (2, 3), (1, 3), (3, 4)])
        sub = g.subgraph([1, 2, 3])
        assert sub.num_nodes == 3
        assert sub.num_edges == 3
        assert not sub.has_node(4)

    def test_subgraph_keeps_weights(self):
        g = Graph([(1, 2, 7.0)])
        assert g.subgraph([1, 2]).weight(1, 2) == 7.0

    def test_subgraph_keeps_parent_order(self):
        # Insertion order, not the order or hash of the requested nodes.
        g = Graph()
        g.add_nodes(f"v{i}" for i in range(12))
        for i in range(12):
            g.add_edge(f"v{i}", f"v{(i * 5 + 3) % 12}", weight=float(i + 1))
        keep = [f"v{i}" for i in (9, 0, 7, 2, 11, 4, 3, 8)]
        want_nodes = [u for u in g.nodes() if u in keep]
        want_edges = [
            (u, v, w) for u, v, w in g.weighted_edges()
            if u in keep and v in keep
        ]
        for order in (keep, keep[::-1], sorted(keep), set(keep)):
            sub = g.subgraph(order)
            assert list(sub.nodes()) == want_nodes
            assert list(sub.weighted_edges()) == want_edges

    def test_subgraph_with_unknown_nodes(self):
        g = Graph([(1, 2)])
        sub = g.subgraph([1, 99])
        assert sub.has_node(1)
        assert not sub.has_node(99)

    def test_edge_subgraph_spans_all_nodes(self):
        g = Graph([(1, 2), (2, 3), (3, 4)])
        sub = g.edge_subgraph([(1, 2)])
        assert sub.num_nodes == 4
        assert sub.num_edges == 1

    def test_spanning_skeleton(self):
        g = Graph([(1, 2), (2, 3)])
        h = g.spanning_skeleton()
        assert h.num_nodes == 3
        assert h.num_edges == 0

    def test_unit_weighted(self):
        g = Graph([(1, 2, 9.0)])
        assert g.unit_weighted().weight(1, 2) == 1.0


class TestEdgeKey:
    def test_orders_comparable(self):
        assert edge_key(2, 1) == (1, 2)
        assert edge_key(1, 2) == (1, 2)

    def test_orders_incomparable_by_repr(self):
        a, b = (1, "x"), ("y",)
        assert edge_key(a, b) == edge_key(b, a)

    def test_strings(self):
        assert edge_key("b", "a") == ("a", "b")

    def test_mixed_types_consistent_both_orientations(self):
        # Regression: int vs str is incomparable, so the fallback kicks
        # in; the key must not depend on mention order.
        for a, b in [(1, "1"), (0, "0"), ((1, 2), ("a", 3))]:
            assert edge_key(a, b) == edge_key(b, a)

    def test_same_repr_different_type_is_deterministic(self):
        # Two nodes with *identical* reprs but different types: ordering
        # by repr alone would canonicalize (a, b) and (b, a) to different
        # keys.  The (type-qualname, repr) fallback breaks the tie.
        class FakeInt:
            def __repr__(self):
                return "1"

            def __hash__(self):
                return 1

        a, b = 1, FakeInt()
        assert repr(a) == repr(b)
        assert edge_key(a, b) == edge_key(b, a)

    def test_same_type_same_repr_is_consistent(self):
        # Worst case: distinct unorderable nodes of the same class with a
        # constant repr -- the (qualname, repr) pair ties, so only the
        # id() fallback keeps both orientations on one key.
        class Blob:
            def __repr__(self):
                return "Blob"

        a, b = Blob(), Blob()
        assert edge_key(a, b) == edge_key(b, a)

    def test_partially_ordered_nodes_consistent(self):
        # frozensets compare by subset relation: for disjoint sets neither
        # `a <= b` nor `b <= a` holds (and nothing raises), so a naive
        # `u <= v` canonicalization is mention-order dependent.
        a, b = frozenset({1}), frozenset({2})
        assert edge_key(a, b) == edge_key(b, a)

    def test_partially_ordered_nodes_single_edge_in_graph(self):
        a, b = frozenset({1}), frozenset({2})
        g = Graph()
        g.add_edge(a, b)
        assert list(g.edges()) == [edge_key(b, a)]

    def test_mixed_type_edges_in_graph(self):
        g = Graph()
        g.add_edge(1, "1")
        assert g.has_edge("1", 1)
        assert list(g.edges()) == [edge_key("1", 1)]


class TestNodeTypes:
    def test_tuple_nodes(self):
        g = Graph()
        g.add_edge((0, 0), (0, 1))
        assert g.has_edge((0, 1), (0, 0))

    def test_mixed_string_int_nodes(self):
        g = Graph()
        g.add_edge("hub", 1)
        g.add_edge("hub", 2)
        assert g.degree("hub") == 2
