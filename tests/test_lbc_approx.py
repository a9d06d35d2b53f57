"""Algorithm 2: the LBC(t, alpha) gap decision (Theorem 4).

The contract under test:

* YES whenever a length-t cut of size <= alpha exists;
* NO whenever every length-t cut has size > alpha * t;
* the YES certificate is itself a genuine length-t cut of size <= alpha*t.
"""

from __future__ import annotations

import random

import pytest

from repro.graph import generators
from repro.graph.csr import CSRBuilder, CSRGraph
from repro.graph.graph import Graph
from repro.graph.index import NodeIndexer
from repro.graph.traversal import BFSWorkspace
from repro.lbc import approx
from repro.lbc.approx import (
    LBCAnswer,
    LBCResult,
    lbc_decide,
    lbc_edge,
    lbc_edge_csr,
    lbc_vertex,
    lbc_vertex_csr,
)
from repro.lbc.exact import (
    exact_edge_lbc,
    exact_vertex_lbc,
    is_edge_length_cut,
    is_vertex_length_cut,
)


class TestVertexLBCBasics:
    def test_disconnected_terminals_yes_with_empty_cut(self):
        g = Graph([(1, 2)])
        g.add_node(3)
        result = lbc_vertex(g, 1, 3, t=3, alpha=2)
        assert result.answer is LBCAnswer.YES
        assert result.cut == frozenset()
        assert result.iterations == 1

    def test_far_terminals_yes(self):
        g = generators.path_graph(10)
        # Hop distance 9 > t = 3 already: empty cut works.
        result = lbc_vertex(g, 0, 9, t=3, alpha=1)
        assert result.is_yes
        assert result.cut == frozenset()

    def test_single_path_cut_by_one_vertex(self):
        g = generators.path_graph(5)  # 0-1-2-3-4
        result = lbc_vertex(g, 0, 4, t=4, alpha=1)
        assert result.is_yes
        assert is_vertex_length_cut(g, 0, 4, 4, result.cut)

    def test_adjacent_terminals_always_no(self):
        g = generators.complete_graph(4)
        result = lbc_vertex(g, 0, 1, t=1, alpha=5)
        assert result.answer is LBCAnswer.NO

    def test_yes_when_small_cut_exists(self):
        # Two disjoint 2-hop paths between s and t: cut = both midpoints.
        g = Graph([("s", "a"), ("a", "t"), ("s", "b"), ("b", "t")])
        result = lbc_vertex(g, "s", "t", t=3, alpha=2)
        assert result.is_yes
        assert is_vertex_length_cut(g, "s", "t", 3, result.cut)

    def test_no_when_cut_huge(self):
        # Complete bipartite layers: every 2-hop cut needs `width` nodes.
        g = generators.layered_path_gadget(layers=1, width=10)
        # min cut = 10 > alpha * t = 2 * 2: contract requires NO.
        result = lbc_vertex(g, "s", "t", t=2, alpha=2)
        assert result.answer is LBCAnswer.NO

    def test_gap_zone_answers_are_consistent(self):
        # Min cut 4; alpha = 3, t = 2 => alpha < 4 <= alpha*t: either
        # answer is allowed, but a YES must carry a real cut.
        g = generators.layered_path_gadget(layers=1, width=4)
        result = lbc_vertex(g, "s", "t", t=2, alpha=3)
        if result.is_yes:
            assert is_vertex_length_cut(g, "s", "t", 2, result.cut)

    def test_certificate_size_bound(self):
        g = generators.gnp_random_graph(30, 0.3, seed=3)
        t, alpha = 3, 2
        # Check certificates on non-adjacent pairs.
        nodes = sorted(g.nodes())
        checked = 0
        for u in nodes:
            for v in nodes:
                if u >= v or g.has_edge(u, v):
                    continue
                result = lbc_vertex(g, u, v, t=t, alpha=alpha)
                if result.is_yes:
                    assert len(result.cut) <= alpha * t
                    assert is_vertex_length_cut(g, u, v, t, result.cut)
                checked += 1
                if checked >= 25:
                    return

    def test_terminals_never_in_cut(self):
        g = generators.gnp_random_graph(20, 0.2, seed=5)
        nodes = sorted(g.nodes())
        for u, v in [(0, 10), (1, 15), (2, 19)]:
            if g.has_edge(u, v):
                continue
            result = lbc_vertex(g, u, v, t=3, alpha=2)
            assert u not in result.cut
            assert v not in result.cut

    def test_paths_recorded(self):
        g = generators.layered_path_gadget(layers=2, width=2)
        result = lbc_vertex(g, "s", "t", t=3, alpha=4)
        for path in result.paths:
            assert path[0] == "s" and path[-1] == "t"
            assert len(path) - 1 <= 3


class TestVertexLBCAgainstExact:
    def test_yes_side_of_contract(self):
        """Whenever the *exact* min cut has size <= alpha, answer is YES."""
        for seed in range(8):
            g = generators.gnp_random_graph(14, 0.25, seed=seed)
            nodes = sorted(g.nodes())
            pairs = [
                (u, v)
                for u in nodes
                for v in nodes
                if u < v and not g.has_edge(u, v)
            ][:6]
            for u, v in pairs:
                t, alpha = 3, 2
                exact = exact_vertex_lbc(g, u, v, t, max_size=alpha)
                approx = lbc_vertex(g, u, v, t, alpha)
                if exact is not None:
                    assert approx.is_yes, (
                        f"seed={seed} pair=({u},{v}): exact cut {exact} of "
                        f"size {len(exact)} <= alpha but approx said NO"
                    )

    def test_no_side_of_contract(self):
        """NO implies no cut of size <= alpha exists (contrapositive of
        the YES guarantee), which we check against the exact solver."""
        for seed in range(8):
            g = generators.gnp_random_graph(14, 0.25, seed=seed)
            nodes = sorted(g.nodes())
            pairs = [
                (u, v)
                for u in nodes
                for v in nodes
                if u < v and not g.has_edge(u, v)
            ][:6]
            for u, v in pairs:
                t, alpha = 3, 2
                approx = lbc_vertex(g, u, v, t, alpha)
                if approx.answer is LBCAnswer.NO:
                    exact = exact_vertex_lbc(g, u, v, t, max_size=alpha)
                    assert exact is None, (
                        f"seed={seed}: NO but cut of size {len(exact)} exists"
                    )


class TestEdgeLBC:
    def test_single_edge_path(self):
        g = generators.path_graph(3)  # 0-1-2
        result = lbc_edge(g, 0, 2, t=2, alpha=1)
        assert result.is_yes
        assert is_edge_length_cut(g, 0, 2, 2, result.cut)

    def test_adjacent_terminals_edge_cuttable(self):
        # Unlike the vertex version, the direct edge CAN be edge-cut.
        g = Graph([(0, 1)])
        result = lbc_edge(g, 0, 1, t=1, alpha=1)
        assert result.is_yes
        assert result.cut == frozenset({(0, 1)})

    def test_cycle_needs_two_edge_faults(self):
        g = generators.cycle_graph(6)
        result = lbc_edge(g, 0, 3, t=6, alpha=2)
        assert result.is_yes
        assert is_edge_length_cut(g, 0, 3, 6, result.cut)

    def test_no_on_dense_graph(self):
        g = generators.complete_graph(10)
        # d(u,v)=1; tons of 2-hop paths; cutting all length-2 paths needs
        # ~9 edges > alpha * t = 2.
        result = lbc_edge(g, 0, 1, t=2, alpha=1)
        assert result.answer is LBCAnswer.NO

    def test_certificate_size_bound(self):
        g = generators.gnp_random_graph(25, 0.15, seed=9)
        nodes = sorted(g.nodes())
        checked = 0
        for u in nodes:
            for v in nodes:
                if u >= v:
                    continue
                result = lbc_edge(g, u, v, t=3, alpha=2)
                if result.is_yes:
                    assert len(result.cut) <= 2 * 3
                    assert is_edge_length_cut(g, u, v, 3, result.cut)
                checked += 1
                if checked >= 25:
                    return

    def test_yes_side_against_exact(self):
        for seed in range(6):
            g = generators.gnp_random_graph(12, 0.25, seed=seed)
            nodes = sorted(g.nodes())
            pairs = [(u, v) for u in nodes for v in nodes if u < v][:5]
            for u, v in pairs:
                t, alpha = 3, 2
                exact = exact_edge_lbc(g, u, v, t, max_size=alpha)
                approx = lbc_edge(g, u, v, t, alpha)
                if exact is not None:
                    assert approx.is_yes


class TestDispatchAndValidation:
    def test_dispatch(self):
        g = generators.path_graph(4)
        a = lbc_decide(g, 0, 3, t=2, alpha=1, fault_model="vertex")
        b = lbc_decide(g, 0, 3, t=2, alpha=1, fault_model="edge")
        assert a.is_yes and b.is_yes

    def test_dispatch_unknown_model(self):
        g = generators.path_graph(3)
        with pytest.raises(ValueError):
            lbc_decide(g, 0, 2, t=2, alpha=1, fault_model="hyperedge")

    def test_bad_t(self):
        g = generators.path_graph(3)
        with pytest.raises(ValueError):
            lbc_vertex(g, 0, 2, t=0, alpha=1)

    def test_bad_alpha(self):
        g = generators.path_graph(3)
        with pytest.raises(ValueError):
            lbc_vertex(g, 0, 2, t=2, alpha=-1)

    def test_same_terminals(self):
        g = generators.path_graph(3)
        with pytest.raises(ValueError):
            lbc_vertex(g, 1, 1, t=2, alpha=1)

    def test_missing_terminal(self):
        g = generators.path_graph(3)
        with pytest.raises(KeyError):
            lbc_vertex(g, 0, 99, t=2, alpha=1)

    def test_alpha_zero_one_shot(self):
        # alpha = 0: one BFS; YES iff already separated.
        g = generators.path_graph(5)
        assert lbc_vertex(g, 0, 4, t=3, alpha=0).is_yes
        assert lbc_vertex(g, 0, 4, t=4, alpha=0).answer is LBCAnswer.NO


class TestCSRLBCAgainstDict:
    """The CSR entry points return the dict path's result, removed paths
    included, although they translate those paths only when read."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("t", [1, 2, 3, 5])
    def test_same_result(self, seed, t):
        g = generators.gnp_random_graph(22, 0.22, seed=seed)
        indexer = NodeIndexer.from_graph(g)
        csr = CSRGraph.from_graph(g, indexer)
        index = indexer.index
        nodes = sorted(g.nodes())
        for u in nodes[:6]:
            for v in nodes[-6:]:
                if u == v:
                    continue
                for dict_fn, csr_fn in (
                    (lbc_vertex, lbc_vertex_csr),
                    (lbc_edge, lbc_edge_csr),
                ):
                    want = dict_fn(g, u, v, t, 2)
                    got = csr_fn(csr, index(u), index(v), t, 2,
                                 indexer=indexer)
                    assert got == want
                    assert got.paths == want.paths
                    assert hash(got) == hash(want)

    @pytest.mark.parametrize("grown", [False, True],
                             ids=["csr-graph", "shuffled-builder"])
    @pytest.mark.parametrize("p", [0.15, 0.3, 0.5])
    def test_sweep(self, p, grown):
        # The t <= 3 meet takes the first hit in *row* order; a builder
        # grown in shuffled edge order has rows that differ from node
        # order, and the dict graph built in the same order has the
        # same neighbour order.
        for seed in range(20):
            g = generators.gnp_random_graph(18, p, seed=seed)
            rng = random.Random(seed)
            if grown:
                g, csr, indexer = _shuffled_builder(g, rng)
            else:
                indexer = NodeIndexer.from_graph(g)
                csr = CSRGraph.from_graph(g, indexer)
            index = indexer.index
            pairs = [(u, v) for u in g.nodes() for v in g.nodes() if u < v]
            adjacent = [e for e in pairs if g.has_edge(*e)]
            apart = [e for e in pairs if not g.has_edge(*e)]
            chosen = (rng.sample(adjacent, min(4, len(adjacent)))
                      + rng.sample(apart, min(8, len(apart))))
            ws = BFSWorkspace(csr.num_nodes, csr.num_edges)
            for u, v in chosen:
                for t in (1, 2, 3, 5):
                    for alpha in (0, 1, 2, 4):
                        for dict_fn, csr_fn in (
                            (lbc_vertex, lbc_vertex_csr),
                            (lbc_edge, lbc_edge_csr),
                        ):
                            want = dict_fn(g, u, v, t, alpha)
                            got = csr_fn(csr, index(u), index(v), t, alpha,
                                         ws, indexer)
                            assert got.answer is want.answer
                            assert got.cut == want.cut
                            assert got.paths == want.paths
                            assert got.iterations == want.iterations

    @pytest.mark.parametrize("csr_fn", [lbc_vertex_csr, lbc_edge_csr])
    def test_bfs_only_past_three_hops(self, csr_fn, monkeypatch):
        # t <= 3 is decided by the two-hop meet, t >= 4 by the BFS.
        calls = []
        real = approx._csr_search

        def counting(*args):
            calls.append(args[3])
            return real(*args)

        monkeypatch.setattr(approx, "_csr_search", counting)
        g = generators.gnp_random_graph(30, 0.2, seed=5)
        csr = CSRGraph.from_graph(g)
        pairs = [(u, v) for u in range(6) for v in range(24, 30)]
        for t in (1, 2, 3):
            for alpha in (0, 1, 3):
                for u, v in pairs:
                    csr_fn(csr, u, v, t, alpha)
        assert calls == []
        for u, v in pairs:
            csr_fn(csr, u, v, 5, 1)
        assert calls and set(calls) == {5}

    def test_paths_built_on_first_read(self):
        g = generators.layered_path_gadget(layers=2, width=2)
        indexer = NodeIndexer.from_graph(g)
        csr = CSRGraph.from_graph(g, indexer)
        index = indexer.index
        result = lbc_vertex_csr(csr, index("s"), index("t"), 3, 4,
                                indexer=indexer)
        assert result._paths is None
        first = result.paths
        assert result.paths is first
        assert first == lbc_vertex(g, "s", "t", t=3, alpha=4).paths
        assert all(p[0] == "s" and p[-1] == "t" for p in first)
        raw = lbc_vertex_csr(csr, index("s"), index("t"), 3, 4)
        assert raw.paths == tuple(
            tuple(index(x) for x in p) for p in first
        )
        assert "paths=" in repr(result)

    @pytest.mark.parametrize("dict_fn, csr_fn", [
        (lbc_vertex, lbc_vertex_csr), (lbc_edge, lbc_edge_csr),
    ])
    def test_no_cut_built_on_first_read(self, dict_fn, csr_fn):
        # A NO answer's cut is read after later runs on the same
        # workspace have cleared its fault mask: it must still be the
        # dict LBC's cut, with and without an indexer.
        g = generators.gnp_random_graph(20, 0.4, seed=3)
        indexer = NodeIndexer.from_graph(g)
        csr = CSRGraph.from_graph(g, indexer)
        index = indexer.index
        ws = BFSWorkspace(csr.num_nodes, csr.num_edges)
        pairs = [(u, v) for u in sorted(g.nodes())[:5]
                 for v in sorted(g.nodes())[-5:] if not g.has_edge(u, v)]
        runs = [
            (u, v,
             csr_fn(csr, index(u), index(v), 3, 1, ws, indexer),
             csr_fn(csr, index(u), index(v), 3, 1, ws))
            for u, v in pairs
        ]
        no = [run for run in runs if run[2].answer is LBCAnswer.NO]
        assert no and all(run[2]._cut is None for run in no)
        for u, v, result, raw in no:
            want = dict_fn(g, u, v, 3, 1).cut
            assert want and result.cut == want
            assert result.cut is result.cut
            if csr_fn is lbc_vertex_csr:
                assert raw.cut == {index(x) for x in want}
            else:
                assert raw.cut == {
                    tuple(sorted((index(a), index(b)))) for a, b in want
                }

    def test_result_equality(self):
        a = LBCResult(LBCAnswer.YES, frozenset({1}), ((0, 1, 2),), 2)
        b = LBCResult(
            answer=LBCAnswer.YES, cut=frozenset({1}), paths=((0, 1, 2),),
            iterations=2,
        )
        assert a == b and hash(a) == hash(b)
        assert a != LBCResult(LBCAnswer.NO, frozenset({1}), ((0, 1, 2),), 2)
        assert a != "yes"


def _shuffled_builder(g, rng):
    """``g`` re-grown in a shuffled edge order: a dict graph and a
    :class:`CSRBuilder` whose rows list neighbours in that order."""
    edges = sorted(g.edges())
    rng.shuffle(edges)
    h = Graph()
    h.add_nodes(sorted(g.nodes()))
    indexer = NodeIndexer.from_graph(h)
    builder = CSRBuilder(len(indexer))
    for u, v in edges:
        h.add_edge(u, v)
        builder.add_edge(indexer.index(u), indexer.index(v))
    return h, builder, indexer
