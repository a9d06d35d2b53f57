"""The forced-YES degree test: exactness and effect.

The greedy keeps an edge without running LBC when an endpoint has at
most f H-neighbours: that neighbourhood (vertex model) or its incident
H-edges (edge model) is a cut of size <= f, so Theorem 4 forces LBC's
YES answer.  The produced spanner must therefore be IDENTICAL, edge for
edge, to the paper's loop that runs LBC on every candidate edge
(``tests.reference.lbc_only_greedy``).
"""

from __future__ import annotations

import pytest

from repro.core.greedy_modified import (
    fault_tolerant_spanner,
    modified_greedy_unweighted,
    modified_greedy_weighted,
)
from repro.core.spanner import FaultModel
from repro.graph import generators
from repro.graph.graph import edge_key
from repro.verification import check_certificates, verify_ft_spanner
from tests import reference as ref

KF = [(1, 1), (2, 0), (2, 1), (2, 3), (3, 2)]


def _graph(weights, seed, n=28, p=0.3):
    g = generators.gnp_random_graph(n, p, seed=seed)
    if weights == "integer":
        g = generators.with_random_weights(g, 1, 9, seed=seed, integral=True)
    return g


def _forced_yes(g, result):
    """Replay the build: the (edge, endpoint, H-neighbourhood) of every
    kept edge with an endpoint of H-degree <= f at its addition time."""
    h = g.spanning_skeleton()
    forced = []
    for (u, v) in result.certificates:
        for end in (u, v):
            if h.degree(end) <= result.f:
                forced.append(((u, v), end, set(h.neighbors(end))))
                break
        h.add_edge(u, v, weight=g.weight(u, v))
    return forced


class TestExactness:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("k,f", KF)
    @pytest.mark.parametrize("weights", ["unit", "integer"])
    @pytest.mark.parametrize("model", ["vertex", "edge"])
    def test_identical_to_lbc_only_oracle(self, model, weights, k, f, seed):
        g = _graph(weights, seed)
        oracle = ref.lbc_only_greedy(g, k, f, fault_model=model)
        result = fault_tolerant_spanner(g, k, f, fault_model=model)
        assert result.spanner == oracle.spanner
        assert result.bfs_calls <= oracle.bfs_calls

    @pytest.mark.parametrize("order", ["random", "degree"])
    def test_identical_under_other_orders(self, order):
        g = _graph("unit", 5)
        oracle = ref.lbc_only_greedy(g, 2, 2, order=order, seed=3)
        result = modified_greedy_unweighted(g, 2, 2, order=order, seed=3)
        assert result.spanner == oracle.spanner

    def test_identical_spanner_weighted(self):
        g = generators.weighted_gnp(25, 0.3, seed=7)
        oracle = ref.lbc_only_greedy(g, 2, 2)
        assert modified_greedy_weighted(g, 2, 2).spanner == oracle.spanner

    def test_output_verified(self):
        g = generators.gnp_random_graph(20, 0.35, seed=9)
        result = modified_greedy_unweighted(g, 2, 1)
        assert verify_ft_spanner(g, result.spanner, t=3, f=1).ok


class TestForcedCertificates:
    @pytest.mark.parametrize("k,f", [(2, 1), (2, 3), (3, 2)])
    @pytest.mark.parametrize("model", ["vertex", "edge"])
    def test_certificate_is_the_endpoint_neighbourhood(self, model, k, f):
        g = _graph("unit", 8, n=30, p=0.25)
        result = modified_greedy_unweighted(g, k, f, fault_model=model)
        forced = _forced_yes(g, result)
        assert forced
        assert len(forced) == result.extra["degree_shortcuts"]
        for e, end, nbrs in forced:
            cut = result.certificates[e]
            if FaultModel.coerce(model) is FaultModel.VERTEX:
                assert cut == nbrs
            else:
                assert cut == {edge_key(end, x) for x in nbrs}
            assert len(cut) <= f
        assert check_certificates(g, result, replay=True) == []


class TestEffect:
    def test_bfs_calls_reduced(self):
        g = generators.gnp_random_graph(60, 0.15, seed=10)
        oracle = ref.lbc_only_greedy(g, 2, 3)
        result = modified_greedy_unweighted(g, 2, 3)
        assert result.bfs_calls < oracle.bfs_calls
        assert result.extra["degree_shortcuts"] > 0

    def test_counter_on_every_result(self):
        g = generators.gnp_random_graph(15, 0.3, seed=11)
        for model in ("vertex", "edge"):
            result = fault_tolerant_spanner(g, 2, 1, fault_model=model)
            assert "degree_shortcuts" in result.extra
        weighted = generators.weighted_gnp(15, 0.3, seed=11)
        assert "degree_shortcuts" in fault_tolerant_spanner(
            weighted, 2, 1
        ).extra

    def test_sparse_graph_all_forced(self):
        # On a path every edge attaches a vertex of H-degree 0 <= f, so
        # the degree test settles every edge and no BFS runs.
        g = generators.path_graph(30)
        result = modified_greedy_unweighted(g, 2, 1)
        assert result.spanner.num_edges == 29
        assert result.extra["degree_shortcuts"] == 29
        assert result.bfs_calls == 0

    def test_f0_forces_only_isolated_endpoints(self):
        # With f = 0 the only cut of size 0 is an endpoint with no
        # H-edge yet: the classic greedy's first edge at each vertex.
        # On K_6 that is the star at vertex 0; every other edge runs one
        # BFS, which finds the 2-hop path through 0 (NO).
        g = generators.complete_graph(6)
        result = modified_greedy_unweighted(g, 2, 0)
        assert result.extra["degree_shortcuts"] == 5
        assert set(result.certificates.values()) == {frozenset()}
        assert result.bfs_calls == g.num_edges - 5
