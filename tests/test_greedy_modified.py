"""Algorithms 3 and 4: the polynomial-time modified greedy.

Covers Theorem 5 (correctness, exhaustively verified on small graphs),
Theorem 8 (size bound), Theorem 10 (weighted correctness), edge-fault
variants, edge orderings, and the certificate machinery.
"""

from __future__ import annotations

import math

import pytest

from repro.core.bounds import modified_greedy_size_bound
from repro.core.greedy_modified import (
    fault_tolerant_spanner,
    modified_greedy_unweighted,
    modified_greedy_weighted,
)
from repro.core.spanner import FaultModel
from repro.graph import generators
from repro.graph.graph import Graph, edge_key
from repro.verification import (
    check_certificates,
    is_spanner,
    max_stretch,
    verify_ft_spanner,
)
from tests.conftest import assert_is_subgraph


class TestCorrectnessVFT:
    """Theorem 5: the output is an f-VFT (2k-1)-spanner."""

    @pytest.mark.parametrize("k,f", [(1, 1), (2, 1), (2, 2), (3, 1)])
    def test_small_gnp_exhaustive(self, small_gnp, k, f):
        result = fault_tolerant_spanner(small_gnp, k, f)
        report = verify_ft_spanner(
            small_gnp, result.spanner, t=2 * k - 1, f=f,
            exhaustive_budget=10_000,
        )
        assert report.exhaustive
        assert report.ok, str(report.counterexample)

    def test_grid_exhaustive(self, grid4x4):
        result = fault_tolerant_spanner(grid4x4, k=2, f=1)
        report = verify_ft_spanner(grid4x4, result.spanner, t=3, f=1)
        assert report.exhaustive and report.ok

    def test_k1_returns_everything_needed(self, k5):
        # Stretch 1 under faults: H must contain every edge of G.
        result = fault_tolerant_spanner(k5, k=1, f=1)
        assert result.spanner.num_edges == k5.num_edges

    def test_f0_degrades_to_classic_greedy_property(self, medium_gnp):
        result = fault_tolerant_spanner(medium_gnp, k=2, f=0)
        assert is_spanner(medium_gnp, result.spanner, t=3)

    def test_output_is_subgraph(self, small_gnp):
        result = fault_tolerant_spanner(small_gnp, k=2, f=2)
        assert_is_subgraph(result.spanner, small_gnp)

    def test_output_spans_all_nodes(self, small_gnp):
        result = fault_tolerant_spanner(small_gnp, k=2, f=2)
        assert set(result.spanner.nodes()) == set(small_gnp.nodes())

    def test_disconnected_input(self):
        g = Graph([(1, 2), (2, 3), (4, 5), (5, 6), (4, 6)])
        result = fault_tolerant_spanner(g, k=2, f=1)
        report = verify_ft_spanner(g, result.spanner, t=3, f=1)
        assert report.ok

    def test_star_keeps_all_edges(self):
        # A star has no redundancy: every edge must stay.
        g = generators.star_graph(8)
        result = fault_tolerant_spanner(g, k=2, f=1)
        assert result.spanner.num_edges == g.num_edges

    def test_empty_and_tiny_graphs(self):
        assert fault_tolerant_spanner(Graph(), 2, 1).spanner.num_edges == 0
        g = Graph([(1, 2)])
        result = fault_tolerant_spanner(g, 2, 1)
        assert result.spanner.has_edge(1, 2)


class TestCorrectnessEFT:
    """The edge-fault variant of Theorem 5."""

    @pytest.mark.parametrize("k,f", [(2, 1), (2, 2)])
    def test_small_gnp_eft(self, small_gnp, k, f):
        result = fault_tolerant_spanner(small_gnp, k, f, fault_model="edge")
        assert result.fault_model is FaultModel.EDGE
        report = verify_ft_spanner(
            small_gnp, result.spanner, t=2 * k - 1, f=f, fault_model="edge",
            exhaustive_budget=6_000, samples=400, seed=0,
        )
        assert report.ok, str(report.counterexample)

    def test_cycle_eft_keeps_cycle(self):
        # C_n: one edge fault forces the long way around; for k small the
        # whole cycle is needed.
        g = generators.cycle_graph(6)
        result = fault_tolerant_spanner(g, k=2, f=1, fault_model="edge")
        assert result.spanner.num_edges == 6

    def test_eft_at_most_vft_plus_slack(self, small_gnp):
        # No theorem relates them exactly, but both should be nontrivial
        # subgraphs; sanity check the EFT result is not pathological.
        vft = fault_tolerant_spanner(small_gnp, 2, 2).num_edges
        eft = fault_tolerant_spanner(
            small_gnp, 2, 2, fault_model="edge"
        ).num_edges
        assert eft <= small_gnp.num_edges
        assert eft >= vft // 3


class TestSizeBound:
    """Theorem 8: |E(H)| = O(k f^(1-1/k) n^(1+1/k))."""

    @pytest.mark.parametrize("k,f", [(2, 1), (2, 2), (2, 3), (3, 2)])
    def test_size_within_constant_of_bound(self, k, f):
        g = generators.gnp_random_graph(60, 0.5, seed=17)
        result = fault_tolerant_spanner(g, k, f)
        bound = modified_greedy_size_bound(60, k, f)
        # The paper's constant is small; 4x the shape is generous.
        assert result.num_edges <= 4 * bound

    def test_size_sublinear_in_m_on_dense_graphs(self):
        g = generators.complete_graph(40)
        result = fault_tolerant_spanner(g, k=2, f=1)
        assert result.num_edges < g.num_edges / 2

    def test_size_monotone_in_f_roughly(self):
        g = generators.gnp_random_graph(50, 0.4, seed=23)
        sizes = [
            fault_tolerant_spanner(g, 2, f).num_edges for f in (1, 2, 4)
        ]
        assert sizes[0] <= sizes[1] <= sizes[2] + 5  # noise slack

    def test_size_decreasing_in_k(self):
        g = generators.complete_graph(45)
        s2 = fault_tolerant_spanner(g, 2, 1).num_edges
        s4 = fault_tolerant_spanner(g, 4, 1).num_edges
        assert s4 <= s2


class TestWeighted:
    """Theorem 10: Algorithm 4 on weighted graphs."""

    def test_weighted_correctness_exhaustive(self, weighted_gnp_graph):
        result = fault_tolerant_spanner(weighted_gnp_graph, k=2, f=1)
        assert result.algorithm == "modified-greedy-weighted"
        report = verify_ft_spanner(
            weighted_gnp_graph, result.spanner, t=3, f=1,
            exhaustive_budget=10_000,
        )
        assert report.exhaustive
        assert report.ok, str(report.counterexample)

    def test_weighted_f2_sampled(self, weighted_gnp_graph):
        result = fault_tolerant_spanner(weighted_gnp_graph, k=2, f=2)
        report = verify_ft_spanner(
            weighted_gnp_graph, result.spanner, t=3, f=2,
            exhaustive_budget=40_000,
        )
        assert report.ok

    def test_weighted_stretch_fault_free(self, weighted_gnp_graph):
        result = fault_tolerant_spanner(weighted_gnp_graph, k=3, f=1)
        assert max_stretch(weighted_gnp_graph, result.spanner) <= 5.0 + 1e-9

    def test_weight_order_used(self):
        # Heavy parallel route vs light path: the light edges must be
        # considered first and the heavy edge then skipped (k=1 keeps
        # everything; use k=2).
        g = Graph()
        g.add_edge("a", "b", weight=10.0)
        for mid in ("m1", "m2", "m3"):
            g.add_edge("a", mid, weight=1.0)
            g.add_edge(mid, "b", weight=1.0)
        result = fault_tolerant_spanner(g, k=2, f=1)
        # 2 surviving light 2-hop paths after any single fault cover a-b
        # within stretch 3 * 10; the heavy edge is redundant.
        assert not result.spanner.has_edge("a", "b")

    def test_weighted_edge_fault_model(self, weighted_gnp_graph):
        result = fault_tolerant_spanner(
            weighted_gnp_graph, k=2, f=1, fault_model="edge"
        )
        report = verify_ft_spanner(
            weighted_gnp_graph, result.spanner, t=3, f=1, fault_model="edge",
            exhaustive_budget=3_000, samples=300, seed=2,
        )
        assert report.ok

    def test_explicit_weighted_entry_point(self, weighted_gnp_graph):
        a = modified_greedy_weighted(weighted_gnp_graph, 2, 1)
        b = fault_tolerant_spanner(weighted_gnp_graph, 2, 1)
        assert a.spanner == b.spanner


class TestOrderings:
    """Theorem 8 holds for any edge order (experiment E14's basis)."""

    @pytest.mark.parametrize("order", ["arbitrary", "random", "degree", "weight"])
    def test_all_orders_give_valid_spanners(self, small_gnp, order):
        result = modified_greedy_unweighted(
            small_gnp, 2, 1, order=order, seed=7
        )
        report = verify_ft_spanner(small_gnp, result.spanner, t=3, f=1)
        assert report.ok

    def test_explicit_order(self, small_gnp):
        edges = sorted(small_gnp.edges())
        result = modified_greedy_unweighted(small_gnp, 2, 1, order=edges)
        report = verify_ft_spanner(small_gnp, result.spanner, t=3, f=1)
        assert report.ok

    def test_explicit_order_must_cover(self, small_gnp):
        edges = sorted(small_gnp.edges())[:-1]
        with pytest.raises(ValueError, match="every edge"):
            modified_greedy_unweighted(small_gnp, 2, 1, order=edges)

    def test_explicit_order_rejects_non_edges(self, small_gnp):
        edges = sorted(small_gnp.edges())
        edges[0] = (998, 999)
        with pytest.raises(ValueError, match="non-edges"):
            modified_greedy_unweighted(small_gnp, 2, 1, order=edges)

    def test_unknown_order_rejected(self, small_gnp):
        with pytest.raises(ValueError, match="unknown order"):
            modified_greedy_unweighted(small_gnp, 2, 1, order="sorted")

    def test_random_order_deterministic_given_seed(self, small_gnp):
        a = modified_greedy_unweighted(small_gnp, 2, 1, order="random", seed=3)
        b = modified_greedy_unweighted(small_gnp, 2, 1, order="random", seed=3)
        assert a.spanner == b.spanner


class TestCertificates:
    def test_every_added_edge_has_certificate(self, small_gnp):
        result = fault_tolerant_spanner(small_gnp, 2, 2)
        spanner_edges = {edge_key(u, v) for u, v in result.spanner.edges()}
        assert set(result.certificates) == spanner_edges

    def test_certificates_replay_clean(self, small_gnp):
        result = fault_tolerant_spanner(small_gnp, 2, 2)
        assert check_certificates(small_gnp, result) == []

    def test_certificates_replay_clean_weighted(self, weighted_gnp_graph):
        result = fault_tolerant_spanner(weighted_gnp_graph, 2, 1)
        assert check_certificates(weighted_gnp_graph, result) == []

    def test_certificate_sizes_bounded(self, small_gnp):
        k, f = 2, 2
        result = fault_tolerant_spanner(small_gnp, k, f)
        for cut in result.certificates.values():
            assert len(cut) <= (2 * k - 1) * f

    def test_bfs_calls_counted(self, small_gnp):
        result = fault_tolerant_spanner(small_gnp, 2, 1)
        # Theorem 9: at most (f + 1) BFS calls per edge.
        assert 0 < result.bfs_calls <= small_gnp.num_edges * 2
        assert result.edges_considered == small_gnp.num_edges


class TestValidation:
    def test_bad_k(self, small_gnp):
        with pytest.raises(ValueError):
            fault_tolerant_spanner(small_gnp, 0, 1)

    def test_bad_f(self, small_gnp):
        with pytest.raises(ValueError):
            fault_tolerant_spanner(small_gnp, 2, -1)

    def test_bad_fault_model(self, small_gnp):
        with pytest.raises(ValueError):
            fault_tolerant_spanner(small_gnp, 2, 1, fault_model="both")

    def test_retired_repack_every_rejected(self, small_gnp):
        # The periodic builder repack is gone: the keyword is an error,
        # not a silently ignored no-op.
        with pytest.raises(TypeError, match="repack_every"):
            fault_tolerant_spanner(small_gnp, 2, 1, repack_every=5)
        assert "repacks" not in fault_tolerant_spanner(
            small_gnp, 2, 1
        ).extra

    def test_retired_repack_every_rejected_by_build_spanner(
        self, small_gnp
    ):
        from repro.registry import UnsupportedOption, build_spanner

        with pytest.raises(UnsupportedOption, match="repack_every"):
            build_spanner(small_gnp, "greedy", k=2, f=1, repack_every=5)
