"""Edge cases and less-traveled branches across modules."""

from __future__ import annotations

import math

import pytest

from repro.core.greedy_modified import fault_tolerant_spanner
from repro.distributed.congest_ft import congest_ft_spanner
from repro.distributed.decomposition import Decomposition, padded_decomposition
from repro.distributed.runtime import RunStats, message_words
from repro.graph import generators
from repro.graph.graph import Graph
from repro.graph.traversal import bfs_tree, bounded_bfs_path, dijkstra
from repro.lbc.approx import lbc_edge, lbc_vertex
from repro.verification import verify_ft_spanner


class TestSingletonAndTinyInputs:
    def test_single_node_graph(self):
        g = Graph()
        g.add_node("only")
        result = fault_tolerant_spanner(g, 2, 1)
        assert result.num_edges == 0
        assert result.num_nodes == 1

    def test_two_node_graph(self):
        g = Graph([(1, 2)])
        for f in (0, 1, 5):
            result = fault_tolerant_spanner(g, 2, f)
            assert result.spanner.has_edge(1, 2)

    def test_verify_empty_graph(self):
        report = verify_ft_spanner(Graph(), Graph(), t=3, f=2)
        assert report.ok and report.exhaustive

    def test_decomposition_single_node(self):
        g = Graph()
        g.add_node(0)
        d, stats = padded_decomposition(g, seed=0)
        assert all(d.assignment[i][0] == 0 for i in range(d.num_partitions))


class TestLargeFRegimes:
    def test_f_exceeding_n_keeps_everything(self):
        g = generators.complete_graph(6)
        result = fault_tolerant_spanner(g, 2, 10)
        # With f >= n - 2 every edge is isolated by some fault set.
        assert result.num_edges == g.num_edges

    def test_f_exceeding_n_still_verifies(self):
        g = generators.complete_graph(5)
        result = fault_tolerant_spanner(g, 2, 4)
        report = verify_ft_spanner(g, result.spanner, t=3, f=3,
                                   exhaustive_budget=100_000)
        assert report.ok

    def test_lbc_alpha_larger_than_n(self):
        g = generators.cycle_graph(5)
        result = lbc_vertex(g, 0, 2, t=4, alpha=50)
        # Exhausting the graph: a YES with the full separator.
        assert result.is_yes


class TestWeightEdgeCases:
    def test_zero_weight_edges(self):
        g = Graph([(1, 2, 0.0), (2, 3, 0.0), (1, 3, 1.0)])
        result = fault_tolerant_spanner(g, 2, 0)
        # Stretch condition with zero weights: d <= t * 0 demands exact
        # zero-cost paths; the heavy edge must then be covered too.
        report = verify_ft_spanner(g, result.spanner, t=3, f=0)
        assert report.ok

    def test_equal_weights_stable(self):
        g = generators.with_random_weights(
            generators.complete_graph(10), low=5.0, high=5.0, seed=1
        )
        a = fault_tolerant_spanner(g, 2, 1)
        b = fault_tolerant_spanner(g, 2, 1)
        assert a.spanner == b.spanner

    def test_extreme_weight_ratio(self):
        g = Graph([(1, 2, 1e-9), (2, 3, 1e9), (1, 3, 1e9)])
        result = fault_tolerant_spanner(g, 2, 1)
        report = verify_ft_spanner(g, result.spanner, t=3, f=1)
        assert report.ok


class TestTraversalBranches:
    def test_bfs_tree_with_max_hops(self):
        g = generators.path_graph(8)
        parent = bfs_tree(g, 0, max_hops=3)
        assert set(parent) == {0, 1, 2, 3}

    def test_bounded_bfs_negative_budget(self):
        g = generators.path_graph(3)
        assert bounded_bfs_path(g, 0, 2, max_hops=-1) is None

    def test_dijkstra_zero_max_dist(self):
        g = generators.path_graph(4)
        dist = dijkstra(g, 0, max_dist=0.0)
        assert dist == {0: 0.0}


class TestLBCPathsBookkeeping:
    def test_edge_variant_paths_cover_cut(self):
        g = generators.cycle_graph(6)
        result = lbc_edge(g, 0, 3, t=6, alpha=3)
        assert result.is_yes
        path_edges = set()
        for path in result.paths:
            for a, b in zip(path, path[1:]):
                path_edges.add(tuple(sorted((a, b), key=repr)))
        for e in result.cut:
            assert tuple(sorted(e, key=repr)) in path_edges

    def test_vertex_variant_interiors_only(self):
        g = generators.layered_path_gadget(2, 3)
        result = lbc_vertex(g, "s", "t", t=3, alpha=6)
        for x in result.cut:
            assert x not in ("s", "t")


class TestRuntimeStats:
    def test_message_words_nested(self):
        payload = ("tag", (1, 2), frozenset({3.0}))
        assert message_words(payload) == 4

    def test_runstats_record(self):
        stats = RunStats()
        stats.record_round(1, message_words((1, 2, 3)), 3)
        stats.record_round(1, message_words("x"), 1)
        assert stats.messages == 2
        assert stats.total_words == 4
        assert stats.max_message_words == 3


class TestCongestFTInternals:
    def test_phase1_packing_reported(self):
        g = generators.gnp_random_graph(25, 0.25, seed=42)
        result = congest_ft_spanner(g, 2, 2, seed=1, iterations=40)
        assert result.extra["indices_per_message"] >= 1
        assert result.extra["phase1_rounds"] >= 1
        # Packing: phase-1 rounds <= max list (one index per message is
        # the worst case the packing can only improve on).
        assert result.extra["phase1_rounds"] <= max(
            result.extra["max_selection_list"], 1
        )

    def test_zero_selection_possible(self):
        # Tiny iteration count: some nodes select nothing; must not crash.
        g = generators.gnp_random_graph(10, 0.4, seed=43)
        result = congest_ft_spanner(g, 2, 3, seed=2, iterations=1)
        assert result.rounds is not None
