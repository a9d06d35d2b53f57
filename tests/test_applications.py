"""The applications subpackage: distance oracle and availability analysis."""

from __future__ import annotations

import math

import pytest

from repro.applications import (
    AvailabilityReport,
    FaultTolerantDistanceOracle,
    availability_analysis,
    degradation_profile,
)
from repro.core.greedy_modified import fault_tolerant_spanner
from repro.graph import generators
from repro.graph.graph import Graph
from repro.graph.traversal import dijkstra
from repro.graph.views import VertexFaultView


@pytest.fixture
def oracle_graph() -> Graph:
    return generators.ensure_connected(
        generators.gnp_random_graph(30, 0.25, seed=777), seed=777
    )


@pytest.fixture
def oracle(oracle_graph) -> FaultTolerantDistanceOracle:
    return FaultTolerantDistanceOracle(oracle_graph, k=2, f=2)


class TestOracleGuarantees:
    def test_stretch_guarantee_no_faults(self, oracle_graph, oracle):
        true = dijkstra(oracle_graph, 0)
        for v in sorted(oracle_graph.nodes()):
            if v == 0:
                continue
            est = oracle.distance(0, v)
            assert true[v] <= est <= oracle.stretch * true[v] + 1e-9

    def test_stretch_guarantee_under_faults(self, oracle_graph, oracle):
        for faults in ([3], [5, 11], [20, 4]):
            gv = VertexFaultView(oracle_graph, set(faults))
            true = dijkstra(gv, 0)
            for v in (10, 15, 25):
                if v in faults or v not in true:
                    continue
                est = oracle.distance(0, v, faults=faults)
                assert true[v] <= est <= oracle.stretch * true[v] + 1e-9

    def test_distance_symmetry(self, oracle):
        assert oracle.distance(3, 17) == pytest.approx(oracle.distance(17, 3))

    def test_distance_to_self(self, oracle):
        assert oracle.distance(5, 5) == 0.0

    def test_path_is_usable_route(self, oracle_graph, oracle):
        path = oracle.path(0, 12, faults=[7])
        assert path is not None
        assert path[0] == 0 and path[-1] == 12
        assert 7 not in path
        for a, b in zip(path, path[1:]):
            assert oracle.spanner.has_edge(a, b)

    def test_distances_from(self, oracle_graph, oracle):
        dist = oracle.distances_from(0, faults=[9])
        assert 9 not in dist
        assert dist[0] == 0.0

    def test_oracle_is_sparse(self, oracle_graph, oracle):
        assert oracle.size <= oracle_graph.num_edges


class TestOracleValidation:
    def test_too_many_faults_rejected(self, oracle):
        with pytest.raises(ValueError, match="only"):
            oracle.distance(0, 1, faults=[2, 3, 4])

    def test_faulted_endpoint_rejected(self, oracle):
        with pytest.raises(ValueError, match="fault set"):
            oracle.distance(0, 1, faults=[0])

    def test_unknown_node_rejected(self, oracle):
        with pytest.raises(KeyError):
            oracle.distance(0, 999)

    def test_edge_fault_model(self, oracle_graph):
        oracle = FaultTolerantDistanceOracle(
            oracle_graph, k=2, f=1, fault_model="edge"
        )
        edge = next(iter(oracle_graph.edges()))
        d = oracle.distance(edge[0], edge[1], faults=[edge])
        assert d >= 1.0  # direct edge faulted: must detour

    def test_prebuilt_spanner_accepted(self, oracle_graph):
        result = fault_tolerant_spanner(oracle_graph, 2, 2)
        oracle = FaultTolerantDistanceOracle(
            oracle_graph, k=2, f=2, prebuilt=result
        )
        assert oracle.size == result.num_edges

    def test_prebuilt_mismatch_rejected(self, oracle_graph):
        result = fault_tolerant_spanner(oracle_graph, 2, 1)
        with pytest.raises(ValueError, match="parameters"):
            FaultTolerantDistanceOracle(
                oracle_graph, k=2, f=2, prebuilt=result
            )

    def test_cache_behaviour(self, oracle_graph):
        oracle = FaultTolerantDistanceOracle(
            oracle_graph, k=2, f=1, cache_size=2
        )
        # Many distinct scenarios; the LRU must stay bounded and correct.
        for fault in range(1, 8):
            d = oracle.distance(0, 15, faults=[fault] if fault != 15 else [3])
            assert d > 0
        assert len(oracle._cache) <= 2


class TestOracleCache:
    def test_fault_order_normalizes_to_one_entry(self, oracle_graph):
        oracle = FaultTolerantDistanceOracle(oracle_graph, k=2, f=2)
        a = oracle.distance(0, 15, faults=[3, 7])
        assert len(oracle._cache) == 1
        # Same scenario in any order or container: same cache entry.
        assert oracle.distance(0, 15, faults=(7, 3)) == a
        assert oracle.distance(0, 15, faults={3, 7}) == a
        assert len(oracle._cache) == 1

    def test_edge_orientation_normalizes_to_one_entry(self, oracle_graph):
        oracle = FaultTolerantDistanceOracle(
            oracle_graph, k=2, f=1, fault_model="edge"
        )
        u, v = next(iter(oracle_graph.edges()))
        a = oracle.distance(0, 15, faults=[(u, v)])
        assert len(oracle._cache) == 1
        assert oracle.distance(0, 15, faults=[(v, u)]) == a
        assert len(oracle._cache) == 1

    def test_shrinking_cache_size_evicts_immediately(self, oracle_graph):
        oracle = FaultTolerantDistanceOracle(oracle_graph, k=2, f=1)
        for source in range(6):
            oracle.distances_from(source)
        assert len(oracle._cache) == 6
        oracle.cache_size = 2
        assert len(oracle._cache) == 2
        # The two most recent entries survive and answers stay correct.
        assert (frozenset(), 5) in oracle._cache
        assert (frozenset(), 4) in oracle._cache
        assert oracle.distance(0, 15) > 0

    def test_shrink_to_zero_disables_caching(self, oracle_graph):
        # Regression: cache_size = 0 must cleanly disable the LRU -- no
        # stale-entry reuse, no store of new runs -- for the production
        # oracle and the dict reference alike.
        from tests import reference as ref

        for cls in (ref.FaultTolerantDistanceOracle,
                    FaultTolerantDistanceOracle):
            oracle = cls(oracle_graph, k=2, f=1)
            baseline = oracle.distance(0, 15)
            for source in range(4):
                oracle.distances_from(source)
            assert len(oracle._cache) > 0
            oracle.cache_size = 0
            assert oracle.cache_size == 0
            assert len(oracle._cache) == 0
            # Queries still answer correctly and store nothing.
            assert oracle.distance(0, 15) == baseline
            oracle.distances_from(0)
            oracle.distances(
                [(0, 15), (1, 14)], faults=[7]
            )
            assert len(oracle._cache) == 0

    def test_zero_capacity_from_construction(self, oracle_graph):
        oracle = FaultTolerantDistanceOracle(
            oracle_graph, k=2, f=1, cache_size=0
        )
        a = oracle.distance(0, 15)
        assert a == oracle.distance(0, 15)  # recomputed, same answer
        assert len(oracle._cache) == 0

    def test_grow_after_zero_starts_empty(self, oracle_graph):
        oracle = FaultTolerantDistanceOracle(oracle_graph, k=2, f=1)
        for source in range(3):
            oracle.distances_from(source)
        oracle.cache_size = 0
        oracle.distances_from(4)  # not stored
        oracle.cache_size = 8  # re-enable: must start from empty
        assert len(oracle._cache) == 0
        oracle.distances_from(5)
        assert list(oracle._cache) == [(frozenset(), 5)]

    def test_growing_cache_size_keeps_entries(self, oracle_graph):
        oracle = FaultTolerantDistanceOracle(
            oracle_graph, k=2, f=1, cache_size=2
        )
        oracle.distances_from(0)
        oracle.distances_from(1)
        oracle.cache_size = 10
        assert len(oracle._cache) == 2
        assert oracle.cache_size == 10

    def test_negative_cache_size_rejected(self, oracle_graph):
        with pytest.raises(ValueError, match="cache_size"):
            FaultTolerantDistanceOracle(
                oracle_graph, k=2, f=1, cache_size=-1
            )
        oracle = FaultTolerantDistanceOracle(oracle_graph, k=2, f=1)
        with pytest.raises(ValueError, match="cache_size"):
            oracle.cache_size = -5


class TestOracleBatch:
    def test_distances_matches_per_query(self, oracle):
        pairs = [(0, 10), (0, 15), (3, 17), (5, 5), (12, 0)]
        batch = oracle.distances(pairs, faults=[7])
        assert batch == [
            oracle.distance(u, v, faults=[7]) for u, v in pairs
        ]

    def test_distances_rejects_bad_pairs(self, oracle):
        with pytest.raises(KeyError):
            oracle.distances([(0, 999)])
        with pytest.raises(ValueError, match="fault set"):
            oracle.distances([(0, 7)], faults=[7])
        with pytest.raises(ValueError, match="only"):
            oracle.distances([(0, 1)], faults=[2, 3, 4])

    def test_distance_matrix(self, oracle):
        matrix = oracle.distance_matrix([0, 3, 0], faults=[9])
        assert set(matrix) == {0, 3}  # duplicate sources collapse
        assert matrix[0] == oracle.distances_from(0, faults=[9])
        assert matrix[3][3] == 0.0
        assert 9 not in matrix[0]


class TestAvailability:
    def test_report_on_identity_spanner(self, oracle_graph):
        report = availability_analysis(
            oracle_graph, oracle_graph, failures=2, guarantee=3.0,
            scenarios=10, pairs_per_scenario=10, seed=1,
        )
        # H = G: stretch exactly 1 everywhere, full connectivity.
        assert report.connectivity == 1.0
        assert report.max_stretch == 1.0
        assert report.guarantee_violations == 0

    def test_report_within_budget_never_violates(self, oracle_graph):
        result = fault_tolerant_spanner(oracle_graph, 2, 2)
        report = availability_analysis(
            oracle_graph, result.spanner, failures=2, guarantee=3.0,
            scenarios=15, pairs_per_scenario=15, seed=2,
        )
        assert report.guarantee_violations == 0
        assert report.connectivity == 1.0
        assert report.max_stretch <= 3.0 + 1e-9

    def test_summary_text(self, oracle_graph):
        report = availability_analysis(
            oracle_graph, oracle_graph, failures=1, guarantee=3.0,
            scenarios=5, pairs_per_scenario=5, seed=3,
        )
        assert "connectivity" in report.summary()

    def test_degradation_profile_shape(self, oracle_graph):
        result = fault_tolerant_spanner(oracle_graph, 2, 1)
        profile = degradation_profile(
            oracle_graph, result.spanner, guarantee=3.0, max_failures=3,
            scenarios=8, pairs_per_scenario=8, seed=4,
        )
        assert [j for j, _ in profile] == [0, 1, 2, 3]
        # Within budget (j <= 1): no violations, by theorem.
        assert profile[0][1].guarantee_violations == 0
        assert profile[1][1].guarantee_violations == 0

    def test_validation(self, oracle_graph):
        with pytest.raises(ValueError):
            availability_analysis(
                oracle_graph, oracle_graph, failures=-1, guarantee=3.0
            )
        with pytest.raises(ValueError):
            availability_analysis(
                oracle_graph, oracle_graph, failures=1, guarantee=0.5
            )
        with pytest.raises(ValueError):
            availability_analysis(
                oracle_graph, oracle_graph, failures=29, guarantee=3.0
            )
        with pytest.raises(ValueError):
            degradation_profile(
                oracle_graph, oracle_graph, guarantee=3.0, max_failures=-1
            )
