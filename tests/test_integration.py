"""End-to-end integration scenarios across modules.

These are the "does the library hang together" tests: build with one
component, verify with another, certify with a third, serialize with a
fourth.
"""

from __future__ import annotations

import math

import pytest

from repro import (
    FaultModel,
    bounds,
    generators,
    graph_io,
    max_stretch,
    max_stretch_under_faults,
    verify_ft_spanner,
)
from repro.baselines import classic_greedy_spanner, dk_fault_tolerant_spanner
from repro.core import exponential_greedy_spanner, fault_tolerant_spanner
from repro.distributed import congest_baswana_sen, local_ft_spanner
from repro.core.blocking import (
    blocking_set_from_certificates,
    extract_high_girth_subgraph,
    is_blocking_set,
)
from repro.graph.girth import girth_exceeds
from repro.verification import check_certificates


class TestFullPipelineUnweighted:
    """Build -> verify -> certify -> Lemma 6 -> Lemma 7 -> Moore bound."""

    def test_complete_theorem8_pipeline(self):
        k, f = 2, 1
        g = generators.gnp_random_graph(50, 0.3, seed=401)
        result = fault_tolerant_spanner(g, k, f)

        # Theorem 5: fault tolerance (sampled at this size).
        report = verify_ft_spanner(
            g, result.spanner, t=2 * k - 1, f=f,
            exhaustive_budget=200, samples=200, seed=0,
        )
        assert report.ok

        # Certificates replay cleanly.
        assert check_certificates(g, result) == []

        # Lemma 6: blocking set of bounded size.
        blocking = blocking_set_from_certificates(result)
        assert len(blocking) <= bounds.blocking_set_bound(
            result.num_edges, k, f
        )
        assert is_blocking_set(
            result.spanner, blocking, t=2 * k, max_cycles=10 ** 6
        )

        # Lemma 7: dense high-girth subgraph.
        sub = extract_high_girth_subgraph(
            result.spanner, blocking, k, f, seed=0
        )
        assert girth_exceeds(sub, 2 * k)
        assert sub.num_edges <= bounds.moore_bound(max(sub.num_nodes, 1), k)

        # Theorem 8: overall size bound.
        assert result.num_edges <= 4 * bounds.modified_greedy_size_bound(
            50, k, f
        )


class TestCrossAlgorithmConsistency:
    def test_all_constructions_are_valid_on_same_graph(self):
        g = generators.ensure_connected(
            generators.gnp_random_graph(22, 0.3, seed=403), seed=403
        )
        k, f = 2, 1
        t = 2 * k - 1
        constructions = {
            "modified": fault_tolerant_spanner(g, k, f),
            "exact": exponential_greedy_spanner(g, k, f),
            "dk": dk_fault_tolerant_spanner(g, k, f, seed=1, iterations=120),
            "local": local_ft_spanner(g, k, f, seed=2),
        }
        for name, result in constructions.items():
            report = verify_ft_spanner(
                g, result.spanner, t=t, f=f, exhaustive_budget=5_000
            )
            assert report.ok, f"{name}: {report.counterexample}"

    def test_size_ordering_on_dense_graph(self):
        g = generators.complete_graph(40)
        classic = classic_greedy_spanner(g, 2).num_edges
        modified = fault_tolerant_spanner(g, 2, 1).num_edges
        # Fault tolerance costs edges.
        assert classic <= modified

    def test_faulted_stretch_measured_below_guarantee(self):
        g = generators.gnp_random_graph(30, 0.3, seed=407)
        result = fault_tolerant_spanner(g, 2, 2)
        for faults in ([3], [5, 11], [0, 9]):
            s = max_stretch_under_faults(g, result.spanner, faults, "vertex")
            assert s <= 3.0 + 1e-9


class TestSerializationInterop:
    def test_spanner_roundtrip_preserves_verification(self, tmp_path):
        g = generators.weighted_gnp(20, 0.35, seed=409)
        result = fault_tolerant_spanner(g, 2, 1)
        gp, hp = tmp_path / "g.txt", tmp_path / "h.txt"
        graph_io.save(g, gp)
        graph_io.save(result.spanner, hp)
        g2 = graph_io.load(gp)
        h2 = graph_io.load(hp)
        assert g2 == g
        assert h2 == result.spanner
        assert verify_ft_spanner(g2, h2, t=3, f=1, exhaustive_budget=5_000).ok


class TestDistributedMatchesCentralizedGuarantees:
    def test_congest_bs_vs_classic_greedy_size_same_ballpark(self):
        g = generators.complete_graph(30)
        greedy = classic_greedy_spanner(g, 2).num_edges
        bs = congest_baswana_sen(g, 2, seed=3).num_edges
        # BS is O(k) worse in expectation, not orders of magnitude.
        assert bs <= 12 * max(greedy, 1)

    def test_local_spanner_size_overhead_logarithmic(self):
        g = generators.complete_graph(40)
        central = fault_tolerant_spanner(g, 2, 1).num_edges
        local = local_ft_spanner(g, 2, 1, seed=4).num_edges
        # Theorem 12 pays a log n factor; allow that much plus constant.
        assert local <= central * (4 * math.log(40))


class TestFaultModelsAgree:
    def test_both_models_protect_against_their_faults(self):
        g = generators.gnp_random_graph(18, 0.35, seed=411)
        vft = fault_tolerant_spanner(g, 2, 1, fault_model="vertex")
        eft = fault_tolerant_spanner(g, 2, 1, fault_model="edge")
        assert verify_ft_spanner(g, vft.spanner, t=3, f=1,
                                 fault_model="vertex").ok
        assert verify_ft_spanner(g, eft.spanner, t=3, f=1,
                                 fault_model="edge",
                                 exhaustive_budget=5_000).ok

    def test_fault_model_enum_recorded(self):
        g = generators.gnp_random_graph(12, 0.4, seed=413)
        assert fault_tolerant_spanner(
            g, 2, 1, fault_model="edge"
        ).fault_model is FaultModel.EDGE
