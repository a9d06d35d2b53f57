"""Witness-mode verification against the exhaustive sweep.

``verify_ft_spanner(mode="witness")`` must be a *drop-in* verdict: on
every graph where the exhaustive sweep is feasible, witness mode has to
return the same ok/fail answer (the witness path is sound per pair and
falls back to the exact per-pair sweep when no certificate is found, so
any divergence is a bug, not a modelling choice).  The agreement matrix
here covers both fault models, f in {1, 2}, unit and weighted inputs,
and sweeps from both the production path and the dict reference in
``tests/reference/`` -- and any disagreement fails with the offending
configuration spelled out in the assertion message.

The second half checks the certificates themselves: a disjoint-path
witness returned by the public API really is ``count`` pairwise
disjoint u-v paths inside the length bound, verified *in the test* with
no flow-engine code in the loop.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.greedy_modified import fault_tolerant_spanner
from repro.graph import generators
from repro.graph.graph import Graph, edge_key
from repro.verification import disjoint_paths, verify_ft_spanner
from tests import reference as ref

MODELS = ["vertex", "edge"]
#: Which sweep the witness verdict is checked against: the production
#: CSR sweep or the dict reference sweep.
SWEEPS = {"csr": verify_ft_spanner, "dict": ref.verify_ft_spanner}


def small_graphs():
    """The agreement-matrix inputs: small, varied, exhaustively sweepable."""
    weighted = Graph()
    for (u, v), w in zip(
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)],
        [2.0, 1.0, 3.0, 1.0, 2.0, 5.0, 1.0],
    ):
        weighted.add_edge(u, v, weight=w)
    return [
        ("cycle8", generators.cycle_graph(8)),
        ("grid3x3", generators.grid_graph(3, 3)),
        ("gnp12", generators.ensure_connected(
            generators.gnp_random_graph(12, 0.35, seed=11), seed=11)),
        ("gnp14", generators.ensure_connected(
            generators.gnp_random_graph(14, 0.3, seed=12), seed=12)),
        ("weighted5", weighted),
    ]


def assert_reports_agree(name, g, h, t, f, model, sweep_impl):
    sweep = SWEEPS[sweep_impl](
        g, h, t=t, f=f, fault_model=model, exhaustive_budget=200_000,
    )
    witness = verify_ft_spanner(
        g, h, t=t, f=f, fault_model=model, exhaustive_budget=200_000,
        mode="witness",
    )
    assert sweep.exhaustive, f"{name}: matrix graph too big to sweep"
    assert witness.ok == sweep.ok, (
        f"witness disagrees with exhaustive sweep on {name} "
        f"(f={f}, model={model}, sweep={sweep_impl}): "
        f"sweep={'OK' if sweep.ok else sweep.counterexample}, "
        f"witness={'OK' if witness.ok else witness.counterexample}"
    )
    assert witness.mode == "witness" and sweep.mode == "sweep"
    assert witness.pairs_checked > 0
    return witness


class TestAgreementMatrix:
    @pytest.mark.parametrize("name,g", small_graphs())
    @pytest.mark.parametrize("f", [1, 2])
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("sweep_impl", list(SWEEPS))
    def test_correct_spanners_agree(self, name, g, f, model, sweep_impl):
        k = 2
        result = fault_tolerant_spanner(g, k, f, fault_model=model)
        assert_reports_agree(
            name, g, result.spanner, 2 * k - 1, f, model, sweep_impl
        )

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("sweep_impl", list(SWEEPS))
    @pytest.mark.parametrize("f", [1, 2])
    def test_planted_violations_agree(self, model, sweep_impl, f):
        # C8 minus an edge is not an f-FT 5-spanner of C8 for f >= 1:
        # both modes must reject it, with matching verdicts.
        g = generators.cycle_graph(8)
        h = g.copy()
        h.remove_edge(0, 1)
        witness = assert_reports_agree(
            "cycle8-minus-edge", g, h, 5, f, model, sweep_impl
        )
        assert not witness.ok
        assert witness.counterexample is not None

    def test_identity_spanner_all_pairs_witnessed(self):
        # H = G = K6: every spanner edge is its own trivial witness, so
        # no fallback fault sets are needed at all.
        g = generators.complete_graph(6)
        report = verify_ft_spanner(g, g, t=3, f=2, mode="witness")
        assert report.ok and report.exhaustive
        assert report.pairs_witnessed == report.pairs_checked
        assert report.fault_sets_checked == 0

    def test_witness_pairs_sampling(self):
        g = generators.ensure_connected(
            generators.gnp_random_graph(16, 0.3, seed=4), seed=4
        )
        result = fault_tolerant_spanner(g, 2, 1)
        report = verify_ft_spanner(
            g, result.spanner, t=3, f=1, mode="witness",
            witness_pairs=5, seed=0,
        )
        assert report.ok
        assert report.pairs_checked == 5
        assert not report.exhaustive  # partial coverage is not a proof

    def test_mode_validation(self, cycle6):
        with pytest.raises(ValueError):
            verify_ft_spanner(cycle6, cycle6, t=3, f=1, mode="psychic")
        with pytest.raises(ValueError):
            verify_ft_spanner(cycle6, cycle6, t=3, f=1, witness_pairs=3)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_spanners_agree(self, seed):
        g = generators.ensure_connected(
            generators.gnp_random_graph(11, 0.35, seed=seed), seed=seed
        )
        result = fault_tolerant_spanner(g, 2, 1)
        assert_reports_agree(
            f"gnp11-seed{seed}", g, result.spanner, 3, 1, "vertex", "csr"
        )


class TestWitnessCertificates:
    """A returned witness really is what it claims -- checked by hand."""

    @staticmethod
    def check_by_hand(h, u, v, paths, count, bound, model):
        assert len(paths) >= count
        for path in paths:
            assert path[0] == u and path[-1] == v
            assert len(set(path)) == len(path)
            length = sum(h.weight(a, b) for a, b in zip(path, path[1:]))
            assert length <= bound
            for a, b in zip(path, path[1:]):
                assert h.has_edge(a, b)
        for p, q in itertools.combinations(paths, 2):
            if model == "vertex":
                assert not set(p[1:-1]) & set(q[1:-1]), (
                    f"paths share interior vertices: {p} / {q}"
                )
            else:
                shared = (
                    {edge_key(a, b) for a, b in zip(p, p[1:])}
                    & {edge_key(a, b) for a, b in zip(q, q[1:])}
                )
                assert not shared, f"paths share edges {shared}: {p} / {q}"

    @given(st.integers(0, 10_000), st.sampled_from(MODELS))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_witness_is_f_plus_1_disjoint_short_paths(self, seed, model):
        f = 1
        g = generators.ensure_connected(
            generators.gnp_random_graph(12, 0.4, seed=seed), seed=seed
        )
        result = fault_tolerant_spanner(g, 2, f, fault_model=model)
        h = result.spanner
        nodes = sorted(h.nodes())
        checked = 0
        for u, v in itertools.combinations(nodes, 2):
            if not g.has_edge(u, v):
                continue
            bound = 3 * g.weight(u, v)  # the pair's stretch budget
            paths = disjoint_paths(
                h, u, v, count=f + 1, max_length=bound, fault_model=model
            )
            if paths is None:
                continue
            self.check_by_hand(h, u, v, paths, f + 1, bound, model)
            checked += 1
        assert checked > 0 or g.num_edges <= 1

    def test_none_when_no_certificate_exists(self):
        # A path graph has exactly one 0-4 path: no 2-disjoint witness.
        g = generators.path_graph(5)
        assert disjoint_paths(g, 0, 4, count=2) is None

    def test_length_bound_filters(self):
        # C6: two 0-3 paths, both of length 3.  Bound 2 kills both.
        g = generators.cycle_graph(6)
        assert disjoint_paths(g, 0, 3, count=1, max_length=2) is None
        both = disjoint_paths(g, 0, 3, count=2, max_length=3)
        assert both is not None and len(both) == 2

    def test_bad_params(self, cycle6):
        with pytest.raises(ValueError):
            disjoint_paths(cycle6, 0, 3, count=0)
        with pytest.raises(ValueError):
            disjoint_paths(cycle6, 2, 2, count=1)
        with pytest.raises(KeyError):
            disjoint_paths(cycle6, 0, 99, count=1)
