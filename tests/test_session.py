"""SpannerSession: snapshot sharing, parity with free functions, config.

The facade's contract has three parts:

1. **One freeze per graph.**  A build -> verify -> oracle -> router ->
   availability -> degradation workflow freezes the input graph once
   and the spanner once -- asserted here through the substrate's
   ``csr_freeze_count`` instrumentation.
2. **Bit-identical answers.**  Everything the session returns equals
   the corresponding free-function call and the dict reference in
   ``tests/reference/``.
3. **No hidden knobs.**  The retired ``backend=`` option is rejected,
   and the per-algorithm functions live only in their defining
   submodules (the top-level shims are gone).
"""

from __future__ import annotations

import importlib
import warnings

import pytest

import repro
from repro.applications import (
    FaultTolerantDistanceOracle,
    SpannerRouter,
    availability_analysis,
    degradation_profile,
)
from repro.graph import generators
from repro.graph import snapshot as snapshot_mod
from repro.graph.snapshot import CSRSnapshot, DualCSRSnapshot
from repro.registry import UnsupportedOption, build_spanner
from repro.session import SpannerSession
from repro.verification import verify_ft_spanner
from tests import reference as ref


@pytest.fixture
def g():
    return generators.ensure_connected(
        generators.gnp_random_graph(24, 0.3, seed=11), seed=11
    )


@pytest.fixture
def weighted_g():
    return generators.ensure_connected(
        generators.weighted_gnp(20, 0.35, seed=12), seed=12
    )


# --------------------------------------------------------------------- #
# The snapshot-sharing guarantee
# --------------------------------------------------------------------- #


class TestOneFreezePerGraph:
    def test_full_workflow_freezes_each_graph_exactly_once(self, g):
        session = SpannerSession(g, k=2, f=1, seed=0)
        session.build("greedy")
        before = snapshot_mod.csr_freeze_count()
        session.verify(samples=40)
        oracle = session.oracle()
        oracle.distances([(0, 5), (1, 7)], faults=[3])
        router = session.router()
        router.table(0, faults=[3])
        session.availability(scenarios=4, pairs_per_scenario=5)
        session.degradation(2, scenarios=3, pairs_per_scenario=4)
        # One freeze for G, one for the spanner -- the whole workflow.
        assert snapshot_mod.csr_freeze_count() - before == 2

    def test_query_only_session_freezes_just_the_spanner(self, g):
        session = SpannerSession(g, k=2, f=1)
        session.build("greedy")
        before = snapshot_mod.csr_freeze_count()
        session.oracle()
        session.router()
        session.oracle(cache_size=4)
        # Oracle/router only need H; G is never frozen.
        assert snapshot_mod.csr_freeze_count() - before == 1

    def test_legacy_free_functions_freeze_more(self, g):
        # The motivating waste: the same workflow through free functions
        # freezes (G, H) once per consumer.
        result = build_spanner(g, "greedy", k=2, f=1)
        h = result.spanner
        before = snapshot_mod.csr_freeze_count()
        verify_ft_spanner(g, h, t=3, f=1)
        oracle = FaultTolerantDistanceOracle(
            g, 2, 1, prebuilt=result
        )
        oracle.distances([(0, 5)], faults=[3])
        availability_analysis(
            g, h, failures=1, guarantee=3, scenarios=3,
            pairs_per_scenario=4, seed=0,
        )
        assert snapshot_mod.csr_freeze_count() - before >= 5

    def test_rebuild_invalidates_spanner_snapshot_keeps_graph(self, g):
        session = SpannerSession(g, k=2, f=1, seed=0)
        session.build("greedy")
        session.verify(samples=10)  # freezes G + H
        before = snapshot_mod.csr_freeze_count()
        session.build("greedy")     # new spanner -> new H freeze needed
        session.verify(samples=10)
        assert snapshot_mod.csr_freeze_count() - before == 1

    def test_degradation_profile_shares_one_dual_snapshot(self, g):
        # The ROADMAP item: the failure-count sweep must not rebuild the
        # DualCSRSnapshot per availability_analysis call.
        h = build_spanner(g, "greedy", k=2, f=1).spanner
        before = snapshot_mod.csr_freeze_count()
        degradation_profile(
            g, h, guarantee=3, max_failures=3, scenarios=3,
            pairs_per_scenario=4, seed=1,
        )
        assert snapshot_mod.csr_freeze_count() - before == 2


# --------------------------------------------------------------------- #
# Answers match the free functions and the dict reference
# --------------------------------------------------------------------- #


class TestSessionParity:
    def test_verify_matches_free_function(self, weighted_g):
        session = SpannerSession(weighted_g, k=2, f=1, seed=3)
        result = session.build("greedy")
        free = verify_ft_spanner(
            weighted_g, result.spanner, t=3, f=1, seed=3
        )
        via_session = session.verify()
        assert via_session == free

    def test_verify_witness_mode_matches_free_function(self, weighted_g):
        session = SpannerSession(weighted_g, k=2, f=1, seed=3)
        result = session.build("greedy")
        free = verify_ft_spanner(
            weighted_g, result.spanner, t=3, f=1, seed=3, mode="witness"
        )
        via_session = session.verify(mode="witness")
        assert via_session == free
        assert via_session.ok and via_session.mode == "witness"
        # Witness verdict agrees with the sweep verdict.
        assert via_session.ok == session.verify().ok

    def test_oracle_matches_free_construction(self, g):
        session = SpannerSession(g, k=2, f=2, seed=0)
        result = session.build("greedy")
        oracle = session.oracle()
        standalone = FaultTolerantDistanceOracle(g, 2, 2, prebuilt=result)
        pairs = [(0, 9), (1, 12), (4, 17)]
        for faults in ([], [5], [5, 11]):
            assert oracle.distances(pairs, faults=faults) == (
                standalone.distances(pairs, faults=faults)
            )

    def test_availability_matches_free_function(self, weighted_g):
        session = SpannerSession(weighted_g, k=2, f=1, seed=9)
        result = session.build("greedy")
        free = availability_analysis(
            weighted_g, result.spanner, failures=1, guarantee=3,
            scenarios=6, pairs_per_scenario=5, seed=9,
        )
        assert session.availability(
            scenarios=6, pairs_per_scenario=5
        ) == free

    def test_dict_and_csr_sessions_agree(self, weighted_g):
        session = SpannerSession(weighted_g, k=2, f=1, seed=4)
        result = session.build("greedy")
        got = (
            sorted(result.spanner.weighted_edges()),
            session.verify(samples=25),
            session.oracle().distances([(0, 7), (2, 13)], faults=[5]),
            session.availability(scenarios=4, pairs_per_scenario=5),
        )
        expected = ref.fault_tolerant_spanner(weighted_g, 2, 1)
        h = expected.spanner
        oracle = ref.FaultTolerantDistanceOracle(
            weighted_g, 2, 1, prebuilt=expected
        )
        want = (
            sorted(h.weighted_edges()),
            ref.verify_ft_spanner(weighted_g, h, 3, 1, samples=25, seed=4),
            oracle.distances([(0, 7), (2, 13)], faults=[5]),
            ref.availability_analysis(
                weighted_g, h, failures=1, guarantee=3, scenarios=4,
                pairs_per_scenario=5, seed=4,
            ),
        )
        assert got == want

    def test_session_routes_capability_errors(self, g):
        session = SpannerSession(g, k=2, f=1)
        with pytest.raises(UnsupportedOption, match="not fault-tolerant"):
            session.build("classic")  # session has f=1
        # An f=0 session builds it fine.
        assert SpannerSession(g, k=2, f=0).build("classic").num_edges > 0

    def test_session_seed_reaches_seedable_builds(self, g):
        a = SpannerSession(g, k=2, f=1, seed=5).build("dk", iterations=6)
        b = SpannerSession(g, k=2, f=1, seed=5).build("dk", iterations=6)
        c = SpannerSession(g, k=2, f=1, seed=6).build("dk", iterations=6)
        assert set(a.spanner.edges()) == set(b.spanner.edges())
        # Different seed *may* coincide on tiny graphs, but the sampled
        # iterations must at least be reproducible per seed.
        assert c.num_edges > 0

    def test_adopt_graph_and_result(self, g):
        prebuilt = build_spanner(g, "greedy", k=2, f=1)
        by_result = SpannerSession(g, k=2, f=1)
        by_result.adopt(prebuilt)
        by_graph = SpannerSession(g, k=2, f=1)
        by_graph.adopt(prebuilt.spanner)
        assert by_result.verify(samples=20) == by_graph.verify(samples=20)
        assert by_graph.result.algorithm == "adopted"

    def test_adopt_validates_result_against_session_config(self, g):
        prebuilt = build_spanner(g, "greedy", k=2, f=1)
        with pytest.raises(ValueError, match="k=3"):
            SpannerSession(g, k=3, f=1).adopt(prebuilt)
        with pytest.raises(ValueError, match="budget is f=2"):
            SpannerSession(g, k=2, f=2).adopt(prebuilt)
        with pytest.raises(ValueError, match="fault model"):
            SpannerSession(g, k=2, f=1, fault_model="edge").adopt(prebuilt)
        # A larger prebuilt budget covers a smaller session budget.
        SpannerSession(g, k=2, f=0).adopt(prebuilt)

    def test_unbuilt_session_raises(self, g):
        session = SpannerSession(g)
        with pytest.raises(RuntimeError, match="build\\(\\) or adopt\\(\\)"):
            session.oracle()
        with pytest.raises(RuntimeError):
            session.verify()


# --------------------------------------------------------------------- #
# Snapshot-argument validation on the free functions
# --------------------------------------------------------------------- #


class TestSnapshotArguments:
    def test_snapshot_must_freeze_the_right_graphs(self, g):
        result = build_spanner(g, "greedy", k=2, f=1)
        h = result.spanner
        wrong = DualCSRSnapshot(h, h)
        with pytest.raises(ValueError, match="does not freeze"):
            verify_ft_spanner(g, h, t=3, f=1, snapshot=wrong)
        with pytest.raises(ValueError, match="oracle's spanner"):
            FaultTolerantDistanceOracle(
                g, 2, 1, prebuilt=result,
                snapshot=CSRSnapshot(g),
            )

    def test_dual_snapshot_from_prebuilt_parts_must_share_indexer(self, g):
        h = build_spanner(g, "greedy", k=2, f=1).spanner
        snap_g = CSRSnapshot(g)
        foreign = CSRSnapshot(h)  # its own indexer
        with pytest.raises(ValueError, match="share one NodeIndexer"):
            DualCSRSnapshot(g, h, snap_g=snap_g, snap_h=foreign)
        shared = CSRSnapshot(h, indexer=snap_g.indexer)
        dual = DualCSRSnapshot(g, h, snap_g=snap_g, snap_h=shared)
        assert dual.snap_g is snap_g and dual.snap_h is shared

    def test_dual_snapshot_accepts_either_side_alone(self, g):
        h = build_spanner(g, "greedy", k=2, f=1).spanner
        from_g = DualCSRSnapshot(g, h, snap_g=CSRSnapshot(g))
        snap_h = CSRSnapshot(h)
        from_h = DualCSRSnapshot(g, h, snap_h=snap_h)
        assert from_h.snap_h is snap_h
        assert from_h.snap_g.indexer is snap_h.indexer
        # Both assemblies answer identically for a shared vertex mask.
        assert from_g.set_vertex_faults([0]).gen >= 0
        assert from_h.set_vertex_faults([0]).gen >= 0


# --------------------------------------------------------------------- #
# No hidden knobs: retired options fail loudly, retired shims are gone
# --------------------------------------------------------------------- #


class TestRetiredOptions:
    def test_backend_rejected_by_build_spanner_and_session(self, g):
        with pytest.raises(UnsupportedOption, match="backend"):
            build_spanner(g, "greedy", k=2, f=1, backend="dict")
        with pytest.raises(UnsupportedOption, match="backend"):
            SpannerSession(g, k=2, f=1).build("greedy", backend="csr")
        with pytest.raises(TypeError):
            SpannerSession(g, k=2, f=1, backend="dict")

    def test_backend_environment_variable_is_not_consulted(
        self, g, monkeypatch
    ):
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        session = SpannerSession(g, k=2, f=1)
        assert session.build("greedy").num_edges > 0

    def test_backend_environment_variable_is_not_consulted_by_build_spanner(
        self, g, monkeypatch
    ):
        expected = ref.fault_tolerant_spanner(g, 2, 1)
        monkeypatch.setenv("REPRO_BACKEND", "dict")
        result = build_spanner(g, "greedy", k=2, f=1)
        assert set(result.spanner.edges()) == set(expected.spanner.edges())
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        assert build_spanner(g, "greedy", k=2, f=1).num_edges == \
            result.num_edges


# Each retired top-level name, the submodule that defines it, and the
# registry request that must build the identical spanner.
_CANONICAL_CASES = [
    ("fault_tolerant_spanner", "repro.core.greedy_modified", (2, 1), {},
     "greedy", dict(k=2, f=1)),
    ("exponential_greedy_spanner", "repro.core.greedy_exact", (2, 1), {},
     "exact-greedy", dict(k=2, f=1)),
    ("classic_greedy_spanner", "repro.baselines", (2,), {}, "classic",
     dict(k=2)),
    ("thorup_zwick_spanner", "repro.baselines", (2,), {"seed": 0},
     "thorup-zwick", dict(k=2, seed=0)),
    ("baswana_sen_spanner", "repro.baselines", (2,), {"seed": 0},
     "baswana-sen", dict(k=2, seed=0)),
    ("dk_fault_tolerant_spanner", "repro.baselines", (2, 1),
     {"seed": 0, "iterations": 6}, "dk",
     dict(k=2, f=1, seed=0, iterations=6)),
    ("clpr_fault_tolerant_spanner", "repro.baselines", (2, 1),
     {"seed": 0}, "clpr", dict(k=2, f=1, seed=0)),
    ("local_ft_spanner", "repro.distributed", (2, 1), {"seed": 0},
     "local", dict(k=2, f=1, seed=0)),
    ("congest_baswana_sen", "repro.distributed", (2,), {"seed": 0},
     "congest-bs", dict(k=2, seed=0)),
    ("congest_ft_spanner", "repro.distributed", (2, 1),
     {"seed": 0, "iterations": 6}, "congest",
     dict(k=2, f=1, seed=0, iterations=6)),
]


class TestDeprecationShims:
    """The deprecated top-level per-algorithm shims are gone; the
    canonical homes are the defining submodules and the registry."""

    def test_top_level_shims_are_gone(self):
        for name, *_ in _CANONICAL_CASES:
            assert not hasattr(repro, name)
            assert name not in repro.__all__

    @pytest.mark.parametrize(
        "name,module,args,kwargs,algorithm,registry_kwargs",
        _CANONICAL_CASES,
        ids=[case[0] for case in _CANONICAL_CASES],
    )
    def test_canonical_home_matches_registry(
        self, g, name, module, args, kwargs, algorithm, registry_kwargs
    ):
        fn = getattr(importlib.import_module(module), name)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            direct = fn(g, *args, **kwargs)
        via_registry = build_spanner(g, algorithm, **registry_kwargs)
        assert sorted(direct.spanner.weighted_edges()) == sorted(
            via_registry.spanner.weighted_edges()
        )

    def test_canonical_homes_do_not_warn(self, g):
        from repro.core.greedy_modified import fault_tolerant_spanner

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            fault_tolerant_spanner(g, 2, 1)
            build_spanner(g, "greedy", k=2, f=1)
            session = SpannerSession(g, k=2, f=1)
            session.build("greedy")
            session.verify(samples=10)


class TestEnginePolicyInSession:
    """Each weight profile's kernels serve the whole workflow."""

    @pytest.mark.parametrize("profile", ["unit", "int", "float"])
    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    def test_workflow_matches_free_functions_with_one_freeze_each(
        self, profile, fault_model
    ):
        g = generators.gnp_random_graph(24, 0.3, seed=11)
        if profile != "unit":
            g = generators.with_random_weights(
                g, low=1.0, high=8.0, seed=11, integral=profile == "int"
            )
        g = generators.ensure_connected(g, seed=11)
        session = SpannerSession(
            g, k=2, f=1, fault_model=fault_model, seed=0
        )
        result = session.build("greedy")
        before = snapshot_mod.csr_freeze_count()
        report = session.verify(samples=40)
        oracle = session.oracle()
        router = session.router()
        avail = session.availability(scenarios=6, pairs_per_scenario=6)
        # The whole workflow still shares one freeze per graph.
        assert snapshot_mod.csr_freeze_count() - before == 2
        assert snapshot_mod.CSRSnapshot(g).profile == profile
        h = result.spanner
        nodes = sorted(g.nodes())
        pairs = [(nodes[0], nodes[-1]), (nodes[1], nodes[-2])]
        faults = (
            [nodes[5]] if fault_model == "vertex"
            else sorted(g.edges(), key=repr)[:1]
        )
        kwargs = dict(fault_model=fault_model, prebuilt=result)
        assert report == verify_ft_spanner(
            g, h, t=3, f=1, fault_model=fault_model, samples=40, seed=0
        )
        assert oracle.distances(pairs, faults=faults) == \
            FaultTolerantDistanceOracle(g, 2, 1, **kwargs).distances(
                pairs, faults=faults
            )
        assert router.table(nodes[0], faults=faults) == \
            SpannerRouter(g, 2, 1, **kwargs).table(nodes[0], faults=faults)
        assert avail == availability_analysis(
            g, h, failures=1, guarantee=3.0, scenarios=6,
            pairs_per_scenario=6, seed=0,
        )
