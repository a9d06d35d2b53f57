"""CSR-vs-reference parity across the applications layer.

The guarantee is the same as everywhere else in the library: not
"equally good" answers but the *same* answers -- distances bit for bit,
paths and next hops node for node, availability reports field for
field.  Every test here runs the identical workload through the
production CSR path and the dict reference in ``tests/reference/`` and
compares with ``==``.
"""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

from repro.applications import (
    FaultTolerantDistanceOracle,
    SpannerRouter,
    availability_analysis,
    degradation_profile,
)
from repro.core.greedy_modified import fault_tolerant_spanner
from repro.graph import generators
from repro.session import SpannerSession
from tests import reference as ref

INFINITY = math.inf


def _instance(weighted: bool, fault_model: str):
    """A connected graph, its spanner, and sampled fault scenarios."""
    gen = generators.weighted_gnp if weighted else generators.gnp_random_graph
    g = generators.ensure_connected(gen(32, 0.18, seed=555), seed=555)
    prebuilt = fault_tolerant_spanner(g, 2, 2, fault_model=fault_model)
    rng = random.Random(9)
    universe = (
        sorted(g.nodes()) if fault_model == "vertex" else list(g.edges())
    )
    scenarios = [[]] + [rng.sample(universe, 2) for _ in range(5)]
    return g, prebuilt, scenarios, rng


def _survivors(g, faults, fault_model):
    if fault_model == "vertex":
        return [x for x in sorted(g.nodes()) if x not in set(faults)]
    return sorted(g.nodes())


@pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
@pytest.mark.parametrize("fault_model", ["vertex", "edge"])
class TestOracleParity:
    def _oracles(self, weighted, fault_model):
        g, prebuilt, scenarios, rng = _instance(weighted, fault_model)
        kwargs = dict(fault_model=fault_model, prebuilt=prebuilt)
        return (
            g,
            scenarios,
            rng,
            ref.FaultTolerantDistanceOracle(g, 2, 2, **kwargs),
            FaultTolerantDistanceOracle(g, 2, 2, **kwargs),
        )

    def test_distances_and_paths(self, weighted, fault_model):
        g, scenarios, rng, od, oc = self._oracles(weighted, fault_model)
        for faults in scenarios:
            alive = _survivors(g, faults, fault_model)
            pairs = [tuple(rng.sample(alive, 2)) for _ in range(12)]
            for u, v in pairs:
                assert od.distance(u, v, faults=faults) == \
                    oc.distance(u, v, faults=faults)
                assert od.path(u, v, faults=faults) == \
                    oc.path(u, v, faults=faults)

    def test_batch_matches_per_query(self, weighted, fault_model):
        g, scenarios, rng, od, oc = self._oracles(weighted, fault_model)
        for faults in scenarios:
            alive = _survivors(g, faults, fault_model)
            pairs = [tuple(rng.sample(alive, 2)) for _ in range(15)]
            pairs.append((alive[0], alive[0]))  # self-pair in a batch
            per_query = [od.distance(u, v, faults=faults) for u, v in pairs]
            assert oc.distances(pairs, faults=faults) == per_query
            assert od.distances(pairs, faults=faults) == per_query

    def test_distances_from_and_matrix(self, weighted, fault_model):
        g, scenarios, rng, od, oc = self._oracles(weighted, fault_model)
        for faults in scenarios:
            alive = _survivors(g, faults, fault_model)
            sources = alive[:6]
            for s in sources:
                assert od.distances_from(s, faults=faults) == \
                    oc.distances_from(s, faults=faults)
            assert od.distance_matrix(sources, faults=faults) == \
                oc.distance_matrix(sources, faults=faults)

    def test_validation_errors_match(self, weighted, fault_model):
        g, scenarios, rng, od, oc = self._oracles(weighted, fault_model)
        universe = (
            sorted(g.nodes()) if fault_model == "vertex"
            else list(g.edges())
        )
        too_many = universe[:3]
        for oracle in (od, oc):
            with pytest.raises(ValueError, match="only"):
                oracle.distance(0, 1, faults=too_many)
            with pytest.raises(KeyError):
                oracle.distance(0, 999)


@pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
@pytest.mark.parametrize("fault_model", ["vertex", "edge"])
class TestRouterParity:
    def test_tables_next_hops_and_routes(self, weighted, fault_model):
        g, prebuilt, scenarios, rng = _instance(weighted, fault_model)
        kwargs = dict(fault_model=fault_model, prebuilt=prebuilt)
        rd = ref.SpannerRouter(g, 2, 2, **kwargs)
        rc = SpannerRouter(g, 2, 2, **kwargs)
        for faults in scenarios:
            alive = _survivors(g, faults, fault_model)
            for dest in alive[:5]:
                assert rd.table(dest, faults=faults) == \
                    rc.table(dest, faults=faults)
                for src in alive[-4:]:
                    if src == dest:
                        continue
                    table = rd.table(dest, faults=faults)
                    if src not in table:
                        continue  # unreachable under this scenario
                    assert rd.next_hop(src, dest, faults=faults) == \
                        rc.next_hop(src, dest, faults=faults)
                    assert rd.route(src, dest, faults=faults) == \
                        rc.route(src, dest, faults=faults)
                    assert rd.route_cost(src, dest, faults=faults) == \
                        rc.route_cost(src, dest, faults=faults)
        assert rd.table_size() == rc.table_size()


@pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
class TestAvailabilityParity:
    def test_availability_reports_identical(self, weighted):
        g, prebuilt, _, _ = _instance(weighted, "vertex")
        kwargs = dict(
            failures=3, guarantee=3.0, scenarios=12,
            pairs_per_scenario=10, seed=17,
        )
        assert ref.availability_analysis(
            g, prebuilt.spanner, **kwargs
        ) == availability_analysis(g, prebuilt.spanner, **kwargs)

    def test_degradation_profiles_identical(self, weighted):
        g, prebuilt, _, _ = _instance(weighted, "vertex")
        kwargs = dict(
            guarantee=3.0, max_failures=3, scenarios=6,
            pairs_per_scenario=6, seed=23,
        )
        assert ref.degradation_profile(
            g, prebuilt.spanner, **kwargs
        ) == degradation_profile(g, prebuilt.spanner, **kwargs)


def _engine_instance(weighted: bool, fault_model: str):
    """Like :func:`_instance` but with *integral* weights, so every
    search engine (heap / bucket / bidir) is legal on the weighted
    cells."""
    g = generators.gnp_random_graph(32, 0.18, seed=555)
    if weighted:
        g = generators.with_random_weights(
            g, low=1.0, high=8.0, seed=555, integral=True
        )
    g = generators.ensure_connected(g, seed=555)
    prebuilt = fault_tolerant_spanner(g, 2, 2, fault_model=fault_model)
    rng = random.Random(9)
    universe = (
        sorted(g.nodes()) if fault_model == "vertex" else list(g.edges())
    )
    scenarios = [[]] + [rng.sample(universe, 2) for _ in range(4)]
    return g, prebuilt, scenarios, rng


ENGINES = ["auto", "heap", "bucket", "bidir", "batch"]


@pytest.mark.parametrize("weighted", [False, True],
                         ids=["unit", "int-weighted"])
@pytest.mark.parametrize("fault_model", ["vertex", "edge"])
@pytest.mark.parametrize("search", ENGINES)
class TestSearchEngineApplicationsParity:
    """Every engine cell answers exactly like the dict reference."""

    def test_oracle_answers_identical(self, weighted, fault_model, search):
        g, prebuilt, scenarios, rng = _engine_instance(weighted, fault_model)
        kwargs = dict(fault_model=fault_model, prebuilt=prebuilt)
        od = ref.FaultTolerantDistanceOracle(g, 2, 2, **kwargs)
        oc = FaultTolerantDistanceOracle(g, 2, 2, search=search, **kwargs)
        for faults in scenarios:
            alive = _survivors(g, faults, fault_model)
            pairs = [tuple(rng.sample(alive, 2)) for _ in range(10)]
            assert oc.distances(pairs, faults=faults) == \
                [od.distance(u, v, faults=faults) for u, v in pairs]
            for u, v in pairs[:4]:
                assert od.path(u, v, faults=faults) == \
                    oc.path(u, v, faults=faults)
            s = alive[0]
            assert od.distances_from(s, faults=faults) == \
                oc.distances_from(s, faults=faults)

    def test_router_tables_identical(self, weighted, fault_model, search):
        g, prebuilt, scenarios, rng = _engine_instance(weighted, fault_model)
        kwargs = dict(fault_model=fault_model, prebuilt=prebuilt)
        rd = ref.SpannerRouter(g, 2, 2, **kwargs)
        rc = SpannerRouter(g, 2, 2, search=search, **kwargs)
        for faults in scenarios:
            alive = _survivors(g, faults, fault_model)
            for dest in alive[:4]:
                assert rd.table(dest, faults=faults) == \
                    rc.table(dest, faults=faults)

    def test_availability_reports_identical(
        self, weighted, fault_model, search
    ):
        if fault_model == "edge":
            pytest.skip("availability samples vertex failures only")
        g, prebuilt, _, _ = _engine_instance(weighted, fault_model)
        kwargs = dict(
            failures=3, guarantee=3.0, scenarios=8,
            pairs_per_scenario=8, seed=17,
        )
        assert ref.availability_analysis(
            g, prebuilt.spanner, **kwargs
        ) == availability_analysis(
            g, prebuilt.spanner, search=search, **kwargs
        )


@pytest.mark.parametrize("weighted", [False, True],
                         ids=["unit", "int-weighted"])
@pytest.mark.parametrize("fault_model", ["vertex", "edge"])
@pytest.mark.parametrize("search", ENGINES)
class TestDynamicEngineApplicationsParity:
    """The ``dynamic`` column of the engine matrix: every engine cell
    answers exactly like the dict reference *after* streaming updates
    have churned the graph, with faults drawn from the post-churn
    state (so scenarios can hit overlay-inserted edges).  The reference
    applies the same updates to dict copies in place."""

    def _churned_pair(self, weighted, fault_model, search):
        g = generators.gnp_random_graph(32, 0.18, seed=555)
        if weighted:
            g = generators.with_random_weights(
                g, low=1.0, high=8.0, seed=555, integral=True
            )
        g = generators.ensure_connected(g, seed=555)
        sc = SpannerSession(
            g.copy(), k=2, f=2, fault_model=fault_model, seed=0,
            search=search,
        )
        built = sc.build()
        gd, hd = g.copy(), built.spanner.copy()
        ops = generators.sliding_window_churn(
            g, steps=25, window=6, seed=555,
            weights="int" if weighted else "unit",
        )
        assert ref.apply_updates(gd, hd, ops) == \
            sc.apply_updates(list(ops))
        assert sorted(gd.weighted_edges()) == sorted(sc.g.weighted_edges())
        assert sorted(hd.weighted_edges()) == \
            sorted(sc.spanner.weighted_edges())
        prebuilt = dataclasses.replace(built, spanner=hd)
        kwargs = dict(fault_model=fault_model, prebuilt=prebuilt)
        od = ref.FaultTolerantDistanceOracle(gd, 2, 2, **kwargs)
        rd = ref.SpannerRouter(gd, 2, 2, **kwargs)
        rng = random.Random(9)
        universe = (
            sorted(gd.nodes()) if fault_model == "vertex"
            else list(gd.edges())
        )
        scenarios = [[]] + [rng.sample(universe, 2) for _ in range(3)]
        return gd, (od, rd), sc, scenarios, rng

    def test_oracle_answers_identical(self, weighted, fault_model, search):
        gd, (od, _), sc, scenarios, rng = self._churned_pair(
            weighted, fault_model, search
        )
        oc = sc.oracle()
        for faults in scenarios:
            alive = _survivors(gd, faults, fault_model)
            pairs = [tuple(rng.sample(alive, 2)) for _ in range(8)]
            assert oc.distances(pairs, faults=faults) == \
                [od.distance(u, v, faults=faults) for u, v in pairs]
            for u, v in pairs[:3]:
                assert od.path(u, v, faults=faults) == \
                    oc.path(u, v, faults=faults)

    def test_router_tables_identical(self, weighted, fault_model, search):
        gd, (_, rd), sc, scenarios, rng = self._churned_pair(
            weighted, fault_model, search
        )
        rc = sc.router()
        for faults in scenarios:
            alive = _survivors(gd, faults, fault_model)
            for dest in alive[:3]:
                assert rd.table(dest, faults=faults) == \
                    rc.table(dest, faults=faults)


class TestSearchEngineValidationInApplications:
    def test_float_weights_reject_integral_engines(self):
        g = generators.ensure_connected(
            generators.weighted_gnp(20, 0.25, seed=3), seed=3
        )
        prebuilt = fault_tolerant_spanner(g, 2, 1)
        from repro.graph.snapshot import UnsupportedSearch

        for search in ("bucket", "bidir", "batch"):
            oracle = FaultTolerantDistanceOracle(
                g, 2, 1, prebuilt=prebuilt, search=search
            )
            with pytest.raises(UnsupportedSearch, match="float"):
                oracle.distance(0, 1)  # sweep built on first query
            with pytest.raises(UnsupportedSearch, match="float"):
                availability_analysis(
                    g, prebuilt.spanner, failures=1, guarantee=3.0,
                    scenarios=2, pairs_per_scenario=2, seed=0,
                    search=search,
                )

    def test_unknown_search_rejected_eagerly(self):
        g = generators.gnp_random_graph(10, 0.4, seed=1)
        prebuilt = fault_tolerant_spanner(g, 2, 1)
        from repro.graph.snapshot import UnsupportedSearch

        with pytest.raises(UnsupportedSearch):
            FaultTolerantDistanceOracle(
                g, 2, 1, prebuilt=prebuilt, search="dial"
            )
        with pytest.raises(UnsupportedSearch):
            SpannerRouter(g, 2, 1, prebuilt=prebuilt, search="dial")
