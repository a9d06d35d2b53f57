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


PROFILES = ["unit", "int", "float"]


def _weighted(g, profile: str, seed: int):
    """``g`` with weights of one profile (unit graphs pass through)."""
    if profile == "unit":
        return g
    return generators.with_random_weights(
        g, low=1.0, high=8.0, seed=seed, integral=profile == "int"
    )


def _instance(profile: str, fault_model: str):
    """A connected graph of one weight profile, its spanner, and
    sampled fault scenarios."""
    if profile == "float":
        g = generators.weighted_gnp(32, 0.18, seed=555)
    else:
        g = _weighted(generators.gnp_random_graph(32, 0.18, seed=555),
                      profile, seed=555)
    g = generators.ensure_connected(g, seed=555)
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


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("fault_model", ["vertex", "edge"])
class TestOracleParity:
    def _oracles(self, profile, fault_model):
        g, prebuilt, scenarios, rng = _instance(profile, fault_model)
        kwargs = dict(fault_model=fault_model, prebuilt=prebuilt)
        return (
            g,
            scenarios,
            rng,
            ref.FaultTolerantDistanceOracle(g, 2, 2, **kwargs),
            FaultTolerantDistanceOracle(g, 2, 2, **kwargs),
        )

    def test_distances_and_paths(self, profile, fault_model):
        g, scenarios, rng, od, oc = self._oracles(profile, fault_model)
        for faults in scenarios:
            alive = _survivors(g, faults, fault_model)
            pairs = [tuple(rng.sample(alive, 2)) for _ in range(12)]
            for u, v in pairs:
                assert od.distance(u, v, faults=faults) == \
                    oc.distance(u, v, faults=faults)
                assert od.path(u, v, faults=faults) == \
                    oc.path(u, v, faults=faults)

    def test_batch_matches_per_query(self, profile, fault_model):
        g, scenarios, rng, od, oc = self._oracles(profile, fault_model)
        for faults in scenarios:
            alive = _survivors(g, faults, fault_model)
            pairs = [tuple(rng.sample(alive, 2)) for _ in range(15)]
            pairs.append((alive[0], alive[0]))  # self-pair in a batch
            per_query = [od.distance(u, v, faults=faults) for u, v in pairs]
            assert oc.distances(pairs, faults=faults) == per_query
            assert od.distances(pairs, faults=faults) == per_query

    def test_distances_from_and_matrix(self, profile, fault_model):
        g, scenarios, rng, od, oc = self._oracles(profile, fault_model)
        for faults in scenarios:
            alive = _survivors(g, faults, fault_model)
            sources = alive[:6]
            for s in sources:
                assert od.distances_from(s, faults=faults) == \
                    oc.distances_from(s, faults=faults)
            assert od.distance_matrix(sources, faults=faults) == \
                oc.distance_matrix(sources, faults=faults)

    def test_validation_errors_match(self, profile, fault_model):
        g, scenarios, rng, od, oc = self._oracles(profile, fault_model)
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


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("fault_model", ["vertex", "edge"])
class TestRouterParity:
    def test_tables_next_hops_and_routes(self, profile, fault_model):
        g, prebuilt, scenarios, rng = _instance(profile, fault_model)
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
            # The batched tables() pass (the multi-source BFS on unit
            # spanners, a per-root loop on int and float ones).
            assert rd.tables(alive, faults=faults) == \
                rc.tables(alive, faults=faults)
        assert rd.table_size() == rc.table_size()


@pytest.mark.parametrize("profile", PROFILES)
class TestAvailabilityParity:
    def test_availability_reports_identical(self, profile):
        g, prebuilt, _, _ = _instance(profile, "vertex")
        kwargs = dict(
            failures=3, guarantee=3.0, scenarios=12,
            pairs_per_scenario=10, seed=17,
        )
        assert ref.availability_analysis(
            g, prebuilt.spanner, **kwargs
        ) == availability_analysis(g, prebuilt.spanner, **kwargs)

    def test_degradation_profiles_identical(self, profile):
        g, prebuilt, _, _ = _instance(profile, "vertex")
        kwargs = dict(
            guarantee=3.0, max_failures=3, scenarios=6,
            pairs_per_scenario=6, seed=23,
        )
        assert ref.degradation_profile(
            g, prebuilt.spanner, **kwargs
        ) == degradation_profile(g, prebuilt.spanner, **kwargs)


@pytest.mark.parametrize("profile, n, p", [
    ("unit", 100, 0.10), ("int", 80, 0.12), ("float", 80, 0.12),
])
def test_adopted_session_consumers_match_reference(profile, n, p):
    """A session that adopts a prebuilt spanner serves its oracle,
    router and availability sweep from one shared snapshot, on graphs
    about three times the size of the fixtures above: the batched
    oracle equals the reference's per-query answers, the batched router
    tables its per-destination tables, and the availability report the
    reference report."""
    g = _weighted(generators.gnp_random_graph(n, p, seed=42), profile,
                  seed=42)
    g = generators.ensure_connected(g, seed=42)
    prebuilt = fault_tolerant_spanner(g, 2, 2)
    session = SpannerSession(g, k=2, f=2, seed=42)
    session.adopt(prebuilt)
    od = ref.FaultTolerantDistanceOracle(g, 2, 2, prebuilt=prebuilt)
    rd = ref.SpannerRouter(g, 2, 2, prebuilt=prebuilt)
    oc = session.oracle(cache_size=2 * n)
    rc = session.router()
    rng = random.Random(42)
    nodes = sorted(g.nodes())
    scenarios = [[]] + [rng.sample(nodes, 2) for _ in range(2)]
    pool = [x for x in nodes if not any(x in sc for sc in scenarios)]
    pairs = [tuple(rng.sample(pool, 2)) for _ in range(120)]
    for faults in scenarios:
        assert oc.distances(pairs, faults=faults) == \
            [od.distance(u, v, faults=faults) for u, v in pairs]
        assert rc.tables(pool, faults=faults) == \
            {d: rd.table(d, faults=faults) for d in pool}
    kwargs = dict(failures=2, scenarios=8, pairs_per_scenario=8)
    assert session.availability(**kwargs) == ref.availability_analysis(
        g, prebuilt.spanner, guarantee=3, seed=42, **kwargs
    )


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("churn", PROFILES)
@pytest.mark.parametrize("fault_model", ["vertex", "edge"])
class TestDynamicProfileApplicationsParity:
    """The ``dynamic`` column of the profile matrix: every base-profile
    x churn-profile cell answers exactly like the dict reference *after*
    streaming updates have churned the graph (moving it to the churn's
    profile when that is wider), with faults drawn from the post-churn
    state (so scenarios can hit overlay-inserted edges).  The reference
    applies the same updates to dict copies in place."""

    def _churned_pair(self, profile, churn, fault_model):
        g = _weighted(generators.gnp_random_graph(32, 0.18, seed=555),
                      profile, seed=555)
        g = generators.ensure_connected(g, seed=555)
        sc = SpannerSession(
            g.copy(), k=2, f=2, fault_model=fault_model, seed=0,
        )
        built = sc.build()
        gd, hd = g.copy(), built.spanner.copy()
        ops = generators.sliding_window_churn(
            g, steps=25, window=6, seed=555, weights=churn,
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

    def test_oracle_answers_identical(self, profile, churn, fault_model):
        gd, (od, _), sc, scenarios, rng = self._churned_pair(
            profile, churn, fault_model
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

    def test_router_tables_identical(self, profile, churn, fault_model):
        gd, (_, rd), sc, scenarios, rng = self._churned_pair(
            profile, churn, fault_model
        )
        rc = sc.router()
        for faults in scenarios:
            alive = _survivors(gd, faults, fault_model)
            for dest in alive[:3]:
                assert rd.table(dest, faults=faults) == \
                    rc.table(dest, faults=faults)
