"""Spanner-based routing (repro.applications.routing)."""

from __future__ import annotations

import math

import pytest

from repro.applications.routing import RoutingError, SpannerRouter
from repro.core.greedy_modified import fault_tolerant_spanner
from repro.graph import generators
from repro.graph.traversal import dijkstra
from repro.graph.views import VertexFaultView


@pytest.fixture
def mesh():
    return generators.ensure_connected(
        generators.gnp_random_graph(25, 0.25, seed=888), seed=888
    )


@pytest.fixture
def router(mesh):
    return SpannerRouter(mesh, k=2, f=1)


class TestBasicRouting:
    def test_route_reaches_destination(self, mesh, router):
        route = router.route(0, 20)
        assert route[0] == 0 and route[-1] == 20
        for a, b in zip(route, route[1:]):
            assert router.spanner.has_edge(a, b)

    def test_next_hop_consistent_with_route(self, router):
        route = router.route(0, 20)
        assert router.next_hop(0, 20) == route[1]

    def test_all_pairs_route(self, mesh, router):
        nodes = sorted(mesh.nodes())
        for u in nodes[:5]:
            for v in nodes[-5:]:
                if u == v:
                    continue
                route = router.route(u, v)
                assert route[-1] == v
                # Loop-free: no repeated nodes.
                assert len(route) == len(set(route))

    def test_route_cost_within_stretch(self, mesh, router):
        true = dijkstra(mesh, 0)
        for dest in (5, 12, 24):
            cost = router.route_cost(0, dest)
            assert cost <= (2 * router.k - 1) * true[dest] + 1e-9

    def test_same_node_rejected(self, router):
        with pytest.raises(ValueError):
            router.next_hop(3, 3)

    def test_unknown_destination(self, router):
        with pytest.raises(KeyError):
            router.next_hop(0, 999)


class TestFaultedRouting:
    def test_route_avoids_faults(self, mesh, router):
        for fault in (3, 7, 15):
            for dest in (20, 24):
                if dest == fault:
                    continue
                route = router.route(0, dest, faults=[fault])
                assert fault not in route

    def test_faulted_route_within_guarantee(self, mesh, router):
        fault = 9
        gv = VertexFaultView(mesh, {fault})
        true = dijkstra(gv, 0)
        for dest in (5, 18, 22):
            if dest == fault or dest not in true:
                continue
            cost = router.route_cost(0, dest, faults=[fault])
            assert cost <= (2 * router.k - 1) * true[dest] + 1e-9

    def test_too_many_faults_rejected(self, router):
        with pytest.raises(ValueError, match="at most"):
            router.route(0, 5, faults=[1, 2])

    def test_faulted_destination_rejected(self, router):
        with pytest.raises(ValueError, match="fault set"):
            router.route(0, 5, faults=[5])

    def test_unreachable_raises_routing_error(self):
        g = generators.path_graph(5)
        router = SpannerRouter(g, k=2, f=0)
        # Without faults all reachable; cut the path via a vertex fault
        # beyond the budget f=0 is rejected, so build f=1 instead.
        router = SpannerRouter(g, k=2, f=1)
        with pytest.raises(RoutingError):
            router.route(0, 4, faults=[2])

    def test_edge_fault_model(self, mesh):
        router = SpannerRouter(mesh, k=2, f=1, fault_model="edge")
        edge = next(iter(router.spanner.edges()))
        route = router.route(edge[0], edge[1], faults=[edge])
        assert len(route) >= 3  # forced detour around the faulted edge
        for a, b in zip(route, route[1:]):
            assert (a, b) != edge and (b, a) != edge


class TestCachingAndPrebuilt:
    def test_tables_cached(self, mesh, router):
        router.route(0, 20)
        size_one = router.table_size()
        router.route(1, 20)  # same destination, same scenario
        assert router.table_size() == size_one

    def test_prebuilt_spanner(self, mesh):
        result = fault_tolerant_spanner(mesh, 2, 1)
        router = SpannerRouter(mesh, k=2, f=1, prebuilt=result)
        assert router.spanner is result.spanner
        assert router.route(0, 10)[-1] == 10


class TestDisjointRoutes:
    def test_default_count_is_f_plus_1(self, mesh):
        router = SpannerRouter(mesh, k=2, f=2)
        routes = router.disjoint_routes(0, 20)
        assert len(routes) == 3
        for route in routes:
            assert route[0] == 0 and route[-1] == 20
            for a, b in zip(route, route[1:]):
                assert router.spanner.has_edge(a, b)
        interiors = [set(r[1:-1]) for r in routes]
        for i, a in enumerate(interiors):
            for b in interiors[i + 1:]:
                assert not a & b, "routes share interior vertices"

    def test_edge_model_routes_edge_disjoint(self, mesh):
        from repro.graph.graph import edge_key

        router = SpannerRouter(mesh, k=2, f=1, fault_model="edge")
        routes = router.disjoint_routes(0, 20)
        assert len(routes) == 2
        used = [
            {edge_key(a, b) for a, b in zip(r, r[1:])} for r in routes
        ]
        assert not used[0] & used[1]

    def test_routes_avoid_reported_faults(self, mesh):
        router = SpannerRouter(mesh, k=2, f=1)
        full = router.disjoint_routes(0, 20)
        fault = full[0][1]  # first hop of the first route
        survivors = router.disjoint_routes(0, 20, count=1, faults=[fault])
        for route in survivors:
            assert fault not in route

    def test_backends_agree(self, mesh):
        from tests import reference as ref

        csr = SpannerRouter(mesh, k=2, f=1)
        dict_ = ref.SpannerRouter(mesh, k=2, f=1, prebuilt=csr.construction)
        assert csr.disjoint_routes(0, 20) == dict_.disjoint_routes(0, 20)

    def test_insufficient_routes_raise(self):
        router = SpannerRouter(generators.path_graph(5), k=2, f=1)
        with pytest.raises(RoutingError):
            router.disjoint_routes(0, 4, count=2)

    def test_validation(self, router):
        with pytest.raises(ValueError):
            router.disjoint_routes(3, 3)
        with pytest.raises(ValueError):
            router.disjoint_routes(0, 20, count=0)
        with pytest.raises(ValueError):
            router.disjoint_routes(0, 20, faults=[20])
        with pytest.raises(KeyError):
            router.disjoint_routes(0, 99)
