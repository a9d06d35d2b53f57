"""The dynamic-snapshot subsystem: overlays, compaction, churn serving.

The correctness bar is the one the module promises: every query
against a :class:`~repro.dynamic.snapshot.DynamicSnapshot` is
**bit-identical** to the same query against a from-scratch freeze of
the current graph state -- across engines, fault models, and weight
profiles, at every point of a random update stream, and across
compaction boundaries.  Everything here compares with ``==``.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.dynamic import (
    CompactionPolicy,
    DeltaOverlay,
    DynamicSnapshot,
    EdgeDelete,
    EdgeInsert,
    UpdateConflict,
    UpdateLog,
    classify_op,
    coerce_op,
)
from repro.graph import generators
from repro.graph.graph import Graph
from repro.graph.snapshot import CSRSnapshot, ScenarioSweep, UnsupportedSearch
from repro.session import SpannerSession

INFINITY = math.inf

ENGINES = ["auto", "heap", "bucket", "bidir", "batch"]
PROFILES = ["unit", "int", "float"]


def _base_graph(profile: str, seed: int = 11) -> Graph:
    g = generators.ensure_connected(
        generators.gnp_random_graph(28, 0.15, seed=seed), seed=seed
    )
    if profile == "unit":
        return g
    integral = profile == "int"
    return generators.with_random_weights(
        g, low=1.0, high=9.0, seed=seed, integral=integral
    )


def _weight_for(profile: str, rng: random.Random) -> float:
    if profile == "unit":
        return 1.0
    if profile == "int":
        return float(rng.randint(1, 9))
    return rng.uniform(1.0, 9.0)


def _random_ops(g: Graph, rng: random.Random, count: int, profile: str):
    """A mixed insert/delete/re-insert/reweight stream, always legal."""
    nodes = sorted(g.nodes())
    churn: list = []  # edges this stream inserted and hasn't deleted
    ops = []
    for _ in range(count):
        roll = rng.random()
        if churn and roll < 0.35:
            u, v = churn.pop(rng.randrange(len(churn)))
            ops.append(("delete", u, v))
        elif churn and roll < 0.45:  # reweight one of our own edges
            u, v = churn[rng.randrange(len(churn))]
            ops.append(("insert", u, v, _weight_for(profile, rng)))
        else:
            for _ in range(50):
                u, v = rng.sample(nodes, 2)
                if not g.has_edge(u, v) and (u, v) not in churn and \
                        (v, u) not in churn:
                    churn.append((u, v))
                    ops.append(
                        ("insert", u, v, _weight_for(profile, rng))
                    )
                    break
    return ops


def _assert_query_parity(dyn: DynamicSnapshot, search: str,
                         fault_model: str = "vertex", faults=()) -> None:
    """Every sweep query on ``dyn`` equals a fresh freeze of its graph."""
    fresh = ScenarioSweep(CSRSnapshot(dyn.g), search=search)
    live = dyn.sweep(search=search)
    if faults:
        if fault_model == "vertex":
            fresh.set_vertex_faults(faults)
            live.set_vertex_faults(faults)
        else:
            fresh.set_edge_faults(faults)
            live.set_edge_faults(faults)
    else:
        fresh.clear_faults()
        live.clear_faults()
    nodes = sorted(dyn.g.nodes(), key=repr)
    banned = set(faults) if fault_model == "vertex" else set()
    sources = [x for x in nodes if x not in banned][:5]
    assert live.distances_multi(sources) == fresh.distances_multi(sources)
    for s in sources[:3]:
        assert live.distances_from(s) == fresh.distances_from(s)
        assert live.parents_toward(s) == fresh.parents_toward(s)
    u, v = sources[0], sources[-1]
    assert live.path(u, v) == fresh.path(u, v)


# --------------------------------------------------------------------- #
# Update log semantics
# --------------------------------------------------------------------- #


class TestUpdateLog:
    def test_coerce_tuple_forms(self):
        assert coerce_op(("insert", 1, 2)) == EdgeInsert(1, 2, 1.0)
        assert coerce_op(("insert", 1, 2, 4.0)) == EdgeInsert(1, 2, 4.0)
        assert coerce_op(("delete", 1, 2)) == EdgeDelete(1, 2)
        op = EdgeInsert(3, 4, 2.0)
        assert coerce_op(op) is op
        with pytest.raises(TypeError):
            coerce_op(("upsert", 1, 2))
        with pytest.raises(TypeError):
            coerce_op("insert 1 2")

    def test_classify_fates(self):
        g = Graph([(1, 2, 1.0)])
        assert classify_op(g, EdgeInsert(2, 3)) == "insert"
        assert classify_op(g, EdgeInsert(1, 2, 5.0)) == "update"
        assert classify_op(g, EdgeInsert(1, 2, 1.0)) == "noop"
        assert classify_op(g, EdgeDelete(1, 2)) == "delete"

    def test_conflicts_never_mutate(self):
        g = Graph([(1, 2, 1.0)])
        with pytest.raises(UpdateConflict):
            classify_op(g, EdgeInsert(1, 1))
        with pytest.raises(UpdateConflict):
            classify_op(g, EdgeInsert(1, 3, -2.0))
        with pytest.raises(UpdateConflict):
            classify_op(g, EdgeDelete(1, 3))
        assert list(g.weighted_edges()) == [(1, 2, 1.0)]

    def test_idempotent_reinsert_is_noop(self):
        g = generators.path_graph(4)
        dyn = DynamicSnapshot(g)
        v0 = dyn.version
        assert dyn.apply([("insert", 0, 1, 1.0)]) == 0
        assert dyn.version == v0  # no effective mutation, no bump
        assert dyn.log.fates() == ("noop",)

    def test_replay_reproduces_state(self):
        g = generators.gnp_random_graph(20, 0.15, seed=3)
        before = g.copy()
        dyn = DynamicSnapshot(g, max_density=None)
        ops = _random_ops(g, random.Random(5), 40, "int")
        dyn.apply(ops)
        replayed = dyn.log.replay(before)
        assert sorted(replayed.weighted_edges()) == \
            sorted(g.weighted_edges())

    def test_mid_batch_conflict_keeps_prefix(self):
        g = generators.path_graph(5)
        dyn = DynamicSnapshot(g)
        with pytest.raises(UpdateConflict):
            dyn.apply([("insert", 0, 4), ("delete", 1, 3), ("insert", 0, 2)])
        assert g.has_edge(0, 4)      # prefix applied
        assert not g.has_edge(0, 2)  # suffix never reached
        _assert_query_parity(dyn, "auto")


# --------------------------------------------------------------------- #
# Overlay vs refreeze equivalence
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("search", ENGINES)
class TestOverlayRefreezeEquivalence:
    def test_random_stream_bit_identical(self, profile, search):
        if search in ("bucket", "bidir", "batch") and profile == "float":
            pytest.skip("integral-only engine")
        g = _base_graph(profile)
        rng = random.Random(hash((profile, search)) & 0xFFFF)
        dyn = DynamicSnapshot(g, compact_every=13)
        ops = _random_ops(g, rng, 60, profile)
        for lo in range(0, len(ops), 15):
            dyn.apply(ops[lo:lo + 15])
            _assert_query_parity(dyn, search)
        assert dyn.compactions >= 1  # the stream crossed a refreeze

    def test_faults_intersecting_overlay_edges(self, profile, search):
        if search in ("bucket", "bidir", "batch") and profile == "float":
            pytest.skip("integral-only engine")
        g = _base_graph(profile)
        rng = random.Random(77)
        dyn = DynamicSnapshot(g, max_density=None)
        ops = [op for op in _random_ops(g, rng, 30, profile)]
        dyn.apply(ops)
        inserted = [
            (op[1], op[2]) for op in ops
            if op[0] == "insert" and g.has_edge(op[1], op[2])
        ]
        # Edge faults right on overlay-inserted edges...
        _assert_query_parity(
            dyn, search, fault_model="edge", faults=inserted[:3]
        )
        # ...and vertex faults on their endpoints.
        _assert_query_parity(
            dyn, search, fault_model="vertex",
            faults=[inserted[0][0], inserted[-1][1]],
        )


class TestOverlayMechanics:
    def test_empty_overlay_shares_base_rows(self):
        g = generators.gnp_random_graph(20, 0.2, seed=2)
        snap = CSRSnapshot(g)
        dyn = DynamicSnapshot(g, base=snap)
        ov = dyn.overlay
        # Fast path: untouched rows are the base's own list objects.
        assert all(
            ov.neighbors[i] is snap.csr.neighbors[i]
            for i in range(ov.num_nodes)
        )
        _assert_query_parity(dyn, "auto")

    def test_delete_retires_edge_ids_without_renumbering(self):
        g = generators.cycle_graph(6)
        dyn = DynamicSnapshot(g, max_density=None)
        ov = dyn.overlay
        m0 = ov.num_edges
        eid = ov.edge_id(0, 1)
        dyn.apply([("delete", 0, 1)])
        assert ov.num_edges == m0          # id space never shrinks
        assert ov.live_edges == m0 - 1
        assert not ov.owns_edge_id(eid)    # retired, not renumbered
        dyn.apply([("insert", 0, 1, 1.0)])
        assert ov.edge_id(0, 1) == m0      # re-insert gets a fresh id
        assert not ov.owns_edge_id(eid)

    def test_new_nodes_through_shared_indexer(self):
        g = generators.path_graph(4)
        dyn = DynamicSnapshot(g)
        dyn.apply([("insert", 3, "new-a"), ("insert", "new-a", "new-b")])
        assert dyn.view.csr.num_nodes == 6
        _assert_query_parity(dyn, "auto")

    def test_incremental_profile_tracks_weight_classes(self):
        g = generators.path_graph(5)
        dyn = DynamicSnapshot(g, max_density=None)
        assert dyn.view.profile == "unit"
        dyn.apply([("insert", 0, 3, 4.0)])
        assert dyn.view.profile == "int"
        assert dyn.view.max_weight == 4
        dyn.apply([("insert", 0, 4, 2.5)])
        assert dyn.view.profile == "float"
        dyn.apply([("delete", 0, 4)])
        assert dyn.view.profile == "int"
        dyn.apply([("delete", 0, 3)])
        assert dyn.view.profile == "unit"

    def test_overlay_rejects_stale_base(self):
        g = generators.path_graph(4)
        base = CSRSnapshot(g)
        g.add_edge(0, 3)
        with pytest.raises(ValueError, match="stale"):
            DynamicSnapshot(g, base=base.csr)


# --------------------------------------------------------------------- #
# Compaction policy
# --------------------------------------------------------------------- #


class TestCompaction:
    def _dyn(self, k):
        g = generators.gnp_random_graph(24, 0.15, seed=4)
        return DynamicSnapshot(g, compact_every=k, max_density=None), g

    def test_boundary_k_minus_one_k_k_plus_one(self):
        K = 7
        dyn, g = self._dyn(K)
        ops = _random_ops(g, random.Random(1), K + 1, "unit")
        dyn.apply(ops[:K - 1])
        assert dyn.compactions == 0 and dyn.overlay_depth == K - 1
        dyn.apply(ops[K - 1:K])  # the K-th effective update
        assert dyn.compactions == 1 and dyn.overlay_depth == 0
        dyn.apply(ops[K:K + 1])
        assert dyn.compactions == 1 and dyn.overlay_depth == 1
        _assert_query_parity(dyn, "auto")

    def test_fires_mid_batch(self):
        K = 5
        dyn, g = self._dyn(K)
        ops = _random_ops(g, random.Random(2), 2 * K, "unit")
        dyn.apply(ops)  # one call, two boundary crossings
        assert dyn.compactions == 2
        _assert_query_parity(dyn, "auto")

    def test_density_trigger(self):
        g = generators.gnp_random_graph(24, 0.15, seed=4)
        dyn = DynamicSnapshot(g, max_density=0.10)
        budget = int(0.10 * dyn.overlay.base.num_edges) + 1
        dyn.apply(_random_ops(g, random.Random(3), budget + 2, "unit"))
        assert dyn.compactions >= 1
        assert dyn.overlay.density() <= 0.10 + 1e-9

    def test_manual_only_mode(self):
        g = generators.gnp_random_graph(24, 0.15, seed=4)
        dyn = DynamicSnapshot(g, max_density=None)
        dyn.apply(_random_ops(g, random.Random(4), 50, "unit"))
        assert dyn.compactions == 0
        dyn.compact()
        assert dyn.compactions == 1 and dyn.overlay_depth == 0
        _assert_query_parity(dyn, "auto")

    def test_rebase_keeps_holders_valid(self):
        g = generators.gnp_random_graph(24, 0.15, seed=4)
        dyn = DynamicSnapshot(g, max_density=None)
        sweep = dyn.sweep()  # held across the compaction
        ov = dyn.overlay
        dyn.apply(_random_ops(g, random.Random(5), 20, "unit"))
        v = dyn.version
        dyn.compact()
        assert dyn.overlay is ov          # same object, rebased in place
        assert dyn.version > v            # version moved past the rebase
        assert dyn.sweep() is sweep
        _assert_query_parity(dyn, "auto")

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            CompactionPolicy(compact_every=0)
        with pytest.raises(ValueError):
            CompactionPolicy(max_density=0.0)


# --------------------------------------------------------------------- #
# Session churn: SnapshotStale, H-mirroring, reference parity
# --------------------------------------------------------------------- #


class TestSessionChurn:
    def _session(self):
        g = generators.ensure_connected(
            generators.gnp_random_graph(30, 0.15, seed=8), seed=8
        )
        s = SpannerSession(g, k=2, f=1, seed=0)
        s.build()
        return s

    def test_snapshot_stale_guards_live_server(self):
        from repro.serving import SnapshotStale

        s = self._session()
        server = s.serve()
        try:
            with pytest.raises(SnapshotStale):
                s.apply_updates([("insert", 0, 28, 1.0)])
        finally:
            server.close()
        # Closed server releases the lease; refreeze-then-serve works.
        assert s.apply_updates([("insert", 0, 28, 1.0)]) == 1
        with s.serve() as server2:
            assert server2.distances(
                [(0, 28)], faults=[], fault_model="vertex"
            ) == [1.0]

    def test_updates_mirror_into_spanner(self):
        s = self._session()
        h = s.result.spanner
        assert s.apply_updates([("insert", 1, 28, 1.0)]) == 1
        assert h.has_edge(1, 28)  # churned edge served at stretch 1
        hu, hv = next(iter(h.edges()))
        s.apply_updates([("delete", hu, hv)])
        assert not h.has_edge(hu, hv)
        for u, v in h.edges():  # H stays a subgraph of G
            assert s.g.has_edge(u, v)

    def test_dict_vs_csr_backend_parity_under_churn(self):
        import dataclasses

        from repro.graph.traversal import dijkstra
        from tests import reference as ref

        sc = self._session()
        assert sc.churn_stats() is None
        gd, hd = sc.g.copy(), sc.result.spanner.copy()
        ops = _random_ops(gd, random.Random(12), 30, "unit")
        assert ref.apply_updates(gd, hd, ops) == sc.apply_updates(list(ops))
        assert sorted(gd.weighted_edges()) == sorted(sc.g.weighted_edges())
        assert sorted(hd.weighted_edges()) == \
            sorted(sc.result.spanner.weighted_edges())
        od = ref.FaultTolerantDistanceOracle(
            gd, 2, 1, prebuilt=dataclasses.replace(sc.result, spanner=hd)
        )
        oc = sc.oracle()
        rng = random.Random(13)
        nodes = sorted(gd.nodes())
        for _ in range(10):
            u, v = rng.sample(nodes, 2)
            want = dijkstra(hd, u, target=v).get(v, INFINITY)
            assert od.distance(u, v) == want
            assert oc.distance(u, v) == want
        assert sc.churn_stats() is not None

    def test_prebuilt_oracle_and_router_follow_churn(self):
        s = self._session()
        oracle = s.oracle()
        router = s.router()
        oracle.distance(0, 29)       # warm the caches pre-churn
        router.table(29)
        s.apply_updates([("insert", 0, 29, 1.0)])
        assert oracle.distance(0, 29) == 1.0
        assert router.route(0, 29) == [0, 29]

    def test_churn_can_invalidate_forced_engine(self):
        # A float insert makes the bucket queue illegal; the sweep's
        # refresh must surface UnsupportedSearch, not a wrong answer.
        g = generators.gnp_random_graph(20, 0.2, seed=10)
        dyn = DynamicSnapshot(g, max_density=None)
        sw = dyn.sweep(search="bucket")
        sw.distances_from(0)
        dyn.apply([("insert", 0, 19, 2.5)])
        with pytest.raises(UnsupportedSearch):
            sw.distances_from(0)


# --------------------------------------------------------------------- #
# Cascade fault process
# --------------------------------------------------------------------- #


class TestCascadeFaultProcess:
    def test_deterministic_and_sized(self):
        from repro.applications.availability import sample_fault_scenario

        g = generators.gnp_random_graph(25, 0.2, seed=6)
        nodes = sorted(g.nodes(), key=repr)
        draws = [
            sample_fault_scenario(
                nodes, 6, random.Random(42), "cascade",
                neighbors=g.neighbors,
            )
            for _ in range(2)
        ]
        assert draws[0] == draws[1]
        assert len(draws[0]) == 6
        assert draws[0] <= set(nodes)

    def test_requires_neighbors(self):
        from repro.applications.availability import sample_fault_scenario

        with pytest.raises(ValueError, match="neighbors"):
            sample_fault_scenario([1, 2, 3], 1, random.Random(0), "cascade")

    def test_report_parity_dict_vs_csr(self):
        from repro.applications.availability import availability_analysis
        from repro.core.greedy_modified import fault_tolerant_spanner

        g = generators.ensure_connected(
            generators.gnp_random_graph(26, 0.18, seed=9), seed=9
        )
        h = fault_tolerant_spanner(g, 2, 1).spanner
        kwargs = dict(
            failures=4, guarantee=3.0, scenarios=6,
            pairs_per_scenario=6, seed=21, fault_process="cascade",
        )
        from tests import reference as ref

        assert ref.availability_analysis(g, h, **kwargs) == \
            availability_analysis(g, h, **kwargs)

    def test_unknown_process_rejected(self):
        from repro.applications.availability import availability_analysis

        g = generators.cycle_graph(8)
        with pytest.raises(ValueError, match="fault_process"):
            availability_analysis(
                g, g.copy(), failures=1, guarantee=1.0,
                scenarios=1, pairs_per_scenario=1,
                fault_process="meteor",
            )


# --------------------------------------------------------------------- #
# Temporal workload generators
# --------------------------------------------------------------------- #


class TestTemporalGenerators:
    def test_degree_constrained_process(self):
        g1 = generators.degree_constrained_process(40, d=3, seed=14)
        g2 = generators.degree_constrained_process(40, d=3, seed=14)
        assert sorted(g1.edges()) == sorted(g2.edges())
        assert max(g1.degree(x) for x in g1.nodes()) <= 3
        prefix = generators.degree_constrained_process(
            40, d=3, steps=9, seed=14
        )
        assert prefix.num_edges == 9
        # Saturation: no legal pair remains at termination.
        eligible = [x for x in g1.nodes() if g1.degree(x) < 3]
        assert all(
            g1.has_edge(u, v)
            for i, u in enumerate(eligible)
            for v in eligible[i + 1:]
        )

    def test_sliding_window_churn_invariants(self):
        g = generators.gnp_random_graph(30, 0.1, seed=15)
        frozen = g.copy()
        ops = generators.sliding_window_churn(
            g, steps=40, window=6, seed=15, weights="int"
        )
        assert ops == generators.sliding_window_churn(
            g, steps=40, window=6, seed=15, weights="int"
        )
        assert sorted(g.edges()) == sorted(frozen.edges())  # g untouched
        live = set()
        for op in ops:
            if op[0] == "insert":
                assert not frozen.has_edge(op[1], op[2])
                live.add((op[1], op[2]))
                assert op[3] == float(int(op[3]))  # int profile
            else:
                assert (op[1], op[2]) in live  # only own inserts deleted
                live.discard((op[1], op[2]))
            # The evicting delete lands right after the overflowing
            # insert, so the live set peaks at window + 1 between them.
            assert len(live) <= 6 + 1

    def test_churn_stream_drives_dynamic_snapshot(self):
        g = generators.gnp_random_graph(30, 0.1, seed=16)
        ops = generators.sliding_window_churn(
            g, steps=30, window=5, seed=16
        )
        dyn = DynamicSnapshot(g, compact_every=11)
        dyn.apply(ops)
        _assert_query_parity(dyn, "auto")
