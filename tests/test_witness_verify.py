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

The middle part pins the flows themselves: every witness flow runs on
the pair's length ellipse only, and must return the paths the whole of
H returns with every edge off the ellipse banned; and full reports are
pinned on fixed instances, fallback pairs included.  Flows stop at f+1
units and rerun in full only when a unit is too long; the reported
witnesses must cover every pair the full flow alone certifies.

The last part checks the certificates themselves: a disjoint-path
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
from repro.flow.dinitz import DisjointPathNetwork
from repro.graph import generators
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph, edge_key
from repro.graph.traversal import dijkstra
from repro.verification import disjoint_paths, verify_ft_spanner
from repro.verification import spanner_check
from tests import reference as ref

INF = float("inf")

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
        # One graph per weighted row of the engine policy: bucket /
        # bidir probes on integral weights, heap probes on float ones.
        ("gnp12-int", generators.with_random_weights(
            generators.ensure_connected(
                generators.gnp_random_graph(12, 0.35, seed=13), seed=13),
            low=1.0, high=6.0, seed=13, integral=True)),
        ("gnp12-float", generators.with_random_weights(
            generators.ensure_connected(
                generators.gnp_random_graph(12, 0.35, seed=14), seed=14),
            low=1.0, high=6.0, seed=14)),
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


def pinned_instance(seed, profile):
    """G(18, 0.3), unit-weighted or with weights in [1, 6]."""
    g = generators.ensure_connected(
        generators.gnp_random_graph(18, 0.3, seed=seed), seed=seed
    )
    if profile != "unit":
        g = generators.with_random_weights(
            g, low=1.0, high=6.0, seed=seed, integral=profile == "int"
        )
    return g


def record_flows(monkeypatch):
    """Record every witness flow as (csr, u, v, kwargs, paths)."""
    calls = []
    run = DisjointPathNetwork.disjoint_paths

    def record(self, u, v, **kwargs):
        paths = run(self, u, v, **kwargs)
        calls.append((self.csr, u, v, kwargs, paths))
        return paths

    monkeypatch.setattr(DisjointPathNetwork, "disjoint_paths", record)
    return calls


def ellipse_edges(csr, h, u, v, bound):
    """The edge ids {x, y} of H with d_u(x) + w(x, y) + d_v(y) <= bound
    in either orientation, from full (unbounded) distances."""
    du, dv = dijkstra(h, u), dijkstra(h, v)
    node = csr.indexer.node
    ellipse = set()
    for eid in range(csr.num_edges):
        a, b = node(csr.edge_u[eid]), node(csr.edge_v[eid])
        w = csr.weights[eid]
        if min(
            du.get(a, INF) + w + dv.get(b, INF),
            du.get(b, INF) + w + dv.get(a, INF),
        ) <= bound:
            ellipse.add(eid)
    return ellipse


class TestEllipseFlows:
    """Each witness flow runs on the pair's length ellipse only: the
    edges {x, y} of H with d_u(x) + w(x, y) + d_v(y) <= t * w(u, v) in
    either orientation.  Checked per pair against that definition
    evaluated over every edge of H with full distances (which also
    guards the witness mode's bounded labels), and against the flow on
    all of H with every other edge banned and the same ``limit``."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("profile", ["unit", "int", "float"])
    @pytest.mark.parametrize("model", MODELS)
    def test_paths_match_the_ban_formulation(
        self, monkeypatch, model, profile, seed
    ):
        t, f = 3, 2
        g = pinned_instance(seed, profile)
        h = fault_tolerant_spanner(g, 2, f, fault_model=model).spanner
        calls = record_flows(monkeypatch)
        report = verify_ft_spanner(
            g, h, t=t, f=f, fault_model=model, mode="witness"
        )
        monkeypatch.undo()
        assert report.ok and calls
        for csr, iu, iv, kwargs, paths in calls:
            assert set(kwargs) - {"limit"} == {"workspace", "allowed_edges"}
            assert kwargs.get("limit") in (None, f + 1)
            u, v = csr.indexer.node(iu), csr.indexer.node(iv)
            bound = t * g.weight(u, v)
            ellipse = ellipse_edges(csr, h, u, v, bound)
            assert set(kwargs["allowed_edges"]) == ellipse, (u, v)
            banned = sorted(set(range(csr.num_edges)) - ellipse)
            assert DisjointPathNetwork(csr, model).disjoint_paths(
                iu, iv, limit=kwargs.get("limit"), banned_edges=banned
            ) == paths, (u, v)


#: (seed, weight profile, fault model, index of the H-edge removed in
#: sorted order, or None) ->
#: (ok, exhaustive, pairs_checked, pairs_witnessed, fault_sets_checked)
#: of witness mode on the f=2 greedy spanner of ``pinned_instance``,
#: t=3, exhaustive_budget=2000.  The fallback row leaves one pair
#: without a witness; the last row plants a violation.
PINNED_REPORTS = {
    (0, "unit", "vertex", None): (True, True, 40, 40, 0),
    (1, "int", "edge", None): (True, True, 48, 48, 0),
    (1, "float", "vertex", None): (True, True, 48, 48, 0),
    (3, "float", "edge", None): (True, True, 42, 41, 904),
    (12, "unit", "edge", None): (True, True, 48, 48, 0),
    (0, "int", "vertex", 3): (False, True, 40, 3, 1),
}


class TestPinnedReports:
    @pytest.mark.parametrize("key", list(PINNED_REPORTS))
    def test_report_is_pinned(self, key):
        seed, profile, model, drop = key
        g = pinned_instance(seed, profile)
        h = fault_tolerant_spanner(g, 2, 2, fault_model=model).spanner
        if drop is not None:
            h.remove_edge(*sorted(h.edges())[drop])
        r = verify_ft_spanner(
            g, h, t=3, f=2, fault_model=model, mode="witness",
            exhaustive_budget=2000, seed=0,
        )
        assert (
            r.ok, r.exhaustive, r.pairs_checked, r.pairs_witnessed,
            r.fault_sets_checked,
        ) == PINNED_REPORTS[key]


def spy_labels(monkeypatch):
    """Record every witness label search as (source, bound, reached),
    the bound being ``max_hops`` (BFS) or ``max_dist`` (Dijkstra)."""
    calls = []
    bfs, dijkstra_ = spanner_check.csr_bfs_distances, spanner_check.csr_dijkstra

    def spy_bfs(csr, source, **kwargs):
        reached = bfs(csr, source, **kwargs)
        calls.append((source, kwargs["max_hops"], reached))
        return reached

    def spy_dijkstra(csr, source, **kwargs):
        reached = dijkstra_(csr, source, **kwargs)
        calls.append((source, kwargs["max_dist"], reached))
        return reached

    monkeypatch.setattr(spanner_check, "csr_bfs_distances", spy_bfs)
    monkeypatch.setattr(spanner_check, "csr_dijkstra", spy_dijkstra)
    return calls


def report_tuple(r):
    return (
        r.ok, r.exhaustive, r.pairs_checked, r.pairs_witnessed,
        r.fault_sets_checked,
    )


class TestLabelReach:
    """The witness labels stop at t * (largest checked weight) - w_min,
    w_min the weight of H's lightest edge: an ellipse edge {x, y} has
    d_u(x) + w(x, y) + d_v(y) <= t * w, so no label value the ellipse
    reads lies past that cut.  ``TestEllipseFlows`` checks every allowed
    set against full labels; these pin the cut itself and its edges."""

    def test_unit_labels_stop_at_two_hops(self, monkeypatch):
        g = pinned_instance(0, "unit")
        h = fault_tolerant_spanner(g, 2, 2).spanner
        calls = spy_labels(monkeypatch)
        assert verify_ft_spanner(g, h, t=3, f=2, mode="witness").ok
        assert calls and {bound for _, bound, _ in calls} == {2}

    def test_int_labels_stop_at_the_bound_minus_w_min(self, monkeypatch):
        g = pinned_instance(1, "int")
        h = fault_tolerant_spanner(g, 2, 2, fault_model="edge").spanner
        cut = 3 * max(w for _, _, w in g.weighted_edges()) - min(
            w for _, _, w in h.weighted_edges()
        )
        calls = spy_labels(monkeypatch)
        assert verify_ft_spanner(
            g, h, t=3, f=2, fault_model="edge", mode="witness"
        ).ok
        assert calls and {bound for _, bound, _ in calls} == {cut}

    def test_forced_u_tail(self, monkeypatch):
        # H: two disjoint 3-hop u-v paths; G adds the edge {u, v}.  The
        # labels stop at 2 hops, so neither endpoint's label reaches the
        # other: d_v(u) = 3 lies past the cut, and only u's forced place
        # in the vertex ellipse keeps its edges in the flow.
        u, v = 0, 5
        h = Graph()
        for a, b in ((u, 1), (1, 2), (2, v), (u, 3), (3, 4), (4, v)):
            h.add_edge(a, b)
        g = h.copy()
        g.add_edge(u, v)
        labels = spy_labels(monkeypatch)
        flows = record_flows(monkeypatch)
        r = verify_ft_spanner(g, h, t=3, f=1, mode="witness")
        monkeypatch.undo()
        assert report_tuple(r) == (True, True, 7, 7, 0)
        (csr, iu, iv, kwargs, paths), = flows
        assert {csr.indexer.node(iu), csr.indexer.node(iv)} == {u, v}
        assert sorted(kwargs["allowed_edges"]) == list(range(6))
        assert len(paths) == 2
        reached = {source: found for source, _, found in labels}
        assert iv not in reached[iu] and iu not in reached[iv]

    def test_h_without_edges(self):
        # No w_min: every pair goes to the fallback, which finds the
        # first pair broken under the empty fault set.
        g = generators.cycle_graph(5)
        h = Graph()
        h.add_nodes(g.nodes())
        for model in MODELS:
            r = verify_ft_spanner(
                g, h, t=3, f=1, fault_model=model, mode="witness"
            )
            assert report_tuple(r) == (False, True, 5, 0, 1)
            assert r.counterexample.faults == frozenset()

    @pytest.mark.parametrize("seed, pinned", [
        # pair (0, 1): d_G(0, 1) = 2 < w, so no fault set (f = 0) makes
        # the edge a shortest path; the fallback passes.
        (2, (True, False, 1, 0, 1)),
        # pair (0, 2): broken under the empty fault set.
        (1, (False, True, 1, 0, 1)),
    ])
    def test_sampled_pairs_lighter_than_w_min(
        self, monkeypatch, seed, pinned
    ):
        # The one sampled pair has t * w <= 15 < w_min = 20: the cut
        # would be negative and is clamped at 0, and the pair goes to
        # the fallback sweep.
        g = Graph()
        for a, b, w in ((0, 1, 5), (0, 2, 1), (1, 2, 1), (2, 3, 20)):
            g.add_edge(a, b, weight=w)
        h = Graph()
        h.add_nodes(g.nodes())
        h.add_edge(2, 3, weight=20)
        calls = spy_labels(monkeypatch)
        r = verify_ft_spanner(
            g, h, t=3, f=0, mode="witness", witness_pairs=1, seed=seed
        )
        assert report_tuple(r) == pinned
        assert calls and {bound for _, bound, _ in calls} == {0.0}


def path_length(h, path):
    return sum(h.weight(a, b) for a, b in zip(path, path[1:]))


def full_flow_witnesses(g, h, t, f, model):
    """Pairs of G certified by the unlimited flow: an H-edge within the
    bound, or f+1 short paths among all paths of the max flow on the
    whole of H with every edge off the pair's ellipse banned."""
    csr = CSRGraph.from_graph(h)
    node, index = csr.indexer.node, csr.indexer.index
    network = DisjointPathNetwork(csr, model)
    witnessed = 0
    for u, v in g.edges():
        bound = t * g.weight(u, v)
        if h.has_edge(u, v) and h.weight(u, v) <= bound:
            witnessed += 1
            continue
        ellipse = ellipse_edges(csr, h, u, v, bound)
        banned = sorted(set(range(csr.num_edges)) - ellipse)
        paths = network.disjoint_paths(
            index(u), index(v), banned_edges=banned
        )
        short = sum(
            path_length(h, [node(x) for x in path]) <= bound
            for path in paths
        )
        witnessed += short >= f + 1
    return witnessed


class TestFlowLimit:
    """Witness flows stop at f+1 units; the full max flow runs again
    only when one of those units decomposes into a path over the bound.
    The reported witnesses are a superset of the full flow's."""

    def test_first_units_certify_a_former_fallback_pair(self, monkeypatch):
        # Seed 12 (unit, edge model): the full flow on pair (12, 16) has
        # four paths with fewer than f+1 short ones, so the pair used to
        # fall back to the sweep (1177 fault sets).  Its first f+1 units
        # are all short: a complete certificate.
        t, f, model = 3, 2, "edge"
        g = pinned_instance(12, "unit")
        h = fault_tolerant_spanner(g, 2, f, fault_model=model).spanner
        calls = record_flows(monkeypatch)
        verify_ft_spanner(
            g, h, t=t, f=f, fault_model=model, mode="witness",
            exhaustive_budget=2000, seed=0,
        )
        monkeypatch.undo()
        (csr, iu, iv, kwargs, paths), = [
            call for call in calls
            if {call[0].indexer.node(call[1]),
                call[0].indexer.node(call[2])} == {12, 16}
        ]
        assert kwargs["limit"] == f + 1
        node = csr.indexer.node
        u, v = node(iu), node(iv)
        bound = t * g.weight(u, v)
        TestWitnessCertificates.check_by_hand(
            h, u, v, [[node(x) for x in p] for p in paths], f + 1, bound,
            model,
        )
        full = DisjointPathNetwork(csr, model).disjoint_paths(
            iu, iv, allowed_edges=kwargs["allowed_edges"]
        )
        assert len(full) > f + 1
        assert sum(
            path_length(h, [node(x) for x in p]) <= bound for p in full
        ) < f + 1

    @pytest.mark.parametrize("seed", [150, 194])
    @pytest.mark.parametrize("model", MODELS)
    def test_a_long_unit_reruns_the_full_flow(self, monkeypatch, seed, model):
        # One pair's first f+1 units include a path over the bound; the
        # full flow on the same ellipse has f+1 short ones.
        g = pinned_instance(seed, "int")
        h = fault_tolerant_spanner(g, 2, 2, fault_model=model).spanner
        calls = record_flows(monkeypatch)
        r = verify_ft_spanner(
            g, h, t=3, f=2, fault_model=model, mode="witness",
            exhaustive_budget=2000, seed=0,
        )
        monkeypatch.undo()
        reruns = [call for call in calls if "limit" not in call[3]]
        assert len(reruns) == 1
        (csr, iu, iv, kwargs, _), = reruns
        assert [
            call[3]["allowed_edges"] for call in calls
            if call[1:3] == (iu, iv)
        ] == [kwargs["allowed_edges"]] * 2
        assert (
            r.ok, r.exhaustive, r.pairs_checked, r.pairs_witnessed,
            r.fault_sets_checked,
        ) == (True, True, 47, 47, 0)

    @pytest.mark.parametrize("seed", [0, 3, 12, 150])
    @pytest.mark.parametrize("profile", ["unit", "int", "float"])
    @pytest.mark.parametrize("model", MODELS)
    def test_no_pair_loses_its_witness(self, seed, profile, model):
        t, f = 3, 2
        g = pinned_instance(seed, profile)
        h = fault_tolerant_spanner(g, 2, f, fault_model=model).spanner
        witness = verify_ft_spanner(
            g, h, t=t, f=f, fault_model=model, mode="witness",
            exhaustive_budget=2000, seed=0,
        )
        sweep = verify_ft_spanner(
            g, h, t=t, f=f, fault_model=model, exhaustive_budget=2000,
        )
        assert witness.pairs_witnessed >= full_flow_witnesses(
            g, h, t, f, model
        )
        assert sweep.exhaustive and witness.ok == sweep.ok


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
