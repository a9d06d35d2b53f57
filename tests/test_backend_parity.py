"""Differential tests: the CSR production path vs the dict reference.

Every construction, verification report, and stretch measure runs on
the CSR substrate; ``tests/reference/`` keeps the dict formulation of
each as the oracle.  The spanner edge set, the certificates, and the
BFS accounting must be *identical* to the reference -- not merely
valid.  This holds because both iterate neighbors in the same order and
therefore find the same shortest-hop paths in every LBC invocation.

A later class guards the shape that makes the oracle independent:
``src/`` never imports the reference, the reference never imports the
CSR modules itself, and the retired ``backend=`` option is rejected
instead of silently ignored (nor do the retired ``search=`` knob's
names survive in ``src/``).
"""

from __future__ import annotations

import ast
import hashlib
import math
from pathlib import Path

import pytest

from repro.applications import availability_analysis
from repro.baselines.baswana_sen import baswana_sen_spanner
from repro.baselines.greedy_classic import classic_greedy_spanner
from repro.core.greedy_exact import exponential_greedy_spanner
from repro.core.greedy_modified import (
    fault_tolerant_spanner,
    modified_greedy_unweighted,
    modified_greedy_weighted,
)
from repro.core.incremental import IncrementalSpanner
from repro.graph import generators
from repro.graph.graph import edge_key
from repro.graph.snapshot import CSRSnapshot
from repro.registry import UnsupportedOption, build_spanner
from repro.verification import (
    is_spanner,
    max_stretch,
    max_stretch_under_faults,
    pairwise_stretch,
    verify_ft_spanner,
)
from tests import reference as ref

REPO = Path(__file__).resolve().parent.parent


def _instance(seed=7, n=28, p=0.18):
    return generators.ensure_connected(
        generators.gnp_random_graph(n, p, seed=seed), seed=seed
    )


class TestModifiedGreedyParity:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("f", [0, 1, 2])
    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    def test_unweighted_identical(self, k, f, fault_model):
        g = _instance()
        r_dict = ref.modified_greedy_unweighted(
            g, k, f, fault_model=fault_model
        )
        r_csr = modified_greedy_unweighted(g, k, f, fault_model=fault_model)
        assert set(r_dict.spanner.edges()) == set(r_csr.spanner.edges())
        assert r_dict.bfs_calls == r_csr.bfs_calls
        assert r_dict.certificates == r_csr.certificates
        assert r_dict.extra == r_csr.extra
        # The forced-YES degree test never changes the spanner.
        oracle = ref.lbc_only_greedy(g, k, f, fault_model=fault_model)
        assert r_csr.spanner == oracle.spanner

    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    def test_weighted_identical(self, fault_model):
        g = generators.weighted_gnp(24, 0.25, seed=3)
        r_dict = ref.modified_greedy_weighted(
            g, 2, 1, fault_model=fault_model
        )
        r_csr = modified_greedy_weighted(g, 2, 1, fault_model=fault_model)
        assert set(r_dict.spanner.edges()) == set(r_csr.spanner.edges())
        assert r_dict.certificates == r_csr.certificates
        oracle = ref.lbc_only_greedy(g, 2, 1, fault_model=fault_model)
        assert r_csr.spanner == oracle.spanner

    def test_degree_shortcut_identical(self):
        g = _instance(seed=11)
        r_dict = ref.modified_greedy_unweighted(g, 2, 2)
        r_csr = modified_greedy_unweighted(g, 2, 2)
        assert set(r_dict.spanner.edges()) == set(r_csr.spanner.edges())
        assert r_dict.extra == r_csr.extra
        assert r_csr.extra["degree_shortcuts"] > 0

    @pytest.mark.parametrize("order", ["random", "degree"])
    def test_alternative_orders_identical(self, order):
        g = _instance(seed=13)
        r_dict = ref.modified_greedy_unweighted(
            g, 2, 1, order=order, seed=5
        )
        r_csr = modified_greedy_unweighted(g, 2, 1, order=order, seed=5)
        assert set(r_dict.spanner.edges()) == set(r_csr.spanner.edges())


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _pinned_graph(family, weighted, seed, n=60):
    if family == "gnp":
        g = generators.gnp_random_graph(n, 10 / (n - 1), seed=seed)
    elif family == "ba":
        g = generators.barabasi_albert_graph(n, 4, seed=seed)
    else:
        radius = math.sqrt(12 / (math.pi * (n - 1)))
        g = generators.random_geometric_graph(
            n, radius, seed=seed, weighted=False
        )
    g = generators.ensure_connected(g, seed=seed)
    if weighted:
        g = generators.with_random_weights(g, 1, 16, seed=seed, integral=True)
    return g


class TestPinnedBuilds:
    """Absolute pins of the greedy (k=2, f=2) on one small graph per
    build family x fault model x weight setting: spanner digest,
    certificate digest and BFS count.  Unlike the parity classes these
    share nothing with ``tests/reference/``, so a change to the search
    that the reference also absorbed would still fail here."""

    @pytest.mark.parametrize(
        "family, model, weighted, seed, spanner, certs, bfs_calls",
        [
            ("gnp", "vertex", False, 1,
             "893c08a2db86a1a6", "ef4adcf36f058a0c", 426),
            ("ba", "edge", True, 2,
             "188a5a9523dfd2d9", "eea6e8249def907b", 280),
            ("geo", "vertex", True, 3,
             "f8ef803d4f6d518a", "9f23088d06e19fbe", 452),
            ("gnp", "edge", False, 4,
             "219cdc505ed1e65a", "212e064e2607f3ed", 389),
            ("ba", "vertex", False, 5,
             "c4140f3115608182", "07dbcd71bb90c530", 159),
            ("geo", "edge", False, 6,
             "4d5361add04a00fe", "1338a8ba1db18056", 451),
        ],
    )
    def test_pinned(
        self, family, model, weighted, seed, spanner, certs, bfs_calls
    ):
        g = _pinned_graph(family, weighted, seed)
        r = build_spanner(g, "greedy", k=2, f=2, fault_model=model)
        got = (
            _digest(sorted(
                (edge_key(u, v), w) for u, v, w in r.spanner.weighted_edges()
            )),
            _digest(sorted(
                (repr(e), sorted(map(repr, cut)))
                for e, cut in r.certificates.items()
            )),
            r.bfs_calls,
        )
        assert got == (spanner, certs, bfs_calls)


class TestExponentialGreedyParity:
    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    @pytest.mark.parametrize("f", [1, 2])
    def test_unit_weighted_identical(self, fault_model, f):
        g = generators.gnp_random_graph(14, 0.4, seed=3)
        r_dict = ref.exponential_greedy_spanner(
            g, 2, f, fault_model=fault_model
        )
        r_csr = exponential_greedy_spanner(g, 2, f, fault_model=fault_model)
        assert set(r_dict.spanner.edges()) == set(r_csr.spanner.edges())
        assert r_dict.certificates == r_csr.certificates

    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    @pytest.mark.parametrize("f", [1, 2])
    @pytest.mark.parametrize("seed", [1, 5])
    def test_weighted_identical(self, fault_model, f, seed):
        # The weighted path runs branch-and-bound over truncated Dijkstra
        # (no dict fallback): spanner AND certificates must match.
        g = generators.weighted_gnp(13, 0.4, seed=seed)
        r_dict = ref.exponential_greedy_spanner(
            g, 2, f, fault_model=fault_model
        )
        r_csr = exponential_greedy_spanner(g, 2, f, fault_model=fault_model)
        assert set(r_dict.spanner.edges()) == set(r_csr.spanner.edges())
        assert r_dict.certificates == r_csr.certificates


class TestClassicGreedyParity:
    @pytest.mark.parametrize("k", [2, 3])
    def test_weighted_identical(self, k):
        g = generators.weighted_gnp(40, 0.15, seed=9)
        r_dict = ref.classic_greedy_spanner(g, k)
        r_csr = classic_greedy_spanner(g, k)
        assert set(r_dict.spanner.edges()) == set(r_csr.spanner.edges())

    def test_unit_weighted_identical(self):
        g = generators.gnp_random_graph(40, 0.15, seed=9)
        r_dict = ref.classic_greedy_spanner(g, 2)
        r_csr = classic_greedy_spanner(g, 2)
        assert set(r_dict.spanner.edges()) == set(r_csr.spanner.edges())


class TestVerificationParity:
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    def test_reports_identical(self, weighted, fault_model):
        if weighted:
            g = generators.weighted_gnp(22, 0.25, seed=4)
        else:
            g = generators.gnp_random_graph(22, 0.25, seed=4)
        h = fault_tolerant_spanner(g, 2, 1).spanner
        r_dict = ref.verify_ft_spanner(
            g, h, t=3, f=1, fault_model=fault_model
        )
        r_csr = verify_ft_spanner(g, h, t=3, f=1, fault_model=fault_model)
        assert r_dict.ok == r_csr.ok
        assert r_dict.exhaustive == r_csr.exhaustive
        assert r_dict.fault_sets_checked == r_csr.fault_sets_checked
        assert r_dict.counterexample == r_csr.counterexample

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    def test_counterexample_identical_on_broken_spanner(
        self, weighted, fault_model
    ):
        import random

        if weighted:
            g = generators.weighted_gnp(20, 0.3, seed=8)
        else:
            g = generators.gnp_random_graph(20, 0.3, seed=8)
        h = fault_tolerant_spanner(g, 2, 1).spanner.copy()
        edges = list(h.edges())
        for e in random.Random(8).sample(edges, len(edges) // 2):
            h.remove_edge(*e)
        r_dict = ref.verify_ft_spanner(
            g, h, t=3, f=1, fault_model=fault_model
        )
        r_csr = verify_ft_spanner(g, h, t=3, f=1, fault_model=fault_model)
        assert not r_csr.ok
        assert r_dict.fault_sets_checked == r_csr.fault_sets_checked
        assert r_dict.counterexample == r_csr.counterexample

    def test_counterexample_weighted_h_distance_on_unit_g(self):
        # Unit G with non-unit H (arbitrary verify inputs): the reported
        # spanner_distance must be the weighted H-distance on both
        # paths.
        from repro.graph.graph import Graph

        g = Graph([("a", "b"), ("b", "d"), ("a", "d")])
        h = Graph()
        h.add_nodes(g.nodes())
        h.add_edge("a", "b", weight=5.0)
        h.add_edge("b", "d", weight=5.0)
        r_dict = ref.verify_ft_spanner(g, h, t=1, f=0)
        r_csr = verify_ft_spanner(g, h, t=1, f=0)
        assert r_dict.counterexample == r_csr.counterexample
        assert r_csr.counterexample.spanner_distance == 10.0

    def test_is_spanner_identical(self):
        g = generators.weighted_gnp(25, 0.25, seed=2)
        h = fault_tolerant_spanner(g, 2, 0).spanner
        assert ref.is_spanner(g, h, 3) == is_spanner(g, h, 3)
        assert not is_spanner(g, g.spanning_skeleton(), 3)


class TestStretchParity:
    def test_odd_pairs_identical(self):
        # Explicit pairs with nodes missing from G, H, or both must
        # behave identically on both paths (ratios or KeyErrors).
        from repro.graph.graph import Graph

        g = Graph([("a", "b", 1.0)])
        h = Graph([("a", "b", 1.0), ("b", "x", 1.0)])
        for pair, expect in [(("a", "ghost"), 1.0), (("a", "x"), 0.0)]:
            r_dict = ref.pairwise_stretch(g, h, pairs=[pair])
            r_csr = pairwise_stretch(g, h, pairs=[pair])
            assert r_dict == r_csr == {pair: expect}
        for stretch in (ref.pairwise_stretch, pairwise_stretch):
            with pytest.raises(KeyError):
                stretch(g, h, pairs=[("ghost", "a")])
            with pytest.raises(KeyError):
                # source in G but missing from H raises on both paths
                stretch(g, Graph([("p", "q", 1.0)]), pairs=[("a", "b")])

    def test_fault_free_measures_identical(self):
        g = generators.weighted_gnp(25, 0.25, seed=6)
        h = fault_tolerant_spanner(g, 2, 1).spanner
        assert ref.max_stretch(g, h) == max_stretch(g, h)
        assert ref.pairwise_stretch(g, h) == pairwise_stretch(g, h)

    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    def test_under_faults_identical(self, fault_model):
        import random

        g = generators.weighted_gnp(25, 0.25, seed=6)
        h = fault_tolerant_spanner(g, 2, 1).spanner
        rng = random.Random(6)
        if fault_model == "vertex":
            faults = rng.sample(list(g.nodes()), 3)
        else:
            faults = rng.sample(list(g.edges()), 3)
        s_dict = ref.max_stretch_under_faults(g, h, faults, fault_model)
        s_csr = max_stretch_under_faults(g, h, faults, fault_model)
        assert s_dict == s_csr


class TestIncrementalParity:
    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    @pytest.mark.parametrize("p, f", [(0.15, 1), (0.15, 2), (0.3, 1),
                                      (0.3, 2)])
    def test_insertion_stream_identical(self, fault_model, p, f):
        g = generators.gnp_random_graph(40, p, seed=11)
        inc_dict = ref.IncrementalSpanner(2, f, fault_model=fault_model)
        inc_csr = IncrementalSpanner(2, f, fault_model=fault_model)
        for u, v in g.edges():
            assert inc_dict.insert(u, v) == inc_csr.insert(u, v)
        assert (
            set(inc_dict.spanner.edges()) == set(inc_csr.spanner.edges())
        )
        assert inc_dict.certificates == inc_csr.certificates
        assert inc_dict.bfs_calls == inc_csr.bfs_calls
        # Both answers occur, so both LBC exits are compared.
        assert 0 < inc_csr.kept < inc_csr.inserted

    def test_add_node_before_edges(self):
        inc = IncrementalSpanner(2, 1)
        inc.add_node("lonely")
        assert inc.insert("lonely", "buddy")
        assert inc.spanner.has_edge("lonely", "buddy")


class TestBaswanaSenParity:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_clustering_identical(self, k, seed):
        # Same RNG stream, same spanner, same insertion order.
        g = generators.weighted_gnp(40, 0.15, seed=9)
        r_dict = ref.baswana_sen_spanner(g, k, seed=seed)
        r_csr = baswana_sen_spanner(g, k, seed=seed)
        assert list(r_dict.spanner.weighted_edges()) == \
            list(r_csr.spanner.weighted_edges())


def _imports(path):
    """Every module name a source file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{a.name}" for a in node.names)
    return names


def _view(g):
    from repro.graph.views import fault_view

    return fault_view(g, vertex_faults=[0])


# Every public entry point that used to take ``backend=``.  A leftover
# keyword must fail loudly (``TypeError``), never be swallowed.
_DIRECT_CALLS = {
    "modified-greedy": lambda g, **kw: fault_tolerant_spanner(g, 2, 1, **kw),
    "exact-greedy-weighted": lambda g, **kw: exponential_greedy_spanner(
        generators.weighted_gnp(10, 0.4, seed=1), 2, 1, **kw
    ),
    "classic-greedy": lambda g, **kw: classic_greedy_spanner(g, 2, **kw),
    "baswana-sen": lambda g, **kw: baswana_sen_spanner(g, 2, seed=0, **kw),
    "incremental": lambda g, **kw: IncrementalSpanner(2, 1, **kw),
    "verify": lambda g, **kw: verify_ft_spanner(g, g, t=3, f=0, **kw),
    "max-stretch": lambda g, **kw: max_stretch(g, g, **kw),
    "max-stretch-on-views": lambda g, **kw: max_stretch(
        _view(g), _view(g), **kw
    ),
    "pairwise-stretch": lambda g, **kw: pairwise_stretch(g, g, **kw),
    "stretch-under-faults": lambda g, **kw: max_stretch_under_faults(
        g, g, [0], **kw
    ),
}


class TestMixedProfileParity:
    """Sweeps whose two graphs sit on different policy rows.

    H is a spanner of a graph G0 of H's profile; G adds heavier edges
    of a wider profile to G0, so H is still a subgraph of G.  Each side
    of the dual sweeps then probes with its own engine -- a unit H with
    bidirectional Dijkstra beside G's bidir or heap probes -- and every
    report must still equal the dict reference's.
    """

    CELLS = [("int", "unit"), ("float", "unit"), ("float", "int")]

    @staticmethod
    def _pair(g_profile, h_profile, seed=5):
        import random

        g0 = generators.gnp_random_graph(22, 0.25, seed=seed)
        if h_profile == "int":
            g0 = generators.with_random_weights(
                g0, low=1.0, high=8.0, seed=seed, integral=True
            )
        h = fault_tolerant_spanner(g0, 2, 1).spanner
        g = g0.copy()
        rng = random.Random(seed)
        nodes = sorted(g.nodes())
        while g.num_edges < g0.num_edges + 15:
            u, v = rng.sample(nodes, 2)
            if not g.has_edge(u, v):
                w = (float(rng.randint(2, 8)) if g_profile == "int"
                     else rng.uniform(1.5, 8.5))
                g.add_edge(u, v, w)
        assert CSRSnapshot(g).profile == g_profile
        assert CSRSnapshot(h).profile == h_profile
        return g, h

    @pytest.mark.parametrize("cell", CELLS, ids="-".join)
    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    def test_verification_reports_identical(self, cell, fault_model):
        g, h = self._pair(*cell)
        r_dict = ref.verify_ft_spanner(
            g, h, t=3, f=1, fault_model=fault_model
        )
        r_csr = verify_ft_spanner(g, h, t=3, f=1, fault_model=fault_model)
        assert r_dict.ok == r_csr.ok
        assert r_dict.exhaustive == r_csr.exhaustive
        assert r_dict.fault_sets_checked == r_csr.fault_sets_checked
        assert r_dict.counterexample == r_csr.counterexample
        assert ref.is_spanner(g, h, 3) == is_spanner(g, h, 3)

    @pytest.mark.parametrize("cell", CELLS, ids="-".join)
    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    def test_stretch_measures_identical(self, cell, fault_model):
        import random

        g, h = self._pair(*cell, seed=6)
        assert max_stretch(g, h) == ref.max_stretch(g, h)
        assert pairwise_stretch(g, h) == ref.pairwise_stretch(g, h)
        rng = random.Random(6)
        if fault_model == "vertex":
            faults = rng.sample(list(g.nodes()), 3)
        else:
            faults = rng.sample(list(g.edges()), 3)
        assert max_stretch_under_faults(
            g, h, faults, fault_model
        ) == ref.max_stretch_under_faults(g, h, faults, fault_model)

    @pytest.mark.parametrize("cell", CELLS, ids="-".join)
    def test_availability_reports_identical(self, cell):
        g, h = self._pair(*cell, seed=7)
        kwargs = dict(
            failures=2, guarantee=3.0, scenarios=8,
            pairs_per_scenario=8, seed=17,
        )
        assert ref.availability_analysis(g, h, **kwargs) == \
            availability_analysis(g, h, **kwargs)


class TestOneProductionPath:
    """CSR is the only production path; the dict code is test-only."""

    def test_src_never_imports_the_reference(self):
        for path in sorted((REPO / "src").rglob("*.py")):
            bad = {m for m in _imports(path) if m.startswith("tests")}
            assert not bad, f"{path} imports {bad}"

    def test_reference_never_imports_csr_modules_itself(self):
        paths = sorted((REPO / "tests" / "reference").glob("*.py"))
        assert paths
        for path in paths:
            bad = {
                m for m in _imports(path)
                if m.startswith(("repro.graph.csr", "repro.graph.snapshot"))
                or m in ("repro.graph.csr", "repro.graph.snapshot")
            }
            assert not bad, f"{path} imports {bad}"

    def test_backend_option_rejected_by_build_spanner(self):
        g = _instance(seed=21, n=16, p=0.3)
        for value in ("dict", "csr"):
            with pytest.raises(UnsupportedOption, match="backend"):
                build_spanner(g, "greedy", k=2, f=1, backend=value)

    @pytest.mark.parametrize(
        "call", list(_DIRECT_CALLS.values()), ids=list(_DIRECT_CALLS)
    )
    def test_backend_keyword_rejected_by_direct_calls(self, call):
        g = _instance(seed=21, n=16, p=0.3)
        with pytest.raises(TypeError, match="backend"):
            call(g, backend="dict")

    def test_greedy_runs_on_the_csr_lbc(self, monkeypatch):
        import repro.core.greedy_modified as greedy_modified

        calls = []
        real = greedy_modified.lbc_vertex_csr

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(greedy_modified, "lbc_vertex_csr", counting)
        g = _instance(seed=21, n=16, p=0.3)
        result = build_spanner(g, "greedy", k=2, f=1)
        # Every candidate edge is settled by the degree test or by one
        # CSR LBC test: the only execution path.
        shortcuts = result.extra["degree_shortcuts"]
        assert 0 < len(calls) < g.num_edges
        assert len(calls) + shortcuts == result.edges_considered
        assert result.edges_considered == g.num_edges

    def test_environment_variable_never_reaches_the_greedy(
        self, monkeypatch
    ):
        g = _instance(seed=21, n=16, p=0.3)
        expected = ref.fault_tolerant_spanner(g, 2, 1)
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        result = fault_tolerant_spanner(g, 2, 1)
        assert set(result.spanner.edges()) == set(expected.spanner.edges())
        assert result.bfs_calls == expected.bfs_calls

    def test_no_backend_knob_left_in_src(self):
        banned = ("resolve_backend", "DEFAULT_BACKEND", "REPRO_BACKEND",
                  "backend_aware", "--backend", "BACKENDS")
        for path in sorted((REPO / "src").rglob("*.py")):
            text = path.read_text()
            assert not [b for b in banned if b in text], path

    def test_no_losing_batch_kernel_left_in_src(self):
        # Deleted kernels and their bucket helper: each lost to the
        # loop it batched or was never picked by the engine policy.
        banned = ("csr_bucket_multi", "csr_multi_pair_distances",
                  "_bfs_multi_probe", "_csr_probe_bucket", "ensure_buckets")
        for path in sorted((REPO / "src").rglob("*.py")):
            text = path.read_text()
            assert not [b for b in banned if b in text], path

    def test_no_search_knob_left_in_src(self):
        banned = ("SEARCH_MODES", "resolve_search", "validate_search",
                  "UnsupportedSearch", "REPRO_SEARCH", "REPRO_BATCH_ACCEL",
                  "BatchAccelUnavailable", "_bucket_multi_probe",
                  "--search")
        for path in sorted((REPO / "src").rglob("*.py")):
            text = path.read_text()
            assert not [b for b in banned if b in text], path


class TestWeightProfileParity:
    """Fault-model x weight-profile cells of the parity matrix.

    Each weight profile drives the CSR engine policy to different
    kernels -- hop-BFS on unit graphs, bidirectional Dijkstra on
    integral weights, the binary heap on float weights -- and on every
    cell the verification report and the stretch measures must equal
    the dict reference's bit for bit.
    """

    PROFILES = ["unit", "int", "float"]

    @staticmethod
    def _graph(profile, seed=4):
        g = generators.gnp_random_graph(22, 0.25, seed=seed)
        if profile != "unit":
            g = generators.with_random_weights(
                g, low=1.0, high=8.0, seed=seed, integral=profile == "int"
            )
        return g

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    def test_verification_reports_identical(self, profile, fault_model):
        g = self._graph(profile)
        h = fault_tolerant_spanner(g, 2, 1).spanner
        r_dict = ref.verify_ft_spanner(
            g, h, t=3, f=1, fault_model=fault_model
        )
        r_csr = verify_ft_spanner(g, h, t=3, f=1, fault_model=fault_model)
        assert r_dict.ok == r_csr.ok
        assert r_dict.exhaustive == r_csr.exhaustive
        assert r_dict.fault_sets_checked == r_csr.fault_sets_checked
        assert r_dict.counterexample == r_csr.counterexample

    @pytest.mark.parametrize("profile", PROFILES)
    def test_counterexamples_identical_on_broken_spanner(self, profile):
        import random

        g = self._graph(profile, seed=8)
        h = fault_tolerant_spanner(g, 2, 1).spanner.copy()
        edges = list(h.edges())
        for e in random.Random(8).sample(edges, len(edges) // 2):
            h.remove_edge(*e)
        r_dict = ref.verify_ft_spanner(g, h, t=3, f=1)
        r_csr = verify_ft_spanner(g, h, t=3, f=1)
        assert not r_csr.ok
        assert r_dict.fault_sets_checked == r_csr.fault_sets_checked
        assert r_dict.counterexample == r_csr.counterexample

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    def test_stretch_measures_identical(self, profile, fault_model):
        import random

        g = self._graph(profile, seed=6)
        h = fault_tolerant_spanner(g, 2, 1).spanner
        assert max_stretch(g, h) == ref.max_stretch(g, h)
        assert pairwise_stretch(g, h) == ref.pairwise_stretch(g, h)
        rng = random.Random(6)
        if fault_model == "vertex":
            faults = rng.sample(list(g.nodes()), 3)
        else:
            faults = rng.sample(list(g.edges()), 3)
        assert max_stretch_under_faults(
            g, h, faults, fault_model
        ) == ref.max_stretch_under_faults(g, h, faults, fault_model)

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    def test_sampled_reports_identical(self, profile, fault_model):
        # Beyond the exhaustive budget the sweep checks adversarially
        # sampled fault sets (the generator is shared), so the reports
        # must still match field for field.
        g = self._graph(profile, seed=9)
        h = fault_tolerant_spanner(
            g, 2, 2, fault_model=fault_model
        ).spanner
        kwargs = dict(t=3, f=2, fault_model=fault_model,
                      exhaustive_budget=50, samples=25, seed=3)
        r_dict = ref.verify_ft_spanner(g, h, **kwargs)
        r_csr = verify_ft_spanner(g, h, **kwargs)
        assert not r_csr.exhaustive
        assert r_dict.ok == r_csr.ok
        assert r_dict.fault_sets_checked == r_csr.fault_sets_checked
        assert r_dict.counterexample == r_csr.counterexample

    @pytest.mark.parametrize("profile", PROFILES)
    def test_is_spanner_identical(self, profile):
        import random

        g = self._graph(profile, seed=10)
        h = fault_tolerant_spanner(g, 2, 0).spanner
        broken = h.copy()
        edges = list(broken.edges())
        for e in random.Random(10).sample(edges, len(edges) // 3):
            broken.remove_edge(*e)
        for t in (1.0, 2.0, 3.0, 5.0):
            assert is_spanner(g, h, t) == ref.is_spanner(g, h, t)
            assert is_spanner(g, broken, t) == ref.is_spanner(g, broken, t)
