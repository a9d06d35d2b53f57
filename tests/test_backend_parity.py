"""Differential tests: the CSR production path vs the dict reference.

Every construction, verification report, and stretch measure runs on
the CSR substrate; ``tests/reference/`` keeps the dict formulation of
each as the oracle.  The spanner edge set, the certificates, and the
BFS accounting must be *identical* to the reference -- not merely
valid.  This holds because both iterate neighbors in the same order and
therefore find the same shortest-hop paths in every LBC invocation.

The last class guards the shape that makes the oracle independent:
``src/`` never imports the reference, the reference never imports the
CSR modules itself, and the retired ``backend=`` option is rejected
instead of silently ignored.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

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
    @pytest.mark.parametrize("k", [2, 3])
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

    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    def test_weighted_identical(self, fault_model):
        g = generators.weighted_gnp(24, 0.25, seed=3)
        r_dict = ref.modified_greedy_weighted(
            g, 2, 1, fault_model=fault_model
        )
        r_csr = modified_greedy_weighted(g, 2, 1, fault_model=fault_model)
        assert set(r_dict.spanner.edges()) == set(r_csr.spanner.edges())
        assert r_dict.certificates == r_csr.certificates

    def test_degree_shortcut_identical(self):
        g = _instance(seed=11)
        r_dict = ref.modified_greedy_unweighted(g, 2, 2, degree_shortcut=True)
        r_csr = modified_greedy_unweighted(g, 2, 2, degree_shortcut=True)
        assert set(r_dict.spanner.edges()) == set(r_csr.spanner.edges())
        assert r_dict.extra == r_csr.extra

    @pytest.mark.parametrize("order", ["random", "degree"])
    def test_alternative_orders_identical(self, order):
        g = _instance(seed=13)
        r_dict = ref.modified_greedy_unweighted(
            g, 2, 1, order=order, seed=5
        )
        r_csr = modified_greedy_unweighted(g, 2, 1, order=order, seed=5)
        assert set(r_dict.spanner.edges()) == set(r_csr.spanner.edges())


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
    def test_insertion_stream_identical(self, fault_model):
        g = generators.gnp_random_graph(40, 0.15, seed=11)
        inc_dict = ref.IncrementalSpanner(2, 1, fault_model=fault_model)
        inc_csr = IncrementalSpanner(2, 1, fault_model=fault_model)
        for u, v in g.edges():
            assert inc_dict.insert(u, v) == inc_csr.insert(u, v)
        assert (
            set(inc_dict.spanner.edges()) == set(inc_csr.spanner.edges())
        )
        assert inc_dict.certificates == inc_csr.certificates
        assert inc_dict.bfs_calls == inc_csr.bfs_calls

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
        # One CSR LBC test per candidate edge: the only execution path.
        assert len(calls) == result.edges_considered == g.num_edges

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


class TestSearchEngineParity:
    """Engine x fault-model x weight-profile cells of the parity matrix.

    The weighted search engines (heap / bucket / bidir) are pure
    execution policy: on every cell where an engine is legal, the
    verification report and the stretch measures must equal the dict
    reference's bit for bit.  Instances use *integral* weights so all
    three engines are legal; the unit cells force the weighted engines
    onto graphs the auto policy would answer with BFS.
    """

    ENGINES = ["auto", "heap", "bucket", "bidir", "batch"]

    @staticmethod
    def _graph(weighted, seed=4):
        g = generators.gnp_random_graph(22, 0.25, seed=seed)
        if weighted:
            g = generators.with_random_weights(
                g, low=1.0, high=8.0, seed=seed, integral=True
            )
        return g

    @pytest.mark.parametrize("weighted", [False, True],
                             ids=["unit", "int-weighted"])
    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    @pytest.mark.parametrize("search", ENGINES)
    def test_verification_reports_identical(
        self, weighted, fault_model, search
    ):
        g = self._graph(weighted)
        h = fault_tolerant_spanner(g, 2, 1).spanner
        r_dict = ref.verify_ft_spanner(
            g, h, t=3, f=1, fault_model=fault_model
        )
        r_eng = verify_ft_spanner(
            g, h, t=3, f=1, fault_model=fault_model, search=search
        )
        assert r_dict.ok == r_eng.ok
        assert r_dict.exhaustive == r_eng.exhaustive
        assert r_dict.fault_sets_checked == r_eng.fault_sets_checked
        assert r_dict.counterexample == r_eng.counterexample

    @pytest.mark.parametrize("weighted", [False, True],
                             ids=["unit", "int-weighted"])
    @pytest.mark.parametrize("search", ENGINES)
    def test_counterexamples_identical_on_broken_spanner(
        self, weighted, search
    ):
        import random

        g = self._graph(weighted, seed=8)
        h = fault_tolerant_spanner(g, 2, 1).spanner.copy()
        edges = list(h.edges())
        for e in random.Random(8).sample(edges, len(edges) // 2):
            h.remove_edge(*e)
        r_dict = ref.verify_ft_spanner(g, h, t=3, f=1)
        r_eng = verify_ft_spanner(g, h, t=3, f=1, search=search)
        assert not r_eng.ok
        assert r_dict.fault_sets_checked == r_eng.fault_sets_checked
        assert r_dict.counterexample == r_eng.counterexample

    @pytest.mark.parametrize("weighted", [False, True],
                             ids=["unit", "int-weighted"])
    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    @pytest.mark.parametrize("search", ENGINES)
    def test_stretch_measures_identical(self, weighted, fault_model, search):
        import random

        g = self._graph(weighted, seed=6)
        h = fault_tolerant_spanner(g, 2, 1).spanner
        assert max_stretch(g, h, search=search) == \
            ref.max_stretch(g, h)
        assert pairwise_stretch(g, h, search=search) == \
            ref.pairwise_stretch(g, h)
        rng = random.Random(6)
        if fault_model == "vertex":
            faults = rng.sample(list(g.nodes()), 3)
        else:
            faults = rng.sample(list(g.edges()), 3)
        assert max_stretch_under_faults(
            g, h, faults, fault_model, search=search
        ) == ref.max_stretch_under_faults(g, h, faults, fault_model)

    def test_integral_engines_rejected_on_float_weights(self):
        from repro.graph.snapshot import UnsupportedSearch

        g = generators.weighted_gnp(14, 0.3, seed=4)
        h = fault_tolerant_spanner(g, 2, 1).spanner
        for search in ("bucket", "bidir", "batch"):
            with pytest.raises(UnsupportedSearch, match="float"):
                verify_ft_spanner(g, h, t=3, f=1, search=search)
            with pytest.raises(UnsupportedSearch, match="float"):
                max_stretch(g, h, search=search)
        # Float weights on the heap engine (and auto) stay legal.
        verify_ft_spanner(g, h, t=3, f=0, search="heap")

    def test_unknown_search_name_rejected(self):
        from repro.graph.snapshot import UnsupportedSearch
        from repro.graph.views import fault_view

        g = generators.gnp_random_graph(10, 0.4, seed=1)
        with pytest.raises(UnsupportedSearch):
            verify_ft_spanner(g, g, t=3, f=0, search="dial")
        # Graphs probe on CSR, lazy views with dict Dijkstra: both
        # validate the engine name.
        gv = fault_view(g, vertex_faults=[0])
        for a, b in ((g, g), (gv, gv)):
            with pytest.raises(UnsupportedSearch):
                max_stretch(a, b, search="dial")
