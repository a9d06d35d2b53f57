"""Parallel CONGEST execution, message accounting, and the
deterministic path.

Contracts pinned here:

1. **Instance-sharding parity** -- ``congest_ft_spanner`` produces the
   bit-identical spanner, round count, and extras for worker counts
   {1, 2, 4} as for sequential execution (``workers=None``).  Sharding
   its Baswana-Sen instances is an implementation detail, never an
   observable.
2. **One sequential round engine** -- the simulator runs every round
   in-process; no other entry point takes ``workers=``.  Every
   protocol's output and stats are the same however the input graph
   was built (node insertion order, edge order and orientation).
3. **Deterministic mode** -- the ruling-set machinery behind
   ``local_ft_spanner(deterministic=True)`` satisfies its stated
   (2, beta)-ruling-set / decomposition properties, and the resulting
   spanner keeps the fault-tolerance guarantee.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.distributed import (
    SyncNetwork,
    congest_baswana_sen,
    congest_ft_spanner,
    deterministic_decomposition,
    deterministic_ruling_set,
    local_ft_spanner,
    padded_decomposition,
    verify_decomposition,
    verify_ruling_set,
)
from repro.distributed import (
    congest_bs,
    decomposition,
    local_spanner,
    ruling_set,
)
from repro.graph import generators
from repro.graph.graph import Graph
from repro.verification import verify_ft_spanner
from repro.registry import UnsupportedOption, build_spanner
from tests.conftest import assert_is_subgraph

WORKER_COUNTS = (1, 2, 4)


def _fingerprint(result):
    """Everything observable about a SpannerResult, hashably."""
    return (
        sorted((repr(u), repr(v)) for u, v in result.spanner.edges()),
        result.rounds,
        tuple(sorted((result.extra or {}).items())),
    )


class TestParityMatrix:
    """congest_ft_spanner x worker count: outputs and stats bit-identical."""

    @pytest.fixture(scope="class")
    def graph(self):
        return generators.random_geometric_graph(40, radius=0.35, seed=21)

    def test_congest_ft(self, graph):
        base = _fingerprint(
            congest_ft_spanner(
                graph, 2, 1, seed=17, iteration_constant=0.2
            )
        )
        for w in WORKER_COUNTS:
            assert _fingerprint(
                congest_ft_spanner(
                    graph, 2, 1, seed=17, iteration_constant=0.2, workers=w
                )
            ) == base, f"workers={w}"


class TestConstructionOrder:
    """protocol x graph construction order: outputs and stats
    bit-identical.  Each protocol sees the graph only through the
    engine, which orders nodes and neighbors by repr."""

    @pytest.fixture(scope="class")
    def graph(self):
        return generators.random_geometric_graph(40, radius=0.35, seed=21)

    @pytest.fixture(scope="class")
    def rebuilt(self, graph):
        edges = list(graph.weighted_edges())
        random.Random(0).shuffle(edges)
        h = Graph()
        h.add_nodes(sorted(graph.nodes(), key=repr, reverse=True))
        for i, (u, v, w) in enumerate(edges):
            h.add_edge(*((v, u) if i % 2 else (u, v)), w)
        assert list(h.nodes()) != list(graph.nodes())
        return h

    def _same(self, run, graph, rebuilt, engine_log):
        base = run(graph)
        runs = len(engine_log)
        assert runs
        assert run(rebuilt) == base
        assert engine_log[runs:] == engine_log[:runs]

    def test_congest_baswana_sen(self, graph, rebuilt, engine_log):
        self._same(
            lambda g: _fingerprint(congest_baswana_sen(g, 3, seed=17)),
            graph, rebuilt, engine_log,
        )

    def test_local_spanner(self, graph, rebuilt, engine_log):
        self._same(
            lambda g: _fingerprint(local_ft_spanner(g, 2, 1, seed=17)),
            graph, rebuilt, engine_log,
        )

    def test_local_spanner_deterministic(self, graph, rebuilt, engine_log):
        self._same(
            lambda g: _fingerprint(
                local_ft_spanner(g, 2, 1, deterministic=True)
            ),
            graph, rebuilt, engine_log,
        )

    def test_decomposition(self, graph, rebuilt, engine_log):
        def run(g):
            dec, st = padded_decomposition(g, seed=17)
            return dec.assignment, dec.parent, dec.rounds, st.__dict__

        self._same(run, graph, rebuilt, engine_log)

    def test_ruling_set_decomposition(self, graph, rebuilt, engine_log):
        def run(g):
            dec, uncovered, st = deterministic_decomposition(g)
            return (deterministic_ruling_set(g), dec.assignment,
                    dec.parent, dec.rounds, uncovered, st.__dict__)

        self._same(run, graph, rebuilt, engine_log)


def _former_round_partitioned_calls():
    """Every entry point that took ``workers=`` only to partition rounds,
    with the exception it now raises for it."""
    g = generators.gnp_random_graph(12, 0.3, seed=2)
    calls = {
        "SyncNetwork.run": lambda: SyncNetwork(g).run(
            lambda: None, workers=2
        ),
        "congest_baswana_sen": lambda: congest_baswana_sen(
            g, 2, seed=1, workers=2
        ),
        "padded_decomposition": lambda: padded_decomposition(
            g, seed=1, workers=2
        ),
        "deterministic_ruling_set": lambda: deterministic_ruling_set(
            g, workers=2
        ),
        "deterministic_decomposition": lambda: deterministic_decomposition(
            g, workers=2
        ),
        "local_ft_spanner": lambda: local_ft_spanner(
            g, 2, 1, seed=1, workers=2
        ),
    }
    cases = [
        pytest.param(call, TypeError, "unexpected keyword argument "
                     "'workers'", id=name)
        for name, call in calls.items()
    ]
    for name in ("local", "congest-bs"):
        cases.append(pytest.param(
            lambda name=name: build_spanner(g, name, k=2, workers=2),
            UnsupportedOption, r"does not accept option\(s\) workers",
            id=f"build_spanner:{name}",
        ))
    return cases


@pytest.mark.parametrize("call,error,message",
                         _former_round_partitioned_calls())
def test_workers_rejected_outside_instance_sharding(call, error, message):
    with pytest.raises(error, match=message):
        call()


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _spanner_digest(result) -> str:
    return _digest(sorted((repr(u), repr(v)) for u, v in result.spanner.edges()))


@pytest.fixture
def engine_log(monkeypatch):
    """Stats of every SyncNetwork run in this process, in run order, as
    ``(rounds, messages, total_words, max_message_words)``."""
    log = []

    class Recording(SyncNetwork):
        def run(self, *args, **kwargs):
            out = super().run(*args, **kwargs)
            st = self.stats
            log.append(
                (st.rounds, st.messages, st.total_words, st.max_message_words)
            )
            return out

    for module in (congest_bs, decomposition, local_spanner, ruling_set):
        monkeypatch.setattr(module, "SyncNetwork", Recording)
    return log


class TestPinnedStats:
    """Absolute message accounting on small seeded graphs.

    The parity matrix above compares sharded with sequential runs,
    which share the accounting code; these values are fixed, so a
    miscount on both sides still fails.  ``test_congest_ft`` runs
    sequentially and with two instance workers.
    """

    @pytest.fixture(scope="class")
    def gnp(self):
        return generators.gnp_random_graph(36, 0.18, seed=4)

    @pytest.fixture(scope="class")
    def geo(self):
        return generators.random_geometric_graph(40, radius=0.3, seed=9)

    def test_congest_baswana_sen(self, gnp, engine_log):
        r = congest_baswana_sen(gnp, 3, seed=11)
        assert _spanner_digest(r) == "d8be6d64484c2b78"
        assert r.rounds == 11
        assert engine_log == [(11, 1169, 3210, 4)]

    @pytest.mark.parametrize("workers", [None, 2])
    def test_congest_ft(self, geo, engine_log, workers):
        r = congest_ft_spanner(
            geo, 2, 2, seed=5, iteration_constant=0.3, workers=workers
        )
        assert _spanner_digest(r) == "d4693ef263cf59a0"
        assert r.rounds == 31
        assert r.extra["instances_run"] == 9.0
        assert r.extra["max_message_words"] == 4.0
        if workers is None:
            # Pooled instances run in worker processes, out of the log's
            # reach; in-process they are the 9 instance networks.
            assert len(engine_log) == 9
            assert sum(s[1] for s in engine_log) == 1890
            assert sum(s[2] for s in engine_log) == 5040
            assert max(s[3] for s in engine_log) == 4

    def test_local_spanner(self, geo, engine_log):
        r = local_ft_spanner(geo, 2, 1, seed=5)
        assert _spanner_digest(r) == "b338334ef0a7f474"
        assert r.rounds == 44
        # Decomposition flood, then the gather/compute phase.
        assert engine_log == [(31, 8802, 35208, 4), (13, 3913, 484297, 176)]

    def test_local_spanner_deterministic(self, geo, engine_log):
        r = local_ft_spanner(geo, 2, 1, deterministic=True)
        assert _spanner_digest(r) == "3b39385d8a46ec35"
        assert r.rounds == 85
        assert engine_log == [
            (13, 1368, 3028, 3),
            (13, 471, 1034, 3),
            (13, 297, 644, 3),
            (13, 112, 242, 3),
            (13, 50, 108, 3),
            (13, 11, 24, 3),
            (7, 410, 8237, 34),
        ]

    def test_ruling_set_decomposition(self, gnp, engine_log):
        dec, uncovered, st = deterministic_decomposition(gnp)
        assignment = [
            sorted((repr(v), repr(c)) for v, c in a.items())
            for a in dec.assignment
        ]
        assert _digest(assignment) == "4af8b12f3ee7bca3"
        assert _digest(sorted(map(repr, uncovered))) == "4f53cda18c2baa0c"
        assert dec.rounds == 104
        assert (st.rounds, st.messages, st.total_words, st.max_message_words) == (
            104, 3011, 6620, 3,
        )
        assert engine_log == [
            (13, 1110, 2456, 3),
            (13, 780, 1714, 3),
            (13, 531, 1164, 3),
            (13, 321, 700, 3),
            (13, 155, 338, 3),
            (13, 66, 144, 3),
            (13, 34, 74, 3),
            (13, 14, 30, 3),
        ]


class TestRulingSet:
    """The deterministic (2, beta)-ruling set and its decomposition."""

    @pytest.mark.parametrize("n,seed", [(5, 0), (24, 1), (60, 2), (60, 3)])
    def test_properties(self, n, seed):
        g = generators.gnp_random_graph(n, 0.2, seed=seed)
        rs, stats = deterministic_ruling_set(g)
        problems = verify_ruling_set(g, rs)
        assert not problems, problems[:3]
        assert stats.rounds <= 2 * rs.radius_bound + 1
        # CONGEST-compatible: every message within the word budget.
        assert stats.max_message_words <= 8

    def test_deterministic_pure_function(self):
        g = generators.gnp_random_graph(30, 0.2, seed=4)
        a, sa = deterministic_ruling_set(g)
        b, sb = deterministic_ruling_set(g)
        assert a.rulers == b.rulers
        assert a.assignment == b.assignment
        assert sa.__dict__ == sb.__dict__

    def test_singleton_and_empty(self):
        g1 = Graph()
        g1.add_node(0)
        rs, _ = deterministic_ruling_set(g1)
        assert rs.rulers == (0,)
        assert rs.assignment == {0: 0}
        rs0, _ = deterministic_ruling_set(Graph())
        assert rs0.rulers == ()

    def test_disconnected_graph(self):
        g = Graph([(0, 1, 1.0), (2, 3, 1.0)])
        rs, _ = deterministic_ruling_set(g)
        assert not verify_ruling_set(g, rs)
        # Each component gets at least one ruler.
        assert {rs.assignment[0], rs.assignment[1]} <= {0, 1}
        assert {rs.assignment[2], rs.assignment[3]} <= {2, 3}

    @pytest.mark.parametrize("n,seed", [(24, 5), (60, 6)])
    def test_decomposition_covers_everything(self, n, seed):
        g = generators.gnp_random_graph(n, 0.2, seed=seed)
        dec, uncovered, _stats = deterministic_decomposition(g)
        # The budget is generous; coverage completes on these sizes.
        assert not uncovered
        problems = verify_decomposition(
            g, dec, diameter_bound=2 * dec.radius_bound
        )
        assert not problems, problems[:3]

    def test_partition_budget_leftovers_reported(self):
        g = generators.gnp_random_graph(40, 0.25, seed=7)
        dec, uncovered, _stats = deterministic_decomposition(
            g, num_partitions=1
        )
        assert dec.num_partitions == 1
        covered = {
            frozenset(e)
            for e in g.edges()
            if dec.assignment[0][e[0]] == dec.assignment[0][e[1]]
        }
        assert {frozenset(e) for e in uncovered} == {
            frozenset(e) for e in g.edges()
        } - covered


class TestDeterministicSpanner:
    """local_ft_spanner(deterministic=True): valid, seed-free, guaranteed."""

    def test_spanner_correct_exhaustive(self):
        g = generators.gnp_random_graph(24, 0.3, seed=93)
        result = local_ft_spanner(g, k=2, f=1, deterministic=True)
        assert_is_subgraph(result.spanner, g)
        assert result.extra["deterministic"] == 1.0
        report = verify_ft_spanner(
            g, result.spanner, t=3, f=1, exhaustive_budget=10_000
        )
        assert report.exhaustive
        assert report.ok, str(report.counterexample)

    def test_weighted_graph(self):
        g = generators.weighted_gnp(24, 0.3, seed=97)
        result = local_ft_spanner(g, k=2, f=1, deterministic=True)
        report = verify_ft_spanner(
            g, result.spanner, t=3, f=1, exhaustive_budget=10_000
        )
        assert report.ok, str(report.counterexample)

    def test_seed_is_irrelevant(self):
        g = generators.gnp_random_graph(30, 0.2, seed=8)
        a = _fingerprint(local_ft_spanner(g, 2, 1, deterministic=True, seed=1))
        b = _fingerprint(local_ft_spanner(g, 2, 1, deterministic=True, seed=2))
        c = _fingerprint(local_ft_spanner(g, 2, 1, deterministic=True))
        assert a == b == c

    def test_budget_leftovers_ride_along_at_stretch_one(self):
        g = generators.gnp_random_graph(30, 0.25, seed=9)
        result = local_ft_spanner(
            g, k=2, f=1, deterministic=True, num_partitions=1
        )
        # Whatever one partition failed to cover went in directly, so
        # the guarantee holds regardless of the tiny budget.
        report = verify_ft_spanner(
            g, result.spanner, t=3, f=1,
            exhaustive_budget=500, samples=200, seed=0,
        )
        assert report.ok, str(report.counterexample)

    def test_registry_exposes_deterministic(self):
        from repro.registry import get_algorithm

        spec = get_algorithm("local")
        assert "deterministic" in spec.extra_options
        assert "workers" not in spec.extra_options
        assert "derandomizable (deterministic=True)" in spec.capabilities()
        g = generators.gnp_random_graph(20, 0.3, seed=10)
        via_registry = build_spanner(
            g, "local", k=2, f=1, deterministic=True
        )
        direct = local_ft_spanner(g, 2, 1, deterministic=True)
        assert _fingerprint(via_registry) == _fingerprint(direct)


class TestDistributedCLI:
    """The ftspanner distributed subcommand."""

    def test_runs_congest_with_workers_and_seed(self, capsys):
        from repro.cli import main

        rc = main([
            "distributed", "--random", "30", "--p", "0.2", "-k", "2",
            "-f", "1", "--algorithm", "congest", "--seed", "4",
            "--workers", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 instance workers" in out
        assert "rounds" in out

    @pytest.mark.parametrize("algorithm", ["local", "congest-bs"])
    def test_workers_rejected_without_instance_sharding(self, algorithm):
        from repro.cli import main

        with pytest.raises(
            SystemExit, match=r"does not accept option\(s\) workers"
        ):
            main([
                "distributed", "--random", "20", "-f", "0",
                "--algorithm", algorithm, "--workers", "2",
            ])

    def test_workers_do_not_change_the_output(self, capsys):
        from repro.cli import main

        def run(extra):
            rc = main([
                "distributed", "--random", "25", "--p", "0.25",
                "-k", "2", "-f", "1", "--seed", "6",
                "--algorithm", "congest",
            ] + extra)
            assert rc == 0
            out = capsys.readouterr().out
            return [
                line for line in out.splitlines()
                if line.startswith(("congest-ft", "input edges", "measured"))
            ]

        assert run([]) == run(["--workers", "3"])

    def test_deterministic_flag(self, capsys):
        from repro.cli import main

        rc = main([
            "distributed", "--random", "25", "--p", "0.25", "-k", "2",
            "-f", "1", "--deterministic",
        ])
        assert rc == 0
        assert "deterministic=1" in capsys.readouterr().out

    def test_deterministic_rejected_for_congest_bs(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="no deterministic mode"):
            main([
                "distributed", "--random", "20", "--algorithm",
                "congest-bs", "--deterministic",
            ])

    def test_nonfault_tolerant_notes_f(self, capsys):
        from repro.cli import main

        rc = main([
            "distributed", "--random", "20", "-k", "2", "-f", "1",
            "--algorithm", "congest-bs", "--seed", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "not fault-tolerant" in out
        assert "max_message_words" in out

    def test_algorithms_listing_tags_derandomizable(self, capsys):
        from repro.cli import main

        assert main(["algorithms"]) == 0
        assert "derandomizable (deterministic=True)" in (
            capsys.readouterr().out
        )
