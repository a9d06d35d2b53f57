"""Deterministic chaos suite for the resilient serving core.

Every test here injects faults -- worker SIGKILLs mid-request, stalls
that trip the deadline, spawn failures -- through the seeded chaos
seam, and asserts the one invariant the dispatcher promises: a request
always resolves to either a bit-identical answer (vs. an in-process
:class:`~repro.graph.snapshot.ScenarioSweep`) or a typed error
(:class:`DeadlineExceeded` / :class:`ServingUnavailable`).  Never a
wrong answer, never a hang.

Determinism: :class:`ChaosPolicy` draws from one seeded RNG in strict
dispatch order, so a (seed, rates, workload) triple replays the exact
same fault schedule; :class:`ScriptedChaos` plays back an explicit
directive list for surgical single-fault tests.
"""

import random

import pytest

from repro.graph import Graph
from repro.graph.snapshot import CSRSnapshot, ScenarioSweep
from repro.serving import (
    KILL,
    ChaosPolicy,
    DeadlineExceeded,
    ScriptedChaos,
    ServingConfig,
    ServingUnavailable,
    SpannerServer,
    run_load,
    validate_directive,
)


def ring_graph(n=60, chords=(1, 2, 7), weight=1):
    g = Graph()
    for i in range(n):
        for step in chords:
            g.add_edge(i, (i + step) % n, weight)
    return g


@pytest.fixture(scope="module")
def snap():
    return CSRSnapshot(ring_graph())


def scenario(snap, faults=(3, 17), pairs=40, seed=7):
    rng = random.Random(seed)
    nodes = [u for u in sorted(snap.indexer, key=repr) if u not in faults]
    chosen = [
        (rng.choice(nodes), rng.choice(nodes)) for _ in range(pairs)
    ]
    return list(faults), chosen


def truth_distances(snap, faults, pairs):
    sweep = ScenarioSweep(snap)
    sweep.stamp(faults, "vertex")
    return [sweep.distance(u, v) for u, v in pairs]


def fast_config(**overrides):
    base = dict(
        workers=2,
        deadline=30.0,
        max_retries=2,
        backoff_base=0.01,
        backoff_cap=0.05,
        shard_min=4,
    )
    base.update(overrides)
    return ServingConfig(**base)


# --------------------------------------------------------------------- #
#  Directive / policy validation
# --------------------------------------------------------------------- #


class TestChaosSeam:
    def test_validate_directive(self):
        validate_directive(None)
        validate_directive(KILL)
        validate_directive(("stall", 0.25))
        for bad in [("kill", 1), ("stall",), ("stall", -1.0), ("nap", 1),
                    "kill", 7]:
            with pytest.raises(ValueError):
                validate_directive(bad)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            ChaosPolicy(0, kill_rate=-0.1)
        with pytest.raises(ValueError):
            ChaosPolicy(0, stall_rate=1.5)
        with pytest.raises(ValueError):
            ChaosPolicy(0, kill_rate=0.7, stall_rate=0.7)
        with pytest.raises(ValueError):
            ChaosPolicy(0, stall_rate=0.5, stall_seconds=-1.0)

    def test_policy_is_deterministic(self):
        a = ChaosPolicy(42, kill_rate=0.2, stall_rate=0.3)
        b = ChaosPolicy(42, kill_rate=0.2, stall_rate=0.3)
        assert [a.directive() for _ in range(200)] == \
            [b.directive() for _ in range(200)]
        assert [a.spawn_fails() for _ in range(50)] == \
            [b.spawn_fails() for _ in range(50)]

    def test_policy_seed_changes_schedule(self):
        a = ChaosPolicy(1, kill_rate=0.5)
        b = ChaosPolicy(2, kill_rate=0.5)
        assert [a.directive() for _ in range(100)] != \
            [b.directive() for _ in range(100)]

    def test_scripted_playback_and_exhaustion(self):
        script = ScriptedChaos(
            directives=[KILL, ("stall", 0.1)], spawn_failures=1
        )
        assert script.directive() == KILL
        assert script.directive() == ("stall", 0.1)
        assert script.directive() is None
        assert script.spawn_fails() is True
        assert script.spawn_fails() is False


# --------------------------------------------------------------------- #
#  Scripted single-fault behaviour
# --------------------------------------------------------------------- #


class TestScriptedFaults:
    def test_kill_mid_request_retries_to_correct_answer(self, snap):
        faults, pairs = scenario(snap)
        expected = truth_distances(snap, faults, pairs)
        chaos = ScriptedChaos(directives=[KILL])
        with SpannerServer(snap, config=fast_config(), chaos=chaos) as srv:
            got = srv.distances(pairs, faults=faults)
            stats = srv.stats_dict()
        assert got == expected
        assert stats["retries"] >= 1
        assert stats["worker_deaths"] >= 1
        assert stats["respawns"] >= 1
        assert stats["deadline_errors"] == 0

    def test_kill_storm_exhausts_retries_then_degrades(self, snap):
        faults, pairs = scenario(snap)
        expected = truth_distances(snap, faults, pairs)
        # Far more kills than shards x (1 + max_retries): every resend
        # of some shard dies, forcing the degraded in-process path.
        chaos = ScriptedChaos(directives=[KILL] * 64)
        cfg = fast_config(max_retries=1)
        with SpannerServer(snap, config=cfg, chaos=chaos) as srv:
            got = srv.distances(pairs, faults=faults)
            stats = srv.stats_dict()
        assert got == expected
        assert stats["degraded_shards"] >= 1

    def test_stall_trips_deadline_with_aligned_partial(self, snap):
        faults, pairs = scenario(snap)
        expected = truth_distances(snap, faults, pairs)
        # One worker stalls for far longer than the deadline; the other
        # shard(s) complete, so the partial has real entries and holes.
        chaos = ScriptedChaos(directives=[("stall", 30.0)])
        cfg = fast_config(deadline=1.5)
        with SpannerServer(snap, config=cfg, chaos=chaos) as srv:
            with pytest.raises(DeadlineExceeded) as err:
                srv.distances(pairs, faults=faults)
            stats = srv.stats_dict()
        exc = err.value
        assert stats["deadline_errors"] == 1
        assert exc.deadline == pytest.approx(1.5)
        assert exc.partial is not None
        assert len(exc.partial) == len(pairs)
        holes = sum(1 for x in exc.partial if x is None)
        assert 0 < holes < len(pairs)
        for got, want in zip(exc.partial, expected):
            assert got is None or got == want
        assert exc.completed == len(pairs) - holes

    def test_server_usable_after_deadline(self, snap):
        faults, pairs = scenario(snap)
        expected = truth_distances(snap, faults, pairs)
        chaos = ScriptedChaos(directives=[("stall", 30.0), ("stall", 30.0)])
        cfg = fast_config(deadline=1.5)
        with SpannerServer(snap, config=cfg, chaos=chaos) as srv:
            with pytest.raises(DeadlineExceeded):
                srv.distances(pairs, faults=faults)
            # Script exhausted -> healthy path, respawned workers.
            assert srv.distances(pairs, faults=faults) == expected

    def test_spawn_failures_degrade_with_parity(self, snap):
        faults, pairs = scenario(snap)
        expected = truth_distances(snap, faults, pairs)
        # Enough spawn failures that the pool never gets a worker up.
        chaos = ScriptedChaos(spawn_failures=10 ** 6)
        with SpannerServer(snap, config=fast_config(), chaos=chaos) as srv:
            assert srv.live_workers == 0
            got = srv.distances(pairs, faults=faults)
            stats = srv.stats_dict()
        assert got == expected
        assert stats["degraded_shards"] >= 1
        assert stats["spawn_rejections"] >= 1

    def test_no_degrade_raises_serving_unavailable(self, snap):
        faults, pairs = scenario(snap)
        chaos = ScriptedChaos(spawn_failures=10 ** 6)
        cfg = fast_config(degrade=False, spawn_attempts=2)
        with SpannerServer(snap, config=cfg, chaos=chaos) as srv:
            with pytest.raises(ServingUnavailable):
                srv.distances(pairs, faults=faults)

    def test_kill_during_sssp_and_tables(self, snap):
        faults, _ = scenario(snap)
        sweep = ScenarioSweep(snap)
        sweep.stamp(faults, "vertex")
        want_dist = sweep.distances_from(0)
        roots = [0, 5, 9]
        want_tables = sweep.parents_multi(roots)
        chaos = ScriptedChaos(directives=[KILL, KILL])
        with SpannerServer(snap, config=fast_config(), chaos=chaos) as srv:
            assert srv.distances_from(0, faults=faults) == want_dist
            assert srv.tables(roots, faults=faults) == want_tables


# --------------------------------------------------------------------- #
#  Seeded chaos matrix: answers are correct-or-typed-error, never wrong
# --------------------------------------------------------------------- #


class TestChaosMatrix:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "rates",
        [
            dict(kill_rate=0.15),
            dict(stall_rate=0.15, stall_seconds=0.05),
            dict(kill_rate=0.1, stall_rate=0.1, stall_seconds=0.05),
            dict(kill_rate=0.1, spawn_fail_rate=0.3),
        ],
        ids=["kills", "stalls", "mixed", "kills+spawnfail"],
    )
    def test_every_request_resolves_correctly(self, snap, seed, rates):
        chaos = ChaosPolicy(seed, **rates)
        cfg = fast_config(deadline=20.0)
        with SpannerServer(snap, config=cfg, chaos=chaos) as srv:
            report = run_load(
                srv, requests=12, pairs_per_request=6, failures=2,
                seed=seed,
            )
        # No request may vanish: every one is an answer or a typed error.
        resolved = (
            report.completed + report.deadline_errors + report.unavailable
        )
        assert resolved == report.requests == 12
        # Every completed answer was audited bit-identical post hoc.
        assert report.parity_ok is True
        assert report.throughput_rps > 0

    def test_same_seed_same_answers(self, snap):
        faults, pairs = scenario(snap)

        def run_once():
            chaos = ChaosPolicy(9, kill_rate=0.25)
            with SpannerServer(
                snap, config=fast_config(), chaos=chaos
            ) as srv:
                got = srv.distances(pairs, faults=faults)
                stats = srv.stats_dict()
            return got, stats["requests"]

        first, n1 = run_once()
        second, n2 = run_once()
        assert first == second
        assert n1 == n2 == 1
        assert first == truth_distances(snap, faults, pairs)

    def test_chaos_load_counters_consistent(self, snap):
        chaos = ChaosPolicy(3, kill_rate=0.2)
        with SpannerServer(snap, config=fast_config(), chaos=chaos) as srv:
            report = run_load(
                srv, requests=10, rate=200.0, pairs_per_request=5,
                failures=1, seed=3,
            )
            stats = report.stats
        assert report.parity_ok is True
        assert report.completed + report.deadline_errors \
            + report.unavailable == 10
        assert stats["requests"] == 10
        assert stats["retries"] >= stats["worker_deaths"] \
            - stats["degraded_shards"] >= 0
