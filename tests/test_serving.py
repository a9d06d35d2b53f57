"""Serving core: shared-memory snapshots, healthy-path parity, wiring.

Three contracts:

1. **Zero-copy snapshot transport.**  ``pack_snapshot_into`` /
   ``adopt_snapshot`` round-trip a frozen :class:`CSRSnapshot` through
   a plain buffer with bit-identical query answers, without bumping the
   substrate's freeze count (adoption is transport, not a re-freeze).
2. **Healthy serving parity.**  Every request kind the
   :class:`SpannerServer` dispatcher serves -- pair batches,
   single-source tables, routing tables, health pings -- returns
   answers bit-identical to the in-process :class:`ScenarioSweep`, and
   application errors (faulted endpoints) surface exactly as the sweep
   raises them.
3. **Wiring.**  ``SpannerSession.serve()`` shares the session
   snapshot and answers like the dict reference oracle; the open-loop
   load generator audits parity post-hoc; budget/degradation edges
   (``SweepBudgetExceeded`` progress fields, ``cache_size=0`` oracle
   batches under a deadline, clustered fault sampling) behave.

The chaos-injected failure paths live in ``test_serving_chaos.py``.
"""

from __future__ import annotations

import math
import os
import random
import signal

import pytest

from repro.applications.availability import (
    FAULT_PROCESSES,
    availability_analysis,
    sample_fault_scenario,
)
from repro.graph import generators
from repro.graph.graph import Graph
from repro.graph.snapshot import (
    CSRSnapshot,
    ScenarioSweep,
    adopt_snapshot,
    csr_freeze_count,
    pack_snapshot_into,
    snapshot_nbytes,
)
from repro.serving import (
    DeadlineExceeded,
    ServingConfig,
    ServingUnavailable,
    SpannerServer,
    run_load,
)
from repro.session import SpannerSession
from repro.verification.spanner_check import (
    SweepBudgetExceeded,
    verify_ft_spanner,
)


def ring_graph(n=60, chords=(1, 2, 7), weight=1):
    g = Graph()
    for i in range(n):
        for j in chords:
            g.add_edge(i, (i + j) % n, weight)
    return g


@pytest.fixture(scope="module")
def g():
    return ring_graph()


@pytest.fixture(scope="module")
def snap(g):
    return CSRSnapshot(g)


@pytest.fixture(scope="module")
def served(snap):
    """One module-scoped healthy server (spawning workers is the cost)."""
    with SpannerServer(
        snap, config=ServingConfig(workers=2, deadline=30.0, shard_min=4)
    ) as server:
        yield server


def scenario(g, faults=(3, 17), pairs=40, seed=7):
    rng = random.Random(seed)
    nodes = sorted(g.nodes(), key=repr)
    survivors = [x for x in nodes if x not in set(faults)]
    return list(faults), [
        tuple(rng.sample(survivors, 2)) for _ in range(pairs)
    ]


class TestSnapshotTransport:
    def test_roundtrip_bit_identical(self, g, snap):
        buf = bytearray(snapshot_nbytes(snap))
        written = pack_snapshot_into(snap, buf)
        assert written == len(buf)
        adopted = adopt_snapshot(buf)
        faults, pairs = scenario(g)
        a = ScenarioSweep(snap)
        b = ScenarioSweep(adopted)
        a.stamp(faults)
        b.stamp(faults)
        assert [a.distance(u, v) for u, v in pairs] == [
            b.distance(u, v) for u, v in pairs
        ]
        assert a.distances_from(5) == b.distances_from(5)
        assert a.parents_multi([1, 9]) == b.parents_multi([1, 9])

    def test_weighted_roundtrip(self):
        g = ring_graph(30, weight=3)
        snap = CSRSnapshot(g)
        buf = bytearray(snapshot_nbytes(snap))
        pack_snapshot_into(snap, buf)
        adopted = adopt_snapshot(buf)
        assert adopted.profile == snap.profile
        a, b = ScenarioSweep(snap), ScenarioSweep(adopted)
        a.stamp([4])
        b.stamp([4])
        assert a.distances_from(0) == b.distances_from(0)

    def test_adoption_is_not_a_freeze(self, snap):
        buf = bytearray(snapshot_nbytes(snap))
        pack_snapshot_into(snap, buf)
        before = csr_freeze_count()
        adopt_snapshot(buf)
        assert csr_freeze_count() == before

    def test_adopt_rejects_garbage(self, snap):
        with pytest.raises(ValueError):
            adopt_snapshot(b"\x00" * 16)  # too short for the header
        buf = bytearray(snapshot_nbytes(snap))
        pack_snapshot_into(snap, buf)
        buf[:4] = b"NOPE"
        with pytest.raises(ValueError):
            adopt_snapshot(buf)

    def test_pack_needs_room(self, snap):
        with pytest.raises(ValueError):
            pack_snapshot_into(snap, bytearray(8))


class TestHealthyServer:
    def test_ping(self, served):
        assert served.ping() is True
        assert served.live_workers >= 1

    def test_pairs_parity(self, g, snap, served):
        faults, pairs = scenario(g)
        sweep = ScenarioSweep(snap)
        sweep.stamp(faults)
        expect = [sweep.distance(u, v) for u, v in pairs]
        assert served.distances(pairs, faults) == expect

    def test_sssp_parity(self, g, snap, served):
        faults, _ = scenario(g)
        sweep = ScenarioSweep(snap)
        sweep.stamp(faults)
        assert served.distances_from(5, faults) == sweep.distances_from(5)

    def test_tables_parity(self, g, snap, served):
        faults, _ = scenario(g)
        sweep = ScenarioSweep(snap)
        sweep.stamp(faults)
        roots = [1, 2, 9, 30]
        assert served.tables(roots, faults) == sweep.parents_multi(roots)

    def test_empty_batches(self, served):
        assert served.distances([]) == []
        assert served.tables([]) == []

    def test_application_error_parity(self, g, snap, served):
        # A faulted source raises in the worker exactly as the sweep
        # raises in-process -- and the server stays healthy after.
        faults, pairs = scenario(g)
        with pytest.raises(KeyError):
            served.distances([(faults[0], 5)], faults)
        sweep = ScenarioSweep(snap)
        sweep.stamp(faults)
        expect = [sweep.distance(u, v) for u, v in pairs[:5]]
        assert served.distances(pairs[:5], faults) == expect

    def test_bad_deadline_rejected(self, served):
        with pytest.raises(ValueError):
            served.distances([(0, 1)], deadline=0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServingConfig(workers=0)
        with pytest.raises(ValueError):
            ServingConfig(deadline=-1.0)
        with pytest.raises(ValueError):
            ServingConfig(max_retries=-1)

    def test_close_is_idempotent(self, snap):
        server = SpannerServer(snap, config=ServingConfig(workers=1))
        server.close()
        server.close()
        with pytest.raises(ServingUnavailable):
            server.ping()



@pytest.fixture(scope="module", params=["int", "float"])
def weighted_served(request):
    """A healthy server over a weighted ring: the workers adopt the
    snapshot from shared memory and must land on the same engine-policy
    row (bucket / bidir on int weights, the heap on float) as the
    in-process sweep."""
    g = generators.with_random_weights(
        ring_graph(), low=1.0, high=9.0, seed=3,
        integral=request.param == "int",
    )
    snap = CSRSnapshot(g)
    assert snap.profile == request.param
    with SpannerServer(
        snap, config=ServingConfig(workers=2, deadline=30.0, shard_min=4)
    ) as server:
        yield g, snap, server


class TestWeightedServer:
    def test_pairs_parity(self, weighted_served):
        g, snap, served = weighted_served
        faults, pairs = scenario(g)
        sweep = ScenarioSweep(snap)
        sweep.stamp(faults)
        expect = [sweep.distance(u, v) for u, v in pairs]
        assert served.distances(pairs, faults) == expect

    def test_sssp_parity(self, weighted_served):
        g, snap, served = weighted_served
        faults, _ = scenario(g)
        sweep = ScenarioSweep(snap)
        sweep.stamp(faults)
        assert served.distances_from(5, faults) == sweep.distances_from(5)

    def test_tables_parity(self, weighted_served):
        g, snap, served = weighted_served
        faults, _ = scenario(g)
        sweep = ScenarioSweep(snap)
        sweep.stamp(faults)
        roots = [1, 2, 9, 30]
        assert served.tables(roots, faults) == sweep.parents_multi(roots)
        assert served.tables(roots, faults) == \
            [sweep.parents_toward(r) for r in roots]

    def test_load_run_parity(self, weighted_served):
        # run_load audits every answer against an in-process sweep.
        _, _, served = weighted_served
        report = run_load(
            served, requests=10, rate=500.0, pairs_per_request=5,
            failures=2, seed=3,
        )
        assert report.parity_ok
        assert report.completed == report.requests == 10

class TestSessionServe:
    @pytest.mark.parametrize("oracle_kind", ["csr", "dict"])
    @pytest.mark.parametrize("profile", ["unit", "int", "float"])
    def test_serve_matches_oracle(self, oracle_kind, profile):
        from tests import reference as ref

        g = generators.gnp_random_graph(40, 0.2, seed=0)
        if profile != "unit":
            g = generators.with_random_weights(
                g, low=1.0, high=9.0, seed=0, integral=profile == "int"
            )
        session = SpannerSession(g, k=2, f=1, seed=1)
        result = session.build("greedy")
        if oracle_kind == "csr":
            oracle = session.oracle()
        else:
            oracle = ref.FaultTolerantDistanceOracle(
                g, 2, 1, prebuilt=result
            )
        pairs = [(0, 7), (3, 9), (11, 20)]
        with session.serve() as server:
            got = server.distances(pairs, [5])
        assert got == [oracle.distance(u, v, faults=[5]) for u, v in pairs]

    def test_serving_config_default(self):
        g = ring_graph(30)
        session = SpannerSession(
            g, k=2, f=1, serving=ServingConfig(workers=1, deadline=9.0)
        )
        session.build("greedy")
        with session.serve() as server:
            assert server.config.workers == 1
            assert server.config.deadline == 9.0
        # Per-call config overrides the session default.
        with session.serve(config=ServingConfig(workers=2)) as server:
            assert server.config.workers == 2

    def test_serving_freezes_the_spanner_once(self):
        g = ring_graph(30)
        session = SpannerSession(g, k=2, f=1)
        session.build("greedy")
        before = csr_freeze_count()
        session.serve().close()
        first = csr_freeze_count() - before
        session.serve().close()
        assert first == 1
        assert csr_freeze_count() - before == 1  # cached, not re-frozen


class TestLoadGenerator:
    def test_healthy_run_parity(self, snap):
        with SpannerServer(
            snap, config=ServingConfig(workers=2, deadline=30.0)
        ) as server:
            report = run_load(
                server, requests=10, rate=500.0, pairs_per_request=5,
                failures=2, seed=3,
            )
        assert report.parity_ok
        assert report.completed == report.requests == 10
        assert report.deadline_errors == 0 and report.unavailable == 0
        assert report.throughput_rps > 0
        assert report.p99_ms >= report.p50_ms > 0
        assert report.stats["requests"] == 10

    def test_clustered_workload(self, snap):
        with SpannerServer(
            snap, config=ServingConfig(workers=1, deadline=30.0)
        ) as server:
            report = run_load(
                server, requests=5, pairs_per_request=4, failures=3,
                fault_process="clustered", seed=11,
            )
        assert report.parity_ok and report.completed == 5

    def test_rejects_bad_workload(self, snap):
        with SpannerServer(
            snap, config=ServingConfig(workers=1)
        ) as server:
            with pytest.raises(ValueError):
                run_load(server, requests=0)


class TestBudgetAndDegradationEdges:
    def test_sweep_budget_exceeded_carries_progress(self):
        g = generators.gnp_random_graph(30, 0.3, seed=2)
        session = SpannerSession(g, k=2, f=2, seed=0)
        result = session.build("greedy")
        with pytest.raises(SweepBudgetExceeded) as err:
            verify_ft_spanner(
                g, result.spanner, t=3, f=2, exhaustive_budget=5,
            )
        exc = err.value
        assert exc.total > exc.budget == 5
        # Sweep mode fails fast, before enumerating: the progress
        # fields exist (typed, documented) and are all zero here.
        assert exc.fault_sets_checked == 0
        assert exc.pairs_checked == 0 and exc.pairs_witnessed == 0
        assert "progress so far" in str(exc)

    def test_uncached_oracle_batch_under_deadline(self, g, snap):
        # cache_size=0 disables the oracle LRU entirely; the serving
        # path (deadline-bounded) must agree with it bit-for-bit, and a
        # hopeless deadline must fail typed with an aligned partial.
        session = SpannerSession(g, k=2, f=2, seed=0)
        session.adopt(g)
        oracle = session.oracle(cache_size=0)
        faults, pairs = scenario(g, faults=(3, 17), pairs=12)
        expect = oracle.distances(pairs, faults=faults)
        with SpannerServer(
            snap, config=ServingConfig(workers=2, shard_min=3)
        ) as server:
            got = server.distances(pairs, faults, deadline=30.0)
            assert got == expect
            with pytest.raises(DeadlineExceeded) as err:
                for _ in range(50):
                    # A microscopic budget must either trip (typed,
                    # partial aligned with the batch) -- or, on a
                    # fast machine, keep answering correctly.
                    assert server.distances(
                        pairs, faults, deadline=1e-4
                    ) == expect
            assert len(err.value.partial) == len(pairs)
            for got_i, want_i in zip(err.value.partial, expect):
                assert got_i is None or got_i == want_i

    def test_clustered_sampler_dict_vs_csr_parity(self):
        from tests import reference as ref

        g = generators.gnp_random_graph(40, 0.15, seed=5)
        h = SpannerSession(g, k=2, f=1, seed=0).build("greedy").spanner
        kwargs = dict(
            failures=4, guarantee=3.0, scenarios=8, pairs_per_scenario=6,
            seed=123, fault_process="clustered",
        )
        assert ref.availability_analysis(g, h, **kwargs) == \
            availability_analysis(g, h, **kwargs)

    def test_clustered_sampler_is_contagious(self):
        # On a long path, a clustered draw is one connected ball
        # whenever no jump is forced; an independent draw of the same
        # size is almost never connected.
        g = Graph()
        for i in range(199):
            g.add_edge(i, i + 1)
        nodes = sorted(g.nodes(), key=repr)
        faults = sample_fault_scenario(
            nodes, 6, random.Random(0), "clustered", neighbors=g.neighbors
        )
        lo, hi = min(faults), max(faults)
        assert faults == set(range(lo, hi + 1))  # one contiguous segment

    def test_independent_sampler_matches_historical_draw(self):
        g = ring_graph(30)
        nodes = sorted(g.nodes(), key=repr)
        assert sample_fault_scenario(
            nodes, 3, random.Random(9), "independent"
        ) == set(random.Random(9).sample(nodes, 3))

    def test_sampler_validation(self):
        g = ring_graph(10)
        nodes = sorted(g.nodes(), key=repr)
        rng = random.Random(0)
        with pytest.raises(ValueError):
            sample_fault_scenario(nodes, 1, rng, "weird")
        with pytest.raises(ValueError):
            sample_fault_scenario(nodes, 1, rng, "clustered")  # no neighbors
        with pytest.raises(ValueError):
            sample_fault_scenario(nodes, 99, rng, "independent")
        with pytest.raises(ValueError):
            availability_analysis(
                g, g, failures=1, guarantee=3.0, fault_process="weird"
            )
        assert FAULT_PROCESSES == ("independent", "clustered", "cascade")


@pytest.mark.skipif(
    not (hasattr(os, "fork") and os.path.isdir("/dev/shm")),
    reason="needs fork and a listable /dev/shm",
)
class TestStaleSegments:
    """A SIGKILLed owner never reaches ``close``: its segment stays in
    /dev/shm until the next server start removes it.  Only segments
    named ``repro_<pid>_*`` whose pid is gone are removed."""

    def test_dead_owner_segment_removed_at_next_start(self, snap):
        from multiprocessing import resource_tracker, shared_memory

        # The child then registers its segment with this process's
        # tracker, which outlives the child and so cannot clean it up.
        resource_tracker.ensure_running()
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read_fd)
                server = SpannerServer(snap, config=ServingConfig(workers=1))
                # Stop the worker first: a SIGKILLed owner's forked
                # workers outlive it, and the test leaves no process.
                server._pool.close()
                os.write(write_fd, server._shm.name.encode())
            finally:
                os.kill(os.getpid(), signal.SIGKILL)
        os.close(write_fd)
        with os.fdopen(read_fd) as fh:
            dead = fh.read()
        _, status = os.waitpid(pid, 0)
        assert os.WIFSIGNALED(status)
        live = shared_memory.SharedMemory(
            name=f"repro_{os.getpid()}_0badf00d", create=True, size=16
        )
        foreign = shared_memory.SharedMemory(
            name=f"other_{pid}_0badf00d", create=True, size=16
        )

        def present(name):
            return os.path.exists(os.path.join("/dev/shm", name))

        try:
            assert dead.startswith(f"repro_{pid}_")
            assert present(dead)
            with SpannerServer(
                snap, config=ServingConfig(workers=1)
            ) as server:
                assert server._shm.name.startswith(f"repro_{os.getpid()}_")
                assert not present(dead)
                assert present(live.name) and present(foreign.name)
            assert not present(server._shm.name)
        finally:
            for segment in (live, foreign):
                segment.close()
                segment.unlink()
            if dead and present(dead):
                leftover = shared_memory.SharedMemory(name=dead)
                leftover.close()
                leftover.unlink()
