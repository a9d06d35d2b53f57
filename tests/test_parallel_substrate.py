"""The generic parallel-execution substrate (:mod:`repro.parallel`).

The serving and chaos suites pin the substrate's behavior through its
serving client; these tests exercise it *directly*, with a toy
executor, to pin the substrate as a reusable component: arbitrary
factories, typed errors shared with the serving layer, deadline/retry
dispatch, and chaos directives -- none of it snapshot-specific.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.parallel.chaos import KILL, ScriptedChaos
from repro.parallel.dispatch import DispatchStats, Dispatcher, Job
from repro.parallel.errors import (
    DeadlineExceeded,
    ServingError,
    ServingUnavailable,
)
from repro.parallel.pool import WorkerPool


def arithmetic_executor(base: int):
    """Toy factory: proves factory_args reach the worker process."""

    def executor(kind: str, payload):
        if kind == "add":
            return base + payload
        if kind == "pid":
            return os.getpid()
        if kind == "sleep":
            time.sleep(payload)
            return "slept"
        if kind == "boom":
            raise ValueError(f"boom: {payload}")
        raise ValueError(f"unknown kind {kind!r}")

    return executor


def make_pool(size=2, **kwargs):
    return WorkerPool(arithmetic_executor, (100,), size, **kwargs)


class TestWorkerPool:
    def test_factory_args_reach_workers(self):
        pool = make_pool(size=1)
        try:
            assert pool.start() == 1
            worker = pool.workers[0]
            worker.conn.send((1, "add", 7, None))
            assert worker.conn.recv() == (1, "ok", 107)
        finally:
            pool.close()

    def test_workers_are_separate_processes(self):
        pool = make_pool(size=2)
        try:
            pool.start()
            pids = set()
            for i, worker in enumerate(pool.workers):
                worker.conn.send((i, "pid", None, None))
                pids.add(worker.conn.recv()[2])
            assert os.getpid() not in pids
            assert len(pids) == 2
        finally:
            pool.close()

    def test_reap_and_ensure_respawn(self):
        pool = make_pool(size=2)
        try:
            pool.start()
            pool.workers[0].kill()
            time.sleep(0.1)
            assert pool.reap() == 1
            live = pool.ensure()
            assert len(live) == 2
            assert pool.respawns >= 1
        finally:
            pool.close()

    def test_chaos_spawn_failures_count(self):
        chaos = ScriptedChaos(spawn_failures=2)
        pool = make_pool(size=1, chaos=chaos, spawn_attempts=5,
                         backoff_base=0.001)
        try:
            assert pool.start() == 1
            assert pool.spawn_rejections == 2
        finally:
            pool.close()


class TestDispatcher:
    def test_jobs_complete_in_index_order_slots(self):
        pool = make_pool(size=2)
        try:
            pool.start()
            dispatcher = Dispatcher(pool, deadline=10.0)
            jobs = [Job("add", i, i) for i in range(7)]
            dispatcher.dispatch(jobs)
            assert [j.result for j in jobs] == [100 + i for i in range(7)]
            assert all(j.done for j in jobs)
            assert dispatcher.stats.requests == 1
            assert dispatcher.stats.shards == 7
        finally:
            pool.close()

    def test_application_error_reraises_unretried(self):
        pool = make_pool(size=1)
        try:
            pool.start()
            dispatcher = Dispatcher(pool, deadline=10.0)
            with pytest.raises(ValueError, match="boom: xyz"):
                dispatcher.dispatch([Job("boom", "xyz", 0)])
            assert dispatcher.stats.retries == 0
        finally:
            pool.close()

    def test_deadline_kills_and_carries_partials(self):
        pool = make_pool(size=1)
        try:
            pool.start()
            dispatcher = Dispatcher(pool, deadline=10.0)
            fast = Job("add", 1, 0)
            dispatcher.dispatch([fast])
            with pytest.raises(DeadlineExceeded) as err:
                dispatcher.dispatch([Job("sleep", 5.0, 0)], deadline=0.2)
            assert err.value.completed == 0
            assert dispatcher.stats.deadline_errors == 1
            assert fast.result == 101
        finally:
            pool.close()

    def test_worker_death_retries_then_completes(self):
        chaos = ScriptedChaos(directives=[KILL])
        pool = make_pool(size=1)
        try:
            pool.start()
            stats = DispatchStats()
            dispatcher = Dispatcher(
                pool, deadline=10.0, max_retries=2,
                backoff_base=0.001, chaos=chaos, stats=stats,
            )
            job = Job("add", 5, 0)
            dispatcher.dispatch([job])
            assert job.result == 105
            assert stats.worker_deaths >= 1
            assert stats.retries >= 1
        finally:
            pool.close()

    def test_unusable_pool_without_degrade_raises(self):
        # Every (re)spawn is rejected and every shard's worker killed:
        # with no degrade callback the typed error surfaces.
        chaos = ScriptedChaos(
            directives=[KILL] * 10, spawn_failures=100
        )
        pool = make_pool(size=1, chaos=chaos, spawn_attempts=1,
                         backoff_base=0.001)
        try:
            pool.start()
            dispatcher = Dispatcher(
                pool, deadline=5.0, max_retries=1,
                backoff_base=0.001, chaos=chaos,
            )
            with pytest.raises(ServingUnavailable):
                dispatcher.dispatch([Job("add", 1, 0)])
        finally:
            pool.close()

    def test_degrade_callback_owns_accounting(self):
        chaos = ScriptedChaos(directives=[KILL] * 10, spawn_failures=100)
        pool = make_pool(size=1, chaos=chaos, spawn_attempts=1,
                         backoff_base=0.001)
        try:
            pool.start()
            stats = DispatchStats()

            def degrade(job):
                stats.degraded_shards += 1
                job.result = 100 + job.payload
                job.done = True

            dispatcher = Dispatcher(
                pool, deadline=5.0, max_retries=1, backoff_base=0.001,
                chaos=chaos, degrade=degrade, stats=stats,
            )
            job = Job("add", 3, 0)
            dispatcher.dispatch([job])
            assert job.result == 103
            assert stats.degraded_shards == 1
        finally:
            pool.close()


class TestErrorIdentity:
    """Serving's except clauses must keep matching after the move."""

    def test_serving_errors_are_the_substrate_classes(self):
        import repro.serving as serving_errors
        from repro.parallel import errors as parallel_errors

        for name in (
            "ServingError", "DeadlineExceeded", "ServingUnavailable",
            "SnapshotStale", "WorkerCrashed", "ChaosSpawnFailure",
        ):
            assert getattr(serving_errors, name) is getattr(
                parallel_errors, name
            ), name

    def test_serving_chaos_is_the_substrate_chaos(self):
        import repro.serving as serving_chaos
        from repro.parallel import chaos as parallel_chaos

        assert serving_chaos.ChaosPolicy is parallel_chaos.ChaosPolicy
        assert serving_chaos.ScriptedChaos is parallel_chaos.ScriptedChaos

    def test_hierarchy(self):
        assert issubclass(DeadlineExceeded, ServingError)
        assert issubclass(ServingUnavailable, ServingError)
        assert issubclass(ServingError, RuntimeError)
