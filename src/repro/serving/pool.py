"""Serving workers over one shared-memory snapshot (substrate client).

Since PR 10 the pool machinery itself -- spawn/handshake/backoff,
reap/respawn, the worker request loop, chaos gating -- lives in the
shared parallel-execution substrate (:mod:`repro.parallel.pool`).
What remains here is the *serving workload*: the request executor and
the executor factory each worker runs at startup.

Each worker attaches the server's ``multiprocessing.shared_memory``
segment, adopts the packed :class:`~repro.graph.snapshot.CSRSnapshot`
zero-copy (:func:`~repro.graph.snapshot.adopt_snapshot`), builds one
:class:`~repro.graph.snapshot.ScenarioSweep`, and then answers request
messages over its duplex pipe until told to stop.  The request
executor -- :func:`execute_request` -- is a plain function shared with
the dispatcher's in-process degradation path, so a degraded answer is
bit-identical to a pooled one *by construction*: same code, same
immutable snapshot, different process.
"""

from __future__ import annotations

from typing import Optional

from repro.graph.snapshot import ScenarioSweep, adopt_snapshot
from repro.parallel.pool import (
    Worker,
    WorkerPool as _SubstratePool,
    attach_shared as _attach_shared,
    default_start_method as _default_start_method,
    worker_main,
)

__all__ = ["REQUEST_KINDS", "Worker", "WorkerPool", "execute_request"]

#: Request kinds the executor understands (the serving layer's verb set).
REQUEST_KINDS = ("pairs", "sssp", "parents", "ping")


def execute_request(sweep: ScenarioSweep, kind: str, payload) -> object:
    """Answer one request against a sweep (worker and degraded path).

    ``payload`` is ``(items..., faults, fault_model)`` per kind:

    * ``"pairs"``: ``(pairs, faults, fault_model)`` -> one distance per
      ``(u, v)`` pair (``inf`` when unreachable; a faulted/unknown
      endpoint raises ``KeyError`` exactly like the in-process sweep);
    * ``"sssp"``: ``(source, faults, fault_model)`` -> the
      ``distances_from`` dict;
    * ``"parents"``: ``(roots, faults, fault_model)`` -> one
      ``parents_toward`` dict per root (the router-table workload,
      batched through ``parents_multi``);
    * ``"ping"``: health probe, returns ``"pong"``.

    Faults are stamped once per request -- the dispatcher batches
    queries per fault scenario, so a shard is one O(|F|) re-stamp plus
    its queries.
    """
    if kind == "pairs":
        pairs, faults, fault_model = payload
        sweep.stamp(faults, fault_model)
        distance = sweep.distance
        return [distance(u, v) for u, v in pairs]
    if kind == "sssp":
        source, faults, fault_model = payload
        sweep.stamp(faults, fault_model)
        return sweep.distances_from(source)
    if kind == "parents":
        roots, faults, fault_model = payload
        sweep.stamp(faults, fault_model)
        return sweep.parents_multi(list(roots))
    if kind == "ping":
        return "pong"
    raise ValueError(
        f"unknown request kind {kind!r}; expected one of {REQUEST_KINDS}"
    )


def sweep_executor(shm_name: str):
    """Executor factory run inside each serving worker (spawn-safe).

    Attaches the shared segment, adopts the snapshot zero-copy, and
    binds :func:`execute_request` to the resulting sweep.  The returned
    closure must keep the ``SharedMemory`` handle referenced alongside
    the sweep: the sweep's typed memoryviews are exports over the
    segment's mmap, and dropping the handle would run its ``__del__``
    -> ``close()`` under them, raising ``BufferError`` noise in every
    worker.  Held for the worker's whole life, it is then skipped by
    the substrate's ``os._exit`` teardown (no interpreter GC), so the
    exports are never closed out from under the sweep at all.
    """
    shm = _attach_shared(shm_name)
    sweep = ScenarioSweep(adopt_snapshot(shm.buf))

    def executor(kind: str, payload, _segment=shm) -> object:
        return execute_request(sweep, kind, payload)

    return executor


class WorkerPool(_SubstratePool):
    """The serving pool: substrate workers running :func:`sweep_executor`.

    Keeps the serving layer's constructor signature
    (``WorkerPool(shm_name, size, ...)``); everything else --
    spawn/health-check/reap/respawn, the backoff and chaos semantics,
    the ``respawns`` / ``spawn_rejections`` counters -- is inherited
    unchanged from :class:`repro.parallel.pool.WorkerPool`.
    """

    def __init__(
        self,
        shm_name: str,
        size: int,
        *,
        start_method: Optional[str] = None,
        chaos=None,
        spawn_attempts: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 1.0,
        spawn_timeout: float = 10.0,
    ) -> None:
        super().__init__(
            sweep_executor,
            (shm_name,),
            size,
            start_method=start_method,
            chaos=chaos,
            spawn_attempts=spawn_attempts,
            backoff_base=backoff_base,
            backoff_cap=backoff_cap,
            spawn_timeout=spawn_timeout,
        )
        self.shm_name = shm_name
