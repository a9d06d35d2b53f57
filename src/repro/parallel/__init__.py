"""Shared parallel-execution substrate (process pools + dispatch).

Extracted from the serving layer (PR 10) so that two very different
workloads run on one supervised-multiprocessing core:

* :mod:`repro.serving` -- fault-scenario query serving over a
  shared-memory snapshot (workers adopt the packed
  :class:`~repro.graph.snapshot.CSRSnapshot` zero-copy via
  :func:`~repro.graph.snapshot.adopt_snapshot`);
* :mod:`repro.distributed.congest_ft` -- the Theorem 15 CONGEST
  construction, sharding its independent Baswana-Sen instances across
  worker processes.

Pieces
------
* :class:`WorkerPool` (:mod:`repro.parallel.pool`) -- health-checked
  spawn with startup handshake, exponential-backoff respawn, reap, and
  chaos-gated spawn rejection.  What a worker *does* is a pluggable
  executor factory, so the pool itself is workload-agnostic.
* :class:`Dispatcher` (:mod:`repro.parallel.dispatch`) -- deadline +
  retry dispatch of idempotent job shards, with graceful degradation
  through a client-supplied callback.
* :mod:`repro.parallel.chaos` -- deterministic fault injection
  (seeded :class:`ChaosPolicy`, scripted :class:`ScriptedChaos`).
* :mod:`repro.parallel.errors` -- the typed failure surface
  (re-exported by :mod:`repro.serving`).
"""

from repro.parallel.chaos import (
    KILL,
    ChaosPolicy,
    ScriptedChaos,
    validate_directive,
)
from repro.parallel.dispatch import DispatchStats, Dispatcher, Job
from repro.parallel.errors import (
    ChaosSpawnFailure,
    DeadlineExceeded,
    ServingError,
    ServingUnavailable,
    SnapshotStale,
    WorkerCrashed,
)
from repro.parallel.pool import (
    Worker,
    WorkerPool,
    attach_shared,
    default_start_method,
    worker_main,
)

__all__ = [
    "ChaosPolicy",
    "ChaosSpawnFailure",
    "DeadlineExceeded",
    "DispatchStats",
    "Dispatcher",
    "Job",
    "KILL",
    "ScriptedChaos",
    "ServingError",
    "ServingUnavailable",
    "SnapshotStale",
    "Worker",
    "WorkerCrashed",
    "WorkerPool",
    "attach_shared",
    "default_start_method",
    "validate_directive",
    "worker_main",
]
