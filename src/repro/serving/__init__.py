"""Resilient multi-process serving of fault-tolerant distance queries.

The serving layer turns a frozen spanner snapshot into a supervised
query service: worker processes adopt the snapshot zero-copy from a
``multiprocessing.shared_memory`` segment, and a dispatcher batches
oracle/router queries per fault scenario under per-request deadlines,
retry-with-backoff on worker death, health-checked respawn, and
graceful degradation to in-process execution -- always returning
either the bit-identical answer or a typed error, never a wrong answer
and never a hang.

Entry points
------------
* :class:`SpannerServer` / :class:`ServingConfig` -- the server itself
  (also via :meth:`repro.session.SpannerSession.serve`).
* :class:`ChaosPolicy` / :class:`ScriptedChaos` -- deterministic fault
  injection for tests and benchmarks.
* :func:`run_load` -- open-loop load generation with parity auditing.
* :class:`DeadlineExceeded` / :class:`ServingUnavailable` -- the typed
  failure surface.

The chaos policies and the typed errors live in the shared
parallel-execution substrate (:mod:`repro.parallel`), whose distributed
round engine uses the same directives and raises the same families;
they are re-exported here as the serving layer's documented surface, so
``except`` clauses match the identical class objects.
"""

from repro.parallel.chaos import (
    KILL,
    ChaosPolicy,
    ScriptedChaos,
    validate_directive,
)
from repro.parallel.errors import (
    ChaosSpawnFailure,
    DeadlineExceeded,
    ServingError,
    ServingUnavailable,
    SnapshotStale,
    WorkerCrashed,
)
from repro.serving.dispatcher import (
    ServingConfig,
    ServingStats,
    SpannerServer,
)
from repro.serving.loadgen import LoadReport, run_load
from repro.serving.pool import REQUEST_KINDS, WorkerPool, execute_request

__all__ = [
    "ChaosPolicy",
    "ChaosSpawnFailure",
    "DeadlineExceeded",
    "KILL",
    "LoadReport",
    "REQUEST_KINDS",
    "ScriptedChaos",
    "ServingConfig",
    "ServingError",
    "ServingStats",
    "ServingUnavailable",
    "SnapshotStale",
    "SpannerServer",
    "WorkerCrashed",
    "WorkerPool",
    "execute_request",
    "run_load",
    "validate_directive",
]
