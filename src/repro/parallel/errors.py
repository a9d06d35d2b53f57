"""Typed errors of the parallel-execution substrate.

The substrate's contract is that a dispatched request always resolves
to either a bit-identical answer or one of these typed errors -- never
a wrong answer and never a hang (``tests/test_serving_chaos.py`` drives
that contract under seeded worker kills, stalls, and spawn failures).

These classes were born in the serving layer and keep their names --
:mod:`repro.serving` re-exports them, so code that catches
``repro.serving.DeadlineExceeded`` matches the identical class.  The
distributed runtime raises the same families when its round workers
die or its pools cannot spawn.

Hierarchy
---------
* :class:`ServingError` -- base class (a ``RuntimeError``).
* :class:`DeadlineExceeded` -- the per-request latency budget expired;
  carries any partial batch results already computed.
* :class:`ServingUnavailable` -- the worker pool is unusable (spawns
  exhausted, retries exhausted) and graceful degradation is disabled.
* :class:`WorkerCrashed` -- internal: one worker died or failed its
  startup health check.  The dispatcher converts it into a retry, a
  respawn, or one of the public errors above; callers only see it via
  ``__cause__`` chains.
* :class:`ChaosSpawnFailure` -- internal: a chaos policy rejected a
  spawn (deterministic fault injection, see
  :mod:`repro.parallel.chaos`).
* :class:`SnapshotStale` -- streaming updates were applied while a live
  server still holds the pre-update snapshot; close the server, apply,
  and ``serve()`` again.
"""

from __future__ import annotations

from typing import List, Optional

__all__ = [
    "ChaosSpawnFailure",
    "DeadlineExceeded",
    "ServingError",
    "ServingUnavailable",
    "SnapshotStale",
    "WorkerCrashed",
]


class ServingError(RuntimeError):
    """Base class for parallel-substrate (and serving-layer) errors."""


class DeadlineExceeded(ServingError):
    """A request's latency budget expired before every item resolved.

    Attributes
    ----------
    deadline:
        The budget that expired, in seconds.
    elapsed:
        Wall-clock seconds actually spent before giving up.
    partial:
        The per-item results computed before the deadline: a list
        aligned with the request's items (pairs, roots, ...) holding
        the bit-identical answer where a shard completed and ``None``
        where it did not.  Partial answers are exact -- the immutable
        snapshot makes every shard idempotent -- so a caller may keep
        them.
    completed:
        How many items of :attr:`partial` are filled in.
    """

    def __init__(
        self,
        deadline: float,
        elapsed: float,
        partial: Optional[List] = None,
        completed: int = 0,
    ) -> None:
        super().__init__(
            f"deadline of {deadline:.3f}s exceeded after {elapsed:.3f}s "
            f"({completed} item(s) completed)"
        )
        self.deadline = deadline
        self.elapsed = elapsed
        self.partial = [] if partial is None else partial
        self.completed = completed


class ServingUnavailable(ServingError):
    """The pool cannot serve and graceful degradation is disabled.

    Raised when no worker survives (spawn attempts exhausted, or a
    shard exceeded its retry budget) and the dispatcher was configured
    without a degradation path (serving: ``degrade=False``); with
    degradation enabled the dispatcher answers in-process instead and
    this error never escapes.
    """


class SnapshotStale(ServingError):
    """Streaming updates would silently outdate a live server's snapshot.

    A :class:`~repro.serving.dispatcher.SpannerServer` packs its
    snapshot into shared memory once, at construction -- workers never
    see later graph mutations, by design.  So
    :meth:`repro.session.SpannerSession.apply_updates` refuses to run
    while a server built from the session is still open: silently
    serving pre-update answers would violate the "bit-identical or
    typed error" contract.  The remedy is the refreeze-then-serve path:
    ``server.close()`` (or leave the ``with`` block), apply the
    updates, then call ``serve()`` again for a server over the updated
    snapshot.
    """


class WorkerCrashed(ServingError):
    """Internal: a worker process died or failed its health check."""


class ChaosSpawnFailure(ServingError):
    """Internal: a chaos policy injected a worker spawn failure."""
