"""`SpannerServer`: a thin serving client over the parallel substrate.

The front end of the serving layer.  One server owns:

* the packed snapshot in a ``multiprocessing.shared_memory`` segment
  named ``repro_<owner pid>_<hex>`` (written once at construction;
  workers adopt it zero-copy; a new server first removes the segments
  of owners that died without closing),
* a supervised :class:`~repro.serving.pool.WorkerPool` (the substrate
  pool running the snapshot-adopting executor factory),
* and a :class:`~repro.parallel.dispatch.Dispatcher` that turns a
  batch request into per-worker shards, enforces the request deadline,
  retries shards whose worker died, respawns crashed workers, and --
  when the pool is unusable -- degrades to in-process execution with
  bit-identical answers.

Since PR 10 the deadline/retry/respawn loop itself lives in
:mod:`repro.parallel.dispatch`; this module contributes the serving
semantics only: sharding policy, payload construction, the
``DeadlineExceeded.partial`` alignment, and the degradation executor.

Request model
-------------
Every public call (:meth:`SpannerServer.distances`,
:meth:`~SpannerServer.distances_from`, :meth:`~SpannerServer.tables`)
is one *fault scenario* plus a batch of queries.  The dispatcher splits
the batch into contiguous shards (at most one per configured worker,
never smaller than ``shard_min`` items), sends each shard to a worker
as one message, and multiplexes completions with
``multiprocessing.connection.wait`` under the remaining deadline.
Shards are idempotent -- the snapshot is immutable, queries are pure --
so a shard whose worker crashed is simply resent (bounded by
``max_retries``, with exponential backoff in front of the respawn),
and a shard still out at a quarter of the deadline is hedged to an
idle worker.

Failure semantics (the contract the chaos suite pins):

* straggler -> once no shard is pending, a shard out for ``deadline /
  4`` is sent once more to an idle live worker; the first answer wins
  and the slower copy's worker is SIGKILLed and respawned by the next
  request;
* worker death mid-shard -> reap + backoff + respawn + resend; after
  ``max_retries`` resends the shard goes to the degradation path;
* deadline expiry -> outstanding workers are SIGKILLed (a stalled
  worker holds no cancellable state; the snapshot is shared so killing
  is cheap) and :class:`~repro.serving.DeadlineExceeded` is
  raised carrying every already-completed item;
* pool unusable (nothing alive, spawns exhausted) -> in-process
  execution through the *same* ``execute_request`` the workers run --
  bit-identical by construction -- or, with ``degrade=False``,
  :class:`~repro.serving.ServingUnavailable`;
* an application error (e.g. ``KeyError`` for a faulted query source)
  is deterministic, so it is *not* retried: it re-raises in the caller
  exactly as the in-process sweep would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.graph.graph import Graph, Node
from repro.graph.snapshot import (
    CSRSnapshot,
    ScenarioSweep,
    pack_snapshot_into,
    snapshot_nbytes,
)
from repro.parallel.dispatch import DispatchStats, Dispatcher, Job as _Job
from repro.parallel.errors import DeadlineExceeded, ServingUnavailable
from repro.parallel.pool import create_segment, remove_stale_segments
from repro.serving.pool import WorkerPool, execute_request


@dataclass
class ServingConfig:
    """Tunables of one :class:`SpannerServer`.

    Attributes
    ----------
    workers:
        Pool size (also the maximum shards per request).
    deadline:
        Default per-request latency budget in seconds (overridable per
        call with ``deadline=``).
    max_retries:
        How many times one shard may be *resent* after its worker died
        (the first send is not a retry).
    spawn_attempts / backoff_base / backoff_cap:
        Spawn retry budget and the exponential backoff in front of
        respawns (both spawn-level and shard-resend-level waits).
    spawn_timeout:
        Seconds a fresh worker gets to complete its startup handshake.
    degrade:
        Whether an unusable pool falls back to in-process execution
        (bit-identical answers) instead of raising
        :class:`~repro.serving.ServingUnavailable`.
    start_method:
        ``multiprocessing`` start method (default: ``fork`` where
        available, else the platform default).
    shard_min:
        Minimum items per shard; small batches use fewer shards so the
        per-message overhead stays amortized.
    """

    workers: int = 2
    deadline: float = 5.0
    max_retries: int = 2
    spawn_attempts: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    spawn_timeout: float = 10.0
    degrade: bool = True
    start_method: Optional[str] = None
    shard_min: int = 8

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not self.deadline > 0:
            raise ValueError(f"deadline must be > 0, got {self.deadline}")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.shard_min < 1:
            raise ValueError(f"shard_min must be >= 1, got {self.shard_min}")


@dataclass
class ServingStats(DispatchStats):
    """Server-lifetime counters (updated in place; read at any time).

    Inherits the substrate's :class:`~repro.parallel.dispatch.
    DispatchStats` fields; the pool-owned counters (``respawns``,
    ``spawn_rejections``) are merged in by
    :meth:`SpannerServer.stats_dict`.
    """


class SpannerServer:
    """A resilient multi-process query server over one frozen snapshot.

    Parameters
    ----------
    snapshot:
        A :class:`~repro.graph.snapshot.CSRSnapshot` (e.g. a
        :class:`~repro.session.SpannerSession`'s spanner snapshot) or a
        plain :class:`~repro.graph.graph.Graph` to freeze here.
    config:
        A :class:`ServingConfig`; defaults apply when omitted.
    chaos:
        Optional chaos policy (:mod:`repro.parallel.chaos`) injecting
        worker kills, stalls, and spawn failures -- test/benchmark
        instrumentation; ``None`` in production.

    Use as a context manager (or call :meth:`close`) to release the
    worker processes and the shared segment.
    """

    #: The engine policy of every worker's sweep and of the degradation
    #: path: the one profile-keyed policy
    #: (:data:`~repro.graph.snapshot.ENGINE_POLICY`).  A constant, so an
    #: audit can mirror the workers with
    #: ``ScenarioSweep(snapshot, search=server.search)``.
    search = "auto"

    def __init__(
        self,
        snapshot: Union[CSRSnapshot, Graph],
        *,
        config: Optional[ServingConfig] = None,
        chaos=None,
    ) -> None:
        if not isinstance(snapshot, CSRSnapshot):
            snapshot = CSRSnapshot(snapshot)
        self.snapshot = snapshot
        self.config = config or ServingConfig()
        self.chaos = chaos
        self.stats = ServingStats()
        self._local: Optional[ScenarioSweep] = None
        self._closed = False
        self._shm: Optional[shared_memory.SharedMemory] = None
        self._pool: Optional[WorkerPool] = None
        self._dispatcher: Optional[Dispatcher] = None
        try:
            remove_stale_segments()
            shm = create_segment(snapshot_nbytes(snapshot))
            self._shm = shm
            pack_snapshot_into(snapshot, shm.buf)
            self._pool = WorkerPool(
                shm.name,
                self.config.workers,
                start_method=self.config.start_method,
                chaos=chaos,
                spawn_attempts=self.config.spawn_attempts,
                backoff_base=self.config.backoff_base,
                backoff_cap=self.config.backoff_cap,
                spawn_timeout=self.config.spawn_timeout,
            )
            self._dispatcher = Dispatcher(
                self._pool,
                deadline=self.config.deadline,
                max_retries=self.config.max_retries,
                backoff_base=self.config.backoff_base,
                backoff_cap=self.config.backoff_cap,
                degrade=self._degrade_job,
                chaos=chaos,
                stats=self.stats,
            )
            self._pool.start()
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------- #
    # Public request surface
    # ------------------------------------------------------------- #

    def distances(
        self,
        pairs: Sequence[Tuple[Node, Node]],
        faults: Sequence = (),
        fault_model: str = "vertex",
        deadline: Optional[float] = None,
    ) -> List[float]:
        """Batched s-t distances under one fault scenario.

        Returns one distance per pair (``inf`` for unreachable),
        bit-identical to
        :meth:`~repro.graph.snapshot.ScenarioSweep.distance` per pair.
        On deadline expiry raises
        :class:`~repro.serving.DeadlineExceeded` whose
        ``partial`` aligns with ``pairs`` (``None`` holes).
        """
        pairs = list(pairs)
        if not pairs:
            return []
        faults = list(faults)
        shards = self._shard(pairs)
        jobs = [
            _Job("pairs", (shard, faults, fault_model), i)
            for i, shard in enumerate(shards)
        ]
        try:
            self._dispatch(jobs, deadline)
        except DeadlineExceeded as exc:
            partial: List = []
            for shard, job in zip(shards, jobs):
                partial.extend(
                    job.result if job.done else [None] * len(shard)
                )
            raise DeadlineExceeded(
                exc.deadline, exc.elapsed, partial,
                sum(1 for x in partial if x is not None),
            ) from None
        out: List[float] = []
        for job in jobs:
            out.extend(job.result)
        return out

    def distances_from(
        self,
        source: Node,
        faults: Sequence = (),
        fault_model: str = "vertex",
        deadline: Optional[float] = None,
    ) -> Dict[Node, float]:
        """Single-source distances under one fault scenario (one shard)."""
        jobs = [_Job("sssp", (source, list(faults), fault_model), 0)]
        try:
            self._dispatch(jobs, deadline)
        except DeadlineExceeded as exc:
            raise DeadlineExceeded(
                exc.deadline, exc.elapsed, [None], 0
            ) from None
        return jobs[0].result

    def tables(
        self,
        roots: Sequence[Node],
        faults: Sequence = (),
        fault_model: str = "vertex",
        deadline: Optional[float] = None,
    ) -> List[Dict[Node, Node]]:
        """Destination-rooted routing tables under one fault scenario.

        One :meth:`~repro.graph.snapshot.ScenarioSweep.parents_toward`
        dict per root; ``DeadlineExceeded.partial`` aligns with
        ``roots``.
        """
        roots = list(roots)
        if not roots:
            return []
        faults = list(faults)
        shards = self._shard(roots)
        jobs = [
            _Job("parents", (shard, faults, fault_model), i)
            for i, shard in enumerate(shards)
        ]
        try:
            self._dispatch(jobs, deadline)
        except DeadlineExceeded as exc:
            partial = []
            for shard, job in zip(shards, jobs):
                partial.extend(
                    job.result if job.done else [None] * len(shard)
                )
            raise DeadlineExceeded(
                exc.deadline, exc.elapsed, partial,
                sum(1 for x in partial if x is not None),
            ) from None
        out: List[Dict[Node, Node]] = []
        for job in jobs:
            out.extend(job.result)
        return out

    def ping(self, deadline: Optional[float] = None) -> bool:
        """Round-trip a health probe through the pool (or degraded path)."""
        jobs = [_Job("ping", None, 0)]
        self._dispatch(jobs, deadline)
        return jobs[0].result == "pong"

    @property
    def live_workers(self) -> int:
        """Workers currently alive (0 when fully degraded)."""
        pool = self._pool
        if pool is None:
            return 0
        return sum(1 for w in pool.workers if w.alive())

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (the snapshot lease is over).

        The session's streaming-update guard reads this: a server still
        open holds the pre-update snapshot in shared memory, so
        ``apply_updates()`` raises
        :class:`~repro.serving.SnapshotStale` until every server
        built from the session is closed.
        """
        return self._closed

    def stats_dict(self) -> Dict[str, int]:
        """Every resilience counter, including the pool-owned ones."""
        d = self.stats.as_dict()
        pool = self._pool
        d["respawns"] = pool.respawns if pool is not None else 0
        d["spawn_rejections"] = (
            pool.spawn_rejections if pool is not None else 0
        )
        return d

    # ------------------------------------------------------------- #
    # Dispatch glue (the loop itself lives in repro.parallel.dispatch)
    # ------------------------------------------------------------- #

    def _shard(self, items: Sequence) -> List[List]:
        """Split a batch into contiguous near-equal shards."""
        n = len(items)
        nshards = max(
            1,
            min(self.config.workers,
                math.ceil(n / max(1, self.config.shard_min))),
        )
        base, extra = divmod(n, nshards)
        shards: List[List] = []
        pos = 0
        for i in range(nshards):
            size = base + (1 if i < extra else 0)
            shards.append(list(items[pos:pos + size]))
            pos += size
        return shards

    def _dispatch(self, jobs: List[_Job], deadline: Optional[float]) -> None:
        if self._closed:
            raise ServingUnavailable("this server is closed")
        self._dispatcher.dispatch(jobs, deadline)

    def _degrade_job(self, job: _Job) -> None:
        """The substrate's degradation callback: in-process execution."""
        if not self.config.degrade:
            raise ServingUnavailable(
                "worker pool unusable (crashes/spawn failures "
                "exhausted the retry budget) and degrade=False"
            )
        self.stats.degraded_shards += 1
        job.result = execute_request(
            self._local_sweep(), job.kind, job.payload
        )
        job.done = True

    def _local_sweep(self) -> ScenarioSweep:
        """The in-process degradation engine (same snapshot, same code)."""
        if self._local is None:
            self._local = ScenarioSweep(self.snapshot)
        return self._local

    # ------------------------------------------------------------- #
    # Lifecycle
    # ------------------------------------------------------------- #

    def close(self) -> None:
        """Stop the pool and release the shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            try:
                self._pool.close()
            finally:
                pass
        if self._shm is not None:
            try:
                self._shm.close()
            finally:
                try:
                    self._shm.unlink()
                except FileNotFoundError:
                    pass

    def __enter__(self) -> "SpannerServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return (
            f"SpannerServer({self.snapshot!r}, workers="
            f"{self.config.workers}, live={self.live_workers})"
        )
