"""Deadline/retry dispatch of idempotent job shards over a worker pool.

The dispatch half of the parallel-execution substrate: given a
:class:`~repro.parallel.pool.WorkerPool` and a list of :class:`Job`
shards, run every shard to completion, a typed error, or the deadline.
The loop is workload-agnostic -- the serving layer dispatches
fault-scenario query shards, the distributed runtime dispatches
Baswana-Sen instances -- and encodes the failure semantics the chaos
suite pins:

* straggler -> once no shard is pending, a shard out for a quarter of
  the request's deadline is hedged: a second copy goes to an idle live
  worker (at most one copy per shard).  The first ``ok`` reply wins and
  the loser's worker is SIGKILLed like a deadline's stalled worker
  (counted in ``worker_deaths``; the next ``ensure()`` respawns it).
  A copy whose worker dies while the other copy still runs is not
  resent;
* worker death mid-shard -> reap + backoff + respawn + resend; after
  ``max_retries`` resends the shard goes to the degradation callback;
* deadline expiry -> outstanding workers are SIGKILLed (a stalled
  worker holds no cancellable state; worker state is rebuilt by the
  executor factory on respawn, so killing is cheap) and
  :class:`~repro.parallel.errors.DeadlineExceeded` is raised carrying
  every already-completed job result;
* pool unusable (nothing alive, spawns exhausted) -> the ``degrade``
  callback answers in-process, or, without one,
  :class:`~repro.parallel.errors.ServingUnavailable`;
* an application error raised by the executor is deterministic, so it
  is *not* retried: it re-raises in the caller exactly as in-process
  execution would.

Retrying and hedging require **idempotent** shards: resending must
produce the identical answer.  Both substrate clients satisfy this --
serving queries run against an immutable snapshot, distributed
instance jobs are pure functions of ``(participants, seed)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from multiprocessing import connection
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.parallel.errors import DeadlineExceeded, ServingUnavailable
from repro.parallel.pool import Worker, WorkerPool

__all__ = ["DispatchStats", "Dispatcher", "Job"]


@dataclass
class DispatchStats:
    """Dispatcher-lifetime counters (updated in place; read any time).

    The pool-owned counters (``respawns``, ``spawn_rejections``) live
    on the :class:`~repro.parallel.pool.WorkerPool`; clients merge them
    when reporting (e.g. ``SpannerServer.stats_dict``).
    """

    requests: int = 0
    shards: int = 0
    retries: int = 0
    worker_deaths: int = 0
    deadline_errors: int = 0
    degraded_shards: int = 0
    hedges: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class Job:
    """One dispatched shard: kind, payload, result slot, retry count."""

    __slots__ = ("kind", "payload", "index", "attempts", "result", "done")

    def __init__(self, kind: str, payload, index: int) -> None:
        self.kind = kind
        self.payload = payload
        self.index = index
        self.attempts = 0
        self.result = None
        self.done = False


class Dispatcher:
    """Run job shards over a pool under a deadline and a retry budget.

    Parameters
    ----------
    pool:
        The :class:`~repro.parallel.pool.WorkerPool` to dispatch over.
    deadline:
        Default per-request latency budget in seconds (overridable per
        :meth:`dispatch` call).  A quarter of it is the hedge point: a
        shard still out then is resent to an idle worker.
    max_retries:
        How many times one shard may be *resent* after its worker died
        (the first send is not a retry).
    backoff_base / backoff_cap:
        Exponential backoff in front of shard resends.
    degrade:
        Optional callback ``degrade(job)`` invoked when the pool cannot
        serve a shard (retries exhausted, or nothing alive and nothing
        spawnable).  It must complete the job in-process (set
        ``job.result`` / ``job.done``) or raise, and it owns the
        ``stats.degraded_shards`` accounting (so a callback that
        refuses -- e.g. serving's ``degrade=False`` -- counts nothing).
        Without one, an unusable pool raises
        :class:`~repro.parallel.errors.ServingUnavailable`.
    chaos:
        Optional chaos policy (:mod:`repro.parallel.chaos`); one
        directive is drawn per send -- first send, resend or hedge --
        in dispatch order, so a stall models a slow replica, not a
        slow shard.
    stats:
        A :class:`DispatchStats` (or duck-typed equivalent) mutated in
        place; a private one is created when omitted.
    """

    def __init__(
        self,
        pool: WorkerPool,
        *,
        deadline: float = 5.0,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        backoff_cap: float = 1.0,
        degrade: Optional[Callable[[Job], None]] = None,
        chaos=None,
        stats: Optional[DispatchStats] = None,
    ) -> None:
        if not deadline > 0:
            raise ValueError(f"deadline must be > 0, got {deadline}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.pool = pool
        self.deadline = deadline
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.degrade = degrade
        self.chaos = chaos
        self.stats = stats if stats is not None else DispatchStats()
        self._msg_counter = 0

    def dispatch(
        self, jobs: List[Job], deadline: Optional[float] = None
    ) -> None:
        """Run every job to completion, a typed error, or the deadline."""
        budget = self.deadline if deadline is None else deadline
        if not budget > 0:
            raise ValueError(f"deadline must be > 0, got {budget!r}")
        start = time.monotonic()
        deadline_at = start + budget
        hedge_after = budget / 4
        stats = self.stats
        stats.requests += 1
        stats.shards += len(jobs)
        pending: List[Job] = list(jobs)
        # conn -> (worker, job, msg_id, sent_at); a hedged job has two.
        busy: Dict[object, Tuple[Worker, Job, int, float]] = {}
        hedged: Set[Job] = set()
        pool = self.pool

        def remaining() -> float:
            return deadline_at - time.monotonic()

        def send(worker: Worker, job: Job) -> bool:
            # Every send -- first, resend or hedge -- draws one directive.
            directive = (
                self.chaos.directive() if self.chaos is not None else None
            )
            self._msg_counter += 1
            msg_id = self._msg_counter
            try:
                worker.conn.send((msg_id, job.kind, job.payload, directive))
            except (BrokenPipeError, OSError):
                stats.worker_deaths += 1
                pool.discard(worker)
                return False
            busy[worker.conn] = (worker, job, msg_id, time.monotonic())
            return True

        def kill(conn) -> None:
            # Reap a dead worker, or SIGKILL a stalled or losing one (it
            # holds no cancellable state); the next ensure() respawns it.
            worker = busy.pop(conn)[0]
            stats.worker_deaths += 1
            pool.discard(worker)

        def running(job: Job) -> List[object]:
            return [c for c, entry in busy.items() if entry[1] is job]

        def fail_deadline() -> None:
            stats.deadline_errors += 1
            for conn in list(busy):
                kill(conn)
            raise DeadlineExceeded(
                budget, time.monotonic() - start,
                [j.result if j.done else None for j in jobs],
                sum(1 for j in jobs if j.done),
            )

        def degrade(job: Job) -> None:
            if self.degrade is None:
                raise ServingUnavailable(
                    "worker pool unusable (crashes/spawn failures "
                    "exhausted the retry budget) and no degradation "
                    "path is configured"
                )
            self.degrade(job)

        def worker_died(conn, job: Job) -> None:
            # Reap it, back off, and resend within the retry budget --
            # unless the shard's other copy is still running.
            kill(conn)
            if running(job):
                return
            if job.attempts > self.max_retries:
                degrade(job)
                return
            stats.retries += 1
            pause = min(
                self.backoff_base * (2 ** (job.attempts - 1)),
                self.backoff_cap,
                max(0.0, remaining()),
            )
            if pause > 0:
                time.sleep(pause)
            pending.append(job)

        def hedge() -> float:
            # Send a second copy of each shard out for hedge_after to an
            # idle worker (one copy per shard); return the next wake-up.
            idle = [
                w for w in pool.workers if w.conn not in busy and w.alive()
            ]
            wake_at = deadline_at
            for _, job, _, sent_at in list(busy.values()):
                if job in hedged or not idle:
                    continue
                due = sent_at + hedge_after
                if due > time.monotonic():
                    wake_at = min(wake_at, due)
                elif send(idle.pop(0), job):
                    hedged.add(job)
                    stats.hedges += 1
            return wake_at if idle else deadline_at

        while pending or busy:
            if remaining() <= 0:
                fail_deadline()
            # Fill idle workers with pending shards.
            if pending:
                live = pool.ensure(budget=max(0.0, remaining()))
                idle = [w for w in live if w.conn not in busy]
                while pending and idle:
                    job = pending.pop(0)
                    if send(idle.pop(0), job):
                        job.attempts += 1
                    else:
                        pending.insert(0, job)
                if pending and not busy:
                    # Nothing alive and nothing spawnable: the pool is
                    # unusable for this request.
                    for job in list(pending):
                        degrade(job)
                    pending.clear()
                    continue
            # ensure() above may have reaped a dead *busy* worker and
            # closed its pipe; route its shard through the death path
            # before handing the fd set to connection.wait().
            for conn in list(busy):
                if conn.closed:
                    worker_died(conn, busy[conn][1])
            if not busy:
                continue
            wake_at = deadline_at if pending else hedge()
            if remaining() <= 0:
                fail_deadline()
            # An empty wake-up is a hedge point (or the deadline, which
            # the loop head turns into DeadlineExceeded).
            ready = connection.wait(
                list(busy), timeout=max(0.0, wake_at - time.monotonic())
            )
            for conn in ready:
                if conn not in busy:
                    continue  # a losing copy killed earlier in this batch
                _, job, msg_id, _ = busy[conn]
                try:
                    reply = conn.recv()
                except (EOFError, OSError):
                    # Worker died mid-shard (SIGKILL, crash).
                    worker_died(conn, job)
                    continue
                rid, status, value = reply
                if rid != msg_id:
                    # Stale reply from a shard abandoned by an earlier
                    # request (application error mid-flight); the
                    # worker is still busy with the current shard.
                    continue
                del busy[conn]
                if status != "ok":
                    # Deterministic application error: identical to
                    # what in-process execution would raise.  Not
                    # retried; outstanding shards are abandoned (their
                    # late replies are discarded as stale above).
                    raise value
                job.result = value
                job.done = True
                # The first ok reply wins; the other copy's worker is
                # treated like a deadline's stalled worker.
                for other in running(job):
                    kill(other)
