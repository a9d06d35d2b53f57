"""Supervised worker processes with a pluggable request executor.

This is the process-pool half of the parallel-execution substrate
shared by the serving layer (:mod:`repro.serving`) and the distributed
instance sharding (:mod:`repro.distributed.congest_ft`).  A pool knows
nothing about snapshots or Baswana-Sen instances: it spawns workers,
health-checks them, reaps corpses, and respawns with exponential
backoff.  What a worker *does* is supplied as an **executor factory**
-- a module-level (spawn-safe) callable run once inside the fresh
process:

    ``executor = factory(*factory_args)``

The factory builds whatever per-process state the workload needs (the
serving layer adopts the shared-memory snapshot and returns a
sweep-bound executor; the instance executor holds the input graph)
and returns a callable ``executor(kind, payload) -> result`` that
answers requests until the pool shuts the worker down.

Protocol (one tuple per message, pickled by ``multiprocessing``):

* parent -> worker: ``(msg_id, kind, payload, directive)`` or ``None``
  (shut down);
* worker -> parent: ``("hello", pid)`` once at startup, then
  ``(msg_id, "ok", result)`` / ``(msg_id, "error", exception)`` per
  request.

``directive`` is a chaos directive (:mod:`repro.parallel.chaos`),
honored *before* computing: ``("kill",)`` SIGKILLs the worker
mid-request, ``("stall", s)`` sleeps -- the two failure modes the
dispatcher's retry and deadline machinery exist for.

A fresh worker must complete the startup handshake (it sends
``("hello", pid)`` once its executor is built) before it joins the
rotation, so a worker that dies building its state never receives a
request.  Spawn attempts are bounded, run through the chaos policy's
injected spawn failures, and back off exponentially; crashed workers
are reaped on every :meth:`WorkerPool.ensure` and respawned up to the
pool size.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import time
from multiprocessing import shared_memory
from typing import Callable, List, Optional, Sequence, Tuple

from repro.parallel.errors import (
    ChaosSpawnFailure,
    ServingUnavailable,
    WorkerCrashed,
)

__all__ = [
    "Worker",
    "WorkerPool",
    "attach_shared",
    "create_segment",
    "default_start_method",
    "remove_stale_segments",
    "worker_main",
]

#: Name prefix of every segment :func:`create_segment` makes; the rest
#: of the name is ``<owner pid>_<random hex>``.
_SEGMENT_PREFIX = "repro_"

#: Where Linux lists POSIX shared memory (absent elsewhere: no sweep).
_SHM_DIR = "/dev/shm"


def attach_shared(name: str) -> shared_memory.SharedMemory:
    """Attach an existing shared segment without tracker side effects.

    ``SharedMemory(name=...)`` registers the segment with the process's
    resource tracker, which (a) warns about "leaked" segments the
    attacher never owned and (b) can unlink a segment other processes
    still use when an attacher's tracker cleans up.  Python 3.13+ has
    ``track=False`` for exactly this.  On older versions we suppress
    the registration call itself while attaching: unregister-after-
    attach (the other folk workaround) is wrong under ``fork``, where
    the worker shares the parent's tracker process and the unregister
    would erase the *owner's* registration.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def create_segment(size: int) -> shared_memory.SharedMemory:
    """A new shared segment named ``repro_<owner pid>_<random hex>``.

    Cleanup runs in the owner's ``close``; an owner killed by SIGKILL
    never gets there.  The pid in the name lets the next owner's
    :func:`remove_stale_segments` tell such a leftover from a segment
    that a live process still serves.
    """
    while True:
        name = f"{_SEGMENT_PREFIX}{os.getpid()}_{os.urandom(4).hex()}"
        try:
            return shared_memory.SharedMemory(
                name=name, create=True, size=size
            )
        except FileExistsError:
            continue


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # someone else's live process
    return True


def remove_stale_segments() -> None:
    """Unlink every ``repro_<pid>_*`` segment whose owner pid is gone.

    Names without the prefix, or whose owner is alive, are never
    touched.  Unlinking goes through ``SharedMemory.unlink`` so a
    resource tracker that still lists the name forgets it.  Does
    nothing where ``/dev/shm`` does not exist.
    """
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:
        return
    for name in names:
        if not name.startswith(_SEGMENT_PREFIX):
            continue
        owner = name[len(_SEGMENT_PREFIX):].partition("_")[0]
        if not (owner.isascii() and owner.isdigit()):
            continue
        if _pid_alive(int(owner)):
            continue
        try:
            segment = shared_memory.SharedMemory(name=name)
        except (OSError, ValueError):
            continue  # gone meanwhile, not ours to open, or empty
        segment.close()
        try:
            segment.unlink()
        except OSError:
            pass  # removed meanwhile, or not ours to remove


def worker_main(
    conn,
    factory: Callable[..., Callable[[str, object], object]],
    factory_args: Sequence,
) -> None:
    """Entry point of one worker process (module-level: spawn-safe)."""
    # The parent owns lifecycle; a terminal-wide SIGINT (Ctrl-C) should
    # interrupt the dispatcher, not spray worker tracebacks.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    code = 0
    try:
        executor = factory(*factory_args)
        # Everything alive now -- the forked copy of the parent heap
        # plus the executor's own startup state -- lives for the whole
        # worker.  Freeze it out of the cyclic collector: GC passes in
        # this worker then scan only per-request garbage (keeping
        # collections short and heap-size-independent), and under
        # ``fork`` the collector stops touching inherited objects'
        # headers, preserving copy-on-write page sharing.
        gc.freeze()
        conn.send(("hello", os.getpid()))
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            if msg is None:
                break
            msg_id, kind, payload, directive = msg
            if directive is not None:
                if directive[0] == "kill":
                    # A real mid-request crash: no goodbye, no reply.
                    os.kill(os.getpid(), signal.SIGKILL)
                elif directive[0] == "stall":
                    time.sleep(directive[1])
            try:
                result = executor(kind, payload)
            except Exception as exc:
                conn.send((msg_id, "error", exc))
            else:
                conn.send((msg_id, "ok", result))
    except BaseException:
        code = 1
    finally:
        try:
            conn.close()
        except Exception:
            pass
        # Skip interpreter teardown: executors may hold memoryview
        # exports over a shared segment, and letting GC close the mmap
        # under them raises BufferError noise for every worker.
        os._exit(code)


class Worker:
    """One pool member: its process, pipe, and liveness."""

    __slots__ = ("proc", "conn")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn

    def alive(self) -> bool:
        return self.proc.is_alive()

    def kill(self) -> None:
        """SIGKILL the worker and release its pipe (idempotent)."""
        try:
            self.proc.kill()
        except Exception:
            pass
        self.proc.join(timeout=5.0)
        try:
            self.conn.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        state = "alive" if self.alive() else "dead"
        return f"Worker(pid={self.proc.pid}, {state})"


def default_start_method() -> str:
    # fork is the fast path (no re-import, instant spawn); fall back to
    # whatever the platform offers when it is unavailable.
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


class WorkerPool:
    """Spawn, health-check, reap, and respawn request workers.

    Parameters
    ----------
    factory / factory_args:
        The executor factory run inside each fresh worker (see module
        docs).  ``factory`` must be a module-level callable so the pool
        works under every start method; ``factory_args`` must be
        picklable under ``spawn`` (under ``fork`` they may be arbitrary
        in-memory objects).
    size:
        Target number of live workers.
    start_method / chaos / spawn_attempts / backoff_base / backoff_cap
    / spawn_timeout:
        Lifecycle tunables; see :class:`repro.serving.ServingConfig`
        for the serving-layer defaults built on top of these.

    The pool never blocks indefinitely: spawn handshakes are bounded by
    ``spawn_timeout``, spawn retries by ``spawn_attempts`` with
    exponential backoff (``backoff_base`` doubling up to
    ``backoff_cap``), and :meth:`ensure` takes an optional time budget
    so a request's deadline caps respawn work done on its behalf.

    Counters (``respawns``, ``spawn_rejections``) are pool-lifetime
    totals surfaced through the server's stats.
    """

    def __init__(
        self,
        factory: Callable[..., Callable[[str, object], object]],
        factory_args: Sequence = (),
        size: int = 1,
        *,
        start_method: Optional[str] = None,
        chaos=None,
        spawn_attempts: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 1.0,
        spawn_timeout: float = 10.0,
    ) -> None:
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        if spawn_attempts < 1:
            raise ValueError(
                f"spawn_attempts must be >= 1, got {spawn_attempts}"
            )
        self.factory = factory
        self.factory_args = tuple(factory_args)
        self.size = size
        self.chaos = chaos
        self.spawn_attempts = spawn_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.spawn_timeout = spawn_timeout
        self._ctx = multiprocessing.get_context(
            start_method or default_start_method()
        )
        self.workers: List[Worker] = []
        self.respawns = 0
        self.spawn_rejections = 0
        self._started = False

    # ------------------------------------------------------------- #
    # Spawning
    # ------------------------------------------------------------- #

    def _spawn_once(self) -> Worker:
        """One spawn attempt: chaos gate, fork/spawn, health handshake."""
        if self.chaos is not None and self.chaos.spawn_fails():
            self.spawn_rejections += 1
            raise ChaosSpawnFailure("chaos policy rejected this spawn")
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=worker_main,
            args=(child_conn, self.factory, self.factory_args),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        # Health-checked admission: the worker is in the rotation only
        # after it proves it built its executor state and can talk.
        if parent_conn.poll(self.spawn_timeout):
            try:
                msg = parent_conn.recv()
            except (EOFError, OSError):
                msg = None
            if isinstance(msg, tuple) and msg and msg[0] == "hello":
                return Worker(proc, parent_conn)
        try:
            proc.kill()
        except Exception:
            pass
        proc.join(timeout=5.0)
        parent_conn.close()
        raise WorkerCrashed("worker failed its startup health check")

    def spawn(self, budget: Optional[float] = None) -> Worker:
        """Spawn one healthy worker within the attempt/time budget.

        Raises :class:`ServingUnavailable` when every attempt fails (or
        the time budget runs out first); the last underlying failure is
        chained as ``__cause__``.
        """
        deadline = None if budget is None else time.monotonic() + budget
        delay = self.backoff_base
        last: Optional[Exception] = None
        for attempt in range(self.spawn_attempts):
            if deadline is not None and time.monotonic() >= deadline:
                break
            try:
                return self._spawn_once()
            except (ChaosSpawnFailure, WorkerCrashed) as exc:
                last = exc
                if attempt + 1 < self.spawn_attempts:
                    pause = delay
                    if deadline is not None:
                        pause = min(pause, deadline - time.monotonic())
                    if pause > 0:
                        time.sleep(pause)
                    delay = min(delay * 2, self.backoff_cap)
        raise ServingUnavailable(
            f"could not spawn a healthy worker within "
            f"{self.spawn_attempts} attempt(s)"
        ) from last

    def start(self) -> int:
        """Best-effort initial fill; returns how many workers are live.

        Spawn failures here are not fatal -- the dispatcher re-ensures
        the pool per request and degrades (or raises a typed error)
        only when it genuinely cannot serve.
        """
        self._started = True
        for _ in range(self.size - len(self.workers)):
            try:
                self.workers.append(self.spawn())
            except ServingUnavailable:
                break
        return len(self.workers)

    # ------------------------------------------------------------- #
    # Supervision
    # ------------------------------------------------------------- #

    def reap(self) -> int:
        """Drop dead workers from the rotation; returns how many."""
        dead = [w for w in self.workers if not w.alive()]
        for w in dead:
            w.kill()  # joins the corpse and closes the pipe
            self.workers.remove(w)
        return len(dead)

    def discard(self, worker: Worker) -> None:
        """Remove one (crashed or condemned) worker immediately."""
        worker.kill()
        if worker in self.workers:
            self.workers.remove(worker)

    def ensure(self, budget: Optional[float] = None) -> List[Worker]:
        """Reap corpses, respawn up to ``size``, return the live list.

        Respawning is best-effort within ``budget`` seconds; an empty
        return (no live workers, none spawnable) is the dispatcher's
        cue to degrade or raise :class:`ServingUnavailable`.
        """
        self.reap()
        deadline = None if budget is None else time.monotonic() + budget
        while len(self.workers) < self.size:
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0 and self.workers:
                    break  # out of time, but we have someone to serve with
            try:
                worker = self.spawn(budget=remaining)
            except ServingUnavailable:
                break
            self.workers.append(worker)
            if self._started:
                self.respawns += 1
        return list(self.workers)

    def close(self) -> None:
        """Shut every worker down (polite stop, then SIGKILL)."""
        for w in self.workers:
            try:
                w.conn.send(None)
            except Exception:
                pass
        for w in self.workers:
            w.proc.join(timeout=1.0)
            w.kill()
        self.workers.clear()

    def __len__(self) -> int:
        return len(self.workers)

    def __repr__(self) -> str:
        return (
            f"WorkerPool(size={self.size}, live={len(self.workers)}, "
            f"respawns={self.respawns})"
        )
