"""A crash-tolerant process worker pool with a claim/complete protocol.

The repo's one process pool: local sweeps
(:func:`repro.service.run_sweep`) and the daemon both run on it.  A
worker OOM-ing on one shard must not abandon every queued cell — the
stdlib executor pool's ``BrokenProcessPool`` — so this pool runs plain
``multiprocessing`` workers over a task queue with an explicit protocol:

``("claim", pid, task_id)``
    Sent by a worker the moment it dequeues a task, *before* running it.
``("done", pid, task_id, payload)`` / ``("failed", pid, task_id, error, tb)``
    Sent when the task finishes; ``failed`` carries the worker-side
    traceback (task exceptions never kill a worker).

A collector thread in the parent consumes these messages and watches
worker liveness: a dead worker (crash, OOM kill, SIGKILL) with an
outstanding claim gets its task **re-queued** and a replacement worker
spawned, so the shard runs again elsewhere — the service's
at-least-once execution guarantee.  (A worker dying in the instant
between dequeue and claim would orphan that one task; the window is a
few instructions wide and crash-requeue is best-effort recovery, not a
transactional queue.)  Callers must therefore tolerate duplicate
completions — a task can finish twice when a worker is killed after
completing but before the parent drains its message.  A task that has
killed :attr:`WorkerPool.MAX_ATTEMPTS` workers is a poison shard: it is
failed (``on_failed``) instead of requeued, so it cannot cycle forever.

Workers are ``fork``-started: tasks need no pickling round-trip beyond
the queue itself, and tests can monkeypatch the runner before workers
spawn.  The runner executes simulation shards which re-open the
experiment store by path, so forked state stays trivial.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue
import threading
import traceback
from typing import Callable, Dict, Optional

from .. import telemetry

__all__ = ["WorkerPool"]

logger = telemetry.get_logger(__name__)


def _worker_main(runner: Callable, tasks, results) -> None:
    """Worker process body: claim, run, report; ``None`` poisons."""
    pid = os.getpid()
    while True:
        item = tasks.get()
        if item is None:
            return
        task_id, payload = item
        results.put(("claim", pid, task_id))
        try:
            out = runner(payload)
        except BaseException as exc:
            results.put((
                "failed",
                pid,
                task_id,
                f"{type(exc).__name__}: {exc}",
                traceback.format_exc(),
            ))
        else:
            results.put(("done", pid, task_id, out))


class WorkerPool:
    """Fixed-size process pool executing ``runner(payload)`` tasks.

    ``on_done(task_id, payload)`` / ``on_failed(task_id, error, tb)``
    fire in the collector thread as completions arrive (callers do their
    own locking); ``on_claim(task_id)`` fires when a worker picks a task
    up.  ``requeues`` counts crash-recovered tasks.
    """

    #: Liveness-check cadence; also bounds shutdown latency.
    POLL_SECONDS = 0.2
    #: Workers one task may kill before it is failed instead of requeued.
    MAX_ATTEMPTS = 3

    def __init__(
        self,
        runner: Callable,
        workers: int = 2,
        on_done: Optional[Callable] = None,
        on_failed: Optional[Callable] = None,
        on_claim: Optional[Callable] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.runner = runner
        self.workers = workers
        self.on_done = on_done
        self.on_failed = on_failed
        self.on_claim = on_claim
        self.requeues = 0
        self._ctx = mp.get_context("fork")
        self._tasks = self._ctx.Queue()
        self._results = self._ctx.Queue()
        self._procs: Dict[int, mp.Process] = {}  # guarded by: self._lock
        self._claims: Dict[int, str] = {}  # guarded by: self._lock
        self._pending: Dict[str, object] = {}  # guarded by: self._lock
        self._kills: Dict[str, int] = {}  # guarded by: self._lock
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._collector: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        for _ in range(self.workers):
            self._spawn()
        self._collector = threading.Thread(
            target=self._collect, name="pool-collector", daemon=True
        )
        self._collector.start()

    def stop(self) -> None:
        """Drain-free shutdown: poison workers, join everything."""
        self._stopping.set()
        with self._lock:
            procs = list(self._procs.values())
        for _ in procs:
            self._tasks.put(None)
        for proc in procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
        if self._collector is not None:
            self._collector.join(timeout=5.0)

    def _spawn(self) -> None:
        proc = self._ctx.Process(
            target=_worker_main,
            args=(self.runner, self._tasks, self._results),
            daemon=True,
        )
        proc.start()
        with self._lock:
            self._procs[proc.pid] = proc

    # -- task flow ---------------------------------------------------------

    def submit(self, task_id: str, payload) -> None:
        """Queue one task.  ``task_id`` must be unique among live tasks."""
        with self._lock:
            self._pending[task_id] = payload
        self._tasks.put((task_id, payload))

    def outstanding(self) -> int:
        """Tasks submitted but not yet completed (queued or claimed)."""
        with self._lock:
            return len(self._pending)

    def _collect(self) -> None:
        while not self._stopping.is_set():
            try:
                msg = self._results.get(timeout=self.POLL_SECONDS)
            except queue.Empty:
                self._reap_dead_workers()
                continue
            kind = msg[0]
            if kind == "claim":
                _, pid, task_id = msg
                requeue = None
                with self._lock:
                    if pid in self._procs:
                        self._claims[pid] = task_id
                    elif task_id in self._pending:
                        # The claim outlived its worker (killed between
                        # claiming and the liveness sweep that already
                        # reaped it): requeue straight away.
                        requeue = (task_id, self._pending[task_id])
                if requeue is not None:
                    self._requeue(*requeue)
                if self.on_claim is not None:
                    self.on_claim(task_id)
            elif kind == "done":
                _, pid, task_id, payload = msg
                self._complete(pid, task_id)
                if self.on_done is not None:
                    self.on_done(task_id, payload)
            elif kind == "failed":
                _, pid, task_id, error, tb = msg
                self._complete(pid, task_id)
                if self.on_failed is not None:
                    self.on_failed(task_id, error, tb)

    def _complete(self, pid: int, task_id: str) -> None:
        with self._lock:
            if self._claims.get(pid) == task_id:
                del self._claims[pid]
            self._pending.pop(task_id, None)
            self._kills.pop(task_id, None)

    def _reap_dead_workers(self) -> None:
        """Requeue claims held by dead workers; keep the pool at size."""
        with self._lock:
            dead = [
                (pid, proc)
                for pid, proc in self._procs.items()
                if not proc.is_alive()
            ]
            for pid, _ in dead:
                del self._procs[pid]
            orphans = [
                (pid, self._claims.pop(pid))
                for pid, _ in dead
                if pid in self._claims
            ]
            resubmit = [
                (task_id, self._pending[task_id])
                for _, task_id in orphans
                if task_id in self._pending
            ]
        for pid, proc in dead:
            proc.join(timeout=0.1)
            logger.warning(
                "worker %d died (exitcode %s); respawning",
                pid, proc.exitcode,
            )
            if not self._stopping.is_set():
                self._spawn()
        for task_id, payload in resubmit:
            self._requeue(task_id, payload)

    def _requeue(self, task_id: str, payload) -> None:
        with self._lock:
            kills = self._kills[task_id] = self._kills.get(task_id, 0) + 1
            poison = kills >= self.MAX_ATTEMPTS
            if poison:
                self._pending.pop(task_id, None)
                del self._kills[task_id]
        if poison:
            logger.warning("task %s killed %d workers", task_id, kills)
            if self.on_failed is not None:
                self.on_failed(
                    task_id, f"WorkerLost: killed {kills} workers", ""
                )
            return
        self.requeues += 1
        telemetry.count("service.shard_requeues")
        logger.warning("requeueing task %s from dead worker", task_id)
        self._tasks.put((task_id, payload))
