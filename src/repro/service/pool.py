"""A crash-tolerant process worker pool with parent-side assignment.

The repo's one process pool: local sweeps
(:func:`repro.service.run_sweep`) and the daemon both run on it.  A
worker OOM-ing on one shard must not abandon every queued cell (the
stdlib executor pool's ``BrokenProcessPool``), so this pool runs plain
``multiprocessing`` workers, each on its own pipe.  The parent keeps
the unassigned tasks in a FIFO and hands the next to an idle worker,
recording the assignment *before* it sends.  The worker answers with
``("done", task_id, payload)`` or ``("failed", task_id, error, tb)``;
``failed`` carries the worker-side traceback (task exceptions never kill
a worker).

A collector thread waits on every pipe and every process sentinel.  A
worker's death (crash, OOM kill, SIGKILL) is seen by its sentinel, not
by pipe EOF: forked siblings can hold copies of each other's pipe ends.
The parent drains the dead worker's pipe, so a result sent before the
death is delivered and not run again, then requeues the task the worker
held and spawns a replacement.  Execution is thus exactly-once except
for a worker killed mid-run, whose task runs again elsewhere: the
service's at-least-once guarantee.  A task that has killed
:attr:`WorkerPool.MAX_ATTEMPTS` workers is a poison shard: it is failed
(``on_failed``) instead of requeued, so it cannot cycle forever.

Workers are ``fork``-started: the runner needs no pickling, and tests
can monkeypatch it before workers spawn.  Shards re-open the experiment
store by path, so forked state stays trivial.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import traceback
from collections import deque
from multiprocessing.connection import Connection, wait
from typing import Callable, Deque, Dict, Optional, Tuple

from .. import telemetry

__all__ = ["WorkerPool"]

logger = telemetry.get_logger(__name__)

#: One task as the parent holds it: ``(task_id, payload)``.
Task = Tuple[str, object]


def _worker_main(runner: Callable, conn: Connection) -> None:
    """Worker process body: run each assigned task, report; ``None`` stops."""
    while True:
        item = conn.recv()
        if item is None:
            return
        task_id, payload = item
        try:
            out = runner(payload)
        except BaseException as exc:
            error = f"{type(exc).__name__}: {exc}"
            conn.send(("failed", task_id, error, traceback.format_exc()))
        else:
            conn.send(("done", task_id, out))


class WorkerPool:
    """Fixed-size process pool executing ``runner(payload)`` tasks.

    ``on_done(task_id, payload)`` / ``on_failed(task_id, error, tb)``
    fire in the collector thread as completions arrive (callers do their
    own locking).  ``requeues`` counts crash-recovered tasks.
    """

    #: Collector wake-up cadence; bounds shutdown latency.
    POLL_SECONDS = 0.2
    #: Workers one task may kill before it is failed instead of requeued.
    MAX_ATTEMPTS = 3

    def __init__(
        self,
        runner: Callable,
        workers: int = 2,
        on_done: Optional[Callable] = None,
        on_failed: Optional[Callable] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.runner = runner
        self.workers = workers
        self.on_done = on_done
        self.on_failed = on_failed
        self.requeues = 0
        self._ctx = mp.get_context("fork")
        self._workers: Dict[int, Tuple[mp.Process, Connection]] = {}  # guarded by: self._lock
        self._assigned: Dict[int, Task] = {}  # guarded by: self._lock
        self._queue: Deque[Task] = deque()  # guarded by: self._lock
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
        """Drain-free shutdown: stop the collector, then every worker."""
        self._stopping.set()
        if self._collector is not None:
            self._collector.join(timeout=5.0)
        with self._lock:
            workers = list(self._workers.values())
        for _, conn in workers:
            try:
                conn.send(None)
            except OSError:  # already dead
                pass
        for proc, conn in workers:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
            conn.close()

    def _spawn(self) -> None:
        conn, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main, args=(self.runner, child), daemon=True
        )
        proc.start()
        child.close()  # the worker's end lives in the worker alone
        with self._lock:
            self._workers[proc.pid] = (proc, conn)
            self._dispatch()

    # -- task flow ---------------------------------------------------------

    def submit(self, task_id: str, payload) -> None:
        """Queue one task.  ``task_id`` must be unique among live tasks."""
        with self._lock:
            self._queue.append((task_id, payload))
            self._dispatch()

    def outstanding(self) -> int:
        """Tasks submitted but not yet completed (queued or assigned)."""
        with self._lock:
            return len(self._queue) + len(self._assigned)

    # requires: self._lock
    def _dispatch(self) -> None:
        """Hand queued tasks to idle workers, recording each first."""
        for pid, (_, conn) in self._workers.items():
            if not self._queue or self._stopping.is_set():
                return
            if pid in self._assigned:
                continue
            task = self._assigned[pid] = self._queue.popleft()
            try:
                conn.send(task)
            except OSError:  # dead already: its sentinel requeues the task
                pass

    def _collect(self) -> None:
        while not self._stopping.is_set():
            owners: Dict[object, int] = {}
            with self._lock:
                for pid, (proc, conn) in self._workers.items():
                    owners[conn] = owners[proc.sentinel] = pid
            ready = wait(list(owners), timeout=self.POLL_SECONDS)
            # Messages first: a worker buried below has no pipe left.
            for conn in [r for r in ready if isinstance(r, Connection)]:
                self._receive(owners[conn], conn)
            for sentinel in [r for r in ready if isinstance(r, int)]:
                self._bury(owners[sentinel])

    def _receive(self, pid: int, conn: Connection) -> bool:
        """Deliver one message from ``pid``; False if its pipe is dead."""
        try:
            kind, task_id, *result = conn.recv()
        except (EOFError, OSError):  # the worker died: see _bury
            return False
        with self._lock:
            self._assigned.pop(pid, None)
            self._kills.pop(task_id, None)
            self._dispatch()
        callback = self.on_done if kind == "done" else self.on_failed
        if callback is not None:
            callback(task_id, *result)
        return True

    def _bury(self, pid: int) -> None:
        """A worker died: deliver what it sent, requeue what it held,
        and spawn its replacement."""
        with self._lock:  # out of _workers first: nothing new is sent it
            proc, conn = self._workers.pop(pid)
        while conn.poll() and self._receive(pid, conn):
            pass
        with self._lock:
            task = self._assigned.pop(pid, None)
        proc.join(timeout=0.1)
        conn.close()
        logger.warning("worker %d died (exitcode %s)", pid, proc.exitcode)
        if task is not None:
            self._requeue(*task)
        if not self._stopping.is_set():
            self._spawn()

    def _requeue(self, task_id: str, payload) -> None:
        with self._lock:
            kills = self._kills[task_id] = self._kills.get(task_id, 0) + 1
            if kills < self.MAX_ATTEMPTS:
                self.requeues += 1
                self._queue.append((task_id, payload))
                self._dispatch()
            else:
                del self._kills[task_id]
        if kills < self.MAX_ATTEMPTS:
            telemetry.count("service.shard_requeues")
            logger.warning("requeueing task %s from dead worker", task_id)
            return
        logger.warning("task %s killed %d workers", task_id, kills)
        if self.on_failed is not None:
            self.on_failed(task_id, f"WorkerLost: killed {kills} workers", "")
