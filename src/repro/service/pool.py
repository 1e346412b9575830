"""A crash-tolerant process worker pool with parent-side assignment.

The repo's one process pool: local sweeps
(:func:`repro.service.run_sweep`) and the daemon both run on it.  A
worker OOM-ing on one shard must not abandon every queued cell (the
stdlib executor pool's ``BrokenProcessPool``), so this pool runs plain
``multiprocessing`` workers, each on its own pipe.  The parent queues
:class:`Task` s and hands one to each idle worker, recording the
assignment *before* it sends; the worker answers ``("done", task_id,
payload)`` or ``("failed", task_id, error, tb)`` (task exceptions never
kill a worker).

Affinity: a worker runs every task inside one
:func:`~repro.sim.experiment.shared_draws` scope for its lifetime, which
keeps the last arrival batch it drew (so an idle worker holds at most
one batch).  The parent records each worker's last ``draw_key`` and
hands an idle worker the task :func:`pick` chooses: one that replays
the batch it holds, else one no busy worker holds, else the heaviest.
:meth:`WorkerPool.submit` queues a whole batch before it dispatches, so
a job's heaviest task starts first, and the rule sees every job's
queue.

A collector thread waits on every pipe and every process sentinel.  A
worker's death (crash, OOM kill, SIGKILL) is seen by its sentinel, not
by pipe EOF: forked siblings can hold copies of each other's pipe ends.
The parent drains the dead worker's pipe, so a result sent before the
death is delivered and not run again, then requeues the task the worker
was running and spawns a replacement.  Execution is thus exactly-once
except for a worker killed mid-run, whose task runs again elsewhere:
the service's at-least-once guarantee.  A task that has killed
:attr:`WorkerPool.MAX_ATTEMPTS` workers is a poison shard: it is failed
(``on_failed``) instead of requeued, so it cannot cycle forever.

Workers are ``fork``-started: the runner needs no pickling, and tests
can monkeypatch it before workers spawn.  Shards re-open the experiment
store by path, so forked state stays trivial.
"""

from __future__ import annotations

import multiprocessing as mp
import signal
import threading
import traceback
from multiprocessing.connection import Connection, wait
from typing import AbstractSet, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .. import telemetry
from ..sim.experiment import shared_draws

__all__ = ["Task", "WorkerPool", "pick"]

logger = telemetry.get_logger(__name__)


class Task(NamedTuple):
    """One unit of dispatch.  ``draw_key`` names the arrival batch the
    task would draw (``None``: it draws its own); ``weight`` is its
    expected work."""

    task_id: str
    payload: object
    draw_key: Optional[str] = None
    weight: float = 0.0


def pick(queue: Sequence[Task], own: Optional[str], held: AbstractSet) -> int:
    """The index of the task an idle worker holding ``own`` runs next,
    while busy workers hold ``held``.  First match wins:

    1. the oldest task with the worker's own key;
    2. else the heaviest task whose key no busy worker holds (``None``
       counts as unheld);
    3. else the heaviest task.

    Ties keep queue order.
    """
    if own is not None:
        for i, task in enumerate(queue):
            if task.draw_key == own:
                return i
    # max() keeps the first of equal ranks.
    return max(range(len(queue)), key=lambda i: (
        queue[i].draw_key is None or queue[i].draw_key not in held,
        queue[i].weight,
    ))


def _worker_main(runner: Callable, conn: Connection) -> None:
    """Worker process body: run each assigned task, reporting it, under
    one shared-draw scope for the worker's life; ``None`` stops."""
    # Forked from the daemon: die of terminate(), not its SIGTERM handler.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    with shared_draws():
        while True:
            task = conn.recv()
            if task is None:
                return
            task_id, payload = task
            try:
                out = runner(payload)
            except BaseException as exc:
                error = f"{type(exc).__name__}: {exc}"
                tb = traceback.format_exc()
                conn.send(("failed", task_id, error, tb))
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
        #: The task each busy worker is running.
        self._assigned: Dict[int, Task] = {}  # guarded by: self._lock
        #: The draw key each worker holds: the last one it was sent.
        self._holds: Dict[int, str] = {}  # guarded by: self._lock
        self._queue: List[Task] = []  # guarded by: self._lock
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

    def submit(self, tasks: Sequence[tuple]) -> None:
        """Queue a batch of tasks, then dispatch once.  Each is a
        :class:`Task` or a tuple of its leading fields; each ``task_id``
        must be unique among live tasks."""
        with self._lock:
            self._queue.extend(Task(*task) for task in tasks)
            self._dispatch()

    def outstanding(self) -> int:
        """Tasks submitted but not yet completed (queued or assigned)."""
        with self._lock:
            return len(self._queue) + len(self._assigned)

    # requires: self._lock
    def _dispatch(self) -> None:
        """Hand queued tasks to idle workers by :func:`pick`, recording
        each assignment first."""
        for pid, (_, conn) in self._workers.items():
            if not self._queue or self._stopping.is_set():
                return
            if pid in self._assigned:
                continue
            held = {self._holds.get(busy) for busy in self._assigned}
            task = self._queue.pop(pick(self._queue, self._holds.get(pid), held))
            self._assigned[pid] = task
            if task.draw_key is not None:
                self._holds[pid] = task.draw_key
            try:
                conn.send(task[:2])
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
            del self._assigned[pid]
            self._kills.pop(task_id, None)
            self._dispatch()
        callback = self.on_done if kind == "done" else self.on_failed
        if callback is not None:
            callback(task_id, *result)
        return True

    def _bury(self, pid: int) -> None:
        """A worker died: deliver what it sent, requeue the task it was
        running, and spawn its replacement."""
        with self._lock:  # out of _workers first: nothing new is sent it
            proc, conn = self._workers.pop(pid)
        while conn.poll() and self._receive(pid, conn):
            pass
        with self._lock:
            task = self._assigned.pop(pid, None)
            self._holds.pop(pid, None)
        proc.join(timeout=0.1)
        conn.close()
        logger.warning("worker %d died (exitcode %s)", pid, proc.exitcode)
        if task is not None:
            self._requeue(task)
        if not self._stopping.is_set():
            self._spawn()

    def _requeue(self, task: Task) -> None:
        """Requeue the task that killed a worker, or fail it at its last
        attempt."""
        with self._lock:
            kills = self._kills.pop(task.task_id, 0) + 1
            if kills < self.MAX_ATTEMPTS:
                self._kills[task.task_id] = kills
                self.requeues += 1
                self._queue.append(task)
                self._dispatch()
        if kills < self.MAX_ATTEMPTS:
            telemetry.count("service.shard_requeues")
            logger.warning("requeueing task %s from dead worker", task.task_id)
            return
        logger.warning("task %s killed %d workers", task.task_id, kills)
        if self.on_failed is not None:
            self.on_failed(task.task_id, f"WorkerLost: killed {kills} workers", "")
