"""A crash-tolerant process worker pool with parent-side assignment.

The repo's one process pool: local sweeps
(:func:`repro.service.run_sweep`) and the daemon both run on it.  A
worker OOM-ing on one shard must not abandon every queued cell (the
stdlib executor pool's ``BrokenProcessPool``), so this pool runs plain
``multiprocessing`` workers, each on its own pipe.  The unit of
dispatch is a *group* of tasks: the parent keeps unassigned groups in a
FIFO and hands the next whole group to an idle worker, recording the
assignment *before* it sends.  The worker runs the group's tasks in
order inside one :func:`~repro.sim.experiment.shared_draws` scope (the
service groups shards that replay one traffic stream, so the group
draws it once) and answers each task with ``("done", task_id,
payload)`` or ``("failed", task_id, error, tb)``; ``failed`` carries
the worker-side traceback (task exceptions never kill a worker).  The
worker is idle again once its group's last task has reported.

A collector thread waits on every pipe and every process sentinel.  A
worker's death (crash, OOM kill, SIGKILL) is seen by its sentinel, not
by pipe EOF: forked siblings can hold copies of each other's pipe ends.
The parent drains the dead worker's pipe, so a result sent before the
death is delivered and not run again, then requeues each task of the
group the worker had not finished, as a group of its own, and spawns a
replacement.  Execution is thus exactly-once except for a worker killed
mid-run, whose task runs again elsewhere: the service's at-least-once
guarantee.  Only the task that was running counts the death against
itself; one that has killed :attr:`WorkerPool.MAX_ATTEMPTS` workers is a
poison shard: it is failed (``on_failed``) instead of requeued, so it
cannot cycle forever.

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
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..sim.experiment import shared_draws

__all__ = ["WorkerPool"]

logger = telemetry.get_logger(__name__)

#: One task as the parent holds it: ``(task_id, payload)``.
Task = Tuple[str, object]


def _worker_main(runner: Callable, conn: Connection) -> None:
    """Worker process body: run each assigned group's tasks in order
    under one shared-draw scope, reporting each; ``None`` stops."""
    while True:
        group = conn.recv()
        if group is None:
            return
        with shared_draws():
            for task_id, payload in group:
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
    own locking).  ``requeues`` counts crash-recovered tasks (every
    unfinished task of a dead worker's group counts).
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
        #: Each busy worker's unfinished tasks, in the order it runs them.
        self._assigned: Dict[int, Deque[Task]] = {}  # guarded by: self._lock
        self._queue: Deque[List[Task]] = deque()  # guarded by: self._lock
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

    def submit(self, tasks: Sequence[Task]) -> None:
        """Queue one group: tasks that one worker runs in order.  Each
        ``task_id`` must be unique among live tasks."""
        with self._lock:
            self._queue.append(list(tasks))
            self._dispatch()

    def outstanding(self) -> int:
        """Tasks submitted but not yet completed (queued or assigned)."""
        with self._lock:
            return sum(map(len, self._queue)) + sum(
                map(len, self._assigned.values())
            )

    # requires: self._lock
    def _dispatch(self) -> None:
        """Hand queued groups to idle workers, recording each first."""
        for pid, (_, conn) in self._workers.items():
            if not self._queue or self._stopping.is_set():
                return
            if pid in self._assigned:
                continue
            group = self._queue.popleft()
            self._assigned[pid] = deque(group)
            try:
                conn.send(group)
            except OSError:  # dead already: its sentinel requeues the group
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
            unfinished = self._assigned[pid]
            unfinished.popleft()  # workers report in group order
            if not unfinished:
                del self._assigned[pid]
                self._dispatch()
            self._kills.pop(task_id, None)
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
            unfinished = self._assigned.pop(pid, ())
        proc.join(timeout=0.1)
        conn.close()
        logger.warning("worker %d died (exitcode %s)", pid, proc.exitcode)
        # The first unfinished task was running when the worker died.
        for rank, task in enumerate(unfinished):
            self._requeue(*task, killed=rank == 0)
        if not self._stopping.is_set():
            self._spawn()

    def _requeue(self, task_id: str, payload, killed: bool) -> None:
        """Requeue one task of a dead worker as a group of its own; the
        task that ``killed`` it is failed instead at its last attempt."""
        with self._lock:
            kills = self._kills.get(task_id, 0) + killed
            if kills < self.MAX_ATTEMPTS:
                self._kills[task_id] = kills
                self.requeues += 1
                self._queue.append([(task_id, payload)])
                self._dispatch()
            else:
                self._kills.pop(task_id, None)
        if kills < self.MAX_ATTEMPTS:
            telemetry.count("service.shard_requeues")
            logger.warning("requeueing task %s from dead worker", task_id)
            return
        logger.warning("task %s killed %d workers", task_id, kills)
        if self.on_failed is not None:
            self.on_failed(task_id, f"WorkerLost: killed {kills} workers", "")
