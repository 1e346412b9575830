"""The simulation service: job lifecycle, shard dedup, event streams.

:class:`SimulationService` is the daemon's brain (the HTTP layer in
:mod:`repro.service.daemon` is a thin shell around it):

* **Submission** expands a :class:`~repro.service.jobs.JobRequest` into
  shards and plans each one by its store cache key: a key already
  **stored** is served straight from the experiment store (source
  ``cached``); a key already **in flight** for any other job attaches
  this job to the existing computation (source ``shared``); only novel
  keys are queued to the worker pool (source ``new``).  Identical
  concurrent submissions therefore compute each shard exactly once —
  the acceptance property the e2e tests pin.
* **Affinity**: each new shard goes to the pool as one task, tagged
  with its :attr:`~repro.sim.experiment.RunPlan.traffic_key` when it
  :attr:`~repro.sim.experiment.RunPlan.shares_draw` (the same cell for
  different vectorized switches) and weighted by its expected packets.
  The pool hands an idle worker a shard of the traffic key it last
  drew first, so that worker replays the batch it holds instead of
  drawing it again (:mod:`repro.service.pool`).
* **Execution** happens in the crash-tolerant pool
  (:mod:`repro.service.pool`); workers save through the shared store,
  and the collector marks every subscribed job as each shard lands.
* **Streaming**: every job keeps an ordered event list (``job`` ->
  ``shard``* -> ``done``) guarded by one condition variable;
  :meth:`SimulationService.events` replays and then follows it, which
  is what ``repro watch`` turns into JSONL.

Telemetry: ``service.job`` / ``service.shard`` spans are recorded at
completion time (worker wall seconds ride in the span attrs — the span
itself closes immediately because the work happened in another
process), plus ``service.*`` counters for submissions, dedup sources,
failures, and requeues.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from contextlib import ExitStack
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .. import telemetry
from ..sim.metrics import SimulationResult
from ..store import ExperimentStore, cache_key, coerce_store, store_dir
from .jobs import (
    JobRequest,
    ShardSpec,
    _json_row,
    execute_shard,
    expand_shards,
    shard_plan,
)
from .pool import WorkerPool

__all__ = ["JobState", "ShardState", "SimulationService", "run_sweep"]

logger = telemetry.get_logger(__name__)


class ShardState:
    """One keyed shard's lifecycle, shared by every job that needs it."""

    __slots__ = ("spec", "key", "status", "summary", "error", "jobs")

    def __init__(self, spec: ShardSpec, key: str) -> None:
        self.spec = spec
        self.key = key
        self.status = "queued"  # queued | done | failed
        self.summary: Optional[Dict] = None
        self.error: Optional[str] = None
        #: Jobs subscribed while the shard is in flight.
        self.jobs: List[str] = []


class JobState:
    """One submitted request: its shards, progress, and event log."""

    def __init__(self, job_id: str, request: JobRequest) -> None:
        self.job_id = job_id
        self.request = request
        self.created = time.time()
        #: Ordered shard keys (the request's cell order).
        self.shard_keys: List[str] = []
        #: Per-key dedup source for this job: new | shared | cached.
        self.sources: Dict[str, str] = {}
        self.pending: set = set()
        self.failed = 0
        self.finished = False
        self.events: List[Dict] = []

    @property
    def status(self) -> str:
        if not self.finished:
            return "running"
        return "failed" if self.failed else "done"

    def describe(self) -> Dict:
        return {
            "job_id": self.job_id,
            "status": self.status,
            "workload": self.request.workload,
            "shards": len(self.shard_keys),
            "completed": len(self.shard_keys) - len(self.pending),
            "failed": self.failed,
            "sources": {
                source: sum(
                    1 for s in self.sources.values() if s == source
                )
                for source in ("new", "shared", "cached")
            },
            "created": self.created,
        }


class SimulationService:
    """The job service: submit sweeps, dedup shards, stream results.

    ``store`` (required — dedup is store-keyed) accepts anything
    :func:`repro.store.coerce_store` does.  ``runner`` is the worker-side
    shard executor, injectable for tests; the default runs
    :func:`repro.service.jobs.execute_shard`.
    """

    def __init__(
        self,
        store: Union[str, ExperimentStore],
        workers: int = 2,
        runner=execute_shard,
    ) -> None:
        self.store = coerce_store(store)
        if self.store is None:
            raise ValueError("the simulation service requires a store")
        self._store_path = store_dir(self.store)
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._jobs: Dict[str, JobState] = {}  # guarded by: self._lock
        self._shards: Dict[str, ShardState] = {}  # guarded by: self._lock
        self._seq = 0  # guarded by: self._lock
        self.pool = WorkerPool(
            runner,
            workers=workers,
            on_done=self._on_shard_done,
            on_failed=self._on_shard_failed,
        )
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "SimulationService":
        self.pool.start()
        self._started = True
        return self

    def stop(self) -> None:
        if self._started:
            self.pool.stop()
            self._started = False

    def __enter__(self) -> "SimulationService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- submission --------------------------------------------------------

    def submit(self, request: Union[JobRequest, Dict]) -> str:
        """Plan and enqueue a request; returns its job id immediately.

        Raises ``ValueError`` for invalid requests (unknown switch,
        unknown workload, empty grid, inadmissible load), and
        ``TypeError`` for one that is neither a dict nor a
        :class:`JobRequest`, before any state is created.
        """
        if isinstance(request, dict):
            request = JobRequest.from_dict(request)
        elif not isinstance(request, JobRequest):
            raise TypeError(
                f"a job request is a JSON object or a JobRequest, not "
                f"{type(request).__name__}"
            )
        shards = expand_shards(request)
        # Key every shard (and thereby validate the whole grid) before
        # touching service state: a half-registered invalid job would
        # wedge its watchers.
        planned = []
        seen = set()
        for spec in shards:
            plan = shard_plan(spec)
            params = plan.store_params()
            key = cache_key(params)
            if key in seen:
                continue  # a degenerate grid repeating a cell
            seen.add(key)
            draw_key = plan.traffic_key if plan.shares_draw else None
            planned.append((spec, key, params, draw_key))
        with self._lock:
            self._seq += 1
            job = JobState(f"job-{self._seq:04d}", request)
            self._jobs[job.job_id] = job
            telemetry.count("service.jobs")
            tasks = []
            for spec, key, params, draw_key in planned:
                job.shard_keys.append(key)
                if self._plan_shard(job, spec, key, params):
                    payload = {"shard": spec.to_dict(), "store": self._store_path}
                    weight = spec.n * spec.load * spec.num_slots
                    tasks.append((key, payload, draw_key, weight))
            self.pool.submit(tasks)
            job.events.insert(0, {
                "event": "job",
                "job_id": job.job_id,
                "workload": request.workload,
                "shards": len(job.shard_keys),
                "sources": dict(job.describe()["sources"]),
            })
            if not job.pending:
                self._finish_job(job)
            self._cond.notify_all()
            return job.job_id

    # requires: self._lock
    def _plan_shard(
        self, job: JobState, spec: ShardSpec, key: str, params: Dict
    ) -> bool:
        """Route one shard: attach, serve from store, or register it as
        new.  True for a new shard, which the caller queues."""
        state = self._shards.get(key)
        if state is not None and state.status == "queued":
            state.jobs.append(job.job_id)
            job.sources[key] = "shared"
            job.pending.add(key)
            telemetry.count("service.shards_shared")
            return False
        if (
            state is not None
            and state.status == "done"
            and key in self.store  # not pruned since by a gc
        ):
            job.sources[key] = "cached"
            telemetry.count("service.shards_cached")
            job.events.append(self._shard_event(job.job_id, state, "cached"))
            return False
        # Unseen key — or one whose last attempt failed, which a fresh
        # submission retries rather than inheriting the stale failure, or
        # one served before whose object a gc has since removed.
        cached = self.store.fetch(params)
        if cached is not None:
            state = ShardState(spec, key)
            state.status = "done"
            state.summary = _json_row(cached.as_row())
            self._shards[key] = state
            job.sources[key] = "cached"
            telemetry.count("service.shards_cached")
            job.events.append(self._shard_event(job.job_id, state, "cached"))
            return False
        state = ShardState(spec, key)
        state.jobs.append(job.job_id)
        self._shards[key] = state
        job.sources[key] = "new"
        job.pending.add(key)
        telemetry.count("service.shards_queued")
        return True

    # -- pool callbacks (collector thread) ---------------------------------

    def _on_shard_done(self, key: str, payload: Dict) -> None:
        with self._lock:
            state = self._shards.get(key)
            if state is None or state.status in ("done", "failed"):
                return  # settled already
            state.status = "done"
            state.summary = payload.get("row")
            wall_s = payload.get("wall_s")
            with telemetry.trace(
                "service.shard",
                key=key,
                switch=state.spec.switch,
                load=state.spec.load,
                seed=state.spec.seed,
                wall_s=wall_s,
            ):
                pass
            telemetry.count("service.shards_computed")
            if wall_s is not None:
                telemetry.observe("service.shard_s", wall_s)
            self._settle_shard(state)

    def _on_shard_failed(self, key: str, error: str, tb: str) -> None:
        with self._lock:
            state = self._shards.get(key)
            if state is None or state.status in ("done", "failed"):
                return
            state.status = "failed"
            state.error = error
            logger.warning("shard %s failed: %s\n%s", key, error, tb)
            telemetry.count("service.shard_failures")
            self._settle_shard(state, failed=True)

    # requires: self._lock
    def _settle_shard(self, state: ShardState, failed: bool = False) -> None:
        """Deliver a finished shard to every subscribed job (lock held)."""
        subscribers, state.jobs = state.jobs, []
        for job_id in subscribers:
            job = self._jobs[job_id]
            if failed:
                job.failed += 1
            job.events.append(
                self._shard_event(job_id, state, job.sources[state.key])
            )
            job.pending.discard(state.key)
            if not job.pending and not job.finished:
                self._finish_job(job)
        self._cond.notify_all()

    def _finish_job(self, job: JobState) -> None:
        job.finished = True
        job.events.append({
            "event": "done",
            "job_id": job.job_id,
            "status": job.status,
            "shards": len(job.shard_keys),
            "failed": job.failed,
        })
        with telemetry.trace(
            "service.job",
            job_id=job.job_id,
            shards=len(job.shard_keys),
            failed=job.failed,
            elapsed_s=time.time() - job.created,
        ):
            pass
        telemetry.count("service.jobs_finished")

    @staticmethod
    def _shard_event(job_id: str, state: ShardState, source: str) -> Dict:
        event = {
            "event": "shard",
            "job_id": job_id,
            "key": state.key,
            "switch": state.spec.switch,
            "load": state.spec.load,
            "seed": state.spec.seed,
            "status": state.status,
            "source": source,
        }
        if state.summary is not None:
            event["summary"] = state.summary
        if state.error is not None:
            event["error"] = state.error
        return event

    # -- client surface ----------------------------------------------------

    def _job(self, job_id: str) -> JobState:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                known = ", ".join(sorted(self._jobs)) or "(none)"
                raise ValueError(
                    f"unknown job {job_id!r}; known: {known}"
                ) from None

    def status(self, job_id: Optional[str] = None) -> Dict:
        """One job's progress dict, or (without an id) all jobs'."""
        if job_id is not None:
            with self._lock:
                return self._job(job_id).describe()
        with self._lock:
            return {
                "jobs": [
                    job.describe()
                    for job in sorted(
                        self._jobs.values(), key=lambda j: j.job_id
                    )
                ],
                "shards": len(self._shards),
                "outstanding": self.pool.outstanding(),
            }

    def events(
        self,
        job_id: str,
        follow: bool = False,
        timeout: Optional[float] = None,
    ) -> Iterator[Dict]:
        """Replay a job's event log; with ``follow``, keep yielding new
        events until the job finishes (or ``timeout`` elapses)."""
        job = self._job(job_id)
        deadline = None if timeout is None else time.time() + timeout
        index = 0
        while True:
            with self._cond:
                while index >= len(job.events):
                    if job.finished or not follow:
                        return
                    wait = WAIT_SLICE
                    if deadline is not None:
                        wait = min(wait, deadline - time.time())
                        if wait <= 0:
                            return
                    self._cond.wait(wait)
                batch = list(job.events[index:])
                index = len(job.events)
            for event in batch:
                yield event
            if not follow:
                return

    def wait(self, job_id: str, timeout: Optional[float] = None) -> bool:
        """Block until the job finishes; True on completion."""
        job = self._job(job_id)
        deadline = None if timeout is None else time.time() + timeout
        with self._cond:
            while not job.finished:
                wait = WAIT_SLICE
                if deadline is not None:
                    wait = min(wait, deadline - time.time())
                    if wait <= 0:
                        return False
                self._cond.wait(wait)
        return True

    def results(self, job_id: str) -> Iterator[Dict]:
        """Full per-shard results (store payloads) in cell order.

        Yields one dict per shard: identity, status, and — for completed
        shards — the stored result dict, read once and decoded once.
        Result streams are summaries for clients: the exact histogram
        travels, the bulky per-packet samples do not.  A finished shard
        whose object a gc has since removed yields status ``pruned`` and
        an error instead of a result; one whose object is present but
        unreadable yields status ``failed`` and an error saying so, and
        the next submission recomputes it.
        """
        for entry, result in self._result_rows(job_id):
            if isinstance(result, str):
                result = json.loads(result)
            if result is not None:
                entry["result"] = result
            yield entry

    def _result_rows(
        self, job_id: str
    ) -> Iterator[Tuple[Dict, Union[None, str, Dict]]]:
        """What :meth:`results` yields, with each stored result left as
        :meth:`~repro.store.ExperimentStore.result_text` reads it: its
        JSON text where the store can hand that out (the daemon writes
        it to the wire undecoded), else a dict without
        ``delay_samples``, else None and the entry saying why.
        """
        job = self._job(job_id)
        with self._lock:
            snapshot = [
                (key, self._shards.get(key)) for key in job.shard_keys
            ]
        for key, state in snapshot:
            entry: Dict = {"key": key}
            if state is not None:
                entry.update(
                    switch=state.spec.switch,
                    load=state.spec.load,
                    seed=state.spec.seed,
                    status=state.status,
                )
                if state.error is not None:
                    entry["error"] = state.error
            result = self.store.result_text(key)
            if isinstance(result, dict):
                result.pop("delay_samples", None)
            if result is not None:
                entry["status"] = "done"
            elif entry.get("status") == "done":
                if key in self.store:
                    # Present but unreadable: fail the shard, so the next
                    # submission re-plans it instead of serving it as
                    # cached (the warm plan path never decodes).
                    entry["status"] = "failed"
                    entry["error"] = UNREADABLE_ERROR
                    with self._lock:
                        if state.status == "done":
                            state.status = "failed"
                            state.error = UNREADABLE_ERROR
                else:
                    # Finished, but its object has since been removed by
                    # a ``repro store gc``; resubmitting recomputes it.
                    entry["status"] = "pruned"
                    entry["error"] = PRUNED_ERROR
            yield entry, result


def run_sweep(
    request: Union[JobRequest, Dict],
    store: Union[None, str, ExperimentStore] = None,
    workers: Optional[int] = None,
) -> List[SimulationResult]:
    """Run a sweep grid across ``workers`` processes (default: one per
    CPU) and return one result per distinct cell, in cell order.

    The blocking, in-process form of ``repro serve`` + ``repro submit``:
    the same shards, store keys, dedup and crash recovery, and results
    ``to_dict()``-identical to per-cell
    :func:`~repro.sim.experiment.run_single` calls.  ``store`` is shared
    with every other run path (a repeated sweep recomputes nothing, and
    one whose every cell is stored starts no worker); without one the
    results live in a temporary directory for the duration of the call.
    An invalid grid raises its ``ValueError`` before any worker starts;
    failed cells raise one ``RuntimeError`` naming each with its
    worker-side message, after every other cell has completed (and been
    stored).
    """
    with ExitStack() as stack:
        if store is None:
            store = stack.enter_context(tempfile.TemporaryDirectory())
        service = SimulationService(store, workers or os.cpu_count() or 1)
        job_id = service.submit(request)  # validates the whole grid
        if service.status(job_id)["status"] == "running":
            with service:
                service.wait(job_id)
        cells = list(service.results(job_id))
    failed = [cell for cell in cells if "result" not in cell]
    if failed:
        lines = [f"{len(failed)} of {len(cells)} sweep cells failed:"]
        lines.extend(
            f"  {cell['switch']} @ load {cell['load']} seed {cell['seed']}: "
            f"{cell.get('error')}"
            for cell in failed
        )
        raise RuntimeError("\n".join(lines))
    return [SimulationResult.from_dict(cell["result"]) for cell in cells]


#: Condition-wait slice: bounds stream latency for follow/wait loops.
WAIT_SLICE = 0.25

#: ``results``' error for a finished shard whose stored object is gone.
PRUNED_ERROR = (
    "result no longer in the store (removed by gc); resubmit to recompute"
)

#: ``results``' error for a finished shard whose stored object is present
#: but cannot be read (a corrupt or hand-edited payload).
UNREADABLE_ERROR = (
    "stored result is unreadable (corrupt payload); resubmit to recompute"
)
