"""Multiprocess experiment sweeps.

The §6 grid (patterns x loads x switches) is embarrassingly parallel; this
module fans :func:`repro.sim.experiment.run_single` out over a process
pool.  A :class:`SweepJob` is an *unresolved* request, fully described by
picklable primitives (switch name, matrix or scenario dict, seed, store
path); the worker plans and executes it locally (``run_single`` ->
:func:`~repro.sim.experiment.plan_run`), so an invalid cell fails inside
its own job — no shared state, bit-identical to the sequential runner
given the same seeds.  When a store directory is set, workers
share the cache through the filesystem (content addressing makes
concurrent writes idempotent), so repeated parallel sweeps recompute
nothing.

Failure semantics: one bad cell never kills the pool.  Every job runs
under a per-job exception capture; a failure becomes a
:class:`FailedJob` record (the job's identity plus the worker-side
traceback) while every other job still completes.  ``on_error="raise"``
(the default) then raises a :class:`SweepError` carrying the records;
``on_error="record"`` returns the records in the result list in job
order, which is how the simulation service surfaces per-shard failures
without abandoning a sweep.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from typing import List, NamedTuple, Optional, Sequence, Union

import numpy as np

from .. import telemetry
from ..models import PAPER_SWITCHES
from ..store import ExperimentStore, store_dir
from .experiment import cell_workload, resolve_pattern, run_single
from .metrics import SimulationResult

__all__ = [
    "FailedJob",
    "SweepError",
    "SweepJob",
    "run_jobs",
    "parallel_delay_sweep",
]


class SweepJob(NamedTuple):
    """One (switch, workload) cell of a sweep.

    ``engine`` selects the simulation engine per job ("object" or
    "vectorized").  The workload is either an explicit ``matrix`` or a
    ``scenario`` (spec dict / registry name) with ``n``; ``load_label``
    doubles as the scenario's target load.  ``store`` is the experiment
    store's directory path (not the object — jobs stay fully described by
    picklable primitives).  ``switch_params`` passes schema-checked
    constructor parameters (e.g. PF's ``threshold``) through to
    :func:`~repro.sim.experiment.run_single` — as a plain dict, so jobs
    stay picklable.
    """

    switch_name: str
    matrix: Optional[np.ndarray]
    num_slots: int
    seed: int
    load_label: float
    engine: str = "object"
    scenario: Optional[object] = None
    n: Optional[int] = None
    store: Optional[str] = None
    switch_params: Optional[dict] = None


class FailedJob(NamedTuple):
    """One sweep cell that raised: its identity plus the worker traceback.

    Appears in :func:`run_jobs` results under ``on_error="record"`` (in
    the failed job's position, preserving job order) and rides inside
    :class:`SweepError` under ``on_error="raise"``.
    """

    job: SweepJob
    error: str
    traceback: str

    def describe(self) -> str:
        """One-line identity for logs and error messages."""
        return (
            f"{self.job.switch_name} @ load {self.job.load_label} "
            f"seed {self.job.seed}: {self.error}"
        )


class SweepError(RuntimeError):
    """Raised when sweep jobs failed (after every job ran to completion).

    ``failures`` holds the :class:`FailedJob` records; the message names
    each failed cell and carries the first traceback in full — the one
    debugging artifact a dead CI sweep needs.
    """

    def __init__(self, failures: Sequence[FailedJob], total: int) -> None:
        self.failures = list(failures)
        lines = [f"{len(self.failures)} of {total} sweep jobs failed:"]
        lines.extend(f"  {f.describe()}" for f in self.failures)
        lines.append("first failure traceback:")
        lines.append(self.failures[0].traceback.rstrip())
        super().__init__("\n".join(lines))


def _run_job(job: SweepJob) -> SimulationResult:
    return run_single(
        job.switch_name,
        job.matrix,
        job.num_slots,
        seed=job.seed,
        load_label=job.load_label,
        keep_samples=False,
        engine=job.engine,
        scenario=job.scenario,
        n=job.n,
        load=job.load_label,
        store=job.store,
        switch_params=job.switch_params,
    )


def _run_job_safe(job: SweepJob):
    """Pool worker entry: ``(result, failure, wall_s)`` where exactly one
    of result/failure is set.  The exception is flattened to strings in
    the worker — tracebacks do not pickle, and the parent needs the
    worker-side stack anyway."""
    t0 = time.perf_counter()
    try:
        result = _run_job(job)
    except Exception as exc:
        failure = {
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }
        return None, failure, time.perf_counter() - t0
    return result, None, time.perf_counter() - t0


def run_jobs(
    jobs: Sequence[SweepJob],
    max_workers: Optional[int] = None,
    on_error: str = "raise",
) -> List[Union[SimulationResult, FailedJob]]:
    """Execute jobs on a process pool; results in job order.

    ``max_workers=1`` (or a single job) runs inline, which keeps tests
    fast and debugging sane.

    A job that raises is captured as a :class:`FailedJob` (identity +
    worker traceback) instead of killing the pool; the remaining jobs
    always run to completion.  ``on_error="raise"`` (default) raises
    :class:`SweepError` afterwards; ``on_error="record"`` returns the
    failure records in place, so callers — the simulation service's
    shard executor, resilient sweep campaigns — can keep the good cells.

    With telemetry enabled in the parent, the pool path also records
    per-job busy time (``parallel.job_s``) and the pool's utilization —
    summed worker busy time over ``elapsed x workers``
    (``parallel.utilization``); an idle-heavy gauge means the sweep is
    dominated by stragglers or pool startup, not simulation.  Failures
    count into ``parallel.job_failures``.
    """
    if on_error not in ("raise", "record"):
        raise ValueError(
            f"on_error must be 'raise' or 'record', got {on_error!r}"
        )
    if max_workers == 1 or len(jobs) <= 1:
        outcomes = []
        for job in jobs:
            with telemetry.trace(
                "sweep.job", switch=job.switch_name, load=job.load_label
            ):
                outcomes.append(_run_job_safe(job))
    else:
        workers = (
            max_workers if max_workers is not None else (os.cpu_count() or 1)
        )
        with telemetry.trace("sweep.pool", jobs=len(jobs), workers=workers):
            t0 = time.perf_counter()
            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                outcomes = list(pool.map(_run_job_safe, jobs))
            elapsed = time.perf_counter() - t0
        if telemetry.enabled():
            busy = 0.0
            for _, _, wall_s in outcomes:
                busy += wall_s
                telemetry.observe("parallel.job_s", wall_s)
            if elapsed > 0:
                telemetry.set_gauge(
                    "parallel.utilization",
                    min(1.0, busy / (elapsed * workers)),
                )
    results: List[Union[SimulationResult, FailedJob]] = []
    failures: List[FailedJob] = []
    for job, (result, failure, _) in zip(jobs, outcomes):
        if failure is None:
            results.append(result)
            continue
        failed = FailedJob(
            job=job, error=failure["error"], traceback=failure["traceback"]
        )
        telemetry.count("parallel.job_failures")
        failures.append(failed)
        results.append(failed)
    if failures and on_error == "raise":
        raise SweepError(failures, total=len(jobs))
    return results


def parallel_delay_sweep(
    pattern: str,
    n: int = 32,
    loads: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    num_slots: int = 50_000,
    switches: Sequence[str] = PAPER_SWITCHES,
    seed: int = 0,
    max_workers: Optional[int] = None,
    engine: str = "object",
    store: Union[None, str, ExperimentStore] = None,
    on_error: str = "raise",
) -> List[Union[SimulationResult, FailedJob]]:
    """Parallel version of :func:`repro.sim.experiment.delay_vs_load_sweep`.

    Produces the same results as the sequential sweep for the same seeds
    (verified in tests), in whatever wall-clock the pool allows.  Combine
    ``engine="vectorized"`` with the pool for the fastest paper-scale
    sweeps: vectorization removes the per-packet constant, the pool the
    per-configuration serialization.  ``pattern`` also accepts scenario
    designators (registry name or spec file), like the sequential sweep.
    ``on_error`` follows :func:`run_jobs`: ``"record"`` returns
    :class:`FailedJob` records for bad cells instead of raising.
    """
    pattern = resolve_pattern(pattern)  # raises with the known names
    if not isinstance(pattern, str):
        pattern = pattern.to_dict()  # jobs carry primitives only
    cache_dir = store_dir(store)
    jobs = []
    for load in loads:
        cell = cell_workload(pattern, n, load)
        jobs.extend(
            SweepJob(
                name, cell.get("matrix"), num_slots, seed, load, engine,
                scenario=cell.get("scenario"), n=n, store=cache_dir,
            )
            for name in switches
        )
    return run_jobs(jobs, max_workers=max_workers, on_error=on_error)
