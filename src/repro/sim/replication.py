"""Independent replications: the honest way to error-bar a simulation.

Batch means (``sim/stats.py``) error-bars a *single* run; independent
replications — the same configuration under ``R`` different seeds —
additionally capture run-to-run variability (placement randomness,
traffic randomness), which for Sprinklers is exactly where the §4
probability statements live.  This module runs replications and
summarizes any result metric across them with a Student-t confidence
interval.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from .. import telemetry
from ..store import coerce_store
from .experiment import execute, plan_run
from .metrics import SimulationResult
from .stats import t_quantile

__all__ = ["ReplicatedResult", "replicate"]


class ReplicatedResult(NamedTuple):
    """Cross-replication summary of one scalar metric."""

    metric: str
    mean: float
    half_width: float
    confidence: float
    replications: int
    values: tuple

    @property
    def interval(self) -> tuple:
        """The (low, high) confidence interval for the metric's mean."""
        return (self.mean - self.half_width, self.mean + self.half_width)


def replicate(
    switch_name: str,
    matrix: Optional[np.ndarray] = None,
    num_slots: int = 0,
    replications: int = 10,
    base_seed: int = 0,
    metric: Callable[[SimulationResult], float] = lambda r: r.mean_delay,
    metric_name: str = "mean_delay",
    confidence: float = 0.95,
    load_label: float = float("nan"),
    engine: Optional[str] = None,
    scenario=None,
    n: Optional[int] = None,
    load: Optional[float] = None,
    store=None,
    switch_params: Optional[dict] = None,
    batch_seeds: bool = False,
) -> ReplicatedResult:
    """Run ``replications`` independent seeds of one configuration.

    Seeds are ``base_seed .. base_seed + R - 1``; each seed independently
    redraws the placement *and* the traffic, so the interval covers both
    sources of randomness.  Each replication runs on the engine
    :func:`~repro.sim.experiment.plan_run` resolves — the batch engine
    wherever the kernels model the run: identical per-seed results, so
    identical intervals, at paper-scale speed.

    The workload is either an explicit ``matrix`` or a declarative
    ``scenario`` with ``n`` and ``load`` (see
    :func:`repro.sim.experiment.run_single`); ``store`` caches each
    seed's result, so re-running (or widening) a replication study only
    simulates seeds it has not seen.  ``switch_params`` replicates a
    parameterized switch (e.g. PF at a custom ``threshold``), threaded
    through every seed's plan and cache key.  The configuration is
    planned once in the caller (:func:`repro.sim.experiment.plan_run`),
    so an invalid one raises its ``ValueError`` here, before any seed
    runs.

    Each seed is one run, exactly as :func:`~repro.sim.experiment.
    run_single` with ``keep_samples=False`` would make it (a vectorized
    switch replays through its monolithic kernel).  ``batch_seeds`` is
    still accepted and selects nothing.  ``confidence`` must lie in the
    open interval (0, 1).

    >>> from repro.traffic.matrices import uniform_matrix
    >>> res = replicate("load-balanced", uniform_matrix(4, 0.5), 800,
    ...                 replications=3)
    >>> res.replications
    3
    """
    if replications < 2:
        raise ValueError("need at least 2 replications for an interval")
    if not 0.0 < confidence < 1.0:
        raise ValueError(
            f"confidence must be in the open interval (0, 1), got {confidence}"
        )
    # One plan validates and resolves the configuration once, up front;
    # every seed's run differs from it in the seed alone.
    first = plan_run(
        switch_name, matrix, num_slots, base_seed,
        # A scenario replication is always labeled with its target load.
        float("nan") if scenario is not None else load_label,
        keep_samples=False, engine=engine, scenario=scenario, n=n,
        load=load, switch_params=switch_params,
    )
    plans = [
        dataclasses.replace(first, seed=seed)
        for seed in range(base_seed, base_seed + replications)
    ]
    with telemetry.trace(
        "run.replicate",
        switch=first.subject,
        replications=replications,
        engine=first.engine,
    ):
        cache = coerce_store(store)
        results = [execute(plan, cache) for plan in plans]
    values = [float(metric(result)) for result in results]
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1)) / math.sqrt(replications)
    return ReplicatedResult(
        metric=metric_name,
        mean=mean,
        half_width=t_quantile(confidence, replications - 1) * stderr,
        confidence=confidence,
        replications=replications,
        values=tuple(values),
    )
