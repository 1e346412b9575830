"""Empirical load-balance study: how loose are the Table 1 bounds?

The paper notes (§4.1) that "the actual overloading probabilities could be
orders of magnitude smaller" than the Chernoff bounds of Table 1.  This
module quantifies that remark — an extension of the paper's evaluation:

* :func:`empirical_overload_probability` Monte-Carlos the probability that
  *any* queue of a whole switch is overloaded under random OLS placement,
  for a configurable workload family;
* :func:`balance_profile` reports the distribution of the worst per-queue
  load (the quantity Theorem 2 bounds) across placements;
* :func:`bound_vs_empirical_rows` lines both up against
  :func:`repro.analysis.chernoff.overload_probability_bound` per load
  level, producing the "Table 1, empirical edition".

Workload families are supplied as callables ``(n, rho, rng) -> matrix`` so
the study runs on uniform, diagonal, or adversarial splits alike.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np

from ..core.interval_assignment import PlacementMode, StripeIntervalAssignment
from .chernoff import overload_probability_bound, switch_wide_bound

__all__ = [
    "balance_profile",
    "empirical_overload_probability",
    "bound_vs_empirical_rows",
]

# A string, so that importing this module does not load numpy.random.
MatrixFamily = Callable[[int, float, "np.random.Generator"], np.ndarray]


def balance_profile(
    matrix: np.ndarray,
    trials: int,
    rng: np.random.Generator,
    mode: str = PlacementMode.OLS,
) -> Dict[str, float]:
    """Distribution of the switch's worst queue load over random placements.

    Returns mean / p95 / max of ``max_queue_load`` and the fraction of
    placements with at least one overloaded queue.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    n = matrix.shape[0]
    worst_loads = np.empty(trials)
    overloaded = 0
    for t in range(trials):
        seed = int(rng.integers(0, 2**63 - 1))
        assignment = StripeIntervalAssignment(
            # repro: lint-ignore[RNG003] -- trial seed drawn from the caller's seeded rng
            matrix, rng=np.random.default_rng(seed), mode=mode
        )
        worst = assignment.max_queue_load()
        worst_loads[t] = worst
        if worst >= 1.0 / n:
            overloaded += 1
    return {
        "mean_worst_load": float(worst_loads.mean()),
        "p95_worst_load": float(np.percentile(worst_loads, 95)),
        "max_worst_load": float(worst_loads.max()),
        "overload_fraction": overloaded / trials,
        "service_rate": 1.0 / n,
    }


def empirical_overload_probability(
    family: MatrixFamily,
    n: int,
    rho: float,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """P(any queue overloaded) over random placements of a workload family.

    Each trial draws a fresh workload matrix *and* a fresh placement, so
    the estimate covers both sources of randomness.
    """
    hits = 0
    for _ in range(trials):
        matrix = family(n, rho, rng)
        seed = int(rng.integers(0, 2**63 - 1))
        assignment = StripeIntervalAssignment(
            # repro: lint-ignore[RNG003] -- trial seed drawn from the caller's seeded rng
            matrix, rng=np.random.default_rng(seed)
        )
        if assignment.max_queue_load() >= 1.0 / n:
            hits += 1
    return hits / trials


def bound_vs_empirical_rows(
    family: MatrixFamily,
    n: int,
    rhos: Sequence[float],
    trials: int,
    rng: np.random.Generator,
) -> List[Dict[str, float]]:
    """Per-load comparison: analytical bounds vs measured overload rates.

    The analytical columns bound a *single queue* and the whole switch
    (union over 2 N^2 queues); the empirical column measures the whole
    switch directly, so it should sit at or below the union bound — and
    in practice far below it.
    """
    rows: List[Dict[str, float]] = []
    for rho in rhos:
        rows.append(
            {
                "rho": rho,
                "per_queue_bound": overload_probability_bound(rho, n),
                "switch_wide_bound": switch_wide_bound(rho, n),
                "empirical_switch_wide": empirical_overload_probability(
                    family, n, rho, trials, rng
                ),
            }
        )
    return rows
