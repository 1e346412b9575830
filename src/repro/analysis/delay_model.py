"""Expected delay at the intermediate stage (paper §5, Figure 5).

The paper models the queue at an intermediate station under worst-case
burstiness: per *cycle* (N slots), the arrival is a Bernoulli batch — N
packets with probability ``rho / N``, none otherwise — and the service is
one packet per cycle.  The queue length embedded at cycle boundaries is the
Markov chain

    Q' = max(Q + A - 1, 0),    A = N w.p. rho/N, else 0.

(The paper's transition table swaps the two probabilities; a batch with
probability ``1 - rho/N`` drifts the queue up by ``N - rho - 1`` per cycle,
so that chain is transient, and we implement the consistent version.)  The
paper plots the expected queue length (equivalently, the expected clearance
duration in cycles) against N at ``rho = 0.9``; it grows linearly in N.

Three independent evaluations are provided, cross-checked in tests:

* a closed form from the standard drift/square argument:
  ``E[Q] = rho (N - 1) / (2 (1 - rho))``;
* an exact truncated stationary solve (level-cut recursion);
* direct Monte-Carlo simulation of the chain.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = [
    "expected_queue_length",
    "stationary_distribution",
    "expected_queue_length_numeric",
    "simulate_chain",
    "fig5_series",
]


def expected_queue_length(n: int, rho: float) -> float:
    """Closed-form ``E[Q] = rho (N-1) / (2 (1 - rho))`` packets (== cycles).

    Derivation: with ``Q' = Q + A - 1 + U`` (``U`` the wasted service
    indicator), stationarity of ``E[Q]`` gives ``E[U] = 1 - rho``; squaring
    and using independence of ``A`` from ``Q`` gives
    ``E[Q] = (E[A^2] - rho) / (2 (1 - rho))`` with ``E[A^2] = N rho``.

    >>> expected_queue_length(1, 0.5)
    0.0
    """
    _validate(n, rho)
    return rho * (n - 1) / (2.0 * (1.0 - rho))


def stationary_distribution(
    n: int, rho: float, truncation: Optional[int] = None
) -> np.ndarray:
    """Stationary law of the cycle-embedded queue, truncated to ``K`` states.

    The truncation reflects overflow mass into the top state; ``K`` defaults
    to a generous multiple of the closed-form mean so the truncation error
    is negligible (tests compare the numeric mean to the closed form).
    """
    _validate(n, rho)
    if truncation is None:
        truncation = int(40 * (expected_queue_length(n, rho) + 1)) + 4 * n
    if truncation < 1:
        raise ValueError(f"truncation must be at least 1, got {truncation}")
    # Level-cut balance: the only move from level m+1 down across the cut
    # below it is a service step, the only moves up are batches from the
    # last n-1 levels, so (1 - p) pi[m+1] = p * sum(pi[max(0, m-n+2)..m]).
    # A batch reflected into the top state still crosses every cut below
    # it, so the truncation changes none of these equations.
    p = rho / n
    ratio = p / (1.0 - p)
    pi = [1.0]
    window = 0.0
    for m in range(truncation - 1):
        window += pi[m]
        if m >= n - 1:
            window -= pi[m - n + 1]
        pi.append(ratio * window)
    # The running sum's rounding leaves a +-eps floor far out in the tail.
    law = np.clip(np.array(pi), 0.0, None)
    return law / law.sum()


def expected_queue_length_numeric(
    n: int, rho: float, truncation: Optional[int] = None
) -> float:
    """Mean of the truncated stationary distribution."""
    pi = stationary_distribution(n, rho, truncation)
    return float(np.arange(len(pi)) @ pi)


def simulate_chain(
    n: int,
    rho: float,
    cycles: int,
    rng: np.random.Generator,
    warmup: Optional[int] = None,
) -> float:
    """Monte-Carlo mean queue length over ``cycles`` embedded steps."""
    _validate(n, rho)
    if warmup is None:
        warmup = cycles // 10
    p = rho / n
    arrivals = (rng.random(warmup + cycles) < p) * n
    q = 0
    total = 0
    for t, a in enumerate(arrivals):
        q = max(q + int(a) - 1, 0)
        if t >= warmup:
            total += q
    return total / cycles


def fig5_series(
    ns: Sequence[int] = (8, 16, 32, 64, 128, 256, 512, 1024),
    rho: float = 0.9,
) -> List[Dict[str, float]]:
    """The Figure 5 series: expected delay (cycles) vs switch size at rho.

    Uses the closed form (exact for the untruncated chain); the paper's
    plotted points at rho = 0.9 lie on the same ~N/2 * rho/(1-rho) line.
    """
    return [
        {"N": float(n), "delay_periods": expected_queue_length(n, rho)}
        for n in ns
    ]


def _validate(n: int, rho: float) -> None:
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must be in [0, 1), got {rho}")
