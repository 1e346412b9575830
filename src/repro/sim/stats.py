"""Simulation output analysis: warm-up detection and confidence intervals.

Steady-state delay estimation from a single run needs two pieces of
methodology the raw metrics don't provide:

* **warm-up truncation** — MSER (Minimum Standard Error Rule), the
  standard automated pick of how much initial transient to discard;
* **batch means** — grouping the correlated post-warm-up samples into
  batches whose means are approximately independent, yielding an honest
  confidence interval for the steady-state mean.

These operate on plain sequences of per-packet delays (or any stationary
series), so they apply to every switch in the library.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "MIN_MSER_TAIL",
    "mser_truncation",
    "batch_means",
    "BatchMeansResult",
    "t_quantile",
]


class BatchMeansResult(NamedTuple):
    """Steady-state mean estimate with a confidence interval."""

    mean: float
    half_width: float
    confidence: float
    batches: int
    batch_size: int

    @property
    def interval(self) -> tuple:
        """The (low, high) confidence interval."""
        return (self.mean - self.half_width, self.mean + self.half_width)

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval."""
        low, high = self.interval
        return low <= value <= high


#: Smallest tail a candidate MSER truncation may leave.  A near-empty
#: tail has a degenerate standard error (a 1-sample tail scores 0), so
#: without a floor ``max_fraction`` close to 1 discards nearly the whole
#: series; the MSER-5 literature's batch floor serves the same purpose.
MIN_MSER_TAIL = 5


def mser_truncation(series: Sequence[float], max_fraction: float = 0.5) -> int:
    """MSER warm-up point: the truncation minimizing the standard error.

    Scans candidate truncation points ``d`` and returns the ``d`` (at most
    ``max_fraction`` of the series, and always leaving a tail of at least
    :data:`MIN_MSER_TAIL` samples) minimizing
    ``std(series[d:]) / sqrt(len - d)``.  Classic MSER evaluates every
    prefix; we scan on a stride for long series (the optimum is flat).

    >>> series = [100.0] * 20 + [10.0] * 200
    >>> 15 <= mser_truncation(series) <= 25
    True
    """
    values = np.asarray(series, dtype=float)
    if values.size < 4:
        return 0
    limit = min(int(values.size * max_fraction), values.size - MIN_MSER_TAIL)
    if limit < 0:
        return 0
    stride = max(1, limit // 256)
    best_d, best_score = 0, math.inf
    for d in range(0, limit + 1, stride):
        tail = values[d:]
        score = float(tail.std()) / math.sqrt(tail.size)
        if score < best_score:
            best_d, best_score = d, score
    return best_d


def batch_means(
    series: Sequence[float],
    batches: int = 20,
    confidence: float = 0.95,
) -> BatchMeansResult:
    """Batch-means confidence interval for the steady-state mean.

    Splits the series into ``batches`` equal contiguous batches, treats
    the batch means as i.i.d. normal, and applies the Student-t interval.
    Callers should truncate warm-up first (:func:`mser_truncation`).
    """
    values = np.asarray(series, dtype=float)
    if batches < 2:
        raise ValueError("need at least 2 batches")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    if values.size < 2 * batches:
        raise ValueError(
            f"series of {values.size} too short for {batches} batches"
        )
    batch_size = values.size // batches
    trimmed = values[: batch_size * batches]
    means = trimmed.reshape(batches, batch_size).mean(axis=1)
    grand = float(means.mean())
    stderr = float(means.std(ddof=1)) / math.sqrt(batches)
    return BatchMeansResult(
        mean=grand,
        half_width=t_quantile(confidence, batches - 1) * stderr,
        confidence=confidence,
        batches=batches,
        batch_size=batch_size,
    )


def t_quantile(confidence: float, df: int) -> float:
    """The ``t`` with ``P(|T| <= t) = confidence``, ``T`` Student-t.

    Two-sided critical value at integer ``df >= 1``.  The t CDF of integer
    ``df`` is a finite sum in ``theta = atan(t / sqrt(df))`` (Abramowitz &
    Stegun 26.7.3-4); it rises with ``theta``, so bisect on ``theta`` until
    the midpoint stops moving.

    >>> round(t_quantile(0.95, 2), 6)
    4.302653
    """
    if df < 1:
        raise ValueError(f"df must be at least 1, got {df}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    lo, hi = 0.0, math.pi / 2.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _t_central_mass(mid, df) < confidence:
            lo = mid
        else:
            hi = mid
    return math.sqrt(df) * math.tan(mid)


def _t_central_mass(theta: float, df: int) -> float:
    """``P(|T| <= sqrt(df) tan(theta))`` at ``df`` degrees of freedom."""
    # Odd df: 2/pi (theta + sin cos (1 + 2/3 cos^2 + 2*4/(3*5) cos^4 ...)),
    # even df: sin (1 + 1/2 cos^2 + 1*3/(2*4) cos^4 ...), to cos^(df-3).
    cos2 = math.cos(theta) ** 2
    odd = df % 2
    term, total = 1.0, float(df > 1)
    for k in range(1 + odd, df - 1, 2):
        term *= cos2 * k / (k + 1)
        total += term
    if odd:
        return 2.0 / math.pi * (theta + math.sin(theta) * math.cos(theta) * total)
    return math.sin(theta) * total
