"""Discrete-time queueing utilities underpinning the delay analyses.

Generic building blocks, used by :mod:`repro.analysis.delay_model` cross-
checks and available to users analyzing their own configurations:

* :func:`lindley_waits` — exact waiting-time recursion for a single-server
  slotted queue with an arbitrary arrival/service trace;
* :class:`GeoGeo1` — the Geo/Geo/1 queue (Bernoulli arrivals, geometric
  service), the discrete M/M/1 analogue, with closed-form occupancy;
* :func:`batch_queue_mean` — mean queue length of the slotted batch-
  arrival queue ``Q' = max(Q + A - 1, 0)`` for a general i.i.d. batch
  distribution (the §5 model is the special case A in {0, N}).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["lindley_waits", "GeoGeo1", "batch_queue_mean"]


def lindley_waits(
    interarrivals: Sequence[float], services: Sequence[float]
) -> np.ndarray:
    """Waiting times by Lindley's recursion: ``W_{k+1} = (W_k + S_k - T_k)^+``.

    ``interarrivals[k]`` is the gap between customer ``k`` and ``k+1``;
    ``services[k]`` is customer ``k``'s service time.  Returns the waiting
    time of every customer (``W_0 = 0``).

    >>> lindley_waits([1, 1, 5], [2, 2, 2]).tolist()
    [0.0, 1.0, 2.0, 0.0]
    """
    interarrivals = np.asarray(interarrivals, dtype=float)
    services = np.asarray(services, dtype=float)
    if interarrivals.shape != services.shape:
        raise ValueError("need one interarrival per service")
    waits = np.zeros(len(services) + 1)
    for k in range(len(services)):
        waits[k + 1] = max(waits[k] + services[k] - interarrivals[k], 0.0)
    return waits


class GeoGeo1:
    """The Geo/Geo/1 queue: arrival prob ``p`` per slot, service prob ``s``.

    Stable iff ``p < s``.  The stationary queue length (including the
    customer in service, early-arrival convention) is geometric with
    parameter ``sigma = p (1 - s) / (s (1 - p))``:

        P(Q = 0) = 1 - p/s,    P(Q = k) = (p/s)(1 - sigma) sigma^(k-1).

    >>> q = GeoGeo1(0.3, 0.5)
    >>> q.utilization
    0.6
    """

    def __init__(self, p: float, s: float) -> None:
        if not 0.0 <= p <= 1.0 or not 0.0 < s <= 1.0:
            raise ValueError("p in [0,1], s in (0,1] required")
        if p >= s:
            raise ValueError(f"unstable: arrival {p} >= service {s}")
        self.p = p
        self.s = s

    @property
    def utilization(self) -> float:
        """Offered load ``rho = p / s``."""
        return self.p / self.s

    @property
    def sigma(self) -> float:
        """Geometric tail parameter of the queue length."""
        return self.p * (1.0 - self.s) / (self.s * (1.0 - self.p))

    def mean_queue_length(self) -> float:
        """``E[Q] = rho / (1 - sigma)`` from the geometric stationary law."""
        return self.utilization / (1.0 - self.sigma)

    def simulate_mean_queue(
        self, slots: int, rng: np.random.Generator, warmup: int = 0
    ) -> float:
        """Monte-Carlo mean queue length (cross-check for the closed form)."""
        q = 0
        total = 0
        arrivals = rng.random(slots) < self.p
        services = rng.random(slots) < self.s
        for t in range(slots):
            if q > 0 and services[t]:
                q -= 1
            if arrivals[t]:
                q += 1
            if t >= warmup:
                total += q
        return total / max(1, slots - warmup)


def batch_queue_mean(batch_pmf: Sequence[float]) -> float:
    """Mean queue of ``Q' = max(Q + A - 1, 0)`` for i.i.d. ``A ~ batch_pmf``.

    ``batch_pmf[k] = P(A = k)``; requires ``E[A] < 1``.  Derived from the
    square/stationarity argument (see delay_model):
    ``E[Q] = (E[A^2] - E[A]) / (2 (1 - E[A]))``.

    >>> round(batch_queue_mean([0.9, 0.0, 0.1]), 6)   # A in {0, 2}
    0.125
    """
    pmf = np.asarray(batch_pmf, dtype=float)
    if np.any(pmf < 0) or not np.isclose(pmf.sum(), 1.0):
        raise ValueError("batch_pmf must be a probability distribution")
    k = np.arange(len(pmf))
    mean = float((k * pmf).sum())
    second = float((k * k * pmf).sum())
    if mean >= 1.0:
        raise ValueError(f"unstable: E[A] = {mean} >= 1")
    return (second - mean) / (2.0 * (1.0 - mean))
