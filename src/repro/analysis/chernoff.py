"""Worst-case overload probability bounds (paper §4, Theorem 2 and Table 1).

The paper bounds the probability that the queue of packets from one input
port to one intermediate port receives arrival rate at least its service
rate 1/N, maximized over all admissible rate splits at total load ``rho``:

    sup_{|r| = rho} P(X(r) >= 1/N)
        <= inf_{theta > 0} exp(-theta/N) * sup_r E[exp(theta X(r))]
        <= inf_{theta > 0} exp(-theta/N)
           * (h(p*(theta alpha), theta alpha))^(N/2) * exp(theta rho / N)

with ``alpha = 1/N^2`` (the per-port load budget of Equation (1)),

    h(p, a)  = p e^{a(1-p)} + (1-p) e^{-ap}          (worst Bernoulli MGF)
    p*(a)    = (e^a - 1 - a) / (a e^a - a)           (its maximizer in p)

Substituting ``a = theta * alpha`` makes the exponent ``N * g(a)`` with
``g(a) = ln h(p*(a), a) / 2 - a (1 - rho)``; the bound is ``exp(N g(a*))``
minimized over ``a``.  Table 1 of the paper evaluates this for
N in {1024, 2048, 4096} and rho in {0.90 .. 0.97}.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from .stability import theorem1_threshold

__all__ = [
    "h_function",
    "p_star",
    "log_mgf_bound_per_port_pair",
    "overload_probability_bound",
    "log10_overload_probability_bound",
    "min_switch_size",
    "switch_wide_bound",
    "table1_rows",
    "PAPER_TABLE1",
]

#: The paper's Table 1, for paper-vs-measured comparison in EXPERIMENTS.md.
PAPER_TABLE1: Dict[Tuple[float, int], float] = {
    (0.90, 1024): 1.21e-18, (0.90, 2048): 1.14e-29, (0.90, 4096): 6.10e-30,
    (0.91, 1024): 3.06e-15, (0.91, 2048): 4.91e-29, (0.91, 4096): 7.10e-30,
    (0.92, 1024): 3.54e-12, (0.92, 2048): 1.26e-23, (0.92, 4096): 9.10e-30,
    (0.93, 1024): 1.76e-9, (0.93, 2048): 3.09e-18, (0.93, 4096): 1.58e-29,
    (0.94, 1024): 3.76e-7, (0.94, 2048): 1.42e-13, (0.94, 4096): 2.00e-26,
    (0.95, 1024): 3.50e-5, (0.95, 2048): 1.22e-9, (0.95, 4096): 1.48e-18,
    (0.96, 1024): 1.41e-3, (0.96, 2048): 1.99e-6, (0.96, 4096): 3.97e-12,
    (0.97, 1024): 2.50e-2, (0.97, 2048): 6.24e-4, (0.97, 4096): 3.90e-7,
}


def h_function(p: float, a: float) -> float:
    """``h(p, a) = p e^{a(1-p)} + (1-p) e^{-ap}`` (Theorem 2).

    The MGF at argument ``a`` of a centered Bernoulli(p) random variable;
    the worst case over the distributions arising in the proof.

    >>> h_function(0.0, 1.0)
    1.0
    >>> h_function(1.0, 1.0)
    1.0
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    return p * math.exp(a * (1.0 - p)) + (1.0 - p) * math.exp(-a * p)


def p_star(a: float) -> float:
    """The maximizer of ``h(., a)``: ``(e^a - 1 - a) / (a e^a - a)``.

    Tends to 1/2 as ``a -> 0`` (use the series to avoid 0/0) and decays
    toward 0 as ``a`` grows.

    >>> abs(p_star(1e-9) - 0.5) < 1e-6
    True
    """
    if a < 0:
        raise ValueError(f"a must be nonnegative, got {a}")
    if a < 1e-6:
        # Series: p* = 1/2 - a/12 + O(a^2)
        return 0.5 - a / 12.0
    ea = math.expm1(a)  # e^a - 1, stable for small a
    return (ea - a) / (a * (ea + 1.0) - a)


def log_mgf_bound_per_port_pair(a: float, rho: float, n: int) -> float:
    """``g(a) = ln h(p*(a), a) / 2 - a (1 - rho)``.

    The overload bound is ``exp(N * g(a))``; minimizing ``g`` over ``a > 0``
    gives the Chernoff-optimal exponent.
    """
    return 0.5 * math.log(h_function(p_star(a), a)) - a * (1.0 - rho)


def _optimal_exponent(rho: float, n: int) -> Tuple[float, float]:
    """Minimize ``g(a)`` on ``(1e-9, 100)``; return ``(a*, g(a*))``.

    Golden-section search to ``1e-10`` in ``a``.  ``g`` is convex, so
    unimodal: ``ln h(p*(a), a) = sup_p ln h(p, a)`` is a supremum of
    log-MGFs, each convex in ``a``, and ``-a (1 - rho)`` is linear.
    """

    def g(a: float) -> float:
        return log_mgf_bound_per_port_pair(a, rho, n)

    shrink = (math.sqrt(5.0) - 1.0) / 2.0  # the golden ratio's inverse
    lo, hi = 1e-9, 100.0
    while hi - lo > 1e-10:
        step = shrink * (hi - lo)
        if g(hi - step) <= g(lo + step):
            hi = lo + step
        else:
            lo = hi - step
    a = 0.5 * (lo + hi)
    return a, g(a)


def overload_probability_bound(rho: float, n: int) -> float:
    """Bound on ``P(one (input, intermediate) queue is overloaded)``.

    Returns 0 below the Theorem 1 threshold (overload is impossible there),
    and caps the Chernoff bound at 1 (it is a probability bound).

    >>> overload_probability_bound(0.5, 1024)
    0.0
    >>> 0 < overload_probability_bound(0.93, 2048) < 1e-15
    True
    """
    _validate(rho, n)
    if rho < theorem1_threshold(n):
        return 0.0
    _, g_min = _optimal_exponent(rho, n)
    return min(1.0, math.exp(n * g_min))


def log10_overload_probability_bound(rho: float, n: int) -> float:
    """``log10`` of the bound (usable when the bound underflows a float).

    Returns ``-inf`` below the Theorem 1 threshold.
    """
    _validate(rho, n)
    if rho < theorem1_threshold(n):
        return float("-inf")
    _, g_min = _optimal_exponent(rho, n)
    return min(0.0, n * g_min / math.log(10.0))


def switch_wide_bound(rho: float, n: int) -> float:
    """Union bound over all ``2 N^2`` queues of the switch (paper §4.1).

    There are N^2 input-side and N^2 output-side queues with identical
    marginal analyses.
    """
    return min(1.0, 2.0 * n * n * overload_probability_bound(rho, n))


def min_switch_size(
    rho: float, target: float, switch_wide: bool = True, max_n: int = 1 << 20
) -> Optional[int]:
    """Smallest power-of-two N whose overload bound is at most ``target``.

    The capacity-planning inverse of Table 1: "how large must the switch
    be so that, at load ``rho``, the (switch-wide by default) overload
    probability is below ``target``?"  Exploits the monotone-in-N decrease
    of the bound past the Theorem 1 regime; returns ``None`` if even
    ``max_n`` does not reach the target.

    >>> min_switch_size(0.95, 1e-6)
    4096
    """
    if target <= 0:
        raise ValueError("target must be positive")
    n = 2
    while n <= max_n:
        bound = switch_wide_bound(rho, n) if switch_wide else (
            overload_probability_bound(rho, n)
        )
        if bound <= target:
            return n
        n *= 2
    return None


def table1_rows(
    rhos: Sequence[float] = (0.90, 0.91, 0.92, 0.93, 0.94, 0.95, 0.96, 0.97),
    ns: Sequence[int] = (1024, 2048, 4096),
) -> List[Dict[str, float]]:
    """Recompute the paper's Table 1.

    Each row is ``{"rho": rho, "N=1024": bound, ...}`` matching the paper's
    layout (rows are loads, columns are switch sizes).
    """
    rows: List[Dict[str, float]] = []
    for rho in rhos:
        row: Dict[str, float] = {"rho": rho}
        for n in ns:
            row[f"N={n}"] = overload_probability_bound(rho, n)
        rows.append(row)
    return rows


def _validate(rho: float, n: int) -> None:
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"n must be a power of two >= 2, got {n}")
