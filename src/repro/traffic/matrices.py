"""Traffic matrices (destination distributions) for switch workloads.

A traffic matrix ``T`` is an ``N x N`` nonnegative matrix where ``T[i][j]``
is the arrival rate (packets per slot) of the VOQ at input ``i`` destined to
output ``j``.  *Admissible* traffic (the regime in which the paper's
guarantees hold) has every row sum and every column sum at most 1: no input
or output line is oversubscribed.

The paper's §6 evaluates two patterns at ``N = 32``:

* **uniform** — each arrival picks its output uniformly;
* **diagonal** (the figure is titled "Quasi-Diagonal") — an arrival at input
  ``i`` goes to output ``i`` with probability 1/2 and to each other output
  with probability ``1/(2(N-1))``.

Additional standard patterns (hot-spot, log-normal, permutation) are
included for wider experimentation; all are exercised by tests.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = [
    "uniform_matrix",
    "diagonal_matrix",
    "quasi_diagonal_matrix",
    "hotspot_matrix",
    "lognormal_matrix",
    "permutation_matrix",
    "is_admissible",
    "scale_to_load",
    "row_loads",
    "column_loads",
    "validate_matrix",
]


def validate_matrix(matrix: np.ndarray) -> np.ndarray:
    """Check shape, finiteness and nonnegativity; return a float array."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"traffic matrix must be square, got {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("traffic matrix entries must be finite")
    if np.any(matrix < 0):
        raise ValueError("traffic matrix entries must be nonnegative")
    return matrix


def row_loads(matrix: np.ndarray) -> np.ndarray:
    """Per-input total arrival rates (row sums)."""
    return validate_matrix(matrix).sum(axis=1)


def column_loads(matrix: np.ndarray) -> np.ndarray:
    """Per-output total arrival rates (column sums)."""
    return validate_matrix(matrix).sum(axis=0)


def is_admissible(matrix: np.ndarray, tolerance: float = 1e-9) -> bool:
    """Whether no input or output line is oversubscribed.

    >>> is_admissible(uniform_matrix(4, 0.9))
    True
    >>> is_admissible(uniform_matrix(4, 1.2))
    False
    """
    matrix = validate_matrix(matrix)
    return bool(
        matrix.sum(axis=1).max(initial=0.0) <= 1.0 + tolerance
        and matrix.sum(axis=0).max(initial=0.0) <= 1.0 + tolerance
    )


def scale_to_load(matrix: np.ndarray, load: float) -> np.ndarray:
    """Rescale so the maximum row/column sum equals ``load``.

    Useful for driving an arbitrary-shape matrix at a chosen utilization.
    """
    matrix = validate_matrix(matrix)
    if load < 0:
        raise ValueError("load must be nonnegative")
    peak = max(matrix.sum(axis=1).max(), matrix.sum(axis=0).max())
    if peak == 0:
        raise ValueError("cannot scale an all-zero matrix")
    return matrix * (load / peak)


def uniform_matrix(n: int, load: float) -> np.ndarray:
    """Uniform traffic: every VOQ has rate ``load / n`` (paper §6, Fig. 6).

    >>> float(uniform_matrix(4, 0.8).sum(axis=1)[0])
    0.8
    """
    _check_n_load(n, load)
    return np.full((n, n), load / n)


def diagonal_matrix(n: int, load: float) -> np.ndarray:
    """The paper's diagonal pattern (§6, Fig. 7).

    A packet arriving at input ``i`` goes to output ``i`` with probability
    1/2, and to each of the other ``n - 1`` outputs with probability
    ``1/(2(n-1))``.

    >>> m = diagonal_matrix(4, 0.9)
    >>> bool(np.isclose(m[0, 0], 0.45))
    True
    """
    _check_n_load(n, load)
    if n < 2:
        raise ValueError("diagonal pattern needs n >= 2")
    off = load / (2.0 * (n - 1))
    matrix = np.full((n, n), off)
    np.fill_diagonal(matrix, load / 2.0)
    return matrix


def quasi_diagonal_matrix(n: int, load: float) -> np.ndarray:
    """A harsher diagonal variant: geometric decay away from the diagonal.

    ``T[i][(i + k) mod n]`` is proportional to ``2^-k``; commonly used in
    the switching literature as an unbalanced stress pattern.
    """
    _check_n_load(n, load)
    weights = np.array([2.0 ** (-k) for k in range(n)])
    weights /= weights.sum()
    matrix = np.empty((n, n))
    for i in range(n):
        matrix[i] = load * np.roll(weights, i)
    return matrix


def hotspot_matrix(n: int, load: float, hotspot_fraction: float = 0.5) -> np.ndarray:
    """One output (port 0) draws ``hotspot_fraction`` of every input's traffic.

    Each input sends ``load`` in total: ``load * hotspot_fraction`` to the
    hot output, the rest spread uniformly over the other outputs.  The hot
    column then sums to ``n * load * hotspot_fraction``, so the matrix is
    only admissible when that product is at most 1 --- callers should check
    :func:`is_admissible` before simulating.
    """
    _check_n_load(n, load)
    if not 0.0 <= hotspot_fraction <= 1.0:
        raise ValueError("hotspot_fraction must be in [0, 1]")
    matrix = np.full((n, n), load * (1.0 - hotspot_fraction) / max(n - 1, 1))
    matrix[:, 0] = load * hotspot_fraction
    return matrix


def lognormal_matrix(
    n: int, load: float, sigma: float, rng: np.random.Generator
) -> np.ndarray:
    """Random skewed matrix: iid log-normal weights, rescaled to ``load``.

    Produces heterogeneous VOQ rates — exactly the situation variable-size
    striping is designed for.  The result has maximum row/column sum equal
    to ``load`` (hence admissible for ``load <= 1``).
    """
    _check_n_load(n, load)
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    weights = rng.lognormal(mean=0.0, sigma=sigma, size=(n, n))
    return scale_to_load(weights, load)


def permutation_matrix(
    n: int, load: float, perm: Optional[Sequence[int]] = None
) -> np.ndarray:
    """All of input ``i``'s traffic goes to output ``perm[i]``.

    The most concentrated admissible pattern; the stress case for striping
    since each input has a single rate-``load`` VOQ.
    """
    _check_n_load(n, load)
    if perm is None:
        perm = list(range(n))
    matrix = np.zeros((n, n))
    for i, j in enumerate(perm):
        matrix[i][j] = load
    return matrix


def _check_n_load(n: int, load: float) -> None:
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if load < 0:
        raise ValueError(f"load must be nonnegative, got {load}")
