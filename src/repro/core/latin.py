"""Latin squares for coordinating stripe placements across input ports.

Paper §3.3.3: the N permutations mapping each input port's VOQs to primary
intermediate ports must *jointly* balance the output side as well — every
row **and** every column of the matrix ``A[i][j] = sigma_i(j)`` must be a
permutation of the port set.  Such a matrix is a Latin square (the paper
calls it an Orthogonal Latin Square, following its combinatorics reference;
we keep the paper's acronym OLS in API names for traceability).

The switch uses one construction, :func:`weakly_uniform_ols` — the paper's
O(N log N) ``A[i][j] = (sigma_R(i) + sigma_C(j)) mod N`` from two
independent uniform random permutations.  Every row and every column is
*marginally* a uniform random permutation, which is all the worst-case
analysis of §4 needs.  Sampling *strongly* uniform Latin squares is not
provided: exact sampling in polynomial time is the open problem the paper
cites, and its Markov-chain approximation (reference [8]) is not needed.
:func:`circulant_ols` is the deterministic no-randomization baseline.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .permutation import is_permutation, random_permutation

__all__ = [
    "weakly_uniform_ols",
    "circulant_ols",
    "is_latin_square",
]


def is_latin_square(square: Sequence[Sequence[int]]) -> bool:
    """Whether every row and every column is a permutation of ``0..N-1``.

    >>> is_latin_square([[0, 1], [1, 0]])
    True
    >>> is_latin_square([[0, 1], [0, 1]])
    False
    """
    n = len(square)
    if any(len(row) != n for row in square):
        return False
    for row in square:
        if not is_permutation(list(row)):
            return False
    for j in range(n):
        if not is_permutation([square[i][j] for i in range(n)]):
            return False
    return True


def circulant_ols(n: int) -> List[List[int]]:
    """The deterministic circulant Latin square ``A[i][j] = (i + j) mod n``.

    This is the weakly uniform construction with both permutations set to
    the identity; used as the no-randomization ablation baseline.
    """
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def weakly_uniform_ols(n: int, rng: np.random.Generator) -> List[List[int]]:
    """The paper's weakly uniform random OLS (§3.3.3).

    ``A[i][j] = (sigma_R(i) + sigma_C(j)) mod n`` where ``sigma_R`` and
    ``sigma_C`` are independent uniform random permutations.  Each row and
    each column of the result is marginally a uniform random permutation of
    ``0..n-1`` (the rows are *not* independent of one another — hence
    "weakly" uniform — but marginals are all §4 requires).

    >>> import numpy as np
    >>> is_latin_square(weakly_uniform_ols(8, np.random.default_rng(0)))
    True
    """
    sigma_r = random_permutation(n, rng)
    sigma_c = random_permutation(n, rng)
    return [[(sigma_r[i] + sigma_c[j]) % n for j in range(n)] for i in range(n)]

