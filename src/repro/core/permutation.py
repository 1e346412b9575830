"""Uniform random permutations and permutation utilities.

The Sprinklers interval-generation step (paper §3.3) maps the N VOQs of an
input port to N distinct primary intermediate ports via a permutation drawn
uniformly at random from all N! permutations.  The classic Durstenfeld
implementation of the Fisher-Yates shuffle (the paper's reference [7]) does
this in O(N) time from O(N log N) random bits.

Permutations are represented as lists/arrays ``p`` of length N containing
each of ``0..N-1`` exactly once, with ``p[i]`` the image of ``i``.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = [
    "random_permutation",
    "durstenfeld_shuffle",
    "inverse_permutation",
    "compose_permutations",
    "is_permutation",
]


def durstenfeld_shuffle(items: List, rng: np.random.Generator) -> List:
    """In-place Durstenfeld (Fisher-Yates) shuffle; returns ``items``.

    Each of the ``len(items)!`` orderings is equally likely when ``rng``
    produces uniform integers.
    """
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        items[i], items[j] = items[j], items[i]
    return items


def random_permutation(n: int, rng: np.random.Generator) -> List[int]:
    """A uniformly random permutation of ``0..n-1``.

    >>> import numpy as np
    >>> sorted(random_permutation(8, np.random.default_rng(0))) == list(range(8))
    True
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return durstenfeld_shuffle(list(range(n)), rng)


def is_permutation(values: Sequence[int]) -> bool:
    """Whether ``values`` is a permutation of ``0..len(values)-1``.

    >>> is_permutation([2, 0, 1])
    True
    >>> is_permutation([0, 0, 2])
    False
    """
    n = len(values)
    seen = bytearray(n)
    for v in values:
        if not 0 <= v < n or seen[v]:
            return False
        seen[v] = 1
    return True


def inverse_permutation(perm: Sequence[int]) -> List[int]:
    """The inverse permutation: ``inv[perm[i]] == i``.

    >>> inverse_permutation([2, 0, 1])
    [1, 2, 0]
    """
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v] = i
    return inv


def compose_permutations(outer: Sequence[int], inner: Sequence[int]) -> List[int]:
    """The composition ``i -> outer[inner[i]]``.

    >>> compose_permutations([1, 2, 0], [2, 0, 1])
    [0, 1, 2]
    """
    if len(outer) != len(inner):
        raise ValueError("permutations must have equal length")
    return [outer[v] for v in inner]
