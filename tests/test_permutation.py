"""Unit tests for permutation utilities (core/permutation.py)."""

import numpy as np
import pytest

from repro.core.permutation import (
    compose_permutations,
    durstenfeld_shuffle,
    inverse_permutation,
    is_permutation,
    random_permutation,
)


class TestIsPermutation:
    def test_valid(self):
        assert is_permutation([0])
        assert is_permutation([2, 0, 1])
        assert is_permutation(list(range(100)))

    def test_invalid(self):
        assert not is_permutation([0, 0])
        assert not is_permutation([1, 2])
        assert not is_permutation([-1, 0])
        assert not is_permutation([0, 2])


class TestRandomPermutation:
    def test_is_permutation(self, rng):
        for n in (1, 2, 5, 64):
            assert is_permutation(random_permutation(n, rng))

    def test_deterministic_for_seed(self):
        a = random_permutation(32, np.random.default_rng(5))
        b = random_permutation(32, np.random.default_rng(5))
        assert a == b

    def test_rejects_nonpositive(self, rng):
        with pytest.raises(ValueError):
            random_permutation(0, rng)

    def test_uniformity_chi_square(self, rng):
        # Each of the 3! = 6 permutations of 3 elements should appear about
        # equally often.  Chi-square with 5 dof: crit ~ 20 at p ~ 0.999.
        counts = {}
        trials = 6000
        for _ in range(trials):
            p = tuple(random_permutation(3, rng))
            counts[p] = counts.get(p, 0) + 1
        assert len(counts) == 6
        expected = trials / 6
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 20.0

    def test_positions_marginally_uniform(self, rng):
        # P(perm[0] == v) should be ~ 1/n for each v.
        n = 8
        trials = 8000
        counts = np.zeros(n)
        for _ in range(trials):
            counts[random_permutation(n, rng)[0]] += 1
        expected = trials / n
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 30.0  # 7 dof


class TestShuffleAndHelpers:
    def test_durstenfeld_preserves_elements(self, rng):
        items = list("abcdefgh")
        shuffled = durstenfeld_shuffle(items[:], rng)
        assert sorted(shuffled) == sorted(items)

    def test_inverse(self):
        perm = [2, 0, 3, 1]
        inv = inverse_permutation(perm)
        assert compose_permutations(perm, inv) == [0, 1, 2, 3]
        assert compose_permutations(inv, perm) == [0, 1, 2, 3]

    def test_inverse_random(self, rng):
        perm = random_permutation(32, rng)
        assert compose_permutations(perm, inverse_permutation(perm)) == list(
            range(32)
        )

    def test_identity_is_neutral_for_compose(self, rng):
        perm = random_permutation(16, rng)
        identity = list(range(16))
        assert compose_permutations(perm, identity) == perm
        assert compose_permutations(identity, perm) == perm
        assert inverse_permutation(identity) == identity

    def test_compose_is_associative(self, rng):
        a, b, c = (random_permutation(12, rng) for _ in range(3))
        assert compose_permutations(
            compose_permutations(a, b), c
        ) == compose_permutations(a, compose_permutations(b, c))

    def test_inverse_of_cyclic_shift_shifts_back(self):
        # The fabric patterns are cyclic shifts: i -> (i + k) mod n is
        # undone by i -> (i - k) mod n.
        n = 9
        for k in range(n):
            shift = [(i + k) % n for i in range(n)]
            assert is_permutation(shift)
            assert inverse_permutation(shift) == [(i - k) % n for i in range(n)]

    def test_durstenfeld_short_lists_draw_nothing(self, rng):
        # A list of length 0 or 1 has one ordering: no randomness is used.
        before = rng.bit_generator.state
        assert durstenfeld_shuffle([], rng) == []
        assert durstenfeld_shuffle(["x"], rng) == ["x"]
        assert rng.bit_generator.state == before

    def test_durstenfeld_shuffles_in_place(self, rng):
        items = list(range(10))
        assert durstenfeld_shuffle(items, rng) is items

    def test_compose_length_mismatch(self):
        with pytest.raises(ValueError):
            compose_permutations([0, 1], [0])
