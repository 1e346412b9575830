"""Unit tests for Latin-square generation (core/latin.py)."""

import numpy as np
import pytest

from repro.core.latin import (
    circulant_ols,
    is_latin_square,
    weakly_uniform_ols,
)


class TestIsLatinSquare:
    def test_accepts_circulant(self):
        for n in (2, 4, 8):
            assert is_latin_square(circulant_ols(n))

    def test_rejects_repeated_row_entry(self):
        assert not is_latin_square([[0, 0], [1, 1]])

    def test_rejects_repeated_column_entry(self):
        assert not is_latin_square([[0, 1], [0, 1]])

    def test_rejects_ragged(self):
        assert not is_latin_square([[0, 1], [1]])

    def test_rejects_symbols_out_of_range(self):
        # Rows and columns all distinct, but the symbols are not 0..n-1.
        assert not is_latin_square([[0, 2], [2, 0]])
        assert not is_latin_square([[1, 2], [2, 1]])

    def test_rejects_non_square(self):
        assert not is_latin_square([[0, 1, 2], [1, 2, 0]])


class TestCirculantOls:
    def test_entries(self):
        n = 5
        square = circulant_ols(n)
        assert square[0] == list(range(n))
        for i in range(n):
            for j in range(n):
                assert square[i][j] == (i + j) % n


class TestWeaklyUniformOls:
    def test_is_latin_square(self, rng):
        for n in (2, 4, 8, 32):
            assert is_latin_square(weakly_uniform_ols(n, rng))

    def test_many_samples_latin_at_odd_orders(self, rng):
        for n in (1, 3, 5, 6, 7):
            for _ in range(20):
                assert is_latin_square(weakly_uniform_ols(n, rng))

    def test_order_one(self, rng):
        assert weakly_uniform_ols(1, rng) == [[0]]

    def test_rejects_nonpositive_order(self, rng):
        with pytest.raises(ValueError):
            weakly_uniform_ols(0, rng)

    def test_reaches_every_square_of_its_family(self, rng):
        # A square fixes sigma_R and sigma_C up to one shared cyclic
        # offset, so the construction has (n!)^2 / n outcomes: 144 at
        # n = 4.  A uniform draw reaches all of them.
        seen = {
            tuple(map(tuple, weakly_uniform_ols(4, rng))) for _ in range(3000)
        }
        assert len(seen) == 144

    def test_deterministic_for_seed(self):
        a = weakly_uniform_ols(16, np.random.default_rng(3))
        b = weakly_uniform_ols(16, np.random.default_rng(3))
        assert a == b

    def test_rows_and_columns_are_permutations(self, rng):
        square = weakly_uniform_ols(8, rng)
        for row in square:
            assert sorted(row) == list(range(8))
        for col in zip(*square):
            assert sorted(col) == list(range(8))

    def test_marginal_uniformity_of_cells(self, rng):
        # Weak uniformity: each cell value should be uniform over 0..n-1
        # across independent draws (the property section 4 relies on).
        n = 4
        trials = 4000
        counts = np.zeros((n, n, n))
        for _ in range(trials):
            square = weakly_uniform_ols(n, rng)
            for i in range(n):
                for j in range(n):
                    counts[i][j][square[i][j]] += 1
        expected = trials / n
        worst_chi2 = 0.0
        for i in range(n):
            for j in range(n):
                chi2 = float(((counts[i][j] - expected) ** 2 / expected).sum())
                worst_chi2 = max(worst_chi2, chi2)
        # 3 dof per cell; 16 cells; generous bound to keep flake-free.
        assert worst_chi2 < 30.0

    def test_structure_row_shifts(self, rng):
        # A[i][j] = (sR[i] + sC[j]) mod n: any two rows differ by a
        # constant cyclic shift.
        square = weakly_uniform_ols(8, rng)
        delta = (square[1][0] - square[0][0]) % 8
        for j in range(8):
            assert (square[1][j] - square[0][j]) % 8 == delta
