"""Unit tests for traffic matrices (traffic/matrices.py)."""

import numpy as np
import pytest

from repro.traffic.matrices import (
    column_loads,
    diagonal_matrix,
    hotspot_matrix,
    is_admissible,
    lognormal_matrix,
    permutation_matrix,
    quasi_diagonal_matrix,
    row_loads,
    scale_to_load,
    uniform_matrix,
    validate_matrix,
)


class TestUniform:
    def test_row_and_column_loads(self):
        m = uniform_matrix(8, 0.8)
        assert np.allclose(row_loads(m), 0.8)
        assert np.allclose(column_loads(m), 0.8)

    def test_admissible_up_to_one(self):
        assert is_admissible(uniform_matrix(8, 1.0))
        assert not is_admissible(uniform_matrix(8, 1.01))


class TestDiagonal:
    def test_paper_definition(self):
        # P(j = i) = 1/2, others 1/(2(N-1)), scaled by load.
        n, load = 8, 0.9
        m = diagonal_matrix(n, load)
        assert np.allclose(np.diag(m), load / 2)
        off = m[0][1]
        assert np.isclose(off, load / (2 * (n - 1)))
        assert np.allclose(row_loads(m), load)
        assert np.allclose(column_loads(m), load)

    def test_needs_two_ports(self):
        with pytest.raises(ValueError):
            diagonal_matrix(1, 0.5)


class TestQuasiDiagonal:
    def test_loads_and_decay(self):
        m = quasi_diagonal_matrix(8, 0.8)
        assert np.allclose(row_loads(m), 0.8)
        assert np.allclose(column_loads(m), 0.8)
        # Strictly decaying away from the diagonal (first few steps).
        assert m[0][0] > m[0][1] > m[0][2]


class TestHotspot:
    def test_hot_column(self):
        m = hotspot_matrix(8, 0.4, hotspot_fraction=0.5)
        assert np.allclose(row_loads(m), 0.4)
        assert column_loads(m)[0] == pytest.approx(8 * 0.4 * 0.5)

    def test_admissibility_boundary(self):
        n = 8
        assert is_admissible(hotspot_matrix(n, 1.0 / (n * 0.5), 0.5))
        assert not is_admissible(hotspot_matrix(n, 0.5, 0.5))

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            hotspot_matrix(8, 0.5, hotspot_fraction=1.5)


class TestLognormal:
    def test_scaled_to_load(self, rng):
        m = lognormal_matrix(8, 0.9, sigma=1.0, rng=rng)
        peak = max(row_loads(m).max(), column_loads(m).max())
        assert np.isclose(peak, 0.9)
        assert is_admissible(m)

    def test_sigma_zero_is_uniformish(self, rng):
        m = lognormal_matrix(8, 0.8, sigma=0.0, rng=rng)
        assert np.allclose(m, m[0][0])

    def test_sigma_validated(self, rng):
        with pytest.raises(ValueError):
            lognormal_matrix(8, 0.8, sigma=-1.0, rng=rng)


class TestPermutation:
    def test_default_identity(self):
        m = permutation_matrix(4, 0.9)
        assert np.allclose(np.diag(m), 0.9)
        assert m.sum() == pytest.approx(4 * 0.9)

    def test_custom_permutation(self):
        m = permutation_matrix(4, 0.5, perm=[1, 0, 3, 2])
        assert m[0][1] == 0.5
        assert m[0][0] == 0.0
        assert is_admissible(m)


class TestHelpers:
    def test_scale_to_load(self):
        m = scale_to_load(np.ones((4, 4)), 0.6)
        assert row_loads(m).max() == pytest.approx(0.6)

    def test_scale_rejects_zero_matrix(self):
        with pytest.raises(ValueError):
            scale_to_load(np.zeros((4, 4)), 0.5)

    def test_validate_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            validate_matrix(np.ones((2, 3)))

    def test_validate_rejects_negative(self):
        with pytest.raises(ValueError):
            validate_matrix(np.array([[-0.1]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_validate_rejects_non_finite(self, bad):
        matrix = uniform_matrix(4, 0.8)
        matrix[1, 2] = bad
        with pytest.raises(ValueError, match="must be finite"):
            validate_matrix(matrix)
