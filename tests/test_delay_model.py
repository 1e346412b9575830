"""Tests for the §5 intermediate-stage delay model (analysis/delay_model.py)."""

import numpy as np
import pytest

from repro.analysis.delay_model import (
    expected_queue_length,
    expected_queue_length_numeric,
    fig5_series,
    simulate_chain,
    stationary_distribution,
)


class TestClosedForm:
    def test_formula(self):
        # rho (N-1) / (2 (1 - rho))
        assert expected_queue_length(1000, 0.9) == pytest.approx(4495.5)
        assert expected_queue_length(1, 0.5) == 0.0

    def test_linear_in_n(self):
        # The paper's Figure 5 observation.
        e1 = expected_queue_length(100, 0.9)
        e2 = expected_queue_length(200, 0.9)
        e4 = expected_queue_length(400, 0.9)
        assert (e2 / e1) == pytest.approx(199 / 99)
        assert (e4 / e2) == pytest.approx(399 / 199)

    def test_diverges_as_rho_to_one(self):
        assert expected_queue_length(64, 0.99) > 10 * expected_queue_length(64, 0.9)

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_queue_length(0, 0.5)
        with pytest.raises(ValueError):
            expected_queue_length(8, 1.0)


class TestStationarySolve:
    @pytest.mark.parametrize(
        "n,rho", [(4, 0.5), (8, 0.9), (16, 0.8), (32, 0.6), (64, 0.9)]
    )
    def test_numeric_matches_closed_form(self, n, rho):
        numeric = expected_queue_length_numeric(n, rho)
        closed = expected_queue_length(n, rho)
        assert numeric == pytest.approx(closed, rel=0.02)

    def test_distribution_normalized_and_nonnegative(self):
        pi = stationary_distribution(8, 0.8)
        assert pi.sum() == pytest.approx(1.0)
        assert (pi >= 0).all()

    def test_mass_near_origin_at_light_load(self):
        pi = stationary_distribution(8, 0.1)
        assert pi[0] > 0.8

    def test_truncation_override(self):
        pi = stationary_distribution(4, 0.5, truncation=200)
        assert len(pi) == 200


class TestChainSimulation:
    def test_matches_closed_form(self):
        n, rho = 8, 0.7
        mc = simulate_chain(n, rho, cycles=400_000, rng=np.random.default_rng(0))
        assert mc == pytest.approx(expected_queue_length(n, rho), rel=0.15)

    def test_empty_at_zero_load(self):
        assert simulate_chain(8, 0.0, 1000, np.random.default_rng(0)) == 0.0


class TestFig5Series:
    def test_default_series(self):
        rows = fig5_series()
        assert [row["N"] for row in rows] == [8, 16, 32, 64, 128, 256, 512, 1024]
        delays = [row["delay_periods"] for row in rows]
        assert delays == sorted(delays)

    def test_custom(self):
        rows = fig5_series(ns=(10, 20), rho=0.5)
        assert rows[0]["delay_periods"] == pytest.approx(0.5 * 9 / (2 * 0.5))
