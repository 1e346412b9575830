"""Tests for simulation output analysis (sim/stats.py)."""

import numpy as np
import pytest

from repro.sim.stats import batch_means, mser_truncation, t_quantile


class TestMser:
    def test_finds_obvious_transient(self, rng):
        series = [1000.0] * 50 + list(10 + rng.random(1000))
        cut = mser_truncation(series)
        assert 40 <= cut <= 120

    def test_stationary_series_keeps_everything(self, rng):
        series = list(5 + rng.random(1000))
        cut = mser_truncation(series)
        assert cut < 200  # no big truncation without a transient

    def test_tiny_series(self):
        assert mser_truncation([1.0, 2.0]) == 0

    def test_respects_max_fraction(self, rng):
        series = list(rng.random(100))
        assert mser_truncation(series, max_fraction=0.3) <= 30

    def test_degenerate_tail_not_selected(self, rng):
        """Regression: with max_fraction ~ 1, a near-empty tail has a
        degenerate score (a 1-sample tail's std is 0, so its standard
        error is 0) and the old scan discarded nearly the whole series.
        Candidates must leave at least MIN_MSER_TAIL samples."""
        from repro.sim.stats import MIN_MSER_TAIL

        # A slowly decreasing series: every longer truncation looks
        # (spuriously) better, so the scan runs into the tail cap.
        series = list(np.linspace(100.0, 0.0, 200))
        cut = mser_truncation(series, max_fraction=1.0)
        assert cut <= len(series) - MIN_MSER_TAIL
        # The stationary-tail property still holds with a transient.
        series = [1000.0] * 20 + [10.0] * 200
        cut = mser_truncation(series, max_fraction=1.0)
        assert 15 <= cut <= 40

    def test_short_series_with_full_fraction(self):
        # size 4 (the scan threshold): the tail floor must not underflow.
        assert mser_truncation([5.0, 4.0, 3.0, 2.0], max_fraction=1.0) == 0


class TestBatchMeans:
    def test_covers_true_mean_iid(self, rng):
        series = 7.0 + rng.standard_normal(4000)
        result = batch_means(series, batches=20)
        assert result.contains(7.0)
        assert result.half_width < 0.2

    def test_interval_narrows_with_data(self, rng):
        short = batch_means(5 + rng.standard_normal(400), batches=10)
        long = batch_means(5 + rng.standard_normal(40_000), batches=10)
        assert long.half_width < short.half_width

    def test_confidence_widens_interval(self, rng):
        series = rng.standard_normal(2000)
        narrow = batch_means(series, batches=20, confidence=0.9)
        wide = batch_means(series, batches=20, confidence=0.99)
        assert wide.half_width > narrow.half_width

    def test_interval_tuple(self, rng):
        result = batch_means(rng.standard_normal(400), batches=10)
        low, high = result.interval
        assert low < result.mean < high

    def test_contains_is_the_closed_interval(self, rng):
        result = batch_means(rng.standard_normal(400), batches=10)
        low, high = result.interval
        assert result.contains(low) and result.contains(high)
        assert not result.contains(high + 1e-9)
        assert not result.contains(low - 1e-9)

    def test_constant_series_has_zero_width(self):
        result = batch_means([3.0] * 200, batches=10)
        assert result.mean == 3.0
        assert result.half_width == 0.0
        assert result.contains(3.0)

    def test_trailing_remainder_is_dropped(self):
        # 105 samples in 10 batches: batch size 10, the last 5 unused.
        series = [1.0] * 100 + [1000.0] * 5
        result = batch_means(series, batches=10)
        assert result.batch_size == 10
        assert result.batches == 10
        assert result.mean == 1.0

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            batch_means([1.0] * 100, batches=1)
        with pytest.raises(ValueError):
            batch_means([1.0] * 10, batches=20)
        with pytest.raises(ValueError):
            batch_means([1.0] * 100, confidence=1.5)


class TestTQuantile:
    # scipy.stats.t.ppf(0.5 + confidence / 2, df), recorded once.
    REFERENCE = {
        1: (3.0776835371752544, 12.706204736174694, 63.656741162871526),
        2: (1.8856180831641272, 4.302652729749462, 9.924843200918287),
        3: (1.637744353696209, 3.1824463052837078, 5.840909309733355),
        9: (1.3830287383966329, 2.262157162798205, 3.249835541592126),
        31: (1.3094635494946454, 2.039513446396408, 2.744041919294269),
        1023: (1.282379662386784, 1.962285619647268, 2.58064376625203),
    }

    @pytest.mark.parametrize("df", sorted(REFERENCE))
    def test_matches_reference(self, df):
        for confidence, expected in zip((0.8, 0.95, 0.99), self.REFERENCE[df]):
            assert t_quantile(confidence, df) == pytest.approx(
                expected, rel=1e-12
            ), confidence

    def test_validation(self):
        for df in (0, -1):
            with pytest.raises(ValueError, match="df"):
                t_quantile(0.95, df)
        for confidence in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="confidence"):
                t_quantile(confidence, 5)

    def test_batch_means_uses_it(self):
        series = np.repeat([1.0, 3.0], 5)
        result = batch_means(series, batches=2, confidence=0.9)
        assert result.half_width == pytest.approx(t_quantile(0.9, 1) * 1.0)
