"""Property-based tests (hypothesis) on the core data structures and invariants."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dyadic import DyadicInterval, dyadic_interval_for
from repro.core.latin import is_latin_square, weakly_uniform_ols
from repro.core.lsf import highest_set_bit
from repro.core.permutation import (
    compose_permutations,
    inverse_permutation,
    is_permutation,
    random_permutation,
)
from repro.core.striping import (
    load_per_share,
    per_port_budget,
    stripe_size_for_rate,
)
from repro.analysis.delay_model import expected_queue_length
from repro.analysis.stability import queue_arrival_rate, theorem1_threshold


sizes = st.sampled_from([2, 4, 8, 16, 32, 64])
small_sizes = st.sampled_from([2, 4, 8, 16])


@st.composite
def dyadic_intervals(draw, n=32):
    size = draw(st.sampled_from([1, 2, 4, 8, 16, 32]))
    start = draw(st.integers(0, n // size - 1)) * size
    return DyadicInterval(start, size)


class TestDyadicProperties:
    @given(dyadic_intervals(), dyadic_intervals())
    def test_laminar_family(self, a, b):
        # Bear hug or don't touch.
        if a.overlaps(b):
            assert a.contains(b) or b.contains(a)

    @given(dyadic_intervals())
    def test_parent_contains(self, iv):
        if iv.size < 64:
            assert iv.parent().contains(iv)

    @given(dyadic_intervals())
    def test_children_partition(self, iv):
        if iv.size > 1:
            left, right = iv.children()
            assert left.end == right.start
            assert left.start == iv.start and right.end == iv.end

    @given(st.integers(0, 31), st.sampled_from([1, 2, 4, 8, 16, 32]))
    def test_interval_for_contains_port(self, port, size):
        iv = dyadic_interval_for(port, size, 32)
        assert iv.contains_port(port)
        assert iv.size == size

    @given(st.integers(0, 31), st.sampled_from([1, 2, 4, 8, 16]))
    def test_interval_for_is_nested_in_parent_size(self, port, size):
        small = dyadic_interval_for(port, size, 32)
        big = dyadic_interval_for(port, size * 2, 32)
        assert big.contains(small)


class TestStripeSizeProperties:
    @given(st.floats(0.0, 1.0, allow_nan=False), sizes)
    def test_size_is_power_of_two_in_range(self, rate, n):
        size = stripe_size_for_rate(rate, n)
        assert 1 <= size <= n
        assert size & (size - 1) == 0

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), sizes)
    def test_monotone(self, r1, r2, n):
        lo, hi = sorted((r1, r2))
        assert stripe_size_for_rate(lo, n) <= stripe_size_for_rate(hi, n)

    @given(st.floats(1e-9, 1.0), sizes)
    def test_load_per_share_budget(self, rate, n):
        # s <= alpha unless capped at full width, where s <= rate/N <= 1/N.
        size = stripe_size_for_rate(rate, n)
        share = load_per_share(rate, n)
        if size < n:
            assert share <= per_port_budget(n) * (1 + 1e-12)
        else:
            assert share <= 1.0 / n + 1e-12

    @given(st.floats(1e-9, 1.0), sizes)
    def test_minimality(self, rate, n):
        # F is the *smallest* admissible power of two: half the stripe
        # would blow the budget (when not already 1).
        size = stripe_size_for_rate(rate, n)
        if size > 1:
            assert rate / (size // 2) > per_port_budget(n) * (1 - 1e-12)


class TestPermutationProperties:
    @given(st.integers(1, 128), st.integers(0, 2**32 - 1))
    def test_output_is_permutation(self, n, seed):
        perm = random_permutation(n, np.random.default_rng(seed))
        assert is_permutation(perm)

    @given(st.integers(1, 64), st.integers(0, 2**32 - 1))
    def test_inverse_composes_to_identity(self, n, seed):
        perm = random_permutation(n, np.random.default_rng(seed))
        assert compose_permutations(perm, inverse_permutation(perm)) == list(
            range(n)
        )

    @given(st.integers(0, 2**20 - 1))
    def test_highest_set_bit_matches_log(self, bitmap):
        if bitmap == 0:
            assert highest_set_bit(bitmap) == -1
        else:
            assert highest_set_bit(bitmap) == int(math.floor(math.log2(bitmap)))


class TestLatinSquareProperties:
    @given(small_sizes, st.integers(0, 2**32 - 1))
    def test_weakly_uniform_is_latin(self, n, seed):
        assert is_latin_square(weakly_uniform_ols(n, np.random.default_rng(seed)))


class TestStabilityProperties:
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=16, max_size=16),
        st.integers(0, 2**32 - 1),
    )
    def test_below_threshold_never_overloads(self, raw, seed):
        # Theorem 1 as a property: any nonnegative rate vector scaled to
        # total just below the threshold keeps X < 1/N for every placement.
        n = 16
        total = sum(raw)
        if total <= 0:
            return
        scale = (theorem1_threshold(n) - 1e-9) / total
        if not math.isfinite(scale):
            # A denormal total overflows the scale factor; the scaled rate
            # vector would be inf/NaN, outside the theorem's hypothesis.
            return
        rates = [r * scale for r in raw]
        rng = np.random.default_rng(seed)
        for _ in range(20):
            sigma = [int(v) for v in rng.permutation(n)]
            assert queue_arrival_rate(rates, sigma, n) < 1.0 / n

    @settings(deadline=None)
    @given(st.integers(1, 2000), st.floats(0.0, 0.99))
    def test_expected_queue_nonnegative_and_linear_in_n(self, n, rho):
        value = expected_queue_length(n, rho)
        assert value >= 0.0
        assert value == pytest.approx((n - 1) * expected_queue_length(2, rho))


class TestEndToEndOrderingProperty:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n=st.sampled_from([2, 4, 8]),
        load=st.floats(0.1, 0.95),
        placement_seed=st.integers(0, 1000),
        traffic_seed=st.integers(0, 1000),
    )
    def test_sprinklers_never_reorders(self, n, load, placement_seed, traffic_seed):
        from repro.core.sprinklers_switch import SprinklersSwitch
        from repro.traffic.matrices import uniform_matrix

        from tests.helpers import drive_switch

        matrix = uniform_matrix(n, load)
        switch = SprinklersSwitch.from_rates(matrix, seed=placement_seed)
        metrics = drive_switch(
            switch, matrix, 600, seed=traffic_seed, drain_slots=40 * n
        )
        assert metrics.reordering.late_packets == 0
        assert switch.conservation_ok()
