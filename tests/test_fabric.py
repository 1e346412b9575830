"""Unit tests for the fabric connection patterns (switching/fabric.py)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.switching.fabric import (
    decreasing_connection,
    increasing_connection,
    output_source,
)


class TestConnectionFunctions:
    def test_increasing_is_permutation_each_slot(self):
        n = 8
        for t in range(2 * n):
            targets = [increasing_connection(i, t, n) for i in range(n)]
            assert sorted(targets) == list(range(n))

    def test_decreasing_is_permutation_each_slot(self):
        n = 8
        for t in range(2 * n):
            targets = [decreasing_connection(m, t, n) for m in range(n)]
            assert sorted(targets) == list(range(n))

    def test_each_pair_connected_once_per_period(self):
        n = 8
        for i in range(n):
            mids = {increasing_connection(i, t, n) for t in range(n)}
            assert mids == set(range(n))
        for m in range(n):
            outs = {decreasing_connection(m, t, n) for t in range(n)}
            assert outs == set(range(n))

    def test_output_source_inverts_decreasing(self):
        n = 8
        for j in range(n):
            for t in range(2 * n):
                m = output_source(j, t, n)
                assert decreasing_connection(m, t, n) == j

    def test_stripe_alignment_property(self):
        # The heart of Sprinklers' consistency: if an input writes to
        # consecutive intermediate ports in consecutive slots, the output
        # reads those ports in consecutive slots too.
        n = 8
        for j in range(n):
            for t in range(2 * n):
                assert output_source(j, t + 1, n) == (output_source(j, t, n) + 1) % n
        for i in range(n):
            for t in range(2 * n):
                assert (
                    increasing_connection(i, t + 1, n)
                    == (increasing_connection(i, t, n) + 1) % n
                )

    def test_slot_zero_connects_straight_through(self):
        n = 8
        for a in range(n):
            assert increasing_connection(a, 0, n) == a
            assert decreasing_connection(a, 0, n) == a
            assert output_source(a, 0, n) == a

    def test_input_reaches_each_intermediate_at_one_slot(self):
        # Input i meets intermediate m at slot (m - i) mod n, and at no
        # other slot of the period.
        n = 8
        for i in range(n):
            for m in range(n):
                slots = [
                    t for t in range(n) if increasing_connection(i, t, n) == m
                ]
                assert slots == [(m - i) % n]

    def test_output_reads_each_intermediate_at_one_slot(self):
        # Output j reads intermediate m at slot (m - j) mod n, and at no
        # other slot of the period.
        n = 8
        for j in range(n):
            for m in range(n):
                slots = [t for t in range(n) if output_source(j, t, n) == m]
                assert slots == [(m - j) % n]
                assert decreasing_connection(m, slots[0], n) == j

    @given(
        n=st.integers(min_value=1, max_value=64),
        slot=st.integers(min_value=0, max_value=10_000),
        periods=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=50, deadline=None)
    def test_connections_repeat_every_n_slots(self, n, slot, periods):
        later = slot + periods * n
        for connect in (increasing_connection, decreasing_connection, output_source):
            for a in range(n):
                assert connect(a, later, n) == connect(a, slot, n)

    @given(
        n=st.integers(min_value=2, max_value=64),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_shorter_window_misses_a_pair(self, n, data):
        # Fewer than n consecutive slots never connect an input to every
        # intermediate port: the period is exactly n.
        width = data.draw(st.integers(min_value=1, max_value=n - 1))
        start = data.draw(st.integers(min_value=0, max_value=10 * n))
        for a in range(n):
            window = range(start, start + width)
            reached = {increasing_connection(a, t, n) for t in window}
            assert len(reached) == width < n

    @given(n=st.integers(min_value=1, max_value=64))
    @settings(max_examples=20, deadline=None)
    def test_output_source_inverts_decreasing_at_any_n(self, n):
        for t in range(n):
            for j in range(n):
                assert decreasing_connection(output_source(j, t, n), t, n) == j

    @given(n=st.integers(min_value=1, max_value=64))
    @settings(max_examples=20, deadline=None)
    def test_standard_fabrics_are_latin_at_any_n(self, n):
        # Fig. 1: each slot is a permutation, and every pair of either
        # fabric is connected exactly once every n slots.
        for connect in (increasing_connection, decreasing_connection):
            for t in range(n):
                assert sorted(connect(a, t, n) for a in range(n)) == list(range(n))
            for a in range(n):
                assert sorted(connect(a, t, n) for t in range(n)) == list(range(n))
