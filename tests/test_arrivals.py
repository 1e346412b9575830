"""Unit tests for arrival processes (traffic/arrivals.py)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import ConstantSchedule
from repro.traffic.arrivals import (
    BernoulliArrivals,
    ModulatedBernoulliArrivals,
    OnOffArrivals,
)


class TestBernoulli:
    def test_rate_matches(self, rng):
        proc = BernoulliArrivals([0.3] * 4, rng)
        slots, inputs = proc.chunk(0, 20_000)
        assert len(slots) == pytest.approx(0.3 * 4 * 20_000, rel=0.05)

    def test_per_input_rates(self, rng):
        proc = BernoulliArrivals([0.1, 0.9], rng)
        slots, inputs = proc.chunk(0, 20_000)
        count_0 = int((inputs == 0).sum())
        count_1 = int((inputs == 1).sum())
        assert count_0 == pytest.approx(0.1 * 20_000, rel=0.15)
        assert count_1 == pytest.approx(0.9 * 20_000, rel=0.05)

    def test_at_most_one_arrival_per_slot_input(self, rng):
        proc = BernoulliArrivals([1.0] * 2, rng)
        slots, inputs = proc.chunk(0, 100)
        assert len(set(zip(slots.tolist(), inputs.tolist()))) == len(slots)

    def test_chunks_cover_range(self, rng):
        proc = BernoulliArrivals([0.5] * 2, rng)
        seen = []
        for slots, inputs in proc.events(1000, chunk_slots=64):
            seen.extend(slots.tolist())
        assert all(0 <= s < 1000 for s in seen)
        assert seen == sorted(seen)

    def test_rejects_bad_probabilities(self, rng):
        with pytest.raises(ValueError):
            BernoulliArrivals([1.2], rng)
        with pytest.raises(ValueError):
            BernoulliArrivals([[0.5]], rng)

    @pytest.mark.parametrize("chunk_slots", [0, -64])
    def test_events_reject_nonpositive_chunk(self, rng, chunk_slots):
        """A chunk of no slots would never advance the sweep."""
        proc = BernoulliArrivals([0.5] * 2, rng)
        with pytest.raises(ValueError, match="chunk_slots must be positive"):
            next(proc.events(100, chunk_slots=chunk_slots))


#: A non-finite rate never compares below a uniform, so it would silently
#: idle its input instead of failing.
_NON_FINITE = [
    ("bernoulli-load", lambda rng: BernoulliArrivals([0.5, np.nan], rng)),
    (
        "modulated-load",
        lambda rng: ModulatedBernoulliArrivals(
            [np.nan, 0.5], ConstantSchedule(1.0), rng
        ),
    ),
    ("onoff-peak", lambda rng: OnOffArrivals(2, [0.5, np.nan], 10, 10, rng)),
    ("onoff-mean-on", lambda rng: OnOffArrivals(2, 0.5, np.nan, 10, rng)),
    ("onoff-mean-off", lambda rng: OnOffArrivals(2, 0.5, 10, np.inf, rng)),
]


@pytest.mark.parametrize(
    "build", [b for _, b in _NON_FINITE], ids=[i for i, _ in _NON_FINITE]
)
def test_non_finite_parameters_rejected(rng, build):
    with pytest.raises(ValueError):
        build(rng)


class TestOnOff:
    def test_mean_rate_formula(self, rng):
        proc = OnOffArrivals(2, peak_rate=0.8, mean_on=20, mean_off=60, rng=rng)
        assert proc.mean_rate == pytest.approx(0.8 * 0.25)

    def test_empirical_rate(self, rng):
        proc = OnOffArrivals(4, peak_rate=0.9, mean_on=50, mean_off=50, rng=rng)
        slots, inputs = proc.chunk(0, 40_000)
        empirical = len(slots) / (4 * 40_000)
        assert empirical == pytest.approx(proc.mean_rate, rel=0.15)

    def test_burstiness_exceeds_bernoulli(self, rng):
        # Variance of per-window counts should exceed Bernoulli's at equal
        # mean rate.
        onoff = OnOffArrivals(1, peak_rate=1.0, mean_on=50, mean_off=50, rng=rng)
        bern = BernoulliArrivals([onoff.mean_rate], np.random.default_rng(7))
        window = 100

        def window_var(proc):
            slots, _ = proc.chunk(0, 50_000)
            counts = np.bincount(slots // window, minlength=500)
            return float(np.var(counts))

        assert window_var(onoff) > 2.0 * window_var(bern)

    def test_state_continuity_across_chunks(self, rng):
        proc = OnOffArrivals(2, peak_rate=1.0, mean_on=1e9, mean_off=1e9, rng=rng)
        # With effectively frozen states, chunking must not reset them.
        first_states = proc._state_on.copy()
        proc.chunk(0, 100)
        assert (proc._state_on == first_states).all()

    def test_empty_chunk_is_inert(self, rng):
        proc = OnOffArrivals(3, peak_rate=0.9, mean_on=4, mean_off=2, rng=rng)
        state = proc._state_on.copy()
        before = rng.bit_generator.state
        slots, inputs = proc.chunk(17, 0)
        assert len(slots) == 0 and len(inputs) == 0
        assert proc._state_on.dtype == bool
        assert (proc._state_on == state).all()
        assert rng.bit_generator.state == before

    def test_parameter_validation(self, rng):
        with pytest.raises(ValueError):
            OnOffArrivals(0, 0.5, 10, 10, rng)
        with pytest.raises(ValueError):
            OnOffArrivals(2, 1.5, 10, 10, rng)
        with pytest.raises(ValueError):
            OnOffArrivals(2, 0.5, 0.5, 10, rng)


def _loop_chunk(proc, start_slot, num_slots):
    """The slot-by-slot Markov step ``OnOffArrivals.chunk`` is the closed
    form of — the reference the closed form must reproduce bit for bit,
    RNG consumption included."""
    rng = proc._rng
    flips = rng.random((num_slots, proc.phases))
    emits = rng.random((num_slots, proc.n)) < proc.peak_rate
    arrivals = np.zeros((num_slots, proc.n), dtype=bool)
    state = proc._state_on
    for t in range(num_slots):
        arrivals[t] = state[proc._chain] & emits[t]
        switch_off = state & (flips[t] < proc.p_off)
        switch_on = ~state & (flips[t] < proc.p_on)
        state = (state & ~switch_off) | switch_on
    proc._state_on = state
    rel_slots, inputs = np.nonzero(arrivals)
    return rel_slots + start_slot, inputs


#: 1.0 is the edge where every flip is below the threshold (the chain
#: leaves that state every slot); repeats make ``mean_on == mean_off``
#: (no force band at all) a likely draw.
_MEANS = st.sampled_from([1.0, 1.0, 1.5, 3.0, 3.0, 12.0, 40.0])


@st.composite
def _onoff_cases(draw):
    n = draw(st.integers(1, 6))
    phases = draw(st.sampled_from([None, 1, n, draw(st.integers(1, n))]))
    if draw(st.booleans()):
        peak = draw(st.floats(0.0, 1.0))
    else:
        peak = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    cuts = draw(st.lists(st.integers(0, 70), min_size=1, max_size=5))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, peak, draw(_MEANS), draw(_MEANS), phases, cuts, seed


class TestOnOffClosedForm:
    @settings(max_examples=150, deadline=None)
    @given(_onoff_cases())
    def test_matches_slot_loop(self, case):
        n, peak, mean_on, mean_off, phases, cuts, seed = case
        rngs = [np.random.default_rng(seed) for _ in range(2)]
        closed, loop = (
            OnOffArrivals(n, peak, mean_on, mean_off, rng, phases=phases)
            for rng in rngs
        )
        start = 0
        for size in cuts:
            got = closed.chunk(start, size)
            want = _loop_chunk(loop, start, size)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
            np.testing.assert_array_equal(closed._state_on, loop._state_on)
            # The destination draws that follow a chunk must not shift.
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
            start += size

    @pytest.mark.parametrize("mean_on,mean_off", [
        (1.0, 1.0), (1.0, 5.0), (5.0, 1.0), (4.0, 4.0), (2.0, 9.0), (9.0, 2.0),
    ])
    @pytest.mark.parametrize("phases", [1, 3, 8])
    def test_long_chunks_match_slot_loop(self, mean_on, mean_off, phases):
        peak = np.linspace(0.2, 1.0, 8)
        rngs = [np.random.default_rng(11) for _ in range(2)]
        closed, loop = (
            OnOffArrivals(8, peak, mean_on, mean_off, rng, phases=phases)
            for rng in rngs
        )
        for start in (0, 3000):
            got = closed.chunk(start, 3000)
            want = _loop_chunk(loop, start, 3000)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
        np.testing.assert_array_equal(closed._state_on, loop._state_on)
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
