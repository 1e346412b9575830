"""Unit tests for the one metrics fold (sim/metrics.py)."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernels.base import Departures
from repro.sim.metrics import _MetricsAccumulator, histogram_percentile
from repro.sim.stage import ObjectStage
from repro.switching.baseline import BaselineLoadBalancedSwitch
from repro.switching.packet import Packet

from tests.helpers import PacketOracle


def col(values):
    return np.array(list(values), dtype=np.int64)


def block(arrival, departure, seq=None):
    """A one-VOQ departure block in observation order (``wire`` is the
    rank); seqs default to ``0, 1, ...``."""
    count = len(arrival)
    return Departures(
        voq=col([0] * count),
        seq=col(range(count) if seq is None else seq),
        arrival=col(arrival),
        departure=col(departure),
        wire=col(range(count)),
        wire_is_rank=True,
    )


def fold(*blocks, warmup=0, keep_samples=True, n=1):
    acc = _MetricsAccumulator(n, warmup, keep_samples)
    for dep in blocks:
        acc.add(dep)
    return acc.result("test", injected=0, num_slots=100, load_label=0.5)


class TestHistogramPercentile:
    def test_percentiles(self):
        hist = Counter(range(101))
        assert histogram_percentile(hist, 0) == 0
        assert histogram_percentile(hist, 50) == 50
        assert histogram_percentile(hist, 100) == 100
        assert histogram_percentile(hist, 99) == pytest.approx(99)

    @settings(max_examples=60, deadline=None)
    @given(
        samples=st.lists(
            st.integers(min_value=0, max_value=500), min_size=1, max_size=400
        ),
        q=st.one_of(
            st.integers(min_value=0, max_value=100),
            st.floats(
                min_value=0.0, max_value=100.0,
                allow_nan=False, allow_infinity=False,
            ),
        ),
    )
    def test_pins_numpy(self, samples, q):
        assert histogram_percentile(Counter(samples), q) == pytest.approx(
            float(np.percentile(samples, q)), rel=1e-12, abs=1e-12
        )

    def test_empty_is_nan(self):
        assert math.isnan(histogram_percentile({}, 50))

    def test_range_validated(self):
        with pytest.raises(ValueError):
            histogram_percentile({1: 1}, 101)
        with pytest.raises(ValueError):
            histogram_percentile({1: 1}, -1)


class TestFold:
    def test_empty_is_nan(self):
        result = fold(block([], []))
        assert math.isnan(result.mean_delay)
        assert math.isnan(result.p50_delay)
        assert result.max_delay is None
        assert result.measured_packets == 0

    def test_percentiles_exact_without_samples(self):
        # Percentiles come from the exact histogram, so they are exact
        # when per-packet samples were not retained.
        result = fold(block([0, 0, 0, 0], [1, 5, 5, 9]), keep_samples=False)
        assert result.p50_delay == 5.0
        assert result._delay_histogram == {5: 2, 9: 1, 1: 1}
        assert result._delay_samples == []

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            fold(block([5], [4]))

    def test_warmup_gating(self):
        result = fold(block([0, 10], [5, 15]), warmup=10)
        assert result.measured_packets == 1
        assert result.mean_delay == 5.0
        assert result.departed == 2

    def test_ordering_checked_even_during_warmup(self):
        result = fold(block([0, 1], [5, 6], seq=[3, 0]), warmup=10)
        assert result.measured_packets == 0
        assert result.late_packets == 1
        assert result.max_displacement == 3

    def test_fakes_not_measured(self):
        stage = ObjectStage(BaselineLoadBalancedSwitch(2), num_slots=10)
        packets = [
            Packet(0, 1, arrival_slot=0, seq=0),
            Packet(0, 1, arrival_slot=0, seq=1, fake=True),
        ]
        for p in packets:
            p.departure_slot = 3
        dep = stage._collect(packets)
        assert dep.voq.tolist() == [1]
        result = fold(dep, n=2)
        assert (result.measured_packets, result.departed) == (1, 1)


@st.composite
def departure_streams(draw):
    """``(n, warmup, packets, blocks)``: one run's departures, as
    observed packets and as the :class:`Departures` blocks the engines
    fold.

    Departure slots never decrease; within a slot the packets come in
    ``wire`` order.  With ``wire_is_rank`` ``wire`` is the run-global
    observation rank and a VOQ may depart more than once per slot (as
    FOFF's resequencer releases); otherwise ``wire`` is the within-slot
    position and each VOQ departs at most once per slot.  Seqs count up
    per VOQ, with gaps and with reorders injected by swapping a packet's
    seq with its VOQ predecessor's.  Stage stamps are on every packet or
    none.  The stream is cut into random blocks, and each block's rows
    are shuffled.
    """
    n = draw(st.integers(1, 3))
    rank = draw(st.booleans())
    stamped = draw(st.booleans())
    packets, wires, last, slot = [], [], {}, -1
    for _ in range(draw(st.integers(0, 12))):
        slot += draw(st.integers(1, 3))
        voqs = draw(st.lists(
            st.integers(0, n * n - 1), max_size=5, unique=not rank
        ))
        for pos, voq in enumerate(voqs):
            last[voq] = last.get(voq, -1) + draw(st.sampled_from([1, 1, 2]))
            arrival = slot - draw(st.integers(0, min(slot, 20)))
            p = Packet(voq // n, voq % n, arrival, seq=last[voq])
            p.departure_slot = slot
            if stamped:
                p.assembled_slot = draw(st.integers(arrival, slot))
                p.tx_slot = draw(st.integers(p.assembled_slot, slot))
            packets.append(p)
            wires.append(len(wires) if rank else pos)
    previous = {}
    for p in packets:
        q = previous.get(p.voq)
        if q is not None and draw(st.integers(0, 3)) == 0:
            p.seq, q.seq = q.seq, p.seq
        previous[p.voq] = p

    columns = {
        "voq": col(p.input_port * n + p.output_port for p in packets),
        "seq": col(p.seq for p in packets),
        "arrival": col(p.arrival_slot for p in packets),
        "departure": col(p.departure_slot for p in packets),
        "wire": col(wires),
    }
    if stamped:
        columns["assembled"] = col(p.assembled_slot for p in packets)
        columns["tx"] = col(p.tx_slot for p in packets)
    cuts = sorted(draw(st.lists(st.integers(0, len(packets)), max_size=4)))
    blocks = []
    for lo, hi in zip([0] + cuts, cuts + [len(packets)]):
        order = col(draw(st.permutations(range(lo, hi))))
        blocks.append(Departures(
            **{name: column[order] for name, column in columns.items()},
            wire_is_rank=rank,
        ))
    return n, draw(st.integers(0, slot + 2)), packets, blocks


class TestFoldAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(case=departure_streams())
    def test_equals_the_per_packet_oracle(self, case):
        """Blocks in any cut and row order fold to what the per-packet
        oracle observes packet by packet."""
        n, warmup, packets, blocks = case
        oracle = PacketOracle(warmup)
        for p in packets:
            oracle.observe(p)
        result = fold(*blocks, warmup=warmup, n=n)
        delays = oracle.delays
        assert result.measured_packets == len(delays)
        assert result.departed == oracle.reordering.observed == len(packets)
        if delays:
            assert result.mean_delay == oracle.mean
            for q, value in ((50, result.p50_delay), (99, result.p99_delay)):
                assert value == pytest.approx(
                    float(np.percentile(delays, q)), rel=1e-12, abs=1e-12
                )
            assert result.max_delay == max(delays)
        else:
            assert math.isnan(result.mean_delay)
            assert result.max_delay is None
        assert result._delay_histogram == Counter(delays)
        assert result.late_packets == oracle.reordering.late_packets
        assert result.max_displacement == oracle.reordering.max_displacement
        assert result.extras == oracle.breakdown()
        assert result._delay_samples == delays


class TestSimulationResult:
    def make_result(self, extras=None):
        acc = _MetricsAccumulator(8, 0, keep_samples=True)
        acc.add(block(range(10), range(7, 17)))
        return acc.result(
            "test", injected=12, num_slots=100, load_label=0.5,
            extras=extras,
        )

    def test_summary_fields(self):
        result = self.make_result()
        assert result.mean_delay == 7.0
        assert result.is_ordered
        assert result.throughput == pytest.approx(0.1)
        assert result.measured_packets == 10
        assert result.injected == 12

    def test_as_row_flat_dict(self):
        row = self.make_result(extras={"padding": 0.25}).as_row()
        assert row["switch"] == "test"
        assert row["padding"] == 0.25
        assert "mean_delay" in row


class TestDelayConfidenceInterval:
    def test_ci_from_retained_samples(self):
        from repro.sim.experiment import run_single
        from repro.traffic.matrices import uniform_matrix

        result = run_single(
            "load-balanced", uniform_matrix(8, 0.6), 4000, seed=1,
            keep_samples=True,
        )
        ci = result.delay_ci(batches=10)
        low, high = ci.interval
        assert low < result.mean_delay * 1.1
        assert high > result.mean_delay * 0.9

    def test_ci_requires_samples(self):
        from repro.sim.experiment import run_single
        from repro.traffic.matrices import uniform_matrix

        result = run_single(
            "load-balanced", uniform_matrix(8, 0.6), 1000, seed=1,
            keep_samples=False,
        )
        with pytest.raises(ValueError):
            result.delay_ci()
