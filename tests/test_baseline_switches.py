"""Behavioral tests for the baseline switches (baseline, UFS, FOFF, PF, hashing, OQ)."""

import numpy as np
import pytest

from repro.switching.baseline import BaselineLoadBalancedSwitch
from repro.switching.foff import FoffSwitch
from repro.switching.hashing import TcpHashingSwitch
from repro.switching.output_queued import OutputQueuedSwitch
from repro.switching.pf import PaddedFramesSwitch
from repro.switching.ufs import UfsSwitch
from repro.traffic.matrices import uniform_matrix

from tests.helpers import drive_switch, make_packets


N = 8
MATRIX = uniform_matrix(N, 0.7)
SLOTS = 4000


class TestBaselineLoadBalanced:
    def test_full_delivery_and_conservation(self):
        switch = BaselineLoadBalancedSwitch(N)
        metrics = drive_switch(switch, MATRIX, SLOTS, drain_slots=5000)
        assert switch.in_flight() == 0
        assert switch.conservation_ok()
        assert len(metrics.delays) == switch.injected

    def test_reorders_under_load(self):
        switch = BaselineLoadBalancedSwitch(N)
        metrics = drive_switch(switch, MATRIX, SLOTS)
        assert metrics.reordering.late_packets > 0

    def test_low_delay(self):
        switch = BaselineLoadBalancedSwitch(N)
        metrics = drive_switch(switch, MATRIX, SLOTS, drain_slots=5000)
        # The baseline is the delay lower envelope among two-stage switches:
        # O(N) queueing, far below the frame-based switches' O(N^2/rho).
        assert metrics.mean < 5 * N


class TestUfs:
    def test_never_reorders(self):
        switch = UfsSwitch(N)
        metrics = drive_switch(switch, MATRIX, SLOTS, drain_slots=5000)
        assert metrics.reordering.late_packets == 0

    def test_conservation(self):
        switch = UfsSwitch(N)
        drive_switch(switch, MATRIX, SLOTS)
        assert switch.conservation_ok()

    def test_only_full_frames_depart(self):
        # With fewer than N packets in a VOQ, nothing ever leaves.
        switch = UfsSwitch(N)
        switch.step(0, make_packets([(0, 0)] * (N - 1)))
        assert switch.drain(20 * N) == []
        assert switch.buffered_packets() == N - 1

    def test_full_frame_departs_completely(self):
        switch = UfsSwitch(N)
        switch.step(0, make_packets([(0, 0)] * N))
        departures = switch.drain(40 * N)
        assert len(departures) == N
        assert [p.seq for p in departures] == list(range(N))

    def test_light_load_delay_reflects_accumulation(self):
        # At light load the dominant term is waiting for a frame to fill:
        # the average packet waits for (N-1)/2 successors at VOQ rate
        # load/N, i.e. about N(N-1)/(2 load) slots.
        load = 0.2
        switch = UfsSwitch(N)
        metrics = drive_switch(switch, uniform_matrix(N, load), 30_000)
        accumulation_mean = N * (N - 1) / (2.0 * load)  # 140 slots
        assert accumulation_mean * 0.7 < metrics.mean < accumulation_mean * 2.0


class TestFoff:
    def test_output_stream_in_order(self):
        switch = FoffSwitch(N)
        metrics = drive_switch(switch, MATRIX, SLOTS, drain_slots=5000)
        assert metrics.reordering.late_packets == 0

    def test_resequencers_do_real_work(self):
        # FOFF relies on resequencing: under load the buffers must have
        # held packets at some point (otherwise the test is vacuous).
        switch = FoffSwitch(N)
        drive_switch(switch, MATRIX, SLOTS)
        assert switch.max_resequencer_occupancy() > 0

    def test_resequencer_bound_order_n_squared(self):
        switch = FoffSwitch(N)
        drive_switch(switch, MATRIX, SLOTS)
        # The paper bounds reordering by O(N^2); allow a small constant.
        assert switch.max_resequencer_occupancy() <= 4 * N * N

    def test_partial_frames_depart_without_full_frame(self):
        switch = FoffSwitch(N)
        switch.step(0, make_packets([(0, 0)] * 3))
        departures = switch.drain(40 * N)
        assert len(departures) == 3  # unlike UFS

    def test_conservation_includes_resequencers(self):
        switch = FoffSwitch(N)
        drive_switch(switch, MATRIX, 500)
        assert switch.conservation_ok()


class TestPaddedFrames:
    def test_never_reorders(self):
        switch = PaddedFramesSwitch(N)
        metrics = drive_switch(switch, MATRIX, SLOTS, drain_slots=5000)
        assert metrics.reordering.late_packets == 0

    def test_pads_below_full_frames(self):
        switch = PaddedFramesSwitch(N, threshold=2)
        switch.step(0, make_packets([(0, 0)] * 3))
        departures = switch.drain(40 * N)
        real = [p for p in departures if not p.fake]
        fakes = [p for p in departures if p.fake]
        assert len(real) == 3
        assert len(fakes) == N - 3
        assert switch.fakes_injected == N - 3

    def test_below_threshold_waits(self):
        switch = PaddedFramesSwitch(N, threshold=4)
        switch.step(0, make_packets([(0, 0)] * 3))
        departures = switch.drain(40 * N)
        assert departures == []

    def test_padding_overhead_reported(self):
        switch = PaddedFramesSwitch(N, threshold=2)
        drive_switch(switch, uniform_matrix(N, 0.3), SLOTS)
        assert 0.0 < switch.padding_overhead() < 1.0

    def test_conservation_ignores_fakes(self):
        switch = PaddedFramesSwitch(N, threshold=2)
        drive_switch(switch, MATRIX, 500)
        assert switch.conservation_ok()

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            PaddedFramesSwitch(N, threshold=0)
        with pytest.raises(ValueError):
            PaddedFramesSwitch(N, threshold=N + 1)


class TestTcpHashing:
    def test_flow_level_ordering(self):
        switch = TcpHashingSwitch(N)
        metrics = drive_switch(switch, MATRIX, SLOTS, drain_slots=8000)
        # Without flow ids every VOQ hashes as one unit: VOQ-level order.
        assert metrics.reordering.late_packets == 0

    def test_assignment_is_stable_per_voq(self):
        switch = TcpHashingSwitch(N, salt=1, per_flow=False)
        (p1,) = make_packets([(2, 5)])
        (p2,) = make_packets([(2, 5)])
        assert switch.assigned_port(p1) == switch.assigned_port(p2)

    def test_different_salts_differ_somewhere(self):
        a = TcpHashingSwitch(N, salt=0)
        b = TcpHashingSwitch(N, salt=1)
        packets = make_packets([(i, j) for i in range(N) for j in range(N)])
        assignments_a = [a.assigned_port(p) for p in packets]
        assignments_b = [b.assigned_port(p) for p in packets]
        assert assignments_a != assignments_b

    def test_oversubscription_grows_backlog(self):
        # Concentrate all of one input's traffic on VOQs that hash to the
        # same intermediate port: its service rate 1/N cannot keep up.
        switch = TcpHashingSwitch(N, salt=0, per_flow=False)
        probe = make_packets([(0, j) for j in range(N)])
        target = switch.assigned_port(probe[0])
        same = [p.output_port for p in probe if switch.assigned_port(p) == target]
        matrix = np.zeros((N, N))
        for j in same:
            matrix[0][j] = 0.8 / len(same)
        # Input 0 offers 0.8 to a single 1/N = 0.125 channel: unstable.
        drive_switch(switch, matrix, 6000)
        assert switch.max_input_backlog() > 0.5 * (0.8 - 1.0 / N) * 6000


class TestOutputQueued:
    def test_in_order_and_conserving(self):
        switch = OutputQueuedSwitch(N)
        metrics = drive_switch(switch, MATRIX, SLOTS, drain_slots=2000)
        assert metrics.reordering.late_packets == 0
        assert switch.conservation_ok()
        assert switch.in_flight() == 0

    def test_delay_lower_bounds_everyone(self):
        oq = OutputQueuedSwitch(N)
        lb = BaselineLoadBalancedSwitch(N)
        m_oq = drive_switch(oq, MATRIX, SLOTS, drain_slots=5000)
        m_lb = drive_switch(lb, MATRIX, SLOTS, drain_slots=5000)
        assert m_oq.mean <= m_lb.mean

    def test_slot_protocol_validated(self):
        switch = OutputQueuedSwitch(N)
        switch.step(0, [])
        with pytest.raises(ValueError):
            switch.step(5, [])
