"""Behavioral tests for the Concurrent Matching Switch (switching/cms.py)."""

import pytest

from repro.switching.cms import CmsSwitch
from repro.traffic.matrices import diagonal_matrix, uniform_matrix

from tests.helpers import drive_switch, make_packets


N = 8


class TestCmsOrdering:
    def test_never_reorders_uniform(self):
        switch = CmsSwitch(N)
        metrics = drive_switch(switch, uniform_matrix(N, 0.7), 6000, drain_slots=6000)
        assert metrics.delays
        assert metrics.reordering.late_packets == 0

    def test_never_reorders_diagonal(self):
        switch = CmsSwitch(N)
        metrics = drive_switch(
            switch, diagonal_matrix(N, 0.85), 6000, drain_slots=6000
        )
        assert metrics.reordering.late_packets == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_never_reorders_across_seeds(self, seed):
        switch = CmsSwitch(N)
        metrics = drive_switch(
            switch, uniform_matrix(N, 0.9), 4000, seed=seed, drain_slots=6000
        )
        assert metrics.reordering.late_packets == 0


class TestCmsMechanics:
    def test_conservation(self):
        switch = CmsSwitch(N)
        drive_switch(switch, uniform_matrix(N, 0.7), 1000)
        assert switch.conservation_ok()

    def test_tokens_track_voq_backlog(self):
        # Every unserved packet is backed by exactly one outstanding token.
        switch = CmsSwitch(N)
        drive_switch(switch, uniform_matrix(N, 0.6), 777)
        voq_backlog = sum(bank.occupancy() for bank in switch._voqs)
        assert switch.outstanding_tokens() == voq_backlog

    def test_single_packet_traverses(self):
        switch = CmsSwitch(N)
        switch.step(0, make_packets([(2, 5)]))
        departures = switch.drain(10 * N * N)
        assert len(departures) == 1
        # Token -> grant at next boundary -> transmit -> held one frame ->
        # depart: at least one full frame, at most a few.
        assert N <= departures[0].delay <= 5 * N

    def test_frame_granularity_of_delay(self):
        # CMS delay is frame-pipelined: nothing can depart in under a
        # frame, unlike the baseline switch.
        switch = CmsSwitch(N)
        metrics = drive_switch(
            switch, uniform_matrix(N, 0.5), 3000, drain_slots=5000
        )
        assert min(metrics.delays) >= N

    def test_throughput_under_high_load(self):
        switch = CmsSwitch(N)
        metrics = drive_switch(
            switch, uniform_matrix(N, 0.9), 15_000, drain_slots=15_000
        )
        # Single-iteration greedy matching still sustains heavy load on
        # uniform traffic (grants per frame ~ N per intermediate).
        assert switch.departed >= 0.95 * switch.injected

    def test_at_most_one_grant_per_output_per_mid_per_frame(self):
        switch = CmsSwitch(N)
        drive_switch(switch, uniform_matrix(N, 0.9), 500)
        # Post-hoc structural check: per-output FIFOs at an intermediate
        # never hold more than 2 packets (1 releasing + 1 arriving frame).
        for bank in switch._mid_banks:
            for queue in bank.queues:
                assert queue.max_depth <= 2
