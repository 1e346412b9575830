"""Structural invariants of the frame-based baselines (UFS / FOFF / PF).

UFS's no-reordering argument (paper §2.2 / [11]) rests on the equal-queue
property: every frame deposits exactly one packet into each per-output
FIFO at the intermediate stage.  Instantaneous queue lengths may diverge
transiently (several inputs can be mid-spread toward the same output at
once, plus the output's round-robin drain position), but *cumulative*
deposits equalize exactly once all frames finish spreading.  PF preserves
the property by padding; FOFF deliberately gives it up for partial frames
— the residue its output resequencers absorb.
"""

import numpy as np

from repro.switching.foff import FoffSwitch
from repro.switching.pf import PaddedFramesSwitch
from repro.switching.ufs import UfsSwitch
from repro.traffic.generator import TrafficGenerator
from repro.traffic.matrices import uniform_matrix

from tests.helpers import drive_switch


def run_and_drain(switch, matrix, slots, seed=3):
    traffic = TrafficGenerator(matrix, np.random.default_rng(seed))
    transient_spread = 0
    n = switch.n
    for slot, packets in traffic.slots(slots):
        switch.step(slot, packets)
        if slot % 13 == 0:
            for j in range(n):
                lengths = [
                    len(switch._mid_banks[m].queue(j)) for m in range(n)
                ]
                transient_spread = max(
                    transient_spread, max(lengths) - min(lengths)
                )
    switch.drain(30 * n)
    return transient_spread


def cumulative_deposits(switch, output):
    """Packets ever enqueued for ``output`` at each intermediate port."""
    return [
        switch._mid_banks[m].queue(output).total_enqueued
        for m in range(switch.n)
    ]


class TestEqualQueueInvariant:
    def test_ufs_cumulative_deposits_equal(self):
        n = 8
        switch = UfsSwitch(n)
        run_and_drain(switch, uniform_matrix(n, 0.8), 4000)
        for j in range(n):
            deposits = cumulative_deposits(switch, j)
            assert len(set(deposits)) == 1, (j, deposits)

    def test_pf_cumulative_deposits_equal_with_fakes(self):
        n = 8
        switch = PaddedFramesSwitch(n, threshold=3)
        run_and_drain(switch, uniform_matrix(n, 0.5), 4000)
        for j in range(n):
            deposits = cumulative_deposits(switch, j)
            assert len(set(deposits)) == 1, (j, deposits)

    def test_foff_partial_frames_break_equality(self):
        n = 8
        switch = FoffSwitch(n)
        # Light load: mostly partial frames, the equality-breaking case.
        run_and_drain(switch, uniform_matrix(n, 0.3), 6000)
        unequal_outputs = sum(
            1
            for j in range(n)
            if len(set(cumulative_deposits(switch, j))) > 1
        )
        assert unequal_outputs > 0

    def test_transient_spread_bounded_by_concurrent_frames(self):
        # At most N frames (one per input) can be mid-spread toward one
        # output, plus the drain offset: spread <= N + 1.
        n = 8
        switch = UfsSwitch(n)
        spread = run_and_drain(switch, uniform_matrix(n, 0.9), 4000)
        assert spread <= n + 1


class TestFrameAccounting:
    def test_ufs_departures_are_whole_frames(self):
        # Total departures must be a multiple of N: UFS never ships a
        # partial frame.
        n = 8
        switch = UfsSwitch(n)
        drive_switch(
            switch, uniform_matrix(n, 0.7), 3000, seed=1, drain_slots=4000
        )
        assert switch.departed % n == 0

    def test_pf_wire_volume_is_whole_frames(self):
        # Real + fake departures together form whole frames.
        n = 8
        switch = PaddedFramesSwitch(n, threshold=2)
        drive_switch(
            switch, uniform_matrix(n, 0.4), 3000, seed=2, drain_slots=6000
        )
        assert (switch.departed + switch.fake_departed) % n == 0
