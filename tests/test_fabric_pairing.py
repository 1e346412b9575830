"""Negative result: the increasing/decreasing fabric pairing is load-bearing.

Paper §3.4 picks fabric 1 "increasing" and fabric 2 "decreasing" so that,
from any output's viewpoint, the source intermediate port advances by one
per slot — matching how stripes are written. These tests run a Sprinklers
switch with a *mispaired* second fabric (increasing on both stages, i.e.
the output's read pointer runs backwards through each stripe) and show the
ordering guarantee collapses, while the stock pairing holds on identical
traffic. A reproduction of why the design is what it is.
"""

import numpy as np

from repro.core.interval_assignment import StripeIntervalAssignment
from repro.core.sprinklers_switch import SprinklersSwitch
from repro.traffic.generator import TrafficGenerator
from repro.traffic.matrices import uniform_matrix

from tests.helpers import drive_switch


class MispairedSprinklers(SprinklersSwitch):
    """Sprinklers with fabric 2 running the same direction as fabric 1."""

    name = "sprinklers-mispaired"
    guarantees_ordering = False  # that's the point

    def _stage2_connection(self, mid_port: int, slot: int) -> int:
        return (mid_port + slot) % self.n  # wrong: mirrors fabric 1


def run(switch_cls, n=8, load=0.8, slots=6000, seed=2):
    matrix = uniform_matrix(n, load)
    assignment = StripeIntervalAssignment(
        matrix, rng=np.random.default_rng(seed)
    )
    switch = switch_cls(assignment)
    traffic = TrafficGenerator(matrix, np.random.default_rng(seed + 1))
    return drive_switch(switch, traffic, slots, drain_slots=50 * n)


class TestFabricPairing:
    def test_stock_pairing_is_ordered(self):
        metrics = run(SprinklersSwitch)
        assert metrics.delays
        assert metrics.reordering.late_packets == 0

    def test_mispaired_fabrics_reorder(self):
        # Identical assignment, traffic and seeds — only the stage-2
        # connection pattern differs — and ordering collapses.
        metrics = run(MispairedSprinklers)
        assert metrics.delays
        assert metrics.reordering.late_packets > 0

    def test_mispairing_still_conserves_packets(self):
        # The mispairing breaks *ordering*, not the data path: packets
        # still all get delivered exactly once.
        n = 8
        matrix = uniform_matrix(n, 0.6)
        assignment = StripeIntervalAssignment(
            matrix, rng=np.random.default_rng(0)
        )
        switch = MispairedSprinklers(assignment)
        drive_switch(switch, matrix, 2000, seed=1)
        assert switch.conservation_ok()
