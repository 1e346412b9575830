#!/usr/bin/env python3
"""Online rate adaptation with clearance (paper §3.3.2 and §5).

The paper sizes stripes from VOQ rates, measured online, with hysteresis
against thrashing and a clearance phase so resizes cannot reorder packets.
This example drives a switch through a workload whose rates *shift
mid-run* — a traffic matrix rotation — and shows:

* the estimator discovering the new rates and resizing stripes;
* zero reordering across every resize (clearance at work);
* stripe sizes before and after matching the oracle for each phase.

Usage::

    python examples/adaptive_resizing.py
"""

import numpy as np

from repro.core.interval_assignment import StripeIntervalAssignment
from repro.core.sprinklers_switch import SprinklersSwitch
from repro.core.striping import stripe_size_for_rate
from repro.switching.resequencer import ReorderingDetector
from repro.traffic.generator import TrafficGenerator
from repro.traffic.matrices import uniform_matrix


def drive(switch, matrix, slots, start_slot, reordering, seed, seq_state):
    # seq_state keeps per-VOQ sequence numbers continuous across phases so
    # the reordering detector measures the switch, not the phase boundary.
    traffic = TrafficGenerator(
        matrix, np.random.default_rng(seed), seq_state=seq_state
    )
    for slot, packets in traffic.slots(slots):
        # Re-stamp to the global clock (each generator starts at 0).
        for p in packets:
            p.arrival_slot += start_slot
        for packet in switch.step(start_slot + slot, packets):
            reordering.observe(packet)
    return start_slot + slots


def main() -> None:
    n = 16
    phase_a = uniform_matrix(n, 0.6)  # hot: every VOQ wants wide stripes
    phase_b = uniform_matrix(n, 0.15)  # cool-down: narrow stripes suffice

    # Start from a blank slate: all stripes size 1, learn everything online.
    assignment = StripeIntervalAssignment(
        np.zeros((n, n)), rng=np.random.default_rng(0)
    )
    switch = SprinklersSwitch(
        assignment, adaptive=True, estimator_beta=0.02, sizer_patience=6
    )
    reordering = ReorderingDetector()  # fakes ignored; counts departures
    seq_state = {}

    print(f"N={n}; phase A: uniform load 0.6; phase B: uniform load 0.15")
    clock = drive(
        switch, phase_a, 20_000, 0, reordering, seed=1, seq_state=seq_state
    )
    resizes_a = switch.resizes
    oracle_a = stripe_size_for_rate(float(phase_a[1][1]), n)
    print(f"\nafter phase A ({clock} slots): {resizes_a} resizes")
    print(f"  VOQ (1,1): size {switch.stripe_size(1, 1)} "
          f"(oracle for its rate: {oracle_a})")

    clock = drive(
        switch, phase_b, 40_000, clock, reordering, seed=2, seq_state=seq_state
    )
    print(f"\nafter phase B ({clock} slots): "
          f"{switch.resizes - resizes_a} further resizes")
    oracle_b = stripe_size_for_rate(float(phase_b[1][1]), n)
    print(f"  VOQ (1,1): size {switch.stripe_size(1, 1)} "
          f"(oracle for its new rate: {oracle_b})")

    for packet in switch.drain(80 * n):
        reordering.observe(packet)
    print(f"\npackets delivered: {reordering.observed}")
    print(f"reordered across all resizes: {reordering.late_packets}")
    assert reordering.late_packets == 0
    print("OK: clearance kept every resize reordering-free.")


if __name__ == "__main__":
    main()
