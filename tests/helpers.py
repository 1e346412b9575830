"""Shared test helpers (plain functions, no fixtures).

These used to live in ``tests/conftest.py`` and were imported with a bare
``from conftest import ...`` — which pytest could resolve against another
directory's conftest instead, silently breaking collection of every module
that did so.  They now live in a regular module imported by its
package-qualified name, which is shadow-proof.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.sim.metrics import SimulationMetrics
from repro.switching.packet import Packet
from repro.traffic.generator import TrafficGenerator

__all__ = ["make_packets", "drive_switch", "assert_consecutive"]


def make_packets(
    voq_sequence: List[Tuple[int, int]], slot: int = 0
) -> List[Packet]:
    """Build a same-slot batch of packets with per-VOQ sequence numbers."""
    seqs: Dict[Tuple[int, int], int] = {}
    packets = []
    for i, j in voq_sequence:
        seq = seqs.get((i, j), 0)
        seqs[(i, j)] = seq + 1
        packets.append(
            Packet(input_port=i, output_port=j, arrival_slot=slot, seq=seq)
        )
    return packets


def drive_switch(
    switch,
    matrix,
    num_slots: int,
    seed: int = 7,
    drain_slots: int = 0,
) -> SimulationMetrics:
    """Run ``switch`` against Bernoulli traffic; return raw metrics.

    A lighter-weight alternative to the engine for correctness tests:
    every departure is measured (no warm-up discard).
    """
    traffic = TrafficGenerator(matrix, np.random.default_rng(seed))
    metrics = SimulationMetrics()
    for slot, packets in traffic.slots(num_slots):
        for packet in switch.step(slot, packets):
            metrics.observe_departure(packet, measure=True)
    if drain_slots:
        for packet in switch.drain(drain_slots):
            metrics.observe_departure(packet, measure=True)
    return metrics


def assert_consecutive(values: List[int], label: str) -> None:
    """Assert a list of ints is consecutive ascending (stripe continuity)."""
    expected = list(range(values[0], values[0] + len(values)))
    assert values == expected, f"{label}: {values} not consecutive"
