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

from repro.switching.packet import Packet
from repro.switching.resequencer import ReorderingDetector
from repro.traffic.generator import TrafficGenerator

__all__ = ["make_packets", "PacketOracle", "drive_switch", "assert_consecutive"]


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


class PacketOracle:
    """Per-packet reference for the metrics fold.

    Observes departed packets one at a time, in observation order:
    ordering through :class:`ReorderingDetector` (fakes skipped, warm-up
    included), and for real packets that arrived at or after ``warmup``
    the delays and the stage delays of stamped packets.  Tests read
    per-packet facts off it and check the array fold
    (:class:`repro.sim.metrics._MetricsAccumulator`) against it.
    """

    def __init__(self, warmup: int = 0) -> None:
        self.warmup = warmup
        self.delays: List[int] = []
        self.reordering = ReorderingDetector()
        self.stages: List[Tuple[int, int, int]] = []

    def observe(self, p: Packet) -> None:
        if p.fake:
            return
        self.reordering.observe(p)
        if p.arrival_slot < self.warmup:
            return
        self.delays.append(p.delay)
        if p.assembled_slot >= 0 and p.tx_slot >= 0:
            self.stages.append((
                p.assembled_slot - p.arrival_slot,
                p.tx_slot - p.assembled_slot,
                p.departure_slot - p.tx_slot,
            ))

    @property
    def mean(self) -> float:
        return sum(self.delays) / len(self.delays)

    def breakdown(self) -> Dict[str, float]:
        """The ``mean_<stage>_delay`` extras a result reports."""
        names = ("assembly", "input_queue", "transit")
        return {
            f"mean_{name}_delay": sum(column) / len(self.stages)
            for name, column in zip(names, zip(*self.stages))
        }


def drive_switch(
    switch,
    source,
    num_slots: int,
    seed: int = 7,
    drain_slots: int = 0,
) -> PacketOracle:
    """Run ``switch`` for ``num_slots`` slots; return the per-packet oracle.

    ``source`` is a traffic matrix (Bernoulli traffic seeded by ``seed``)
    or any packet source with a ``slots(num_slots)`` method.  A
    lighter-weight alternative to the engine for correctness tests:
    every departure is measured (no warm-up discard).
    """
    traffic = source
    if not hasattr(source, "slots"):
        traffic = TrafficGenerator(source, np.random.default_rng(seed))
    oracle = PacketOracle()
    for slot, packets in traffic.slots(num_slots):
        for packet in switch.step(slot, packets):
            oracle.observe(packet)
    for packet in switch.drain(drain_slots):
        oracle.observe(packet)
    return oracle


def assert_consecutive(values: List[int], label: str) -> None:
    """Assert a list of ints is consecutive ascending (stripe continuity)."""
    expected = list(range(values[0], values[0] + len(values)))
    assert values == expected, f"{label}: {values} not consecutive"
