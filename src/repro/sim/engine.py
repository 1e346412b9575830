"""Slotted-time simulation driver: the object engine.

Wires a traffic generator to a switch, steps them slot by slot, drains
the switch after the arrival stream ends (so late packets are still
checked for ordering), and folds the released packets through the one
metrics fold (:class:`repro.sim.metrics._MetricsAccumulator`) in bounded
blocks.  Delays are measured only for packets that *arrived* after the
warm-up window, so start-up transients do not bias the averages.
"""

from __future__ import annotations

from typing import List

from ..switching.packet import Packet
from ..traffic.generator import TrafficGenerator
from .metrics import SimulationResult, _MetricsAccumulator
from .stage import ObjectStage

__all__ = ["SimulationEngine", "simulate"]

#: Released packets per folded block: memory is O(block), not O(run).
_FOLD_BLOCK = 4096


class SimulationEngine:
    """Runs one switch against one traffic generator.

    Parameters
    ----------
    switch:
        Any object with the ``step(slot, arrivals) -> departures`` protocol
        (all switches in :mod:`repro.switching` and
        :mod:`repro.core.sprinklers_switch`).
    traffic:
        The packet source.
    warmup_fraction:
        Fraction of the run treated as warm-up (delay samples from packets
        arriving in this window are discarded).
    keep_samples:
        Retain every delay in observation order, for the confidence
        interval of :meth:`SimulationResult.delay_ci` (off for very long
        runs to save memory).

    Collecting, draining and the extras go through
    :class:`~repro.sim.stage.ObjectStage`, as a fabric's object stages do.
    """

    def __init__(
        self,
        switch,
        traffic: TrafficGenerator,
        warmup_fraction: float = 0.1,
        keep_samples: bool = True,
    ) -> None:
        if switch.n != traffic.n:
            raise ValueError(
                f"switch size {switch.n} != traffic size {traffic.n}"
            )
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        self.switch = switch
        self.traffic = traffic
        self.warmup_fraction = warmup_fraction
        self.keep_samples = keep_samples

    def run(self, num_slots: int, load_label: float = float("nan")) -> SimulationResult:
        """Simulate ``num_slots`` slots of arrivals; return the summary."""
        switch = self.switch
        stage = ObjectStage(switch, num_slots)  # rejects num_slots <= 0
        acc = _MetricsAccumulator(
            switch.n, int(num_slots * self.warmup_fraction), self.keep_samples
        )
        released: List[Packet] = []
        for slot, packets in self.traffic.slots(num_slots):
            released.extend(switch.step(slot, packets))
            if len(released) >= _FOLD_BLOCK:
                acc.add(stage._collect(released))
                released = []
        acc.add(stage._collect(released))
        final, extras = stage.finish()
        acc.add(final)
        return acc.result(
            switch.name, switch.injected, num_slots, load_label, extras
        )


def simulate(
    switch,
    traffic: TrafficGenerator,
    num_slots: int,
    load_label: float = float("nan"),
    **engine_kwargs,
) -> SimulationResult:
    """One-call convenience wrapper around :class:`SimulationEngine`."""
    engine = SimulationEngine(switch, traffic, **engine_kwargs)
    return engine.run(num_slots, load_label=load_label)
