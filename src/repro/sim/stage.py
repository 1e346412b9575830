"""The Stage protocol: a switch as a composable slot-window processor.

Both engines already share one implicit per-run contract: traffic is a
sequence of consecutive slot-windows of packets, and a switch turns them
into finalized slot-windows of departures.  This module makes that
contract explicit as the :class:`Stage` interface and gives it one
adapter per engine:

* :class:`KernelStage` wraps a switch model's resumable stream kernel
  (:class:`~repro.sim.kernels.base.StreamKernel`) — the vectorized replay;
* :class:`ObjectStage` wraps an object-engine switch instance, stepping
  it slot by slot over each window's packets.

The interface is the composition surface of multi-stage fabrics
(:mod:`repro.models.composite` / :mod:`repro.sim.composite`): stage-k
departures are, structurally, stage-(k+1) arrivals.  It is also what
:func:`repro.sim.fast_engine.run_single_fast` runs its windowed replay
through, so the single-switch path and the fabric path exercise the
same adapter.

Contract
--------
``feed(window)`` consumes one :class:`~repro.traffic.batch.ArrivalBatch`
covering ``[window.start_slot, window.end_slot)`` (windows arrive in
order, without gaps) and returns a :class:`~repro.sim.kernels.base.
Departures` record of every packet now *finalized* — guaranteed to
depart strictly before ``window.end_slot``, never to be re-emitted.
``finish(window=None)`` consumes the optional final window, flushes all
carried state (the drain phase), and returns the remaining departures
plus the switch's extras dict (or ``None``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import telemetry
from ..switching.packet import Packet
from ..traffic.batch import ArrivalBatch
from .kernels.base import Departures

__all__ = ["Stage", "KernelStage", "ObjectStage"]


class Stage:
    """One switch in a (possibly multi-stage) run, window interface."""

    #: Port count of the stage (windows and departures are N x N).
    n: int

    #: Telemetry label; fabric builds set ``stage{k}.{switch}`` so the
    #: per-stage feed/finish histograms are distinguishable in a chain.
    label: str = "stage"

    def feed(self, window: ArrivalBatch) -> Departures:
        """Consume one arrival window; return the finalized departures."""
        raise NotImplementedError

    def finish(
        self, window: Optional[ArrivalBatch] = None
    ) -> Tuple[Departures, Optional[Dict[str, float]]]:
        """Flush the stage: remaining departures plus the extras dict."""
        raise NotImplementedError


class KernelStage(Stage):
    """A stream kernel (vectorized resumable replay) behind the Stage
    interface.

    The Stage contract and the stream-kernel contract are the same thing
    seen from two sides; this adapter adds the per-stage telemetry.
    """

    def __init__(
        self,
        model,
        matrix: np.ndarray,
        seed: int,
        total_slots: int,
        params: Optional[Dict] = None,
        label: Optional[str] = None,
    ) -> None:
        if model.stream_kernel is None:
            raise ValueError(
                f"switch {model.name!r} has no stream kernel; it cannot "
                f"run as a streamed stage"
            )
        self.n = int(matrix.shape[0])
        self.model = model
        self.label = label or model.name
        self._feed_metric = f"stage.feed_s.{self.label}"
        self._finish_metric = f"stage.finish_s.{self.label}"
        self._streamer = model.stream_kernel(
            matrix, seed, total_slots, **(params or {})
        )

    def feed(self, window: ArrivalBatch) -> Departures:
        if not telemetry.enabled():
            return self._streamer.feed(window)
        with telemetry.trace("stage.feed", stage=self.label) as span:
            dep = self._streamer.feed(window)
            span.set(packets=len(window), finalized=len(dep.voq))
        telemetry.observe(self._feed_metric, span.span.dur_s)
        return dep

    def finish(
        self, window: Optional[ArrivalBatch] = None
    ) -> Tuple[Departures, Optional[Dict[str, float]]]:
        if not telemetry.enabled():
            return self._streamer.finish(window)
        with telemetry.trace("stage.finish", stage=self.label) as span:
            final, extras = self._streamer.finish(window)
            span.set(finalized=len(final.voq))
        telemetry.observe(self._finish_metric, span.span.dur_s)
        return final, extras


class ObjectStage(Stage):
    """An object-engine switch instance behind the Stage interface.

    Steps the switch one slot at a time over each window's packets and
    converts released packets to the :class:`Departures` record
    (:meth:`_collect`, which drops fakes).  ``wire`` is a running global
    observation rank (``wire_is_rank=True``): the object engine's
    within-slot observation order is definitional, so the rank *is* the
    tie-break.  :class:`~repro.sim.engine.SimulationEngine` steps its
    switch from a :class:`~repro.traffic.generator.TrafficGenerator`
    instead of windows, but collects, drains and harvests extras through
    this class, so both object paths fold alike.

    ``num_slots`` is the run's arrival horizon; the final drain steps at
    most ``max(50 * n, num_slots)`` extra slots.  This is the object
    engine's one drain horizon; :func:`repro.sim.kernels.frames.drain_cut`
    replays it.
    """

    def __init__(
        self, switch, num_slots: int, label: Optional[str] = None
    ) -> None:
        if num_slots <= 0:
            raise ValueError("num_slots must be positive")
        self.n = int(switch.n)
        self.switch = switch
        self.num_slots = int(num_slots)
        self.label = label or type(switch).__name__
        self._feed_metric = f"stage.feed_s.{self.label}"
        self._finish_metric = f"stage.finish_s.{self.label}"
        self._cursor = 0  # next slot to step
        self._rank = 0  # global observation rank

    def _collect(self, packets: List[Packet]) -> Departures:
        """Released packets (observation order) as a Departures record,
        fakes dropped."""
        n = self.n
        rows = np.array(
            [
                (p.input_port * n + p.output_port, p.seq, p.arrival_slot,
                 p.departure_slot, p.assembled_slot, p.tx_slot)
                for p in packets
                if not p.fake
            ],
            dtype=np.int64,
        ).reshape(-1, 6)
        voq, seq, arrival, departure, assembled, tx = rows.T.copy()
        count = len(voq)
        wire = np.arange(self._rank, self._rank + count, dtype=np.int64)
        self._rank += count
        stamped = count > 0 and bool(
            np.all(assembled >= 0) and np.all(tx >= 0)
        )
        return Departures(
            voq=voq,
            seq=seq,
            arrival=arrival,
            departure=departure,
            wire=wire,
            assembled=assembled if stamped else None,
            tx=tx if stamped else None,
            wire_is_rank=True,
        )

    def _step_window(self, window: ArrivalBatch) -> List[Packet]:
        """Step every slot of ``[cursor, window.end_slot)``; return the
        released packets in observation order."""
        if window.start_slot != self._cursor:
            raise ValueError(
                f"window starts at slot {window.start_slot}, expected "
                f"{self._cursor} (windows must be consecutive)"
            )
        if window.n != self.n:
            raise ValueError(
                f"window size {window.n} does not match stage size {self.n}"
            )
        n = self.n
        slots = window.slots
        bounds = np.searchsorted(
            slots, np.arange(self._cursor, window.end_slot + 1)
        )
        released: List[Packet] = []
        for k, slot in enumerate(range(self._cursor, window.end_slot)):
            lo, hi = int(bounds[k]), int(bounds[k + 1])
            arrivals = [
                Packet(
                    input_port=int(window.inputs[i]),
                    output_port=int(window.outputs[i]),
                    arrival_slot=int(slots[i]),
                    seq=int(window.seqs[i]),
                )
                for i in range(lo, hi)
            ]
            released.extend(self.switch.step(slot, arrivals))
        self._cursor = window.end_slot
        return released

    def feed(self, window: ArrivalBatch) -> Departures:
        if not telemetry.enabled():
            return self._collect(self._step_window(window))
        with telemetry.trace("stage.feed", stage=self.label) as span:
            dep = self._collect(self._step_window(window))
            span.set(packets=len(window), finalized=len(dep.voq))
        telemetry.observe(self._feed_metric, span.span.dur_s)
        return dep

    def finish(
        self, window: Optional[ArrivalBatch] = None
    ) -> Tuple[Departures, Optional[Dict[str, float]]]:
        with telemetry.trace("stage.finish", stage=self.label) as span:
            packets: List[Packet] = []
            if window is not None:
                packets.extend(self._step_window(window))
            limit = max(50 * self.n, self.num_slots)
            packets.extend(self.switch.drain(limit))
            dep = self._collect(packets)
            span.set(finalized=len(dep.voq))
        if span.span is not None:
            telemetry.observe(self._finish_metric, span.span.dur_s)
        return dep, self._extras()

    def _extras(self) -> Optional[Dict[str, float]]:
        """Harvest the switch telemetry every object run reports."""
        switch = self.switch
        extras: Dict[str, float] = {}
        if getattr(switch, "dropped", 0):
            extras["dropped"] = float(switch.dropped)
            extras["loss_rate"] = switch.dropped / max(1, switch.injected)
        if hasattr(switch, "max_resequencer_occupancy"):
            extras["max_resequencer"] = float(
                switch.max_resequencer_occupancy()
            )
        if hasattr(switch, "padding_overhead"):
            extras["padding_overhead"] = float(switch.padding_overhead())
        if hasattr(switch, "max_input_backlog"):
            extras["max_input_backlog"] = float(switch.max_input_backlog())
        if hasattr(switch, "resizes"):
            extras["resizes"] = float(switch.resizes)
        return extras or None
