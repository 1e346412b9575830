"""Packet-trace recording and replay (CSV on disk).

Records the exact arrival stream of any generator run and replays it
byte-identically later — the tool for regression-pinning a workload, for
sharing workloads between experiments, and for replaying externally
captured traces through the switches.

Format: a plain CSV with header ``slot,input,output,flow`` (flow empty for
unlabelled packets), sorted by slot. Human-diffable on purpose.  Paths
ending in ``.gz`` are compressed transparently (write and read), so
recorded scenario traces can ship in repos and CI artifacts without
bloat — ``zcat`` still yields the same diffable CSV.
"""

from __future__ import annotations

import csv
import gzip
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from .. import telemetry
from ..switching.packet import Packet
from .batch import ArrivalBatch, assign_voq_seqs
from .generator import TrafficGenerator

logger = telemetry.get_logger(__name__)

__all__ = [
    "TraceBatchSource",
    "record_trace",
    "write_trace",
    "read_trace",
    "replay_generator",
    "trace_matrix",
]

TraceEvent = Tuple[int, int, int, Optional[int]]  # slot, input, output, flow


def _report_truncation(beyond: int, total: int, num_slots: int) -> None:
    """A truncated replay drops events — surface it through the telemetry
    logger (WARNING: the run is still valid, just shorter than the trace)
    and count the dropped events so sweeps can audit it after the fact."""
    telemetry.count("trace.truncated_events", beyond)
    logger.warning(
        "replaying %d slots truncates the trace: %d of %d events arrive "
        "at slot >= %d and will not be injected (throughput metrics "
        "would silently undercount `generated`)",
        num_slots, beyond, total, num_slots,
    )


def record_trace(
    generator: TrafficGenerator, num_slots: int
) -> List[TraceEvent]:
    """Run a generator and capture its arrival stream as trace events."""
    events: List[TraceEvent] = []
    for slot, packets in generator.slots(num_slots):
        for p in packets:
            events.append((slot, p.input_port, p.output_port, p.flow_id))
    return events


def _open_trace(path: Union[str, Path], mode: str):
    """Text handle for a trace file; ``.gz`` suffixes gzip transparently."""
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", newline="")
    return open(path, mode, newline="")


def write_trace(path: Union[str, Path], events: Iterable[TraceEvent]) -> int:
    """Write trace events as CSV (gzip'd for ``*.gz`` paths); returns the
    number of events written."""
    count = 0
    with _open_trace(path, "w") as handle:
        writer = csv.writer(handle)
        writer.writerow(["slot", "input", "output", "flow"])
        for slot, inp, out, flow in events:
            writer.writerow([slot, inp, out, "" if flow is None else flow])
            count += 1
    return count


def read_trace(path: Union[str, Path]) -> List[TraceEvent]:
    """Read trace events back from CSV, plain or gzip'd (validating the
    header)."""
    events: List[TraceEvent] = []
    with _open_trace(path, "r") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["slot", "input", "output", "flow"]:
            raise ValueError(f"not a packet trace (header {header!r})")
        for row in reader:
            slot, inp, out, flow = row
            events.append(
                (int(slot), int(inp), int(out), int(flow) if flow else None)
            )
    return events


class _ReplaySource:
    """Slot-stream adapter feeding recorded events to a switch."""

    def __init__(self, n: int, events: List[TraceEvent]) -> None:
        self.n = n
        self._events = events
        self.generated = 0

    def slots(self, num_slots: int):
        beyond = sum(1 for event in self._events if event[0] >= num_slots)
        if beyond:
            _report_truncation(beyond, len(self._events), num_slots)
        cursor = 0
        seqs = {}
        for slot in range(num_slots):
            events: List[TraceEvent] = []
            while cursor < len(self._events) and self._events[cursor][0] == slot:
                events.append(self._events[cursor])
                cursor += 1
            # Within a slot, deliver in input-port order (stable for
            # ties) — the order TrafficGenerator pins, and the same
            # normalization TraceBatchSource applies, so object and
            # vectorized trace replays see one identical stream.
            events.sort(key=lambda event: event[1])
            packets: List[Packet] = []
            for _, inp, out, flow in events:
                seq = seqs.get((inp, out), 0)
                seqs[(inp, out)] = seq + 1
                packets.append(
                    Packet(
                        input_port=inp,
                        output_port=out,
                        arrival_slot=slot,
                        seq=seq,
                        flow_id=flow,
                    )
                )
                self.generated += 1
            yield slot, packets


def replay_generator(n: int, events: List[TraceEvent]) -> _ReplaySource:
    """A generator-compatible source that replays recorded events.

    The result exposes ``n``, ``generated`` and ``slots()`` — the subset
    of the :class:`TrafficGenerator` interface the simulation engine and
    switches consume — and re-derives per-VOQ sequence numbers in event
    order, so reordering measurement works identically on replay.
    """
    last_slot = -1
    for slot, inp, out, _ in events:
        if slot < last_slot:
            raise ValueError("trace events must be sorted by slot")
        last_slot = slot
        if not 0 <= inp < n or not 0 <= out < n:
            raise ValueError(f"event port out of range for n={n}")
    return _ReplaySource(n, list(events))


def trace_matrix(n: int, events: List[TraceEvent]) -> np.ndarray:
    """Empirical VOQ count matrix of a trace — the provisioning shape a
    trace scenario rescales to its target load."""
    if not events:
        raise ValueError("trace has no events; cannot derive a matrix")
    counts = np.zeros((n, n))
    inputs = np.asarray([event[1] for event in events], dtype=np.int64)
    outputs = np.asarray([event[2] for event in events], dtype=np.int64)
    if inputs.min() < 0 or inputs.max() >= n or outputs.min() < 0 or (
        outputs.max() >= n
    ):
        raise ValueError(f"event port out of range for n={n}")
    np.add.at(counts, (inputs, outputs), 1.0)
    return counts


class TraceBatchSource:
    """Trace replay as a batch packet source for the vectorized engine.

    Duck-types the :class:`~repro.traffic.batch.BatchTrafficGenerator`
    surface the engines consume — ``n``, ``generated``, ``draw`` and
    ``draw_chunks`` — replaying the recorded events instead of drawing
    randomness.  Events are normalized to ``(slot, input)`` order
    (stable for equal inputs) with per-VOQ sequence numbers assigned in
    that delivery order: exactly what :func:`replay_generator` feeds the
    object engine, so seeded trace-replay parity between engines is
    structural, not statistical.

    One instance replays one run: ``draw`` and ``draw_chunks`` both
    start at slot 0 (sequence counters reset per call).
    """

    def __init__(self, n: int, events: List[TraceEvent]) -> None:
        last_slot = -1
        for slot, inp, out, _ in events:
            if slot < last_slot:
                raise ValueError("trace events must be sorted by slot")
            last_slot = slot
            if not 0 <= inp < n or not 0 <= out < n:
                raise ValueError(f"event port out of range for n={n}")
        self.n = int(n)
        self.generated = 0
        slots = np.asarray([e[0] for e in events], dtype=np.int64)
        inputs = np.asarray([e[1] for e in events], dtype=np.int64)
        outputs = np.asarray([e[2] for e in events], dtype=np.int64)
        order = np.lexsort((inputs, slots))
        self._slots = slots[order]
        self._inputs = inputs[order]
        self._outputs = outputs[order]
        self._total = len(events)

    def _warn_truncation(self, num_slots: int) -> None:
        beyond = int(np.sum(self._slots >= num_slots))
        if beyond:
            _report_truncation(beyond, self._total, num_slots)

    def _window(
        self,
        start_slot: int,
        end_slot: int,
        seq_next: np.ndarray,
    ) -> ArrivalBatch:
        lo, hi = np.searchsorted(self._slots, [start_slot, end_slot])
        slots = self._slots[lo:hi]
        inputs = self._inputs[lo:hi]
        outputs = self._outputs[lo:hi]
        seqs = assign_voq_seqs(inputs * self.n + outputs, seq_next, self.n)
        self.generated += len(slots)
        # A trace may put several events of one input in a slot, so its
        # event count bounds the seqs too.
        return ArrivalBatch.of(
            n=self.n,
            num_slots=end_slot - start_slot,
            slots=slots,
            inputs=inputs,
            outputs=outputs,
            seqs=seqs,
            start_slot=start_slot,
            horizon=max(end_slot, self._total),
        )

    def draw(self, num_slots: int) -> ArrivalBatch:
        """The whole replay (events below ``num_slots``) as one batch."""
        if num_slots <= 0:
            raise ValueError("num_slots must be positive")
        self._warn_truncation(num_slots)
        seq_next = np.zeros(self.n * self.n, dtype=np.int64)
        return self._window(0, num_slots, seq_next)

    def draw_chunks(
        self, num_slots: int, window_slots: int
    ) -> Iterator[ArrivalBatch]:
        """The replay as consecutive ``window_slots``-slot windows."""
        if num_slots <= 0:
            raise ValueError("num_slots must be positive")
        if window_slots <= 0:
            raise ValueError("window_slots must be positive")
        self._warn_truncation(num_slots)
        seq_next = np.zeros(self.n * self.n, dtype=np.int64)
        for start in range(0, num_slots, window_slots):
            end = min(start + window_slots, num_slots)
            yield self._window(start, end, seq_next)
