"""Vectorized kernel: the ideal output-queued reference switch."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ...traffic.batch import ArrivalBatch
from .base import (
    Departures,
    PolledQueueBank,
    StreamKernel,
    port_fifo_service,
)

__all__ = ["Stream", "departures"]


def departures(
    batch: ArrivalBatch, matrix: np.ndarray, seed: int
) -> Tuple[Departures, Optional[Dict[str, float]]]:
    """Replay the ideal output-queued reference switch."""
    departure = port_fifo_service(batch.outputs, batch.slots, batch.n)
    departure += 1  # cut-through floor of 1 slot
    dep = Departures(
        voq=batch.voqs,
        seq=batch.seqs,
        arrival=batch.slots,
        departure=departure,
        wire=batch.outputs,  # OQ departures are observed in output order
    )
    return dep, None


class Stream(StreamKernel):
    """Windowed replay of the OQ reference switch: one period-1 FIFO
    bank keyed by output."""

    def __init__(self, matrix: np.ndarray, seed: int, total_slots: int) -> None:
        super().__init__(matrix, seed, total_slots)
        # Arrivals reach the bank in generation order — FIFO order
        # within every output queue — so radix grouping suffices.
        self._bank = PolledQueueBank(
            np.zeros(self.n, dtype=np.int64), 1, presorted=True
        )

    def _replay(self, events, boundary):
        slots, _, outputs, voqs, seqs, gidx = events
        # Departure is service + 1, so finalize services below
        # boundary - 1 to keep finalized departures strictly windowed.
        service, _, payload = self._bank.feed(
            outputs,
            np.zeros(len(slots), dtype=np.uint8),
            slots,
            gidx,
            (voqs, seqs, slots, outputs),
            None if boundary is None else boundary - 1,
        )
        voq, seqs, slots, outputs = payload
        return Departures(
            voq=voq,
            seq=seqs,
            arrival=slots,
            departure=service + 1,
            wire=outputs,
        )
