"""Vectorized kernel: the baseline load-balanced switch (Chang et al.)."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ...traffic.batch import ArrivalBatch
from .base import (
    Departures,
    PolledQueueBank,
    StreamKernel,
    mid_residues,
    port_fifo_service,
    replay_polled_queues,
)

__all__ = ["Stream", "departures"]


def departures(
    batch: ArrivalBatch, matrix: np.ndarray, seed: int
) -> Tuple[Departures, Optional[Dict[str, float]]]:
    """Replay the baseline load-balanced switch (no aggregation, reorders)."""
    n = batch.n
    # Stage 1: one FIFO per input, served every slot.  Arrivals are
    # already (slot, input)-sorted, hence in FIFO order within each input.
    tx = port_fifo_service(batch.inputs, batch.slots, n)
    mid = batch.inputs + tx
    mid %= n
    departure = replay_polled_queues(
        mid * n + batch.outputs,
        np.broadcast_to(0, len(tx)),
        tx + 1,
        tx,
        mid_residues(n),
        n,
    )
    dep = Departures(
        voq=batch.voqs,
        seq=batch.seqs,
        arrival=batch.slots,
        departure=departure,
        wire=mid,
        tx=tx,
    )
    return dep, None


class Stream(StreamKernel):
    """Windowed replay of the baseline LB switch.

    Stage 1 is a bank of per-input FIFOs served every slot — a
    :class:`PolledQueueBank` with period 1 — and stage 2 the usual
    per-(mid, output) polled queues.
    """

    def __init__(self, matrix: np.ndarray, seed: int, total_slots: int) -> None:
        super().__init__(matrix, seed, total_slots)
        n = self.n
        # Stage-1 events arrive in generation order — FIFO order within
        # every input queue — so the bank can group by radix sort alone.
        self._stage1 = PolledQueueBank(
            np.zeros(n, dtype=np.int64), 1, presorted=True
        )
        self._stage2 = PolledQueueBank(mid_residues(n), n)

    def _replay(self, events, boundary):
        n = self.n
        slots, inputs, _, voqs, seqs, gidx = events
        tx, _, payload = self._stage1.feed(
            inputs,
            np.zeros(len(slots), dtype=np.uint8),
            slots,
            gidx,
            (voqs, seqs, slots, inputs),
            boundary,
        )
        voq, seqs, slots, inputs = payload
        mid = (inputs + tx) % n
        departure, tx, payload = self._stage2.feed(
            mid * n + voq % n,
            np.zeros(len(tx), dtype=np.uint8),
            tx + 1,
            tx,
            (voq, seqs, slots, mid),
            boundary,
        )
        voq, seqs, slots, mid = payload
        return Departures(
            voq=voq,
            seq=seqs,
            arrival=slots,
            departure=departure,
            wire=mid,
            tx=tx,
        )
