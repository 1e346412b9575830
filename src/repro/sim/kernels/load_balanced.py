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
    """Windowed (and seed-stacked) replay of the baseline LB switch.

    Stage 1 is a bank of per-input FIFOs served every slot — a
    :class:`PolledQueueBank` with period 1 — and stage 2 the usual
    per-(mid, output) polled queues.
    """

    def __init__(self, matrix: np.ndarray, seeds, total_slots: int) -> None:
        super().__init__(matrix, seeds, total_slots)
        n = self.n
        # Stage-1 events arrive in generation order — FIFO order within
        # every input queue — so the bank can group by radix sort alone.
        self._stage1 = PolledQueueBank(
            np.zeros(self.num_blocks * n, dtype=np.int64), 1, presorted=True
        )
        self._stage2 = PolledQueueBank(
            np.tile(mid_residues(n), self.num_blocks), n
        )

    def _replay(self, events, boundary):
        n = self.n
        block, slots, inputs, outputs, seqs, gidx = events
        voq_x = block * n * n + inputs * n + outputs
        tx, _, payload = self._stage1.feed(
            block * n + inputs,
            np.zeros(len(slots), dtype=np.int64),
            slots,
            gidx,
            (voq_x, seqs, slots, inputs),
            boundary,
        )
        voq_x, seqs, slots, inputs = payload
        block = voq_x // (n * n)
        out = voq_x % n
        mid = (inputs + tx) % n
        departure, tx, payload = self._stage2.feed(
            block * n * n + mid * n + out,
            np.zeros(len(tx), dtype=np.int64),
            tx + 1,
            tx,
            (voq_x, seqs, slots, mid),
            boundary,
        )
        voq_x, seqs, slots, mid = payload
        return Departures(
            voq=voq_x,
            seq=seqs,
            arrival=slots,
            departure=departure,
            wire=mid,
            tx=tx,
        )
