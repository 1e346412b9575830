"""Vectorized kernel: Uniform Frame Spreading (paper §2.2)."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ...traffic.batch import ArrivalBatch
from .base import (
    Departures,
    PolledQueueBank,
    StreamKernel,
    UnitAssembler,
    composite_argsort,
    mid_residues,
    periodic_fifo_service,
    replay_polled_queues,
    unit_completion,
)

__all__ = ["Stream", "departures"]


def departures(
    batch: ArrivalBatch, matrix: np.ndarray, seed: int
) -> Tuple[Departures, Optional[Dict[str, float]]]:
    """Replay Uniform Frame Spreading (full-frame aggregation)."""
    n = batch.n
    # Only packets of completed frames ever leave their VOQ.  Each VOQ
    # contributes whole frames, so frame f is rows [f * n, f * n + n).
    packet, voq, mid, c = unit_completion(
        batch, np.full(n * n, n, dtype=np.int64)
    )[:4]
    # Packet `mid` of a frame crosses to intermediate port `mid` at
    # start + mid.
    tx = np.repeat(_frame_starts(voq, c, packet, n), n)
    tx += mid
    departure = replay_polled_queues(
        mid * n + voq % n,
        np.broadcast_to(0, len(tx)),
        tx + 1,
        tx,
        mid_residues(n),
        n,
    )
    dep = Departures(
        voq=voq,
        seq=batch.seqs[packet],
        arrival=batch.slots[packet],
        departure=departure,
        wire=mid,
        assembled=c,
        tx=tx,
    )
    return dep, None


def _frame_starts(
    voq: np.ndarray, c: np.ndarray, packet: np.ndarray, n: int
) -> np.ndarray:
    """Start slot of every completed frame (frame f: rows f*n .. f*n+n-1).

    Frame spreading is cycle-aligned: a frame starts only when fabric 1
    connects the input to intermediate 0 (t ≡ -i mod n), frames FCFS per
    input by completion, back to back at best (one poll cycle apart) —
    the running-max recursion over each input's frame sequence.
    """
    last = slice(n - 1, None, n)  # each frame's completing packet
    f_inp = voq[last] // n
    f_c = c[last]
    f_sort = np.lexsort((packet[last], f_inp))
    start = np.empty(len(f_inp), dtype=np.int64)
    # No completed frame at all (short run / tiny load): nothing departs.
    bounds = np.flatnonzero(
        np.r_[True, f_inp[f_sort][1:] != f_inp[f_sort][:-1], True]
    ) if len(f_inp) else np.empty(1, dtype=np.int64)
    for b in range(len(bounds) - 1):
        lo, hi = bounds[b], bounds[b + 1]
        i = int(f_inp[f_sort[lo]])
        residue = (-i) % n
        ready = f_c[f_sort[lo:hi]]
        start[f_sort[lo:hi]] = periodic_fifo_service(ready, residue, n)
    return start


class Stream(StreamKernel):
    """Windowed (and seed-stacked) replay of Uniform Frame Spreading.

    Full frames assemble in a :class:`UnitAssembler`; each completed
    frame then waits as *one event* in a per-input periodic FIFO bank
    for its cycle-aligned start slot (packets are parked in a side store
    keyed by the frame's completion index until then), and finally the
    frame's packets replay through the stage-2 polled queues.
    """

    def __init__(self, matrix: np.ndarray, seeds, total_slots: int) -> None:
        super().__init__(matrix, seeds, total_slots)
        n = self.n
        self._assembler = UnitAssembler(
            np.full(self.num_blocks * n * n, n, dtype=np.int64)
        )
        ports = np.arange(n, dtype=np.int64)
        # (Frames are emitted VOQ-grouped, not completion-ordered, so
        # this bank cannot use the presorted radix grouping.)
        self._frame_bank = PolledQueueBank(
            np.tile((-ports) % n, self.num_blocks), n
        )
        self._stage2 = PolledQueueBank(
            np.tile(mid_residues(n), self.num_blocks), n
        )
        # Packets of completed frames awaiting their frame's start slot,
        # sorted by (frame key, position).  The frame key is the
        # completing packet's generation index, block-tagged for
        # cross-seed uniqueness.
        empty = np.empty(0, dtype=np.int64)
        self._parked = (empty,) * 6  # fkey, voq_x, seq, slot, pos, c_slot

    def _replay(self, events, boundary):
        """Assemble frames, then run the frame-start FIFO and stage 2 up
        to ``boundary``."""
        n = self.n
        block, slots, inputs, outputs, seqs, gidx = events
        voq_c, slot_c, seq_c, _, pos_c, c_slot, c_order = self._assembler.feed(
            block * n * n + inputs * n + outputs, slots, seqs, gidx
        )
        blk_c = voq_c // (n * n)
        fkey = c_order * self.num_blocks + blk_c
        last = pos_c == n - 1
        # Frame events: queue = block * n + input, ready = completion
        # slot, FIFO order = completion index (per-input completion
        # order, as in the monolithic kernel).
        f_queue = blk_c[last] * n + (voq_c[last] % (n * n)) // n
        start, _, payload = self._frame_bank.feed(
            f_queue, np.zeros(len(f_queue), dtype=np.int64),
            c_slot[last], c_order[last], (fkey[last],), boundary,
        )
        (done_key,) = payload

        # Park the new frames' packets, keep the store (fkey, pos)-sorted.
        fkey, voq_x, seq, slot, pos, c_slot = tuple(
            np.concatenate([old, new])
            for old, new in zip(
                self._parked, (fkey, voq_c, seq_c, slot_c, pos_c, c_slot)
            )
        )
        order = composite_argsort(fkey, pos) if len(fkey) else fkey
        fkey, voq_x, seq, slot, pos, c_slot = (
            fkey[order], voq_x[order], seq[order], slot[order],
            pos[order], c_slot[order],
        )

        # Release the packets of frames whose start slot is now final.
        key_order = np.argsort(done_key)
        done_sorted = done_key[key_order]
        start_sorted = start[key_order]
        at = np.searchsorted(done_sorted, fkey)
        member = np.zeros(len(fkey), dtype=bool)
        if len(done_sorted):
            inb = at < len(done_sorted)
            member[inb] = done_sorted[at[inb]] == fkey[inb]
        keep = ~member
        self._parked = (
            fkey[keep], voq_x[keep], seq[keep], slot[keep],
            pos[keep], c_slot[keep],
        )
        frame_start = np.zeros(int(member.sum()), dtype=np.int64)
        if len(done_sorted):
            frame_start = start_sorted[at[member]]
        voq_x, seq, slot, pos, c_slot = (
            voq_x[member], seq[member], slot[member], pos[member],
            c_slot[member],
        )
        tx = frame_start + pos
        block = voq_x // (n * n)
        out = voq_x % n
        departure, tx, payload = self._stage2.feed(
            block * n * n + pos * n + out,
            np.zeros(len(tx), dtype=np.int64),
            tx + 1,
            tx,
            (voq_x, seq, slot, pos, c_slot),
            boundary,
        )
        voq_x, seq, slot, pos, c_slot = payload
        return Departures(
            voq=voq_x,
            seq=seq,
            arrival=slot,
            departure=departure,
            wire=pos,
            assembled=c_slot,
            tx=tx,
        )
