"""Vectorized kernel: Padded Frames (paper §2.3, Jaramillo-Milan-Srikant).

PF is UFS with a padding escape hatch: an input with no full frame pads
its longest VOQ (if it holds at least ``threshold = max(1, N // 2)``
packets, matching :class:`~repro.switching.pf.PaddedFramesSwitch`'s
default) up to a full frame with fake cells.  Padding is deterministic
given frame formation — which VOQ is padded, and by how much, is a pure
function of the cycle-boundary occupancies — so the whole data path
replays exactly:

1. frame formation per input per cycle (:mod:`.frames`);
2. every frame, padded or not, deposits cell ``k`` (real packets first,
   then fakes) on intermediate port ``k`` at ``start + k``;
3. the per-output intermediate FIFOs replay as polled queues — with the
   fake cells *included*, because they consume stage-2 service like real
   ones (that is the price of padding the paper charges PF for);
4. fakes are discarded at the output: excluded from the departure record
   but counted for the ``padding_overhead`` extra.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ...traffic.batch import ArrivalBatch, stable_voq_argsort
from .base import (
    Departures,
    PolledQueueBank,
    StreamKernel,
    concat_ranges,
    mid_residues,
    replay_polled_queues,
)
from .frames import (
    FrameFormationStream,
    FramedPacketBuffer,
    build_frame_schedule,
    check_rule,
    drain_cut,
    drain_horizon,
    frame_membership,
    pf_rule,
    voq_grouping,
)

__all__ = ["Stream", "departures"]


def _check_threshold(n: int, threshold: Optional[int]) -> int:
    if threshold is None:
        threshold = max(1, n // 2)
    check_rule(pf_rule(threshold), n)
    return threshold


def departures(
    batch: ArrivalBatch,
    matrix: np.ndarray,
    seed: int,
    threshold: Optional[int] = None,
) -> Tuple[Departures, Optional[Dict[str, float]]]:
    """Replay the Padded Frames switch (in VOQ-grouped rows, like FOFF)."""
    n = batch.n
    threshold = _check_threshold(n, threshold)
    schedule = build_frame_schedule(batch, pf_rule(threshold))
    grouping = voq_grouping(batch)
    rows, assembled, tx = frame_membership(grouping, schedule)
    # Real cell k of a frame crosses to intermediate k at assembled + k.
    tx += assembled
    voq = grouping.voqs()[rows]
    fake_queue, fake_tx, _ = _fake_cells(schedule, n)
    service = replay_polled_queues(
        np.concatenate([(tx - assembled) * n + voq % n, fake_queue]),
        np.broadcast_to(0, len(tx) + len(fake_tx)),
        np.concatenate([tx, fake_tx]) + 1,
        np.concatenate([tx, fake_tx]),
        mid_residues(n),
        n,
    )
    # The object engine's drain phase is finite: cells that would depart
    # after its horizon stay in flight there and are never observed.
    cut = drain_horizon(batch)
    departure = service[: len(tx)]
    departed = departure <= cut
    fakes_departed = int(np.count_nonzero(service[len(tx) :] <= cut))
    packet = stable_voq_argsort(batch.voqs, n)[rows]  # framed rows -> batch rows
    if not departed.all():
        voq, departure, assembled, tx, packet = (
            voq[departed], departure[departed], assembled[departed],
            tx[departed], packet[departed],
        )
    dep = Departures(
        voq=voq,
        seq=batch.seqs[packet],
        arrival=batch.slots[packet],
        departure=departure,
        wire=tx - assembled,
        assembled=assembled,
        tx=tx,
    )
    sent = len(departure) + fakes_departed
    extras = {"padding_overhead": fakes_departed / sent if sent else 0.0}
    return dep, extras


def _fake_cells(schedule, n: int):
    """Stage-2 events of a frame schedule's fake cells.

    Fake cells fill positions size .. n-1 of their frame, heading to the
    padded VOQ's output.  Returns ``(queue_local, tx, block)`` — the
    (mid, output) queue id within the frame's seed block, the crossing
    slot, and the block.
    """
    padded = schedule.fakes > 0
    reps = schedule.fakes[padded]
    num_fakes = int(reps.sum())
    if num_fakes == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    fake_pos = concat_ranges(schedule.size[padded], reps)
    fake_tx = np.repeat(schedule.slot[padded], reps) + fake_pos
    voq_x = np.repeat(schedule.voq[padded], reps)
    fake_out = voq_x % n
    block = voq_x // (n * n)
    return fake_pos * n + fake_out, fake_tx, block


class Stream(StreamKernel):
    """Windowed (and seed-stacked) replay of the Padded Frames switch.

    Frame formation streams cycle-by-cycle (:class:`FrameFormationStream`),
    framed packets and fake cells enter the stage-2 polled queues as they
    form, and the object engine's finite drain horizon is applied to the
    flushed services at the end — exactly the monolithic pipeline, window
    at a time.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        seeds,
        total_slots: int,
        threshold: Optional[int] = None,
    ) -> None:
        super().__init__(matrix, seeds, total_slots)
        n = self.n
        threshold = _check_threshold(n, threshold)
        self._formation = FrameFormationStream(
            n, self.num_blocks, pf_rule(threshold)
        )
        self._packets = FramedPacketBuffer(self.num_blocks * n * n)
        self._stage2 = PolledQueueBank(
            np.tile(mid_residues(n), self.num_blocks), n
        )
        # The drain horizon needs the run length: services past it are
        # unobserved in the object engine.
        self._cut = drain_cut(total_slots, n)
        self._fakes_departed = np.zeros(self.num_blocks, dtype=np.int64)
        self._real_departed = np.zeros(self.num_blocks, dtype=np.int64)

    def _replay(self, events, boundary):
        n = self.n
        block, slots, inputs, outputs, seqs, gidx = events
        schedule = self._formation.feed(
            block, slots, inputs, outputs, boundary
        )
        voq_x, slot, seq, gidx, rank, assembled, position = (
            self._packets.feed(
                block * n * n + inputs * n + outputs, slots, seqs, gidx,
                schedule,
            )
        )
        tx = assembled + position
        block = voq_x // (n * n)
        out = voq_x % n
        fake_queue, fake_tx, fake_block = _fake_cells(schedule, n)
        is_fake = np.concatenate([
            np.zeros(len(tx), dtype=np.int64),
            np.ones(len(fake_tx), dtype=np.int64),
        ])
        zero = np.zeros(len(fake_tx), dtype=np.int64)
        queues = np.concatenate([
            block * n * n + position * n + out,
            fake_block * n * n + fake_queue,
        ])
        ready = np.concatenate([tx, fake_tx]) + 1
        fifo_order = np.concatenate([tx, fake_tx])
        payload = (
            np.concatenate([voq_x, fake_block * n * n]),
            np.concatenate([seq, zero]),
            np.concatenate([slot, zero]),
            np.concatenate([position, zero]),
            np.concatenate([assembled, zero]),
            is_fake,
        )
        service, tx, payload = self._stage2.feed(
            queues,
            np.zeros(len(queues), dtype=np.int64),
            ready,
            fifo_order,
            payload,
            boundary,
        )
        voq_x, seq, slot, position, assembled, is_fake = payload
        # The object engine's drain phase is finite: cells that would
        # depart after its horizon stay in flight there, unobserved.
        # Window-finalized services are always below the horizon (the
        # boundary never exceeds the run length); the final flush is
        # where the cut actually bites.
        seen = service <= self._cut
        block = voq_x // (n * n)
        fake = is_fake == 1
        np.add.at(self._fakes_departed, block[fake & seen], 1)
        real = ~fake & seen
        np.add.at(self._real_departed, block[real], 1)
        return Departures(
            voq=voq_x[real],
            seq=seq[real],
            arrival=slot[real],
            departure=service[real],
            wire=position[real],
            assembled=assembled[real],
            tx=tx[real],
        )

    def _extras(self):
        extras = []
        for b in range(self.num_blocks):
            sent = int(self._real_departed[b] + self._fakes_departed[b])
            extras.append({
                "padding_overhead": (
                    int(self._fakes_departed[b]) / sent if sent else 0.0
                )
            })
        return extras
