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

from ...traffic.batch import ArrivalBatch, stable_id_argsort
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
    slot = batch.slots.dtype
    schedule = build_frame_schedule(batch, pf_rule(threshold))
    grouping = voq_grouping(batch)
    rows, assembled, tx = frame_membership(grouping, schedule, slot)
    # Real cell k of a frame crosses to intermediate k at assembled + k.
    tx += assembled
    voq = grouping.voqs()[rows]
    fake_queue, fake_tx = _fake_cells(schedule, n, slot)
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
    # Framed rows -> batch rows.
    packet = stable_id_argsort(batch.voqs, n * n).astype(slot)[rows]
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


def _fake_cells(schedule, n: int, dtype: type):
    """Stage-2 events of a frame schedule's fake cells.

    Fake cells fill positions size .. n-1 of their frame, heading to the
    padded VOQ's output.  Returns ``(queue, tx)`` — the (mid, output)
    queue id and the crossing slot — as ``dtype`` arrays.
    """
    padded = schedule.fakes > 0
    reps = schedule.fakes[padded]
    num_fakes = int(reps.sum())
    if num_fakes == 0:
        empty = np.empty(0, dtype=dtype)
        return empty, empty
    fake_pos = concat_ranges(schedule.size[padded], reps, dtype)
    fake_tx = np.repeat(schedule.slot[padded].astype(dtype), reps)
    fake_tx += fake_pos
    fake_out = np.repeat((schedule.voq[padded] % n).astype(dtype), reps)
    fake_pos *= n
    fake_pos += fake_out
    return fake_pos, fake_tx


class Stream(StreamKernel):
    """Windowed replay of the Padded Frames switch.

    Frame formation streams cycle-by-cycle (:class:`FrameFormationStream`),
    framed packets and fake cells enter the stage-2 polled queues as they
    form, and the object engine's finite drain horizon is applied to the
    flushed services at the end — exactly the monolithic pipeline, window
    at a time.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        seed: int,
        total_slots: int,
        threshold: Optional[int] = None,
    ) -> None:
        super().__init__(matrix, seed, total_slots)
        n = self.n
        threshold = _check_threshold(n, threshold)
        self._formation = FrameFormationStream(n, pf_rule(threshold))
        self._packets = FramedPacketBuffer(n * n, self._types)
        self._stage2 = PolledQueueBank(mid_residues(n), n)
        # The drain horizon needs the run length: services past it are
        # unobserved in the object engine.
        self._cut = drain_cut(total_slots, n)
        self._fakes_departed = 0
        self._real_departed = 0

    def _replay(self, events, boundary):
        n = self.n
        slots, inputs, outputs, voqs, seqs, gidx = events
        schedule = self._formation.feed(slots, inputs, outputs, boundary)
        voq, slot, seq, gidx, rank, assembled, position = (
            self._packets.feed(voqs, slots, seqs, gidx, schedule)
        )
        tx = assembled + position
        fake_queue, fake_tx = _fake_cells(schedule, n, tx.dtype)
        is_fake = np.concatenate([
            np.zeros(len(tx), dtype=np.uint8),
            np.ones(len(fake_tx), dtype=np.uint8),
        ])
        zero = np.zeros(len(fake_tx), dtype=np.uint8)
        queues = np.concatenate([position * n + voq % n, fake_queue])
        ready = np.concatenate([tx, fake_tx]) + 1
        fifo_order = np.concatenate([tx, fake_tx])
        payload = (
            np.concatenate([voq, zero]),
            np.concatenate([seq, zero]),
            np.concatenate([slot, zero]),
            np.concatenate([position, zero]),
            np.concatenate([assembled, zero]),
            is_fake,
        )
        service, tx, payload = self._stage2.feed(
            queues,
            np.zeros(len(queues), dtype=np.uint8),
            ready,
            fifo_order,
            payload,
            boundary,
        )
        voq, seq, slot, position, assembled, is_fake = payload
        # The object engine's drain phase is finite: cells that would
        # depart after its horizon stay in flight there, unobserved.
        # Window-finalized services are always below the horizon (the
        # boundary never exceeds the run length); the final flush is
        # where the cut actually bites.
        seen = service <= self._cut
        fake = is_fake == 1
        self._fakes_departed += int(np.count_nonzero(fake & seen))
        real = ~fake & seen
        self._real_departed += int(np.count_nonzero(real))
        return Departures(
            voq=voq[real],
            seq=seq[real],
            arrival=slot[real],
            departure=service[real],
            wire=position[real],
            assembled=assembled[real],
            tx=tx[real],
        )

    def _extras(self):
        sent = self._real_departed + self._fakes_departed
        return {
            "padding_overhead": self._fakes_departed / sent if sent else 0.0
        }
