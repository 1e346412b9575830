"""Vectorized kernel: Full Ordered Frames First (paper §2.2, ref [11]).

FOFF's input side is UFS with a partial-frame fallback (no padding, no
idling): frame formation replays cycle-by-cycle (:mod:`.frames`), the
frame cells cross to intermediate ports ``0..k-1`` and the per-output
intermediate FIFOs replay as polled queues, exactly as for UFS.  What is
new is the *resequencer replay*: partial frames break the equal-queue
invariant, so packets reach their output out of order and a per-output
resequencing buffer releases them in per-VOQ sequence order.

The resequencer is a pure function of the wire-arrival schedule, so it
replays as a departure-time sort per flow: a packet is released the
moment it *and every VOQ predecessor* has arrived at the output —

    departure(p) = max(wire_arrival(q) for q in VOQ, seq(q) <= seq(p))

which is one segmented running maximum over the per-VOQ wire arrivals in
sequence order.  The oracle's observation order within a slot (releases
happen as fabric 2's intermediate ports are scanned in order, each
trigger releasing its buffered successors in sequence order) is
reconstructed as a global observation rank and stored in ``wire``; the
peak resequencer occupancy the paper's O(N^2) claim is checked against
falls out of the same arrays as a segmented prefix sum.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ...traffic.batch import ArrivalBatch, stable_id_argsort
from .base import (
    Departures,
    PolledQueueBank,
    StreamKernel,
    composite_argsort,
    mid_residues,
    replay_polled_queues,
    segmented_running_max,
)
from .frames import (
    FrameFormationStream,
    FramedPacketBuffer,
    build_frame_schedule,
    drain_cut,
    drain_horizon,
    foff_rule,
    frame_membership,
    voq_grouping,
)

__all__ = ["Stream", "departures"]


def _resequencer_peak(
    voq: np.ndarray,
    wire_slot: np.ndarray,
    departure: np.ndarray,
    cut: int,
    n: int,
) -> int:
    """Peak occupancy across the per-output resequencing buffers.

    Each output receives at most one wire packet per slot, so its buffer
    occupancy changes at most once per slot: +1 when the packet is held
    (some predecessor still in flight), else minus the buffered packets
    its arrival releases.  The peak is recorded at hold instants, after
    the increment — exactly :class:`~repro.switching.resequencer.
    Resequencer`'s accounting.
    """
    held = departure > wire_slot
    delta = _release_deltas(voq, departure, held)
    # Wire arrivals past the drain horizon never reach the output in the
    # object engine; their occupancy events do not exist there.
    live = wire_slot <= cut
    if not live.all():
        voq, wire_slot, delta, held = (
            voq[live], wire_slot[live], delta[live], held[live]
        )
    if not held.any():
        return 0
    per_output = np.bincount(voq % n, minlength=n)
    # Events output-major, in wire-arrival order within an output.
    events = composite_argsort(voq % n, wire_slot)
    delta, held = delta[events], held[events]
    del events
    return int(_output_prefix_sums(delta, per_output)[held].max())


def _release_deltas(
    voq: np.ndarray, departure: np.ndarray, held: np.ndarray
) -> np.ndarray:
    """Each wire arrival's resequencer occupancy change: +1 if held, else
    minus the buffered packets it releases.

    Rows are VOQ-grouped in sequence order, so departures (a per-VOQ
    running max) are sorted within each VOQ and a release group — the
    packets of a VOQ sharing a departure slot, released together by the
    one that arrived last — is a run of rows.
    """
    new_group = np.empty(len(voq), dtype=bool)
    new_group[0] = True
    np.not_equal(voq[1:], voq[:-1], out=new_group[1:])
    new_group[1:] |= departure[1:] != departure[:-1]
    group = np.cumsum(new_group)
    group -= 1
    delta = np.bincount(group)[group]  # the release group's size
    np.subtract(1, delta, out=delta)
    delta[held] = 1
    return delta


def _output_prefix_sums(
    delta: np.ndarray, per_output: np.ndarray
) -> np.ndarray:
    """Per-output prefix sums of output-major ``delta``, in place:
    ``per_output[j]`` consecutive events belong to output ``j``."""
    running = np.cumsum(delta, out=delta)
    first = np.cumsum(per_output) - per_output
    # Subtract the running total just before each output's first event.
    before = np.where(first > 0, running[first - 1], 0)
    running -= np.repeat(before, per_output)
    return running


def _trigger_mids(
    wire_slot: np.ndarray,
    departure: np.ndarray,
    tx: np.ndarray,
    assembled: np.ndarray,
) -> np.ndarray:
    """Intermediate port of each packet's release trigger.

    The trigger (the predecessor whose arrival releases the packet) is
    the running argmax of the wire arrivals along the VOQ-grouped rows;
    its intermediate port is the oracle's within-slot observation key.
    """
    trigger = np.arange(len(departure), dtype=departure.dtype)
    trigger[wire_slot != departure] = -1
    np.maximum.accumulate(trigger, out=trigger)
    mid = tx - assembled
    return mid[trigger]


def _ranks(key: np.ndarray, dtype: type) -> np.ndarray:
    """Each row's rank in the stable order of ``key``, as ``dtype``."""
    order = composite_argsort(key)
    ranks = np.empty(len(order), dtype=dtype)
    ranks[order] = np.arange(len(order), dtype=dtype)
    return ranks


def departures(
    batch: ArrivalBatch, matrix: np.ndarray, seed: int
) -> Tuple[Departures, Optional[Dict[str, float]]]:
    """Replay the FOFF switch, resequencing included.

    The replay runs in VOQ-grouped rows (:func:`voq_grouping`), where a
    VOQ's sequence order — the resequencer's — is the row order.
    """
    n = batch.n
    slot = batch.slots.dtype
    if len(batch) == 0:
        empty = np.empty(0, dtype=slot)
        dep = Departures(
            voq=empty, seq=empty, arrival=empty, departure=empty,
            wire=empty, assembled=empty, tx=empty,
        )
        return dep, {"max_resequencer": 0.0}

    schedule = build_frame_schedule(batch, foff_rule())
    grouping = voq_grouping(batch)
    rows, assembled, tx = frame_membership(grouping, schedule, slot)
    # FOFF never leaves a packet behind: partial frames sweep every
    # nonempty VOQ, so the whole batch is framed.
    assert len(rows) == len(batch), "FOFF frame formation left packets unframed"
    del rows, schedule
    tx += assembled  # position -> crossing slot; the mid port is tx - assembled
    voq = grouping.voqs()
    wire_slot = replay_polled_queues(
        (tx - assembled) * n + voq % n,
        np.broadcast_to(0, len(tx)),
        tx + 1,
        tx,
        mid_residues(n),
        n,
    )

    # Resequencer replay: per VOQ in sequence order, a packet departs at
    # the latest wire arrival among itself and its predecessors.
    departure = segmented_running_max(wire_slot, voq)
    cut = drain_horizon(batch)
    peak = _resequencer_peak(voq, wire_slot, departure, cut, n)
    # Observation order: departure slot, then the trigger's intermediate
    # port (fabric 2 scans mid ports in order), then sequence within a
    # release group.  One (departure, mid) pair names one wire arrival,
    # so one VOQ, whose sequence order is the row order: the key sorts
    # stably.  Stored as a global rank so (departure, wire) is a unique
    # sort key downstream.
    key = departure * np.int64(n)
    key += _trigger_mids(wire_slot, departure, tx, assembled)
    del wire_slot

    # The object engine's drain phase is finite: packets released after
    # its horizon stay in the resequencers there, unobserved.
    released = departure <= cut
    # Grouped rows -> batch rows.
    packet = stable_id_argsort(batch.voqs, n * n).astype(slot)
    if not released.all():
        voq, departure, assembled, tx, packet, key = (
            voq[released], departure[released], assembled[released],
            tx[released], packet[released], key[released],
        )
    wire = _ranks(key, slot)
    del key
    dep = Departures(
        voq=voq,
        seq=batch.seqs[packet],
        arrival=batch.slots[packet],
        departure=departure,
        wire=wire,
        assembled=assembled,
        tx=tx,
        wire_is_rank=True,
    )
    return dep, {"max_resequencer": float(peak)}


class Stream(StreamKernel):
    """Windowed replay of the FOFF switch.

    The input side streams like PF without padding; the new carried
    state is the in-flight resequencer replay: per VOQ, the next rank
    awaiting release, the running max wire arrival among processed
    predecessors (with the intermediate port of its last achiever — the
    release trigger), a buffer of wire-arrived packets still missing a
    predecessor, and the per-output resequencer occupancies feeding the
    ``max_resequencer`` extra.
    """

    def __init__(self, matrix: np.ndarray, seed: int, total_slots: int) -> None:
        super().__init__(matrix, seed, total_slots)
        n = self.n
        num_voqs = n * n
        self._formation = FrameFormationStream(n, foff_rule())
        self._packets = FramedPacketBuffer(num_voqs, self._types)
        self._stage2 = PolledQueueBank(mid_residues(n), n)
        self._cut = drain_cut(total_slots, n)
        # Resequencer replay state, in the run's slot dtype where it
        # meets per-packet columns.
        slot, _, voq = self._types
        self._next_rank = np.zeros(num_voqs, dtype=np.int64)
        self._run_max = np.full(num_voqs, -1, dtype=slot)
        self._trig_mid = np.zeros(num_voqs, dtype=slot)
        empty = np.empty(0, dtype=slot)
        # Wire-arrived packets whose release awaits a predecessor:
        # (voq, rank, wire, mid, seq, slot, assembled, tx).
        self._held = (np.empty(0, dtype=voq),) + (empty,) * 7
        # The next observation rank, the per-output resequencer
        # occupancies and their peak.
        self._obs_next = 0
        self._occupancy = np.zeros(n, dtype=np.int64)
        self._peak = 0

    def _resequence(self, new):
        """Absorb newly wire-arrived packets; release what is now in order.

        Returns the released packets' arrays plus their departures and
        trigger mids, and the occupancy delta events of this round.
        """
        n = self.n
        voq, rank, wire, mid, seq, slot, assembled, tx = tuple(
            np.concatenate([old, fresh])
            for old, fresh in zip(self._held, new)
        )
        new_count = len(new[0])
        is_new = np.zeros(len(voq), dtype=bool)
        is_new[len(voq) - new_count :] = True
        if len(voq) == 0:
            # Typed empties: departure and t_mid as wire and mid.
            return (
                voq, rank, wire, mid, seq, slot, assembled, tx, wire, mid,
                is_new, voq, wire, mid,
            )
        order = composite_argsort(voq, rank)
        voq, rank, wire, mid, seq, slot, assembled, tx, is_new = (
            voq[order], rank[order], wire[order], mid[order], seq[order],
            slot[order], assembled[order], tx[order], is_new[order],
        )
        is_start = np.r_[True, voq[1:] != voq[:-1]]
        seg = np.cumsum(is_start) - 1
        seg_first = np.flatnonzero(is_start)
        within = np.arange(len(voq), dtype=np.int64) - seg_first[seg]
        # A packet is releasable iff its rank closes the gap to the VOQ's
        # next expected rank — ranks are unique per VOQ, so the equality
        # test selects exactly the contiguous releasable prefix.
        proc = rank == self._next_rank[voq] + within
        keep = ~proc
        held_new = is_new & keep  # still-buffered new arrivals: held +1
        held_events = (voq[held_new], wire[held_new], mid[held_new])
        self._held = (
            voq[keep], rank[keep], wire[keep], mid[keep], seq[keep],
            slot[keep], assembled[keep], tx[keep],
        )
        voq_p, rank_p, wire_p, mid_p, seq_p, slot_p, asm_p, tx_p, new_p = (
            voq[proc], rank[proc], wire[proc], mid[proc], seq[proc],
            slot[proc], assembled[proc], tx[proc], is_new[proc],
        )
        if len(voq_p) == 0:
            return (
                voq_p, rank_p, wire_p, mid_p, seq_p, slot_p, asm_p, tx_p,
                wire_p, mid_p, new_p,
            ) + held_events
        # Per-VOQ running max of wire arrivals, seeded with the carried
        # max: departure = latest wire among self and predecessors.
        p_start = np.r_[True, voq_p[1:] != voq_p[:-1]]
        p_seg = np.cumsum(p_start) - 1
        p_first = np.flatnonzero(p_start)
        p_bounds = np.flatnonzero(np.r_[p_start, True])
        p_last = p_bounds[1:] - 1
        run = segmented_running_max(wire_p, voq_p)
        departure = np.maximum(run, self._run_max[voq_p])
        # The trigger (the packet whose arrival achieves the running
        # max) carries the observation tie-break mid; fall back to the
        # carried trigger when this round's prefix never beats the max.
        is_trig = wire_p == departure
        cand = np.where(is_trig, np.arange(len(voq_p), dtype=np.int64), -1)
        ff = np.maximum.accumulate(cand)
        in_seg = ff >= p_first[p_seg]
        t_mid = np.where(
            in_seg, mid_p[np.maximum(ff, 0)], self._trig_mid[voq_p]
        )
        # Update the carried per-VOQ state from each segment's tail.
        v_last = voq_p[p_last]
        self._run_max[v_last] = departure[p_last]
        self._trig_mid[v_last] = t_mid[p_last]
        self._next_rank[v_last] = rank_p[p_last] + 1
        return (
            voq_p, rank_p, wire_p, mid_p, seq_p, slot_p, asm_p, tx_p,
            departure, t_mid, new_p,
        ) + held_events

    def _occupancy_events(self, released, held_events, final: bool):
        """Feed this round's resequencer-buffer deltas; update the peaks.

        Mirrors the monolithic :func:`_resequencer_peak` accounting —
        exactly one event per packet, at its wire-arrival slot: +1 for a
        held arrival (peak recorded after the increment), minus the
        released predecessors at each release trigger.  Released packets
        that were buffered in an *earlier* round already emitted their
        +1 back then and contribute nothing now.
        """
        n = self.n
        (voq_p, rank_p, wire_p, mid_p, seq_p, slot_p, asm_p, tx_p,
         departure, t_mid, new_p) = released
        h_voq, h_wire, h_mid = held_events
        # Release-group sizes: packets of a VOQ sharing a departure slot
        # are released together by the trigger (the not-held packet).
        held_p = departure > wire_p
        if len(voq_p):
            g_start = np.r_[
                True,
                (voq_p[1:] != voq_p[:-1]) | (departure[1:] != departure[:-1]),
            ]
            g_id = np.cumsum(g_start) - 1
            g_size = np.bincount(g_id)[g_id]
            delta_p = np.where(held_p, 1, -(g_size - 1))
        else:
            delta_p = np.empty(0, dtype=np.int64)
        # Event per packet at wire arrival: triggers (always newly
        # arrived) and newly arrived held packets; previously buffered
        # released packets already counted.
        emit = ~held_p | new_p.astype(bool)
        out = np.concatenate([voq_p[emit] % n, h_voq % n])
        wire = np.concatenate([wire_p[emit], h_wire])
        delta = np.concatenate(
            [delta_p[emit], np.ones(len(h_voq), dtype=np.int64)]
        )
        held = np.concatenate([held_p[emit], np.ones(len(h_voq), dtype=bool)])
        if final:
            # Wire arrivals past the drain horizon never reach the
            # output in the object engine; their events do not exist.
            live = wire <= self._cut
            out, wire, delta, held = (
                out[live], wire[live], delta[live], held[live]
            )
        if len(out) == 0:
            return
        order = composite_argsort(out, wire)
        out, delta, held = out[order], delta[order], held[order]
        running = np.cumsum(delta)
        starts = np.r_[True, out[1:] != out[:-1]]
        seg = np.cumsum(starts) - 1
        seg_first = np.flatnonzero(starts)
        before = np.r_[0, running[:-1]]
        occupancy = (
            self._occupancy[out]
            + running
            - before[seg_first[seg]]
        )
        bounds = np.flatnonzero(np.r_[starts, True])
        last = bounds[1:] - 1
        self._occupancy[out[last]] = occupancy[last]
        if held.any():
            self._peak = max(self._peak, int(occupancy[held].max()))

    def _emit(self, released, final: bool):
        """The Departures record, ``wire`` holding run-global observation
        ranks continued across rounds."""
        n = self.n
        (voq_p, rank_p, wire_p, mid_p, seq_p, slot_p, asm_p, tx_p,
         departure, t_mid, new_p) = released
        if final:
            # Past the object engine's finite drain horizon, packets
            # stay in the resequencers there, unobserved.
            ok = departure <= self._cut
            (voq_p, rank_p, seq_p, slot_p, asm_p, tx_p, departure, t_mid) = (
                voq_p[ok], rank_p[ok], seq_p[ok], slot_p[ok], asm_p[ok],
                tx_p[ok], departure[ok], t_mid[ok],
            )
        observation = composite_argsort(
            departure * np.int64(n) + t_mid, rank_p
        )
        wire = np.empty(len(observation), dtype=departure.dtype)
        wire[observation] = np.arange(
            self._obs_next, self._obs_next + len(observation),
            dtype=departure.dtype,
        )
        self._obs_next += len(observation)
        return Departures(
            voq=voq_p,
            seq=seq_p,
            arrival=slot_p,
            departure=departure,
            wire=wire,
            assembled=asm_p,
            tx=tx_p,
            wire_is_rank=True,
        )

    def _replay(self, events, boundary):
        n = self.n
        slots, inputs, outputs, voqs, seqs, gidx = events
        schedule = self._formation.feed(slots, inputs, outputs, boundary)
        voq, slot, seq, gidx, rank, assembled, position = (
            self._packets.feed(voqs, slots, seqs, gidx, schedule)
        )
        tx = assembled + position
        wire, tx, payload = self._stage2.feed(
            position * n + voq % n,
            np.zeros(len(tx), dtype=np.uint8),
            tx + 1,
            tx,
            (voq, rank, position, seq, slot, assembled),
            boundary,
        )
        voq, rank, position, seq, slot, assembled = payload
        arrived = (voq, rank, wire, position, seq, slot, assembled, tx)
        result = self._resequence(arrived)
        released, held_events = result[:11], result[11:]
        final = boundary is None
        self._occupancy_events(released, held_events, final)
        if final:
            # FOFF never leaves a packet behind: partial frames sweep
            # every nonempty VOQ, so the whole stream must have been
            # framed and every wire arrival released.
            assert self._packets.pending() == 0, (
                "FOFF frame formation left packets unframed"
            )
            assert len(self._held[0]) == 0, (
                "FOFF resequencer replay left packets in flight"
            )
        return self._emit(released, final)

    def _extras(self):
        return {"max_resequencer": float(self._peak)}
