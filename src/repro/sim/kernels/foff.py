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

from ...traffic.batch import ArrivalBatch, stable_voq_argsort
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
    trigger = np.arange(len(departure), dtype=np.int64)
    trigger[wire_slot != departure] = -1
    np.maximum.accumulate(trigger, out=trigger)
    mid = tx - assembled
    return mid[trigger]


def _ranks(key: np.ndarray) -> np.ndarray:
    """Each row's rank in the stable order of ``key``."""
    order = composite_argsort(key)
    ranks = np.empty(len(order), dtype=np.int64)
    ranks[order] = np.arange(len(order), dtype=np.int64)
    return ranks


def departures(
    batch: ArrivalBatch, matrix: np.ndarray, seed: int
) -> Tuple[Departures, Optional[Dict[str, float]]]:
    """Replay the FOFF switch, resequencing included.

    The replay runs in VOQ-grouped rows (:func:`voq_grouping`), where a
    VOQ's sequence order — the resequencer's — is the row order.
    """
    n = batch.n
    if len(batch) == 0:
        empty = np.empty(0, dtype=np.int64)
        dep = Departures(
            voq=empty, seq=empty, arrival=empty, departure=empty,
            wire=empty, assembled=empty, tx=empty,
        )
        return dep, {"max_resequencer": 0.0}

    schedule = build_frame_schedule(batch, foff_rule())
    grouping = voq_grouping(batch)
    rows, assembled, tx = frame_membership(grouping, schedule)
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
    key = _trigger_mids(wire_slot, departure, tx, assembled)
    del wire_slot
    key += departure * n

    # The object engine's drain phase is finite: packets released after
    # its horizon stay in the resequencers there, unobserved.
    released = departure <= cut
    packet = stable_voq_argsort(batch.voqs, n)  # grouped rows -> batch rows
    if not released.all():
        voq, departure, assembled, tx, packet, key = (
            voq[released], departure[released], assembled[released],
            tx[released], packet[released], key[released],
        )
    wire = _ranks(key)
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
    """Windowed (and seed-stacked) replay of the FOFF switch.

    The input side streams like PF without padding; the new carried
    state is the in-flight resequencer replay: per VOQ, the next rank
    awaiting release, the running max wire arrival among processed
    predecessors (with the intermediate port of its last achiever — the
    release trigger), a buffer of wire-arrived packets still missing a
    predecessor, and the per-output resequencer occupancies feeding the
    ``max_resequencer`` extra.
    """

    def __init__(self, matrix: np.ndarray, seeds, total_slots: int) -> None:
        super().__init__(matrix, seeds, total_slots)
        n = self.n
        num_voqs = self.num_blocks * n * n
        self._formation = FrameFormationStream(
            n, self.num_blocks, foff_rule()
        )
        self._packets = FramedPacketBuffer(num_voqs)
        self._stage2 = PolledQueueBank(
            np.tile(mid_residues(n), self.num_blocks), n
        )
        self._cut = drain_cut(total_slots, n)
        # Resequencer replay state.
        self._next_rank = np.zeros(num_voqs, dtype=np.int64)
        self._run_max = np.full(num_voqs, -1, dtype=np.int64)
        self._trig_mid = np.zeros(num_voqs, dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        # Wire-arrived packets whose release awaits a predecessor:
        # (voq_x, rank, wire, mid, seq, slot, assembled, tx).
        self._held = (empty,) * 8
        # Per-block observation-rank counters, per-(block, output)
        # resequencer occupancies, per-block peaks.
        self._obs_next = np.zeros(self.num_blocks, dtype=np.int64)
        self._occupancy = np.zeros(self.num_blocks * n, dtype=np.int64)
        self._peak = np.zeros(self.num_blocks, dtype=np.int64)

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
            empty = np.empty(0, dtype=np.int64)
            return (empty,) * 11 + (empty, empty, empty)
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
            empty = np.empty(0, dtype=np.int64)
            return (empty,) * 11 + held_events
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
        voq_e = voq_p[emit]
        out = np.concatenate([voq_e % n, h_voq % n])
        block = np.concatenate([voq_e, h_voq]) // (n * n)
        wire = np.concatenate([wire_p[emit], h_wire])
        delta = np.concatenate(
            [delta_p[emit], np.ones(len(h_voq), dtype=np.int64)]
        )
        held = np.concatenate([held_p[emit], np.ones(len(h_voq), dtype=bool)])
        if final:
            # Wire arrivals past the drain horizon never reach the
            # output in the object engine; their events do not exist.
            live = wire <= self._cut
            out, block, wire, delta, held = (
                out[live], block[live], wire[live], delta[live], held[live]
            )
        if len(out) == 0:
            return
        out_x = block * n + out
        order = composite_argsort(out_x, wire)
        out_x, delta, held, block = (
            out_x[order], delta[order], held[order], block[order]
        )
        running = np.cumsum(delta)
        starts = np.r_[True, out_x[1:] != out_x[:-1]]
        seg = np.cumsum(starts) - 1
        seg_first = np.flatnonzero(starts)
        before = np.r_[0, running[:-1]]
        occupancy = (
            self._occupancy[out_x]
            + running
            - before[seg_first[seg]]
        )
        bounds = np.flatnonzero(np.r_[starts, True])
        last = bounds[1:] - 1
        self._occupancy[out_x[last]] = occupancy[last]
        if held.any():
            np.maximum.at(self._peak, block[held], occupancy[held])

    def _emit(self, released, final: bool):
        """The stacked Departures record with per-block observation ranks
        (the metrics fold compares ranks only within a block, so a
        block-major composite sort assigns them in one pass).
        """
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
        block = voq_p // (n * n)
        observation = composite_argsort(
            (block * np.int64(self._cut + 2) + departure) * n + t_mid, rank_p
        )
        counts = np.bincount(block, minlength=self.num_blocks)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        sorted_block = block[observation]
        within = (
            np.arange(len(observation), dtype=np.int64)
            - starts[sorted_block]
        )
        wire = np.empty(len(observation), dtype=np.int64)
        wire[observation] = self._obs_next[sorted_block] + within
        self._obs_next += counts
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
        wire, tx, payload = self._stage2.feed(
            block * n * n + position * n + out,
            np.zeros(len(tx), dtype=np.int64),
            tx + 1,
            tx,
            (voq_x, rank, position, seq, slot, assembled),
            boundary,
        )
        voq_x, rank, position, seq, slot, assembled = payload
        arrived = (voq_x, rank, wire, position, seq, slot, assembled, tx)
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
        return [
            {"max_resequencer": float(self._peak[b])}
            for b in range(self.num_blocks)
        ]
