"""Cycle-aligned frame formation shared by the PF and FOFF kernels.

PF and FOFF both serve their inputs *frame at a time*: an idle input may
start a new frame only at the slot fabric 1 connects it to intermediate
port 0 (``t ≡ -i (mod n)``, one opportunity per ``n``-slot cycle), and a
frame's ``k``-th packet then crosses to intermediate port ``k`` at slot
``start + k``.  Which frame starts is a deterministic function of the
input's VOQ occupancies at the cycle boundary (full frames first behind a
round-robin pointer; the padding / partial-frame fallback differs per
switch), and occupancies are arrivals-so-far minus packets already taken
— no feedback from the rest of the switch.  Frame formation is therefore
*sequential per input but exactly replayable*.

The NumPy path is the **table formation engine**
(:class:`_TableFormation`): every input is one *lane*, and each NumPy
step gives every lane one decision at its own cycle — that cycle's
arrivals come from a dense ``(cycle, lane, VOQ)`` count table built once
per window, the PF/FOFF pickers are one argmax over per-VOQ scores, and
round-robin pointers are vectors.  A lane that declines jumps straight
to its next arrival cycle, so quiescent spans cost nothing.  A run's
formation is O(num_cycles) vector steps instead of O(num_slots) Python
iterations.

:func:`build_frame_schedule` runs the engine over a monolithic batch;
:class:`FrameFormationStream` is its resumable (windowed) form;
:func:`frame_membership` maps the VOQ-grouped packets to their frames
with one scatter, since a VOQ's frames tile its run of grouped rows
(:func:`voq_grouping`, :func:`frame_ids`).  Where numba imports,
both run :class:`_CompiledLaneFormation` instead: the same lanes, each
stepped through its cycles by the scalar per-lane recursion
:func:`~repro.sim.kernels.compiled.frames_pass.form_lanes`.  That
recursion is also the independent reference the formation parity suite
pins the NumPy engine against, frame for frame, on every host.

The formation loop runs past the arrival horizon until a cycle forms no
frame, mirroring the object engine's drain phase: with no new arrivals a
frameless cycle leaves the VOQ state (and the round-robin pointers)
untouched, so no later cycle could form one either — exactly the
quiescence the drain detects.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple, Optional, Tuple

import numpy as np

from ... import telemetry
from ...traffic.batch import ArrivalBatch, ColumnTypes, column_types
from . import compiled
from .base import concat_ranges, stable_id_argsort
from .compiled.frames_pass import form_lanes

__all__ = [
    "FormationRule",
    "FrameFormationStream",
    "arrival_tags",
    "FramedPacketBuffer",
    "FrameSchedule",
    "VoqGrouping",
    "build_frame_schedule",
    "check_rule",
    "drain_cut",
    "drain_horizon",
    "foff_rule",
    "frame_ids",
    "frame_membership",
    "pf_rule",
    "voq_grouping",
    "voq_ranks",
]

_INT64_MAX = np.iinfo(np.int64).max


def drain_cut(num_slots: int, n: int) -> int:
    """Last slot the object engine's drain phase steps (inclusive).

    The object engine drains for at most ``max(50 * n, num_slots)``
    slots after the arrival stream ends (the horizon
    :meth:`repro.sim.stage.ObjectStage.finish` defines); packets that
    would depart later stay in flight there, so any replay (monolithic
    or streamed) must discard their departures too.  (The
    drain's other stop — ``4n`` departure-free slots — only fires at
    quiescence for the frame-at-a-time switches: while any backlog
    remains a frame forms every ``n``-slot cycle and departs within two
    fabric revolutions.)
    """
    return num_slots + max(50 * n, num_slots) - 1


def drain_horizon(batch: ArrivalBatch) -> int:
    """:func:`drain_cut` of a monolithic batch."""
    return drain_cut(batch.num_slots, batch.n)


class FormationRule(NamedTuple):
    """Declarative frame chooser, shared by both formation engines.

    ``kind`` is ``"pf"`` (full frames behind a round-robin pointer, else
    pad the longest VOQ of at least ``threshold`` packets up to a full
    frame) or ``"foff"`` (full frames RR first, else the next nonempty
    VOQ behind a second round-robin pointer, taken whole).  The rule is
    plain data so the NumPy engine can dispatch on it per step and the
    compiled stepper can take it as two scalars.
    """

    kind: str
    threshold: int = 0


def pf_rule(threshold: int) -> FormationRule:
    """The Padded Frames formation rule at a given padding threshold."""
    return FormationRule("pf", threshold)


def foff_rule() -> FormationRule:
    """The FOFF formation rule (full frames RR, else partial frames RR)."""
    return FormationRule("foff")


class FrameSchedule(NamedTuple):
    """Every frame formed during a run, across all inputs.

    Parallel arrays, one entry per frame: the flat VOQ id whose packets
    fill it, the first VOQ rank it covers, how many real packets it took,
    how many fake cells pad it (PF only), and the cycle-start slot at
    which it began transmitting (packet ``k`` crosses at ``slot + k`` to
    intermediate port ``k``).  Within one VOQ, entries appear in
    formation order (ascending ``start``); the global order across VOQs
    is unspecified (the NumPy engine emits step-major, the compiled
    stepper lane-major) and nothing downstream may depend on it.
    """

    voq: np.ndarray
    start: np.ndarray
    size: np.ndarray
    fakes: np.ndarray
    slot: np.ndarray

    def __len__(self) -> int:
        return len(self.voq)


# ---------------------------------------------------------------------------
# The formation engines: NumPy per-lane table steps, compiled stepper
# ---------------------------------------------------------------------------


class _TableFormation:
    """Frame formation with every lane stepping at its own cycle.

    Carried state is flat per-lane arrays: the ``(lane, voq)`` occupancy
    and taken grids (cell ``lane * n + j`` is the VOQ id), the
    round-robin pointers and each lane's current cycle.  Pending
    arrivals live in a dense ``(cycle, input, voq)`` count table (uint8
    unless a count outgrows it, one all-zero row closing it) and a
    next-arrival table: per ``(cycle, lane)``, the lane's next cycle with
    arrivals.  One
    :meth:`run` step gives every lane below its limit one decision at
    its own cycle ``c``:

    1. add the table row ``(lane, c)`` to the lane's occupancies (cycles
       past the table clamp to the zero row);
    2. pick the VOQ of highest score: a full VOQ scores ``3n`` minus its
       round-robin offset ``(j - pointer) mod n``, above every fallback
       — PF's occupancy (the longest VOQ, ties to the lowest index,
       padded only from ``threshold`` up), FOFF's ``2n`` minus the
       second pointer's offset for a nonempty VOQ — and an empty VOQ 0;
    3. a lane that forms moves to ``c + 1``; one that declines jumps to
       its next arrival cycle (or its limit, or drain quiescence): the
       pick is a pure function of state an arrival-free cycle leaves
       untouched.

    A lane's cycle only increases, by one or by a jump to its next
    arrival cycle, so it visits every cycle at which it has arrivals and
    absorbing that row on the visit is exact: each lane's sequence of
    (cycle, decision) pairs is *identical* to the scalar per-lane
    recursion of :class:`_CompiledLaneFormation`, step-skipping included.
    """

    def __init__(self, n: int, rule: FormationRule) -> None:
        self.n = n
        self.num_lanes = n
        self.rule = rule
        lanes = np.arange(n, dtype=np.int64)
        #: Cycle-boundary slot of lane cycle ``c`` is ``residue + c * n``.
        self.residue = (n - lanes) % n
        self.avail = np.zeros(self.num_lanes * n, dtype=np.int64)
        self.taken = np.zeros(self.num_lanes * n, dtype=np.int64)
        self.full_rr = np.zeros(self.num_lanes, dtype=np.int64)
        self.partial_rr = np.zeros(self.num_lanes, dtype=np.int64)
        self.cycle = np.zeros(self.num_lanes, dtype=np.int64)
        self._lane_cell = lanes * n
        cols = np.arange(n, dtype=np.int64)
        #: Pick scores behind each pointer ``p`` (one row gather a step).
        offset = (cols[None, :] - cols[:, None]) % n
        self._full_score = 3 * n - offset
        self._partial_score = 2 * n - offset
        self._succ = (cols + 1) % n
        #: ``_size[min(occupancy, n)]`` is the frame the picked VOQ
        #: yields, 0 for a decline.
        self._size = np.arange(n + 1, dtype=np.int64)
        self._size[: rule.threshold] = 0
        self._install(np.zeros((1, n, n), dtype=np.uint8), 0)

    def _install(self, table: np.ndarray, c0: int) -> None:
        """Adopt a count table whose row ``r`` is cycle ``c0 + r`` and
        derive its next-arrival table (absolute cycles, INT64_MAX for
        none) with one reverse running minimum."""
        rows, n, _ = table.shape
        self._table, self._c0, self._last = table, c0, rows - 1
        nxt = np.full((rows, n), _INT64_MAX, dtype=np.int64)
        np.copyto(
            nxt[:-1],
            np.arange(c0 + 1, c0 + rows, dtype=np.int64)[:, None],
            where=table[1:].any(axis=2),
        )
        backward = nxt[::-1]
        np.minimum.accumulate(backward, axis=0, out=backward)
        self._next = nxt.reshape(-1)

    def absorb(
        self, lanes: np.ndarray, tags: np.ndarray, outs: np.ndarray
    ) -> None:
        """Table one window's arrivals (no tag below its lane's cycle).

        Rows a lane has not reached carry over from the previous table.
        New arrivals are counted in slabs of at most a sixteenth of the
        table's cells and half its arrivals, so for slot-ordered input
        (every caller's) no int64 count array near the table's size
        exists; the dtype widens only when a count outgrows it.
        """
        n, nn = self.n, self.n * self.n
        old, c_old = self._table, self._c0
        end = c_old + self._last
        lo, hi = int(self.cycle.min()), end - 1
        if len(tags):
            lo, hi = min(lo, int(tags.min())), max(hi, int(tags.max()))
        if hi < lo:
            lo, hi = 0, -1
        rows = hi - lo + 2
        table = np.zeros((rows, n, n), dtype=old.dtype)
        first = max(lo, c_old)
        if first < end:
            # A lane has absorbed exactly its rows below its cycle.
            keep = np.arange(first, end)[:, None] >= self.cycle
            table[first - lo : end - lo] = (
                old[first - c_old : end - c_old] * keep[..., None]
            )
        del old
        flat = table.reshape(-1)
        lane_base = self._lane_cell - lo * nn
        slab = max(1 << 12, min(len(flat) // 16, len(tags) // 2))
        step = max(1, len(tags) * slab // len(flat))
        for s in range(0, len(tags), step):
            key = tags[s : s + step] * nn
            key += lane_base[lanes[s : s + step]]
            key += outs[s : s + step]
            k0 = int(key.min())
            key -= k0
            count = np.bincount(key)
            del key
            count += flat[k0 : k0 + len(count)]
            top = int(count.max())
            if top > np.iinfo(table.dtype).max:
                table = table.astype(np.min_scalar_type(top))
                flat = table.reshape(-1)
            flat[k0 : k0 + len(count)] = count
        self._install(table, lo)

    def run(self, limit: Optional[np.ndarray]) -> FrameSchedule:
        """Advance every lane below its ``limit`` cycle (exclusive).

        ``limit=None`` runs the drain instead: lanes advance until the
        pick declines with no arrivals to come (the object engine's
        post-arrival quiescence).
        """
        n, num_lanes = self.n, self.num_lanes
        drain = limit is None
        lim = np.full(num_lanes, _INT64_MAX) if drain else limit
        cycle, avail, taken = self.cycle, self.avail, self.taken
        full_rr, partial_rr = self.full_rr, self.partial_rr
        grid = avail.reshape(num_lanes, n)
        rows = self._table.reshape(-1, n)
        nxt, last = self._next, self._c0 + self._last
        row0 = np.arange(num_lanes, dtype=np.int64) - self._c0 * n
        full_score, partial_score = self._full_score, self._partial_score
        succ, size, lane_cell = self._succ, self._size, self._lane_cell
        is_pf = self.rule.kind == "pf"
        everyone = slice(None)
        # Every step writes its lanes' (VOQ cell, size, cycle, start) —
        # size 0 for a decline — straight into one growing buffer: one
        # block instead of four small arrays a step, which would pin heap
        # holes the replay's per-packet arrays need.
        rec = np.empty((4, num_lanes * (self._last + 64)), dtype=np.int64)
        pos = 0
        while True:
            live = cycle < lim
            if np.count_nonzero(live) == num_lanes:
                # Every lane steps: ``[sel]`` gives views, so the in-place
                # updates below write the state arrays directly.
                sel = everyone
                m = num_lanes
            else:
                sel = np.flatnonzero(live)
                m = len(sel)
                if not m:
                    break
            if pos + m > rec.shape[1]:
                rec = np.concatenate([rec, np.empty_like(rec)], axis=1)
            q, k, cyc, start = rec[:, pos : pos + m]
            pos += m
            np.copyto(cyc, cycle[sel])
            t = np.minimum(cyc, last)
            t *= n
            t += row0[sel]
            occ = grid[sel]
            occ += rows.take(t, axis=0)
            rr, rr2 = full_rr[sel], partial_rr[sel]
            if sel is not everyone:
                grid[sel] = occ
            if is_pf:
                score = occ
            else:
                score = partial_score.take(rr2, axis=0)
                np.multiply(score, occ.astype(bool), out=score)
            full = occ >= n
            if np.count_nonzero(full):
                score = np.where(full, full_score.take(rr, axis=0), score)
            j = score.argmax(axis=1)
            np.add(lane_cell[sel], j, out=q)
            have = avail[q]
            size.take(have, mode="clip", out=k)
            taken.take(q, out=start)
            taken[q] = start + k
            avail[q] = have - k
            took = have >= n
            formed = k.astype(bool)
            sj = succ.take(j)
            np.copyto(rr, sj, where=took)
            if not is_pf:
                np.copyto(rr2, sj, where=formed ^ took)
            jump = nxt.take(t)
            if not drain:
                np.minimum(jump, lim[sel], out=jump)
            np.copyto(jump, cyc + 1, where=formed)
            cycle[sel] = jump
            if sel is not everyone:
                full_rr[sel], partial_rr[sel] = rr, rr2
        del rows, nxt
        if drain:
            # Every lane is parked for good: no table row is read again.
            self._install(np.zeros((1, n, n), np.uint8), 0)
        formed = np.flatnonzero(rec[1, :pos])
        voq, k, cyc, start = rec[:, formed]
        del rec
        if telemetry.enabled():
            telemetry.count("kernel.frames.lane_advances", len(formed))
            telemetry.count("kernel.frames.cursor_jumps", pos - len(formed))
        slot = self.residue[voq // n]
        slot += cyc * n
        # Full frames pad nothing (k = n), so PF's fake-cell count is n - k
        # in both pick branches.
        fakes = n - k if is_pf else np.zeros(len(k), dtype=np.int64)
        return FrameSchedule(voq, start, k, fakes, slot)


class _CompiledLaneFormation:
    """Drop-in for :class:`_TableFormation` backed by the compiled per-lane
    stepper (:func:`repro.sim.kernels.compiled.frames_pass.form_lanes`).

    Carries the same per-lane state grids; pending arrivals live in one
    lane-major CSR buffer instead of the NumPy engine's count table, and
    each lane runs all its cycles in one scalar loop.  Schedules come
    out lane-major instead of step-major; the :class:`FrameSchedule`
    contract leaves the cross-VOQ order unspecified, and within a VOQ —
    owned by exactly one lane — frames still appear in ascending
    formation order.
    """

    def __init__(self, n: int, rule: FormationRule) -> None:
        if rule.kind not in ("pf", "foff"):
            raise ValueError(f"unknown formation rule kind {rule.kind!r}")
        self.n = n
        self.num_lanes = n
        self.rule = rule
        lanes = np.arange(n, dtype=np.int64)
        #: Cycle-boundary slot of lane cycle ``c`` is ``residue + c * n``.
        self.residue = (n - lanes) % n
        self.voq_base = lanes * n
        self.avail = np.zeros((self.num_lanes, n), dtype=np.int64)
        self.taken = np.zeros((self.num_lanes, n), dtype=np.int64)
        self.full_rr = np.zeros(self.num_lanes, dtype=np.int64)
        self.partial_rr = np.zeros(self.num_lanes, dtype=np.int64)
        self.cycle = np.zeros(self.num_lanes, dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        self._plane = empty
        self._ptag = empty
        self._pout = empty
        self._pstart = np.zeros(self.num_lanes + 1, dtype=np.int64)

    def absorb(
        self, lanes: np.ndarray, tags: np.ndarray, outs: np.ndarray
    ) -> None:
        """Buffer one window's arrivals (per-lane tags nondecreasing).

        A carried tag is at most the lane's limit cycle, which a new
        window's tags start from, so a stable sort by lane re-sorts the
        union by ``(lane, tag)``.
        """
        lane = np.concatenate([self._plane, lanes])
        tag = np.concatenate([self._ptag, tags])
        out = np.concatenate([self._pout, outs])
        if len(lane):
            order = stable_id_argsort(lane, self.num_lanes)
            lane, tag, out = lane[order], tag[order], out[order]
        self._plane, self._ptag, self._pout = lane, tag, out
        counts = np.bincount(lane, minlength=self.num_lanes)
        self._pstart = np.concatenate(([0], np.cumsum(counts)))

    def run(self, limit: Optional[np.ndarray]) -> FrameSchedule:
        """Advance every lane below its ``limit`` cycle (exclusive);
        ``limit=None`` runs the drain-quiescence loop."""
        drain = limit is None
        lim = (
            np.full(self.num_lanes, _INT64_MAX, dtype=np.int64)
            if drain
            else np.ascontiguousarray(limit, dtype=np.int64)
        )
        # Every frame takes at least one real packet, so backlog plus
        # pending arrivals bounds the output size.
        bound = int(self.avail.sum()) + len(self._ptag)
        f_voq = np.empty(bound, dtype=np.int64)
        f_start = np.empty(bound, dtype=np.int64)
        f_size = np.empty(bound, dtype=np.int64)
        f_fakes = np.empty(bound, dtype=np.int64)
        f_slot = np.empty(bound, dtype=np.int64)
        consumed = np.zeros(self.num_lanes, dtype=np.int64)
        count, jumps = form_lanes(
            self.n,
            self.rule.kind == "pf",
            self.rule.threshold,
            drain,
            self.avail,
            self.taken,
            self.full_rr,
            self.partial_rr,
            self.cycle,
            lim,
            self.residue,
            self.voq_base,
            self._ptag,
            self._pout,
            self._pstart,
            f_voq,
            f_start,
            f_size,
            f_fakes,
            f_slot,
            consumed,
        )
        if consumed.any():
            keep = np.ones(len(self._ptag), dtype=bool)
            keep[concat_ranges(self._pstart[:-1], consumed)] = False
            self._plane = self._plane[keep]
            self._ptag = self._ptag[keep]
            self._pout = self._pout[keep]
            counts = np.bincount(self._plane, minlength=self.num_lanes)
            self._pstart = np.concatenate(([0], np.cumsum(counts)))
        if telemetry.enabled():
            telemetry.count("kernel.frames.lane_advances", int(count))
            telemetry.count("kernel.frames.cursor_jumps", int(jumps))
        return FrameSchedule(
            voq=f_voq[:count],
            start=f_start[:count],
            size=f_size[:count],
            fakes=f_fakes[:count],
            slot=f_slot[:count],
        )


def check_rule(rule: FormationRule, n: int) -> None:
    """Reject a rule no ``n``-port formation can run.

    Same contract as :class:`~repro.switching.pf.PaddedFramesSwitch`: a
    PF threshold of 0 would pad empty VOQs forever, one above ``n`` would
    never pad at all.
    """
    if rule.kind not in ("pf", "foff"):
        raise ValueError(f"unknown formation rule kind {rule.kind!r}")
    if rule.kind == "pf" and not 1 <= rule.threshold <= n:
        raise ValueError(
            f"threshold must be in [1, {n}], got {rule.threshold}"
        )


def _make_formation(n: int, rule: FormationRule):
    """The formation engine replays run on, for a checked rule: the
    compiled per-lane stepper where numba imports, the NumPy table
    engine otherwise."""
    check_rule(rule, n)
    if compiled.ACTIVE:
        return _CompiledLaneFormation(n, rule)
    return _TableFormation(n, rule)


def arrival_tags(
    slots: np.ndarray, residue: np.ndarray, n: int
) -> np.ndarray:
    """First cycle whose boundary slot (``residue + c * n``) is at or
    after the arrival slot; arrivals in the boundary slot itself are
    visible to that cycle's pick (the slot protocol accepts before
    serving).  Never negative since slots >= 0 > residue - n."""
    tags = slots - residue
    tags += n - 1
    tags //= n
    return tags


def build_frame_schedule(
    batch: ArrivalBatch, rule: FormationRule
) -> FrameSchedule:
    """Run the formation engine over one monolithic batch."""
    n = batch.n
    form = _make_formation(n, rule)
    form.absorb(
        batch.inputs,
        arrival_tags(batch.slots, form.residue[batch.inputs], n),
        batch.outputs,
    )
    return form.run(None)


class VoqGrouping(NamedTuple):
    """A batch's stable grouping by VOQ, as per-VOQ runs.

    Grouped row ``starts[v] + r`` holds rank ``r`` (arrival order) of VOQ
    ``v``, which runs ``counts[v]`` rows — the order of a stable argsort
    of the batch's VOQ ids (:func:`~repro.traffic.batch.stable_id_argsort`),
    which maps grouped rows back to batch rows.  The monolithic framed
    kernels replay in this order: a VOQ's frames tile its run and its
    resequencing order is the row order.
    """

    counts: np.ndarray
    starts: np.ndarray

    def voqs(self) -> np.ndarray:
        """The VOQ id of every grouped row, in the batch's VOQ dtype."""
        num = len(self.counts)
        return np.repeat(
            np.arange(num, dtype=column_types(isqrt(num), 0).voq), self.counts
        )


def voq_ranks(voqs: np.ndarray, seqs: np.ndarray, num_voqs: int) -> np.ndarray:
    """Each packet's rank inside its VOQ: its seq minus the VOQ's first.

    Every arrival source numbers a VOQ's packets consecutively in array
    order (:meth:`~repro.traffic.batch.BatchTrafficGenerator.draw`, trace
    replay, the fabric link coupler), possibly continuing an earlier
    draw, so the rank needs no sort.  The first seq is a
    ``np.minimum.at`` reduction, which — unlike a repeated-index
    assignment — does not depend on which write NumPy applies last.
    """
    first = np.full(num_voqs, np.iinfo(seqs.dtype).max, dtype=seqs.dtype)
    np.minimum.at(first, voqs, seqs)
    return seqs - first[voqs]


def voq_grouping(batch: ArrivalBatch) -> VoqGrouping:
    """The :class:`VoqGrouping` of a monolithic batch (one bincount)."""
    counts = np.bincount(batch.voqs, minlength=batch.n * batch.n)
    return VoqGrouping(counts=counts, starts=np.cumsum(counts) - counts)


def frame_ids(
    rank0: np.ndarray,
    schedule: FrameSchedule,
    size: int,
    dtype: type = np.int64,
) -> np.ndarray:
    """The frame covering each index of a VOQ-grouped packet array (-1: none),
    as a ``dtype`` array.

    ``rank0[v]`` is where rank 0 of VOQ ``v`` would sit in the grouped
    array (its run start minus the first rank the run holds).  A VOQ's
    frames tile its ranks contiguously — each frame starts at the running
    count taken before it — so frame ``f`` covers grouped indices
    ``rank0[f.voq] + f.start + [0, f.size)``: one scatter, no search.
    """
    fid = np.full(size, -1, dtype=dtype)
    if len(schedule):
        covered = concat_ranges(
            rank0[schedule.voq] + schedule.start, schedule.size, dtype
        )
        fid[covered] = np.repeat(
            np.arange(len(schedule), dtype=dtype), schedule.size
        )
    return fid


def frame_membership(
    grouping: VoqGrouping, schedule: FrameSchedule, dtype: type = np.int64
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map the grouped packets to their frames: ``(rows, assembled_slot,
    position)``, each a ``dtype`` array (the batch's slot dtype).

    ``rows`` are the grouped rows of the framed packets, ascending (PF
    leaves sub-threshold VOQ tails unframed); ``assembled_slot`` and
    ``position`` are per framed packet.
    """
    size = int(grouping.counts.sum())
    fid = frame_ids(grouping.starts, schedule, size, dtype)
    rows = np.flatnonzero(fid >= 0).astype(dtype)
    if len(rows) < len(fid):
        fid = fid[rows]
    # Frame f covers grouped rows starts[f.voq] + f.start + [0, f.size).
    position = (grouping.starts[schedule.voq] + schedule.start).astype(dtype)
    position = position[fid]
    np.subtract(rows, position, out=position)
    return rows, schedule.slot.astype(dtype)[fid], position


# ---------------------------------------------------------------------------
# Streaming (windowed-replay) frame formation
# ---------------------------------------------------------------------------


class FrameFormationStream:
    """Resumable frame formation across all inputs.

    The windowed form of :func:`build_frame_schedule`: one formation
    lane per input.  ``feed`` absorbs one window of arrivals and forms
    every frame whose cycle boundary slot is strictly below the window's
    end (later cycles could still see this window's backlog *plus future
    arrivals*, so they must wait); ``finish`` runs the quiescence (drain)
    loop.
    """

    def __init__(self, n: int, rule: FormationRule) -> None:
        self.n = n
        self._form = _make_formation(n, rule)

    def feed(
        self,
        slots: np.ndarray,
        inputs: np.ndarray,
        outputs: np.ndarray,
        boundary: Optional[int],
    ) -> FrameSchedule:
        """Absorb one window's arrivals; form frames for cycles < boundary.

        ``boundary=None`` runs the drain instead: every remaining frame
        forms (the object engine's post-arrival quiescence loop).
        """
        n = self.n
        if len(slots):
            tags = arrival_tags(slots, self._form.residue[inputs], n)
            self._form.absorb(inputs, tags, outputs)
        if boundary is None:
            return self._form.run(None)
        limit = (boundary - self._form.residue + n - 1) // n
        return self._form.run(limit)

    def finish(self) -> FrameSchedule:
        """Form every remaining frame (the object engine's drain loop)."""
        return self._form.run(None)


class FramedPacketBuffer:
    """Carried unframed packets, mapped to frames as they form.

    The streamed counterpart of :func:`frame_membership`: packets wait in
    per-VOQ rank order until a frame covers their rank (frames always
    consume a contiguous rank prefix), then leave with their frame's
    formation slot and their position inside it.  PF's sub-threshold VOQ
    tails simply stay buffered forever, exactly like the object engine's
    never-framed packets.  Per-packet columns keep the run's
    :func:`~repro.traffic.batch.column_types`.
    """

    def __init__(self, num_voqs: int, types: ColumnTypes) -> None:
        self._num = num_voqs
        self._slot = types.slot
        #: Per VOQ: the first unframed rank and the next rank to arrive;
        #: the buffer holds exactly the ranks in between.
        self._rank_lo = np.zeros(num_voqs, dtype=np.int64)
        self._rank_next = np.zeros(num_voqs, dtype=np.int64)
        empty = np.empty(0, dtype=types.slot)
        self._buf = (np.empty(0, dtype=types.voq), empty, empty, empty, empty)

    def pending(self) -> int:
        """Packets still waiting for a frame."""
        return len(self._buf[0])

    def feed(
        self,
        voqs: np.ndarray,
        slots: np.ndarray,
        seqs: np.ndarray,
        gidx: np.ndarray,
        schedule: FrameSchedule,
    ) -> Tuple[np.ndarray, ...]:
        """Add packets and frames; return the newly framed packets.

        Returns ``(voq, slot, seq, gidx, rank, assembled, position)``,
        grouped by VOQ in rank order.
        """
        slot = self._slot
        ranks = voq_ranks(voqs, seqs, self._num)
        ranks += self._rank_next[voqs].astype(slot)
        self._rank_next += np.bincount(voqs, minlength=self._num)
        union = tuple(
            np.concatenate(pair)
            for pair in zip(self._buf, (voqs, ranks, slots, seqs, gidx))
        )
        voq, rank = union[:2]
        if len(voq) == 0:
            return (voq,) + (rank,) * 6
        # Each VOQ's buffered ranks run contiguously from its first
        # unframed one, so a packet's grouped index is its VOQ's run
        # start plus its rank offset: the union groups by one scatter.
        counts = self._rank_next - self._rank_lo
        rank0 = np.cumsum(counts) - counts - self._rank_lo
        place = rank0[voq] + rank
        grouped = []
        for column in union:
            out = np.empty_like(column)
            out[place] = column
            grouped.append(out)
        voq_s, rank_s, slot_s, seq_s, g_s = grouped
        at = frame_ids(rank0, schedule, len(voq), slot)
        member = at >= 0
        np.add.at(self._rank_lo, schedule.voq, schedule.size)
        keep = ~member
        self._buf = (
            voq_s[keep], rank_s[keep], slot_s[keep], seq_s[keep], g_s[keep]
        )
        at = at[member]
        rank_m = rank_s[member]
        return (
            voq_s[member],
            slot_s[member],
            seq_s[member],
            g_s[member],
            rank_m,
            schedule.slot.astype(slot)[at],
            rank_m - schedule.start.astype(slot)[at],
        )
