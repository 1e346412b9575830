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

The production path is the **array-stepped formation engine**
(:class:`_LaneFormation`): every ``(seed block, input)`` pair is one
*lane*, and all lanes advance through their cycle recursions in lock-step
— one NumPy pass per cycle index covering every lane at that cycle
(occupancy deltas gathered from the cycle-sorted arrival buffer, the
PF/FOFF pickers as masked argmax/argmin selections, round-robin pointers
as vectors).  Cycle indices at which no lane has a decision to make are
skipped in one jump: the global cursor moves to the smallest pending
lane cycle, so quiescent spans between arrivals cost nothing.  A run's
formation is O(num_cycles) vector steps instead of O(num_slots) Python
iterations, and stacking seeds widens the per-step arrays instead of
multiplying the step count — which is what makes PF/FOFF seed-batchable.

:func:`build_frame_schedule` runs the engine over a monolithic batch;
:class:`FrameFormationStream` is its resumable (windowed / multi-seed)
form; :func:`frame_membership` maps the VOQ-grouped packets to their
frames with one scatter, since a VOQ's frames tile its run of grouped
rows (:func:`voq_grouping`, :func:`frame_ids`).  The original
per-input scalar recursion (:class:`_InputFormation` driven by
:data:`Picker` closures) is retained as the *test-only reference* —
:func:`reference_frame_schedule` / :class:`ReferenceFormationStream` —
and the formation parity suite pins the vectorized engine against it
frame for frame.

The formation loop runs past the arrival horizon until a cycle forms no
frame, mirroring the object engine's drain phase: with no new arrivals a
frameless cycle leaves the VOQ state (and the round-robin pointers)
untouched, so no later cycle could form one either — exactly the
quiescence the drain detects.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from ... import telemetry
from ...traffic.batch import ArrivalBatch
from .base import concat_ranges, stable_id_argsort
from .compiled import compiled_active
from .compiled.frames_pass import form_lanes

__all__ = [
    "FormationRule",
    "FrameFormationStream",
    "arrival_tags",
    "FramedPacketBuffer",
    "FrameSchedule",
    "ReferenceFormationStream",
    "VoqGrouping",
    "build_frame_schedule",
    "drain_cut",
    "drain_horizon",
    "foff_picker",
    "foff_rule",
    "frame_ids",
    "frame_membership",
    "pf_picker",
    "pf_rule",
    "reference_frame_schedule",
    "voq_grouping",
    "voq_ranks",
]

_INT64_MAX = np.iinfo(np.int64).max


def drain_cut(num_slots: int, n: int) -> int:
    """Last slot the object engine's drain phase steps (inclusive).

    :class:`~repro.sim.engine.SimulationEngine` drains for at most
    ``max(50 * n, num_slots)`` slots after the arrival stream ends;
    packets that would depart later stay in flight there, so any replay
    (monolithic or streamed) must discard their departures too.  (The
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
    """Declarative frame chooser, shared by both formation paths.

    ``kind`` is ``"pf"`` (full frames behind a round-robin pointer, else
    pad the longest VOQ of at least ``threshold`` packets up to a full
    frame) or ``"foff"`` (full frames RR first, else the next nonempty
    VOQ behind a second round-robin pointer, taken whole).  The rule is
    plain data so the vectorized engine can dispatch on it per step and
    the scalar reference can build the equivalent :data:`Picker`.
    """

    kind: str
    threshold: int = 0

    def make_picker(self, n: int) -> "Picker":
        """The scalar reference chooser for one input (test-only path)."""
        if self.kind == "pf":
            return pf_picker(n, self.threshold)
        if self.kind == "foff":
            return foff_picker(n)
        raise ValueError(f"unknown formation rule kind {self.kind!r}")


def pf_rule(threshold: int) -> FormationRule:
    """The Padded Frames formation rule at a given padding threshold."""
    return FormationRule("pf", threshold)


def foff_rule() -> FormationRule:
    """The FOFF formation rule (full frames RR, else partial frames RR)."""
    return FormationRule("foff")


#: One cycle's frame decision: ``(voq_output, real_packets, fake_cells)``
#: or None when the input stays idle this cycle.
Pick = Optional[Tuple[int, int, int]]
#: Per-input frame chooser of the scalar *reference* path:
#: ``pick(avail, total, full_count)`` consumes the VOQ occupancy list
#: plus its maintained aggregates (total backlog, number of full-frame
#: VOQs), may mutate its round-robin pointers, and returns the cycle's
#: :data:`Pick`.  The production kernels run :class:`_LaneFormation`
#: instead; pickers survive as the independent implementation the
#: formation parity tests check the array engine against.
Picker = Callable[[List[int], int, int], Pick]


class FrameSchedule(NamedTuple):
    """Every frame formed during a run, across all inputs.

    Parallel arrays, one entry per frame: the flat VOQ id whose packets
    fill it, the first VOQ rank it covers, how many real packets it took,
    how many fake cells pad it (PF only), and the cycle-start slot at
    which it began transmitting (packet ``k`` crosses at ``slot + k`` to
    intermediate port ``k``).  Within one VOQ, entries appear in
    formation order (ascending ``start``); the global order across VOQs
    is unspecified (the array engine emits cycle-major, the scalar
    reference input-major) and nothing downstream may depend on it.
    """

    voq: np.ndarray
    start: np.ndarray
    size: np.ndarray
    fakes: np.ndarray
    slot: np.ndarray

    def __len__(self) -> int:
        return len(self.voq)


def pf_picker(n: int, threshold: int) -> Picker:
    """The Padded Frames frame chooser (full frames RR, else pad the
    longest VOQ of at least ``threshold`` packets up to a full frame)."""
    state = {"full_rr": 0}

    def pick(avail: List[int], total: int, full_count: int) -> Pick:
        if full_count:
            pointer = state["full_rr"]
            for offset in range(n):
                j = pointer + offset
                if j >= n:
                    j -= n
                if avail[j] >= n:
                    state["full_rr"] = j + 1 if j + 1 < n else 0
                    return j, n, 0
        if total < threshold:
            return None
        # VoqBank.longest: strictly longest, ties to the lowest index.
        best, longest = 0, -1
        for j in range(n):
            if avail[j] > best:
                best, longest = avail[j], j
        if longest < 0 or best < threshold:
            return None
        return longest, best, n - best

    return pick


def foff_picker(n: int) -> Picker:
    """The FOFF frame chooser (full frames RR first, else the next
    nonempty VOQ behind a second round-robin pointer, taken whole)."""
    state = {"full_rr": 0, "partial_rr": 0}

    def pick(avail: List[int], total: int, full_count: int) -> Pick:
        if total == 0:
            return None
        if full_count:
            pointer = state["full_rr"]
            for offset in range(n):
                j = pointer + offset
                if j >= n:
                    j -= n
                if avail[j] >= n:
                    state["full_rr"] = j + 1 if j + 1 < n else 0
                    return j, n, 0
        pointer = state["partial_rr"]
        for offset in range(n):
            j = pointer + offset
            if j >= n:
                j -= n
            if avail[j]:
                state["partial_rr"] = j + 1 if j + 1 < n else 0
                return j, avail[j], 0
        raise AssertionError("nonzero backlog with no nonempty VOQ")

    return pick


# ---------------------------------------------------------------------------
# The array-stepped formation engine (the production path)
# ---------------------------------------------------------------------------


class _LaneFormation:
    """Lock-step frame formation across all ``(block, input)`` lanes.

    Carried state is flat per-lane arrays: the ``(lane, voq)`` occupancy
    and taken grids, the round-robin pointers, and each lane's current
    cycle index.  Pending arrivals live in two parallel views of the
    same event set — cycle-major (tag-sorted, consumed by one global
    cursor) for occupancy absorption, lane-major (``(lane, tag)``-sorted)
    for the decline jumps.  One :meth:`run` step serves every lane whose
    cycle equals the global cursor ``c``:

    1. absorb every arrival with tag <= ``c`` (one scalar searchsorted
       on the cycle-major tags + one bincount scatter into the occupancy
       grid — eager for lanes ahead of the cursor, which is safe because
       a lane's next pick absorbs everything up to its own cycle anyway);
    2. evaluate the rule's pick as masked vector selections — the
       cyclic-RR choice is an argmin of ``(j - pointer) mod n`` over the
       eligible mask, PF's longest-VOQ fallback a plain argmax;
    3. record the formed frames and update occupancies / pointers; lanes
       that decline jump straight to their next pending arrival tag (or
       the window limit / quiescence).

    The cursor then moves to the smallest pending lane cycle, so spans
    where no lane crosses a decision threshold are skipped in one jump —
    a lane's sequence of (cycle, decision) pairs is *identical* to the
    scalar reference recursion, step-skipping included.
    """

    def __init__(self, n: int, num_blocks: int, rule: FormationRule) -> None:
        if rule.kind not in ("pf", "foff"):
            raise ValueError(f"unknown formation rule kind {rule.kind!r}")
        self.n = n
        self.num_lanes = num_blocks * n
        self.rule = rule
        lanes = np.arange(self.num_lanes, dtype=np.int64)
        inputs = lanes % n
        #: Cycle-boundary slot of lane cycle ``c`` is ``residue + c * n``.
        self.residue = (n - inputs) % n
        self.voq_base = (lanes // n) * n * n + inputs * n
        self.avail = np.zeros(self.num_lanes * n, dtype=np.int64)
        self._avail2d = self.avail.reshape(self.num_lanes, n)
        self.taken = np.zeros((self.num_lanes, n), dtype=np.int64)
        self.full_rr = np.zeros(self.num_lanes, dtype=np.int64)
        self.partial_rr = np.zeros(self.num_lanes, dtype=np.int64)
        self.cycle = np.zeros(self.num_lanes, dtype=np.int64)
        #: ``_RRTAB[p, j] = (j - p) mod n``: the cyclic-RR preference of
        #: VOQ ``j`` behind pointer ``p`` — one row gather per step
        #: instead of a broadcast subtract + mod.
        self._rrtab = (self._cols()[None, :] - self._cols()[:, None]) % n
        empty = np.empty(0, dtype=np.int64)
        # Pending arrivals: cycle-major tags + occupancy cells behind the
        # global cursor ``_g``, and the lane-major keys the decline jumps
        # binary-search.
        self._ctag = empty
        self._ccell = empty
        self._g = 0
        self._lkey = empty
        self._stride = 2

    def _cols(self) -> np.ndarray:
        return np.arange(self.n, dtype=np.int64)

    def absorb(
        self, lanes: np.ndarray, tags: np.ndarray, outs: np.ndarray
    ) -> None:
        """Buffer one window's arrivals (per-lane tags nondecreasing).

        The not-yet-absorbed remainder is merged with the new events and
        both sorted views rebuilt.  Carried tags never exceed incoming
        ones on the same lane (a pending tag is at most the lane's limit
        cycle, which a new window's arrivals start from), so a stable
        radix sort by lane re-sorts the union by ``(lane, tag)``; the
        cycle-major view radix-sorts cursor-relative tags where they fit
        16 bits (any realistic window) and falls back to a full argsort.
        """
        n = self.n
        g = self._g
        lane = np.concatenate([self._ccell[g:] // n, lanes])
        cell = np.concatenate([self._ccell[g:], lanes * n + outs])
        tag = np.concatenate([self._ctag[g:], tags])
        del lanes, tags, outs  # temporaries a caller passed free here
        self._g = 0
        if len(tag) == 0:
            empty = np.empty(0, dtype=np.int64)
            self._ctag = self._ccell = self._lkey = empty
            self._stride = 2
            return
        lo, hi = int(tag.min()), int(tag.max())
        order = stable_id_argsort(tag - lo, hi - lo + 1)
        self._ctag = tag[order]
        self._ccell = cell[order]
        del order, cell
        lorder = stable_id_argsort(lane, self.num_lanes)
        self._stride = hi + 2
        # Lane-major (lane, tag) keys; a key's tag is ``key % stride``.
        self._lkey = lane[lorder]
        self._lkey *= self._stride
        self._lkey += tag[lorder]

    def run(self, limit: Optional[np.ndarray]) -> FrameSchedule:
        """Advance every lane below its ``limit`` cycle (exclusive).

        ``limit=None`` runs the drain instead: lanes advance until the
        pick declines with no pending arrivals (the object engine's
        post-arrival quiescence).
        """
        n = self.n
        rule = self.rule
        is_pf = rule.kind == "pf"
        threshold = rule.threshold
        cycle = self.cycle
        rrtab = self._rrtab
        ctag = self._ctag
        ccell = self._ccell
        num_events = len(ctag)
        num_cells = self.num_lanes * n
        lim = (
            np.full(self.num_lanes, _INT64_MAX, dtype=np.int64)
            if limit is None
            else limit
        )
        parts: Tuple[List[np.ndarray], ...] = ([], [], [], [], [])
        voq_parts, start_parts, size_parts, fakes_parts, slot_parts = parts
        g = self._g
        # Formation-loop telemetry, accumulated as plain ints per cycle
        # (negligible next to the ~20 array ops each iteration runs) and
        # flushed to the counters once, after the loop, when enabled.
        lane_advances = 0
        cursor_jumps = 0
        while True:
            pending = np.where(cycle < lim, cycle, _INT64_MAX)
            c = int(pending.min())
            if c == _INT64_MAX:
                break
            act = np.flatnonzero(pending == c)

            # Absorb every arrival with tag <= c: one cursor advance over
            # the cycle-major events.  Lanes ahead of the cursor absorb
            # early, which cannot change any pick — their next decision
            # is at their own cycle >= the arrival's tag.
            if g < num_events:
                g2 = int(np.searchsorted(ctag, c, side="right"))
                if g2 > g:
                    self.avail += np.bincount(
                        ccell[g:g2], minlength=num_cells
                    )
                    g = g2

            rows = self._avail2d[act]

            # The pick, as masked selections.  Cyclic round-robin choice:
            # the eligible j minimizing (j - pointer) mod n.
            full = rows >= n
            rr = self.full_rr[act]
            off = np.where(full, rrtab[rr], n).min(axis=1)
            has_full = off < n
            j_full = (off + rr) % n
            if is_pf:
                best = rows.max(axis=1)
                j_alt = rows.argmax(axis=1)  # ties to the lowest index
                formed = has_full | (best >= threshold)
                j = np.where(has_full, j_full, j_alt)
                k = np.where(has_full, n, best)
            else:
                rr2 = self.partial_rr[act]
                off2 = np.where(rows > 0, rrtab[rr2], n).min(axis=1)
                formed = off2 < n
                j_alt = (off2 + rr2) % n
                j = np.where(has_full, j_full, j_alt)
                k = np.where(has_full, n, rows[np.arange(len(act)), j])

            if formed.all():
                lf, jf, kf, took_full = act, j, k, has_full
                fsel = None
            else:
                fsel = np.flatnonzero(formed)
                lf = act[fsel]
                jf = j[fsel]
                kf = k[fsel]
                took_full = has_full[fsel]
            if len(lf):
                lane_advances += len(lf)
                voq_parts.append(self.voq_base[lf] + jf)
                start_parts.append(self.taken[lf, jf])
                size_parts.append(kf)
                # Full frames pad nothing (k = n), so PF's fake-cell
                # count is n - k in both pick branches.
                fakes_parts.append(
                    n - kf if is_pf else np.zeros(len(lf), dtype=np.int64)
                )
                slot_parts.append(self.residue[lf] + c * n)
                self.taken[lf, jf] += kf
                self._avail2d[lf, jf] -= kf
                tf = np.flatnonzero(took_full)
                if len(tf):
                    self.full_rr[lf[tf]] = (jf[tf] + 1) % n
                if not is_pf:
                    tp = np.flatnonzero(~took_full)
                    if len(tp):
                        self.partial_rr[lf[tp]] = (jf[tp] + 1) % n
                cycle[lf] = c + 1

            if fsel is not None:
                # Declining lanes jump to their next pending arrival —
                # the idle-span skip; the pick is a pure function of
                # state an empty cycle leaves untouched.
                ld = act[~formed]
                cursor_jumps += len(ld)
                if len(self._lkey):
                    idx = np.searchsorted(
                        self._lkey,
                        ld * self._stride + min(c, self._stride - 1),
                        side="right",
                    )
                    key = self._lkey[np.minimum(idx, len(self._lkey) - 1)]
                    have = (idx < len(self._lkey)) & (
                        key // self._stride == ld
                    )
                    nxt = key % self._stride
                else:
                    have = np.zeros(len(ld), dtype=bool)
                    nxt = ld
                if limit is None:
                    # Drain quiescence: no arrivals to come and the pick
                    # declines — the object engine's drain sees the same.
                    cycle[ld] = np.where(have, nxt, _INT64_MAX)
                else:
                    cycle[ld] = np.where(
                        have, np.minimum(nxt, lim[ld]), lim[ld]
                    )
        self._g = g
        if telemetry.enabled():
            telemetry.count("kernel.frames.lane_advances", lane_advances)
            telemetry.count("kernel.frames.cursor_jumps", cursor_jumps)
        empty = np.empty(0, dtype=np.int64)
        return FrameSchedule(
            voq=np.concatenate(voq_parts) if voq_parts else empty,
            start=np.concatenate(start_parts) if start_parts else empty,
            size=np.concatenate(size_parts) if size_parts else empty,
            fakes=np.concatenate(fakes_parts) if fakes_parts else empty,
            slot=np.concatenate(slot_parts) if slot_parts else empty,
        )


class _CompiledLaneFormation:
    """Drop-in for :class:`_LaneFormation` backed by the compiled per-lane
    stepper (:func:`repro.sim.kernels.compiled.frames_pass.form_lanes`).

    Carries the same per-lane state grids; pending arrivals live in one
    lane-major CSR buffer instead of the NumPy engine's two sorted views
    (and are absorbed lazily, per lane, rather than eagerly under the
    global cursor — unobservable, because a lane's pick only reads
    occupancy after absorbing every tag at or below its own cycle).
    Schedules come out lane-major instead of cycle-major; the
    :class:`FrameSchedule` contract leaves the cross-VOQ order
    unspecified, and within a VOQ — owned by exactly one lane — frames
    still appear in ascending formation order.
    """

    def __init__(self, n: int, num_blocks: int, rule: FormationRule) -> None:
        if rule.kind not in ("pf", "foff"):
            raise ValueError(f"unknown formation rule kind {rule.kind!r}")
        self.n = n
        self.num_lanes = num_blocks * n
        self.rule = rule
        lanes = np.arange(self.num_lanes, dtype=np.int64)
        inputs = lanes % n
        #: Cycle-boundary slot of lane cycle ``c`` is ``residue + c * n``.
        self.residue = (n - inputs) % n
        self.voq_base = (lanes // n) * n * n + inputs * n
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

        Same merge invariant as :meth:`_LaneFormation.absorb`: a carried
        tag is at most the lane's limit cycle, which a new window's tags
        start from, so a stable sort by lane re-sorts the union by
        ``(lane, tag)``.
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


def _make_formation(n: int, num_blocks: int, rule: FormationRule):
    """The active backend's formation engine (NumPy lock-step lanes, or
    the compiled per-lane stepper when ``backend="compiled"``)."""
    if compiled_active():
        return _CompiledLaneFormation(n, num_blocks, rule)
    return _LaneFormation(n, num_blocks, rule)


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
    """Run the array-stepped formation engine over one monolithic batch."""
    n = batch.n
    form = _make_formation(n, 1, rule)
    form.absorb(
        batch.inputs,
        arrival_tags(batch.slots, form.residue[batch.inputs], n),
        batch.outputs,
    )
    return form.run(None)


# ---------------------------------------------------------------------------
# The scalar reference recursion (test-only)
# ---------------------------------------------------------------------------


class _InputFormation:
    """Resumable frame-formation recursion of one input (reference path).

    The per-cycle decision loop of the object engine's frame-at-a-time
    inputs, restartable at any cycle boundary: the carried state is the
    VOQ occupancy list, its aggregates, the picker's round-robin
    pointers, the cycle cursor, and the not-yet-absorbed arrival buffer.
    ``run`` advances to (exclusive) ``limit_cycle``; ``drain`` runs the
    quiescence loop of the object engine's drain phase.

    This was the production formation path before the array-stepped
    engine; it survives because it is a genuinely independent
    implementation (plain Python ints, per-input closures) that the
    formation parity suite pins :class:`_LaneFormation` against.  Cycles
    at which the pick declines and no arrival lands are skipped in one
    jump (the pick is a pure function of unchanged state), exactly like
    the vector engine's idle-span skip.
    """

    __slots__ = (
        "n", "residue", "pick", "avail", "taken", "total", "full_count",
        "cycle", "arrival_cycle", "arrival_out", "at",
    )

    def __init__(self, n: int, residue: int, pick: Picker) -> None:
        self.n = n
        self.residue = residue
        self.pick = pick
        self.avail = [0] * n
        self.taken = [0] * n
        self.total = 0
        self.full_count = 0
        self.cycle = 0
        self.arrival_cycle: List[int] = []
        self.arrival_out: List[int] = []
        self.at = 0

    def absorb(self, cycles, outs) -> None:
        """Buffer arrivals (cycle-tagged, in acceptance order)."""
        self.arrival_cycle.extend(int(c) for c in cycles)
        self.arrival_out.extend(int(j) for j in outs)

    def _step(self, limit_cycle: Optional[int], sink) -> None:
        f_out, f_start, f_size, f_fakes, f_slot = sink
        n = self.n
        residue = self.residue
        pick = self.pick
        avail = self.avail
        taken = self.taken
        total = self.total
        full_count = self.full_count
        arrival_cycle = self.arrival_cycle
        arrival_out = self.arrival_out
        at = self.at
        num_arrivals = len(arrival_cycle)
        c = self.cycle
        while True:
            if limit_cycle is not None and c >= limit_cycle:
                break
            while at < num_arrivals and arrival_cycle[at] == c:
                j = arrival_out[at]
                at += 1
                avail[j] += 1
                total += 1
                if avail[j] == n:
                    full_count += 1
            picked = pick(avail, total, full_count)
            if picked is not None:
                j, k, fakes = picked
                f_out.append(j)
                f_start.append(taken[j])
                f_size.append(k)
                f_fakes.append(fakes)
                f_slot.append(residue + c * n)
                taken[j] += k
                before = avail[j]
                avail[j] = before - k
                total -= k
                if before >= n and avail[j] < n:
                    full_count -= 1
                c += 1
                continue
            # No frame this cycle.  The pick is a pure function of
            # (avail, pointers), which an empty cycle leaves untouched,
            # so every cycle until the next arrival declines too.
            if at >= num_arrivals:
                if limit_cycle is None:
                    # Drain quiescence: no arrivals to come and the pick
                    # declines — the object engine's drain sees the same.
                    break
                c = limit_cycle
            else:
                nxt = arrival_cycle[at]
                c = nxt if limit_cycle is None else min(nxt, limit_cycle)
        # Save state; drop the consumed arrival prefix.
        self.cycle = c
        self.total = total
        self.full_count = full_count
        if at:
            del arrival_cycle[:at]
            del arrival_out[:at]
        self.at = 0

    def run(self, limit_cycle: int, sink) -> None:
        """Advance through every cycle strictly below ``limit_cycle``,
        appending formed frames to the ``sink`` lists."""
        if limit_cycle > self.cycle:
            self._step(limit_cycle, sink)

    def drain(self, sink) -> None:
        """Run the post-arrival quiescence loop (object-engine drain)."""
        self._step(None, sink)


def _input_frames(
    n: int,
    residue: int,
    cycles: np.ndarray,
    outs: np.ndarray,
    pick: Picker,
) -> Tuple[List[int], List[int], List[int], List[int], List[int]]:
    """Replay one input's frame decisions over its cycle boundaries.

    ``cycles``/``outs`` are the input's arrivals in acceptance order,
    tagged with the first cycle index whose start slot is >= the arrival
    slot (arrivals in the boundary slot itself are visible to that
    cycle's pick — the slot protocol accepts before serving).
    """
    state = _InputFormation(n, residue, pick)
    state.absorb(cycles, outs)
    sink: Tuple[List[int], ...] = ([], [], [], [], [])
    state.drain(sink)
    return sink


def reference_frame_schedule(
    batch: ArrivalBatch, rule: FormationRule
) -> FrameSchedule:
    """The scalar reference formation (test-only; see :class:`_InputFormation`).

    Runs every input's per-cycle recursion with the rule's scalar picker
    and collects the schedule input-major.  The formation parity tests
    compare :func:`build_frame_schedule` against this frame for frame.
    """
    n = batch.n
    order = np.argsort(batch.inputs, kind="stable")
    counts = np.bincount(batch.inputs, minlength=n)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    voq_l: List[int] = []
    start_l: List[int] = []
    size_l: List[int] = []
    fakes_l: List[int] = []
    slot_l: List[int] = []
    for i in range(n):
        idx = order[offsets[i] : offsets[i + 1]]
        residue = (-i) % n
        cycles = (batch.slots[idx] - residue + n - 1) // n
        f_out, f_start, f_size, f_fakes, f_slot = _input_frames(
            n, residue, cycles, batch.outputs[idx], rule.make_picker(n)
        )
        voq_l.extend(i * n + j for j in f_out)
        start_l.extend(f_start)
        size_l.extend(f_size)
        fakes_l.extend(f_fakes)
        slot_l.extend(f_slot)
    return FrameSchedule(
        voq=np.asarray(voq_l, dtype=np.int64),
        start=np.asarray(start_l, dtype=np.int64),
        size=np.asarray(size_l, dtype=np.int64),
        fakes=np.asarray(fakes_l, dtype=np.int64),
        slot=np.asarray(slot_l, dtype=np.int64),
    )


class VoqGrouping(NamedTuple):
    """A batch's stable grouping by VOQ, as per-VOQ runs.

    Grouped row ``starts[v] + r`` holds rank ``r`` (arrival order) of VOQ
    ``v``, which runs ``counts[v]`` rows — the order of
    :func:`~repro.traffic.batch.stable_voq_argsort`, which maps grouped
    rows back to batch rows.  The monolithic framed kernels replay in this
    order: a VOQ's frames tile its run and its resequencing order is the
    row order.
    """

    counts: np.ndarray
    starts: np.ndarray

    def voqs(self) -> np.ndarray:
        """The VOQ id of every grouped row."""
        return np.repeat(
            np.arange(len(self.counts), dtype=np.int64), self.counts
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
    first = np.full(num_voqs, _INT64_MAX, dtype=np.int64)
    np.minimum.at(first, voqs, seqs)
    return seqs - first[voqs]


def voq_grouping(batch: ArrivalBatch) -> VoqGrouping:
    """The :class:`VoqGrouping` of a monolithic batch (one bincount)."""
    counts = np.bincount(batch.voqs, minlength=batch.n * batch.n)
    return VoqGrouping(counts=counts, starts=np.cumsum(counts) - counts)


def frame_ids(
    rank0: np.ndarray, schedule: FrameSchedule, size: int
) -> np.ndarray:
    """The frame covering each index of a VOQ-grouped packet array (-1: none).

    ``rank0[v]`` is where rank 0 of VOQ ``v`` would sit in the grouped
    array (its run start minus the first rank the run holds).  A VOQ's
    frames tile its ranks contiguously — each frame starts at the running
    count taken before it — so frame ``f`` covers grouped indices
    ``rank0[f.voq] + f.start + [0, f.size)``: one scatter, no search.
    """
    fid = np.full(size, -1, dtype=np.int64)
    if len(schedule):
        covered = concat_ranges(
            rank0[schedule.voq] + schedule.start, schedule.size
        )
        fid[covered] = np.repeat(
            np.arange(len(schedule), dtype=np.int64), schedule.size
        )
    return fid


def frame_membership(
    grouping: VoqGrouping, schedule: FrameSchedule
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map the grouped packets to their frames: ``(rows, assembled_slot,
    position)``.

    ``rows`` are the grouped rows of the framed packets, ascending (PF
    leaves sub-threshold VOQ tails unframed); ``assembled_slot`` and
    ``position`` are per framed packet.
    """
    fid = frame_ids(grouping.starts, schedule, int(grouping.counts.sum()))
    rows = np.flatnonzero(fid >= 0)
    if len(rows) < len(fid):
        fid = fid[rows]
    # Frame f covers grouped rows starts[f.voq] + f.start + [0, f.size).
    position = (grouping.starts[schedule.voq] + schedule.start)[fid]
    np.subtract(rows, position, out=position)
    return rows, schedule.slot[fid], position


# ---------------------------------------------------------------------------
# Streaming (windowed-replay) frame formation
# ---------------------------------------------------------------------------


class FrameFormationStream:
    """Resumable frame formation across all inputs (and seed blocks).

    The windowed form of the array-stepped engine: one
    :class:`_LaneFormation` lane per (block, input); block ``b`` of a
    multi-seed replay owns VOQ ids ``b * n^2 + i * n + j``.  ``feed``
    absorbs one window of arrivals and forms every frame whose cycle
    boundary slot is strictly below the window's end (later cycles could
    still see this window's backlog *plus future arrivals*, so they must
    wait); ``finish`` runs the quiescence (drain) loop.
    """

    def __init__(self, n: int, num_blocks: int, rule: FormationRule) -> None:
        self.n = n
        self.num_blocks = num_blocks
        self._form = _make_formation(n, num_blocks, rule)

    def feed(
        self,
        blocks: np.ndarray,
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
        if len(blocks):
            lanes = blocks * n + inputs
            tags = arrival_tags(slots, self._form.residue[lanes], n)
            self._form.absorb(lanes, tags, outputs)
        if boundary is None:
            return self._form.run(None)
        limit = (boundary - self._form.residue + n - 1) // n
        return self._form.run(limit)

    def finish(self) -> FrameSchedule:
        """Form every remaining frame (the object engine's drain loop)."""
        return self._form.run(None)


class ReferenceFormationStream:
    """Scalar-reference counterpart of :class:`FrameFormationStream`.

    Test-only: one :class:`_InputFormation` per (block, input), advanced
    through the same feed/finish contract.  The streamed formation
    parity tests pin the array engine's windowed schedules against this.
    """

    def __init__(self, n: int, num_blocks: int, rule: FormationRule) -> None:
        self.n = n
        self.num_blocks = num_blocks
        self._states = [
            _InputFormation(n, (-i) % n, rule.make_picker(n))
            for _ in range(num_blocks)
            for i in range(n)
        ]

    def _collect(self, advance) -> FrameSchedule:
        n = self.n
        voq_l: List[int] = []
        start_l: List[int] = []
        size_l: List[int] = []
        fakes_l: List[int] = []
        slot_l: List[int] = []
        for b in range(self.num_blocks):
            for i in range(n):
                state = self._states[b * n + i]
                sink: Tuple[List[int], ...] = ([], [], [], [], [])
                advance(state, sink)
                f_out, f_start, f_size, f_fakes, f_slot = sink
                base = b * n * n + i * n
                voq_l.extend(base + j for j in f_out)
                start_l.extend(f_start)
                size_l.extend(f_size)
                fakes_l.extend(f_fakes)
                slot_l.extend(f_slot)
        return FrameSchedule(
            voq=np.asarray(voq_l, dtype=np.int64),
            start=np.asarray(start_l, dtype=np.int64),
            size=np.asarray(size_l, dtype=np.int64),
            fakes=np.asarray(fakes_l, dtype=np.int64),
            slot=np.asarray(slot_l, dtype=np.int64),
        )

    def feed(
        self,
        blocks: np.ndarray,
        slots: np.ndarray,
        inputs: np.ndarray,
        outputs: np.ndarray,
        boundary: Optional[int],
    ) -> FrameSchedule:
        """Absorb one window's arrivals; form frames for cycles < boundary."""
        n = self.n
        if len(blocks):
            key = blocks * n + inputs
            order = np.argsort(key, kind="stable")
            counts = np.bincount(key, minlength=self.num_blocks * n)
            offsets = np.concatenate(([0], np.cumsum(counts)))
            for k in range(self.num_blocks * n):
                idx = order[offsets[k] : offsets[k + 1]]
                if len(idx):
                    state = self._states[k]
                    residue = state.residue
                    cycles = (slots[idx] - residue + n - 1) // n
                    state.absorb(cycles, outputs[idx])
        if boundary is None:
            return self._collect(lambda state, sink: state.drain(sink))

        def advance(state: _InputFormation, sink) -> None:
            limit = (boundary - state.residue + n - 1) // n
            state.run(limit, sink)

        return self._collect(advance)

    def finish(self) -> FrameSchedule:
        """Form every remaining frame (the object engine's drain loop)."""
        return self._collect(lambda state, sink: state.drain(sink))


class FramedPacketBuffer:
    """Carried unframed packets, mapped to frames as they form.

    The streamed counterpart of :func:`frame_membership`: packets wait in
    per-VOQ rank order until a frame covers their rank (frames always
    consume a contiguous rank prefix), then leave with their frame's
    formation slot and their position inside it.  PF's sub-threshold VOQ
    tails simply stay buffered forever, exactly like the object engine's
    never-framed packets.
    """

    def __init__(self, num_voqs: int) -> None:
        self._num = num_voqs
        #: Per VOQ: the first unframed rank and the next rank to arrive;
        #: the buffer holds exactly the ranks in between.
        self._rank_lo = np.zeros(num_voqs, dtype=np.int64)
        self._rank_next = np.zeros(num_voqs, dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        self._buf = (empty, empty, empty, empty, empty)

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
        ranks = voq_ranks(voqs, seqs, self._num) + self._rank_next[voqs]
        self._rank_next += np.bincount(voqs, minlength=self._num)
        union = tuple(
            np.concatenate(pair)
            for pair in zip(self._buf, (voqs, ranks, slots, seqs, gidx))
        )
        voq, rank = union[:2]
        if len(voq) == 0:
            return (np.empty(0, dtype=np.int64),) * 7
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
        at = frame_ids(rank0, schedule, len(voq))
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
            schedule.slot[at],
            rank_m - schedule.start[at],
        )
