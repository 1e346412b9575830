"""Shared replay primitives for the vectorized switch kernels.

Every switch the batch engine models is, for a fixed arrival stream, a
deterministic pipeline of FIFO queues served by the periodic fabrics.
The recursions here are the whole toolkit the per-switch kernels build
on:

* ``service_k = max(ready_k, service_{k-1} + 1)`` — a FIFO served once
  per slot — is a running maximum of ``ready_k - k``; offsets per queue
  make one ``np.maximum.accumulate`` serve every queue of a bank
  (:func:`segmented_running_max`, :func:`segmented_fifo_service`);
* the same recursion over poll *indices* covers queues polled every
  ``n``-th slot (:func:`periodic_fifo_service`);
* banks of periodic priority queues (the Largest-Stripe-First grids of
  Sprinklers, the per-output FIFOs at the intermediate stage) peel
  exactly, largest level first and level-major: one NumPy pass serves a
  level in all queues (:func:`replay_polled_queues`);
* stripe/frame completion instants are slices of the per-VOQ arrival
  sequence (:func:`unit_completion`).

:class:`Departures` is the structure-of-arrays record every kernel
returns; :mod:`repro.sim.fast_engine` turns it into a
:class:`~repro.sim.metrics.SimulationResult` identical to the object
engine's.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from ... import telemetry
from ...traffic.batch import ArrivalBatch, stable_voq_argsort
from .compiled import compiled_active
from .compiled.polled_pass import serve_polled

__all__ = [
    "Departures",
    "PolledQueueBank",
    "StreamKernel",
    "UnitAssembler",
    "Units",
    "WindowStacker",
    "composite_argsort",
    "concat_ranges",
    "mid_residues",
    "periodic_fifo_service",
    "port_fifo_service",
    "replay_polled_queues",
    "row_residues",
    "segmented_fifo_service",
    "segmented_running_max",
    "stable_id_argsort",
    "unit_completion",
]

_INT64_MAX = int(np.iinfo(np.int64).max)


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated index ranges ``[starts[i], starts[i] + counts[i])``.

    The vectorized form of ``np.concatenate([np.arange(s, s + c) ...])``
    — one ``repeat`` plus one ``arange`` regardless of how many ranges
    there are.  Used wherever a kernel expands variable-length per-event
    runs in one shot (PF's fake-cell positions fill ``[size, n)`` of
    each padded frame).
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    out = np.repeat(starts - (ends - counts), counts)
    out += np.arange(total, dtype=np.int64)
    return out


def stable_id_argsort(ids: np.ndarray, id_space: int) -> np.ndarray:
    """Stable argsort of small nonnegative ids (radix path when they fit).

    The generalization of :func:`repro.traffic.batch.stable_voq_argsort`
    to an arbitrary id space — the streamed kernels group by seed-extended
    VOQ ids (``seed * n^2 + voq``), which outgrow ``n^2``.
    """
    if id_space <= np.iinfo(np.uint16).max:
        return np.argsort(ids.astype(np.uint16), kind="stable")
    return np.argsort(ids, kind="stable")


def composite_argsort(
    major: np.ndarray, minor: Optional[np.ndarray] = None
) -> np.ndarray:
    """Argsort by ``(major, minor)`` of nonnegative keys.

    Three paths, fastest first:

    * **value sort** — when the packed key ``major * span + minor``
      shifted left by ``bits = (P - 1).bit_length()`` still fits an
      int64, the row index rides in the low bits: ``key << bits | row``
      is sorted *by value* in place (no index array to carry, which is
      what makes NumPy's argsort several times slower than its sort) and
      the rows are masked back out.  Equal pairs break ties by row, so
      this path is stable;
    * **packed argsort** — one int64 quicksort of the packed key when it
      fits but the row bits do not;
    * **lexsort** — two stable passes otherwise.

    Callers pass unique pairs, so every path returns the same order.
    ``minor=None`` breaks ties by row instead: a stable argsort of
    ``major``, with no tie-break column to build.
    """
    num = len(major)
    if num == 0:
        return np.empty(0, dtype=np.intp)
    hi = int(major.max())
    span = 1 if minor is None else int(minor.max()) + 1
    bits = (num - 1).bit_length()
    if hi * span + span - 1 <= _INT64_MAX >> bits:
        key = major * np.int64(span)
        if minor is not None:
            key += minor
        del major, minor  # frees them here when the caller passed temporaries
        key <<= bits
        key |= np.arange(num, dtype=np.int64)
        key.sort()
        key &= (1 << bits) - 1
        return key
    if minor is None:
        return np.argsort(major, kind="stable")
    if hi < (_INT64_MAX // span) - 1:
        return np.argsort(major * span + minor)
    return np.lexsort((minor, major))


def periodic_fifo_service(
    ready: np.ndarray, residue: int, n: int
) -> np.ndarray:
    """Service slots of a FIFO polled at slots ``t ≡ residue (mod n)``.

    One packet per poll; a packet is servable at the poll of its ready
    slot.  Same running-max structure over poll *indices*.
    """
    if len(ready) == 0:
        return ready
    first = np.maximum((ready - residue + n - 1) // n, 0)
    k = np.arange(len(ready), dtype=np.int64)
    polls = np.maximum.accumulate(first - k) + k
    return residue + polls * n


def segmented_running_max(
    values: np.ndarray, segment: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Running max of ``values`` restarting wherever ``segment`` (sorted
    nonnegative ids) changes.

    Per-segment offsets spaced wider than the value range make one global
    ``np.maximum.accumulate`` segment-local; if they would overflow an
    int64, a doubling scan (log2 of the length passes) takes over.
    ``out`` (``values`` itself allowed) receives the result instead of a
    new array.
    """
    if len(values) == 0:
        return values if out is None else out
    lo, hi = int(values.min()), int(values.max())
    span = hi - lo + 1
    if (int(segment[-1]) + 1) * span + max(hi, -lo) < np.iinfo(np.int64).max:
        offset = segment * np.int64(span)
        run = np.add(values, offset, out=out)
        np.maximum.accumulate(run, out=run)
        run -= offset
        return run
    if out is None:
        run = values.copy()
    else:
        run = out
        if out is not values:
            np.copyto(out, values)
    step = 1
    while step < len(run):
        same = segment[step:] == segment[:-step]
        run[step:] = np.where(same, np.maximum(run[step:], run[:-step]), run[step:])
        step *= 2
    return run


def segmented_fifo_service(
    segment: np.ndarray, ready: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Per-segment FIFO served once per slot, arrivals servable the slot
    they become ready (events pre-sorted within segment).

    ``segment`` must be nondecreasing.  ``service_k = max(ready_k,
    service_{k-1} + 1)`` is a running max of ``ready_k - k``.  ``out``
    (``ready`` itself allowed) receives the result instead of a new array.
    """
    run = np.subtract(ready, np.arange(len(ready), dtype=np.int64), out=out)
    segmented_running_max(run, segment, out=run)
    run += np.arange(len(ready), dtype=np.int64)
    return run


def port_fifo_service(
    ports: np.ndarray, ready: np.ndarray, num_ports: int
) -> np.ndarray:
    """:func:`segmented_fifo_service` of one FIFO per port, events in
    FIFO order within each port (generation order, for arrivals), results
    aligned with the inputs."""
    order = stable_id_argsort(ports, num_ports)
    served = ready[order]
    segmented_fifo_service(ports[order], served, out=served)
    service = np.empty_like(served)
    service[order] = served
    return service


def replay_polled_queues(
    queues: np.ndarray,
    levels: np.ndarray,
    ready: np.ndarray,
    order: np.ndarray,
    residues: np.ndarray,
    n: int,
    presorted: bool = False,
) -> np.ndarray:
    """Exact service slots for a bank of periodic priority queues.

    Each queue ``q`` is polled at slots ``t ≡ residues[q] (mod n)`` and, at
    every poll, serves the head of its *largest* nonempty level (FIFO
    within a level, ordered by ``order``) — the Largest Stripe First rule
    of paper §3.4 at an input-port row or an intermediate-port output
    class.

    The priority discipline peels exactly: packets of a level are never
    delayed by smaller levels, so levels replay largest-first, each as a
    FIFO over the polls larger levels left free — one pass per level for
    all queues at once.  The polls already consumed are a sorted array
    ``taken`` of keys ``queue * stride + poll``.  An event that could
    first use poll ``w`` can first use the free poll of rank ``w - #{taken
    polls of its queue below w}``; over ranks the level is a plain FIFO
    (segmented running max); and with the queue's taken polls ``t_0 < t_1
    < ...`` the free poll of rank ``r`` is poll ``r + #{i : t_i - i <=
    r}``, as ``t_i - i`` free polls precede ``t_i``.  Both counts are one
    ``searchsorted`` each (``taken - arange`` is sorted across queues
    too), everything is integer arithmetic, and the result equals the
    queue-by-queue replay bit for bit.

    Parameters are parallel per-event arrays (queue id, size level in
    ``[0, 16)``, ready slot, FIFO tie-break) plus the per-queue poll
    residue; returns the per-event service slot, aligned with the inputs.
    The inputs are never written; a bank with one level may pass a
    zero-stride ``np.broadcast_to(0, num_events)``, and arguments the
    caller holds no other reference to are freed as soon as they are read.
    """
    num_events = len(queues)
    if num_events == 0:
        return np.empty(0, dtype=np.int64)
    level_lo, level_hi = int(levels.min()), int(levels.max())
    if level_lo < 0 or level_hi > 15:
        raise ValueError("levels must lie in [0, 16): they pack into 4 bits")
    present = (
        [level_hi] if level_lo == level_hi
        else np.flatnonzero(np.bincount(levels))[::-1]
    )
    # Each event's first usable poll; queue and level pack into one sort
    # key (level needs 4 bits up to n = 2^15).
    polls = residues[queues]
    np.subtract(ready, polls, out=polls)
    polls += n - 1
    polls //= n
    np.maximum(polls, 0, out=polls)
    packed = queues << 4
    packed |= levels
    del queues, levels, ready  # temporaries a caller passed free here
    # Group by queue, then level ascending, then FIFO order.
    if presorted:
        # Caller promises events already sit in (level, order) order
        # within each queue, so a *stable* sort by queue alone suffices —
        # radix-cheap while the packed ids fit 16 bits.
        grouping = stable_id_argsort(packed, int(packed.max()) + 1)
    else:
        grouping = composite_argsort(packed, order)
    del order
    # Both in grouped order from here; ``polls`` turns from each event's
    # first usable poll into the poll that serves it.
    packed = packed[grouping]
    polls = polls[grouping]
    if compiled_active():
        # Compiled backend: the same grouping feeds the scalar mirror
        # (queue by queue); bit-identical by the parity grid.
        serve_polled(packed, polls.copy(), polls)
    else:
        _peel_levels(packed, polls, present)
    polls *= n
    packed >>= 4
    polls += residues[packed]
    del packed
    service = np.empty(num_events, dtype=np.int64)
    service[grouping] = polls
    return service


def _peel_levels(packed: np.ndarray, polls: np.ndarray, present) -> None:
    """The level-major peel of :func:`replay_polled_queues`, in place.

    ``packed`` / ``polls`` are in grouped order; ``present`` lists the
    levels largest first.  On return ``polls`` holds each event's serving
    poll.
    """
    single = len(present) == 1
    # No event is served past the latest first poll plus one poll per
    # event, so the keys sort by queue, then poll.
    stride = int(polls.max()) + len(polls) + 1
    if int(packed[-1]) >> 4 >= np.iinfo(np.int64).max // stride - 1:
        raise OverflowError("queue id x poll range overflows an int64")
    taken = gaps = None
    for level in present:
        if single:
            # One level: the packed keys segment like the queue ids, and
            # the level's FIFO is served in place.
            queue, rank = packed, polls
        else:
            at = np.flatnonzero((packed & 15) == level)
            queue = packed[at]
            queue >>= 4
            rank = polls[at]
        _serve_level(queue, rank, stride, taken, gaps)
        if not single:
            polls[at] = rank
        if level != present[-1]:
            keys = queue * stride
            keys += rank
            if taken is not None:
                # Two sorted runs: the stable sort is one merge pass.
                keys = np.concatenate([taken, keys])
                keys.sort(kind="stable")
            taken = keys
            gaps = taken - np.arange(len(taken), dtype=np.int64)


def _serve_level(
    queue: np.ndarray,
    rank: np.ndarray,
    stride: int,
    taken: Optional[np.ndarray],
    gaps: Optional[np.ndarray],
) -> None:
    """Serve one level of :func:`_peel_levels` in place: ``rank`` goes
    from each event's first usable poll to its serving poll, over the
    polls the ``taken`` keys (``gaps = taken - arange``) leave free."""
    if taken is None:
        segmented_fifo_service(queue, rank, out=rank)
        return
    base = queue * stride
    before = np.searchsorted(taken, base)  # of earlier queues
    rank -= np.searchsorted(taken, base + rank)
    rank += before
    segmented_fifo_service(queue, rank, out=rank)
    base += rank
    base -= before
    rank += np.searchsorted(gaps, base, side="right")
    rank -= before


def row_residues(n: int) -> np.ndarray:
    """Poll residues of the stage-1 queues: fabric 1 connects input ``i``
    to intermediate ``m`` at slots ``t ≡ m - i (mod n)``; queue id is
    ``i * n + m``."""
    ports = np.arange(n, dtype=np.int64)
    return ((ports[None, :] - ports[:, None]) % n).ravel()


def mid_residues(n: int) -> np.ndarray:
    """Poll residues of the stage-2 queues: fabric 2 connects intermediate
    ``m`` to output ``j`` at slots ``t ≡ m - j (mod n)``; queue id is
    ``m * n + j``."""
    ports = np.arange(n, dtype=np.int64)
    return ((ports[:, None] - ports[None, :]) % n).ravel()


class Units(NamedTuple):
    """The packets of a batch's completed aggregation units, one row each.

    Rows are grouped by VOQ (VOQ ascending, arrival order within), so a
    unit is a contiguous run of rows.  Row order carries no meaning
    downstream: every replay keys its decisions on queue ids and FIFO
    keys, never on rows.
    """

    #: Batch row of the packet.
    packet: np.ndarray
    voq: np.ndarray
    #: Position within the unit.
    pos: np.ndarray
    #: Completion slot of the unit.
    c_slot: np.ndarray
    #: Batch row of the unit's completing packet: a global completion
    #: tie-break, since generation order *is* per-input acceptance order.
    c_order: np.ndarray


def unit_completion(batch: ArrivalBatch, unit_size: np.ndarray) -> Units:
    """The :class:`Units` of a batch's aggregation units (stripes/frames).

    ``unit_size[voq]`` packets of a VOQ form one unit, cut in arrival
    order; the unit completes when its last packet arrives, so a VOQ's
    completed units are its first ``count - count % unit_size`` packets
    and the packets after them never leave their VOQ inside the batch.
    """
    n = batch.n
    voq = batch.voqs
    counts = np.bincount(voq, minlength=n * n)
    full = counts - counts % unit_size
    packet = stable_voq_argsort(voq, n)[
        concat_ranges(np.cumsum(counts) - counts, full)
    ]
    voq = np.repeat(np.arange(n * n, dtype=np.int64), full)
    rows = np.arange(len(packet), dtype=np.int64)
    pos = (np.cumsum(full) - full)[voq]
    np.subtract(rows, pos, out=pos)
    size = unit_size[voq]
    pos %= size
    # A unit's completing packet is its last row.
    rows -= pos
    rows += size
    rows -= 1
    c_order = packet[rows]
    del rows, size
    return Units(packet, voq, pos, batch.slots[c_order], c_order)


class Departures:
    """SoA record of every departed packet of a run.

    ``wire`` is the within-slot observation tie-break of the object
    engine: packets departing in the same slot are handed to the metrics
    in intermediate-port order (output order for the output-queued
    switch, resequencer release order for FOFF).  ``(departure, wire)``
    pairs must be unique per packet — kernels whose natural tie-break is
    not unique (FOFF releases several packets of a flow at one slot)
    store a precomputed observation rank instead.  Retained delay samples
    are stored in that ``(departure, wire)`` order so order-sensitive
    downstream statistics (MSER truncation, batch means) match the
    oracle exactly.
    """

    __slots__ = (
        "voq",
        "seq",
        "arrival",
        "departure",
        "wire",
        "assembled",
        "tx",
        "wire_is_rank",
    )

    def __init__(
        self,
        voq: np.ndarray,
        seq: np.ndarray,
        arrival: np.ndarray,
        departure: np.ndarray,
        wire: np.ndarray,
        assembled: Optional[np.ndarray] = None,
        tx: Optional[np.ndarray] = None,
        wire_is_rank: bool = False,
    ) -> None:
        self.voq = voq
        self.seq = seq
        self.arrival = arrival
        self.departure = departure
        self.wire = wire
        self.assembled = assembled
        self.tx = tx
        #: True when ``wire`` is already a global observation rank (every
        #: packet unique, consistent with (departure, wire) order) rather
        #: than a within-slot port tie-break.  Kernels that release
        #: several packets of one flow in a single slot (FOFF) must set
        #: this; for everyone else per-VOQ departure slots are unique and
        #: the cheaper departure-keyed ordering suffices.
        self.wire_is_rank = wire_is_rank

    def __len__(self) -> int:
        return len(self.voq)


# ---------------------------------------------------------------------------
# Streaming (windowed-replay) primitives
# ---------------------------------------------------------------------------
#
# The streamed kernels replay a run window-by-window instead of all at
# once.  The carried state between windows is small and exact:
#
# * a :class:`PolledQueueBank` holds the *unserved* events of a bank of
#   periodic (priority) queues.  At each window boundary ``B`` it
#   finalizes every event whose service slot is ``< B`` — provably equal
#   to the monolithic replay, because all future events are ready at or
#   after ``B`` and the replay recursions are monotone (adding events
#   never makes anyone depart earlier), so services below ``B`` can no
#   longer change and polls below ``B`` left free can never be used.
#   Carried events have their ready slots clamped to ``B`` (their true
#   service is provably >= ``B``), which makes the carried re-replay a
#   fresh peel over polls >= ``B`` only.
# * a :class:`UnitAssembler` holds each VOQ's trailing partial
#   aggregation unit (stripe/frame) until later arrivals complete it.
# * a :class:`WindowStacker` assigns run-global generation indices (the
#   FIFO tie-breaks of the monolithic kernels) across windows, and
#   stacks multiple seeds' windows into disjoint id blocks for the
#   multi-seed replay (block ``s`` uses VOQ ids ``s * n^2 + voq``; queues
#   of different blocks never interact, so one replay pass serves every
#   seed at once).
#
# :class:`StreamKernel` is the contract the six per-switch stream kernels
# share: stacked windows in, one stacked :class:`Departures` record out.


class PolledQueueBank:
    """Streamed :func:`replay_polled_queues` over a bank of queues.

    ``feed`` unions the carried unserved events with the new ones,
    replays the whole bank, finalizes events with service slot strictly
    below ``boundary`` (``None`` finalizes everything) and carries the
    rest.  ``payload`` is a tuple of caller arrays sliced alongside.
    """

    def __init__(
        self, residues: np.ndarray, n: int, presorted: bool = False
    ) -> None:
        self._residues = np.asarray(residues, dtype=np.int64)
        self._n = n
        #: Caller promise: events of one queue always arrive in FIFO
        #: (``order``-key) order, across feeds — enables the radix
        #: grouping fast path in :func:`replay_polled_queues`.
        self._presorted = presorted
        self._pending: Optional[Tuple[np.ndarray, ...]] = None
        self._payload: Tuple[np.ndarray, ...] = ()

    def feed(
        self,
        queues: np.ndarray,
        levels: np.ndarray,
        ready: np.ndarray,
        order: np.ndarray,
        payload: Tuple[np.ndarray, ...],
        boundary: Optional[int],
    ) -> Tuple[np.ndarray, np.ndarray, Tuple[np.ndarray, ...]]:
        """Returns ``(service, order, payload)`` of the finalized events."""
        if self._pending is not None:
            p_queues, p_levels, p_ready, p_order = self._pending
            queues = np.concatenate([p_queues, queues])
            levels = np.concatenate([p_levels, levels])
            ready = np.concatenate([p_ready, ready])
            order = np.concatenate([p_order, order])
            payload = tuple(
                np.concatenate([old, new])
                for old, new in zip(self._payload, payload)
            )
        if len(queues) == 0:
            self._pending = None
            self._payload = ()
            return np.empty(0, dtype=np.int64), order, payload
        service = replay_polled_queues(
            queues, levels, ready, order, self._residues, self._n,
            presorted=self._presorted,
        )
        if boundary is None:
            self._pending = None
            self._payload = ()
            return service, order, payload
        done = service < boundary
        keep = ~done
        self._pending = (
            queues[keep],
            levels[keep],
            np.maximum(ready[keep], boundary),
            order[keep],
        )
        self._payload = tuple(a[keep] for a in payload)
        if telemetry.enabled():
            # Events carried past this window's boundary: the streamed
            # replay's working-set signal (a growing carry means windows
            # are cut faster than the queues drain).
            telemetry.observe(
                "kernel.polled_queue.carry", len(self._pending[0])
            )
        return service[done], order[done], tuple(a[done] for a in payload)


class UnitAssembler:
    """Carried partial aggregation units (stripes / full frames) per VOQ.

    ``unit_size[voq]`` consecutive arrivals of a VOQ form one unit; a
    unit completes when its last packet arrives, which may be many
    windows after its first.  ``feed`` buffers the trailing partial unit
    of every VOQ and emits the packets of units completed so far,
    mirroring :func:`unit_completion` run on the whole stream.
    """

    def __init__(self, unit_size: np.ndarray) -> None:
        self._size = np.asarray(unit_size, dtype=np.int64)
        self._num = len(self._size)
        #: Rank of the next packet to arrive per VOQ.
        self._rank_next = np.zeros(self._num, dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        self._buf = (empty, empty, empty, empty)

    def feed(
        self,
        voqs: np.ndarray,
        slots: np.ndarray,
        seqs: np.ndarray,
        gidx: np.ndarray,
    ) -> Tuple[np.ndarray, ...]:
        """Add packets (generation order); return completed-unit packets.

        Returns ``(voq, slot, seq, gidx, pos, c_slot, c_order)`` — the
        per-packet unit data of :func:`unit_completion`, restricted to
        units whose completing packet has now arrived.
        """
        b_voq, b_slot, b_seq, b_g = self._buf
        voq = np.concatenate([b_voq, voqs])
        slot = np.concatenate([b_slot, slots])
        seq = np.concatenate([b_seq, seqs])
        g = np.concatenate([b_g, gidx])
        if len(voq) == 0:
            empty = np.empty(0, dtype=np.int64)
            return (empty,) * 7
        if len(voqs):
            self._rank_next += np.bincount(voqs, minlength=self._num)
        # One stable sort groups the union by VOQ; buffered packets come
        # first (lower concat index and lower ranks), new packets follow
        # in generation order, so group ranks are consecutive from the
        # group's first buffered rank — no per-packet rank storage.
        order = stable_id_argsort(voq, self._num)
        voq_s = voq[order]
        slot_s = slot[order]
        seq_s = seq[order]
        g_s = g[order]
        is_start = np.r_[True, voq_s[1:] != voq_s[:-1]]
        seg = np.cumsum(is_start) - 1
        seg_first = np.flatnonzero(is_start)
        seg_bounds = np.flatnonzero(np.r_[is_start, True])
        seg_last = seg_bounds[1:] - 1
        # rank = first buffered rank of the VOQ + index within the group;
        # the first buffered rank is rank_next minus everything now held
        # (note rank_next was already advanced by the new arrivals).
        within = np.arange(len(voq_s), dtype=np.int64) - seg_first[seg]
        group_count = (seg_last - seg_first + 1)[seg]
        base = self._rank_next[voq_s] - group_count
        rank_s = base + within
        size = self._size[voq_s]
        pos = rank_s % size
        completer_rank = rank_s - pos + size - 1
        complete = completer_rank <= rank_s[seg_last][seg]
        completer_at = np.minimum(
            seg_first[seg] + (completer_rank - base), len(voq_s) - 1
        )
        keep = ~complete
        self._buf = (voq_s[keep], slot_s[keep], seq_s[keep], g_s[keep])
        return (
            voq_s[complete],
            slot_s[complete],
            seq_s[complete],
            g_s[complete],
            pos[complete],
            slot_s[completer_at][complete],
            g_s[completer_at][complete],
        )


class WindowStacker:
    """Stack per-seed arrival windows into one disjoint-id event block.

    Tracks per-block generation counters so every packet gets the same
    run-global generation index it would have in a monolithic batch (the
    FIFO tie-break the kernels key on), and checks the windows advance in
    lock-step.
    """

    def __init__(self, num_blocks: int) -> None:
        self._gnext = np.zeros(num_blocks, dtype=np.int64)
        self.num_blocks = num_blocks

    def stack(self, windows) -> Tuple[np.ndarray, ...]:
        """Returns ``(block, slots, inputs, outputs, seqs, gidx, boundary)``.

        ``block[k]`` is the window (seed) index of event ``k``; ``gidx``
        is the per-block generation index; ``boundary`` is the common end
        slot of the windows (events of later windows are all at or past
        it).
        """
        if len(windows) != self.num_blocks:
            raise ValueError(
                f"expected {self.num_blocks} windows, got {len(windows)}"
            )
        spans = {(w.start_slot, w.num_slots) for w in windows}
        if len(spans) != 1:
            raise ValueError("seed windows must cover the same slot range")
        parts_b, parts_g = [], []
        for b, w in enumerate(windows):
            count = len(w)
            parts_b.append(np.full(count, b, dtype=np.int64))
            parts_g.append(
                self._gnext[b] + np.arange(count, dtype=np.int64)
            )
            self._gnext[b] += count
        return (
            np.concatenate(parts_b),
            np.concatenate([w.slots for w in windows]),
            np.concatenate([w.inputs for w in windows]),
            np.concatenate([w.outputs for w in windows]),
            np.concatenate([w.seqs for w in windows]),
            np.concatenate(parts_g),
            windows[0].end_slot,
        )


class StreamKernel:
    """The stream-kernel contract: stacked windows in, stacked record out.

    A stream kernel replays one switch for a *list* of seeds at once.
    ``feed(windows)`` takes one arrival window per seed (all covering the
    same slot range) and returns the :class:`Departures` now finalized —
    departing strictly before the windows' end, never re-emitted;
    ``finish(windows=None)`` takes the optional last windows, flushes all
    carried state and returns ``(Departures, [extras per seed])``.  The
    record is always the seed-stacked one: seed block ``b`` owns VOQ ids
    ``b * n^2 + voq`` and every other field is per-packet data, so for
    one seed it *is* the plain record.  Passing the whole run to
    ``finish`` replays it in a single pass (what multi-seed replication
    does).

    Subclasses supply :meth:`_replay` and, when the switch reports
    extras, :meth:`_extras`; ``feed`` / ``finish`` are not overridden.
    """

    def __init__(self, matrix: np.ndarray, seeds, total_slots: int) -> None:
        self.n = int(matrix.shape[0])
        self.num_blocks = len(seeds)
        self._stacker = WindowStacker(self.num_blocks)

    def _replay(
        self, events: Tuple[np.ndarray, ...], boundary: Optional[int]
    ) -> Departures:
        """Advance the data path over ``events`` — ``(block, slots,
        inputs, outputs, seqs, gidx)`` in generation order per block —
        finalizing everything below ``boundary`` (``None``: flush)."""
        raise NotImplementedError

    def _extras(self) -> list:
        """Per-seed extras dicts of the finished run."""
        return [None] * self.num_blocks

    def feed(self, windows) -> Departures:
        *events, end = self._stacker.stack(windows)
        return self._replay(tuple(events), end)

    def finish(self, windows=None) -> Tuple[Departures, list]:
        if windows is None:
            events = [np.empty(0, dtype=np.int64)] * 6
        else:
            *events, _ = self._stacker.stack(windows)
        return self._replay(tuple(events), None), self._extras()
