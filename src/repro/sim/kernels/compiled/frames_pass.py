"""Compiled per-lane frame-formation stepper, the scalar counterpart of
:class:`repro.sim.kernels.frames._TableFormation`.

Each lane runs the per-input recursion — absorb arrivals up to
the current cycle, evaluate the PF/FOFF pick, form or jump — as one
compiled loop over *all* of the lane's cycles, where the NumPy engine
gives every lane one decision per vector step.  Lanes are independent
(each owns its VOQ row exclusively), so iterating lane-major emits every
frame of a lane in ascending cycle order — which preserves the only
ordering the :class:`~repro.sim.kernels.frames.FrameSchedule` contract
requires (ascending ``start`` within a VOQ); the global cross-VOQ order
is explicitly unspecified.  Written independently of the NumPy engine,
it is the reference the formation parity suite pins that engine against.

Pending arrivals arrive as lane-major CSR arrays (``pstart`` offsets into
``(lane, tag)``-sorted tag/output arrays).  The loop absorbs with
``tag <= c``, which only ever meets ``tag == c``: a lane's
unconsumed tags are never below its cycle (absorption is in tag order and
declines jump straight to the next tag), so the relaxed test can never
absorb early.
"""

from __future__ import annotations

import numpy as np

from ._jit import njit

__all__ = ["form_lanes"]

_INT64_MAX = int(np.iinfo(np.int64).max)


@njit(cache=True)
def form_lanes(
    n: int,
    is_pf: bool,
    threshold: int,
    drain: bool,
    avail: np.ndarray,
    taken: np.ndarray,
    full_rr: np.ndarray,
    partial_rr: np.ndarray,
    cycle: np.ndarray,
    lim: np.ndarray,
    residue: np.ndarray,
    voq_base: np.ndarray,
    ptag: np.ndarray,
    pout: np.ndarray,
    pstart: np.ndarray,
    f_voq: np.ndarray,
    f_start: np.ndarray,
    f_size: np.ndarray,
    f_fakes: np.ndarray,
    f_slot: np.ndarray,
    consumed: np.ndarray,
):
    """Advance every lane below its ``lim`` cycle (exclusive), or run the
    drain-quiescence loop when ``drain`` is set.

    Mutates the per-lane state grids in place, appends formed frames to
    the ``f_*`` output arrays (preallocated by the caller at the real-
    packet upper bound), and records per-lane consumed-event counts in
    ``consumed``.  Returns ``(frame_count, decline_jumps)``.
    """
    count = 0
    jumps = 0
    num_lanes = avail.shape[0]
    for lane in range(num_lanes):
        c = cycle[lane]
        limit = lim[lane]
        at = pstart[lane]
        end = pstart[lane + 1]
        if c >= limit:
            consumed[lane] = 0
            continue
        # Lane aggregates, maintained incrementally below.
        total = 0
        full_count = 0
        for j in range(n):
            a = avail[lane, j]
            total += a
            if a >= n:
                full_count += 1
        while c < limit:
            while at < end and ptag[at] <= c:
                j = pout[at]
                at += 1
                avail[lane, j] += 1
                total += 1
                if avail[lane, j] == n:
                    full_count += 1
            # The pick: full frames behind the RR pointer first, then the
            # per-rule fallback (PF pads the longest VOQ past threshold,
            # FOFF takes the next nonempty VOQ behind a second pointer).
            jj = -1
            k = 0
            took_full = False
            if full_count > 0:
                p = full_rr[lane]
                for off in range(n):
                    q = p + off
                    if q >= n:
                        q -= n
                    if avail[lane, q] >= n:
                        jj = q
                        k = n
                        took_full = True
                        break
            if jj < 0:
                if is_pf:
                    if total >= threshold:
                        best = 0
                        longest = -1
                        for q in range(n):
                            if avail[lane, q] > best:
                                best = avail[lane, q]
                                longest = q
                        if longest >= 0 and best >= threshold:
                            jj = longest
                            k = best
                elif total > 0:
                    p = partial_rr[lane]
                    for off in range(n):
                        q = p + off
                        if q >= n:
                            q -= n
                        if avail[lane, q] > 0:
                            jj = q
                            k = avail[lane, q]
                            break
            if jj >= 0:
                f_voq[count] = voq_base[lane] + jj
                f_start[count] = taken[lane, jj]
                f_size[count] = k
                # Full frames pad nothing (k = n), so PF's fake-cell
                # count is n - k in both pick branches.
                f_fakes[count] = n - k if is_pf else 0
                f_slot[count] = residue[lane] + c * n
                count += 1
                taken[lane, jj] += k
                before = avail[lane, jj]
                avail[lane, jj] = before - k
                total -= k
                if before >= n and avail[lane, jj] < n:
                    full_count -= 1
                if took_full:
                    full_rr[lane] = jj + 1 if jj + 1 < n else 0
                elif not is_pf:
                    partial_rr[lane] = jj + 1 if jj + 1 < n else 0
                c += 1
                continue
            # No frame this cycle: jump to the next pending arrival (the
            # idle-span skip), the window limit, or drain quiescence.
            jumps += 1
            if at >= end:
                if drain:
                    # Drain quiescence: the NumPy engine parks the lane
                    # at INT64_MAX (never revisited); mirror that.
                    c = _INT64_MAX
                    break
                c = limit
            else:
                nxt = ptag[at]
                if drain or nxt < limit:
                    c = nxt
                else:
                    c = limit
        cycle[lane] = c
        consumed[lane] = at - pstart[lane]
    return count, jumps
