"""Generated differential tests for the sort-free grouping primitives.

The framed kernels (PF, FOFF) group packets by VOQ without sorting: a
packet's rank inside its VOQ is its sequence number minus the VOQ's
first, and a VOQ's frames tile its ranks contiguously, so frame
membership is one scatter over grouped positions.  Every generated case
here checks one of those shortcuts against the sort- and search-based
code it replaced:

* :func:`composite_argsort` equals ``np.lexsort`` on unique pairs on all
  three of its paths (value sort, packed argsort, lexsort), with keys
  that just fit and just miss the value-sort bound, and a stable argsort
  without a minor key;
* the scatter :func:`frame_membership` over VOQ-grouped rows equals a
  searchsorted copy of the old per-packet implementation kept here —
  PF's never-framed tails and batches whose seqs continue an earlier
  draw included;
* :class:`FramedPacketBuffer` fed under random window cuts, with one and
  with several seed blocks, frames every packet exactly as the
  monolithic membership does.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios.build import build_batch_traffic
from repro.scenarios.registry import get_scenario
from repro.sim.kernels.base import composite_argsort
from repro.sim.kernels.frames import (
    FrameFormationStream,
    FramedPacketBuffer,
    build_frame_schedule,
    foff_rule,
    frame_membership,
    pf_rule,
    voq_grouping,
)
from repro.traffic.batch import BatchTrafficGenerator, column_types
from repro.traffic.matrices import diagonal_matrix, uniform_matrix

INT64_MAX = int(np.iinfo(np.int64).max)


@st.composite
def unique_pairs(draw):
    """``(major, minor, path)``: unique nonnegative pairs whose maxima put
    :func:`composite_argsort` on a chosen side of its branch bounds."""
    path = draw(st.sampled_from(["small", "fit", "miss", "wide"]))
    # One row leaves no row bits, and then no int64 key can just miss.
    num = draw(st.integers(1 if path in ("small", "wide") else 2, 40))
    bits = (num - 1).bit_length()
    span = draw(st.integers(1, 1 << 20))  # minor.max() + 1
    largest_fit = ((INT64_MAX >> bits) + 1) // span - 1
    if path == "small":
        hi = draw(st.integers(num, 1000))
    elif path == "fit":
        hi = largest_fit
    elif path == "miss":
        hi = largest_fit + 1
    else:
        hi = draw(st.integers(INT64_MAX // span - 1, INT64_MAX))
    # Majors and minors cluster near their maxima (and near 0), so equal
    # majors are common and the minor tie-break is exercised.
    near = st.integers(0, 3)
    pairs = {(hi, span - 1)}
    for _ in range(num - 1):
        major = draw(st.one_of(st.just(hi), near.map(lambda d: max(hi - d, 0)),
                               st.integers(0, hi)))
        minor = draw(st.one_of(near.map(lambda d: max(span - 1 - d, 0)),
                               st.integers(0, span - 1)))
        pairs.add((major, minor))
    # Top duplicates up with fresh pairs: the row count fixes the bound.
    fill = 0
    while len(pairs) < num:
        pairs.add((fill, 0))
        fill += 1
    rows = draw(st.permutations(sorted(pairs)))
    major = np.array([p[0] for p in rows], dtype=np.int64)
    minor = np.array([p[1] for p in rows], dtype=np.int64)
    return major, minor, path


class TestCompositeArgsort:
    @settings(max_examples=300, deadline=None)
    @given(case=unique_pairs())
    def test_equals_lexsort(self, case):
        major, minor, path = case
        bits = (len(major) - 1).bit_length()
        top = int(major.max()) * (int(minor.max()) + 1) + int(minor.max())
        if path == "fit":
            assert top <= INT64_MAX >> bits
        if path == "miss":
            assert top > INT64_MAX >> bits
        before = (major.copy(), minor.copy())
        got = composite_argsort(major, minor)
        np.testing.assert_array_equal(got, np.lexsort((minor, major)))
        np.testing.assert_array_equal(before[0], major)  # inputs untouched
        np.testing.assert_array_equal(before[1], minor)

    def test_empty(self):
        empty = np.empty(0, dtype=np.int64)
        assert len(composite_argsort(empty, empty)) == 0

    @settings(max_examples=200, deadline=None)
    @given(
        major=st.lists(st.integers(0, INT64_MAX), min_size=1, max_size=40),
        ties=st.booleans(),
    )
    def test_rows_break_ties_without_minor(self, major, ties):
        """No minor: a stable argsort, by value sort while the row bits
        fit beside the key and by NumPy's stable argsort otherwise."""
        major = np.array(major, dtype=np.int64)
        if ties:
            major %= 5
        np.testing.assert_array_equal(
            composite_argsort(major), np.argsort(major, kind="stable")
        )


def searchsorted_membership(batch, schedule):
    """The pre-scatter ``frame_membership``: a stable VOQ argsort for the
    ranks, then one composite ``(voq, start)`` searchsorted per packet."""
    num_packets = len(batch)
    n = batch.n
    voq = batch.voqs
    order = np.argsort(voq, kind="stable")
    counts = np.bincount(voq, minlength=n * n)
    group_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    rank = np.empty(num_packets, dtype=np.int64)
    rank[order] = np.arange(num_packets) - group_starts[voq[order]]
    if num_packets == 0 or len(schedule) == 0:
        return np.zeros(num_packets, dtype=bool), rank, rank, rank
    f_order = np.argsort(schedule.voq, kind="stable")
    big = np.int64(num_packets + 1)
    frame_key = schedule.voq[f_order] * big + schedule.start[f_order]
    at = np.searchsorted(frame_key, voq * big + rank, side="right") - 1
    valid = at >= 0
    at = np.maximum(at, 0)
    f_start = schedule.start[f_order][at]
    member = (
        valid
        & (schedule.voq[f_order][at] == voq)
        & (rank < f_start + schedule.size[f_order][at])
    )
    return member, schedule.slot[f_order][at], rank - f_start, rank


def traffic(kind, n, load, seed, slots):
    if kind == "mmpp-bursty":
        return build_batch_traffic(get_scenario(kind), n, load, seed, slots)
    matrix = (uniform_matrix if kind == "uniform" else diagonal_matrix)(n, load)
    return BatchTrafficGenerator(matrix, np.random.default_rng(seed))


cases = st.fixed_dictionaries({
    "kind": st.sampled_from(["uniform", "diagonal", "mmpp-bursty"]),
    "n": st.integers(2, 6),
    "load": st.sampled_from([0.3, 0.7, 0.95]),
    "seed": st.integers(0, 2 ** 16),
    "slots": st.integers(1, 300),
    "rule": st.sampled_from(["foff", "pf-half", "pf-full"]),
})


def rule_for(name, n):
    if name == "foff":
        return foff_rule()
    # A threshold of n leaves every sub-frame VOQ tail unframed.
    return pf_rule(max(1, n // 2) if name == "pf-half" else n)


def batch_membership(batch, schedule):
    """:func:`frame_membership` mapped back to batch rows:
    ``(member, assembled, position, rank)`` per packet."""
    grouping = voq_grouping(batch)
    rows, assembled, position = frame_membership(grouping, schedule)
    # Grouped row r holds batch row order[r]: the stable VOQ grouping.
    order = np.argsort(batch.voqs, kind="stable")
    np.testing.assert_array_equal(grouping.voqs(), batch.voqs[order])
    framed = order[rows]
    member = np.zeros(len(batch), dtype=bool)
    member[framed] = True
    by_packet = []
    for values in (assembled, position):
        column = np.zeros(len(batch), dtype=np.int64)
        column[framed] = values
        by_packet.append(column)
    rank = np.empty(len(batch), dtype=np.int64)
    rank[order] = np.arange(len(batch)) - grouping.starts[grouping.voqs()]
    return (member, *by_packet, rank)


class TestFrameMembership:
    @settings(max_examples=150, deadline=None)
    @given(case=cases, continued=st.booleans())
    def test_scatter_equals_searchsorted(self, case, continued):
        n = case["n"]
        gen = traffic(case["kind"], n, case["load"], case["seed"], case["slots"])
        batch = gen.draw(case["slots"])
        if continued:
            # Seqs continue the first draw's numbering: ranks are seqs
            # minus a nonzero per-VOQ base.
            batch = gen.draw(case["slots"])
        schedule = build_frame_schedule(batch, rule_for(case["rule"], n))
        member, assembled, position, rank = batch_membership(batch, schedule)
        want_member, want_assembled, want_position, want_rank = (
            searchsorted_membership(batch, schedule)
        )
        np.testing.assert_array_equal(rank, want_rank)
        np.testing.assert_array_equal(member, want_member)
        np.testing.assert_array_equal(assembled[member], want_assembled[member])
        np.testing.assert_array_equal(position[member], want_position[member])
        if case["rule"] == "foff":
            assert member.all()


class TestFramedPacketBuffer:
    @settings(max_examples=120, deadline=None)
    @given(case=cases, cuts=st.lists(st.integers(1, 299), max_size=6))
    def test_window_cuts_equal_monolithic(self, case, cuts):
        n, slots = case["n"], case["slots"]
        rule = rule_for(case["rule"], n)
        batch = traffic(
            case["kind"], n, case["load"], case["seed"], slots
        ).draw(slots)
        # Monolithic membership, keyed by generation index.
        member, w_asm, w_pos, w_rank = batch_membership(
            batch, build_frame_schedule(batch, rule)
        )

        formation = FrameFormationStream(n, rule)
        buffer = FramedPacketBuffer(n * n, column_types(n, slots))
        seen = np.zeros(len(batch), dtype=bool)
        lo = 0
        for boundary in sorted(c for c in set(cuts) if c < slots) + [None]:
            hi = slots if boundary is None else boundary
            gidx = np.flatnonzero(
                (batch.slots >= lo) & (batch.slots < hi)
            ).astype(np.int64)
            w_slots, inputs, outputs, seqs = (
                getattr(batch, name)[gidx]
                for name in ("slots", "inputs", "outputs", "seqs")
            )
            schedule = formation.feed(w_slots, inputs, outputs, boundary)
            voq, slot, seq, g, rank, assembled, position = buffer.feed(
                inputs * n + outputs, w_slots, seqs, gidx, schedule
            )
            # Output is grouped by VOQ, ranks ascending within a VOQ.
            assert (np.diff(voq) >= 0).all()
            same = np.diff(voq) == 0
            assert (np.diff(rank)[same] > 0).all()
            assert member[g].all()
            assert not seen[g].any()  # framed exactly once
            seen[g] = True
            np.testing.assert_array_equal(assembled, w_asm[g])
            np.testing.assert_array_equal(position, w_pos[g])
            np.testing.assert_array_equal(rank, w_rank[g])
            np.testing.assert_array_equal(seq, batch.seqs[g])
            np.testing.assert_array_equal(slot, batch.slots[g])
            lo = hi
        np.testing.assert_array_equal(seen, member)
        assert buffer.pending() == int((~member).sum())
