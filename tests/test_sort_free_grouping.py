"""Generated differential tests for the sort-free grouping primitives.

The framed kernels (PF, FOFF) group packets by VOQ without sorting: a
packet's rank inside its VOQ is its sequence number minus the VOQ's
first, and a VOQ's frames tile its ranks contiguously, so frame
membership is one scatter over grouped positions.  Every generated case
here checks one of those shortcuts against the sort- and search-based
code it replaced:

* :func:`composite_argsort` equals ``np.lexsort`` on unique pairs on all
  three of its paths (value sort, packed argsort, lexsort), with keys
  that just fit and just miss the value-sort bound;
* the scatter :func:`frame_membership` equals a searchsorted copy of the
  old implementation kept here — PF's never-framed tails and batches
  whose seqs continue an earlier draw included;
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
from repro.traffic.batch import BatchTrafficGenerator
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
        grouping = voq_grouping(batch)
        member, assembled, position = frame_membership(grouping, schedule)
        want_member, want_assembled, want_position, want_rank = (
            searchsorted_membership(batch, schedule)
        )
        np.testing.assert_array_equal(grouping.rank, want_rank)
        np.testing.assert_array_equal(member, want_member)
        np.testing.assert_array_equal(assembled[member], want_assembled[member])
        np.testing.assert_array_equal(position[member], want_position[member])
        # place is the stable VOQ grouping's inverse permutation.
        np.testing.assert_array_equal(
            np.argsort(grouping.place), np.argsort(batch.voqs, kind="stable")
        )
        if case["rule"] == "foff":
            assert member.all()


class TestFramedPacketBuffer:
    @settings(max_examples=120, deadline=None)
    @given(
        case=cases,
        blocks=st.integers(1, 3),
        cuts=st.lists(st.integers(1, 299), max_size=6),
    )
    def test_window_cuts_equal_monolithic(self, case, blocks, cuts):
        n, slots = case["n"], case["slots"]
        rule = rule_for(case["rule"], n)
        batches = [
            traffic(case["kind"], n, case["load"], case["seed"] + b, slots)
            .draw(slots)
            for b in range(blocks)
        ]
        # Monolithic membership per block, keyed by generation index.
        want = []
        for batch in batches:
            grouping = voq_grouping(batch)
            member, assembled, position = frame_membership(
                grouping, build_frame_schedule(batch, rule)
            )
            want.append((member, assembled, position, grouping.rank))

        formation = FrameFormationStream(n, blocks, rule)
        buffer = FramedPacketBuffer(blocks * n * n)
        seen = [np.zeros(len(b), dtype=bool) for b in batches]
        lo = 0
        for boundary in sorted(c for c in set(cuts) if c < slots) + [None]:
            hi = slots if boundary is None else boundary
            parts = []
            for b, batch in enumerate(batches):
                idx = np.flatnonzero((batch.slots >= lo) & (batch.slots < hi))
                parts.append((np.full(len(idx), b), idx, batch))
            block = np.concatenate([p[0] for p in parts]).astype(np.int64)
            gidx = np.concatenate([p[1] for p in parts]).astype(np.int64)
            w_slots, inputs, outputs, seqs = (
                np.concatenate(
                    [getattr(batch, name)[idx] for _, idx, batch in parts]
                ).astype(np.int64)
                for name in ("slots", "inputs", "outputs", "seqs")
            )
            schedule = formation.feed(block, w_slots, inputs, outputs, boundary)
            voq, slot, seq, g, rank, assembled, position = buffer.feed(
                block * n * n + inputs * n + outputs, w_slots, seqs, gidx,
                schedule,
            )
            # Output is grouped by VOQ, ranks ascending within a VOQ.
            assert (np.diff(voq) >= 0).all()
            same = np.diff(voq) == 0
            assert (np.diff(rank)[same] > 0).all()
            for b in range(blocks):
                mine = voq // (n * n) == b
                rows = g[mine]
                member, w_asm, w_pos, w_rank = want[b]
                assert member[rows].all()
                assert not seen[b][rows].any()  # framed exactly once
                seen[b][rows] = True
                np.testing.assert_array_equal(assembled[mine], w_asm[rows])
                np.testing.assert_array_equal(position[mine], w_pos[rows])
                np.testing.assert_array_equal(rank[mine], w_rank[rows])
                np.testing.assert_array_equal(
                    seq[mine], batches[b].seqs[rows]
                )
                np.testing.assert_array_equal(
                    slot[mine], batches[b].slots[rows]
                )
            lo = hi
        for b in range(blocks):
            np.testing.assert_array_equal(seen[b], want[b][0])
        assert buffer.pending() == sum(
            int((~w[0]).sum()) for w in want
        )
