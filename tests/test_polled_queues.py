"""Generated differential tests for the polled-queue bank.

Three independent implementations of Largest Stripe First service over a
bank of periodic priority queues must agree on every generated case:

* :func:`repro.sim.kernels.base.replay_polled_queues` — the level-major
  NumPy peel (one pass per level for all queues);
* the **un-jitted** scalar mirror ``compiled.polled_pass.serve_polled``
  (queue by queue, an explicit list of free polls);
* a slot-by-slot priority-queue oracle written here.

Plus: :class:`PolledQueueBank` fed under random window cuts equals one
monolithic call, levels that do not fit the 4-bit packing are rejected,
a zero-stride level column replays like a real one,
:func:`segmented_running_max` equals a Python loop on both of its
branches (in place too), and :func:`unit_completion` /
:func:`port_fifo_service` equal per-VOQ / per-port Python walks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.kernels.base import (
    PolledQueueBank,
    Units,
    port_fifo_service,
    replay_polled_queues,
    segmented_running_max,
    unit_completion,
)
from repro.sim.kernels.compiled.polled_pass import serve_polled
from repro.traffic.batch import BatchTrafficGenerator
from repro.traffic.matrices import diagonal_matrix


@st.composite
def banks(draw, time_ordered=False):
    """``(queues, levels, ready, order, residues, n)`` of one bank.

    Queue ids form seed-stacked blocks with unused ids between them; every
    queue draws its levels from its own subset of 1-6 levels (so some
    levels are empty and single-level queues sit beside multi-level ones);
    ready slots are optionally clamped to a floor, as carried events are,
    which piles ties onto one slot.  ``time_ordered`` makes the FIFO key
    follow the ready slot, as it does in every kernel (the streamed bank
    needs it: a later window must not jump the queue).
    """
    n = draw(st.integers(1, 6))
    blocks = draw(st.integers(1, 3))
    block_queues = draw(st.integers(1, 5))
    block_stride = block_queues + draw(st.integers(0, 3))
    residues = np.array(
        draw(st.lists(st.integers(0, n - 1), min_size=blocks * block_stride,
                      max_size=blocks * block_stride)),
        dtype=np.int64,
    )
    num_levels = draw(st.integers(1, 6))
    level_base = draw(st.integers(0, 16 - num_levels))
    queue_ids = [
        b * block_stride + q for b in range(blocks) for q in range(block_queues)
    ]
    queue_levels = {
        q: draw(st.lists(st.integers(0, num_levels - 1), min_size=1,
                         max_size=num_levels, unique=True))
        for q in queue_ids
    }
    horizon = draw(st.integers(1, 60))
    floor = draw(st.integers(0, horizon))
    events = draw(st.lists(
        st.tuples(st.sampled_from(queue_ids), st.integers(0, 5),
                  st.integers(0, horizon)),
        max_size=60,
    ))
    queues = np.array([q for q, _, _ in events], dtype=np.int64)
    levels = np.array(
        [level_base + queue_levels[q][pick % len(queue_levels[q])]
         for q, pick, _ in events],
        dtype=np.int64,
    )
    ready = np.maximum(np.array([r for _, _, r in events], dtype=np.int64), floor)
    order = np.array(draw(st.permutations(range(len(events)))), dtype=np.int64)
    if time_ordered:
        order[np.lexsort((order, ready))] = np.arange(len(events))
    return queues, levels, ready, order, residues, n


def oracle(queues, levels, ready, order, residues, n):
    """Slot by slot: at each poll a queue serves the head (smallest FIFO
    key) of its largest level whose head is ready."""
    service = np.empty(len(queues), dtype=np.int64)
    for q in set(queues.tolist()):
        waiting = {}  # level -> event indices, FIFO order
        for e in sorted(np.flatnonzero(queues == q), key=lambda e: order[e]):
            waiting.setdefault(int(levels[e]), []).append(e)
        slot = int(residues[q])
        while waiting:
            for level in sorted(waiting, reverse=True):
                if ready[waiting[level][0]] <= slot:
                    service[waiting[level].pop(0)] = slot
                    if not waiting[level]:
                        del waiting[level]
                    break
            slot += n
    return service


def scalar_mirror(queues, levels, ready, order, residues, n):
    """The compiled backend's pass, run as plain Python."""
    grouping = np.lexsort((order, levels, queues))
    packed = ((queues << 4) | levels)[grouping]
    first_poll = np.maximum((ready - residues[queues] + n - 1) // n, 0)[grouping]
    polls = np.empty(len(queues), dtype=np.int64)
    serve_polled.py_func(packed, first_poll, polls)
    service = np.empty(len(queues), dtype=np.int64)
    service[grouping] = residues[packed >> 4] + polls * n
    return service


class TestReplayPolledQueues:
    @settings(max_examples=300, deadline=None)
    @given(bank=banks(), presorted=st.booleans())
    # Two levels, the smaller one wanting exactly the polls the larger took.
    @example(
        bank=(np.array([0, 0, 0, 0]), np.array([1, 1, 0, 0]),
              np.array([0, 0, 0, 1]), np.array([0, 1, 2, 3]),
              np.array([0]), 1),
        presorted=False,
    )
    # A larger level arriving late leaves a hole the smaller level fills.
    @example(
        bank=(np.array([2, 2, 2, 2, 0]), np.array([3, 9, 3, 9, 3]),
              np.array([0, 7, 0, 2, 5]), np.array([4, 3, 2, 1, 0]),
              np.array([1, 0, 2]), 3),
        presorted=True,
    )
    def test_three_implementations_agree(self, bank, presorted):
        queues, levels, ready, order, residues, n = bank
        if presorted:  # events arrive in FIFO-key order
            arrival = np.argsort(order)
            queues, levels, ready, order = (
                a[arrival] for a in (queues, levels, ready, order)
            )
        inputs = [a.copy() for a in (queues, levels, ready, order, residues)]
        got = replay_polled_queues(
            queues, levels, ready, order, residues, n, presorted=presorted
        )
        for before, after in zip(inputs, (queues, levels, ready, order, residues)):
            np.testing.assert_array_equal(before, after)  # inputs untouched
        np.testing.assert_array_equal(
            got, oracle(queues, levels, ready, order, residues, n)
        )
        np.testing.assert_array_equal(
            got, scalar_mirror(queues, levels, ready, order, residues, n)
        )

    @pytest.mark.parametrize("bad", [16, 31, -1])
    def test_levels_outside_the_packing_are_rejected(self, bad):
        one = np.zeros(3, dtype=np.int64)
        levels = np.array([0, bad, 2], dtype=np.int64)
        with pytest.raises(ValueError, match="levels"):
            replay_polled_queues(one, levels, one, np.arange(3), one[:1], 4)

    def test_empty_bank(self):
        empty = np.empty(0, dtype=np.int64)
        assert len(replay_polled_queues(empty, empty, empty, empty, empty, 4)) == 0

    def test_zero_stride_levels_equal_a_level_column(self):
        rng = np.random.default_rng(3)
        queues = rng.integers(0, 6, 300)
        ready = rng.integers(0, 80, 300)
        order = rng.permutation(300)
        residues = np.array([0, 1, 2, 0, 1, 2])
        want = replay_polled_queues(
            queues, np.full(300, 5), ready, order, residues, 3
        )
        got = replay_polled_queues(
            queues, np.broadcast_to(5, 300), ready, order, residues, 3
        )
        np.testing.assert_array_equal(got, want)


class TestPolledQueueBank:
    @settings(max_examples=200, deadline=None)
    @given(
        bank=banks(time_ordered=True),
        cuts=st.lists(st.integers(0, 70), max_size=5),
        presorted=st.booleans(),
    )
    def test_window_cuts_equal_monolithic(self, bank, cuts, presorted):
        queues, levels, ready, order, residues, n = bank
        arrival = np.argsort(order)  # generation order: by ready slot
        queues, levels, ready, order = (
            a[arrival] for a in (queues, levels, ready, order)
        )
        whole = replay_polled_queues(queues, levels, ready, order, residues, n)
        streamed = np.full(len(queues), -1, dtype=np.int64)
        stream = PolledQueueBank(residues, n, presorted=presorted)
        fed = 0
        for boundary in sorted(set(cuts)) + [None]:
            upto = len(ready) if boundary is None else int(
                np.searchsorted(ready, boundary)
            )
            window = slice(fed, upto)
            service, _, (index,) = stream.feed(
                queues[window], levels[window], ready[window], order[window],
                (np.arange(fed, upto),), boundary,
            )
            if boundary is not None:
                assert (service < boundary).all()
            assert (streamed[index] == -1).all()  # finalized exactly once
            streamed[index] = service
            fed = upto
        np.testing.assert_array_equal(streamed, whole)


class TestSegmentedRunningMax:
    @settings(max_examples=200, deadline=None)
    @given(
        runs=st.lists(
            st.tuples(
                st.integers(0, 3),  # gap to the previous segment id
                st.lists(st.integers(-(2 ** 61), 2 ** 61), min_size=1, max_size=8),
            ),
            max_size=8,
        ),
        narrow=st.booleans(),
    )
    def test_equals_python_loop(self, runs, narrow):
        """Narrow values take the offset path, 2^61-wide ones with more
        than a few segments the doubling scan."""
        values, segment, expected, seg = [], [], [], 0
        for gap, run in runs:
            seg += gap + 1
            if narrow:
                run = [v % 1000 - 500 for v in run]
            best = None
            for v in run:
                best = v if best is None else max(best, v)
                values.append(v)
                segment.append(seg)
                expected.append(best)
        values = np.array(values, dtype=np.int64)
        segment = np.array(segment, dtype=np.int64)
        expected = np.array(expected, dtype=np.int64)
        got = segmented_running_max(values, segment)
        np.testing.assert_array_equal(got, expected)
        assert segmented_running_max(values, segment, out=values) is values
        np.testing.assert_array_equal(values, expected)


def arrivals(n, load, seed, slots):
    matrix = diagonal_matrix(n, load)
    return BatchTrafficGenerator(matrix, np.random.default_rng(seed)).draw(slots)


class TestUnitCompletion:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 5),
        seed=st.integers(0, 2 ** 16),
        slots=st.integers(1, 120),
        data=st.data(),
    )
    def test_equals_a_per_voq_walk(self, n, seed, slots, data):
        batch = arrivals(n, 0.9, seed, slots)
        unit_size = np.array(
            data.draw(st.lists(st.integers(1, 4), min_size=n * n,
                               max_size=n * n)),
            dtype=np.int64,
        )
        want = {field: [] for field in Units._fields}
        voqs = batch.voqs
        for voq in range(n * n):
            rows = np.flatnonzero(voqs == voq)
            size = int(unit_size[voq])
            for rank in range(len(rows) - len(rows) % size):
                last = rows[rank - rank % size + size - 1]
                want["packet"].append(rows[rank])
                want["voq"].append(voq)
                want["pos"].append(rank % size)
                want["c_slot"].append(batch.slots[last])
                want["c_order"].append(last)
        got = unit_completion(batch, unit_size)
        for field in Units._fields:
            np.testing.assert_array_equal(
                getattr(got, field), np.array(want[field], dtype=np.int64)
            )


class TestPortFifoService:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 5),
        seed=st.integers(0, 2 ** 16),
        slots=st.integers(1, 120),
    )
    def test_equals_a_per_port_walk(self, n, seed, slots):
        batch = arrivals(n, 0.9, seed, slots)
        want = np.empty(len(batch), dtype=np.int64)
        free = [0] * n  # first slot each output's FIFO is free
        for k, (port, ready) in enumerate(zip(batch.outputs, batch.slots)):
            want[k] = max(int(ready), free[port])
            free[port] = want[k] + 1
        got = port_fifo_service(batch.outputs, batch.slots, n)
        np.testing.assert_array_equal(got, want)
