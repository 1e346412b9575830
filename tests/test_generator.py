"""Unit tests for the packet source (traffic/generator.py)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.traffic.arrivals import ArrivalProcess
from repro.traffic.generator import (
    FlowModel,
    TrafficGenerator,
    _cdf_table,
    _draw_from_cdfs,
    bernoulli_traffic,
    destination_distributions,
)
from repro.traffic.matrices import diagonal_matrix, uniform_matrix


class _FixedArrivals(ArrivalProcess):
    """Arrivals at the given ``(slot, input)`` events, sorted by slot."""

    def __init__(self, n, events):
        self.n = n
        self._events = np.array(events, dtype=np.int64).reshape(-1, 2)

    def chunk(self, start_slot, num_slots):
        slots = self._events[:, 0]
        keep = (slots >= start_slot) & (slots < start_slot + num_slots)
        return slots[keep], self._events[keep, 1]


class TestDrawDestinations:
    def test_bit_identical_to_generator_choice(self):
        """The precomputed-CDF fast path must consume and produce exactly
        what the historical per-input ``rng.choice(n, size, p)`` calls
        did — this is what keeps old seeded runs (and the experiment
        store's cached results) valid."""
        from repro.traffic.generator import (
            destination_distributions,
            draw_destinations,
        )

        n = 8
        matrix = diagonal_matrix(n, 0.7)
        _, _, dists = destination_distributions(matrix)
        events = np.random.default_rng(9).integers(0, n, 500)
        fast_rng = np.random.default_rng(31)
        fast = draw_destinations(fast_rng, events, dists, n)
        ref_rng = np.random.default_rng(31)
        ref = np.empty(len(events), dtype=np.int64)
        for inp in np.unique(events):
            mask = events == inp
            ref[mask] = ref_rng.choice(n, size=int(mask.sum()), p=dists[inp])
        assert np.array_equal(fast, ref)
        # Stream positions agree afterwards too.
        assert fast_rng.random() == ref_rng.random()

    def test_idle_input_falls_back_to_uniform(self):
        from repro.traffic.generator import draw_destinations

        dests = draw_destinations(
            np.random.default_rng(0), np.zeros(50, dtype=np.int64),
            [None, None], 2,
        )
        assert set(np.unique(dests)) <= {0, 1}


def _loop_row_cdfs(dest_dists):
    """The per-row CDF list the per-input loop below consumes."""
    cdfs = []
    for dist in dest_dists:
        if dist is None:
            cdfs.append(None)
        else:
            cdf = dist.cumsum()
            cdf /= cdf[-1]
            cdfs.append(cdf)
    return cdfs


def _loop_draw_from_cdfs(rng, inputs, cdfs, n):
    """The per-input destination draw ``_draw_from_cdfs`` replaces: one
    ``searchsorted`` over its own uniform block per input present, inputs
    ascending.  The reference the block draw must reproduce bit for bit,
    RNG state included."""
    dests = np.empty(len(inputs), dtype=np.int64)
    if len(inputs) == 0:
        return dests
    order = np.argsort(
        inputs.astype(np.uint16) if n <= np.iinfo(np.uint16).max else inputs,
        kind="stable",
    )
    counts = np.bincount(inputs, minlength=n)
    sorted_dests = np.empty(len(inputs), dtype=np.int64)
    at = 0
    for inp in np.flatnonzero(counts):
        count = int(counts[inp])
        cdf = cdfs[int(inp)]
        if cdf is None:
            sorted_dests[at : at + count] = rng.integers(0, n, size=count)
        else:
            sorted_dests[at : at + count] = cdf.searchsorted(
                rng.random(count), side="right"
            )
        at += count
    dests[order] = sorted_dests
    return dests


#: Row shapes: rate-less, dense, zeros at the ends and inside (repeated
#: CDF edges), weights spread down to 1e-300, one non-zero entry.
_ROW_KINDS = ("idle", "dense", "zeros", "tiny", "single")


def _matrix(n, kinds, rng):
    matrix = np.zeros((n, n))
    for i in range(n):
        kind = kinds[i % len(kinds)]
        row = rng.random(n) + 1e-3
        if kind == "idle":
            continue
        if kind == "zeros":
            lead, trail = rng.integers(0, n, 2)
            row[:lead] = 0.0
            row[n - trail :] = 0.0
            row[rng.random(n) < 0.3] = 0.0
            row[rng.integers(0, n)] = 1.0
        elif kind == "tiny":
            row = 10.0 ** rng.uniform(-300.0, 0.0, n)
        elif kind == "single":
            row = np.zeros(n)
            row[rng.integers(0, n)] = 1.0
        matrix[i] = row * (rng.uniform(0.01, 1.0) / row.sum())
    return matrix


@st.composite
def _draw_cases(draw):
    n = draw(st.integers(1, 300))
    kinds = draw(st.lists(st.sampled_from(_ROW_KINDS), min_size=1, max_size=6))
    chunks = draw(st.lists(st.integers(0, 3000), min_size=1, max_size=4))
    return n, kinds, chunks, draw(st.integers(0, 2**32 - 1))


class TestBlockDraw:
    """``_draw_from_cdfs`` (one uniform block per chunk, guide-table
    inverse CDF) against the per-input loop it replaced."""

    @settings(max_examples=120, deadline=None)
    @given(_draw_cases())
    @example((1, ["dense", "idle"], [0, 7, 0], 1))
    @example((256, list(_ROW_KINDS), [3000, 0], 2))
    @example((257, ["zeros", "idle", "tiny"], [0, 3000], 3))
    def test_matches_per_input_loop(self, case):
        n, kinds, chunks, seed = case
        data = np.random.default_rng(seed)
        _, _, dists = destination_distributions(_matrix(n, kinds, data))
        table, cdfs = _cdf_table(dists), _loop_row_cdfs(dists)
        block_rng, loop_rng = (np.random.default_rng(seed) for _ in range(2))
        for size in chunks:  # successive chunks share one stream
            inputs = data.integers(0, n, size)
            got = _draw_from_cdfs(block_rng, inputs, table)
            want = _loop_draw_from_cdfs(loop_rng, inputs, cdfs, n)
            np.testing.assert_array_equal(got, want)
            assert block_rng.bit_generator.state == loop_rng.bit_generator.state

    @pytest.mark.parametrize(
        "rows",
        [
            # Dyadic edges land exactly on bucket bounds k / K; zeros at
            # the front, inside and at the back repeat edges.
            [[1, 1, 1, 1], [0, 1, 0, 1], [1, 0, 0, 0], [3, 1, 0, 4]],
            # Edges strictly inside buckets need the step-up.
            [[1, 2, 3, 7], [1e-300, 1, 0, 1], [5, 0, 0, 1], [0, 0, 0, 1]],
            [[1, 1, 1], [0, 2, 1], [1, 1e-12, 0]],
        ],
        ids=["dyadic", "inside", "thirds"],
    )
    def test_inverse_at_bucket_bounds(self, rows):
        """Exactly ``searchsorted(cdf, u, "right")`` for ``u`` on each
        bucket bound ``k / K``, one ulp below it and one above."""
        dists = [np.asarray(r, dtype=float) / sum(r) for r in rows]
        table = _cdf_table(dists)
        bounds = np.arange(table.buckets) / table.buckets
        u = np.concatenate((
            bounds,
            np.nextafter(bounds, 0.0),
            np.nextafter(bounds, 1.0),
            [np.nextafter(1.0, 0.0)],
        ))
        for i, cdf in enumerate(_loop_row_cdfs(dists)):
            got = table.invert(np.full(len(u), i), u)
            np.testing.assert_array_equal(
                got, np.searchsorted(cdf, u, side="right")
            )

    def test_guide_is_a_lower_bound_table(self):
        """``guide[i, k]`` is the answer at the bucket's lower bound."""
        _, _, dists = destination_distributions(diagonal_matrix(5, 0.9))
        table = _cdf_table(dists)
        bounds = np.arange(table.buckets) / table.buckets
        guide = table.guide.reshape(5, table.buckets)
        for i, cdf in enumerate(_loop_row_cdfs(dists)):
            np.testing.assert_array_equal(
                guide[i], np.searchsorted(cdf, bounds, side="right")
            )


class TestTrafficGenerator:
    def test_slot_stream_is_complete_and_ordered(self, rng):
        gen = TrafficGenerator(uniform_matrix(4, 0.5), rng)
        slots_seen = [slot for slot, _ in gen.slots(100)]
        assert slots_seen == list(range(100))

    def test_sequence_numbers_per_voq(self, rng):
        gen = TrafficGenerator(uniform_matrix(4, 0.9), rng)
        seqs = {}
        for slot, packets in gen.slots(2000):
            for p in packets:
                expected = seqs.get(p.voq, 0)
                assert p.seq == expected
                seqs[p.voq] = expected + 1

    def test_arrival_rate_matches_matrix(self, rng):
        gen = TrafficGenerator(uniform_matrix(4, 0.6), rng)
        total = sum(len(pkts) for _, pkts in gen.slots(20_000))
        assert total == pytest.approx(0.6 * 4 * 20_000, rel=0.05)

    def test_destination_distribution(self, rng):
        matrix = diagonal_matrix(4, 0.8)
        gen = TrafficGenerator(matrix, rng)
        diag = 0
        total = 0
        for _, packets in gen.slots(20_000):
            for p in packets:
                total += 1
                if p.output_port == p.input_port:
                    diag += 1
        assert diag / total == pytest.approx(0.5, abs=0.02)

    def test_rejects_oversubscribed_rows(self, rng):
        with pytest.raises(ValueError):
            TrafficGenerator(uniform_matrix(4, 1.2), rng)

    def test_custom_arrival_process(self, rng):
        trace = _FixedArrivals(2, [(0, 0), (3, 1)])
        gen = TrafficGenerator(
            uniform_matrix(2, 0.5), rng, arrivals=trace
        )
        packets = [p for _, pkts in gen.slots(5) for p in pkts]
        assert len(packets) == 2
        assert packets[0].arrival_slot == 0
        assert packets[1].arrival_slot == 3

    def test_arrival_size_mismatch_rejected(self, rng):
        trace = _FixedArrivals(3, [])
        with pytest.raises(ValueError):
            TrafficGenerator(uniform_matrix(2, 0.5), rng, arrivals=trace)

    def test_same_slot_packets_sorted_by_input(self, rng):
        gen = TrafficGenerator(uniform_matrix(8, 1.0), rng)
        for _, packets in gen.slots(50):
            inputs = [p.input_port for p in packets]
            assert inputs == sorted(inputs)

    def test_deterministic_for_seed(self):
        def collect(seed):
            gen = bernoulli_traffic(uniform_matrix(4, 0.5), seed=seed)
            return [
                (slot, p.input_port, p.output_port)
                for slot, pkts in gen.slots(200)
                for p in pkts
            ]

        assert collect(5) == collect(5)
        assert collect(5) != collect(6)


class TestFlowModel:
    def test_flow_ids_unique_across_voqs(self, rng):
        model = FlowModel(flows_per_voq=10, zipf_exponent=1.0, rng=rng)
        id_a = model.draw_flow(0, 0, 4)
        id_b = model.draw_flow(1, 0, 4)
        # Different VOQs occupy disjoint id ranges.
        assert id_a // 10 != id_b // 10

    def test_zipf_skew(self, rng):
        model = FlowModel(flows_per_voq=20, zipf_exponent=1.5, rng=rng)
        draws = [model.draw_flow(0, 0, 4) % 20 for _ in range(3000)]
        top = sum(1 for d in draws if d == 0)
        assert top > 0.3 * len(draws)  # heavy head

    def test_zero_exponent_is_uniform(self, rng):
        model = FlowModel(flows_per_voq=4, zipf_exponent=0.0, rng=rng)
        draws = [model.draw_flow(0, 0, 4) % 4 for _ in range(4000)]
        counts = np.bincount(draws, minlength=4)
        assert counts.min() > 0.8 * counts.max()

    def test_packets_get_flow_ids(self, rng):
        model = FlowModel(flows_per_voq=5, zipf_exponent=1.0, rng=np.random.default_rng(1))
        gen = TrafficGenerator(uniform_matrix(4, 0.8), rng, flow_model=model)
        packets = [p for _, pkts in gen.slots(100) for p in pkts]
        assert packets
        assert all(p.flow_id is not None for p in packets)

    def test_parameter_validation(self, rng):
        with pytest.raises(ValueError):
            FlowModel(0, 1.0, rng)
        with pytest.raises(ValueError):
            FlowModel(5, -1.0, rng)
