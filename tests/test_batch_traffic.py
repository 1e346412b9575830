"""Batch traffic generator: bit-identical to the object generator.

The whole engine-parity story rests on one invariant: for the same
matrix, arrival process and random generator state,
:class:`~repro.traffic.batch.BatchTrafficGenerator` emits *exactly* the
arrival stream that :class:`~repro.traffic.generator.TrafficGenerator`
hands to a switch — same slots, same inputs, same destinations, same
sequence numbers, same order.  These tests pin that invariant for the
paper's Bernoulli process and for the bursty on/off extension.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.traffic.arrivals import OnOffArrivals
from repro.traffic.batch import BatchTrafficGenerator, bernoulli_batch
from repro.traffic.generator import TrafficGenerator
from repro.traffic.matrices import diagonal_matrix, uniform_matrix


def _object_stream(generator: TrafficGenerator, num_slots: int):
    return [
        (slot, p.input_port, p.output_port, p.seq)
        for slot, packets in generator.slots(num_slots)
        for p in packets
    ]


def _batch_stream(batch):
    return list(
        zip(
            batch.slots.tolist(),
            batch.inputs.tolist(),
            batch.outputs.tolist(),
            batch.seqs.tolist(),
        )
    )


class TestStreamIdentity:
    @pytest.mark.parametrize(
        "matrix",
        [uniform_matrix(16, 0.9), uniform_matrix(8, 0.2), diagonal_matrix(16, 0.6)],
        ids=["uniform-hot", "uniform-cold", "diagonal"],
    )
    def test_bernoulli_identical(self, matrix):
        num_slots = 6000  # spans two rng chunks (CHUNK_SLOTS = 4096)
        obj = TrafficGenerator(matrix, np.random.default_rng(42))
        bat = BatchTrafficGenerator(matrix, np.random.default_rng(42))
        assert _object_stream(obj, num_slots) == _batch_stream(
            bat.draw(num_slots)
        )
        assert obj.generated == bat.generated

    def test_onoff_identical(self):
        matrix = uniform_matrix(8, 0.6)
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        obj = TrafficGenerator(
            matrix, rng_a, arrivals=OnOffArrivals(8, 0.9, 20.0, 10.0, rng_a)
        )
        bat = BatchTrafficGenerator(
            matrix, rng_b, arrivals=OnOffArrivals(8, 0.9, 20.0, 10.0, rng_b)
        )
        assert _object_stream(obj, 5000) == _batch_stream(bat.draw(5000))


class TestBatchSemantics:
    def test_sorted_by_slot_then_input(self):
        batch = bernoulli_batch(uniform_matrix(8, 0.9), seed=3).draw(2000)
        keys = batch.slots * 8 + batch.inputs
        assert np.all(np.diff(keys) > 0)  # at most one arrival per (slot, input)

    def test_seqs_are_per_voq_ranks(self):
        batch = bernoulli_batch(uniform_matrix(8, 0.8), seed=5).draw(3000)
        for voq in np.unique(batch.voqs):
            seqs = batch.seqs[batch.voqs == voq]
            assert seqs.tolist() == list(range(len(seqs)))

    def test_seqs_continue_across_draws(self):
        gen = bernoulli_batch(uniform_matrix(4, 0.9), seed=1)
        first = gen.draw(500)
        second = gen.draw(500)
        for voq in np.unique(second.voqs):
            expected_start = int(np.sum(first.voqs == voq))
            seqs = second.seqs[second.voqs == voq]
            assert seqs.tolist() == list(
                range(expected_start, expected_start + len(seqs))
            )

    def test_voqs_property(self):
        batch = bernoulli_batch(uniform_matrix(4, 0.5), seed=2).draw(200)
        assert np.array_equal(batch.voqs, batch.inputs * 4 + batch.outputs)
        assert len(batch) == len(batch.slots)

    def test_inadmissible_matrix_rejected(self):
        bad = np.full((4, 4), 0.3)  # row sums 1.2 > 1 packet/slot
        with pytest.raises(ValueError, match="row sums"):
            BatchTrafficGenerator(bad, np.random.default_rng(0))

    def test_nonpositive_draw_rejected(self):
        gen = bernoulli_batch(uniform_matrix(4, 0.5), seed=0)
        with pytest.raises(ValueError):
            gen.draw(0)
