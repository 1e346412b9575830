"""Tests for packet-trace recording and replay (traffic/trace_io.py)."""

import numpy as np
import pytest

from repro.core.sprinklers_switch import SprinklersSwitch
from repro.traffic.generator import TrafficGenerator
from repro.traffic.matrices import uniform_matrix
from repro.traffic.trace_io import (
    TraceBatchSource,
    read_trace,
    record_trace,
    replay_generator,
    write_trace,
)

from tests.helpers import drive_switch


def make_events(n=4, slots=200, seed=5):
    gen = TrafficGenerator(uniform_matrix(n, 0.6), np.random.default_rng(seed))
    return record_trace(gen, slots)


class TestRoundTrip:
    def test_write_read_identity(self, tmp_path):
        events = make_events()
        path = tmp_path / "trace.csv"
        count = write_trace(path, events)
        assert count == len(events)
        assert read_trace(path) == events

    def test_flow_ids_survive(self, tmp_path):
        from repro.traffic.generator import FlowModel

        rng = np.random.default_rng(1)
        gen = TrafficGenerator(
            uniform_matrix(4, 0.5),
            rng,
            flow_model=FlowModel(4, 1.0, np.random.default_rng(2)),
        )
        events = record_trace(gen, 100)
        path = tmp_path / "flows.csv"
        write_trace(path, events)
        back = read_trace(path)
        assert back == events
        assert any(e[3] is not None for e in back)

    def test_rejects_foreign_csv(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_trace(path)

    def test_gzip_round_trip(self, tmp_path):
        """*.csv.gz traces round-trip transparently (and really compress)."""
        events = make_events(slots=2000)
        plain = tmp_path / "trace.csv"
        packed = tmp_path / "trace.csv.gz"
        assert write_trace(plain, events) == write_trace(packed, events)
        assert read_trace(packed) == events
        assert read_trace(packed) == read_trace(plain)
        # It must actually be gzip (magic bytes), and meaningfully smaller.
        raw = packed.read_bytes()
        assert raw[:2] == b"\x1f\x8b"
        assert len(raw) < plain.stat().st_size / 2

    def test_gzip_content_is_the_same_csv(self, tmp_path):
        import gzip

        events = make_events(slots=50)
        plain = tmp_path / "t.csv"
        packed = tmp_path / "t.csv.gz"
        write_trace(plain, events)
        write_trace(packed, events)
        with gzip.open(packed, "rt", newline="") as handle:
            unpacked = handle.read()
        with open(plain, newline="") as handle:
            assert unpacked == handle.read()


class TestReplay:
    def test_replay_produces_identical_packets(self):
        events = make_events()
        source = replay_generator(4, events)
        replayed = [
            (slot, p.input_port, p.output_port, p.flow_id)
            for slot, packets in source.slots(200)
            for p in packets
        ]
        assert replayed == events
        assert source.generated == len(events)

    def test_replay_drives_a_switch_identically(self):
        # Same trace -> bit-identical simulation result.
        n = 4
        matrix = uniform_matrix(n, 0.6)
        events = make_events(n=n, slots=400, seed=9)

        def run(source):
            switch = SprinklersSwitch.from_rates(matrix, seed=3)
            metrics = drive_switch(switch, source, 400, drain_slots=200)
            return len(metrics.delays), metrics.mean

        first = run(replay_generator(n, events))
        second = run(replay_generator(n, events))
        assert first == second
        assert first[0] > 0

    def test_replay_validates_events(self):
        with pytest.raises(ValueError):
            replay_generator(4, [(5, 0, 0, None), (1, 0, 0, None)])
        with pytest.raises(ValueError):
            replay_generator(2, [(0, 5, 0, None)])

    def test_truncated_replay_warns(self, caplog):
        """Regression: events at slot >= num_slots were silently dropped,
        undercounting `generated` and skewing throughput metrics.  The
        warning now goes through the telemetry logger (deprecation-style
        successor of the old ``warnings.warn`` path) plus a counter."""
        from repro import telemetry

        events = [(0, 0, 1, None), (5, 1, 2, None), (9, 2, 3, None)]
        source = replay_generator(4, events)
        with telemetry.scope() as tel:
            with caplog.at_level("WARNING", logger="repro"):
                consumed = [
                    (slot, len(packets)) for slot, packets in source.slots(6)
                ]
        assert any(
            "truncates the trace" in rec.message for rec in caplog.records
        )
        assert tel.registry.counter("trace.truncated_events").value == 1
        assert len(consumed) == 6
        assert source.generated == 2  # the slot-9 event never injects

    def test_full_replay_does_not_warn(self, caplog):
        events = make_events(slots=50)
        source = replay_generator(4, events)
        with caplog.at_level("WARNING", logger="repro"):
            for _slot, _packets in source.slots(50):
                pass
        assert not any(
            "truncates the trace" in rec.message for rec in caplog.records
        )
        assert source.generated == len(events)

    def test_replay_slots_signature_has_no_chunk_arg(self):
        """The unused chunk_slots parameter is gone for good."""
        import inspect

        source = replay_generator(4, [])
        params = inspect.signature(source.slots).parameters
        assert list(params) == ["num_slots"]

    def test_same_slot_events_arrive_in_input_order(self):
        # Events of one slot may be recorded in any input order; replay
        # delivers them by input port.
        events = [(0, 1, 0, None), (0, 0, 1, None), (5, 1, 1, None)]
        source = replay_generator(2, events)
        delivered = [
            (slot, p.input_port) for slot, packets in source.slots(10)
            for p in packets
        ]
        assert delivered == [(0, 0), (0, 1), (5, 1)]

    def test_replay_numbers_each_voq_from_zero(self):
        events = [(0, 0, 1, None), (1, 0, 1, None), (1, 1, 1, None),
                  (3, 0, 1, None)]
        source = replay_generator(2, events)
        seqs = [
            ((p.input_port, p.output_port), p.seq)
            for _slot, packets in source.slots(4) for p in packets
        ]
        assert seqs == [((0, 1), 0), ((0, 1), 1), ((1, 1), 0), ((0, 1), 2)]

    def test_replay_rejects_an_output_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            replay_generator(2, [(0, 0, 2, None)])


class TestBatchSource:
    def test_chunk_windows(self):
        events = [(1, 0, 1, None), (5, 1, 0, None), (8, 0, 1, None)]
        chunks = list(TraceBatchSource(2, events).draw_chunks(10, 5))
        assert [c.slots.tolist() for c in chunks] == [[1], [5, 8]]
        assert [c.inputs.tolist() for c in chunks] == [[0], [1, 0]]
        # VOQ (0, 1) keeps counting across the window boundary.
        assert [c.seqs.tolist() for c in chunks] == [[0], [0, 1]]

    def test_same_slot_events_sorted_by_input(self):
        events = [(0, 1, 0, None), (0, 0, 1, None)]
        batch = TraceBatchSource(2, events).draw(1)
        assert batch.inputs.tolist() == [0, 1]
        assert batch.outputs.tolist() == [1, 0]

    def test_rejects_nonpositive_lengths(self):
        source = TraceBatchSource(2, [(0, 0, 1, None)])
        with pytest.raises(ValueError, match="num_slots"):
            source.draw(0)
        with pytest.raises(ValueError, match="num_slots"):
            list(source.draw_chunks(0, 5))
        with pytest.raises(ValueError, match="window_slots"):
            list(source.draw_chunks(10, 0))
