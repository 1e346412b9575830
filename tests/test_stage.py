"""The Stage protocol adapters (sim/stage.py): window contract,
engine parity, and validation."""

import numpy as np
import pytest

from repro import models
from repro.sim.rng import derive_seed
from repro.sim.stage import KernelStage, ObjectStage
from repro.traffic.batch import BatchTrafficGenerator
from repro.traffic.matrices import uniform_matrix


def _traffic(matrix, seed=0):
    return BatchTrafficGenerator(
        matrix, np.random.default_rng(derive_seed(seed, "traffic"))
    )


def _drain(stage, traffic, num_slots, window_slots=None):
    """Run a stage over the full horizon; departures sorted by (voq, seq)."""
    parts = []
    if window_slots is None:
        dep, extras = stage.finish(traffic.draw(num_slots))
        parts.append(dep)
    else:
        for window in traffic.draw_chunks(num_slots, window_slots):
            parts.append(stage.feed(window))
        dep, extras = stage.finish()
        parts.append(dep)
    voq = np.concatenate([p.voq for p in parts])
    seq = np.concatenate([p.seq for p in parts])
    arrival = np.concatenate([p.arrival for p in parts])
    departure = np.concatenate([p.departure for p in parts])
    order = np.lexsort((seq, voq))
    return (
        voq[order], seq[order], arrival[order], departure[order], extras
    )


def _object_stage(name, matrix, seed, num_slots):
    model = models.get(name)
    n = matrix.shape[0]
    switch = model.build(n, matrix, seed)
    return ObjectStage(switch, num_slots)


def _kernel_stage(name, matrix, seed, num_slots):
    return KernelStage(models.get(name), matrix, seed, num_slots)


class TestKernelStage:
    def test_rejects_model_without_stream_kernel(self):
        with pytest.raises(ValueError, match="no stream kernel"):
            KernelStage(models.get("cms"), uniform_matrix(4, 0.5), 0, 100)

    @pytest.mark.parametrize("name", ["sprinklers", "output-queued", "foff"])
    def test_windowed_equals_monolithic(self, name):
        matrix = uniform_matrix(8, 0.8)
        mono = _drain(
            _kernel_stage(name, matrix, 3, 1000),
            _traffic(matrix, 3), 1000,
        )
        windowed = _drain(
            _kernel_stage(name, matrix, 3, 1000),
            _traffic(matrix, 3), 1000, window_slots=128,
        )
        for a, b in zip(mono[:4], windowed[:4]):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name", models.available(engine="vectorized"))
    def test_departures_finalized_before_window_end(self, name):
        matrix = uniform_matrix(8, 0.7)
        stage = _kernel_stage(name, matrix, 0, 1000)
        traffic = _traffic(matrix)
        for window in traffic.draw_chunks(1000, 100):
            dep = stage.feed(window)
            if len(dep.departure):
                assert dep.departure.max() < window.end_slot
                # One seed's stacked record is the plain record.
                assert dep.voq.max() < 8 * 8


class TestObjectStage:
    @pytest.mark.parametrize("name", ["sprinklers", "output-queued", "foff"])
    def test_matches_kernel_stage(self, name):
        # The two adapters are the two engines; same windows, same
        # finalized (voq, seq, arrival, departure) multiset.
        matrix = uniform_matrix(8, 0.8)
        obj = _drain(
            _object_stage(name, matrix, 3, 800),
            _traffic(matrix, 3), 800, window_slots=150,
        )
        ker = _drain(
            _kernel_stage(name, matrix, 3, 800),
            _traffic(matrix, 3), 800, window_slots=150,
        )
        for a, b in zip(obj[:4], ker[:4]):
            np.testing.assert_array_equal(a, b)

    def test_rejects_nonconsecutive_windows(self):
        matrix = uniform_matrix(4, 0.5)
        stage = _object_stage("output-queued", matrix, 0, 400)
        windows = list(_traffic(matrix).draw_chunks(400, 100))
        stage.feed(windows[0])
        with pytest.raises(ValueError, match="must be consecutive"):
            stage.feed(windows[2])  # skipped windows[1]

    def test_rejects_size_mismatch(self):
        stage = _object_stage("output-queued", uniform_matrix(4, 0.5), 0, 200)
        window = _traffic(uniform_matrix(8, 0.5)).draw(200)
        with pytest.raises(ValueError, match="does not match stage size"):
            stage.feed(window)

    def test_rejects_nonpositive_horizon(self):
        model = models.get("output-queued")
        matrix = uniform_matrix(4, 0.5)
        switch = model.build(4, matrix, 0)
        with pytest.raises(ValueError, match="must be positive"):
            ObjectStage(switch, 0)

    def test_wire_is_global_rank(self):
        matrix = uniform_matrix(4, 0.6)
        stage = _object_stage("output-queued", matrix, 1, 300)
        traffic = _traffic(matrix, 1)
        seen = 0
        for window in traffic.draw_chunks(300, 60):
            dep = stage.feed(window)
            assert dep.wire_is_rank
            if len(dep.wire):
                assert dep.wire[0] == seen
                np.testing.assert_array_equal(
                    dep.wire, np.arange(seen, seen + len(dep.wire))
                )
                seen += len(dep.wire)

    def test_finish_drains_everything(self):
        # Output-queued work-conserving service: every injected packet
        # departs within the drain limit.
        matrix = uniform_matrix(4, 0.6)
        traffic = _traffic(matrix, 2)
        stage = _object_stage("output-queued", matrix, 2, 500)
        voq, seq, arrival, departure, _ = _drain(stage, traffic, 500)
        assert len(voq) == traffic.generated
