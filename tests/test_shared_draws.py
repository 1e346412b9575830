"""One draw, many replays: runs that share a traffic stream draw it once.

The paper's §6 runs every switch on the same arrivals at each load, and
``traffic_rng(seed)`` does not depend on the switch.  Inside a
:func:`~repro.sim.experiment.shared_draws` scope a monolithic vectorized
run draws its arrivals once per :attr:`RunPlan.traffic_key` and every
later run with that key replays the same read-only batch.  These tests
pin that:

* no vectorized kernel writes its input batch (a write would raise);
* the traffic key ignores exactly the fields that name the subject;
* a scope holds one batch, the last one drawn;
* a serial grid (each load's cells in one scope) and ``run_sweep`` (one
  and two workers) equal per-cell ``run_single``; the serial grid draws
  once per traffic key, and a pool worker draws a key at most once;
* windowed, fabric and object-engine runs still draw once per run.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest

from repro import models
from repro.service import JobRequest, expand_shards, run_sweep, shard_run_kwargs
from repro.sim import experiment
from repro.sim.experiment import (
    TRAFFIC_PATTERNS,
    cell_workload,
    execute,
    plan_cell,
    run_single,
    shared_draws,
)
from repro.sim.rng import traffic_rng
from repro.traffic.batch import BatchTrafficGenerator
from repro.traffic.generator import TrafficGenerator

N, SLOTS, SEED = 8, 1_500, 5
LOADS = (0.4, 0.8)
SWITCHES = ("sprinklers", "pf", "foff", "ufs")


@pytest.fixture(scope="module")
def frozen_batch():
    """One diagonal-traffic batch, every column read-only, plus copies
    of the columns to compare against after each replay."""
    matrix = TRAFFIC_PATTERNS["diagonal"](N, 0.8)
    batch = BatchTrafficGenerator(matrix, traffic_rng(SEED)).draw(SLOTS)
    columns = (batch.slots, batch.inputs, batch.outputs, batch.seqs)
    copies = [column.copy() for column in columns]
    for column in columns:
        column.flags.writeable = False
    return matrix, batch, copies


class TestKernelsLeaveTheirInputAlone:
    def test_a_write_to_a_frozen_column_raises(self, frozen_batch):
        _, batch, _ = frozen_batch
        with pytest.raises(ValueError, match="read-only"):
            batch.slots[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            batch.seqs += 1

    @pytest.mark.parametrize("name", models.available(engine="vectorized"))
    def test_replays_a_read_only_batch(self, name, frozen_batch):
        matrix, batch, copies = frozen_batch
        dep, _ = models.get(name).kernel(batch, matrix, SEED)
        assert 0 < len(dep.voq) <= len(batch)
        for column, copy in zip(
            (batch.slots, batch.inputs, batch.outputs, batch.seqs), copies
        ):
            np.testing.assert_array_equal(column, copy)


class TestTrafficKey:
    def test_subject_fields_do_not_enter_it(self):
        plans = [
            plan_cell("uniform", "sprinklers", N, 0.5, SLOTS, SEED),
            plan_cell("uniform", "pf", N, 0.5, SLOTS, SEED, keep_samples=True),
            plan_cell("uniform", "cms", N, 0.5, SLOTS, SEED),
            plan_cell("uniform", "leaf-spine", N, 0.5, SLOTS, SEED),
        ]
        assert len({plan.key for plan in plans}) == len(plans)
        assert len({plan.traffic_key for plan in plans}) == 1

    def test_only_monolithic_vectorized_switch_runs_share_a_draw(self):
        cell = ("uniform", N, 0.5, SLOTS, SEED)

        def plan(subject, **kwargs):
            return plan_cell(cell[0], subject, *cell[1:], **kwargs)

        assert plan("sprinklers").shares_draw
        assert plan("sprinklers", window_slots=SLOTS).shares_draw
        assert not plan("sprinklers", window_slots=SLOTS - 1).shares_draw
        assert not plan("sprinklers", engine="object").shares_draw
        assert not plan("cms").shares_draw  # object-only model
        assert not plan("leaf-spine").shares_draw  # a fabric

    @pytest.mark.parametrize(
        "change",
        [
            dict(pattern="diagonal"),
            dict(n=4),
            dict(load=0.6),
            dict(num_slots=SLOTS + 1),
            dict(seed=SEED + 1),
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_traffic_fields_do(self, change):
        cell = dict(
            pattern="uniform", subject="ufs", n=N, load=0.5,
            num_slots=SLOTS, seed=SEED,
        )
        base = plan_cell(**cell)
        assert plan_cell(**{**cell, **change}).traffic_key != base.traffic_key


@pytest.fixture()
def draws(monkeypatch):
    """Count whole-run and windowed draws, and keep each drawn batch."""
    seen = {"draw": [], "draw_chunks": 0}
    draw, draw_chunks = BatchTrafficGenerator.draw, BatchTrafficGenerator.draw_chunks

    def counting_draw(self, num_slots):
        batch = draw(self, num_slots)
        seen["draw"].append(batch)
        return batch

    def counting_chunks(self, num_slots, window_slots):
        seen["draw_chunks"] += 1
        return draw_chunks(self, num_slots, window_slots)

    monkeypatch.setattr(BatchTrafficGenerator, "draw", counting_draw)
    monkeypatch.setattr(BatchTrafficGenerator, "draw_chunks", counting_chunks)
    return seen


def _single(pattern, result, **kwargs):
    """``run_single`` of one sweep cell, outside any scope."""
    return run_single(
        result.switch_name, num_slots=SLOTS, seed=SEED, keep_samples=False,
        **cell_workload(pattern, N, result.load), **kwargs,
    )


def _serial_sweep(
    pattern, switches, loads=LOADS, n=N, num_slots=SLOTS, **kwargs
):
    """The serial §6 grid, load-major: each load's cells in one
    :func:`shared_draws` scope."""
    results = []
    for load in loads:
        with shared_draws():
            results.extend(
                execute(plan_cell(
                    pattern, name, n, load, num_slots, SEED, **kwargs
                ))
                for name in switches
            )
    return results


class TestSerialSweep:
    @pytest.mark.parametrize("pattern", ["uniform", "mmpp-bursty"])
    def test_one_draw_per_load_and_equal_results(self, pattern, draws):
        results = _serial_sweep(pattern, SWITCHES)
        assert len(draws["draw"]) == len(LOADS)
        assert all(
            not column.flags.writeable
            for batch in draws["draw"]
            for column in (batch.slots, batch.inputs, batch.outputs, batch.seqs)
        )
        del draws["draw"][:]
        for result in results:
            assert result.to_dict() == _single(pattern, result).to_dict()
        assert len(draws["draw"]) == len(results)

    def test_windowed_cells_draw_per_cell(self, draws):
        results = _serial_sweep("uniform", SWITCHES, window_slots=400)
        assert draws["draw"] == []
        assert draws["draw_chunks"] == len(results) == 8
        for result in results:
            want = _single("uniform", result, window_slots=400)
            assert result.to_dict() == want.to_dict()

    def test_fabric_cells_draw_per_cell(self, draws):
        results = _serial_sweep(
            "uniform", ("leaf-spine", "dual-sprinklers", "sprinklers"),
            loads=(0.5,),
        )
        assert len(draws["draw"]) == 3
        assert draws["draw"][0].slots.flags.writeable  # a fabric's own
        assert not draws["draw"][2].slots.flags.writeable  # the shared one
        assert [r.switch_name for r in results][-1] == "sprinklers"

    def test_object_engine_cells_draw_per_cell(self, draws, monkeypatch):
        runs = []
        slots = TrafficGenerator.slots

        def counting_slots(self, num_slots):
            runs.append(num_slots)
            return slots(self, num_slots)

        monkeypatch.setattr(TrafficGenerator, "slots", counting_slots)
        _serial_sweep(
            "uniform", ("sprinklers", "pf", "cms"), loads=(0.5,), n=4,
            num_slots=300, engine="object",
        )
        assert draws["draw"] == []
        assert runs == [300, 300, 300]

    def test_nothing_is_held_outside_a_scope(self, draws):
        matrix = TRAFFIC_PATTERNS["uniform"](N, 0.5)
        for name in ("sprinklers", "pf"):
            run_single(name, matrix, SLOTS, seed=SEED, load_label=0.5)
        with shared_draws():
            with shared_draws():
                run_single("ufs", matrix, SLOTS, seed=SEED, load_label=0.5)
            run_single("foff", matrix, SLOTS, seed=SEED, load_label=0.5)
        run_single("ufs", matrix, SLOTS, seed=SEED, load_label=0.5)
        assert len(draws["draw"]) == 5
        assert [b.slots.flags.writeable for b in draws["draw"]] == [
            True, True, False, False, True
        ]

    def test_a_scope_holds_only_the_last_batch(self, draws):
        """A scope that sees a second key drops the first key's batch:
        coming back to the first key draws it again."""
        with shared_draws():
            for load in (0.4, 0.8, 0.8, 0.4):
                run_single(
                    "ufs", num_slots=SLOTS, seed=SEED,
                    **cell_workload("uniform", N, load),
                )
                (held,) = experiment._HELD.get().values()
                assert held is draws["draw"][-1]
        assert len(draws["draw"]) == 3


class TestPooledSweep:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_draw_per_traffic_key(self, workers, tmp_path, monkeypatch):
        """Each worker draws a traffic stream at most once.  One worker
        draws each key exactly once; two may both draw the last key
        (the pick rule splits a key rather than idle a worker), so at
        most one draw more than there are keys."""
        # Workers are forked after this patch: each appends a line per
        # whole-run draw (its pid and the drawn stream) to one file the
        # parent reads back.
        log = tmp_path / "draws.log"
        draw = BatchTrafficGenerator.draw

        def logging_draw(self, num_slots):
            batch = draw(self, num_slots)
            stream = hashlib.sha256(batch.slots.tobytes() + batch.voqs.tobytes())
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {stream.hexdigest()}\n")
            return batch

        monkeypatch.setattr(BatchTrafficGenerator, "draw", logging_draw)
        request = JobRequest(
            workload="diagonal", switches=SWITCHES, loads=LOADS, n=N,
            num_slots=SLOTS, seeds=(SEED, SEED + 1),
        )
        pooled = run_sweep(request, tmp_path / "store", workers=workers)
        drawn = [tuple(line.split()) for line in log.read_text().splitlines()]
        keys = len(LOADS) * len(request.seeds)
        assert len(set(drawn)) == len(drawn)  # no worker draws a key twice
        assert len({stream for _, stream in drawn}) == keys
        assert len(drawn) == keys if workers == 1 else len(drawn) <= keys + 1
        shards = expand_shards(request)
        assert len(pooled) == len(shards) == 16
        for shard, result in zip(shards, pooled):
            want = run_single(**shard_run_kwargs(shard))
            assert result.to_dict() == want.to_dict()
