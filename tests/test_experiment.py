"""Tests for the experiment layer (sim/experiment.py)."""

import pytest

from repro import models
from repro.figures import delay_figures
from repro.service import JobRequest, WorkerPool, run_sweep
from repro.sim.experiment import (
    PAPER_SWITCHES,
    TRAFFIC_PATTERNS,
    run_single,
)
from repro.traffic.matrices import uniform_matrix


class TestRegistry:
    def test_paper_switches_all_registered(self):
        for name in PAPER_SWITCHES:
            assert name in models.available()

    def test_run_single_unknown_switch_rejected(self):
        with pytest.raises(ValueError, match="unknown switch"):
            run_single("bogus", uniform_matrix(8, 0.5), 100)

    def test_patterns(self):
        assert set(TRAFFIC_PATTERNS) == {"uniform", "diagonal"}


class TestRunSingle:
    def test_produces_result(self):
        result = run_single(
            "sprinklers", uniform_matrix(8, 0.6), 1500, seed=1, load_label=0.6
        )
        assert result.switch_name == "sprinklers"
        assert result.load == 0.6
        assert result.is_ordered

    def test_deterministic(self):
        a = run_single("ufs", uniform_matrix(8, 0.5), 1200, seed=4)
        b = run_single("ufs", uniform_matrix(8, 0.5), 1200, seed=4)
        assert a.mean_delay == b.mean_delay

    def test_seeds_differ(self):
        a = run_single("load-balanced", uniform_matrix(8, 0.5), 1500, seed=1)
        b = run_single("load-balanced", uniform_matrix(8, 0.5), 1500, seed=2)
        assert a.mean_delay != b.mean_delay


class TestSweep:
    def test_grid_shape(self):
        results = run_sweep(
            JobRequest(
                workload="uniform",
                switches=("load-balanced", "sprinklers"),
                loads=(0.3, 0.6),
                n=8,
                num_slots=800,
            ),
            workers=2,
        )
        assert len(results) == 4
        # Registry keys build the switches; results carry the switches'
        # own names ("load-balanced" builds the "baseline-lb" switch).
        assert {r.switch_name for r in results} == {"baseline-lb", "sprinklers"}
        assert {r.load for r in results} == {0.3, 0.6}

    def test_unknown_pattern_rejected(self, monkeypatch):
        monkeypatch.setattr(
            WorkerPool, "start",
            lambda self: pytest.fail("a worker pool was started"),
        )
        with pytest.raises(ValueError, match="unknown pattern"):
            delay_figures.generate("bogus", n=8)

    def test_default_switches_are_papers(self):
        rows = delay_figures.generate(
            "uniform", n=4, loads=(0.5,), num_slots=400
        )
        assert [row["switch"] for row in rows] == [
            "baseline-lb", "ufs", "foff", "pf", "sprinklers",
        ]
