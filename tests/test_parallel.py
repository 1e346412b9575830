"""Tests for the multiprocess sweep runner (sim/parallel.py)."""

import pytest

from repro.sim.experiment import delay_vs_load_sweep
from repro.sim.parallel import (
    FailedJob,
    SweepError,
    SweepJob,
    parallel_delay_sweep,
    run_jobs,
)
from repro.traffic.matrices import uniform_matrix


class TestRunJobs:
    def test_inline_single_worker(self):
        jobs = [
            SweepJob("load-balanced", uniform_matrix(4, 0.5), 400, 1, 0.5),
            SweepJob("sprinklers", uniform_matrix(4, 0.5), 400, 1, 0.5),
        ]
        results = run_jobs(jobs, max_workers=1)
        assert [r.switch_name for r in results] == ["baseline-lb", "sprinklers"]

    def test_pool_matches_inline(self):
        jobs = [
            SweepJob("ufs", uniform_matrix(4, 0.6), 600, 2, 0.6),
            SweepJob("pf", uniform_matrix(4, 0.6), 600, 2, 0.6),
            SweepJob("foff", uniform_matrix(4, 0.6), 600, 2, 0.6),
        ]
        inline = run_jobs(jobs, max_workers=1)
        pooled = run_jobs(jobs, max_workers=2)
        for a, b in zip(inline, pooled):
            assert a.switch_name == b.switch_name
            assert a.mean_delay == b.mean_delay
            assert a.measured_packets == b.measured_packets

    def test_switch_params_reach_the_run(self):
        """Regression: SweepJob dropped switch_params entirely, so
        parameterized switches (PF threshold) could not be swept or
        replicated in parallel at all."""
        from repro.sim.experiment import run_single

        matrix = uniform_matrix(4, 0.6)
        jobs = [
            SweepJob(
                "pf", matrix, 600, 2, 0.6, switch_params={"threshold": t}
            )
            for t in (1, 4)
        ]
        inline = run_jobs(jobs, max_workers=1)
        pooled = run_jobs(jobs, max_workers=2)
        for job, a, b in zip(jobs, inline, pooled):
            want = run_single(
                "pf", matrix, 600, seed=2, load_label=0.6,
                keep_samples=False,
                switch_params=job.switch_params,
            )
            assert a.mean_delay == want.mean_delay
            assert b.mean_delay == want.mean_delay
        # Thresholds 1 and 4 genuinely produce different dynamics, so the
        # parameter demonstrably arrived (it is not defaulted away).
        assert inline[0].mean_delay != inline[1].mean_delay

    def test_switch_params_default_cache_keys_unchanged(self, tmp_path):
        """Default-parameter jobs must hit the same store entries as
        before the switch_params field existed (key only present when
        non-default)."""
        from repro.sim.experiment import plan_run

        def params(switch_params):
            return plan_run(
                "pf", uniform_matrix(4, 0.6), 600, 2, 0.6, 0.1, False,
                "object", switch_params=switch_params,
            ).store_params()

        params_none = params(None)
        assert params_none == params({})
        assert "switch_params" not in params_none
        assert params({"threshold": 3})["switch_params"] == {"threshold": 3}


class TestFailureCapture:
    """One bad cell never kills a sweep; its identity is preserved."""

    def _jobs(self):
        matrix = uniform_matrix(4, 0.5)
        return [
            SweepJob("sprinklers", matrix, 400, 0, 0.5),
            SweepJob("nonesuch", matrix, 400, 0, 0.5),
            SweepJob("ufs", matrix, 400, 0, 0.5),
        ]

    def test_record_returns_failures_in_place(self):
        results = run_jobs(self._jobs(), max_workers=2, on_error="record")
        assert len(results) == 3
        assert results[0].switch_name == "sprinklers"
        assert results[2].switch_name == "ufs"
        failed = results[1]
        assert isinstance(failed, FailedJob)
        assert failed.job.switch_name == "nonesuch"
        assert "unknown switch" in failed.error
        assert "ValueError" in failed.traceback
        assert "nonesuch" in failed.describe()

    def test_raise_carries_records_after_every_job_ran(self):
        with pytest.raises(SweepError) as excinfo:
            run_jobs(self._jobs(), max_workers=2)
        err = excinfo.value
        assert len(err.failures) == 1
        assert err.failures[0].job.switch_name == "nonesuch"
        assert "1 of 3 sweep jobs failed" in str(err)
        assert "unknown switch" in str(err)
        assert "Traceback" in str(err)  # first traceback rides along

    def test_inline_path_matches_pool_path(self):
        inline = run_jobs(self._jobs(), max_workers=1, on_error="record")
        assert isinstance(inline[1], FailedJob)
        assert "unknown switch" in inline[1].error

    def test_invalid_on_error_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            run_jobs(self._jobs(), on_error="ignore")

    def test_parallel_sweep_passes_on_error_through(self):
        results = parallel_delay_sweep(
            "uniform",
            n=4,
            loads=(0.5,),
            num_slots=300,
            switches=("sprinklers", "nonesuch"),
            max_workers=2,
            on_error="record",
        )
        assert results[0].switch_name == "sprinklers"
        assert isinstance(results[1], FailedJob)


class TestParallelSweep:
    def test_matches_sequential_sweep(self):
        kwargs = dict(
            n=4, loads=(0.4, 0.7), num_slots=500,
            switches=("load-balanced", "sprinklers"), seed=3,
        )
        sequential = delay_vs_load_sweep("uniform", **kwargs)
        parallel = parallel_delay_sweep(
            "uniform", max_workers=2, **kwargs
        )
        assert len(sequential) == len(parallel)
        seq_map = {(r.switch_name, r.load): r.mean_delay for r in sequential}
        par_map = {(r.switch_name, r.load): r.mean_delay for r in parallel}
        assert seq_map == par_map

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError):
            parallel_delay_sweep("bogus")
