"""Tests for replication methodology and the burst-sensitivity extension."""

import pytest

from repro import models
from repro.figures.burst_sensitivity import generate as burst_generate
from repro.models import FabricSpec
from repro.sim.experiment import run_single
from repro.sim.replication import replicate
from repro.store import ExperimentStore
from repro.traffic.matrices import uniform_matrix


class TestReplicate:
    def test_summary_structure(self):
        result = replicate(
            "load-balanced", uniform_matrix(8, 0.6), 1200, replications=4,
        )
        assert result.replications == 4
        assert len(result.values) == 4
        low, high = result.interval
        assert low <= result.mean <= high

    def test_interval_covers_long_run_value(self):
        # The replication CI for baseline delay should cover the estimate
        # from a much longer single run.
        matrix = uniform_matrix(8, 0.5)
        rep = replicate(
            "load-balanced", matrix, 4000, replications=8, base_seed=10,
        )
        long_run = run_single(
            "load-balanced", matrix, 40_000, seed=99, keep_samples=False
        )
        low, high = rep.interval
        # Generous slack: both are estimates.
        assert low - 3 * rep.half_width <= long_run.mean_delay
        assert long_run.mean_delay <= high + 3 * rep.half_width

    def test_custom_metric(self):
        result = replicate(
            "sprinklers",
            uniform_matrix(8, 0.7),
            1500,
            replications=3,
            metric=lambda r: float(r.late_packets),
            metric_name="late",
        )
        assert result.metric == "late"
        assert result.mean == 0.0  # never reorders, any seed

    def test_switch_params_replicated(self):
        """Regression: replicate() dropped switch_params, so a
        parameterized switch could not be replicated at all."""
        matrix = uniform_matrix(4, 0.6)
        result = replicate(
            "pf", matrix, 800, replications=3,
            switch_params={"threshold": 1},
        )
        want = run_single(
            "pf", matrix, 800, seed=0, keep_samples=False,
            switch_params={"threshold": 1},
        )
        assert result.values[0] == float(want.mean_delay)
        plain = replicate("pf", matrix, 800, replications=3)
        assert result.values != plain.values

    @pytest.mark.parametrize(
        "subject, engine, workload",
        [
            pytest.param(
                "sprinklers", "object", {"matrix": uniform_matrix(4, 0.6)},
                id="object-switch",
            ),
            pytest.param(
                "leaf-spine", "vectorized",
                {"scenario": "ring-allreduce", "n": 4, "load": 0.6},
                id="fabric",
            ),
            pytest.param(
                # An unregistered fabric travels as the spec itself.
                FabricSpec(name="solo-test", stages=({"switch": "ufs"},)),
                "object",
                {"scenario": "paper-uniform", "n": 4, "load": 0.6},
                id="fabric-spec",
            ),
        ] + [
            pytest.param(
                switch, "vectorized",
                {"matrix": uniform_matrix(8, 0.7), "load_label": 0.7},
                id=switch,
            )
            for switch in models.available(engine="vectorized")
        ] + [
            pytest.param(
                "sprinklers", "vectorized",
                {"scenario": "mmpp-bursty", "n": 8, "load": 0.8},
                id="sprinklers-mmpp-bursty",
            ),
            pytest.param(
                "pf", "vectorized",
                {
                    "matrix": uniform_matrix(8, 0.75),
                    "switch_params": {"threshold": 2},
                },
                id="pf-threshold-2",
            ),
        ],
    )
    def test_per_seed_runs_are_run_single(
        self, subject, engine, workload, tmp_path
    ):
        """Replication is ``run_single(seed=s, keep_samples=False)`` per
        seed: the same values under the same store keys."""
        rep_store = ExperimentStore(tmp_path / "replicate")
        rep = replicate(
            subject, num_slots=400, replications=3, base_seed=5,
            engine=engine, store=rep_store, **workload,
        )
        run_store = ExperimentStore(tmp_path / "run-single")
        singles = [
            run_single(
                subject, num_slots=400, seed=seed, keep_samples=False,
                engine=engine, store=run_store, **workload,
            )
            for seed in (5, 6, 7)
        ]
        assert rep.values == tuple(float(r.mean_delay) for r in singles)
        keys = [
            sorted(record["key"] for record in store.manifest_records())
            for store in (rep_store, run_store)
        ]
        assert keys[0] == keys[1] and len(keys[0]) == 3

    def test_needs_two_replications(self):
        with pytest.raises(ValueError):
            replicate("ufs", uniform_matrix(4, 0.5), 500, replications=1)

    @pytest.mark.parametrize("confidence", [1.5, 1.0, -0.2])
    def test_confidence_outside_open_unit_interval(self, confidence, monkeypatch):
        """1.5, 1.0 and -0.2 used to give a nan, inf and negative
        half-width; they are rejected before any seed runs."""
        from repro.sim import replication

        def no_seed_runs(*args, **kwargs):
            raise AssertionError("a seed ran")

        monkeypatch.setattr(replication, "execute", no_seed_runs)
        with pytest.raises(ValueError, match="confidence"):
            replicate(
                "ufs", uniform_matrix(4, 0.5), 200, confidence=confidence
            )


class TestBurstSensitivity:
    @pytest.fixture(scope="class")
    def rows(self):
        return burst_generate(
            n=8, load=0.5, bursts=(1.0, 128.0), num_slots=12_000,
            switches=("load-balanced", "sprinklers"), seed=1,
        )

    def test_grid_shape(self, rows):
        assert len(rows) == 4
        assert {row["switch"] for row in rows} == {"baseline-lb", "sprinklers"}

    def test_ordering_survives_bursts(self, rows):
        for row in rows:
            if row["switch"] == "sprinklers":
                assert row["late_packets"] == 0

    def test_aggregation_switches_pay_for_bursts(self, rows):
        # Burst trains inflate the stripe fill-time variance, so the
        # aggregating switch's delay grows with burst length...
        by_key = {(r["switch"], r["mean_burst"]): r["mean_delay"] for r in rows}
        assert (
            by_key[("sprinklers", 128.0)] > 1.05 * by_key[("sprinklers", 1.0)]
        )
        # ...while the non-aggregating baseline, whose input serves at
        # line rate >= the burst peak, barely notices.
        assert (
            by_key[("baseline-lb", 128.0)] < 2.0 * by_key[("baseline-lb", 1.0)]
        )
