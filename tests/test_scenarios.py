"""The scenario subsystem: registry, spec I/O, builders, engine parity.

The load-bearing guarantee is the parametrized parity test: *every*
registered scenario — stationary, bursty, load-scheduled, drifting —
produces bit-identical seeded metrics on the object and vectorized
engines, because both traffic generators consume the RNG in lock-step
(one uniform per (slot, input) for arrivals regardless of schedule, one
destination draw per arrival through a shared sampler).
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.scenarios import (
    SCENARIOS,
    ScenarioSpec,
    apply_overrides,
    build_batch_traffic,
    build_traffic,
    effective_matrix,
    get_scenario,
    list_scenarios,
    load_scenario_file,
    make_schedule,
    register_scenario,
    resolve_scenario,
    save_scenario_file,
)
from repro.scenarios.schedules import (
    ConstantSchedule,
    RampSchedule,
    SineSchedule,
    StepSchedule,
)
from repro.sim.experiment import run_single
from repro.traffic.arrivals import ModulatedBernoulliArrivals
from repro.traffic.generator import DriftingDestinations


def assert_results_identical(a, b):
    """Field-for-field equality, NaN-aware (keep_samples=False figures)."""
    da, db = a.to_dict(), b.to_dict()
    assert set(da) == set(db)
    for key in da:
        x, y = da[key], db[key]
        if isinstance(x, float) and isinstance(y, float):
            assert x == y or (math.isnan(x) and math.isnan(y)), key
        else:
            assert x == y, key


class TestRegistry:
    def test_at_least_eight_scenarios(self):
        assert len(list_scenarios()) >= 8

    def test_paper_patterns_present(self):
        names = list_scenarios()
        assert "paper-uniform" in names
        assert "quasi-diagonal" in names

    def test_every_scenario_documented(self):
        for name in list_scenarios():
            spec = get_scenario(name)
            # The description is the registry's documentation: it must
            # say something substantive about the stress applied.
            assert len(spec.description) > 60, name

    def test_get_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("not-a-scenario")

    def test_register_refuses_overwrite(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(SCENARIOS["paper-uniform"])

    def test_resolve_accepts_spec_dict_and_name(self):
        spec = get_scenario("hotspot-4x")
        assert resolve_scenario(spec) is spec
        assert resolve_scenario("hotspot-4x") is spec
        assert resolve_scenario(spec.to_dict()) == spec


class TestSpecSerialization:
    def test_dict_round_trip(self):
        for name in list_scenarios():
            spec = get_scenario(name)
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_file_round_trip(self, tmp_path):
        spec = get_scenario("mmpp-bursty")
        path = save_scenario_file(spec, tmp_path / "bursty.json")
        assert load_scenario_file(path) == spec
        assert resolve_scenario(str(path)) == spec

    def test_toml_file(self, tmp_path):
        path = tmp_path / "custom.toml"
        path.write_text(
            'name = "custom-sine"\n'
            'description = "a TOML-defined scenario"\n'
            "[matrix]\n"
            'family = "hotspot"\n'
            "weight = 2.0\n"
            "[schedule]\n"
            'kind = "sine"\n'
            "depth = 0.5\n"
            "period = 512\n"
        )
        spec = load_scenario_file(path)
        assert spec.name == "custom-sine"
        assert spec.matrix["weight"] == 2.0
        assert spec.schedule["kind"] == "sine"

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown scenario fields"):
            ScenarioSpec.from_dict({"name": "x", "burstiness": {}})

    def test_unknown_family_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown matrix family"):
            ScenarioSpec(name="bad", matrix={"family": "fractal"})

    def test_onoff_plus_schedule_rejected(self):
        # The burst process owns the rate dynamics; a schedule on top
        # would be silently ignored, so the spec refuses the combination.
        with pytest.raises(ValueError, match="load schedule"):
            ScenarioSpec(
                name="bad-combo",
                arrivals={"kind": "onoff"},
                schedule={"kind": "ramp", "start": 0.1, "end": 1.0},
            )

    def test_apply_overrides(self):
        spec = get_scenario("load-sine")
        out = apply_overrides(
            spec, ["schedule.depth=0.8", "name=load-sine-deep"]
        )
        assert out.schedule["depth"] == 0.8
        assert out.name == "load-sine-deep"
        # the original registry entry is untouched
        assert get_scenario("load-sine").schedule["depth"] == 0.6

    def test_apply_overrides_bad_assignment(self):
        with pytest.raises(ValueError, match="not key=value"):
            apply_overrides(get_scenario("load-sine"), ["depth"])


class TestSchedules:
    def test_constant(self):
        assert np.all(ConstantSchedule(0.5).multipliers(10, 4) == 0.5)

    def test_ramp_reaches_end_and_holds(self):
        sched = RampSchedule(0.2, 1.0, horizon=100)
        mult = sched.multipliers(0, 150)
        assert mult[0] == pytest.approx(0.2)
        assert mult[100] == pytest.approx(1.0)
        assert mult[149] == pytest.approx(1.0)
        assert np.all(np.diff(mult) >= 0)

    def test_sine_bounds(self):
        mult = SineSchedule(0.6, 128).multipliers(0, 1000)
        assert mult.min() >= 0.4 - 1e-12
        assert mult.max() <= 1.0 + 1e-12

    def test_steps(self):
        sched = StepSchedule([0.2, 1.0], horizon=10)
        mult = sched.multipliers(0, 12)
        assert np.all(mult[:5] == 0.2)
        assert np.all(mult[5:] == 1.0)

    def test_make_schedule_defaults_horizon(self):
        sched = make_schedule({"kind": "ramp", "start": 0.0, "end": 1.0}, 500)
        assert sched.horizon == 500

    def test_make_schedule_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown schedule kind"):
            make_schedule({"kind": "brownian"}, 100)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"in \[0, 1\]"):
            ConstantSchedule(1.5)

    def test_modulated_arrivals_rate_follows_schedule(self):
        rng = np.random.default_rng(0)
        arr = ModulatedBernoulliArrivals(
            np.full(4, 0.8), StepSchedule([0.25, 1.0], horizon=20_000), rng
        )
        slots, _ = arr.chunk(0, 20_000)
        first = int(np.sum(slots < 10_000))
        second = int(np.sum(slots >= 10_000))
        # rates 0.2 vs 0.8 per input: the busy half sees ~4x the arrivals
        assert second > 2.5 * first

    def test_modulated_arrivals_validates_schedule_range(self):
        class Bad:
            def multipliers(self, start, num):
                return np.full(num, 2.0)

        arr = ModulatedBernoulliArrivals(
            np.full(2, 0.5), Bad(), np.random.default_rng(0)
        )
        with pytest.raises(ValueError, match="multipliers"):
            arr.chunk(0, 8)


class TestDriftingDestinations:
    def test_drift_moves_the_mix(self):
        n = 4
        start = np.full((n, n), 0.25 * 0.8 / 1.0)
        end = np.zeros((n, n))
        np.fill_diagonal(end, 0.8)
        sampler = DriftingDestinations(start, end, horizon=10_000)
        rng = np.random.default_rng(1)
        early = sampler.draw(
            rng, np.zeros(2000, dtype=np.int64), np.zeros(2000, dtype=np.int64), n
        )
        late = sampler.draw(
            rng,
            np.full(2000, 9_999, dtype=np.int64),
            np.zeros(2000, dtype=np.int64),
            n,
        )
        # input 0: early ~ uniform over 4 outputs, late ~ all to output 0
        assert np.mean(early == 0) < 0.4
        assert np.mean(late == 0) > 0.95

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal shapes"):
            DriftingDestinations(np.zeros((2, 2)), np.zeros((3, 3)), 10)


class TestBuilderParity:
    """Object and batch generators emit the same seeded stream."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_stream_parity(self, name):
        spec = get_scenario(name)
        n, load, slots, seed = 8, 0.7, 1200, 3
        gen = build_traffic(spec, n, load, seed, slots)
        events = [
            (slot, p.input_port, p.output_port, p.seq)
            for slot, packets in gen.slots(slots)
            for p in packets
        ]
        batch = build_batch_traffic(spec, n, load, seed, slots).draw(slots)
        got = list(
            zip(
                batch.slots.tolist(),
                batch.inputs.tolist(),
                batch.outputs.tolist(),
                batch.seqs.tolist(),
            )
        )
        assert events == got

    def test_onoff_respects_skewed_row_rates(self):
        """Bursty arrivals on a skewed matrix keep per-input mean rates.

        A shared peak rate would drive every input at the heaviest row's
        rate and oversubscribe the light rows' outputs; per-input peaks
        keep each input's long-run rate at its row sum, preserving the
        effective matrix's admissibility.
        """
        spec = ScenarioSpec(
            name="skew-burst",
            matrix={"family": "lognormal", "sigma": 1.0, "seed": 7},
            arrivals={"kind": "onoff", "mean_on": 16.0},
        )
        n, load, slots = 8, 0.9, 60_000
        gen = build_batch_traffic(spec, n, load, 0, slots)
        batch = gen.draw(slots)
        target = effective_matrix(spec, n, load).sum(axis=1)
        counts = np.bincount(batch.inputs, minlength=n)
        measured = counts / slots
        # Rates differ across inputs (skew survives) and each tracks its
        # own row sum, not the hottest row's.
        assert target.max() / target.min() > 1.5
        assert np.allclose(measured, target, atol=0.05)

    def test_skewed_onoff_engine_parity(self):
        spec = ScenarioSpec(
            name="skew-burst",
            matrix={"family": "lognormal", "sigma": 1.0, "seed": 7},
            arrivals={"kind": "onoff"},
        )
        obj = run_single(
            "sprinklers", scenario=spec, n=8, load=0.7, num_slots=1500,
            seed=2, engine="object",
        )
        fast = run_single(
            "sprinklers", scenario=spec, n=8, load=0.7, num_slots=1500,
            seed=2, engine="vectorized",
        )
        assert_results_identical(obj, fast)

    def test_zipf_flows_labels_packets(self):
        gen = build_traffic(get_scenario("zipf-flows"), 4, 0.8, 0, 200)
        flow_ids = [
            p.flow_id for _, packets in gen.slots(200) for p in packets
        ]
        assert flow_ids and all(f is not None for f in flow_ids)
        assert len(set(flow_ids)) > 1


class TestEngineParity:
    """Acceptance bar: every scenario, both engines, identical metrics."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("switch", ["sprinklers", "load-balanced"])
    def test_scenario_engine_parity(self, name, switch):
        results = {}
        for engine in ("object", "vectorized"):
            results[engine] = run_single(
                switch,
                scenario=name,
                n=8,
                load=0.7,
                num_slots=1500,
                seed=4,
                engine=engine,
            )
        assert_results_identical(results["object"], results["vectorized"])

    def test_incast_concentrates_on_one_output(self):
        """The incast spec must actually be a fan-in: the hot output draws
        several times a uniform share of every input's traffic, under
        on/off burst arrivals (the parametrized parity tests above already
        pin object/vectorized equality for it)."""
        spec = get_scenario("incast")
        assert spec.arrivals["kind"] == "onoff"
        matrix = effective_matrix(spec, 8, 0.9)
        hot = matrix[:, 0]
        rest = matrix[:, 1:]
        assert np.all(hot > 4 * rest.max(axis=1))
        # Admissible despite the fan-in: the hot column's total load <= 1.
        assert hot.sum() <= 1.0 + 1e-12

    def test_incast_parity_on_frame_switches(self):
        """PF and FOFF — the switches incast stresses hardest — must agree
        across engines on the incast workload specifically."""
        for switch in ("pf", "foff"):
            results = {
                engine: run_single(
                    switch, scenario="incast", n=8, load=0.75,
                    num_slots=1500, seed=9, engine=engine,
                )
                for engine in ("object", "vectorized")
            }
            assert_results_identical(
                results["object"], results["vectorized"]
            )
            assert results["object"].measured_packets > 0

    def test_correlated_bursts_share_one_phase(self):
        """The correlated-bursts spec must actually synchronize inputs:
        one shared modulator chain, so per-slot arrival counts swing
        between system-wide silence and near-full fan-in — far burstier
        in aggregate than independent per-input chains."""
        from repro.scenarios.build import build_batch_traffic
        from repro.traffic.arrivals import OnOffArrivals

        spec = get_scenario("correlated-bursts")
        assert spec.arrivals["phases"] == 1
        n, slots = 8, 4000
        gen = build_batch_traffic(spec, n, 0.7, 3, slots)
        assert isinstance(gen.arrivals, OnOffArrivals)
        assert gen.arrivals.phases == 1
        batch = gen.draw(slots)
        per_slot = np.bincount(batch.slots, minlength=slots)
        independent = build_batch_traffic(
            get_scenario("mmpp-bursty"), n, 0.7, 3, slots
        ).draw(slots)
        per_slot_ind = np.bincount(independent.slots, minlength=slots)
        # Shared phase => whole-switch OFF spans (many empty slots) and
        # higher variance of the per-slot aggregate than independent
        # chains at a comparable mean rate.
        assert np.mean(per_slot == 0) > 2 * np.mean(per_slot_ind == 0)
        assert per_slot.var() > per_slot_ind.var()

    def test_correlated_bursts_parity_on_frame_switches(self):
        """Like incast: the frame-at-a-time switches must agree across
        engines on the correlated-burst workload specifically (the
        shared-phase modulator rides the same RNG lock-step)."""
        for switch in ("pf", "foff"):
            results = {
                engine: run_single(
                    switch, scenario="correlated-bursts", n=8, load=0.75,
                    num_slots=1500, seed=9, engine=engine,
                )
                for engine in ("object", "vectorized")
            }
            assert_results_identical(
                results["object"], results["vectorized"]
            )
            assert results["object"].measured_packets > 0

    def test_onoff_phases_clamped_to_n(self):
        """A multi-phase spec still runs at tiny N (phases clamp to n)."""
        from repro.scenarios.build import build_batch_traffic

        spec = ScenarioSpec(
            name="four-phase",
            arrivals={"kind": "onoff", "phases": 4},
        )
        gen = build_batch_traffic(spec, 2, 0.5, 0, 200)
        assert gen.arrivals.phases == 2

    def test_ordering_preserved_under_stress(self):
        # Sprinklers' core claim must survive every registered scenario,
        # the nastiest (mmpp-bursty, matrix-drift, adversarial-stride)
        # included.
        for name in list_scenarios():
            result = run_single(
                "sprinklers",
                scenario=name,
                n=8,
                load=0.85,
                num_slots=2500,
                seed=1,
                engine="vectorized",
            )
            assert result.is_ordered, name
            assert result.measured_packets > 0, name


class TestRunSingleScenarioApi:
    def test_requires_n_and_load(self):
        with pytest.raises(ValueError, match="require n and load"):
            run_single("ufs", scenario="paper-uniform", num_slots=100)

    def test_matrix_and_scenario_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            run_single(
                "ufs",
                np.full((2, 2), 0.2),
                100,
                scenario="paper-uniform",
                n=2,
                load=0.5,
            )

    def test_load_label_defaults_to_load(self):
        result = run_single(
            "ufs", scenario="paper-uniform", n=4, load=0.6, num_slots=300
        )
        assert result.load == 0.6

    def test_spec_file_runs(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps({"name": "file-spec", "matrix": {"family": "uniform"}})
        )
        result = run_single(
            "output-queued",
            scenario=str(path),
            n=4,
            load=0.5,
            num_slots=300,
            engine="vectorized",
        )
        assert result.measured_packets > 0


class TestSweepPatternResolution:
    def test_unknown_name_lists_patterns_and_scenarios(self):
        from repro.figures.delay_figures import generate

        with pytest.raises(ValueError, match="unknown pattern") as exc:
            generate("no-such-thing", n=4, loads=[0.5], num_slots=50)
        assert "uniform" in str(exc.value)
        assert "mmpp-bursty" in str(exc.value)

    def test_spec_file_errors_propagate(self, tmp_path):
        # A typo'd field inside an existing spec file must surface its
        # own actionable message, not a generic "unknown pattern".
        from repro.figures.delay_figures import generate

        path = tmp_path / "typo.json"
        path.write_text(json.dumps({"name": "x", "matrx": {}}))
        with pytest.raises(ValueError, match="unknown scenario fields"):
            generate(str(path), n=4, loads=[0.5], num_slots=50)

    def test_sweep_accepts_spec_object(self):
        from repro.figures.delay_figures import generate

        rows = generate(
            get_scenario("hotspot-4x"),
            n=4,
            loads=[0.5],
            num_slots=200,
            switches=["ufs"],
        )
        assert rows[0]["measured"] > 0
