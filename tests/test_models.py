"""The switch-model plugin API (repro.models).

One registry for builders, vectorized kernels, and capabilities: these
tests pin the registry's contents for the built-in switches, the
alias/canonical-name resolution the store cache keys rely on, parameter
schema validation, custom registration, and entry-point discovery.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import models
from repro.models import Capability, ParamSpec, SwitchModel
from repro.models import registry as registry_module
from repro.sim.experiment import run_single
from repro.traffic.matrices import uniform_matrix


@pytest.fixture()
def scratch_registry(monkeypatch):
    """A registry copy tests can mutate without leaking registrations."""
    monkeypatch.setattr(
        registry_module, "_MODELS", dict(registry_module._MODELS)
    )
    monkeypatch.setattr(
        registry_module, "_ALIASES", dict(registry_module._ALIASES)
    )
    return registry_module


class TestBuiltinRegistry:
    def test_paper_switches_all_registered(self):
        for name in models.PAPER_SWITCHES:
            assert name in models.available()

    def test_available_engine_filter(self):
        everything = models.available()
        vectorized = models.available(engine="vectorized")
        assert set(vectorized) <= set(everything)
        assert set(vectorized) == {
            "sprinklers", "ufs", "load-balanced", "output-queued",
            "pf", "foff",
        }
        assert models.available(engine="object") == everything

    def test_available_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            models.available(engine="quantum")

    def test_build_each_switch(self):
        matrix = uniform_matrix(8, 0.5)
        for name in models.available():
            switch = models.build(name, 8, matrix, seed=0)
            assert switch.n == 8

    def test_reported_names_match_object_switches(self):
        """The registry's reported_name is what results carry — it must
        agree with the instantiated switch's own name attribute."""
        matrix = uniform_matrix(4, 0.5)
        for name in models.available():
            model = models.get(name)
            switch = model.build(4, matrix, seed=0)
            assert switch.name == model.reported_name, name

    def test_unknown_switch_rejected(self):
        with pytest.raises(ValueError, match="unknown switch"):
            models.get("bogus")

    def test_aliases_resolve(self):
        assert models.get("baseline-lb") is models.get("load-balanced")
        assert models.canonical_name("baseline-lb") == "load-balanced"
        assert models.canonical_name("oq") == "output-queued"

    def test_feedback_coupled_switches_have_no_kernel(self):
        adaptive = models.get("sprinklers-adaptive")
        assert Capability.FEEDBACK_COUPLED in adaptive.capabilities
        assert adaptive.kernel is None

    def test_every_switch_but_the_baseline_preserves_order(self):
        """``repro validate`` keys its ordering verdict off this set."""
        declared = {
            name for name in models.available()
            if Capability.ORDER_PRESERVING in models.get(name).capabilities
        }
        assert declared == {
            "cms", "foff", "output-queued", "pf", "sprinklers",
            "sprinklers-adaptive", "tcp-hashing", "ufs",
        }
        assert "load-balanced" in models.available()

    def test_param_schema_validated(self):
        matrix = uniform_matrix(4, 0.5)
        pf = models.get("pf")
        switch = pf.build(4, matrix, seed=0, threshold=2)
        assert switch.threshold == 2
        with pytest.raises(ValueError, match="unknown parameters"):
            pf.build(4, matrix, seed=0, warp_factor=9)

    def test_switch_params_reach_both_engines(self):
        """Declared parameters flow through run_single: PF's threshold is
        honored by the kernel (parity holds), and a non-default threshold
        actually changes the physics."""
        matrix = uniform_matrix(8, 0.4)
        default = run_single("pf", matrix, 1500, seed=3, engine="object")
        tight = run_single(
            "pf", matrix, 1500, seed=3, engine="object",
            switch_params={"threshold": 1},
        )
        assert tight.extras["padding_overhead"] > default.extras[
            "padding_overhead"
        ]
        fast = run_single(
            "pf", matrix, 1500, seed=3, engine="vectorized",
            switch_params={"threshold": 1},
        )
        assert fast.mean_delay == tight.mean_delay
        assert fast.extras == tight.extras

    def test_unsupported_kernel_param_falls_back_to_object(self):
        """UFS's finite input_buffer drops packets — not modeled by the
        kernel — so the vectorized route must fall back to the object
        engine rather than silently mis-simulate."""
        from tests.test_scenarios import assert_results_identical

        matrix = uniform_matrix(4, 0.9)
        params = {"input_buffer": 8}
        obj = run_single(
            "ufs", matrix, 2000, seed=2, engine="object", switch_params=params
        )
        routed = run_single(
            "ufs", matrix, 2000, seed=2, engine="vectorized",
            switch_params=params,
        )
        assert obj.extras.get("dropped", 0) > 0  # the buffer really binds
        assert_results_identical(obj, routed)

    def test_run_single_fast_rejects_unsupported_param(self):
        from repro.sim.fast_engine import run_single_fast

        with pytest.raises(ValueError, match="not modeled"):
            run_single_fast(
                "ufs", uniform_matrix(4, 0.5), 100,
                switch_params={"input_buffer": 8},
            )

    def test_pf_threshold_range_checked_on_both_engines(self):
        """The kernel must enforce the same [1, N] contract as the object
        constructor — threshold 0 would otherwise pad empty VOQs forever."""
        matrix = uniform_matrix(4, 0.5)
        for bad in (0, 5):
            for engine in ("object", "vectorized"):
                with pytest.raises(ValueError, match=r"threshold must be"):
                    run_single(
                        "pf", matrix, 200, engine=engine,
                        switch_params={"threshold": bad},
                    )

    def test_run_single_rejects_undeclared_param(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            run_single(
                "pf", uniform_matrix(4, 0.5), 100,
                switch_params={"warp_factor": 9},
            )

    def test_switch_params_change_cache_key(self):
        from repro.sim.experiment import plan_run

        common = dict(
            switch_name="pf", matrix=uniform_matrix(4, 0.5), num_slots=500,
            seed=0, load_label=0.5, warmup_fraction=0.1, keep_samples=True,
            engine="object",
        )
        base = plan_run(**common).key
        tuned = plan_run(**common, switch_params={"threshold": 2}).key
        assert base != tuned
        # Explicit empty params hash like the historical no-params form.
        assert base == plan_run(**common, switch_params={}).key

    def test_kernel_params_must_be_declared(self):
        kernels = dict(
            kernel=lambda batch, matrix, seed: None,
            stream_kernel=lambda matrix, seed, total_slots: None,
        )
        with pytest.raises(ValueError, match="not in the declared"):
            SwitchModel(
                name="mismatched",
                builder=lambda n, matrix, seed: None,
                kernel_params=("ghost",),
                **kernels,
            )
        # A vectorized switch carries both kernel forms or neither.
        for field, value in kernels.items():
            with pytest.raises(ValueError, match="set together"):
                SwitchModel(
                    name="half",
                    builder=lambda n, matrix, seed: None,
                    **{field: value},
                )

    def test_run_single_accepts_alias(self):
        """Aliases canonicalize before execution (and before cache keys)."""
        matrix = uniform_matrix(4, 0.6)
        via_alias = run_single("baseline-lb", matrix, 400, seed=1)
        canonical = run_single("load-balanced", matrix, 400, seed=1)
        assert via_alias.mean_delay == canonical.mean_delay
        assert via_alias.switch_name == "baseline-lb"  # the reported name


class TestCustomRegistration:
    def test_register_and_run(self, scratch_registry):
        from repro.switching.output_queued import OutputQueuedSwitch

        class Renamed(OutputQueuedSwitch):
            name = "my-oq"

        scratch_registry.register(SwitchModel(
            name="my-oq",
            builder=lambda n, matrix, seed: Renamed(n),
            capabilities={Capability.SUPPORTS_DRIFT},
        ))
        assert "my-oq" in scratch_registry.available()
        result = run_single("my-oq", uniform_matrix(4, 0.5), 300)
        assert result.switch_name == "my-oq"
        assert result.measured_packets > 0

    def test_register_refuses_overwrite(self, scratch_registry):
        with pytest.raises(ValueError, match="already registered"):
            scratch_registry.register(scratch_registry.get("ufs"))

    def test_register_replace_allows_override(self, scratch_registry):
        model = scratch_registry.get("ufs")
        assert scratch_registry.register(model, replace=True) is model

    def test_alias_clash_refused(self, scratch_registry):
        with pytest.raises(ValueError, match="already registered"):
            scratch_registry.register(SwitchModel(
                name="fresh-name",
                builder=lambda n, matrix, seed: None,
                aliases=("ufs",),  # clashes with a canonical name
            ))

    def test_feedback_coupled_kernel_rejected(self):
        with pytest.raises(ValueError, match="feedback-coupled"):
            SwitchModel(
                name="impossible",
                builder=lambda n, matrix, seed: None,
                kernel=lambda batch, matrix, seed: None,
                capabilities={Capability.FEEDBACK_COUPLED},
            )

    def test_model_repr_mentions_engines(self):
        assert "object+vectorized" in repr(models.get("pf"))
        assert repr(models.get("cms")).count("object") == 1


class TestEntryPointDiscovery:
    class _Entry:
        def __init__(self, name, payload):
            self.name = name
            self._payload = payload

        def load(self):
            if isinstance(self._payload, Exception):
                raise self._payload
            return self._payload

    def test_discovers_models_from_entries(self, scratch_registry):
        model = SwitchModel(
            name="third-party",
            builder=lambda n, matrix, seed: None,
        )
        count = scratch_registry.discover_entry_points(
            entries=[self._Entry("third-party", model)]
        )
        assert count == 1
        assert scratch_registry.get("third-party") is model

    def test_factory_and_list_payloads(self, scratch_registry):
        mk = lambda name: SwitchModel(  # noqa: E731
            name=name, builder=lambda n, matrix, seed: None
        )
        count = scratch_registry.discover_entry_points(
            entries=[
                self._Entry("factory", lambda: mk("from-factory")),
                self._Entry("pair", [mk("plug-a"), mk("plug-b")]),
            ]
        )
        assert count == 3
        for name in ("from-factory", "plug-a", "plug-b"):
            assert name in scratch_registry.available()

    def test_broken_plugin_is_a_warning_not_a_crash(self, scratch_registry):
        before = scratch_registry.available()
        with pytest.warns(RuntimeWarning, match="failed to load"):
            count = scratch_registry.discover_entry_points(
                entries=[self._Entry("broken", RuntimeError("boom"))]
            )
        assert count == 0
        assert scratch_registry.available() == before

    def test_non_model_payload_is_a_warning(self, scratch_registry):
        with pytest.warns(RuntimeWarning, match="not SwitchModel"):
            scratch_registry.discover_entry_points(
                entries=[self._Entry("junk", object())]
            )


class TestParamSpec:
    def test_repr(self):
        spec = ParamSpec("threshold", int, None, "minimum VOQ length")
        assert "threshold" in repr(spec)
        assert "int" in repr(spec)


class TestKernelContract:
    def test_kernels_return_departures_and_extras(self):
        """The kernel protocol the fast engine relies on: every registered
        kernel consumes (batch, matrix, seed) and returns the departure
        record plus optional extras."""
        from repro.sim.kernels.base import Departures
        from repro.traffic.batch import bernoulli_batch

        matrix = np.asarray(uniform_matrix(4, 0.6))
        for name in models.available(engine="vectorized"):
            gen = bernoulli_batch(matrix, seed=1)
            batch = gen.draw(300)
            dep, extras = models.get(name).kernel(batch, matrix, 1)
            assert isinstance(dep, Departures), name
            assert extras is None or isinstance(extras, dict), name
            assert len(dep.departure) == len(dep.voq), name
            if len(dep):
                assert int((dep.departure - dep.arrival).min()) >= 0, name
