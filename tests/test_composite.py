"""Composite multi-stage fabrics: spec validation, chained replay,
streaming equivalence, per-stage metrics, and run-path dispatch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import models
from repro.models import (
    CompositeSwitchModel,
    FabricSpec,
    available_fabrics,
    get_fabric,
    lookup_fabric,
    register_fabric,
    resolve_fabric,
)
from repro.models.composite import (
    interleave_stride,
    port_map,
    stage_matrices,
)
from repro.scenarios import resolve_scenario
from repro.sim import composite as composite_module
from repro.sim.composite import _LinkCoupler, run_fabric
from repro.sim.experiment import plan_run, run_single
from repro.sim.fast_engine import run_single_fast
from repro.sim.kernels.base import Departures
from repro.sim.replication import replicate
from repro.traffic.batch import BatchTrafficGenerator
from repro.traffic.matrices import uniform_matrix
from repro.sim.rng import derive_seed


def _single_stage_spec(switch="sprinklers"):
    return FabricSpec(
        name="solo-test", stages=({"switch": switch},)
    )


LEAF_SPINE = get_fabric("leaf-spine")


class TestPortMaps:
    def test_interleave_stride_is_coprime(self):
        for n in range(3, 40):
            s = interleave_stride(n)
            assert s >= 2 and np.gcd(s, n) == 1
        assert interleave_stride(1) == 1
        assert interleave_stride(2) == 1

    def test_every_kind_is_a_permutation(self):
        n = 12
        links = [
            {"kind": "identity"},
            {"kind": "interleave"},
            {"kind": "reverse"},
            {"kind": "rotate", "shift": 5},
            {"kind": "permutation", "ports": list(np.random.default_rng(0).permutation(n))},
        ]
        for link in links:
            mapped = port_map(link, n)
            assert sorted(mapped) == list(range(n))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown port-map kind"):
            port_map({"kind": "butterfly"}, 8)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown port-map fields"):
            port_map({"kind": "identity", "strde": 3}, 8)

    def test_permutation_requires_full_ports(self):
        with pytest.raises(ValueError, match="permutation of 0..7"):
            port_map({"kind": "permutation", "ports": [0, 1, 2]}, 8)
        with pytest.raises(ValueError, match="requires a 'ports' list"):
            port_map({"kind": "permutation"}, 8)

    def test_size_mismatch_raises_cleanly(self):
        # A fabric sized for n=4 fed an n=8 permutation map: the chain
        # refuses at construction rather than scattering out of bounds.
        spec = FabricSpec(
            name="mismatch-test",
            stages=({"switch": "sprinklers"}, {"switch": "output-queued"}),
            links=({"kind": "permutation", "ports": [1, 0, 3, 2, 5, 4, 7, 6]},),
        )
        with pytest.raises(ValueError, match="permutation of 0..3"):
            run_fabric(spec, uniform_matrix(4, 0.5), 200)


class TestFabricSpec:
    def test_unknown_switch_rejected(self):
        with pytest.raises(ValueError, match="unknown switch"):
            FabricSpec(name="bad", stages=({"switch": "no-such-switch"},))

    def test_empty_stages_rejected(self):
        with pytest.raises(ValueError, match="at least one stage"):
            FabricSpec(name="bad", stages=())

    def test_link_count_must_match(self):
        with pytest.raises(ValueError, match="need 1 links"):
            FabricSpec(
                name="bad",
                stages=({"switch": "sprinklers"}, {"switch": "sprinklers"}),
                links=(),
            )

    def test_unknown_stage_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown fields"):
            FabricSpec(
                name="bad", stages=({"switch": "sprinklers", "kernel": 1},)
            )

    def test_links_default_to_identity(self):
        spec = FabricSpec(
            name="default-links",
            stages=({"switch": "sprinklers"}, {"switch": "output-queued"}),
        )
        assert spec.links == ({"kind": "identity"},)

    def test_round_trips_through_dict(self):
        spec = LEAF_SPINE
        again = FabricSpec.from_dict(spec.to_dict())
        assert again == spec
        assert hash(again) == hash(spec)

    def test_from_dict_rejects_unknown_fields(self):
        data = LEAF_SPINE.to_dict()
        data["topology"] = "clos"
        with pytest.raises(ValueError, match="unknown fabric spec fields"):
            FabricSpec.from_dict(data)

    def test_resolve_fabric_forms(self):
        assert resolve_fabric("leaf-spine") is LEAF_SPINE
        assert resolve_fabric(LEAF_SPINE) is LEAF_SPINE
        assert resolve_fabric(LEAF_SPINE.to_dict()) == LEAF_SPINE
        with pytest.raises(TypeError):
            resolve_fabric(42)

    def test_registry_collisions_refused(self):
        with pytest.raises(ValueError, match="collides with a registered switch"):
            register_fabric(
                FabricSpec(name="sprinklers", stages=({"switch": "pf"},))
            )
        with pytest.raises(ValueError, match="already registered"):
            register_fabric(
                FabricSpec(name="leaf-spine", stages=({"switch": "pf"},))
            )

    def test_builtins_registered(self):
        assert set(available_fabrics()) >= {"leaf-spine", "dual-sprinklers"}
        assert lookup_fabric("leaf-spine") is LEAF_SPINE
        assert lookup_fabric("sprinklers") is None
        assert lookup_fabric(None) is None


class TestCompositeModel:
    def test_capabilities_intersect(self):
        composite = CompositeSwitchModel(LEAF_SPINE)
        for model in composite.models:
            assert composite.capabilities <= model.capabilities
        assert composite.supports_engine("vectorized")

    def test_vectorized_requires_composable_stages(self):
        spec = FabricSpec(
            name="cms-tail-test",
            stages=({"switch": "sprinklers"}, {"switch": "cms"}),
        )
        composite = CompositeSwitchModel(spec)
        assert composite.supports_engine("object")
        assert not composite.supports_engine("vectorized")
        with pytest.raises(ValueError, match="not composable"):
            composite.require_engine("vectorized")
        with pytest.raises(ValueError, match="not composable"):
            run_fabric(spec, uniform_matrix(4, 0.4), 100, engine="vectorized")

    def test_object_only_stage_falls_back_like_a_switch(self):
        """A fabric the kernels cannot chain plans the object engine, as
        a kernel-less switch does, instead of raising at run time."""
        spec = FabricSpec(
            name="cms-head-test",
            stages=({"switch": "cms"}, {"switch": "output-queued"}),
        )
        kwargs = dict(
            scenario="paper-uniform", n=4, load=0.6, num_slots=400, seed=1
        )
        assert plan_run(spec, **kwargs).engine == "object"
        assert plan_run(spec, engine="vectorized", **kwargs).engine == "object"
        default = run_single(spec, **kwargs)
        oracle = run_single(spec, engine="object", **kwargs)
        assert default.to_dict() == oracle.to_dict()

    def test_stage_matrices_preserve_columns(self):
        matrix = uniform_matrix(8, 0.7)
        mats = stage_matrices(matrix, LEAF_SPINE)
        assert len(mats) == 2
        # Destination-preserving routing keeps every column's aggregate.
        np.testing.assert_allclose(mats[1].sum(axis=0), matrix.sum(axis=0))
        # Each downstream input carries exactly one upstream output.
        assert (np.count_nonzero(mats[1], axis=1) <= 1).all()
        # Admissible whenever the source matrix is.
        assert mats[1].sum(axis=1).max() <= matrix.sum(axis=1).max() + 1e-12


class TestChainedReplay:
    def test_single_stage_identity_matches_run_single_fast(self):
        # Stage 0 keeps the run seed, so a one-stage fabric IS the
        # plain vectorized run, bit for bit.
        matrix = uniform_matrix(8, 0.8)
        plain = run_single_fast("sprinklers", matrix, 3000, seed=5)
        fabric = run_fabric(_single_stage_spec(), matrix, 3000, seed=5)
        np.testing.assert_array_equal(
            plain._delay_samples, fabric._delay_samples
        )
        assert plain.mean_delay == fabric.mean_delay
        assert plain.late_packets == fabric.late_packets

    @pytest.mark.parametrize("scenario", [
        "paper-uniform", "ring-allreduce", "incast-fanin",
    ])
    @pytest.mark.parametrize("fabric", ["leaf-spine", "dual-sprinklers"])
    def test_streamed_matches_monolithic(self, scenario, fabric):
        kwargs = dict(
            scenario=scenario, n=8, load=0.7, num_slots=1500, seed=3,
            engine="vectorized",
        )
        mono = run_single(fabric, **kwargs)
        streamed = run_single(fabric, window_slots=128, **kwargs)
        ragged = run_single(fabric, window_slots=333, **kwargs)
        assert mono.to_dict() == streamed.to_dict() == ragged.to_dict()

    @pytest.mark.parametrize("scenario", ["paper-uniform", "ring-allreduce"])
    def test_object_engine_parity(self, scenario):
        kwargs = dict(
            scenario=scenario, n=8, load=0.6, num_slots=1200, seed=2,
        )
        vec = run_single("leaf-spine", engine="vectorized", **kwargs)
        obj = run_single("leaf-spine", engine="object", **kwargs)
        assert vec.to_dict() == obj.to_dict()

    def test_stage_means_sum_to_e2e(self):
        result = run_single(
            "leaf-spine", uniform_matrix(8, 0.8), 2500, seed=1,
            engine="vectorized",
        )
        total = sum(
            result.extras[f"stage{k}_mean_delay"]
            for k in range(int(result.extras["stages"]))
        )
        assert total == pytest.approx(result.mean_delay, abs=1e-9)
        assert result.extras["stage0_measured"] == result.measured_packets

    def test_zero_arrival_windows_propagate(self):
        # A silent fabric: every window is empty end to end, and the
        # chain neither crashes nor invents packets.
        matrix = np.zeros((4, 4))
        result = run_fabric(
            LEAF_SPINE, matrix, 600, seed=0, window_slots=100
        )
        assert result.injected == 0
        assert result.departed == 0
        assert np.isnan(result.mean_delay)
        assert result.extras["stage0_observed"] == 0.0

    def test_drain_matches_single_switch_cut(self):
        # A single-stage fabric finalizes exactly the packets the plain
        # run does: same drain cut, same departed count.
        matrix = uniform_matrix(8, 0.9)
        plain = run_single_fast("foff", matrix, 1500, seed=4)
        fabric = run_fabric(
            _single_stage_spec("foff"), matrix, 1500, seed=4
        )
        assert fabric.departed == plain.departed
        assert fabric.injected == plain.injected
        np.testing.assert_array_equal(
            plain._delay_samples, fabric._delay_samples
        )

    def test_ordered_through_the_chain(self):
        # Both shipped fabrics keep end-to-end order under uniform load.
        for name in ("leaf-spine", "dual-sprinklers"):
            result = run_single(
                name, uniform_matrix(8, 0.8), 2000, seed=7,
                engine="vectorized",
            )
            assert result.late_packets == 0
            assert result.extras["stage1_late_packets"] == 0.0

    def test_mismatched_traffic_size_raises(self):
        traffic = BatchTrafficGenerator(
            uniform_matrix(4, 0.5),
            np.random.default_rng(derive_seed(0, "traffic")),
        )
        with pytest.raises(ValueError, match="does not match matrix"):
            run_fabric(
                LEAF_SPINE, uniform_matrix(8, 0.5), 500,
                batch_traffic=traffic,
            )


def _chain_spec(*switches):
    return FabricSpec(
        name="chain-" + "-".join(switches),
        stages=tuple({"switch": switch} for switch in switches),
        links=tuple({"kind": "interleave"} for _ in switches[1:]),
    )


class TestChainsBeyondTheBuiltins:
    """The shipped fabrics chain sprinklers/output-queued only.  These
    put the other kernels upstream (FOFF's rank tie-break on the link,
    the load-balanced switch's reordering) and downstream (identities
    joined out of VOQ order, a ranked last stage under the end-to-end
    fold)."""

    @pytest.mark.parametrize("switches", [
        ("foff", "sprinklers"),
        ("pf", "output-queued"),
        ("load-balanced", "sprinklers"),
        ("sprinklers", "load-balanced"),
        ("foff", "foff"),
        ("load-balanced", "pf", "load-balanced"),
    ])
    def test_streamed_monolithic_object_agree(self, switches):
        kwargs = dict(
            matrix=uniform_matrix(8, 0.75), num_slots=1300, seed=6,
        )
        spec = _chain_spec(*switches)
        mono = run_fabric(spec, **kwargs)
        streamed = run_fabric(spec, window_slots=96, **kwargs)
        ragged = run_fabric(spec, window_slots=411, **kwargs)
        obj = run_fabric(spec, engine="object", **kwargs)
        assert (
            mono.to_dict() == streamed.to_dict() == ragged.to_dict()
            == obj.to_dict()
        )
        assert 0 < mono.departed <= mono.injected
        if switches[0] == "load-balanced":
            assert mono.late_packets > 0  # the chain really reorders


@st.composite
def _link_blocks(draw):
    """A stage's departure block: at most one packet per (slot, output)
    with a port tie-break, or — ``ranked`` — several per output and
    slot, ordered by a global observation rank (FOFF's multi-release)."""
    n = draw(st.integers(2, 6))
    ranked = draw(st.booleans())
    count = draw(st.integers(0, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mapped = rng.permutation(n)
    slots = rng.integers(40, 48, count)
    outputs = rng.integers(0, n, count)
    if ranked:
        observed = np.lexsort((rng.random(count), slots))
        wire = np.empty(count, dtype=np.int64)
        wire[observed] = 1000 + np.arange(count)
    else:
        _, keep = np.unique(slots * n + outputs, return_index=True)
        slots, outputs = slots[keep], outputs[keep]
        wire = rng.permutation(n)[outputs]
    voq = rng.integers(0, n, len(slots)) * n + outputs
    shuffle = rng.permutation(len(slots))
    dep = Departures(
        voq=voq[shuffle], seq=np.arange(len(slots)),
        arrival=np.zeros(len(slots), dtype=np.int64),
        departure=slots[shuffle], wire=wire[shuffle], wire_is_rank=ranked,
    )
    return n, mapped, dep


class TestLinkCoupler:
    @settings(max_examples=200, deadline=None)
    @given(_link_blocks())
    def test_link_order_is_the_three_key_sort(self, block):
        n, mapped, dep = block
        inputs = mapped[dep.voq % n]
        reference = np.lexsort((dep.wire, inputs, dep.departure))
        np.testing.assert_array_equal(
            _LinkCoupler(n, mapped).link_order(dep), reference
        )

    @staticmethod
    def _fed(n=3):
        """A coupler holding five packets of downstream VOQ 4 (output 1)
        and one of VOQ 8 (output 2), with their original identities."""
        coupler = _LinkCoupler(n, np.arange(n))
        voq = np.array([1, 1, 1, 5, 1, 1])
        up = Departures(
            voq=voq, seq=np.arange(6), arrival=np.arange(6) * 10,
            departure=np.arange(6) + 100, wire=voq % n,
        )
        orig = (voq + 100, np.arange(6) + 200, np.arange(6) + 300)
        window = coupler.couple(up, orig, 100, 106)
        assert window.voqs.tolist() == [4, 4, 4, 8, 4, 4]
        assert window.seqs.tolist() == [0, 1, 2, 0, 3, 4]
        return coupler

    @staticmethod
    def _leaving(voq, seq):
        size = len(voq)
        zeros = np.zeros(size, dtype=np.int64)
        return Departures(
            voq=np.array(voq), seq=np.array(seq), arrival=zeros,
            departure=zeros, wire=np.arange(size),
        )

    def test_join_out_of_voq_order(self):
        coupler = self._fed()
        # Seqs 3 and 1 of VOQ 4 leave first: the table keeps them as
        # tombstones behind the still-pending seq 0.
        orig = coupler.join(self._leaving([4, 4], [3, 1]))
        assert [a.tolist() for a in orig] == [
            [101, 101], [204, 201], [304, 301],
        ]
        assert coupler.pending == 4
        orig = coupler.join(self._leaving([8, 4, 4], [0, 0, 2]))
        assert orig[0].tolist() == [105, 101, 101]
        assert orig[1].tolist() == [203, 200, 202]
        assert coupler.pending == 1
        # New packets number on from where each VOQ stopped.
        up = Departures(
            voq=np.array([1, 5]), seq=np.arange(2), arrival=np.arange(2),
            departure=np.array([200, 201]), wire=np.array([1, 2]),
        )
        window = coupler.couple(up, (up.voq, up.seq, up.arrival), 106, 202)
        assert window.seqs.tolist() == [5, 1]
        orig = coupler.join(self._leaving([4, 4, 8], [5, 4, 1]))
        assert orig[1].tolist() == [0, 205, 1]
        assert coupler.pending == 0

    @pytest.mark.parametrize("voq,seq", [
        ([4, 4], [2, 2]),   # the same packet twice in one block
        ([4], [5]),         # a sequence number the link never assigned
        ([0], [0]),         # a VOQ nothing was sent to
        ([4], [-1]),
    ])
    def test_join_rejects_what_was_never_fed(self, voq, seq):
        coupler = self._fed()
        with pytest.raises(RuntimeError, match="never fed"):
            coupler.join(self._leaving(voq, seq))

    def test_join_rejects_a_second_departure(self):
        coupler = self._fed()
        coupler.join(self._leaving([4], [1]))
        with pytest.raises(RuntimeError, match="never fed"):
            coupler.join(self._leaving([4], [1]))

    def test_doctored_stage_output_is_refused(self, monkeypatch):
        # A downstream stage that emits one packet twice must not be
        # folded into the metrics.
        feed = composite_module.KernelStage.finish

        def doubled(self, window=None):
            dep, extras = feed(self, window)
            if self.label.startswith("stage1") and len(dep.voq):
                again = np.r_[np.arange(len(dep.voq)), 0]
                dep = Departures(
                    voq=dep.voq[again], seq=dep.seq[again],
                    arrival=dep.arrival[again],
                    departure=dep.departure[again],
                    wire=np.r_[dep.wire, dep.wire.max() + 1],
                )
            return dep, extras

        monkeypatch.setattr(composite_module.KernelStage, "finish", doubled)
        with pytest.raises(RuntimeError, match="never fed"):
            run_fabric(LEAF_SPINE, uniform_matrix(4, 0.6), 300, seed=1)


class TestArgumentChecks:
    def test_window_slots_checked_before_stages_are_built(self, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("stages built before arguments checked")

        monkeypatch.setattr(composite_module, "build_stages", no_build)
        for bad in (0, -5):
            with pytest.raises(ValueError, match="window_slots"):
                run_fabric(
                    LEAF_SPINE, uniform_matrix(4, 0.5), 200, window_slots=bad
                )


class TestRunPathDispatch:
    def test_run_single_rejects_switch_params(self):
        with pytest.raises(ValueError, match="belong in the FabricSpec"):
            run_single(
                "leaf-spine", uniform_matrix(4, 0.5), 300,
                switch_params={"speedup": 2},
            )

    def test_store_round_trip(self, tmp_path):
        kwargs = dict(
            scenario="paper-uniform", n=8, load=0.6, num_slots=800,
            seed=0, engine="vectorized", store=str(tmp_path),
        )
        first = run_single("leaf-spine", window_slots=100, **kwargs)
        # The cache key omits window_slots (identical results), so the
        # monolithic re-run must hit the windowed run's entry.
        second = run_single("leaf-spine", **kwargs)
        assert first.to_dict() == second.to_dict()
        assert second.extras["stage1_mean_delay"] == (
            first.extras["stage1_mean_delay"]
        )

    def test_fabric_and_switch_keys_disjoint(self, tmp_path):
        # A one-stage fabric produces the same numbers as the plain
        # switch but must NOT share its cache entry (kind differs).
        spec = _single_stage_spec()
        matrix = uniform_matrix(8, 0.7)
        a = run_single(
            "sprinklers", matrix, 600, engine="vectorized",
            store=str(tmp_path),
        )
        b = run_single(
            spec, matrix, 600, engine="vectorized", store=str(tmp_path),
        )
        assert a.mean_delay == b.mean_delay
        assert a.switch_name == "sprinklers"
        assert b.switch_name == "solo-test"

    def test_replicate_dispatches_fabrics(self):
        rep = replicate(
            "leaf-spine",
            scenario="paper-uniform",
            n=8,
            load=0.6,
            num_slots=600,
            replications=3,
            engine="vectorized",
        )
        assert len(rep.values) == 3
        assert all(np.isfinite(v) for v in rep.values)

    def test_sweep_dispatches_fabrics(self):
        from repro.figures.delay_figures import generate

        rows = generate(
            "uniform", n=8, loads=(0.5,), num_slots=500,
            switches=("sprinklers", "leaf-spine"),
        )
        names = {row["switch"] for row in rows}
        assert names == {"sprinklers", "leaf-spine"}
