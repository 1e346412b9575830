"""Engine equivalence: the vectorized batch engine vs the object oracle.

The fast engine claims to reproduce the object engine's dynamics *exactly*
(not within tolerance) for the switches it models, because both consume
the same seeded arrival stream and the vectorized recursions replay the
same deterministic service disciplines.  These tests pin that claim
field-for-field — mean delay, percentiles, throughput counters, ordering
diagnostics and the delay decomposition — across switches, traffic
patterns and loads, and keep the object engine in its role as the
ordering-audit oracle.

Which switches are vectorized is a property of the switch-model registry
(`repro.models`): every model carrying a kernel must pass the parity
bar, so registering a new kernel automatically enrolls it here.  PF and
FOFF get a dedicated acceptance grid (N ∈ {2, 8, 32} across scenarios)
because their frame-at-a-time input side and (for FOFF) resequencer
replay are the newest and subtlest kernels.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import models
from repro.sim.experiment import ENGINES, run_single
from repro.sim.fast_engine import run_single_fast
from repro.traffic.matrices import diagonal_matrix, uniform_matrix

FAST_SWITCHES = list(models.available(engine="vectorized"))
PATTERNS = {"uniform": uniform_matrix, "diagonal": diagonal_matrix}


def _assert_results_identical(a, b):
    """Every reported quantity must match exactly (same seeds, same math)."""
    assert a.switch_name == b.switch_name
    assert a.n == b.n
    assert a.slots == b.slots
    assert a.warmup == b.warmup
    assert a.injected == b.injected
    assert a.departed == b.departed
    assert a.measured_packets == b.measured_packets
    assert a.late_packets == b.late_packets
    assert a.max_displacement == b.max_displacement
    for field in ("mean_delay", "p50_delay", "p99_delay"):
        x, y = getattr(a, field), getattr(b, field)
        assert x == y or (math.isnan(x) and math.isnan(y)), field
    assert a.max_delay == b.max_delay
    assert a.throughput == b.throughput or (
        math.isnan(a.throughput) and math.isnan(b.throughput)
    )
    assert a.extras == b.extras


class TestRegistryCoverage:
    def test_vectorized_coverage_includes_paper_switches(self):
        """The ISSUE-3 acceptance bar: every Fig. 6/7 switch plus the OQ
        reference runs on the vectorized engine."""
        assert set(FAST_SWITCHES) >= {
            "sprinklers", "ufs", "load-balanced", "output-queued",
            "pf", "foff",
        }

    def test_every_kernel_has_both_forms(self):
        for name in FAST_SWITCHES:
            model = models.get(name)
            assert model.kernel is not None, name
            assert model.stream_kernel is not None, name


class TestSeededParity:
    @pytest.mark.parametrize("switch", FAST_SWITCHES)
    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    @pytest.mark.parametrize("load", [0.25, 0.85])
    def test_engines_agree_exactly(self, switch, pattern, load):
        matrix = PATTERNS[pattern](16, load)
        obj = run_single(
            switch, matrix, 3000, seed=5, load_label=load, engine="object"
        )
        fast = run_single(
            switch, matrix, 3000, seed=5, load_label=load, engine="vectorized"
        )
        _assert_results_identical(obj, fast)

    @pytest.mark.parametrize("switch", FAST_SWITCHES)
    def test_ordering_guarantee_cross_checked(self, switch):
        """Zero reordering wherever the object oracle reports zero."""
        matrix = uniform_matrix(8, 0.9)
        obj = run_single(switch, matrix, 2500, seed=2, engine="object")
        fast = run_single(switch, matrix, 2500, seed=2, engine="vectorized")
        assert fast.late_packets == obj.late_packets
        if switch != "load-balanced":
            assert fast.is_ordered and obj.is_ordered
        else:
            # The baseline is *expected* to reorder under load; both
            # engines must agree on exactly how much.
            assert not fast.is_ordered and not obj.is_ordered
            assert fast.max_displacement == obj.max_displacement

    def test_delay_breakdown_parity(self):
        """Assembly/input-queue/transit sums survive vectorization."""
        matrix = diagonal_matrix(16, 0.3)  # mixed stripe sizes
        obj = run_single("sprinklers", matrix, 4000, seed=9, engine="object")
        fast = run_single(
            "sprinklers", matrix, 4000, seed=9, engine="vectorized"
        )
        for key in (
            "mean_assembly_delay",
            "mean_input_queue_delay",
            "mean_transit_delay",
        ):
            assert obj.extras[key] == fast.extras[key]

    def test_mixed_stripe_sizes_exercised(self):
        """The parity workload must actually mix LSF priority classes."""
        from repro.core.interval_assignment import (
            PlacementMode,
            StripeIntervalAssignment,
        )

        matrix = diagonal_matrix(16, 0.3)
        assignment = StripeIntervalAssignment(
            matrix, rng=np.random.default_rng(0), mode=PlacementMode.OLS
        )
        sizes = {
            assignment.stripe_size(i, j) for i in range(16) for j in range(16)
        }
        assert len(sizes) >= 2


class TestPfFoffAcceptance:
    """The ISSUE-3 acceptance grid: PF and FOFF bit-identical between
    engines across sizes and scenarios (per-packet delays, reordering
    counts, and the switches' own extras — padding overhead, peak
    resequencer occupancy)."""

    SCENARIOS = ("incast", "mmpp-bursty", "quasi-diagonal", "lognormal-skew")

    @pytest.mark.parametrize("switch", ["pf", "foff"])
    @pytest.mark.parametrize("n", [2, 8, 32])
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_scenario_grid(self, switch, n, scenario):
        results = {
            engine: run_single(
                switch,
                scenario=scenario,
                n=n,
                load=0.7,
                num_slots=1200,
                seed=4,
                engine=engine,
            )
            for engine in ENGINES
        }
        _assert_results_identical(results["object"], results["vectorized"])

    @pytest.mark.parametrize("switch", ["pf", "foff"])
    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_matrix_grid(self, switch, n):
        matrix = diagonal_matrix(n, 0.85)
        obj = run_single(switch, matrix, 1500, seed=11, engine="object")
        fast = run_single(switch, matrix, 1500, seed=11, engine="vectorized")
        _assert_results_identical(obj, fast)

    def test_pf_padding_overhead_reported(self):
        """PF's fake-cell cost must survive vectorization exactly."""
        matrix = uniform_matrix(8, 0.4)  # light load => lots of padding
        obj = run_single("pf", matrix, 2000, seed=3, engine="object")
        fast = run_single("pf", matrix, 2000, seed=3, engine="vectorized")
        assert obj.extras["padding_overhead"] > 0
        assert fast.extras["padding_overhead"] == obj.extras["padding_overhead"]

    def test_foff_resequencer_peak_reported(self):
        """FOFF's O(N^2) resequencer claim is checked against this number,
        so the replay must reproduce the oracle's peak occupancy."""
        matrix = diagonal_matrix(16, 0.85)
        obj = run_single("foff", matrix, 2500, seed=6, engine="object")
        fast = run_single("foff", matrix, 2500, seed=6, engine="vectorized")
        assert fast.extras["max_resequencer"] == obj.extras["max_resequencer"]
        assert obj.extras["max_resequencer"] > 0  # partial frames do reorder
        # ... and the resequencers fully restore order.
        assert obj.is_ordered and fast.is_ordered


class TestEngineRouting:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            run_single(
                "ufs", uniform_matrix(4, 0.5), 100, engine="warp-drive"
            )
        assert set(ENGINES) == {"object", "vectorized"}

    def test_unsupported_switch_falls_back_to_object(self):
        """Mixed sweeps keep working: CMS has no vectorized kernel, so
        the vectorized route must return the object engine's result."""
        assert models.get("cms").kernel is None
        matrix = uniform_matrix(4, 0.6)
        obj = run_single("cms", matrix, 800, seed=1, engine="object")
        routed = run_single("cms", matrix, 800, seed=1, engine="vectorized")
        _assert_results_identical(obj, routed)

    def test_run_single_fast_rejects_unsupported(self):
        with pytest.raises(ValueError, match="no vectorized data path"):
            run_single_fast("cms", uniform_matrix(4, 0.5), 100)

    def test_run_single_fast_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown switch"):
            run_single_fast("warp-fabric", uniform_matrix(4, 0.5), 100)

    def test_run_single_engine_parity(self):
        matrix = uniform_matrix(8, 0.7)
        obj, fast = (
            run_single(
                "sprinklers", matrix, 1200, seed=3, load_label=0.7,
                keep_samples=False, engine=engine,
            )
            for engine in ("object", "vectorized")
        )
        _assert_results_identical(obj, fast)

    def test_replicate_engine_parity(self):
        """Identical per-seed results make identical confidence intervals."""
        from repro.sim.replication import replicate

        matrix = uniform_matrix(8, 0.6)
        obj = replicate(
            "ufs", matrix, 1500, replications=3, engine="object"
        )
        fast = replicate(
            "ufs", matrix, 1500, replications=3, engine="vectorized"
        )
        assert obj.values == fast.values
        assert obj.interval == fast.interval


class TestFastEngineBehaviour:
    def test_keep_samples_supports_ci(self):
        result = run_single_fast(
            "output-queued", uniform_matrix(8, 0.8), 4000, seed=1
        )
        ci = result.delay_ci(batches=10)
        assert ci.mean == pytest.approx(result.mean_delay, rel=0.2)

    @pytest.mark.parametrize("switch", FAST_SWITCHES)
    def test_delay_ci_matches_oracle_exactly(self, switch):
        """MSER truncation and batch means are order-sensitive, so the
        retained samples must be stored in the object engine's
        observation order — departure slot, within-slot tie-break —
        for error bars to reproduce across engines."""
        matrix = uniform_matrix(8, 0.9)
        obj = run_single(switch, matrix, 2000, seed=3, engine="object")
        fast = run_single(switch, matrix, 2000, seed=3, engine="vectorized")
        a, b = obj.delay_ci(batches=8), fast.delay_ci(batches=8)
        assert a.mean == b.mean
        assert a.half_width == b.half_width

    def test_no_samples_when_disabled(self):
        result = run_single_fast(
            "ufs", uniform_matrix(8, 0.8), 2000, seed=1, keep_samples=False
        )
        # Fused metrics: no per-packet arrays retained, yet the exact
        # histogram still yields the same percentiles a retained run
        # reports.
        assert result._delay_samples == []
        retained = run_single_fast(
            "ufs", uniform_matrix(8, 0.8), 2000, seed=1, keep_samples=True
        )
        assert result.p50_delay == retained.p50_delay
        assert result.p99_delay == retained.p99_delay
        assert not math.isnan(result.p50_delay)
        with pytest.raises(ValueError):
            result.delay_ci()

    @pytest.mark.parametrize("switch", ["sprinklers", "pf", "foff"])
    def test_zero_load_run_is_empty_but_valid(self, switch):
        result = run_single_fast(switch, uniform_matrix(8, 0.0), 500, seed=0)
        assert result.injected == 0
        assert result.departed == 0
        assert math.isnan(result.mean_delay)

    def test_warmup_fraction_validated(self):
        with pytest.raises(ValueError):
            run_single_fast(
                "ufs", uniform_matrix(4, 0.5), 100, warmup_fraction=1.5
            )
        with pytest.raises(ValueError):
            run_single_fast("ufs", uniform_matrix(4, 0.5), 0)
