"""Integration tests: the paper's qualitative claims at reduced scale.

These are miniature versions of the §6 experiments with *shape* assertions:
who beats whom, where — the properties the full-scale benchmark harness
regenerates quantitatively.
"""

import numpy as np
import pytest

from repro.analysis.delay_model import expected_queue_length, simulate_chain
from repro.models import PAPER_SWITCHES
from repro.service import JobRequest, run_sweep
from repro.sim.experiment import run_single
from repro.traffic.matrices import diagonal_matrix, uniform_matrix


N = 16
SLOTS = 15_000


def paper_sweep(pattern, loads, seed):
    """The §6 grid of the paper's five switches, on the worker pool."""
    return run_sweep(JobRequest(
        workload=pattern, switches=PAPER_SWITCHES, loads=loads, n=N,
        num_slots=SLOTS, seeds=(seed,),
    ))


@pytest.fixture(scope="module")
def uniform_results():
    """One shared sweep for the shape assertions below (module-scoped)."""
    results = paper_sweep("uniform", (0.15, 0.5, 0.85), seed=11)
    return {(r.switch_name, r.load): r for r in results}


class TestFig6Shapes:
    def test_ordering_guarantees(self, uniform_results):
        for (name, load), result in uniform_results.items():
            if name == "baseline-lb":
                continue
            assert result.is_ordered, (name, load)

    def test_baseline_reorders_somewhere(self, uniform_results):
        assert any(
            not r.is_ordered
            for (name, _), r in uniform_results.items()
            if name == "baseline-lb"
        )

    def test_baseline_is_lower_envelope(self, uniform_results):
        for load in (0.15, 0.5, 0.85):
            base = uniform_results[("baseline-lb", load)].mean_delay
            for name in ("ufs", "foff", "pf", "sprinklers"):
                assert base < uniform_results[(name, load)].mean_delay

    def test_ufs_worst_at_light_load(self, uniform_results):
        # The UFS hockey stick: at 15% load its full-frame accumulation
        # dominates everyone.
        ufs = uniform_results[("ufs", 0.15)].mean_delay
        for name in ("baseline-lb", "foff", "pf", "sprinklers"):
            assert ufs > uniform_results[(name, 0.15)].mean_delay

    def test_sprinklers_beats_ufs_at_light_load(self, uniform_results):
        # Rate-proportional stripes are much smaller than N at light load.
        assert (
            uniform_results[("sprinklers", 0.15)].mean_delay
            < 0.5 * uniform_results[("ufs", 0.15)].mean_delay
        )

    def test_sprinklers_delay_is_stable_across_loads(self, uniform_results):
        # Paper: "the average delay of our switching algorithm is quite
        # stable under different traffic intensities."
        delays = [
            uniform_results[("sprinklers", load)].mean_delay
            for load in (0.15, 0.5, 0.85)
        ]
        assert max(delays) < 6 * min(delays)

    def test_ufs_delay_falls_with_load(self, uniform_results):
        assert (
            uniform_results[("ufs", 0.15)].mean_delay
            > uniform_results[("ufs", 0.85)].mean_delay
        )

    def test_sprinklers_comparable_to_pf_and_foff(self, uniform_results):
        # "our switch has similar delay performance with PF and FOFF".
        for load in (0.5, 0.85):
            spr = uniform_results[("sprinklers", load)].mean_delay
            for name in ("pf", "foff"):
                other = uniform_results[(name, load)].mean_delay
                assert 0.2 < spr / other < 5.0


class TestFig7Shapes:
    def test_diagonal_pattern_preserves_claims(self):
        results = paper_sweep("diagonal", (0.2, 0.8), seed=13)
        table = {(r.switch_name, r.load): r for r in results}
        for (name, load), result in table.items():
            if name != "baseline-lb":
                assert result.is_ordered, (name, load)
        assert (
            table[("sprinklers", 0.2)].mean_delay
            < table[("ufs", 0.2)].mean_delay
        )
        assert (
            table[("baseline-lb", 0.8)].mean_delay
            < table[("sprinklers", 0.8)].mean_delay
        )


class TestThroughput:
    @pytest.mark.parametrize("name", ["sprinklers", "ufs", "foff", "pf"])
    def test_high_load_throughput(self, name):
        # At 90% load every stable switch must deliver ~ all offered
        # traffic over a long run (full throughput claim).
        matrix = uniform_matrix(N, 0.9)
        result = run_single(name, matrix, 25_000, seed=2, load_label=0.9)
        assert result.departed > 0.93 * result.injected


class TestAnalysisVsSimulation:
    def test_markov_chain_simulation_matches_closed_form(self):
        n, rho = 16, 0.8
        mc = simulate_chain(n, rho, 300_000, np.random.default_rng(3))
        assert mc == pytest.approx(expected_queue_length(n, rho), rel=0.2)

    def test_placement_loads_predict_simulation_stability(self):
        # An assignment whose max queue load is below 1/N must yield a
        # simulation whose backlog does not grow linearly.
        from repro.core.sprinklers_switch import SprinklersSwitch

        matrix = diagonal_matrix(N, 0.9)
        switch = SprinklersSwitch.from_rates(matrix, seed=4)
        assert switch.assignment.max_queue_load() < 1.0 / N
        result = run_single("sprinklers", matrix, 20_000, seed=4, load_label=0.9)
        assert result.departed > 0.9 * result.injected
