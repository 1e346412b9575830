"""Tests for the simulation driver (sim/engine.py)."""

import numpy as np
import pytest

from repro.sim.engine import SimulationEngine, simulate
from repro.switching.baseline import BaselineLoadBalancedSwitch
from repro.switching.ufs import UfsSwitch
from repro.traffic.generator import TrafficGenerator
from repro.traffic.matrices import uniform_matrix


def make_engine(n=8, load=0.6, seed=0, **kwargs):
    switch = BaselineLoadBalancedSwitch(n)
    traffic = TrafficGenerator(uniform_matrix(n, load), np.random.default_rng(seed))
    return SimulationEngine(switch, traffic, **kwargs)


class TestEngine:
    def test_runs_and_summarizes(self):
        result = make_engine().run(2000, load_label=0.6)
        assert result.load == 0.6
        assert result.measured_packets > 0
        assert result.mean_delay > 0

    def test_warmup_discards_early_arrivals(self):
        full = make_engine(seed=1, warmup_fraction=0.0).run(2000)
        cut = make_engine(seed=1, warmup_fraction=0.5).run(2000)
        assert cut.measured_packets < full.measured_packets

    def test_deterministic_given_seed(self):
        a = make_engine(seed=3).run(1500)
        b = make_engine(seed=3).run(1500)
        assert a.mean_delay == b.mean_delay
        assert a.measured_packets == b.measured_packets

    def test_size_mismatch_rejected(self):
        switch = BaselineLoadBalancedSwitch(4)
        traffic = TrafficGenerator(
            uniform_matrix(8, 0.5), np.random.default_rng(0)
        )
        with pytest.raises(ValueError):
            SimulationEngine(switch, traffic)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            make_engine(warmup_fraction=1.0)
        with pytest.raises(ValueError):
            make_engine().run(0)

    def test_extras_collected_for_capable_switches(self):
        n = 8
        switch = UfsSwitch(n)
        traffic = TrafficGenerator(
            uniform_matrix(n, 0.5), np.random.default_rng(0)
        )
        result = SimulationEngine(switch, traffic).run(1000)
        assert "max_resequencer" not in result.extras  # UFS has none

    def test_simulate_wrapper(self):
        switch = BaselineLoadBalancedSwitch(4)
        traffic = TrafficGenerator(
            uniform_matrix(4, 0.5), np.random.default_rng(5)
        )
        result = simulate(switch, traffic, 500, load_label=0.5)
        assert result.load == 0.5
