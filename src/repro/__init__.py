"""Sprinklers: reordering-free load-balanced switching (CoNeXT 2014).

A from-scratch Python reproduction of Ding, Xu, Dai, Song & Lin,
*"Sprinklers: A Randomized Variable-Size Striping Approach to
Reordering-Free Load-Balanced Switching"* — the switch itself, every
baseline it is compared against, the slotted-time simulator substrate, the
traffic generators, and the paper's analytical results (Theorem 1/2 bounds,
the §5 delay model).

Quickstart::

    import numpy as np
    from repro import SprinklersSwitch, TrafficGenerator, simulate
    from repro.traffic.matrices import uniform_matrix

    matrix = uniform_matrix(32, 0.8)                  # N=32, 80% load
    switch = SprinklersSwitch.from_rates(matrix, seed=1)
    traffic = TrafficGenerator(matrix, np.random.default_rng(2))
    result = simulate(switch, traffic, num_slots=20_000, load_label=0.8)
    assert result.is_ordered                          # never reorders
    print(result.mean_delay)

See ``EXPERIMENTS.md`` for the paper-vs-measured comparison of every table
and figure.
"""

from .core.dyadic import DyadicInterval, dyadic_interval_for
from .core.interval_assignment import PlacementMode, StripeIntervalAssignment
from .core.latin import weakly_uniform_ols
from .core.sprinklers_switch import SprinklersSwitch
from .core.striping import Stripe, StripeAssembler, stripe_size_for_rate
from .models import Capability, SwitchModel
from .models import register as register_switch_model
from .sim.engine import SimulationEngine, simulate
from .sim.experiment import run_single
from .sim.fast_engine import run_single_fast
from .sim.metrics import SimulationResult

# Imported after .sim on purpose: sim.experiment pulls in scenarios.build,
# which reaches back for sim.rng — loading sim first keeps that resolvable.
from .scenarios import ScenarioSpec, get_scenario, list_scenarios
from .store import ExperimentStore
from .switching.baseline import BaselineLoadBalancedSwitch
from .switching.foff import FoffSwitch
from .switching.hashing import TcpHashingSwitch
from .switching.output_queued import OutputQueuedSwitch
from .switching.packet import Packet
from .switching.pf import PaddedFramesSwitch
from .switching.ufs import UfsSwitch
from .traffic.generator import TrafficGenerator

__version__ = "1.0.0"

__all__ = [
    "BaselineLoadBalancedSwitch",
    "Capability",
    "DyadicInterval",
    "ExperimentStore",
    "FoffSwitch",
    "OutputQueuedSwitch",
    "Packet",
    "PaddedFramesSwitch",
    "PlacementMode",
    "ScenarioSpec",
    "SimulationEngine",
    "SimulationResult",
    "SprinklersSwitch",
    "Stripe",
    "StripeAssembler",
    "StripeIntervalAssignment",
    "SwitchModel",
    "TcpHashingSwitch",
    "TrafficGenerator",
    "UfsSwitch",
    "dyadic_interval_for",
    "get_scenario",
    "list_scenarios",
    "register_switch_model",
    "run_single",
    "run_single_fast",
    "simulate",
    "stripe_size_for_rate",
    "weakly_uniform_ols",
    "__version__",
]
