"""Simulation harness: engine, metrics, experiments, seeded randomness."""

from .engine import SimulationEngine, simulate
from .experiment import (
    ENGINES,
    PAPER_SWITCHES,
    TRAFFIC_PATTERNS,
    run_single,
)
from .fast_engine import run_single_fast
from .metrics import SimulationResult
from .replication import ReplicatedResult, replicate
from .stats import BatchMeansResult, batch_means, mser_truncation
from .rng import derive_seed, spawn_generator

__all__ = [
    "BatchMeansResult",
    "ENGINES",
    "PAPER_SWITCHES",
    "ReplicatedResult",
    "SimulationEngine",
    "SimulationResult",
    "TRAFFIC_PATTERNS",
    "batch_means",
    "mser_truncation",
    "derive_seed",
    "replicate",
    "run_single",
    "run_single_fast",
    "simulate",
    "spawn_generator",
]
