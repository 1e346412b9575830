"""Workload generation: arrival processes, traffic matrices, packet sources."""

from .arrivals import BernoulliArrivals, ModulatedBernoulliArrivals, OnOffArrivals
from .batch import ArrivalBatch, BatchTrafficGenerator, bernoulli_batch
from .generator import (
    DriftingDestinations,
    FlowModel,
    MatrixDestinations,
    TrafficGenerator,
    bernoulli_traffic,
)
from .trace_io import read_trace, record_trace, replay_generator, write_trace
from .matrices import (
    diagonal_matrix,
    hotspot_matrix,
    is_admissible,
    lognormal_matrix,
    permutation_matrix,
    quasi_diagonal_matrix,
    scale_to_load,
    uniform_matrix,
)

__all__ = [
    "ArrivalBatch",
    "BatchTrafficGenerator",
    "BernoulliArrivals",
    "DriftingDestinations",
    "FlowModel",
    "MatrixDestinations",
    "ModulatedBernoulliArrivals",
    "OnOffArrivals",
    "TrafficGenerator",
    "bernoulli_batch",
    "bernoulli_traffic",
    "read_trace",
    "record_trace",
    "replay_generator",
    "write_trace",
    "diagonal_matrix",
    "hotspot_matrix",
    "is_admissible",
    "lognormal_matrix",
    "permutation_matrix",
    "quasi_diagonal_matrix",
    "scale_to_load",
    "uniform_matrix",
]
