"""The paper's primary contribution: striping, placement, LSF, the switch."""

from .dyadic import DyadicInterval, all_dyadic_intervals, dyadic_interval_for
from .interval_assignment import PlacementMode, StripeIntervalAssignment
from .latin import circulant_ols, is_latin_square, weakly_uniform_ols
from .lsf import LsfInputScheduler, LsfIntermediateScheduler
from .permutation import inverse_permutation, is_permutation, random_permutation
from .rate_estimation import EwmaRateEstimator, HysteresisSizer
from .sprinklers_switch import SprinklersSwitch, VoqPipeline
from .striping import (
    Stripe,
    StripeAssembler,
    load_per_share,
    per_port_budget,
    stripe_size_for_rate,
)

__all__ = [
    "DyadicInterval",
    "EwmaRateEstimator",
    "HysteresisSizer",
    "LsfInputScheduler",
    "LsfIntermediateScheduler",
    "PlacementMode",
    "SprinklersSwitch",
    "Stripe",
    "StripeAssembler",
    "StripeIntervalAssignment",
    "VoqPipeline",
    "all_dyadic_intervals",
    "circulant_ols",
    "dyadic_interval_for",
    "inverse_permutation",
    "is_latin_square",
    "is_permutation",
    "load_per_share",
    "per_port_budget",
    "random_permutation",
    "stripe_size_for_rate",
    "weakly_uniform_ols",
]
