"""Content-addressed experiment store.

Caches :class:`~repro.sim.metrics.SimulationResult` payloads keyed by the
full simulation configuration — scenario (or matrix digest), switch,
N, slots, seed, measurement knobs — so re-running an identical sweep,
replication, or figure performs zero simulation recomputation.
See :class:`~repro.store.store.ExperimentStore` for the key scheme and
the one-database layout (documented in EXPERIMENTS.md).  ``repro store
stats`` / ``repro store gc`` expose :meth:`~repro.store.store.
ExperimentStore.stats` and :meth:`~repro.store.store.ExperimentStore.gc`
from the shell.
"""

from .store import (
    ExperimentStore,
    GcReport,
    StoreStats,
    cache_key,
    canonical_params,
    coerce_store,
    store_dir,
)

__all__ = [
    "ExperimentStore",
    "GcReport",
    "StoreStats",
    "cache_key",
    "canonical_params",
    "coerce_store",
    "store_dir",
]
