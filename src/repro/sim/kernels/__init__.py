"""Per-switch vectorized kernels for the batch simulation engine.

Each module in this package implements one switch's deterministic data
path as array recursions over an :class:`~repro.traffic.batch.
ArrivalBatch` — the *kernel* of the vectorized engine.  A kernel is a
callable

    kernel(batch, matrix, seed) -> (Departures, extras | None)

that replays the switch's dynamics exactly (same seeds, same per-packet
departure slots as the object engine in :mod:`repro.switching`); beside
it each module carries ``Stream``, the same data path as a resumable
:class:`~repro.sim.kernels.base.StreamKernel` (windowed and multi-seed
replay).  Both are
attached to a :class:`~repro.models.SwitchModel` in the switch registry;
:func:`repro.sim.fast_engine.run_single_fast` dispatches through that
registry, so adding a vectorized switch means writing one module here and
registering it — no engine changes.

Shared replay primitives (running-maximum FIFO service, periodic polling,
largest-level-first peeling, stripe/frame completion) live in
:mod:`repro.sim.kernels.base`; the frame-at-a-time input discipline
shared by PF and FOFF lives in :mod:`repro.sim.kernels.frames`.
"""

from .base import (
    Departures,
    composite_argsort,
    mid_residues,
    periodic_fifo_service,
    replay_polled_queues,
    row_residues,
    segmented_fifo_service,
    segmented_running_max,
    unit_completion,
)

__all__ = [
    "Departures",
    "composite_argsort",
    "mid_residues",
    "periodic_fifo_service",
    "replay_polled_queues",
    "row_residues",
    "segmented_fifo_service",
    "segmented_running_max",
    "unit_completion",
]
