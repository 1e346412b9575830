"""Compiled per-VOQ running-max pass (scalar mirror of
:func:`repro.sim.metrics._fold_reordering`'s segmented fold).

Events arrive grouped by VOQ in observation order; the pass carries one
running maximum per segment, seeded from (and written back to) the
cross-window ``prev_max`` state, and records for every event the maximum
sequence number observed *before* it — the quantity the reordering
metrics (late packets, displacement) derive from.
"""

from __future__ import annotations

import numpy as np

from ._jit import njit

__all__ = ["fold_running_max"]


@njit(cache=True)
def fold_running_max(
    voq: np.ndarray,
    seq: np.ndarray,
    prev_max: np.ndarray,
    prev: np.ndarray,
) -> None:
    """Fill ``prev[i]`` with the running max before event ``i``; update
    ``prev_max`` per VOQ.  ``voq`` must be grouped (equal ids adjacent),
    events in observation order within each group."""
    cur = np.int64(-1)
    cur_voq = np.int64(-1)
    for i in range(len(voq)):
        v = voq[i]
        if v != cur_voq:
            if cur_voq >= 0:
                prev_max[cur_voq] = cur
            cur_voq = v
            cur = prev_max[v]
        prev[i] = cur
        if seq[i] > cur:
            cur = seq[i]
    if cur_voq >= 0:
        prev_max[cur_voq] = cur
