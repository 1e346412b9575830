"""Traced bytes per packet of every vectorized switch's monolithic replay.

A packet's whole simulated life is five numbers (arrival slot, VOQ, seq,
intermediate port, departure slot), yet a replay holds several per-packet
columns at its peak — and that peak, per worker, is what caps how many
workers a paper-scale sweep fits in memory (EXPERIMENTS.md, "Memory per
packet").  Each switch's budget is its measured traced peak per injected
packet plus about 15 % headroom, at a size where per-packet arrays
dominate; a change that keeps a dead per-packet column alive across a
replay's peak fails here.  ``tracemalloc`` counts NumPy's buffers
exactly, so the check is deterministic and holds on shared CI runners.

The bracket is this module's own ``tracemalloc.start`` / ``stop``; a
memory-telemetry run inside it (``REPRO_TELEMETRY_MEM=1``) leaves its
peak alone.

Print the per-switch table (CI appends it to the run's summary page)::

    PYTHONPATH=src python tests/test_memory_budget.py --table
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from typing import Tuple

import pytest

from repro import models
from repro.sim.experiment import run_single
from repro.traffic.matrices import uniform_matrix

N, LOAD, SLOTS, SEED = 16, 0.9, 8000, 1

#: Traced peak bytes per injected packet allowed per switch.
BUDGET = {
    "foff": 121,
    "load-balanced": 103,
    "output-queued": 93,
    "pf": 132,
    "sprinklers": 120,
    "ufs": 118,
}


def traced_peak(switch: str) -> Tuple[int, int]:
    """``(traced peak bytes, injected packets)`` of one warm cell."""
    matrix = uniform_matrix(N, LOAD)
    # Warm-up outside the bracket: imports, registries, NumPy caches.
    run_single(switch, matrix, 200, seed=SEED, keep_samples=False)
    gc.collect()
    tracemalloc.start()
    try:
        result = run_single(
            switch, matrix, SLOTS, seed=SEED, load_label=LOAD,
            keep_samples=False,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result.injected


def test_every_vectorized_switch_has_a_budget():
    assert set(BUDGET) == set(models.available(engine="vectorized"))


@pytest.mark.parametrize("switch", sorted(BUDGET))
def test_bytes_per_packet_within_budget(switch):
    peak, packets = traced_peak(switch)
    per_packet = peak / packets
    assert per_packet <= BUDGET[switch], (
        f"{switch}: {per_packet:.1f} traced bytes per packet "
        f"({peak / 2**20:.1f} MiB for {packets} packets) exceeds the "
        f"budget of {BUDGET[switch]}"
    )


def table() -> str:
    """The per-switch measurement as a Markdown table."""
    lines = [
        f"Traced bytes per packet (N={N}, uniform {LOAD}, {SLOTS} slots, "
        f"seed {SEED})",
        "",
        "| switch | traced peak (MiB) | packets | bytes/packet | budget |",
        "|---|---:|---:|---:|---:|",
    ]
    for switch in sorted(BUDGET):
        peak, packets = traced_peak(switch)
        lines.append(
            f"| {switch} | {peak / 2**20:.1f} | {packets} | "
            f"{peak / packets:.0f} | {BUDGET[switch]} |"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    if sys.argv[1:] != ["--table"]:
        sys.exit(__doc__)
    print(table())
