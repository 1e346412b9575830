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

#: The frame switches again at a light load, where fixed per-cell state
#: (frame formation's dense per-cycle arrival table costs about 1/load
#: bytes per packet) weighs most against the packets.
LIGHT_LOAD = 0.1
LIGHT_BUDGET = {"foff": 153, "pf": 190}

CASES = [(switch, LOAD, BUDGET[switch]) for switch in sorted(BUDGET)] + [
    (switch, LIGHT_LOAD, LIGHT_BUDGET[switch]) for switch in sorted(LIGHT_BUDGET)
]
#: The full-load rows keep their bare switch names as test ids.
CASE_IDS = [
    switch if load == LOAD else f"{switch}-load{load}" for switch, load, _ in CASES
]


def traced_peak(switch: str, load: float = LOAD) -> Tuple[int, int]:
    """``(traced peak bytes, injected packets)`` of one warm cell."""
    matrix = uniform_matrix(N, load)
    # Warm-up outside the bracket: imports, registries, NumPy caches.
    run_single(switch, matrix, 200, seed=SEED, keep_samples=False)
    gc.collect()
    tracemalloc.start()
    try:
        result = run_single(
            switch, matrix, SLOTS, seed=SEED, load_label=load,
            keep_samples=False,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result.injected


def test_every_vectorized_switch_has_a_budget():
    assert set(BUDGET) == set(models.available(engine="vectorized"))


@pytest.mark.parametrize("switch, load, budget", CASES, ids=CASE_IDS)
def test_bytes_per_packet_within_budget(switch, load, budget):
    peak, packets = traced_peak(switch, load)
    per_packet = peak / packets
    assert per_packet <= budget, (
        f"{switch} at load {load}: {per_packet:.1f} traced bytes per "
        f"packet ({peak / 2**20:.1f} MiB for {packets} packets) exceeds "
        f"the budget of {budget}"
    )


def table() -> str:
    """The per-case measurement as a Markdown table."""
    lines = [
        f"Traced bytes per packet (N={N}, uniform, {SLOTS} slots, "
        f"seed {SEED})",
        "",
        "| switch | load | traced peak (MiB) | packets | bytes/packet | budget |",
        "|---|---:|---:|---:|---:|---:|",
    ]
    for switch, load, budget in CASES:
        peak, packets = traced_peak(switch, load)
        lines.append(
            f"| {switch} | {load} | {peak / 2**20:.1f} | {packets} | "
            f"{peak / packets:.0f} | {budget} |"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    if sys.argv[1:] != ["--table"]:
        sys.exit(__doc__)
    print(table())
