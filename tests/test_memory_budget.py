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

The windowed replay (``window_slots``) must hold O(window) memory, not
O(run): its peak sits far below the monolithic replay's and stays flat
as the run grows 4x, for one switch and for a two-stage fabric.  With
``keep_samples=False`` it folds delays into an exact histogram, so its
percentiles match the retained-samples twin while its peak stays at
least most of one int64 per measured packet below it.

Print the per-switch table and the windowed rows (CI appends both to the
run's summary page)::

    PYTHONPATH=src python tests/test_memory_budget.py --table
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from typing import Optional, Tuple

import pytest

from repro import models
from repro.sim.experiment import run_single
from repro.sim.metrics import SimulationResult
from repro.traffic.matrices import uniform_matrix

#: At 8000 slots the draw's per-chunk temporaries (one 4096-slot chunk
#: of uniforms and event indices) set every switch's peak once the
#: columns are narrow; 32 000 slots keep the per-packet columns dominant.
N, LOAD, SLOTS, SEED = 16, 0.9, 32_000, 1

#: Traced peak bytes per injected packet allowed per switch.
BUDGET = {
    "foff": 66,
    "load-balanced": 52,
    "output-queued": 38,
    "pf": 68,
    "sprinklers": 61,
    "ufs": 60,
}

#: The frame switches again at a light load, where fixed per-cell state
#: (frame formation's dense per-cycle arrival table costs about 1/load
#: bytes per packet) weighs most against the packets.
LIGHT_LOAD = 0.1
LIGHT_BUDGET = {"foff": 78, "pf": 104}

CASES = [(switch, LOAD, BUDGET[switch]) for switch in sorted(BUDGET)] + [
    (switch, LIGHT_LOAD, LIGHT_BUDGET[switch]) for switch in sorted(LIGHT_BUDGET)
]
#: The full-load rows keep their bare switch names as test ids.
CASE_IDS = [
    switch if load == LOAD else f"{switch}-load{load}" for switch, load, _ in CASES
]


#: The windowed rows: a run 4x the slots of its short twin, streamed in
#: windows of ``WINDOW_SLOTS``, for one switch and one two-stage fabric.
WINDOW_SLOTS, STREAM_SLOTS = 4096, 60_000
WINDOWED = ("sprinklers", "leaf-spine")
#: Windowed peak over the monolithic peak at ``STREAM_SLOTS`` (measured
#: 0.24 for sprinklers, 0.09 for leaf-spine) and over its own peak at a
#: quarter of the slots (measured 1.00 for both).
MAX_WINDOWED_FRACTION, MAX_WINDOWED_GROWTH = 0.5, 1.2
#: Peak bytes the windowed run may add per extra injected packet from the
#: short run to the long one (measured -0.05 to 0.05): anything retained per
#: packet, even one byte, is O(run).
MAX_WINDOWED_BYTES_PER_PACKET = 1.0
#: Bytes per measured packet a retained int64 delay sample must add to
#: the fused run's peak (measured 14.9).
MIN_RETAINED_BYTES = 6


def traced_run(
    subject: str,
    slots: int = SLOTS,
    load: float = LOAD,
    window_slots: Optional[int] = None,
    keep_samples: bool = False,
) -> Tuple[int, SimulationResult]:
    """``(traced peak bytes, result)`` of one warm run."""
    matrix = uniform_matrix(N, load)
    # Warm-up outside the bracket (imports, registries, NumPy caches) on
    # the same path, so that a compiled host's JIT stays outside too.
    run_single(
        subject, matrix, 200, seed=SEED, keep_samples=keep_samples,
        window_slots=window_slots,
    )
    gc.collect()
    tracemalloc.start()
    try:
        result = run_single(
            subject, matrix, slots, seed=SEED, load_label=load,
            keep_samples=keep_samples, window_slots=window_slots,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def test_every_vectorized_switch_has_a_budget():
    assert set(BUDGET) == set(models.available(engine="vectorized"))


@pytest.mark.parametrize("switch, load, budget", CASES, ids=CASE_IDS)
def test_bytes_per_packet_within_budget(switch, load, budget):
    peak, result = traced_run(switch, load=load)
    packets = result.injected
    per_packet = peak / packets
    assert per_packet <= budget, (
        f"{switch} at load {load}: {per_packet:.1f} traced bytes per "
        f"packet ({peak / 2**20:.1f} MiB for {packets} packets) exceeds "
        f"the budget of {budget}"
    )


@pytest.mark.parametrize("subject", WINDOWED)
def test_windowed_peak_is_flat_and_below_monolithic(subject):
    monolithic, _ = traced_run(subject, STREAM_SLOTS)
    short, short_run = traced_run(
        subject, STREAM_SLOTS // 4, window_slots=WINDOW_SLOTS
    )
    long, long_run = traced_run(subject, STREAM_SLOTS, window_slots=WINDOW_SLOTS)
    assert long <= MAX_WINDOWED_FRACTION * monolithic, (
        f"{subject}: windowed peak {long / 2**20:.1f} MiB is not below "
        f"{MAX_WINDOWED_FRACTION:.0%} of the monolithic "
        f"{monolithic / 2**20:.1f} MiB"
    )
    assert long <= MAX_WINDOWED_GROWTH * short, (
        f"{subject}: windowed peak grew {long / short:.2f}x for a 4x "
        f"longer run (bound {MAX_WINDOWED_GROWTH}x)"
    )
    marginal = (long - short) / (long_run.injected - short_run.injected)
    assert marginal <= MAX_WINDOWED_BYTES_PER_PACKET, (
        f"{subject}: windowed peak grew {marginal:.2f} B per extra packet "
        f"(bound {MAX_WINDOWED_BYTES_PER_PACKET})"
    )


def test_fused_metrics_hold_no_per_packet_array():
    fused_peak, fused = traced_run(
        "sprinklers", STREAM_SLOTS, window_slots=WINDOW_SLOTS
    )
    retained_peak, retained = traced_run(
        "sprinklers", STREAM_SLOTS, window_slots=WINDOW_SLOTS, keep_samples=True
    )
    measured = fused.measured_packets
    assert measured > 0
    assert (fused.p50_delay, fused.p99_delay) == (
        retained.p50_delay, retained.p99_delay,
    )
    margin = retained_peak - fused_peak
    assert margin >= MIN_RETAINED_BYTES * measured, (
        f"the fused run peaks only {margin / measured:.1f} B per measured "
        f"packet below its retained twin (bound {MIN_RETAINED_BYTES})"
    )


def table() -> str:
    """The per-case measurements as Markdown tables: the monolithic
    rows against their budgets, then the windowed rows."""
    lines = [
        f"Traced bytes per packet (N={N}, uniform, {SLOTS} slots, "
        f"seed {SEED})",
        "",
        "| switch | load | traced peak (MiB) | packets | bytes/packet | budget |",
        "|---|---:|---:|---:|---:|---:|",
    ]
    for switch, load, budget in CASES:
        peak, result = traced_run(switch, load=load)
        packets = result.injected
        lines.append(
            f"| {switch} | {load} | {peak / 2**20:.1f} | {packets} | "
            f"{peak / packets:.0f} | {budget} |"
        )
    lines += [
        "",
        f"Windowed replay ({STREAM_SLOTS} slots in windows of "
        f"{WINDOW_SLOTS}, load {LOAD})",
        "",
        "| subject | traced peak (MiB) | packets | bytes/packet |",
        "|---|---:|---:|---:|",
    ]
    for subject in WINDOWED:
        peak, result = traced_run(
            subject, STREAM_SLOTS, window_slots=WINDOW_SLOTS
        )
        packets = result.injected
        lines.append(
            f"| {subject} | {peak / 2**20:.1f} | {packets} | "
            f"{peak / packets:.1f} |"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    if sys.argv[1:] != ["--table"]:
        sys.exit(__doc__)
    print(table())
