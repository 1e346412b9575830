"""Benchmark: compiled kernel passes vs the NumPy passes.

The compiled passes (``repro.sim.kernels.compiled``) replace the three
hot scalar-recursion passes of the vectorized replay — frame formation,
polled-queue service, the per-VOQ reordering fold — with numba ``@njit``
loops, and run exactly when numba imports.  This module flips the
``compiled.ACTIVE`` seam to time both on one host, and pins the two
claims that make the compiled passes shippable:

* **bit parity, always**: every row asserts ``to_dict()`` equality
  between the NumPy and compiled runs (extras included), on every
  machine — with or without numba, since without it the compiled passes
  run as the same arithmetic in pure Python;
* **the speedup bar, where it means something**: with numba installed
  and ``REPRO_BENCH_MIN_SPEEDUP_COMPILED`` set (the compiled-smoke CI
  job sets both), the frame switches PF and FOFF must beat the NumPy
  lane engine by that factor at full scale (>= 100k slots).  The bar is
  opt-in by env var — unlike the engine shoot-out bars it is *not*
  skipped under ``CI``, because the job that sets it exists to enforce
  it.

Without numba the pure-Python fallback is orders of magnitude slower
than NumPy, so timing runs shrink to a parity-sized workload and no
ratio is asserted.  Artifact: ``BENCH_compiled.json``.
"""

from __future__ import annotations

import os
import time

from repro.sim.experiment import run_single
from repro.sim.kernels import compiled
from repro.sim.kernels.compiled import compiled_available
from repro.traffic.matrices import uniform_matrix

from benchmarks.conftest import bench_n, bench_slots, emit, write_bench_artifact

#: The switches the compiled passes accelerate hardest: the frame
#: switches run the per-cycle formation stepper (the bar applies to
#: these) and sprinklers exercises the polled-service + fold passes.
FRAME_SWITCHES = ("pf", "foff")
SWITCHES = FRAME_SWITCHES + ("sprinklers",)
LOAD = 0.9
FULL_SCALE_SLOTS = 100_000
#: Unset by default: the bar asserts only where numba actually compiles
#: (the compiled-smoke CI job sets it to 5.0).
MIN_SPEEDUP = os.environ.get("REPRO_BENCH_MIN_SPEEDUP_COMPILED")
#: Without numba the "compiled" passes are pure Python — parity still
#: holds, but timing them at bench scale would take minutes, so the
#: workload shrinks to a parity-sized run.
FALLBACK_SLOTS_CAP = 2_000


def _time_passes(monkeypatch, switch, matrix, slots, active, repeats=2):
    """Min-of-N wall clock for one switch, compiled passes on or off.

    Minimum-of-N is the steady-state estimator the other bench modules
    use; for the compiled passes the first call additionally absorbs
    numba's JIT compilation, which min-of-N discards by design.
    """
    monkeypatch.setattr(compiled, "ACTIVE", active)
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run_single(
            switch,
            matrix,
            slots,
            seed=0,
            load_label=LOAD,
            keep_samples=False,
            engine="vectorized",
        )
        best = min(best, time.perf_counter() - start)
    return result, best


def test_compiled_backend_speedup(monkeypatch):
    n = bench_n()
    slots = bench_slots()
    have_numba = compiled_available()
    if not have_numba:
        slots = min(slots, FALLBACK_SLOTS_CAP)
    matrix = uniform_matrix(n, LOAD)
    rows = []
    for switch in SWITCHES:
        ref, t_ref = _time_passes(monkeypatch, switch, matrix, slots, False)
        com, t_com = _time_passes(monkeypatch, switch, matrix, slots, True)
        # Bit parity is the contract, everywhere: the compiled loops are
        # the same decisions and the same arithmetic as the NumPy
        # passes, so the *entire* result payload must agree.
        assert com.to_dict() == ref.to_dict(), switch
        rows.append(
            {
                "switch": switch,
                "numpy_s": t_ref,
                "compiled_s": t_com,
                "speedup": t_ref / t_com,
            }
        )
    lines = [
        f"{'switch':12s} {'numpy':>9s} {'compiled':>9s} {'speedup':>8s}"
    ]
    for row in rows:
        lines.append(
            f"{row['switch']:12s} {row['numpy_s']:8.3f}s "
            f"{row['compiled_s']:8.3f}s {row['speedup']:7.1f}x"
        )
    emit(
        f"Compiled-pass shoot-out (N={n}, load {LOAD}, {slots} slots, "
        f"numba={'yes' if have_numba else 'no — pure-Python fallback'})",
        "\n".join(lines),
    )
    write_bench_artifact(
        "compiled",
        {
            "numba_available": have_numba,
            "slots": slots,
            "shootout": [
                {k: row[k] for k in ("switch", "numpy_s", "compiled_s", "speedup")}
                for row in rows
            ],
        },
    )
    if not have_numba:
        return  # parity asserted above; no meaningful ratio to enforce
    if MIN_SPEEDUP is None or slots < FULL_SCALE_SLOTS:
        return  # reporting run; the bar needs full scale and the env knob
    floor = float(MIN_SPEEDUP)
    for row in rows:
        if row["switch"] not in FRAME_SWITCHES:
            continue
        assert row["speedup"] >= floor, (
            f"{row['switch']}: compiled {row['speedup']:.1f}x < {floor}x "
            f"over the NumPy lane engine at {slots} slots"
        )
