"""Benchmark: compiled kernel passes vs the NumPy passes, PF/FOFF >= 5x.

The compiled passes (``repro.sim.kernels.compiled``) replace the three
hot scalar-recursion passes of the vectorized replay — frame formation,
polled-queue service, the per-VOQ reordering fold — with numba ``@njit``
loops, and run exactly when numba imports.  This module flips the
``compiled.ACTIVE`` seam to time both on one host at N=32, 100 000
slots, load 0.9, and asserts:

* bit parity: every timed run's ``to_dict()`` equals its NumPy twin's;
* the speedup bar: the frame switches PF and FOFF run at least 5x faster
  with the compiled lane stepper than with the NumPy lane engine.

It skips unless numba imports (the pure-Python fallback's parity is
``tests/test_compiled_kernels.py``'s job)::

    python -m pytest -q -s benchmarks/bench_compiled.py
"""

from __future__ import annotations

import time

import pytest

from repro.sim.experiment import run_single
from repro.sim.kernels import compiled
from repro.sim.kernels.compiled import compiled_available
from repro.traffic.matrices import uniform_matrix

pytestmark = pytest.mark.skipif(
    not compiled_available(), reason="numba is not installed"
)

#: The bar applies to the frame switches, which run the per-cycle
#: formation stepper; sprinklers exercises the polled-service and fold
#: passes and is reported only.
FRAME_SWITCHES = ("pf", "foff")
SWITCHES = FRAME_SWITCHES + ("sprinklers",)
N, SLOTS, LOAD = 32, 100_000, 0.9
MIN_SPEEDUP = 5.0


def _time_passes(monkeypatch, switch, matrix, active, repeats=2):
    """Min-of-N wall clock for one switch, compiled passes on or off.

    The first compiled call also absorbs numba's JIT compilation, which
    the minimum discards.
    """
    monkeypatch.setattr(compiled, "ACTIVE", active)
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run_single(
            switch, matrix, SLOTS, seed=0, load_label=LOAD, keep_samples=False,
        )
        best = min(best, time.perf_counter() - start)
    return result, best


def test_compiled_backend_speedup(monkeypatch):
    matrix = uniform_matrix(N, LOAD)
    speedups = {}
    print(f"\n{'switch':12s} {'numpy':>9s} {'compiled':>9s} {'speedup':>8s}")
    for switch in SWITCHES:
        ref, t_ref = _time_passes(monkeypatch, switch, matrix, False)
        com, t_com = _time_passes(monkeypatch, switch, matrix, True)
        assert com.to_dict() == ref.to_dict(), switch
        speedups[switch] = t_ref / t_com
        print(
            f"{switch:12s} {t_ref:8.3f}s {t_com:8.3f}s "
            f"{speedups[switch]:7.1f}x"
        )
    for switch in FRAME_SWITCHES:
        assert speedups[switch] >= MIN_SPEEDUP, (
            f"{switch}: compiled {speedups[switch]:.1f}x < {MIN_SPEEDUP}x "
            f"over the NumPy lane engine at N={N}, {SLOTS} slots"
        )
