"""Benchmark: vectorized batch engine vs per-packet object engine.

Runs a Fig. 6-style configuration (uniform traffic, one hot load) on both
engines for every switch the fast path models, asserts result parity
(same seeds must give the same numbers) and reports the wall-clock
speedup.  At paper scale —

    REPRO_BENCH_SLOTS=200000 python -m pytest benchmarks/bench_engines.py -s

— the vectorized engine must be at least 5x faster on the Sprinklers
data path; at the reduced default scale the speedup is still reported
but only asserted to exceed 1x (fixed vectorization overheads dominate
short runs, which is exactly why the object engine remains the default
for quick interactive work).

Knobs: ``REPRO_BENCH_MIN_SPEEDUP`` overrides the full-scale bar for the
fully array-replayed switches and ``REPRO_BENCH_MIN_SPEEDUP_FRAMES`` the
bar for the frame-at-a-time switches PF and FOFF.  Since the
array-stepped formation engine (``repro.sim.kernels.frames``) replaced
the per-cycle scalar recursion, the frame switches clear the same 5x
full-scale bar as everyone else.  The hard wall-clock assertions are
skipped automatically inside CI sandboxes (``CI`` set, the convention
every major CI system follows, or ``REPRO_BENCH_SKIP_PERF``) where
noisy-neighbor throttling makes them flaky — parity assertions always
run, everywhere.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import models
from repro.sim.experiment import run_single
from repro.traffic.matrices import uniform_matrix

from benchmarks.conftest import bench_n, bench_slots, emit, write_bench_artifact

#: Every switch with a registered vectorized kernel is benchmarked; a new
#: kernel enrolls automatically (and the registry-coverage CI step fails
#: if one silently disappears).
VECTORIZED_SWITCHES = models.available(engine="vectorized")

#: Wall-clock ratio the fast engine must beat at paper scale (>= 100k
#: slots); below that, fixed overheads make the bar meaningless.
FULL_SCALE_SLOTS = 100_000
FULL_SCALE_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "5.0"))
#: The frame switches' formation stage is array-stepped (one vector op
#: pass per fabric cycle, idle spans skipped), so PF/FOFF now clear the
#: same full-scale bar as the fully array-replayed switches (measured
#: 8-15x on the reference container; the old scalar-formation bar was
#: 1.5).
FRAME_SWITCHES = ("pf", "foff")
FRAME_SCALE_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_MIN_SPEEDUP_FRAMES", "5.0")
)
#: Wall-clock ratio seed-batched replication must beat over seed-by-seed
#: replication (same engine, same per-seed values — see
#: test_batched_replication).  The win comes from amortizing per-seed
#: array-call overheads, so it is bounded (typically 1.1-1.4x in the
#: short-replication regime on the reference container); the default bar
#: asserts the batched path never loses beyond single-core timer noise.
BATCH_REPLICATION_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_MIN_SPEEDUP_BATCH", "0.95")
)
#: Replications and slots for the batched-replication row: many short
#: seeds — exactly the regime multi-seed stacking is built for.  The
#: slot cap keeps per-seed event counts well below the stacked-group
#: target so the benchmark genuinely measures multi-seed stacks (group
#: size 4 at the defaults), not the single-seed fast pipeline.
BATCH_REPLICATIONS = int(os.environ.get("REPRO_BENCH_BATCH_REPS", "64"))
BATCH_SLOTS_CAP = 250
#: Full-scale bar for the two-stage fabric row: the chained vectorized
#: replay (KernelStage per stage + link coupling) against the chained
#: object replay.  The coupling layer is pure array work, so the fabric
#: keeps most of the single-switch speedup (measured 4-10x on the
#: reference container); the default bar is deliberately below the
#: single-switch 5x to leave room for the per-window coupling overhead.
FABRIC_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_MIN_SPEEDUP_FABRIC", "3.0")
)
FABRIC_NAME = "leaf-spine"
LOAD = 0.9


def _perf_assertions_disabled() -> bool:
    """True inside CI sandboxes, where wall-clock bars are meaningless."""
    return bool(
        os.environ.get("CI") or os.environ.get("REPRO_BENCH_SKIP_PERF")
    )


def _time_run(engine: str, switch: str, matrix, slots: int, repeats: int = 1):
    """Run once per repeat; report the result and the *minimum* wall-clock.

    Minimum-of-N is the standard steady-state estimator (it is what
    ``timeit`` reports): the vectorized engine's first large call pays
    one-off costs — page faults for the batch arrays, allocator growth —
    that say nothing about either engine's throughput.  The object engine
    allocates per packet and has no such cliff, so it runs once.
    """
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
            engine=engine,
        )
        best = min(best, time.perf_counter() - start)
    return result, best


@pytest.fixture(scope="module")
def engine_rows():
    n = bench_n()
    slots = bench_slots()
    matrix = uniform_matrix(n, LOAD)
    rows = []
    for switch in VECTORIZED_SWITCHES:
        fast, t_fast = _time_run("vectorized", switch, matrix, slots, repeats=2)
        obj, t_obj = _time_run("object", switch, matrix, slots)
        rows.append(
            {
                "switch": switch,
                "object_s": t_obj,
                "vectorized_s": t_fast,
                "speedup": t_obj / t_fast,
                "obj": obj,
                "fast": fast,
            }
        )
    return rows


def test_engine_parity(engine_rows):
    """Same seeds, same physics: every reported number must agree.

    The object engine is the ordering-audit oracle; the vectorized engine
    inherits its verdicts only because these numbers are identical.
    """
    for row in engine_rows:
        obj, fast = row["obj"], row["fast"]
        assert fast.injected == obj.injected, row["switch"]
        assert fast.departed == obj.departed, row["switch"]
        assert fast.measured_packets == obj.measured_packets, row["switch"]
        assert fast.late_packets == obj.late_packets, row["switch"]
        # The acceptance bar is 1% on mean delay; the engines actually
        # agree exactly, so pin the stronger property.
        assert fast.mean_delay == pytest.approx(
            obj.mean_delay, rel=1e-12
        ), row["switch"]
        assert fast.throughput == pytest.approx(
            obj.throughput, rel=1e-12
        ), row["switch"]


def test_ordering_oracle_cross_check(engine_rows):
    """Zero reordering for the order-preserving switches, on both engines."""
    for row in engine_rows:
        if row["switch"] != "load-balanced":
            assert row["obj"].late_packets == 0, row["switch"]
            assert row["fast"].late_packets == 0, row["switch"]


def test_engine_speedup(engine_rows):
    slots = bench_slots()
    lines = [
        f"{'switch':16s} {'object':>9s} {'vectorized':>11s} {'speedup':>8s}"
    ]
    for row in engine_rows:
        lines.append(
            f"{row['switch']:16s} {row['object_s']:8.2f}s "
            f"{row['vectorized_s']:10.3f}s {row['speedup']:7.1f}x"
        )
    emit(
        f"Engine shoot-out (N={bench_n()}, load {LOAD}, {slots} slots)",
        "\n".join(lines),
    )
    write_bench_artifact(
        "engines",
        {
            "shootout": [
                {
                    "switch": row["switch"],
                    "object_s": row["object_s"],
                    "vectorized_s": row["vectorized_s"],
                    "speedup": row["speedup"],
                }
                for row in engine_rows
            ]
        },
    )
    if _perf_assertions_disabled():
        pytest.skip(
            "wall-clock assertions disabled in CI sandbox "
            "(parity tests above still ran); unset CI / "
            "REPRO_BENCH_SKIP_PERF to enforce the speedup bar"
        )
    for row in engine_rows:
        if slots < FULL_SCALE_SLOTS:
            floor = 1.0
        elif row["switch"] in FRAME_SWITCHES:
            floor = FRAME_SCALE_SPEEDUP
        else:
            floor = FULL_SCALE_SPEEDUP
        assert row["speedup"] >= floor, (
            f"{row['switch']}: {row['speedup']:.1f}x < {floor}x "
            f"at {slots} slots"
        )


def test_fabric_engines():
    """Two-stage fabric: chained-engine parity, then the wall-clock bar.

    The composite run path re-couples every stage's finalized departures
    into the next stage's arrival windows; this row pins (a) that the
    chained vectorized replay and the chained object replay report
    identical numbers — including the per-stage delay decomposition —
    and (b) that the chain keeps a healthy share of the single-switch
    speedup (REPRO_BENCH_MIN_SPEEDUP_FABRIC at full scale).
    """
    n = bench_n()
    slots = bench_slots()
    matrix = uniform_matrix(n, LOAD)
    fast, t_fast = _time_run(
        "vectorized", FABRIC_NAME, matrix, slots, repeats=2
    )
    obj, t_obj = _time_run("object", FABRIC_NAME, matrix, slots)
    speedup = t_obj / t_fast
    emit(
        f"Two-stage fabric shoot-out ({FABRIC_NAME}, N={n}, load {LOAD}, "
        f"{slots} slots)",
        f"object {t_obj:8.2f}s  vectorized {t_fast:8.3f}s  "
        f"{speedup:6.1f}x",
    )
    write_bench_artifact(
        "engines",
        {
            "fabric": {
                "name": FABRIC_NAME,
                "object_s": t_obj,
                "vectorized_s": t_fast,
                "speedup": speedup,
            }
        },
    )
    assert fast.to_dict() == obj.to_dict()
    stages = int(fast.extras["stages"])
    decomposition = sum(
        fast.extras[f"stage{k}_mean_delay"] for k in range(stages)
    )
    assert decomposition == pytest.approx(fast.mean_delay, rel=1e-12)
    if _perf_assertions_disabled():
        pytest.skip(
            "wall-clock assertion disabled in CI sandbox (the fabric "
            "parity assertions above still ran)"
        )
    floor = FABRIC_SPEEDUP if slots >= FULL_SCALE_SLOTS else 1.0
    assert speedup >= floor, (
        f"{FABRIC_NAME}: {speedup:.1f}x < {floor}x at {slots} slots"
    )


def test_batched_replication():
    """Seed-batched replication: identical values, amortized wall-clock.

    ``replicate(engine="vectorized", batch_seeds=True)`` stacks all
    seeds into one kernel pass (cache-sized seed groups) and folds the
    per-seed metrics with segmented reductions.  The per-seed *values*
    must match seed-by-seed replication exactly — asserted everywhere —
    and the stacked pass must not lose on wall-clock in the many-short-
    replications regime it exists for (asserted outside CI sandboxes;
    raise the bar with REPRO_BENCH_MIN_SPEEDUP_BATCH).
    """
    from repro.sim.replication import replicate

    n = bench_n()
    slots = min(bench_slots(), BATCH_SLOTS_CAP)
    matrix = uniform_matrix(n, LOAD)
    kwargs = dict(
        num_slots=slots,
        replications=BATCH_REPLICATIONS,
        engine="vectorized",
        load_label=LOAD,
    )

    def run_pair():
        t0 = time.perf_counter()
        seq = replicate("sprinklers", matrix, **kwargs)
        t1 = time.perf_counter()
        bat = replicate("sprinklers", matrix, **kwargs, batch_seeds=True)
        t2 = time.perf_counter()
        return seq, bat, t1 - t0, t2 - t1

    run_pair()  # warm both paths (allocator growth, import costs)
    best_seq, best_bat = float("inf"), float("inf")
    for _ in range(5):
        seq, bat, t_seq, t_bat = run_pair()
        assert bat.values == seq.values  # exact per-seed equality, always
        best_seq = min(best_seq, t_seq)
        best_bat = min(best_bat, t_bat)
    speedup = best_seq / best_bat
    emit(
        "Seed-batched replication (sprinklers)",
        f"{BATCH_REPLICATIONS} seeds x {slots} slots: seed-by-seed "
        f"{best_seq:.3f}s, batched {best_bat:.3f}s, {speedup:.2f}x",
    )
    write_bench_artifact(
        "engines",
        {
            "batched_replication": {
                "replications": BATCH_REPLICATIONS,
                "slots": slots,
                "sequential_s": best_seq,
                "batched_s": best_bat,
                "speedup": speedup,
            }
        },
    )
    if _perf_assertions_disabled():
        pytest.skip(
            "wall-clock assertion disabled in CI sandbox (the per-seed "
            "value-equality assertions above still ran)"
        )
    assert speedup >= BATCH_REPLICATION_SPEEDUP, (
        f"batched replication {speedup:.2f}x < "
        f"{BATCH_REPLICATION_SPEEDUP}x"
    )
