"""Formation parity: the NumPy table engine vs the scalar per-lane stepper.

:mod:`repro.sim.kernels.frames` has two formation engines behind one
seam: the NumPy engine (:class:`_TableFormation`), which advances every
lane at its own cycle over a dense per-cycle arrival table, and
:class:`_CompiledLaneFormation`, which steps each lane through its cycles
with the scalar recursion
:func:`~repro.sim.kernels.compiled.frames_pass.form_lanes` (plain Python
without numba).  The two share no code, so the scalar stepper is this
suite's reference, reached by flipping ``compiled.ACTIVE``.  The suite
pins the NumPy engine against it *frame for frame*: the same (VOQ, start
rank, size, fake cells, formation slot) multiset — and the same per-VOQ
formation order — for PF and FOFF across switch sizes, workloads, and
monolithic vs streamed (windowed) replay, drain quiescence included.  A
generated test adds stacked seed blocks, raw event bursts (counts past
a uint8 table cell), empty lanes and random window cuts, and also pins
the two formation counters.

Frame-for-frame equality is strictly stronger than the engine parity
tests (which compare end-of-pipeline metrics): a formation bug that
happened to cancel downstream would still fail here.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.scenarios.build import build_batch_traffic
from repro.scenarios.registry import get_scenario
from repro.sim.kernels import compiled
from repro.sim.kernels.frames import (
    FormationRule,
    FrameFormationStream,
    build_frame_schedule,
    foff_rule,
    pf_rule,
)
from repro.sim.rng import derive_seed
from repro.traffic.batch import BatchTrafficGenerator
from repro.traffic.matrices import diagonal_matrix, uniform_matrix

#: Name -> batch-traffic factory ``(n, seed, slots) -> generator``.  Two
#: §6 matrix families plus two registered scenarios (bursty on/off and
#: fan-in incast — clumped arrivals stress the idle-span skip hardest).
WORKLOADS = {
    "uniform": lambda n, seed, slots: BatchTrafficGenerator(
        uniform_matrix(n, 0.85),
        np.random.default_rng(derive_seed(seed, "traffic")),
    ),
    "diagonal": lambda n, seed, slots: BatchTrafficGenerator(
        diagonal_matrix(n, 0.6),
        np.random.default_rng(derive_seed(seed, "traffic")),
    ),
    "mmpp-bursty": lambda n, seed, slots: build_batch_traffic(
        get_scenario("mmpp-bursty"), n, 0.8, seed, slots
    ),
    "incast": lambda n, seed, slots: build_batch_traffic(
        get_scenario("incast"), n, 0.75, seed, slots
    ),
}
SLOTS = 900
WINDOWS = (97, 400)


def rules_for(n: int):
    return {
        "pf": pf_rule(max(1, n // 2)),
        "pf-thr2": pf_rule(min(2, n)),
        "foff": foff_rule(),
    }


@pytest.fixture
def engine(monkeypatch):
    """``engine(reference)``: select the scalar per-lane stepper (True) or
    the NumPy table engine (False) for the formations built next."""

    def select(reference: bool) -> None:
        monkeypatch.setattr(compiled, "ACTIVE", reference)

    return select


def numpy_schedule(engine, batch, rule):
    engine(False)
    return build_frame_schedule(batch, rule)


def reference_schedule(engine, batch, rule):
    engine(True)
    return build_frame_schedule(batch, rule)


def canonical(schedule):
    """Frames sorted by (voq, start) — the only order the kernels rely on."""
    order = np.lexsort((schedule.start, schedule.voq))
    return tuple(
        field[order]
        for field in (
            schedule.voq,
            schedule.start,
            schedule.size,
            schedule.fakes,
            schedule.slot,
        )
    )


def assert_schedules_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(canonical(got), canonical(want)):
        np.testing.assert_array_equal(a, b)
    # Per-VOQ formation order (what frame_membership / FramedPacketBuffer
    # key on): within a VOQ, starts must ascend in emission order.
    for schedule in (got, want):
        f_order = np.argsort(schedule.voq, kind="stable")
        voq_s = schedule.voq[f_order]
        start_s = schedule.start[f_order]
        same_voq = voq_s[1:] == voq_s[:-1]
        assert bool(np.all(start_s[1:][same_voq] > start_s[:-1][same_voq]))


def stream_schedule(rule, n, batches, windows):
    """Feed a run through a formation stream; concatenate the schedules."""
    stream = FrameFormationStream(n, rule)
    parts = []
    for batch in batches:
        parts.append(
            stream.feed(
                batch.slots,
                batch.inputs,
                batch.outputs,
                batch.end_slot if windows else None,
            )
        )
    if windows:
        parts.append(stream.finish())
    voq = np.concatenate([p.voq for p in parts])
    start = np.concatenate([p.start for p in parts])
    size = np.concatenate([p.size for p in parts])
    fakes = np.concatenate([p.fakes for p in parts])
    slot = np.concatenate([p.slot for p in parts])
    return type(parts[0])(voq, start, size, fakes, slot)


class TestMonolithicParity:
    """PF + FOFF x N x workload: whole-run schedules, drain included."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("n", [2, 8, 32])
    @pytest.mark.parametrize("kind", ["pf", "pf-thr2", "foff"])
    def test_engine_matches_reference(self, engine, kind, n, workload):
        batch = WORKLOADS[workload](n, 7, SLOTS).draw(SLOTS)
        rule = rules_for(n)[kind]
        got = numpy_schedule(engine, batch, rule)
        want = reference_schedule(engine, batch, rule)
        assert_schedules_equal(got, want)

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_pf_fake_cell_counts(self, engine, n):
        """PF's padding accounting: every non-full frame carries exactly
        n - size fakes, full frames none — on both implementations."""
        batch = WORKLOADS["uniform"](n, 3, SLOTS).draw(SLOTS)
        rule = pf_rule(max(1, n // 2))
        for schedule in (
            numpy_schedule(engine, batch, rule),
            reference_schedule(engine, batch, rule),
        ):
            np.testing.assert_array_equal(
                schedule.fakes, n - schedule.size
            )

    def test_empty_batch(self, engine):
        gen = BatchTrafficGenerator(
            uniform_matrix(4, 0.0), np.random.default_rng(0)
        )
        empty = gen.draw(50)
        assert len(empty) == 0
        for rule in (pf_rule(2), foff_rule()):
            assert len(numpy_schedule(engine, empty, rule)) == 0
            assert len(reference_schedule(engine, empty, rule)) == 0

    def test_drain_quiescence_forms_trailing_frames(self, engine):
        """Backlog left at the arrival horizon must drain: FOFF forms
        frames past the last arrival slot until every VOQ is empty, and
        both implementations agree on those trailing cycles."""
        gen = WORKLOADS["incast"](8, 11, 300)
        batch = gen.draw(300)
        rule = foff_rule()
        got = numpy_schedule(engine, batch, rule)
        want = reference_schedule(engine, batch, rule)
        assert_schedules_equal(got, want)
        # FOFF sweeps every packet into a frame.
        assert int(got.size.sum()) == len(batch)
        # The drain really extends past the arrival horizon.
        assert int(got.slot.max()) >= int(batch.slots.max())


class TestStreamedParity:
    """Windowed formation (the resumable engine) vs both references."""

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("n", [2, 8, 32])
    @pytest.mark.parametrize("kind", ["pf", "foff"])
    def test_windowed_matches_monolithic(
        self, engine, kind, n, workload, window
    ):
        rule = rules_for(n)[kind]
        mono = reference_schedule(
            engine, WORKLOADS[workload](n, 5, SLOTS).draw(SLOTS), rule
        )
        batches = list(
            WORKLOADS[workload](n, 5, SLOTS).draw_chunks(SLOTS, window)
        )
        engine(False)
        streamed = stream_schedule(rule, n, batches, windows=True)
        assert_schedules_equal(streamed, mono)

    @pytest.mark.parametrize("kind", ["pf", "foff"])
    def test_windowed_matches_scalar_reference_stream(self, engine, kind):
        """The scalar stepper's stream, fed the same windows, must agree
        window for window (not just on the final union)."""
        n, window = 8, 113
        rule = rules_for(n)[kind]
        batches = list(
            WORKLOADS["mmpp-bursty"](n, 9, SLOTS).draw_chunks(SLOTS, window)
        )
        engine(False)
        vec = FrameFormationStream(n, rule)
        engine(True)
        ref = FrameFormationStream(n, rule)
        for batch in batches:
            got = vec.feed(
                batch.slots, batch.inputs, batch.outputs, batch.end_slot
            )
            want = ref.feed(
                batch.slots, batch.inputs, batch.outputs, batch.end_slot
            )
            assert_schedules_equal(got, want)
        assert_schedules_equal(vec.finish(), ref.finish())

    def test_tiny_windows(self, engine):
        """Single-digit windows maximize carried-state churn."""
        n, rule = 4, foff_rule()
        mono = reference_schedule(
            engine, WORKLOADS["uniform"](n, 2, 200).draw(200), rule
        )
        batches = list(
            WORKLOADS["uniform"](n, 2, 200).draw_chunks(200, 7)
        )
        engine(False)
        streamed = stream_schedule(rule, n, batches, windows=True)
        assert_schedules_equal(streamed, mono)


class TestRuleValidation:
    def test_unknown_rule_kind_rejected(self, engine):
        batch = BatchTrafficGenerator(
            uniform_matrix(4, 0.5), np.random.default_rng(0)
        ).draw(10)
        for reference in (False, True):
            engine(reference)
            with pytest.raises(ValueError, match="unknown formation rule"):
                build_frame_schedule(batch, FormationRule("warp", 0))

    @pytest.mark.parametrize("threshold", [0, -1, 5])
    @pytest.mark.parametrize("reference", [False, True])
    def test_pf_threshold_outside_one_to_n_rejected(
        self, engine, reference, threshold
    ):
        """At 0 or below every pick would form, zero-size frames
        forever; above n no frame would ever pad.  Both entry points
        reject it the way PaddedFramesSwitch does."""
        batch = BatchTrafficGenerator(
            uniform_matrix(4, 0.5), np.random.default_rng(0)
        ).draw(200)
        engine(reference)
        with pytest.raises(ValueError, match=r"threshold must be in \[1, 4\]"):
            build_frame_schedule(batch, pf_rule(threshold))
        with pytest.raises(ValueError, match=r"threshold must be in \[1, 4\]"):
            FrameFormationStream(4, pf_rule(threshold))


#: The formation-loop counters both engines report: frames formed, and
#: declines (each a jump to the lane's next arrival cycle, its window
#: limit, or drain quiescence).
COUNTERS = ("kernel.frames.lane_advances", "kernel.frames.cursor_jumps")


@st.composite
def formation_runs(draw):
    """``(n, rule, windows)`` of one generated formation run.

    ``windows`` is a list of ``(boundary, events)``: ``events`` rows are
    ``(slot, input, output)`` in slot order, ``boundary`` the window's
    end slot, or ``None`` for a single monolithic feed that drains.  An
    event row repeats up to 4 times or 250-270 times — the latter
    overflows a uint8 table cell — and inputs without events leave lanes
    empty.
    """
    n = draw(st.integers(2, 12))
    threshold = draw(st.integers(0, n))
    rule = foff_rule() if threshold == 0 else pf_rule(threshold)
    horizon = draw(st.integers(1, 90))
    rows = draw(st.lists(
        st.tuples(
            st.integers(0, horizon - 1),
            st.integers(0, n - 1),
            st.integers(0, n - 1),
            st.integers(1, 4) | st.integers(250, 270),
        ),
        max_size=25,
    ))
    events = np.array(
        [row[:3] for row in sorted(rows) for _ in range(row[3])],
        dtype=np.int64,
    ).reshape(-1, 3)
    if draw(st.booleans()):
        return n, rule, [(None, events)]
    cuts = sorted(set(draw(st.lists(st.integers(1, horizon), max_size=6))))
    windows, lo = [], 0
    for end in cuts + [horizon + 1]:
        inside = (events[:, 0] >= lo) & (events[:, 0] < end)
        windows.append((end, events[inside]))
        lo = end
    return n, rule, windows


def formation_run(reference, n, rule, windows):
    """Every window's schedule (then the drain's) and the counters."""
    with pytest.MonkeyPatch.context() as patch, telemetry.scope() as tel:
        patch.setattr(compiled, "ACTIVE", reference)
        stream = FrameFormationStream(n, rule)
        schedules = [
            stream.feed(*events.T, boundary) for boundary, events in windows
        ]
        if windows[-1][0] is not None:
            schedules.append(stream.finish())
        counts = [tel.registry.counter(name).value for name in COUNTERS]
    return schedules, counts


class TestGeneratedFormation:
    @settings(deadline=None)
    @given(case=formation_runs())
    def test_numpy_engine_matches_scalar_stepper(self, case):
        """Window for window, frame for frame, counter for counter."""
        got, got_counts = formation_run(False, *case)
        want, want_counts = formation_run(True, *case)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_schedules_equal(a, b)
        assert got_counts == want_counts
