"""Vectorized batch simulation engine (structure-of-arrays, NumPy).

The object engine in :mod:`repro.sim.engine` advances one slot at a time,
constructing a Python object per packet and dispatching through the switch
class hierarchy — faithful, auditable, and far too slow for the paper's
200k-slot Figs. 6-7 regime.  This module simulates the same switches by
*replaying their deterministic dynamics on flat arrays*, one vectorized
pass per pipeline stage instead of one Python iteration per packet per
slot.

Per-switch data paths live in :mod:`repro.sim.kernels` and are resolved
through the switch-model registry (:mod:`repro.models`): a switch is
vectorizable iff its :class:`~repro.models.SwitchModel` carries a kernel,
and a kernel is an exact replay — given the same seed it reproduces the
object engine's per-packet departure slots *exactly* (pinned by the
engine-equivalence tests).  The object engine remains the ordering-audit
oracle because it exercises the real data-path code.

Vectorized today: ``sprinklers`` (oracle sizing), ``ufs``, ``pf``
(padding is deterministic given frame formation), ``foff`` (resequencer
replay via a per-flow departure-time sort), ``load-balanced`` and
``output-queued`` — ask ``repro.models.available(engine="vectorized")``
rather than hardcoding the list.  Switches whose control loops are
feedback-coupled (adaptive Sprinklers) or not yet modeled (CMS, hashing)
keep the object engine.

Two replay shapes, selected by the window the call asks for, never by
a flag; every replay is one seed:

* **Monolithic** — one window: ``run_single_fast`` replays the whole run
  through the model's ``kernel`` (the observed-fastest one-window path).
  Replications run it seed by seed.
* **Windowed (streaming)** — ``run_single_fast(..., window_slots=W)``
  with ``W`` below the run length draws and replays consecutive
  ``W``-slot windows through the model's stream kernel
  (:class:`~repro.sim.kernels.base.StreamKernel`), with bit-identical
  results and O(``W``) peak arrival-array memory instead of O(run).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import models, telemetry
from ..sim.metrics import SimulationMetrics, SimulationResult
from ..sim.rng import traffic_rng
from ..traffic.batch import ArrivalBatch, BatchTrafficGenerator
from ..traffic.matrices import validate_matrix
from .kernels.base import Departures, composite_argsort, segmented_running_max
from .kernels import compiled
from .kernels.compiled.fold_pass import fold_running_max

__all__ = [
    "run_single_fast",
    "run_replications_fast",
]

# ---------------------------------------------------------------------------
# Metrics assembly
# ---------------------------------------------------------------------------


def _fold_reordering(
    voq: np.ndarray, seq: np.ndarray, prev_max: np.ndarray
) -> tuple:
    """Vectorized :class:`~repro.switching.resequencer.ReorderingDetector`
    step over one (voq, observation)-sorted event block.

    Per VOQ in observation order, a packet is late iff an
    earlier-observed packet of its VOQ carries a higher sequence number.
    ``prev_max`` carries each VOQ's running max across blocks (windows);
    it is seeded from and updated **in place**.  Returns ``(late_mask,
    prev)`` where ``prev`` is the per-packet predecessor max (for
    displacement), in ``seq``'s dtype.
    """
    if compiled.ACTIVE:
        prev = np.empty(len(voq), dtype=seq.dtype)
        fold_running_max(voq, seq, prev_max, prev)
        return prev > seq, prev
    run = segmented_running_max(seq, voq)
    prev = np.empty(len(run), dtype=run.dtype)
    prev[0] = -1
    prev[1:] = run[:-1]
    first = np.r_[True, voq[1:] != voq[:-1]]
    prev[first] = -1
    np.maximum(prev, prev_max[voq], out=prev)
    last = np.flatnonzero(np.r_[first[1:], True])
    prev_max[voq[last]] = np.maximum(run[last], prev[last])
    return prev > seq, prev


def _voq_observation_order(dep: Departures) -> np.ndarray:
    """Argsort of a departure block by VOQ, then observation order —
    the order :func:`_fold_reordering` consumes."""
    within = dep.wire if dep.wire_is_rank else dep.departure
    return composite_argsort(dep.voq, within)


def _in_order(
    voq: np.ndarray, seq: np.ndarray, key: np.ndarray, prev_max: np.ndarray
) -> bool:
    """Prove without sorting that a block holds no late packet.

    The proof holds when every VOQ's block seqs are exactly ``prev_max +
    1 .. prev_max + count`` and its observation keys strictly rise with
    seq: scattering each key to ``voq_start + seq - prev_max - 1`` must
    fill the VOQ's run of the block with a strictly increasing run.  On
    success ``prev_max`` advances by the counts; on failure it is left
    as it was.  ``rel`` stays int64 (``prev_max`` is), which its
    unsigned view needs; ``key`` (nonnegative) is scattered in its own
    dtype, under that dtype's minimum as the hole marker.
    """
    counts = np.bincount(voq, minlength=len(prev_max))
    rel = seq - (prev_max + 1)[voq]
    # One unsigned comparison is ``0 <= rel < count``.
    if not np.all(rel.view(np.uint64) < counts.view(np.uint64)[voq]):
        return False
    starts = np.cumsum(counts) - counts
    rel += starts[voq]
    hole = np.iinfo(key.dtype).min
    ranked = np.full(len(key), hole, dtype=key.dtype)
    ranked[rel] = key
    rising = ranked[1:] > ranked[:-1]
    # A duplicated seq leaves a hole, which fails ``rising`` unless it
    # opens its VOQ's run.
    firsts = starts[counts > 0]
    rising[firsts[1:] - 1] = True
    if not (rising.all() and np.all(ranked[firsts] != hole)):
        return False
    prev_max += counts
    return True


class _ReorderFold:
    """The vectorized :class:`~repro.switching.resequencer.ReorderingDetector`
    over departure blocks: per VOQ in observation order (``departure``,
    or ``wire`` when ``wire_is_rank``), a packet is late iff an
    earlier-observed packet of its VOQ carries a higher sequence number.

    ``prev_max`` carries each VOQ's running max across blocks (windows).
    A block :func:`_in_order` proves reorder-free skips the sort; any
    other block runs the exact sort fold.
    """

    def __init__(self, n: int) -> None:
        self.prev_max = np.full(n * n, -1, dtype=np.int64)
        self.observed = 0
        self.late = 0
        self.displacement = 0

    def add(self, dep: Departures) -> None:
        self.observed += len(dep.voq)
        key = dep.wire if dep.wire_is_rank else dep.departure
        if _in_order(dep.voq, dep.seq, key, self.prev_max):
            return
        order = _voq_observation_order(dep)
        voq = dep.voq[order]
        seq = dep.seq[order]
        del order  # a sorted copy of each column is all the fold needs
        late, prev = _fold_reordering(voq, seq, self.prev_max)
        if late.any():
            self.late += int(late.sum())
            self.displacement = max(
                self.displacement, int(np.max(prev[late] - seq[late]))
            )


class _MetricsAccumulator:
    """Streaming fold of :class:`Departures` into run metrics.

    Consumes departures one finalized window at a time (windows arrive in
    nondecreasing departure order, as the stream kernels guarantee) and
    carries exactly the state the final :class:`SimulationResult` needs:
    scalar delay statistics and their exact sparse histogram, the
    retained samples (observation order), the :class:`_ReorderFold`
    state, and the delay-breakdown sums.  The monolithic path is the
    one-window special case, so both paths share this logic.
    """

    def __init__(self, n: int, warmup: int, keep_samples: bool) -> None:
        self.n = n
        self.warmup = warmup
        self.keep_samples = keep_samples
        self.count = 0
        self.total = 0
        self.total_sq = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None
        self.hist: Dict[int, int] = {}
        self.samples: List[int] = []
        self.reordering = _ReorderFold(n)
        self.has_breakdown = False
        self.assembly_total = 0
        self.input_queue_total = 0
        self.transit_total = 0

    def add(self, dep: Departures) -> None:
        """Fold one finalized window."""
        if len(dep.voq) == 0:
            return
        self.reordering.add(dep)

        # Delay statistics over measured (post-warm-up arrival) packets.
        measured = dep.arrival >= self.warmup
        delays = dep.departure[measured] - dep.arrival[measured]
        if len(delays):
            # The exact sparse delay histogram: integer slot-count delays
            # fold per window, so percentiles stay exact with zero
            # retained per-packet arrays (the fused-metrics path).  Every
            # scalar statistic is read off its nonzero bins.
            bins = np.bincount(delays)
            values = np.flatnonzero(bins)
            counts = bins[values]
            self.count += len(delays)
            weighted = values * counts
            self.total += int(weighted.sum())
            self.total_sq += int(np.dot(weighted, values))
            lo, hi = int(values[0]), int(values[-1])
            self.min = lo if self.min is None else min(self.min, lo)
            self.max = hi if self.max is None else max(self.max, hi)
            hist = self.hist
            for value, cnt in zip(values.tolist(), counts.tolist()):
                hist[value] = hist.get(value, 0) + cnt
        if self.keep_samples:
            # Order-sensitive statistics (MSER truncation, batch means
            # in delay_ci) require the object engine's observation
            # order: departure slot, then the kernel's within-slot
            # tie-break.  Finalized windows never interleave in that
            # order, so per-window sorted blocks concatenate exactly.
            obs = composite_argsort(dep.departure[measured], dep.wire[measured])
            self.samples.extend(delays[obs].tolist())

        if dep.assembled is not None and dep.tx is not None:
            self.has_breakdown = True
            self.assembly_total += int(
                (dep.assembled[measured] - dep.arrival[measured]).sum()
            )
            self.input_queue_total += int(
                (dep.tx[measured] - dep.assembled[measured]).sum()
            )
            self.transit_total += int(
                (dep.departure[measured] - dep.tx[measured]).sum()
            )

    def result(
        self,
        switch_name: str,
        injected: int,
        num_slots: int,
        load_label: float,
        extras: Optional[Dict[str, float]] = None,
    ) -> SimulationResult:
        """Build a :class:`SimulationResult` identical to the object
        engine's."""
        metrics = SimulationMetrics(keep_samples=self.keep_samples)
        stats = metrics.delays
        stats.count = self.count
        stats.total = self.total
        stats.total_sq = self.total_sq
        if self.count:
            stats.min = self.min
            stats.max = self.max
        stats._hist = dict(self.hist)
        if self.keep_samples:
            stats._samples = self.samples
        metrics.measured_departures = self.count

        metrics.reordering.observed = self.reordering.observed
        metrics.reordering.late_packets = self.reordering.late
        metrics.reordering.max_displacement = self.reordering.displacement

        if self.has_breakdown:
            metrics.breakdown_count = self.count
            metrics.assembly_total = self.assembly_total
            metrics.input_queue_total = self.input_queue_total
            metrics.transit_total = self.transit_total

        return SimulationResult(
            switch_name=switch_name,
            n=self.n,
            load=load_label,
            slots=num_slots,
            warmup=self.warmup,
            metrics=metrics,
            injected=injected,
            departed=self.reordering.observed,
            extras=extras,
        )


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def _observe_throughput(span, slots: int, packets: int) -> None:
    """Window-rate observations off a finished span (``span`` is None on
    the disabled path's null handle, making this a no-op)."""
    if span is None or not span.dur_s:
        return
    telemetry.observe("replay.window.slots_per_s", slots / span.dur_s)
    telemetry.observe("replay.window.packets_per_s", packets / span.dur_s)


def _checked_model(switch_name: str, switch_params: Dict) -> "models.SwitchModel":
    """Resolve a switch model and validate vectorized-engine support."""
    model = models.get(switch_name)
    if model.kernel is None:
        known = ", ".join(models.available(engine="vectorized"))
        raise ValueError(
            f"switch {switch_name!r} has no vectorized data path "
            f"(supported: {known}); use the object engine"
        )
    model.validate_params(switch_params)
    unsupported = set(switch_params) - set(model.kernel_params)
    if unsupported:
        raise ValueError(
            f"switch {switch_name!r}: parameters {sorted(unsupported)} are "
            f"not modeled by the vectorized kernel (kernel honors: "
            f"{sorted(model.kernel_params) or 'none'}); use the object "
            f"engine"
        )
    return model


def _replay_whole_run(
    model: "models.SwitchModel",
    batch_traffic: Optional[BatchTrafficGenerator],
    arrivals: Optional[ArrivalBatch],
    matrix: np.ndarray,
    seed: int,
    num_slots: int,
    switch_params: Dict,
) -> Tuple[Departures, Optional[Dict[str, float]], int]:
    """Replay a whole run in one kernel pass: ``arrivals`` when given,
    else a fresh draw from ``batch_traffic``.

    Returns ``(departures, extras, injected)``; a drawn batch dies
    here, before the metrics fold, which reads nothing from it.
    """
    with telemetry.trace(
        "replay.monolithic", switch=model.reported_name, slots=num_slots
    ) as run_span:
        batch = arrivals
        if batch is None:
            with telemetry.trace("traffic.draw"):
                batch = batch_traffic.draw(num_slots)
        with telemetry.trace("kernel.replay"):
            dep, extras = model.kernel(batch, matrix, seed, **switch_params)
        run_span.set(packets=len(batch))
    _observe_throughput(run_span.span, num_slots, len(batch))
    return dep, extras, len(batch)


def run_single_fast(
    switch_name: str,
    matrix,
    num_slots: int,
    seed: int = 0,
    load_label: float = float("nan"),
    warmup_fraction: float = 0.1,
    keep_samples: bool = True,
    batch_traffic: Optional[BatchTrafficGenerator] = None,
    switch_params: Optional[Dict] = None,
    window_slots: Optional[int] = None,
    arrivals: Optional[ArrivalBatch] = None,
) -> SimulationResult:
    """Vectorized counterpart of :func:`repro.sim.experiment.run_single`.

    Same seed discipline (traffic and placement seeds derived identically),
    same measurement conventions (warm-up by arrival slot, ordering checked
    on every departure), same result schema — different internals: the
    whole run is drawn as one arrival batch and replayed by the switch's
    registered kernel (:mod:`repro.sim.kernels`, resolved through
    :mod:`repro.models`).

    ``batch_traffic`` substitutes a pre-built packet source (the scenario
    subsystem passes its nonstationary batch generator here); ``matrix``
    then only provisions the switch (e.g. Sprinklers' placement).
    ``switch_params`` must be parameters the model's kernel declares in
    ``kernel_params`` (this entry point raises rather than falling back).

    ``window_slots`` below ``num_slots`` switches to the *streaming*
    replay: traffic is drawn and replayed in consecutive windows of that
    many slots through the model's resumable stream kernel, producing a
    bit-identical result with O(``window_slots``) peak arrival-array
    memory — the mode for multi-million-slot runs that cannot
    materialize their arrivals at once.  A window covering the whole run
    is the monolithic replay.

    ``arrivals`` is the whole run already drawn (a batch
    :func:`repro.sim.experiment.shared_draws` shares between switches);
    the monolithic replay reads it instead of drawing.
    """
    switch_params = switch_params or {}
    model = _checked_model(switch_name, switch_params)
    if num_slots <= 0:
        raise ValueError("num_slots must be positive")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    if window_slots is not None and window_slots <= 0:
        raise ValueError("window_slots must be positive")
    matrix = validate_matrix(matrix)
    n = matrix.shape[0]
    monolithic = window_slots is None or window_slots >= num_slots
    if arrivals is not None:
        if not monolithic or (arrivals.n, arrivals.num_slots) != (n, num_slots):
            raise ValueError("arrivals must be one whole run of the matrix")
    elif batch_traffic is None:
        batch_traffic = BatchTrafficGenerator(matrix, traffic_rng(seed))
    if batch_traffic is not None and batch_traffic.n != n:
        raise ValueError("batch traffic size does not match matrix")
    acc = _MetricsAccumulator(
        n, int(num_slots * warmup_fraction), keep_samples
    )

    if monolithic:
        dep, extras, injected = _replay_whole_run(
            model, batch_traffic, arrivals, matrix, seed, num_slots,
            switch_params,
        )
        acc.add(dep)
        return acc.result(
            model.reported_name, injected, num_slots, load_label, extras
        )

    # The windowed replay runs through the Stage adapter — the same
    # window-in / finalized-departures-out interface the multi-stage
    # fabrics compose (repro.sim.stage / repro.sim.composite).
    from .stage import KernelStage

    stage = KernelStage(model, matrix, seed, num_slots, switch_params)
    with telemetry.trace(
        "replay.stream",
        switch=model.reported_name,
        slots=num_slots,
        window_slots=window_slots,
    ):
        injected = 0
        windows = telemetry.traced_iter(
            "traffic.draw",
            batch_traffic.draw_chunks(num_slots, window_slots),
        )
        for window in windows:
            injected += len(window)
            with telemetry.trace(
                "replay.window",
                slots=window.num_slots,
                packets=len(window),
            ) as span:
                acc.add(stage.feed(window))
            _observe_throughput(span.span, window.num_slots, len(window))
            telemetry.count("replay.windows")
        with telemetry.trace("replay.finish"):
            final, extras = stage.finish()
            acc.add(final)
    return acc.result(
        model.reported_name, injected, num_slots, load_label, extras
    )


def run_replications_fast(
    switch_name: str, matrix, num_slots: int, seeds: Sequence[int], **kwargs
) -> List[SimulationResult]:
    """:func:`run_single_fast` of each seed, retaining no samples (the
    name ``perf``'s tracer probes)."""
    return [
        run_single_fast(
            switch_name, matrix, num_slots, seed=seed, keep_samples=False,
            **kwargs,
        )
        for seed in seeds
    ]
