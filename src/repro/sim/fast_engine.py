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

Three replay shapes, selected by what the call can observe (window and
seed count), never by a flag:

* **Monolithic** — one seed, one window: ``run_single_fast`` replays the
  whole run through the model's ``kernel`` (the observed-fastest
  one-window path).
* **Windowed (streaming)** — ``run_single_fast(..., window_slots=W)``
  with ``W`` below the run length draws and replays consecutive
  ``W``-slot windows through the model's stream kernel
  (:class:`~repro.sim.kernels.base.StreamKernel`), with bit-identical
  results and O(``W``) peak arrival-array memory instead of O(run).
* **Grouped stacked flush** — :func:`run_replications_fast` replays many
  seeds at once, each group of seeds as one ``finish`` of one
  stream-kernel instance, amortizing the array-setup overheads that
  dominate short replications.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import models, telemetry
from ..sim.metrics import SimulationMetrics, SimulationResult
from ..sim.rng import traffic_rng
from ..traffic.batch import BatchTrafficGenerator
from ..traffic.matrices import validate_matrix
from .kernels.base import Departures, composite_argsort, segmented_running_max
from .kernels import compiled
from .kernels.compiled.fold_pass import fold_running_max

__all__ = [
    "run_single_fast",
    "run_replications_fast",
]


#: Target stacked-event count per seed group in the batched replication
#: path: wide enough to amortize per-call overheads across seeds, small
#: enough that the stacked working set stays cache-resident.  Re-measured
#: once the monolithic kernels freed each per-packet column at its last
#: use, on the ``replicate_short`` benchmark workload (six switches x 32
#: seeds, N=16, 1000 slots, 12 800 events per seed, so 1 << 14 stacks one
#: seed per group; medians of four runs, allocator pinned as in ``perf/``,
#: 2-vCPU Xeon): 1 << 14: 2.41 M packets/s, peak RSS 125.1 MiB (125.0
#: before); 1 << 15: 2.68 M, 132.1 MiB; 1 << 16: 2.77 M, 153.0 MiB.  The
#: stacked flush runs the stream kernels, whose working set is unchanged,
#: so wider groups still buy 10-15 % of the throughput with 6-22 % more
#: memory, and the constant stays.
_STACK_TARGET_EVENTS = 1 << 14


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
    displacement).
    """
    if compiled.ACTIVE:
        prev = np.empty(len(voq), dtype=np.int64)
        fold_running_max(voq, seq, prev_max, prev)
        return prev > seq, prev
    run = segmented_running_max(seq, voq)
    prev = np.empty(len(run), dtype=np.int64)
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


class _MetricsAccumulator:
    """Streaming fold of :class:`Departures` into run metrics.

    Consumes departures one finalized window at a time (windows arrive in
    nondecreasing departure order, as the stream kernels guarantee) and
    carries exactly the state the final :class:`SimulationResult` needs:
    scalar delay statistics, the retained samples (observation order),
    the per-VOQ running max sequence number of the vectorized
    :class:`~repro.switching.resequencer.ReorderingDetector` — a packet
    is late iff an earlier-observed packet of its VOQ carries a higher
    sequence number — and the delay-breakdown sums.  The monolithic path
    is the one-window special case, so both paths share this logic.
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
        self.departed = 0
        self.late = 0
        self.displacement = 0
        self._prev_max = np.full(n * n, -1, dtype=np.int64)
        self.has_breakdown = False
        self.assembly_total = 0
        self.input_queue_total = 0
        self.transit_total = 0

    def add(
        self, dep: Departures, order: Optional[np.ndarray] = None
    ) -> None:
        """Fold one finalized window; ``order`` is the argsort of its
        rows by (VOQ, observation order) when the caller has it already
        (the fabric path derives it from the last stage's)."""
        if len(dep.voq) == 0:
            return
        self.departed += len(dep.voq)
        self._add_reordering(dep, order)

        # Delay statistics over measured (post-warm-up arrival) packets.
        measured = dep.arrival >= self.warmup
        delays = dep.departure[measured] - dep.arrival[measured]
        self.count += int(len(delays))
        self.total += int(delays.sum())
        self.total_sq += int(np.sum(delays * delays))
        if len(delays):
            self.min = (
                int(delays.min()) if self.min is None
                else min(self.min, int(delays.min()))
            )
            self.max = (
                int(delays.max()) if self.max is None
                else max(self.max, int(delays.max()))
            )
            # The exact sparse delay histogram: integer slot-count delays
            # fold per window, so percentiles stay exact with zero
            # retained per-packet arrays (the fused-metrics path).
            hist = self.hist
            values, counts = np.unique(delays, return_counts=True)
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

    def _add_reordering(
        self, dep: Departures, order: Optional[np.ndarray]
    ) -> None:
        """Per VOQ in observation order, a packet is late iff the running
        max sequence number already exceeds its own."""
        if order is None:
            order = _voq_observation_order(dep)
        voq = dep.voq[order]
        seq = dep.seq[order]
        del order  # a sorted copy of each column is all the fold needs
        late, prev = _fold_reordering(voq, seq, self._prev_max)
        if late.any():
            self.late += int(late.sum())
            self.displacement = max(
                self.displacement, int(np.max(prev[late] - seq[late]))
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

        metrics.reordering.observed = self.departed
        metrics.reordering.late_packets = self.late
        metrics.reordering.max_displacement = self.displacement

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
            departed=self.departed,
            extras=extras,
        )


class _StackedMetricsAccumulator:
    """Per-seed metrics from one *stacked* multi-seed departure record.

    The multi-seed replay keeps all seeds in one event block (VOQ ids
    ``seed * n^2 + voq``); folding metrics per seed with segmented
    reductions (``np.add.at`` / ``bincount`` keyed by the seed block)
    costs a handful of stacked passes instead of R per-seed accumulator
    calls plus a split pass — the accounting that used to dominate short
    batched replications.  Sample retention needs per-seed observation
    order, so this path serves ``keep_samples=False`` (what replications
    use); results are identical to the per-seed accumulator.
    """

    def __init__(self, n: int, num_blocks: int, warmup: int) -> None:
        self.n = n
        self.num_blocks = num_blocks
        self.warmup = warmup
        big = np.iinfo(np.int64).max
        self.count = np.zeros(num_blocks, dtype=np.int64)
        self.total = np.zeros(num_blocks, dtype=np.int64)
        self.total_sq = np.zeros(num_blocks, dtype=np.int64)
        self.min = np.full(num_blocks, big, dtype=np.int64)
        self.max = np.full(num_blocks, -1, dtype=np.int64)
        self.hist: List[Dict[int, int]] = [{} for _ in range(num_blocks)]
        self.departed = np.zeros(num_blocks, dtype=np.int64)
        self.late = np.zeros(num_blocks, dtype=np.int64)
        self.displacement = np.zeros(num_blocks, dtype=np.int64)
        self._prev_max = np.full(num_blocks * n * n, -1, dtype=np.int64)
        self.has_breakdown = False
        self.assembly_total = np.zeros(num_blocks, dtype=np.int64)
        self.input_queue_total = np.zeros(num_blocks, dtype=np.int64)
        self.transit_total = np.zeros(num_blocks, dtype=np.int64)

    @staticmethod
    def _segment_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """Exact int64 per-segment sums via one padded prefix sum."""
        prefix = np.concatenate(([0], np.cumsum(values)))
        return prefix[bounds[1:]] - prefix[bounds[:-1]]

    def add(self, dep: Departures) -> None:
        """Fold a stacked record (``dep.voq`` seed-extended)."""
        if len(dep.voq) == 0:
            return
        n2 = self.n * self.n

        # One (voq, observation) sort serves double duty: it is the
        # reordering-detector order AND it groups events by seed block
        # (block is the VOQ id's high digits), so every per-seed
        # statistic below folds with prefix sums over block slices —
        # no scattered np.add.at passes.
        order = _voq_observation_order(dep)
        voq = dep.voq[order]
        seq = dep.seq[order]
        block = voq // n2
        bounds = np.searchsorted(block, np.arange(self.num_blocks + 1))
        self.departed += bounds[1:] - bounds[:-1]

        late, prev = _fold_reordering(voq, seq, self._prev_max)
        if late.any():
            late_block = block[late]
            np.add.at(self.late, late_block, 1)
            np.maximum.at(
                self.displacement, late_block, prev[late] - seq[late]
            )

        measured = (dep.arrival >= self.warmup)[order].astype(np.int64)
        arrival = dep.arrival[order]
        departure = dep.departure[order]
        delays = (departure - arrival) * measured
        self.count += self._segment_sums(measured, bounds)
        self.total += self._segment_sums(delays, bounds)
        self.total_sq += self._segment_sums(delays * delays, bounds)
        is_measured = measured.astype(bool)
        np.minimum.at(
            self.min, block[is_measured], delays[is_measured]
        )
        np.maximum.at(
            self.max, block[is_measured], delays[is_measured]
        )
        if is_measured.any():
            # Per-seed exact delay histograms in one stacked unique pass
            # (composite key: block * stride + delay).
            mdelays = delays[is_measured]
            stride = int(mdelays.max()) + 1
            values, counts = np.unique(
                block[is_measured] * stride + mdelays, return_counts=True
            )
            for key, cnt in zip(values.tolist(), counts.tolist()):
                h = self.hist[key // stride]
                delay = key % stride
                h[delay] = h.get(delay, 0) + cnt

        if dep.assembled is not None and dep.tx is not None:
            self.has_breakdown = True
            assembled = dep.assembled[order]
            tx = dep.tx[order]
            self.assembly_total += self._segment_sums(
                (assembled - arrival) * measured, bounds
            )
            self.input_queue_total += self._segment_sums(
                (tx - assembled) * measured, bounds
            )
            self.transit_total += self._segment_sums(
                (departure - tx) * measured, bounds
            )

    def results(
        self,
        switch_name: str,
        injected: Sequence[int],
        num_slots: int,
        load_label: float,
        extras: Sequence[Optional[Dict[str, float]]],
    ) -> List[SimulationResult]:
        out = []
        for b in range(self.num_blocks):
            metrics = SimulationMetrics(keep_samples=False)
            stats = metrics.delays
            stats.count = int(self.count[b])
            stats.total = int(self.total[b])
            stats.total_sq = int(self.total_sq[b])
            if stats.count:
                stats.min = int(self.min[b])
                stats.max = int(self.max[b])
            stats._hist = dict(self.hist[b])
            metrics.measured_departures = stats.count
            metrics.reordering.observed = int(self.departed[b])
            metrics.reordering.late_packets = int(self.late[b])
            metrics.reordering.max_displacement = int(self.displacement[b])
            if self.has_breakdown:
                metrics.breakdown_count = stats.count
                metrics.assembly_total = int(self.assembly_total[b])
                metrics.input_queue_total = int(self.input_queue_total[b])
                metrics.transit_total = int(self.transit_total[b])
            out.append(
                SimulationResult(
                    switch_name=switch_name,
                    n=self.n,
                    load=load_label,
                    slots=num_slots,
                    warmup=self.warmup,
                    metrics=metrics,
                    injected=int(injected[b]),
                    departed=int(self.departed[b]),
                    extras=extras[b],
                )
            )
        return out


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
    batch_traffic: BatchTrafficGenerator,
    matrix: np.ndarray,
    seed: int,
    num_slots: int,
    switch_params: Dict,
) -> Tuple[Departures, Optional[Dict[str, float]], int]:
    """Draw a whole run and replay it in one kernel pass.

    Returns ``(departures, extras, injected)``; the arrival batch dies
    here, before the metrics fold, which reads nothing from it.
    """
    with telemetry.trace(
        "replay.monolithic", switch=model.reported_name, slots=num_slots
    ) as run_span:
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
    if batch_traffic is None:
        batch_traffic = BatchTrafficGenerator(matrix, traffic_rng(seed))
    if batch_traffic.n != n:
        raise ValueError("batch traffic size does not match matrix")
    acc = _MetricsAccumulator(
        n, int(num_slots * warmup_fraction), keep_samples
    )

    if window_slots is None or window_slots >= num_slots:
        dep, extras, injected = _replay_whole_run(
            model, batch_traffic, matrix, seed, num_slots, switch_params
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
    switch_name: str,
    matrix,
    num_slots: int,
    seeds: Sequence[int],
    load_label: float = float("nan"),
    warmup_fraction: float = 0.1,
    batch_traffics: Optional[Sequence[BatchTrafficGenerator]] = None,
    switch_params: Optional[Dict] = None,
) -> List[SimulationResult]:
    """Replay many seeds of one configuration in stacked kernel passes.

    Each seed's traffic is drawn for the whole run and a group of seeds
    is stacked into one event block; the switch's stream kernel replays
    the stack in a single ``finish`` with a leading seed axis (disjoint
    per-seed id blocks, so the seeds' dynamics stay exactly independent
    — the frame-at-a-time PF/FOFF included: their array-stepped
    formation engine treats each (seed, input) pair as one more lane, so
    stacking seeds widens the per-cycle vector step instead of
    multiplying the step count) and the per-seed metrics fold with
    segmented reductions over the stack.  Per-seed results are
    bit-identical to ``run_single_fast(..., keep_samples=False)`` run
    seed-by-seed — what changes is wall-clock: one array pass over a
    group's events amortizes the per-call overheads that dominate short
    replications.

    ``batch_traffics`` substitutes pre-built per-seed packet sources (one
    per seed, e.g. scenario traffic).
    """
    switch_params = switch_params or {}
    model = _checked_model(switch_name, switch_params)
    if num_slots <= 0:
        raise ValueError("num_slots must be positive")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    matrix = validate_matrix(matrix)
    n = matrix.shape[0]
    seeds = list(seeds)
    if batch_traffics is None:
        batch_traffics = [
            BatchTrafficGenerator(matrix, traffic_rng(seed))
            for seed in seeds
        ]
    if len(batch_traffics) != len(seeds):
        raise ValueError("need one traffic source per seed")
    for traffic in batch_traffics:
        if traffic.n != n:
            raise ValueError("batch traffic size does not match matrix")

    warmup = int(num_slots * warmup_fraction)
    # Seeds are stacked in cache-sized groups: stacking amortizes
    # per-call overheads, but an over-wide stack spills the working
    # set out of cache and loses more than it amortizes.
    per_seed = max(1.0, float(np.sum(matrix)) * num_slots)
    group = max(1, min(len(seeds), int(_STACK_TARGET_EVENTS / per_seed)))
    results: List[SimulationResult] = []
    for lo in range(0, len(seeds), group):
        chunk = seeds[lo : lo + group]
        with telemetry.trace(
            "replay.seed_batch", seeds=len(chunk), slots=num_slots
        ):
            streamer = model.stream_kernel(
                matrix, chunk, num_slots, **switch_params
            )
            batches = [
                t.draw(num_slots)
                for t in batch_traffics[lo : lo + group]
            ]
            dep, extras = streamer.finish(batches)
            acc = _StackedMetricsAccumulator(n, len(chunk), warmup)
            acc.add(dep)
        results.extend(
            acc.results(
                model.reported_name,
                [len(b) for b in batches],
                num_slots,
                load_label,
                extras,
            )
        )
    return results
