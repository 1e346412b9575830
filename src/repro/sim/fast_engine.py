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
oracle because it exercises the real data-path code.  Both engines fold
their departures through the one metrics fold
(:class:`repro.sim.metrics._MetricsAccumulator`), so they differ only in
how departures are produced.

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
from ..traffic.batch import ArrivalBatch, BatchTrafficGenerator
from ..traffic.matrices import validate_matrix
from .kernels.base import Departures
from .metrics import SimulationResult, _MetricsAccumulator
from .rng import traffic_rng

__all__ = [
    "run_single_fast",
    "run_replications_fast",
]

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
