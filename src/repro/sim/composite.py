"""Multi-stage fabric execution: chained Stage replay with per-stage metrics.

This is the runtime behind :mod:`repro.models.composite`: it runs a
:class:`~repro.models.FabricSpec` end to end by chaining
:class:`~repro.sim.stage.Stage` adapters — stage-k finalized departures
become stage-(k+1) arrival windows through the link's port map — while
attributing metrics both per stage and end to end.

Coupling model
--------------
Routing is destination-preserving: a packet for final output ``d`` exits
every stage at port ``d`` and enters the next stage at input ``map[d]``.
A finalized departure at slot ``t`` is re-injected at arrival slot ``t``
downstream.  Within the coupled window, downstream arrivals are ordered
by ``(slot, input, wire)``: the slot/input order is the arrival order
the traffic generators pin (per-slot lists sorted by input port) and the
``wire`` tie-break is the upstream stage's own within-slot observation
order — a *window-invariant* key, so the streamed replay couples packets
in exactly the order the monolithic replay does and the chain stays
bit-identical under any ``window_slots``.

Downstream sequence numbers are assigned per VOQ at coupling time (the
downstream stage's reordering detector watches the *link* order, exactly
as a real wire would deliver).  A pending-identity table keyed by the
downstream ``(voq, seq)`` carries each packet's original identity — VOQ,
sequence number, arrival slot — across the stage, so per-stage delays
can be gated on the *original* arrival's warm-up and the end-to-end
record can be reassembled at the final outputs.  Because stage-(k+1)
arrival slot equals stage-k departure slot, per-packet delays telescope:
the end-to-end delay is exactly the sum of the per-stage delays, and the
per-stage mean decomposition (``stage{k}_mean_delay`` extras) sums to
the end-to-end mean whenever every stage delivers every measured packet.

Memory stays O(window + in-flight): each window is drawn, replayed
through every stage, folded into accumulators and dropped; only the
pending identities of packets still inside the fabric are carried.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .. import telemetry
from ..models.composite import (
    CompositeSwitchModel,
    FabricSpec,
    resolve_fabric,
)
from ..traffic.batch import (
    ArrivalBatch,
    BatchTrafficGenerator,
    stable_id_argsort,
)
from ..traffic.matrices import validate_matrix
from .fast_engine import _observe_throughput
from .kernels.base import Departures, composite_argsort, concat_ranges
from .metrics import SimulationResult, _MetricsAccumulator, _ReorderFold
from .rng import derive_seed, traffic_rng
from .stage import KernelStage, ObjectStage, Stage

__all__ = ["run_fabric", "build_stages"]


def _stage_seed(seed: int, k: int) -> int:
    """Stage-k seed: stage 0 keeps the run seed (a single-stage identity
    fabric is bit-identical to the plain run); later stages derive."""
    return seed if k == 0 else derive_seed(seed, f"fabric-stage-{k}")


def build_stages(
    composite: CompositeSwitchModel,
    matrix: np.ndarray,
    num_slots: int,
    seed: int,
    engine: str,
) -> List[Stage]:
    """Instantiate one :class:`Stage` per fabric stage for ``engine``.

    Each stage is provisioned from its own derived traffic matrix
    (:func:`repro.models.composite.stage_matrices`) and seed.  The
    vectorized engine wraps each stage's stream kernel in a
    :class:`KernelStage`; the object engine builds the real switch
    instance behind an :class:`ObjectStage`.
    """
    mats = composite.stage_matrices(matrix)
    stages: List[Stage] = []
    for k, (model, params, stage_matrix) in enumerate(
        zip(composite.models, composite.stage_params, mats)
    ):
        seed_k = _stage_seed(seed, k)
        label = f"stage{k}.{model.name}"
        if engine == "vectorized":
            stages.append(
                KernelStage(
                    model, stage_matrix, seed_k, num_slots, params,
                    label=label,
                )
            )
        else:
            n = stage_matrix.shape[0]
            switch = model.build(n, stage_matrix, seed_k, **params)
            stages.append(ObjectStage(switch, num_slots, label=label))
    return stages


class _LinkCoupler:
    """One inter-stage link: departures in, arrival windows out.

    Owns the link's per-VOQ sequence numbering and the pending-identity
    table of packets currently inside the downstream stage.  The table
    is direct-indexed: its rows are (VOQ, link seq)-sorted and every
    VOQ's rows carry consecutive sequence numbers starting at
    ``_base[voq]``, so ``(voq, seq)`` names a row without a search.  A
    row whose packet has left stays behind as a tombstone (``_gone``)
    until every earlier row of its VOQ has left too — which is at once
    for a downstream stage that keeps VOQ order.
    """

    def __init__(self, n: int, mapped: np.ndarray) -> None:
        self.n = n
        if mapped.shape != (n,):
            raise ValueError(
                f"port map has {len(mapped)} entries for a {n}-port link "
                f"(stage sizes must match across the chain)"
            )
        # Destination-preserving routing, tabulated per upstream VOQ id:
        # the packet keeps its output and enters at ``mapped[output]``.
        self._outputs = np.arange(n * n) % n
        self._inputs = mapped[self._outputs]
        self._base = np.zeros(n * n, dtype=np.int64)  # seq of first row
        self._held = np.zeros(n * n, dtype=np.int64)  # rows per VOQ
        self._orig = tuple(np.empty(0, dtype=np.int64) for _ in range(3))
        self._gone = np.empty(0, dtype=bool)

    def link_order(self, dep: Departures) -> np.ndarray:
        """Link delivery order of ``dep``: ``(slot, input, wire)``.

        Within one slot a stage emits at most one packet per output, so
        inputs are distinct and the wire tie-break only orders
        multi-release stages (FOFF), where wire is the global
        observation rank — either way the key is window-invariant, and
        ``(departure, wire)`` pairs are unique, so one packed sort is
        exact.
        """
        return composite_argsort(
            dep.departure * np.int64(self.n) + self._inputs[dep.voq], dep.wire
        )

    def _starts(self) -> np.ndarray:
        """First table row of every VOQ."""
        return np.cumsum(self._held) - self._held

    def couple(
        self,
        dep: Departures,
        orig: Tuple[np.ndarray, np.ndarray, np.ndarray],
        start_slot: int,
        end_slot: int,
    ) -> ArrivalBatch:
        """Turn finalized upstream departures, rows in :meth:`link_order`,
        into the downstream arrival window ``[start_slot, end_slot)``."""
        n = self.n
        outputs = self._outputs[dep.voq]
        inputs = self._inputs[dep.voq]
        voqs = inputs * n + outputs
        # Held rows first, new ones in link order: one stable radix pass
        # by VOQ keeps the table (VOQ, seq)-sorted, and a new row's place
        # in its VOQ's run is its link sequence number (the downstream
        # reordering detector watches the link order, as a wire would
        # deliver).
        held = len(self._gone)
        order = stable_id_argsort(
            np.concatenate((np.repeat(np.arange(n * n), self._held), voqs)),
            n * n,
        )
        self._orig = tuple(
            np.concatenate(pair)[order] for pair in zip(self._orig, orig)
        )
        self._gone = np.concatenate(
            (self._gone, np.zeros(len(voqs), dtype=bool))
        )[order]
        self._held += np.bincount(voqs, minlength=n * n)
        rows = np.empty(len(order), dtype=np.int64)
        rows[order] = np.arange(len(order), dtype=np.int64)
        seqs = rows[held:] - (self._starts() - self._base)[voqs]
        return ArrivalBatch.of(
            n=n,
            num_slots=end_slot - start_slot,
            slots=dep.departure,
            inputs=inputs,
            outputs=outputs,
            seqs=seqs,
            start_slot=start_slot,
        )

    def join(
        self, dep: Departures
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Original identities (voq, seq, arrival) of the downstream
        departures, aligned to ``dep``; drops them from the table."""
        starts = self._starts()
        offset = dep.seq - self._base[dep.voq]
        rows = starts[dep.voq] + offset
        before = self.pending
        if not np.any((offset < 0) | (offset >= self._held[dep.voq])):
            self._gone[rows] = True
        pending = np.flatnonzero(~self._gone)
        if before - len(pending) != len(rows):
            raise RuntimeError(
                "downstream departure without a pending identity — "
                "stage emitted a packet it was never fed, or twice"
            )
        orig = tuple(a[rows] for a in self._orig)
        # Drop every VOQ's leading tombstones; its run restarts at its
        # first pending row (at its end if none is left).
        first = np.minimum(
            np.append(pending, len(self._gone))[
                np.searchsorted(pending, starts)
            ],
            starts + self._held,
        )
        self._base += first - starts
        self._held -= first - starts
        keep = concat_ranges(first, self._held)
        self._orig = tuple(a[keep] for a in self._orig)
        self._gone = self._gone[keep]
        return orig

    @property
    def pending(self) -> int:
        """Packets currently inside the downstream stage."""
        return len(self._gone) - int(np.count_nonzero(self._gone))


class _StageStats:
    """Per-stage fold: reordering at the stage's outputs, delay sums
    gated on the packet's *original* (fabric-ingress) warm-up."""

    def __init__(self, n: int) -> None:
        self.reordering = _ReorderFold(n)
        self.delay_total = 0
        self.measured = 0

    def add(self, dep: Departures, measured: np.ndarray) -> None:
        if len(dep.voq) == 0:
            return
        self.reordering.add(dep)
        delays = (dep.departure - dep.arrival)[measured]
        self.delay_total += int(delays.sum())
        self.measured += int(len(delays))

    def extras(self, k: int) -> Dict[str, float]:
        mean = (
            self.delay_total / self.measured if self.measured else float("nan")
        )
        return {
            f"stage{k}_mean_delay": mean,
            f"stage{k}_measured": float(self.measured),
            f"stage{k}_observed": float(self.reordering.observed),
            f"stage{k}_late_packets": float(self.reordering.late),
            f"stage{k}_max_displacement": float(self.reordering.displacement),
        }


def _reordered(
    dep: Departures, orig: Tuple[np.ndarray, ...], order: np.ndarray
) -> Tuple[Departures, Tuple[np.ndarray, ...]]:
    """A departure block and its aligned original identities with rows
    taken in ``order`` — an observation order, so ``wire`` becomes the
    row's rank in the block."""
    own = orig[0] is dep.voq  # stage 0: the block is its own identity
    dep = Departures(
        voq=dep.voq[order],
        seq=dep.seq[order],
        arrival=dep.arrival[order],
        departure=dep.departure[order],
        wire=np.arange(len(order), dtype=dep.departure.dtype),
        wire_is_rank=True,
    )
    if own:
        return dep, (dep.voq, dep.seq, dep.arrival)
    return dep, tuple(a[order] for a in orig)


class _FabricRun:
    """One fabric execution: windows in, a :class:`SimulationResult` out.

    Drives the stage chain window by window (:meth:`feed`) and flushes
    it (:meth:`finish`), folding three views as it goes: per-stage
    reordering/delay stats, each stage's extras, and the end-to-end
    record — synthetic :class:`Departures` carrying the *original*
    identity with the last stage's departure slot and observation keys
    — into the same :class:`_MetricsAccumulator` single-switch runs use.
    Every reordering view is a :class:`_ReorderFold` fed the block's
    own observation keys, so no caller sorts for it.
    """

    def __init__(
        self,
        composite: CompositeSwitchModel,
        matrix: np.ndarray,
        num_slots: int,
        seed: int,
        warmup: int,
        keep_samples: bool,
        engine: str,
    ) -> None:
        n = matrix.shape[0]
        self.n = n
        self.warmup = warmup
        self.stages = build_stages(composite, matrix, num_slots, seed, engine)
        maps = composite.port_maps(n)
        self.couplers = [_LinkCoupler(n, m) for m in maps]
        self.stats = [_StageStats(n) for _ in self.stages]
        self.stage_extras: List[Optional[Dict]] = [None] * len(self.stages)
        self.e2e = _MetricsAccumulator(n, warmup, keep_samples)
        self._boundary = 0

    def feed(self, window: ArrivalBatch) -> None:
        start, end = self._boundary, window.end_slot
        self._boundary = end
        self._cascade(self.stages[0].feed(window), start, end, final=False)

    def finish(self, window: Optional[ArrivalBatch] = None) -> None:
        start = self._boundary
        end = window.end_slot if window is not None else start
        dep, extras = self.stages[0].finish(window)
        self.stage_extras[0] = extras
        self._cascade(dep, start, end, final=True)

    def _cascade(
        self, dep: Departures, start: int, end: int, final: bool
    ) -> None:
        orig = (dep.voq, dep.seq, dep.arrival)
        for k, stats in enumerate(self.stats):
            if k == len(self.stages) - 1:
                with telemetry.trace("fabric.fold", stage=k):
                    self._fold_last(dep, orig)
                return
            coupler = self.couplers[k]
            win_end = end
            if final:
                # The drain tail can depart past the last window cut;
                # stretch the final coupled window to cover it.
                win_end = max(end, start)
                if len(dep.voq):
                    win_end = max(win_end, int(dep.departure.max()) + 1)
            with telemetry.trace("fabric.couple", link=k):
                dep, orig = _reordered(dep, orig, coupler.link_order(dep))
                win = coupler.couple(dep, orig, start, win_end)
            with telemetry.trace("fabric.fold", stage=k):
                stats.add(dep, orig[2] >= self.warmup)
            del dep, orig  # a window of arrays the next stage need not hold
            if final:
                dep, extras = self.stages[k + 1].finish(win)
                self.stage_extras[k + 1] = extras
            else:
                dep = self.stages[k + 1].feed(win)
            with telemetry.trace("fabric.join", link=k):
                orig = coupler.join(dep)
            if telemetry.enabled():
                # Occupancy of the downstream stage after this window's
                # join: the packets still inside the fabric on this link.
                telemetry.set_gauge(
                    f"fabric.in_flight.stage{k + 1}", coupler.pending
                )

    def _fold_last(
        self, dep: Departures, orig: Tuple[np.ndarray, ...]
    ) -> None:
        """The last stage's window: its own stats, and the end-to-end
        record — its departures under their original identity."""
        self.stats[-1].add(dep, orig[2] >= self.warmup)
        self.e2e.add(
            Departures(
                voq=orig[0],
                seq=orig[1],
                arrival=orig[2],
                departure=dep.departure,
                wire=dep.wire,
                wire_is_rank=dep.wire_is_rank,
            )
        )

    def result(
        self,
        reported_name: str,
        injected: int,
        num_slots: int,
        load_label: float,
    ) -> SimulationResult:
        stuck = sum(c.pending for c in self.couplers)
        extras: Dict[str, float] = {"stages": float(len(self.stages))}
        if stuck:
            extras["in_fabric"] = float(stuck)
        for k, stats in enumerate(self.stats):
            extras.update(stats.extras(k))
            for key, value in (self.stage_extras[k] or {}).items():
                extras[f"stage{k}_{key}"] = float(value)
        return self.e2e.result(
            reported_name, injected, num_slots, load_label, extras
        )


def run_fabric(
    fabric: Union[str, Dict, FabricSpec],
    matrix,
    num_slots: int,
    seed: int = 0,
    load_label: float = float("nan"),
    warmup_fraction: float = 0.1,
    keep_samples: bool = True,
    engine: str = "vectorized",
    batch_traffic: Optional[BatchTrafficGenerator] = None,
    window_slots: Optional[int] = None,
) -> SimulationResult:
    """Run a multi-stage fabric; the composite analogue of
    :func:`repro.sim.experiment.run_single` /
    :func:`repro.sim.fast_engine.run_single_fast`.

    ``fabric`` is a registered fabric name, a spec dict, or a
    :class:`~repro.models.FabricSpec`.  Seed discipline matches the
    single-switch runs (traffic stream derived from ``seed``; stage 0
    keeps the run seed, later stages derive per-stage child seeds), so a
    single-stage identity fabric reproduces ``run_single_fast``
    bit-for-bit.  ``window_slots`` streams the whole chain — every stage
    advances window by window, so peak arrival memory is O(window), and
    results are bit-identical to the monolithic replay.  ``engine`` is
    ``"vectorized"`` (every stage must have a stream kernel) or
    ``"object"`` (any registered switch; same coupling, object switches
    behind :class:`~repro.sim.stage.ObjectStage`).

    The result is labeled with the fabric name and carries per-stage
    extras: ``stage{k}_mean_delay`` (gated on fabric-ingress warm-up, so
    the stage means sum to the end-to-end mean), ``stage{k}_observed`` /
    ``stage{k}_late_packets`` / ``stage{k}_max_displacement`` (the
    stage-local reordering view), plus each stage's own kernel extras
    under the same prefix.
    """
    spec = resolve_fabric(fabric)
    composite = CompositeSwitchModel(spec)
    if engine not in ("object", "vectorized"):
        raise ValueError(
            f"unknown engine {engine!r}; known: object, vectorized"
        )
    if engine == "vectorized":
        composite.require_engine("vectorized")
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

    warmup = int(num_slots * warmup_fraction)
    run = _FabricRun(
        composite, matrix, num_slots, seed, warmup, keep_samples, engine
    )
    with telemetry.trace(
        "replay.fabric",
        fabric=composite.reported_name,
        stages=len(spec.stages),
        slots=num_slots,
        window_slots=window_slots,
    ):
        if window_slots is None or window_slots >= num_slots:
            with telemetry.trace("traffic.draw"):
                batch = batch_traffic.draw(num_slots)
            injected = len(batch)
            with telemetry.trace("fabric.finish"):
                run.finish(batch)
        else:
            injected = 0
            windows = telemetry.traced_iter(
                "traffic.draw",
                batch_traffic.draw_chunks(num_slots, window_slots),
            )
            for window in windows:
                injected += len(window)
                with telemetry.trace(
                    "fabric.window",
                    slots=window.num_slots,
                    packets=len(window),
                ) as span:
                    run.feed(window)
                _observe_throughput(span.span, window.num_slots, len(window))
                telemetry.count("replay.windows")
            with telemetry.trace("fabric.finish"):
                run.finish()
    return run.result(
        composite.reported_name, injected, num_slots, load_label
    )
