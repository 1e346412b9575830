"""Measurement for switch simulations: the one metrics fold.

Every engine folds its departures the same way.  The object engine
(:mod:`repro.sim.engine`) collects the packets a switch releases into
:class:`~repro.sim.kernels.base.Departures` blocks; the vectorized
replay (:mod:`repro.sim.fast_engine`) and the fabric chain
(:mod:`repro.sim.composite`) produce such blocks directly.  Each block
goes into :class:`_MetricsAccumulator`, which carries exactly what a
:class:`SimulationResult` reports: the average delay of Figs. 6-7, its
exact histogram and percentiles, the reordering counts the paper's
claims rest on (zero for Sprinklers/UFS/PF), and the delay breakdown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

import numpy as np

from .kernels import compiled
from .kernels.base import Departures, composite_argsort, segmented_running_max
from .kernels.compiled.fold_pass import fold_running_max

__all__ = ["SimulationResult", "histogram_percentile"]


def histogram_percentile(hist: Dict[int, int], q: float) -> float:
    """The exact ``q``-th percentile (0..100) of an exact delay
    histogram (delay -> count); NaN when it is empty.

    Matches ``np.percentile`` (linear interpolation) on the same data,
    two-sided lerp included, so runs that retain samples and runs that
    do not report identical values.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    values = sorted(hist)
    seen = np.cumsum([hist[value] for value in values], dtype=np.int64)
    count = int(seen[-1]) if values else 0
    if count == 0:
        return math.nan
    rank = (q / 100.0) * (count - 1)
    target_lo = int(rank)
    frac = rank - target_lo
    # The first values with more than ``target`` delays at or below them.
    lo_val, hi_val = (
        values[int(np.searchsorted(seen, target, side="right"))]
        for target in (target_lo, min(target_lo + 1, count - 1))
    )
    # np.percentile's two-sided lerp: interpolate from whichever
    # endpoint is nearer, reproducing its rounding exactly.
    if frac >= 0.5:
        return hi_val - (hi_val - lo_val) * (1.0 - frac)
    return lo_val + (hi_val - lo_val) * frac


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

    Consumes departures one finalized block at a time (blocks arrive in
    nondecreasing departure order, as the object engine and the stream
    kernels guarantee) and carries exactly the state the final
    :class:`SimulationResult` reads: the exact sparse delay histogram
    (every delay statistic is read off it), the retained samples
    (observation order), the :class:`_ReorderFold` state, and the
    delay-breakdown sums.  A monolithic replay is the one-block special
    case.
    """

    def __init__(self, n: int, warmup: int, keep_samples: bool) -> None:
        self.n = n
        self.warmup = warmup
        self.keep_samples = keep_samples
        self.hist: Dict[int, int] = {}
        self.samples: List[int] = []
        self.reordering = _ReorderFold(n)
        self.has_breakdown = False
        self.assembly_total = 0
        self.input_queue_total = 0
        self.transit_total = 0

    def add(self, dep: Departures) -> None:
        """Fold one finalized block."""
        if len(dep.voq) == 0:
            return
        self.reordering.add(dep)

        # Delay statistics over measured (post-warm-up arrival) packets.
        measured = dep.arrival >= self.warmup
        delays = dep.departure[measured] - dep.arrival[measured]
        if len(delays):
            # The exact sparse delay histogram: integer slot-count delays
            # fold per block, so every statistic stays exact with zero
            # retained per-packet arrays (the fused-metrics path).
            bins = np.bincount(delays)
            values = np.flatnonzero(bins)
            counts = bins[values]
            hist = self.hist
            for value, cnt in zip(values.tolist(), counts.tolist()):
                hist[value] = hist.get(value, 0) + cnt
        if self.keep_samples:
            # Order-sensitive statistics (MSER truncation, batch means
            # in delay_ci) require the object engine's observation
            # order: departure slot, then the within-slot tie-break.
            # Finalized blocks never interleave in that order, so
            # per-block sorted samples concatenate exactly.
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
        """The run's :class:`SimulationResult`; stamped runs add the
        mean ``assembly`` (until the stripe/frame/grant forms),
        ``input_queue`` (until fabric 1) and ``transit`` stage delays to
        ``extras``, which sum to the mean delay."""
        extras = dict(extras or {})
        hist = self.hist
        count = sum(hist.values())
        if self.has_breakdown and count:
            extras["mean_assembly_delay"] = self.assembly_total / count
            extras["mean_input_queue_delay"] = self.input_queue_total / count
            extras["mean_transit_delay"] = self.transit_total / count
        return SimulationResult(
            switch_name=switch_name,
            n=self.n,
            load=load_label,
            slots=num_slots,
            warmup=self.warmup,
            mean_delay=(
                sum(d * c for d, c in hist.items()) / count
                if count else math.nan
            ),
            p50_delay=histogram_percentile(hist, 50),
            p99_delay=histogram_percentile(hist, 99),
            max_delay=max(hist) if hist else None,
            measured_packets=count,
            late_packets=self.reordering.late,
            max_displacement=self.reordering.displacement,
            injected=injected,
            departed=self.reordering.observed,
            extras=extras,
            _delay_histogram=dict(hist),
            _delay_samples=self.samples,
        )


@dataclass(eq=False)
class SimulationResult:
    """Summary of one simulation run (one switch, one workload, one seed).

    Built by the metrics fold (:meth:`_MetricsAccumulator.result`) or
    rebuilt from its stored form (:meth:`from_dict`).  Percentiles come
    from the exact histogram, so they are exact whether or not
    per-packet samples were retained.
    """

    switch_name: str
    n: int
    load: float
    slots: int
    warmup: int
    mean_delay: float
    p50_delay: float
    p99_delay: float
    max_delay: Optional[int]
    measured_packets: int
    late_packets: int
    max_displacement: int
    injected: int
    departed: int
    extras: Dict = field(default_factory=dict)
    _delay_histogram: Dict[int, int] = field(default_factory=dict)
    _delay_samples: List[int] = field(default_factory=list)

    @property
    def is_ordered(self) -> bool:
        """Whether the run saw zero out-of-order departures."""
        return self.late_packets == 0

    def delay_ci(self, batches: int = 20, confidence: float = 0.95):
        """Batch-means confidence interval for the mean delay.

        Requires the run to have retained samples (``keep_samples=True``).
        Applies MSER warm-up truncation first, then batch means; returns a
        :class:`repro.sim.stats.BatchMeansResult`.
        """
        from .stats import batch_means, mser_truncation

        if not self._delay_samples:
            raise ValueError(
                "no retained delay samples (run with keep_samples=True)"
            )
        cut = mser_truncation(self._delay_samples)
        return batch_means(
            self._delay_samples[cut:], batches=batches, confidence=confidence
        )

    @property
    def throughput(self) -> float:
        """Departed packets per slot over the whole run (incl. warm-up)."""
        if self.slots == 0:
            return math.nan
        return self.departed / self.slots

    def to_dict(self, include_samples: bool = True) -> Dict:
        """Full lossless dict form (the experiment store's payload).

        Unlike :meth:`as_row` this captures *everything* needed to
        reconstruct the result object, so a cache hit is
        indistinguishable from a recomputation.  The exact delay
        histogram is always included; ``include_samples=False`` omits
        the (much larger) per-packet sample array — the serialization
        policy for runs that never retained samples in the first place
        and for service result streams.
        """
        data = {name: getattr(self, name) for name in _SCALARS}
        data["extras"] = dict(self.extras)
        data["delay_histogram"] = [
            [delay, count]
            for delay, count in sorted(self._delay_histogram.items())
        ]
        if include_samples:
            data["delay_samples"] = list(self._delay_samples)
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "SimulationResult":
        """Rebuild a result from :meth:`to_dict` output (no metrics pass)."""
        return cls(
            **{name: data[name] for name in _SCALARS},
            extras=dict(data.get("extras") or {}),
            # JSON decodes each ``[delay, count]`` pair to two ints
            # already; ``dict`` builds the histogram from them in C.
            _delay_histogram=dict(data.get("delay_histogram") or ()),
            _delay_samples=list(data.get("delay_samples") or ()),
        )

    def as_row(self) -> Dict[str, float]:
        """Flatten to a plain dict (for tables / CSV)."""
        row = {
            "switch": self.switch_name,
            "n": self.n,
            "load": self.load,
            "slots": self.slots,
            "mean_delay": self.mean_delay,
            "p50_delay": self.p50_delay,
            "p99_delay": self.p99_delay,
            "measured_packets": self.measured_packets,
            "late_packets": self.late_packets,
            "throughput": self.throughput,
        }
        # Rows are flat scalar tables; nested extras (the "telemetry"
        # capture payload) stay on the result object only.
        row.update(
            {k: v for k, v in self.extras.items() if not isinstance(v, dict)}
        )
        return row

    def __repr__(self) -> str:
        return (
            f"SimulationResult({self.switch_name}, n={self.n}, "
            f"load={self.load}, mean_delay={self.mean_delay:.1f}, "
            f"late={self.late_packets})"
        )


#: The scalar fields of a result, in their serialized order.
_SCALARS = tuple(f.name for f in fields(SimulationResult))[:-3]
