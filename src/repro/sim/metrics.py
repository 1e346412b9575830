"""Measurement instruments for switch simulations.

Collects exactly the quantities the paper's evaluation reports (average
delay, Figs. 6-7) plus the diagnostics the claims rest on: reordering
counts (must be zero for Sprinklers/UFS/PF), throughput, and queue-depth
telemetry for stability checks.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from ..switching.packet import Packet
from ..switching.resequencer import ReorderingDetector

__all__ = ["DelayStats", "SimulationMetrics", "SimulationResult"]


class DelayStats:
    """Streaming delay statistics with exact percentiles.

    Delays are integer slot counts, so an exact sparse histogram (delay
    -> count) rides along at O(distinct delays) memory and yields exact
    percentiles without retaining per-packet arrays.  ``keep_samples``
    additionally retains the raw samples in observation order — needed
    only for the order-sensitive statistics (MSER truncation, batch
    means) behind :meth:`SimulationResult.delay_ci`.
    """

    def __init__(self, keep_samples: bool = True) -> None:
        self.count = 0
        self.total = 0
        self.total_sq = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None
        self.keep_samples = keep_samples
        self._samples: List[int] = []
        self._hist: Dict[int, int] = {}

    def add(self, delay: int) -> None:
        """Record one packet delay (slots)."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.count += 1
        self.total += delay
        self.total_sq += delay * delay
        if self.min is None or delay < self.min:
            self.min = delay
        if self.max is None or delay > self.max:
            self.max = delay
        self._hist[delay] = self._hist.get(delay, 0) + 1
        if self.keep_samples:
            self._samples.append(delay)

    @property
    def mean(self) -> float:
        """Average delay; NaN if nothing was recorded."""
        if self.count == 0:
            return math.nan
        return self.total / self.count

    @property
    def std(self) -> float:
        """Population standard deviation of recorded delays."""
        if self.count == 0:
            return math.nan
        mean = self.mean
        return math.sqrt(max(0.0, self.total_sq / self.count - mean * mean))

    @property
    def samples(self) -> List[int]:
        """The retained per-packet delays, in observation order."""
        if not self.keep_samples:
            raise ValueError("samples were not retained")
        return self._samples

    @property
    def histogram(self) -> Dict[int, int]:
        """The exact sparse delay histogram (delay -> count)."""
        return dict(self._hist)

    def percentile(self, q: float) -> float:
        """The exact ``q``-th percentile (0..100), from the histogram.

        Matches ``np.percentile`` (linear interpolation) on the same
        data, two-sided lerp included, so retained-sample runs and
        fused-metrics (``keep_samples=False``) runs report identical
        values.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        if self.count == 0:
            return math.nan
        rank = (q / 100.0) * (self.count - 1)
        target_lo = int(rank)
        target_hi = min(target_lo + 1, self.count - 1)
        frac = rank - target_lo
        lo_val = hi_val = 0
        seen = 0
        found_lo = False
        for value in sorted(self._hist):
            seen += self._hist[value]
            if not found_lo and seen > target_lo:
                lo_val = value
                found_lo = True
            if seen > target_hi:
                hi_val = value
                break
        # np.percentile's two-sided lerp: interpolate from whichever
        # endpoint is nearer, reproducing its rounding exactly.
        if frac >= 0.5:
            return hi_val - (hi_val - lo_val) * (1.0 - frac)
        return lo_val + (hi_val - lo_val) * frac

    def __repr__(self) -> str:
        return f"DelayStats(count={self.count}, mean={self.mean:.2f})"


class SimulationMetrics:
    """Per-run collector fed by the simulation engine."""

    def __init__(self, keep_samples: bool = True) -> None:
        self.delays = DelayStats(keep_samples=keep_samples)
        self.reordering = ReorderingDetector()
        self.measured_departures = 0
        self.fake_departures = 0
        # Delay decomposition sums (packets carrying stage stamps only):
        # aggregation wait, input-side queueing, fabric-1-to-departure.
        self.breakdown_count = 0
        self.assembly_total = 0
        self.input_queue_total = 0
        self.transit_total = 0

    def observe_departure(self, packet: Packet, measure: bool) -> None:
        """Feed one departed packet; ``measure`` gates the delay statistics.

        Ordering is always checked (a reorder during warm-up is just as
        much a correctness violation), fakes are counted but never measured.
        """
        if packet.fake:
            self.fake_departures += 1
            return
        self.reordering.observe(packet)
        if measure:
            self.delays.add(packet.delay)
            self.measured_departures += 1
            if packet.assembled_slot >= 0 and packet.tx_slot >= 0:
                self.breakdown_count += 1
                self.assembly_total += packet.assembled_slot - packet.arrival_slot
                self.input_queue_total += packet.tx_slot - packet.assembled_slot
                self.transit_total += packet.departure_slot - packet.tx_slot

    def delay_breakdown(self) -> Dict[str, float]:
        """Mean per-stage delays for packets with stage stamps.

        Keys: ``assembly`` (waiting for the stripe/frame/grant to form),
        ``input_queue`` (formed but not yet across fabric 1), ``transit``
        (fabric 1 to departure).  The three sum to the mean total delay of
        the stamped packets.
        """
        if self.breakdown_count == 0:
            return {}
        count = self.breakdown_count
        return {
            "assembly": self.assembly_total / count,
            "input_queue": self.input_queue_total / count,
            "transit": self.transit_total / count,
        }


class SimulationResult:
    """Summary of one simulation run (one switch, one workload, one seed)."""

    def __init__(
        self,
        switch_name: str,
        n: int,
        load: float,
        slots: int,
        warmup: int,
        metrics: SimulationMetrics,
        injected: int,
        departed: int,
        extras: Optional[Dict[str, float]] = None,
    ) -> None:
        self.switch_name = switch_name
        self.n = n
        self.load = load
        self.slots = slots
        self.warmup = warmup
        self.mean_delay = metrics.delays.mean
        # Percentiles come from the exact histogram, so they are exact
        # regardless of whether per-packet samples were retained.
        self.p50_delay = metrics.delays.percentile(50)
        self.p99_delay = metrics.delays.percentile(99)
        self.max_delay = metrics.delays.max
        self.measured_packets = metrics.delays.count
        self.late_packets = metrics.reordering.late_packets
        self.max_displacement = metrics.reordering.max_displacement
        self.injected = injected
        self.departed = departed
        self.extras = dict(extras or {})
        for stage, value in metrics.delay_breakdown().items():
            self.extras[f"mean_{stage}_delay"] = value
        self._delay_samples = (
            list(metrics.delays.samples) if metrics.delays.keep_samples else []
        )
        self._delay_histogram = metrics.delays.histogram

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
        data = {
            "switch_name": self.switch_name,
            "n": self.n,
            "load": self.load,
            "slots": self.slots,
            "warmup": self.warmup,
            "mean_delay": self.mean_delay,
            "p50_delay": self.p50_delay,
            "p99_delay": self.p99_delay,
            "max_delay": self.max_delay,
            "measured_packets": self.measured_packets,
            "late_packets": self.late_packets,
            "max_displacement": self.max_displacement,
            "injected": self.injected,
            "departed": self.departed,
            "extras": dict(self.extras),
            "delay_histogram": [
                [delay, count]
                for delay, count in sorted(self._delay_histogram.items())
            ],
        }
        if include_samples:
            data["delay_samples"] = list(self._delay_samples)
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "SimulationResult":
        """Rebuild a result from :meth:`to_dict` output (no metrics pass)."""
        result = cls.__new__(cls)
        for field in (
            "switch_name",
            "n",
            "load",
            "slots",
            "warmup",
            "mean_delay",
            "p50_delay",
            "p99_delay",
            "max_delay",
            "measured_packets",
            "late_packets",
            "max_displacement",
            "injected",
            "departed",
        ):
            setattr(result, field, data[field])
        result.extras = dict(data.get("extras") or {})
        result._delay_samples = list(data.get("delay_samples") or [])
        # JSON decodes each ``[delay, count]`` pair to two ints already;
        # ``dict`` builds the histogram from them in C.
        result._delay_histogram = dict(data.get("delay_histogram") or [])
        return result

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
