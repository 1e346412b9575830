"""Arrival processes for slotted-time switch simulation.

The paper's §6 uses Bernoulli i.i.d. arrivals: at each input port, a packet
arrives in each slot independently with probability ``rho``.  This module
also provides a two-state Markov-modulated (bursty on/off) process — the
standard stress generalization.  Recorded traces replay through
:mod:`repro.traffic.trace_io`, whole packets and not just arrival times.

All processes generate arrivals in *chunks* (numpy-vectorized blocks of
slots) because per-slot Python-level sampling would dominate simulation
time.  A chunk is a pair of arrays ``(slots, inputs)`` listing, in
nondecreasing slot order, each arrival event's slot and input port.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "CHUNK_SLOTS",
    "ArrivalProcess",
    "BernoulliArrivals",
    "ModulatedBernoulliArrivals",
    "OnOffArrivals",
]

Chunk = Tuple[np.ndarray, np.ndarray]

#: Slots per arrival chunk: the RNG-consumption unit of every run (see
#: :meth:`ArrivalProcess.events`).  Both traffic generators step their
#: arrival process through chunks of this size, so it is one constant —
#: two generators chunking differently would draw different streams.
CHUNK_SLOTS = 4096


def _check_probabilities(values: np.ndarray, what: str) -> None:
    """Reject probabilities outside ``[0, 1]``, NaN included."""
    if not np.all((values >= 0.0) & (values <= 1.0)):
        raise ValueError(f"{what} must be in [0, 1]")


class ArrivalProcess:
    """Interface: per-slot packet arrivals at each of ``n`` input ports."""

    n: int

    def chunk(self, start_slot: int, num_slots: int) -> Chunk:
        """Arrival events for slots ``[start_slot, start_slot + num_slots)``.

        Returns ``(slots, inputs)`` arrays sorted by slot; at most one
        arrival per (slot, input) pair, matching the line-rate constraint of
        one packet per slot per input.
        """
        raise NotImplementedError

    def events(
        self, num_slots: int, chunk_slots: int = CHUNK_SLOTS
    ) -> Iterator[Chunk]:
        """Iterate chunks covering ``[0, num_slots)``.

        The chunking here is the *RNG-consumption unit* of a run: every
        consumer (the object generator's slot stream, the batch
        generator's monolithic ``draw`` and its windowed ``draw_chunks``)
        steps the arrival process through exactly these chunks, drawing
        destinations after each one, so reading the same run in
        different window sizes can never perturb the stream.  Stateful
        processes (the on/off model's Markov state) rely on being
        stepped through one ``events`` sweep per run for the same
        reason.
        """
        if chunk_slots <= 0:
            raise ValueError("chunk_slots must be positive")
        start = 0
        while start < num_slots:
            size = min(chunk_slots, num_slots - start)
            yield self.chunk(start, size)
            start += size


class BernoulliArrivals(ArrivalProcess):
    """I.i.d. Bernoulli arrivals (paper §6).

    In each slot, input ``i`` receives a packet with probability
    ``loads[i]`` independently of everything else.
    """

    def __init__(self, loads: Sequence[float], rng: np.random.Generator) -> None:
        loads = np.asarray(loads, dtype=float)
        if loads.ndim != 1:
            raise ValueError("loads must be a 1-D sequence (one per input)")
        _check_probabilities(loads, "per-slot arrival probabilities")
        self.n = len(loads)
        self.loads = loads
        self._rng = rng

    def chunk(self, start_slot: int, num_slots: int) -> Chunk:
        draws = self._rng.random((num_slots, self.n)) < self.loads[None, :]
        rel_slots, inputs = np.nonzero(draws)
        return rel_slots + start_slot, inputs


class ModulatedBernoulliArrivals(ArrivalProcess):
    """Bernoulli arrivals under a slot-varying load schedule (nonstationary).

    In slot ``t``, input ``i`` receives a packet with probability
    ``loads[i] * schedule.multipliers(...)[t]`` — the schedule modulates
    every input's rate by a common factor in ``[0, 1]``, which is how the
    scenario subsystem models ramps, daily sines, and step changes in
    offered load.

    RNG discipline (load-bearing for engine parity): every chunk draws
    exactly one uniform per (slot, input) — the *same consumption* as
    :class:`BernoulliArrivals` — and the multiplier only moves the
    comparison threshold.  Swapping schedules therefore never perturbs the
    destination draws that follow each chunk, and the object and batch
    traffic generators stay in lock-step for a fixed seed.
    """

    def __init__(
        self,
        loads: Sequence[float],
        schedule,
        rng: np.random.Generator,
    ) -> None:
        loads = np.asarray(loads, dtype=float)
        if loads.ndim != 1:
            raise ValueError("loads must be a 1-D sequence (one per input)")
        _check_probabilities(loads, "per-slot arrival probabilities")
        if not hasattr(schedule, "multipliers"):
            raise TypeError(
                "schedule must expose multipliers(start_slot, num_slots)"
            )
        self.n = len(loads)
        self.loads = loads
        self.schedule = schedule
        self._rng = rng

    def chunk(self, start_slot: int, num_slots: int) -> Chunk:
        draws = self._rng.random((num_slots, self.n))
        mult = np.asarray(
            self.schedule.multipliers(start_slot, num_slots), dtype=float
        )
        if mult.shape != (num_slots,):
            raise ValueError(
                f"schedule returned shape {mult.shape}, "
                f"expected ({num_slots},)"
            )
        _check_probabilities(mult, "schedule multipliers")
        probs = self.loads[None, :] * mult[:, None]
        rel_slots, inputs = np.nonzero(draws < probs)
        return rel_slots + start_slot, inputs


class OnOffArrivals(ArrivalProcess):
    """Two-state Markov-modulated (bursty) arrivals.

    Each input alternates between an OFF state (no arrivals) and an ON state
    (one arrival per slot with probability ``peak_rate``).  State holding
    times are geometric with mean ``mean_on`` / ``mean_off`` slots.  The
    long-run arrival rate is ``peak_rate * mean_on / (mean_on + mean_off)``.

    ``peak_rate`` is a scalar (every input equally peaky) or a length-``n``
    sequence of per-input peaks — required for skewed matrices whose rows
    carry different total rates, where a shared peak would oversubscribe
    the lighter inputs' outputs.

    ``phases`` is the number of independent modulator chains; input ``i``
    follows chain ``i mod phases``.  The default (``None``) gives every
    input its own chain — the classic independent on/off model.
    ``phases=1`` drives *every* input from one shared phase, so the whole
    switch bursts in lock-step: per-input long-run rates are unchanged
    (each input still emits at its own peak while ON), but episodes of
    system-wide overload replace independent per-input bursts — the
    correlated-burst stress the i.i.d. analysis never sees.  Each input
    keeps its own per-slot emission draws, so RNG consumption (and hence
    engine parity) is independent of ``phases``'s chunk geometry for the
    emission stream; the flip stream shrinks to one column per chain.

    Burstiness is the adversary of load balancing; this process lets
    experiments push beyond the paper's i.i.d. assumption.
    """

    def __init__(
        self,
        n: int,
        peak_rate,
        mean_on: float,
        mean_off: float,
        rng: np.random.Generator,
        phases: Optional[int] = None,
    ) -> None:
        if n <= 0:
            raise ValueError("n must be positive")
        peak = np.asarray(peak_rate, dtype=float)
        if peak.ndim not in (0, 1) or (peak.ndim == 1 and len(peak) != n):
            raise ValueError("peak_rate must be a scalar or one value per input")
        _check_probabilities(peak, "peak_rate")
        if not all(1.0 <= m < np.inf for m in (mean_on, mean_off)):
            raise ValueError(
                "mean sojourn times must be finite and at least one slot"
            )
        if phases is None:
            phases = n
        if not 1 <= phases <= n:
            raise ValueError(f"phases must be in [1, {n}], got {phases}")
        self.n = n
        self.peak_rate = peak
        self.phases = phases
        self._chain = np.arange(n) % phases
        self.p_off = 1.0 / mean_on  # P(on -> off) per slot
        self.p_on = 1.0 / mean_off  # P(off -> on) per slot
        self._rng = rng
        # Start each chain in its stationary state distribution.
        p_stationary_on = self.p_on / (self.p_on + self.p_off)
        self._state_on = rng.random(phases) < p_stationary_on

    @property
    def mean_rate(self):
        """Long-run packets/slot per input (scalar or per-input array)."""
        return self.peak_rate * self.p_on / (self.p_on + self.p_off)

    def chunk(self, start_slot: int, num_slots: int) -> Chunk:
        rng = self._rng
        flips = rng.random((num_slots, self.phases))
        emits = rng.random((num_slots, self.n)) < self.peak_rate
        # Closed form of the per-slot chain step.  A flip below both exit
        # thresholds toggles the chain whatever its state; one between
        # them forces it into the state with the smaller exit threshold
        # (the other state leaves, that one stays); the rest change
        # nothing.  So the state after a slot is the last forced value —
        # the carried state if none yet — XOR the parity of the toggles
        # since: a running count, and a running max picking the count at
        # the last force (counts never decrease, -1 marks "none").
        toggle = flips < min(self.p_off, self.p_on)
        force = (flips < max(self.p_off, self.p_on)) & ~toggle
        toggles = np.cumsum(toggle, axis=0)
        anchor = np.maximum.accumulate(np.where(force, toggles, -1), axis=0)
        since = toggles - np.maximum(anchor, 0)
        after = np.where(anchor >= 0, self.p_on > self.p_off, self._state_on)
        after ^= (since & 1).astype(bool)
        states = np.concatenate((self._state_on[None, :], after))
        self._state_on = states[-1].copy()
        rel_slots, inputs = np.nonzero(states[:-1, self._chain] & emits)
        return rel_slots + start_slot, inputs
