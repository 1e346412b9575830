"""Batched (structure-of-arrays) traffic generation for the fast engine.

:class:`~repro.traffic.generator.TrafficGenerator` materializes one
:class:`~repro.switching.packet.Packet` object per arrival — the right
interface for the object-model switches, but pure overhead for the
vectorized engine, which wants the whole workload as flat NumPy arrays.

:class:`BatchTrafficGenerator` produces exactly the same arrival stream as
``TrafficGenerator`` for the same random generator and matrix — it draws
from the RNG in the identical order (arrival-process chunks of
:data:`~repro.traffic.arrivals.CHUNK_SLOTS` slots, each followed by its
destination draw: one uniform per arrival, inputs ascending, taken as one
block for the whole chunk by the shared destination sampler) — but
returns an :class:`ArrivalBatch` of arrays instead of objects.  That
equivalence is what makes seeded object-vs-vectorized engine parity
*exact*, and it is pinned by tests.  Per-VOQ sequence numbers are
assigned chunk by chunk in arrival order (:func:`assign_voq_seqs`).
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Optional

import numpy as np

from .arrivals import CHUNK_SLOTS, ArrivalProcess, BernoulliArrivals
from .generator import (
    DestinationSampler,
    MatrixDestinations,
    destination_distributions,
)

__all__ = [
    "ArrivalBatch",
    "BatchTrafficGenerator",
    "assign_voq_seqs",
    "bernoulli_batch",
    "stable_voq_argsort",
]


def stable_voq_argsort(voqs: np.ndarray, n: int) -> np.ndarray:
    """Stable argsort of flat VOQ ids, radix-accelerated when they fit.

    NumPy's stable sort is an O(P) radix sort for 16-bit integers but an
    O(P log P) mergesort for wider ones; VOQ ids are below ``n^2``, so for
    every realistic switch size the cheap path applies.  Grouping packets
    by VOQ is the backbone of both sequence numbering and the fast
    engine's stripe/frame assembly, so this is worth the cast.
    """
    if n * n <= np.iinfo(np.uint16).max:
        return np.argsort(voqs.astype(np.uint16), kind="stable")
    return np.argsort(voqs, kind="stable")


def assign_voq_seqs(
    voqs: np.ndarray, seq_next: np.ndarray, n: int
) -> np.ndarray:
    """Per-VOQ consecutive sequence numbers of ``voqs``, in their order.

    Numbering starts at ``seq_next[voq]`` and ``seq_next`` is advanced in
    place, so successive calls continue each VOQ's count.  A packet's
    number is its place in the VOQ-grouped order minus where its group
    starts there, plus the group's ``seq_next``: computed in grouped
    order and scattered back once.
    """
    counts = np.bincount(voqs, minlength=n * n)
    offsets = np.cumsum(counts)
    offsets -= counts
    offsets -= seq_next
    seqs = np.empty(len(voqs), dtype=np.int64)
    seqs[stable_voq_argsort(voqs, n)] = np.arange(len(voqs)) - np.repeat(
        offsets, counts
    )
    seq_next += counts
    return seqs


def _joined(parts: List[np.ndarray]) -> np.ndarray:
    """Concatenate ``parts`` and empty the list, so the chunks free as
    soon as the whole column exists."""
    whole = np.concatenate(parts) if parts else np.empty(0, np.int64)
    parts.clear()
    return whole


class ArrivalBatch(NamedTuple):
    """One batch of arrivals in structure-of-arrays form.

    All arrays have one entry per packet and are sorted by
    ``(slot, input)`` — the exact order in which ``TrafficGenerator``
    hands packets to a switch (its per-slot lists are sorted by input
    port).

    A batch covers the slot range ``[start_slot, start_slot +
    num_slots)``.  :meth:`BatchTrafficGenerator.draw` always emits a
    whole run as one batch starting at slot 0;
    :meth:`BatchTrafficGenerator.draw_chunks` emits consecutive windows
    of one run, each tagged with its absolute ``start_slot`` (packet
    ``slots`` stay absolute run slots in both cases).
    """

    #: Switch size.
    n: int
    #: Number of slots the batch covers.
    num_slots: int
    #: Arrival slot of each packet.
    slots: np.ndarray
    #: Input port of each packet.
    inputs: np.ndarray
    #: Output port (destination) of each packet.
    outputs: np.ndarray
    #: Per-VOQ sequence number of each packet (assigned at arrival).
    seqs: np.ndarray
    #: First slot the batch covers (0 for a monolithic draw).
    start_slot: int = 0

    def __len__(self) -> int:
        return len(self.slots)

    @property
    def end_slot(self) -> int:
        """One past the last slot the batch covers."""
        return self.start_slot + self.num_slots

    @property
    def voqs(self) -> np.ndarray:
        """Flat VOQ id ``input * n + output`` of each packet."""
        return self.inputs * self.n + self.outputs


class BatchTrafficGenerator:
    """Vectorized twin of :class:`~repro.traffic.generator.TrafficGenerator`.

    Parameters mirror ``TrafficGenerator`` (flow models are not supported:
    the fast engine covers the non-hashing switches, which never read flow
    ids).  Successive :meth:`draw` calls continue per-VOQ sequence numbers,
    like successive ``slots()`` sweeps of a shared-``seq_state`` generator.
    """

    def __init__(
        self,
        matrix,
        rng: np.random.Generator,
        arrivals: Optional[ArrivalProcess] = None,
        destinations: Optional[DestinationSampler] = None,
    ) -> None:
        matrix, row_sums, dest_dists = destination_distributions(matrix)
        self.n = matrix.shape[0]
        self.matrix = matrix
        self._rng = rng
        self._destinations = (
            destinations
            if destinations is not None
            else MatrixDestinations(dest_dists)
        )
        if arrivals is None:
            arrivals = BernoulliArrivals(row_sums, rng)
        if arrivals.n != self.n:
            raise ValueError("arrival process size does not match matrix")
        self.arrivals = arrivals
        self._seq_next = np.zeros(self.n * self.n, dtype=np.int64)
        self.generated = 0

    def _event_chunks(self, num_slots: int):
        """Iterate ``(slots, inputs, outputs, seqs)`` chunks of one run.

        This is *the* RNG-consumption unit shared by :meth:`draw` and
        :meth:`draw_chunks`: the arrival process is stepped in chunks of
        :data:`~repro.traffic.arrivals.CHUNK_SLOTS` slots and each chunk's
        destinations are drawn immediately after it, so how callers
        re-window the events can never perturb the stream.  (`np.nonzero`
        emits chunk events in row-major ``(slot, input)`` order already;
        destinations come from the same shared sampler — hence the same
        RNG consumption — as ``TrafficGenerator.slots()``.)  Sequence
        numbers continue from chunk to chunk, so they are numbered here,
        where a chunk's columns are still small enough to sort in cache.
        """
        n = self.n
        for slots, inputs in self.arrivals.events(num_slots):
            outputs = self._destinations.draw(self._rng, slots, inputs, n)
            seqs = assign_voq_seqs(inputs * n + outputs, self._seq_next, n)
            yield slots, inputs, outputs, seqs

    def draw(self, num_slots: int) -> ArrivalBatch:
        """Draw ``num_slots`` slots of arrivals as one batch of arrays."""
        if num_slots <= 0:
            raise ValueError("num_slots must be positive")
        columns: List[List[np.ndarray]] = [[], [], [], []]
        for chunk in self._event_chunks(num_slots):
            for parts, values in zip(columns, chunk):
                parts.append(values)
        slots, inputs, outputs, seqs = (_joined(parts) for parts in columns)
        self.generated += len(slots)
        return ArrivalBatch(
            n=self.n,
            num_slots=num_slots,
            slots=slots,
            inputs=inputs,
            outputs=outputs,
            seqs=seqs,
        )

    def draw_chunks(
        self, num_slots: int, window_slots: int
    ) -> Iterator[ArrivalBatch]:
        """Draw one ``num_slots`` run as consecutive slot windows.

        Yields :class:`ArrivalBatch` windows covering ``[0, window_slots)``,
        ``[window_slots, 2 * window_slots)``, … (the last window may be
        shorter), with *identical RNG consumption* to a single
        ``draw(num_slots)`` — the arrival process is still stepped in
        :data:`~repro.traffic.arrivals.CHUNK_SLOTS` units internally and
        the windows are sliced from the buffered events, so concatenating
        the windows' arrays reproduces the monolithic batch field-for-field
        (per-VOQ sequence numbers continue across windows).  Peak
        buffered-event memory is O(``window_slots + CHUNK_SLOTS``) instead
        of O(``num_slots``).
        """
        if num_slots <= 0:
            raise ValueError("num_slots must be positive")
        if window_slots <= 0:
            raise ValueError("window_slots must be positive")
        # (slots, inputs, outputs, seqs) drawn but not yet emitted.
        pending = tuple(np.empty(0, np.int64) for _ in range(4))
        covered = 0  # slots fully drawn so far
        emitted = 0  # slots already yielded as windows
        chunks = self._event_chunks(num_slots)
        while emitted < num_slots:
            window_end = min(emitted + window_slots, num_slots)
            parts = [pending]
            while covered < window_end:
                parts.append(next(chunks))
                covered = min(covered + CHUNK_SLOTS, num_slots)
            if len(parts) > 1:
                pending = tuple(np.concatenate(f) for f in zip(*parts))
            cut = int(np.searchsorted(pending[0], window_end, side="left"))
            w_slots, w_inputs, w_outputs, w_seqs = (f[:cut] for f in pending)
            pending = tuple(f[cut:] for f in pending)
            self.generated += len(w_slots)
            yield ArrivalBatch(
                n=self.n,
                num_slots=window_end - emitted,
                slots=w_slots,
                inputs=w_inputs,
                outputs=w_outputs,
                seqs=w_seqs,
                start_slot=emitted,
            )
            emitted = window_end

    def voq_rate(self, input_port: int, output_port: int) -> float:
        """The configured arrival rate of VOQ (input, output)."""
        return float(self.matrix[input_port][output_port])


def bernoulli_batch(matrix, seed: int = 0) -> BatchTrafficGenerator:
    """Convenience constructor: Bernoulli batch traffic from matrix + seed."""
    # repro: lint-ignore[RNG003] -- public convenience constructor: raw seed is its API
    return BatchTrafficGenerator(matrix, np.random.default_rng(seed))
