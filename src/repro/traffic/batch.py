"""Batched (structure-of-arrays) traffic generation for the fast engine.

:class:`~repro.traffic.generator.TrafficGenerator` materializes one
:class:`~repro.switching.packet.Packet` object per arrival — the right
interface for the object-model switches, but pure overhead for the
vectorized engine, which wants the whole workload as flat NumPy arrays.

:class:`BatchTrafficGenerator` produces exactly the same arrival stream as
``TrafficGenerator`` for the same random generator and matrix — it draws
from the RNG in the identical order (arrival-process chunks of
``chunk_slots`` slots, then one destination draw per input present in the
chunk, inputs in ascending order) — but returns an :class:`ArrivalBatch`
of arrays instead of objects.  That equivalence is what makes seeded
object-vs-vectorized engine parity *exact*, and it is pinned by tests.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Optional

import numpy as np

from .arrivals import ArrivalProcess, BernoulliArrivals
from .generator import (
    DestinationSampler,
    MatrixDestinations,
    destination_distributions,
)

__all__ = [
    "ArrivalBatch",
    "BatchTrafficGenerator",
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
        chunk_slots: int = 4096,
        destinations: Optional[DestinationSampler] = None,
    ) -> None:
        matrix, row_sums, dest_dists = destination_distributions(matrix)
        self.n = matrix.shape[0]
        self.matrix = matrix
        self._rng = rng
        self._dest_dists = dest_dists
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
        self.chunk_slots = chunk_slots
        self._seq_next = np.zeros(self.n * self.n, dtype=np.int64)
        self.generated = 0

    def _event_chunks(self, num_slots: int):
        """Iterate ``(slots, inputs, outputs)`` arrival chunks of one run.

        This is *the* RNG-consumption unit shared by :meth:`draw` and
        :meth:`draw_chunks`: the arrival process is stepped in chunks of
        ``chunk_slots`` slots and each chunk's destinations are drawn
        immediately after it, so how callers re-window the events can
        never perturb the stream.  (`np.nonzero` emits chunk events in
        row-major ``(slot, input)`` order already; destinations come from
        the same shared sampler — hence the same RNG consumption — as
        ``TrafficGenerator.slots()``.)
        """
        for slots, inputs in self.arrivals.events(num_slots, self.chunk_slots):
            dests = self._destinations.draw(self._rng, slots, inputs, self.n)
            yield (
                np.asarray(slots, dtype=np.int64),
                np.asarray(inputs, dtype=np.int64),
                dests,
            )

    def _chunk_columns(self, num_slots: int) -> List[List[np.ndarray]]:
        """A run's ``(slots, inputs, outputs)`` chunks, one list each."""
        columns: List[List[np.ndarray]] = [[], [], []]
        for chunk in self._event_chunks(num_slots):
            for parts, values in zip(columns, chunk):
                parts.append(values)
        return columns

    def draw(self, num_slots: int) -> ArrivalBatch:
        """Draw ``num_slots`` slots of arrivals as one batch of arrays."""
        if num_slots <= 0:
            raise ValueError("num_slots must be positive")
        n = self.n
        slots_all, inputs_all, outputs_all = (
            _joined(parts) for parts in self._chunk_columns(num_slots)
        )
        seqs = self._assign_seqs(inputs_all * n + outputs_all)
        self.generated += len(slots_all)
        return ArrivalBatch(
            n=n,
            num_slots=num_slots,
            slots=slots_all,
            inputs=inputs_all,
            outputs=outputs_all,
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
        ``chunk_slots`` units internally and the windows are sliced from
        the buffered events, so concatenating the windows' arrays
        reproduces the monolithic batch field-for-field (per-VOQ sequence
        numbers continue across windows).  Peak buffered-event memory is
        O(``window_slots + chunk_slots``) instead of O(``num_slots``).
        """
        if num_slots <= 0:
            raise ValueError("num_slots must be positive")
        if window_slots <= 0:
            raise ValueError("window_slots must be positive")
        n = self.n
        # (slots, inputs, outputs) drawn but not yet emitted.
        pending = tuple(np.empty(0, np.int64) for _ in range(3))
        covered = 0  # slots fully drawn so far
        emitted = 0  # slots already yielded as windows
        chunks = self._event_chunks(num_slots)
        while emitted < num_slots:
            window_end = min(emitted + window_slots, num_slots)
            parts = [pending]
            while covered < window_end:
                parts.append(next(chunks))
                covered = min(covered + self.chunk_slots, num_slots)
            if len(parts) > 1:
                pending = tuple(np.concatenate(f) for f in zip(*parts))
            cut = int(np.searchsorted(pending[0], window_end, side="left"))
            w_slots, w_inputs, w_outputs = (f[:cut] for f in pending)
            pending = tuple(f[cut:] for f in pending)
            seqs = self._assign_seqs(w_inputs * n + w_outputs)
            self.generated += len(w_slots)
            yield ArrivalBatch(
                n=n,
                num_slots=window_end - emitted,
                slots=w_slots,
                inputs=w_inputs,
                outputs=w_outputs,
                seqs=seqs,
                start_slot=emitted,
            )
            emitted = window_end

    def _assign_seqs(self, voqs: np.ndarray) -> np.ndarray:
        """Per-VOQ consecutive sequence numbers, in generation order."""
        counts = np.bincount(voqs, minlength=self.n * self.n)
        # Rank within each voq group: the packet's place in the
        # VOQ-sorted batch minus where its group starts.
        seqs = np.empty(len(voqs), dtype=np.int64)
        seqs[stable_voq_argsort(voqs, self.n)] = np.arange(len(voqs))
        seqs -= (np.cumsum(counts) - counts - self._seq_next)[voqs]
        self._seq_next += counts
        return seqs

    def voq_rate(self, input_port: int, output_port: int) -> float:
        """The configured arrival rate of VOQ (input, output)."""
        return float(self.matrix[input_port][output_port])


def bernoulli_batch(matrix, seed: int = 0) -> BatchTrafficGenerator:
    """Convenience constructor: Bernoulli batch traffic from matrix + seed."""
    # repro: lint-ignore[RNG003] -- public convenience constructor: raw seed is its API
    return BatchTrafficGenerator(matrix, np.random.default_rng(seed))
