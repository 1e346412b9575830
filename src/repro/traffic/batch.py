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
assigned chunk by chunk in arrival order (:func:`assign_voq_seqs`), and
each chunk's flat VOQ ids are stored beside them.

The columns are as narrow as the run allows (:func:`column_types`, a
function of the port count and the slot horizon alone): slots and seqs
int32, ports uint8 and VOQ ids uint16 at every paper size — 12 bytes a
packet instead of 32.  The kernels keep their per-packet columns just as
narrow.  NumPy 2 keeps a narrow array's dtype in arithmetic with a Python
int (``inputs * n`` stays uint8 and wraps), so code that computes on a
column widens it first or reads the stored ``voqs``.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Optional, Tuple

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
    "ColumnTypes",
    "assign_voq_seqs",
    "bernoulli_batch",
    "column_types",
    "stable_id_argsort",
]

_RADIX_IDS = 1 << 16
_INT32_MAX = int(np.iinfo(np.int32).max)


class ColumnTypes(NamedTuple):
    """The dtypes of one run's per-packet columns (:func:`column_types`)."""

    #: Arrival slots and seqs, packet rows, and every slot a replay
    #: derives from them (service, departure, completion).
    slot: type
    #: Input and output ports.
    port: type
    #: Flat VOQ ids ``input * n + output``.
    voq: type


def column_types(n: int, num_slots: int) -> ColumnTypes:
    """The narrowest dtypes that hold an ``n``-port run of ``num_slots``
    slots.

    ``num_slots`` bounds every arrival slot and sequence number of the
    run.  A run holds at most ``n * num_slots`` packets, and a polled
    queue serves one of them per ``n``-slot poll, so no slot a replay
    derives — two polled stages, frame starts, the drain — reaches
    ``4 n^2 (num_slots + n)``: int32 holds them all while that bound
    does.  Ports are uint8 up to 256 of them and VOQ ids uint16 up to
    ``n^2 = 65536``.  Past each bound its columns are int64.
    """
    slot = np.int32 if 4 * n * n * (num_slots + n) <= _INT32_MAX else np.int64
    port = np.uint8 if n <= 256 else np.int64
    voq = np.uint16 if n * n <= _RADIX_IDS else np.int64
    return ColumnTypes(slot, port, voq)


def stable_id_argsort(ids: np.ndarray, id_space: int) -> np.ndarray:
    """Stable argsort of nonnegative ids below ``id_space``.

    NumPy's stable sort is an O(P) radix sort for 16-bit integers but an
    O(P log P) mergesort for wider ones; VOQ ids, ports, lanes and the
    polled-queue replay's packed ``(queue, level)`` keys fit 16 bits at
    every realistic switch size, so the cheap path applies (a uint16
    column sorts as it is, anything else through one cast).
    """
    if id_space <= _RADIX_IDS:
        return np.argsort(ids.astype(np.uint16, copy=False), kind="stable")
    return np.argsort(ids, kind="stable")


def assign_voq_seqs(
    voqs: np.ndarray, seq_next: np.ndarray, n: int, dtype: type = np.int64
) -> np.ndarray:
    """Per-VOQ consecutive sequence numbers of ``voqs``, in their order.

    Numbering starts at ``seq_next[voq]`` and ``seq_next`` is advanced in
    place, so successive calls continue each VOQ's count.  A packet's
    number is its place in the VOQ-grouped order minus where its group
    starts there, plus the group's ``seq_next``: computed in grouped
    order and scattered back once, as ``dtype``.
    """
    counts = np.bincount(voqs, minlength=n * n)
    offsets = np.cumsum(counts)
    offsets -= counts
    offsets -= seq_next
    seqs = np.empty(len(voqs), dtype=dtype)
    seqs[stable_id_argsort(voqs, n * n)] = np.arange(len(voqs)) - np.repeat(
        offsets, counts
    )
    seq_next += counts
    return seqs


def _joined(parts: List[np.ndarray], dtype: type) -> np.ndarray:
    """Concatenate ``parts`` (a ``dtype`` column) and empty the list, so
    the chunks free as soon as the whole column exists."""
    whole = np.concatenate(parts) if parts else np.empty(0, dtype)
    parts.clear()
    return whole


class ArrivalBatch(NamedTuple):
    """One batch of arrivals in structure-of-arrays form.

    All arrays have one entry per packet and are sorted by
    ``(slot, input)`` — the exact order in which ``TrafficGenerator``
    hands packets to a switch (its per-slot lists are sorted by input
    port).

    Columns have the dtypes :func:`column_types` picks for the run
    (:meth:`of` narrows given columns); ``voqs`` is stored, not derived,
    so no reader recomputes it from the narrow ports.

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
    #: Flat VOQ id ``input * n + output`` of each packet.
    voqs: np.ndarray
    #: First slot the batch covers (0 for a monolithic draw).
    start_slot: int = 0

    def __len__(self) -> int:
        return len(self.slots)

    @property
    def end_slot(self) -> int:
        """One past the last slot the batch covers."""
        return self.start_slot + self.num_slots

    @classmethod
    def of(
        cls,
        n: int,
        num_slots: int,
        slots: np.ndarray,
        inputs: np.ndarray,
        outputs: np.ndarray,
        seqs: np.ndarray,
        start_slot: int = 0,
        horizon: Optional[int] = None,
    ) -> "ArrivalBatch":
        """A batch of the given columns, narrowed to their
        :func:`column_types` and with its VOQ ids computed.

        ``horizon`` bounds every slot and seq value (default: the
        batch's end slot).
        """
        if horizon is None:
            horizon = start_slot + num_slots
        types = column_types(n, horizon)
        inputs = np.asarray(inputs)
        voqs = inputs.astype(types.voq) * types.voq(n)
        voqs += np.asarray(outputs, dtype=types.voq)
        return cls(
            n=n,
            num_slots=num_slots,
            slots=np.asarray(slots, dtype=types.slot),
            inputs=inputs.astype(types.port, copy=False),
            outputs=np.asarray(outputs, dtype=types.port),
            seqs=np.asarray(seqs, dtype=types.slot),
            voqs=voqs,
            start_slot=start_slot,
        )


def _make(cls, iterable) -> ArrivalBatch:
    """``NamedTuple._make`` without its length check, which would read
    the packet count :meth:`ArrivalBatch.__len__` reports (and so broke
    ``_replace``) instead of the field count."""
    result = tuple.__new__(cls, iterable)
    if tuple.__len__(result) != len(cls._fields):
        raise TypeError(
            f"Expected {len(cls._fields)} arguments, got "
            f"{tuple.__len__(result)}"
        )
    return result


# NamedTuple forbids defining ``_make`` in the class body.
ArrivalBatch._make = classmethod(_make)  # type: ignore[assignment]


def _chunk_dtypes(types: ColumnTypes) -> Tuple[type, ...]:
    """The dtypes of an event chunk's ``(slots, inputs, outputs, seqs,
    voqs)``."""
    return types.slot, types.port, types.port, types.slot, types.voq


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
        #: Slots drawn so far, this run's included: the bound on every
        #: slot and seq (seqs continue across draws) the columns hold.
        self._horizon = 0

    def _types(self, num_slots: int) -> ColumnTypes:
        """The column types of the next ``num_slots``-slot run."""
        self._horizon += num_slots
        return column_types(self.n, self._horizon)

    def _event_chunks(self, num_slots: int, types: ColumnTypes):
        """Iterate ``(slots, inputs, outputs, seqs, voqs)`` chunks of one
        run, as ``types`` columns.

        This is *the* RNG-consumption unit shared by :meth:`draw` and
        :meth:`draw_chunks`: the arrival process is stepped in chunks of
        :data:`~repro.traffic.arrivals.CHUNK_SLOTS` slots and each chunk's
        destinations are drawn immediately after it, so how callers
        re-window the events can never perturb the stream.  (`np.nonzero`
        emits chunk events in row-major ``(slot, input)`` order already;
        destinations come from the same shared sampler — hence the same
        RNG consumption — as ``TrafficGenerator.slots()``.)  Sequence
        numbers continue from chunk to chunk, so they are numbered here,
        where a chunk's columns are still small enough to sort in cache,
        and so are the VOQ ids they are numbered by.
        """
        n = self.n
        for slots, inputs in self.arrivals.events(num_slots):
            outputs = self._destinations.draw(self._rng, slots, inputs, n)
            voqs = inputs * n + outputs
            seqs = assign_voq_seqs(voqs, self._seq_next, n, types.slot)
            yield (
                slots.astype(types.slot),
                inputs.astype(types.port),
                outputs.astype(types.port),
                seqs,
                voqs.astype(types.voq),
            )

    def draw(self, num_slots: int) -> ArrivalBatch:
        """Draw ``num_slots`` slots of arrivals as one batch of arrays."""
        if num_slots <= 0:
            raise ValueError("num_slots must be positive")
        types = self._types(num_slots)
        columns: List[List[np.ndarray]] = [[], [], [], [], []]
        for chunk in self._event_chunks(num_slots, types):
            for parts, values in zip(columns, chunk):
                parts.append(values)
        slots, inputs, outputs, seqs, voqs = (
            _joined(parts, dtype)
            for parts, dtype in zip(columns, _chunk_dtypes(types))
        )
        self.generated += len(slots)
        return ArrivalBatch(
            n=self.n,
            num_slots=num_slots,
            slots=slots,
            inputs=inputs,
            outputs=outputs,
            seqs=seqs,
            voqs=voqs,
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
        types = self._types(num_slots)
        # (slots, inputs, outputs, seqs, voqs) drawn but not yet emitted.
        pending = tuple(np.empty(0, dtype) for dtype in _chunk_dtypes(types))
        covered = 0  # slots fully drawn so far
        emitted = 0  # slots already yielded as windows
        chunks = self._event_chunks(num_slots, types)
        while emitted < num_slots:
            window_end = min(emitted + window_slots, num_slots)
            parts = [pending]
            while covered < window_end:
                parts.append(next(chunks))
                covered = min(covered + CHUNK_SLOTS, num_slots)
            if len(parts) > 1:
                pending = tuple(np.concatenate(f) for f in zip(*parts))
            cut = int(np.searchsorted(pending[0], window_end, side="left"))
            w_slots, w_inputs, w_outputs, w_seqs, w_voqs = (
                f[:cut] for f in pending
            )
            pending = tuple(f[cut:] for f in pending)
            self.generated += len(w_slots)
            yield ArrivalBatch(
                n=self.n,
                num_slots=window_end - emitted,
                slots=w_slots,
                inputs=w_inputs,
                outputs=w_outputs,
                seqs=w_seqs,
                voqs=w_voqs,
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
