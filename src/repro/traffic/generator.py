"""Traffic generation: arrival process x destination distribution -> packets.

A :class:`TrafficGenerator` combines an arrival process (when packets show
up at each input) with a traffic matrix (where each packet is headed) and
produces, slot by slot, fully formed :class:`~repro.switching.packet.Packet`
objects carrying per-VOQ sequence numbers (for reordering detection) and
optional application-flow identifiers (for the TCP-hashing experiments).

The implementation pre-draws destinations in vectorized chunks so that the
per-slot Python work is a dictionary lookup plus object construction.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from ..switching.packet import Packet
from .arrivals import CHUNK_SLOTS, ArrivalProcess, BernoulliArrivals
from .matrices import validate_matrix

__all__ = [
    "TrafficGenerator",
    "FlowModel",
    "DestinationSampler",
    "MatrixDestinations",
    "DriftingDestinations",
    "SteppedPermutations",
    "bernoulli_traffic",
    "destination_distributions",
    "draw_destinations",
]


def destination_distributions(matrix):
    """Validate a rate matrix; return ``(matrix, row_sums, dest_dists)``.

    ``dest_dists[i]`` is input ``i``'s destination distribution (its
    matrix row normalized by the row sum), or ``None`` for an idle input.
    Shared by :class:`TrafficGenerator` and the batch generator in
    :mod:`repro.traffic.batch` — the two must stay in lock-step for
    seeded object/vectorized engine parity to hold.
    """
    matrix = validate_matrix(matrix)
    row_sums = matrix.sum(axis=1)
    if np.any(row_sums > 1.0 + 1e-9):
        raise ValueError(
            "matrix row sums exceed 1 packet/slot; not realizable by a "
            "slotted input line"
        )
    # One division for every row (the same per-element quotients as
    # row by row): run planning calls this once per run, cached or not.
    with np.errstate(divide="ignore", invalid="ignore"):
        normalized = matrix / row_sums[:, None]
    dists: List[Optional[np.ndarray]] = [
        row if rated else None
        for row, rated in zip(normalized, (row_sums > 0).tolist())
    ]
    return matrix, row_sums, dists


class _CdfTable(NamedTuple):
    """Every row's inverse CDF at once: ``searchsorted(cdf_i, u, "right")``.

    ``cdf`` holds the ``n x n`` right-edge table flattened row-major;
    ``guide`` holds, flattened the same way, ``n x buckets`` lower bounds
    ``guide[i, k] = searchsorted(cdf_i, k / buckets, "right")``.
    ``buckets`` is a power of two, so ``u * buckets`` is exact and
    ``floor(u * buckets) == k`` exactly when ``k / buckets <= u <
    (k + 1) / buckets``: the bucket's guide entry never overshoots the
    answer for any ``u`` in it, and :meth:`invert` steps up from there.
    Rows without a rate (``rated`` False) hold all-ones edges and are
    never looked up for a real draw.
    """

    n: int
    cdf: np.ndarray
    guide: np.ndarray
    buckets: int
    rated: np.ndarray

    def invert(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Destination of each uniform ``u`` (in ``[0, 1)``) on its row."""
        base = rows * self.n
        bucket = (u * self.buckets).astype(np.intp)
        bucket += rows * self.buckets
        pos = base + self.guide[bucket]
        # Step past every edge <= u.  Each row's last edge is exactly 1.0
        # > u, so no position leaves its row; repeated edges (zero-rate
        # entries) are stepped over like any other.
        live = np.flatnonzero(self.cdf[pos] <= u)
        while live.size:
            pos[live] += 1
            live = live[self.cdf[pos[live]] <= u[live]]
        pos -= base
        return pos


def _cdf_table(dest_dists: List[Optional[np.ndarray]]) -> _CdfTable:
    """The :class:`_CdfTable` of ``n`` destination distributions.

    Each row's edges are exactly the cumulative table
    ``np.random.Generator.choice`` builds internally for a weighted draw
    (``cumsum``, then divide by the last entry), so inverting one
    uniform per arrival consumes the *same* uniforms and returns the
    *same* values as ``choice`` (pinned by tests).  Built once per
    sampler: nothing here depends on the draw.
    """
    n = len(dest_dists)
    rated = np.array([dist is not None for dist in dest_dists], dtype=bool)
    cdf = np.ones((n, n))
    if rated.any():
        sums = np.cumsum([d for d in dest_dists if d is not None], axis=1)
        cdf[rated] = sums / sums[:, -1:]
    buckets = 1 << (4 * n - 1).bit_length()  # a power of two >= 4n
    # Edge c counts toward guide[i, k] iff c <= k / buckets, i.e. from
    # bucket ceil(c * buckets) on (exact: buckets is a power of two).
    first = np.ceil(cdf * buckets).astype(np.intp)
    first += np.arange(n)[:, None] * (buckets + 1)
    hits = np.bincount(first.ravel(), minlength=n * (buckets + 1))
    guide = np.cumsum(
        hits.reshape(n, buckets + 1)[:, :buckets],
        axis=1,
        dtype=np.min_scalar_type(n - 1),
    )
    return _CdfTable(n, cdf.ravel(), guide.ravel(), buckets, rated)


def _draw_from_cdfs(
    rng: np.random.Generator, inputs: np.ndarray, table: _CdfTable
) -> np.ndarray:
    """Destination draws for one chunk against a :class:`_CdfTable`.

    The consumption order is inputs ascending: input ``i``'s arrivals
    take the next ``count_i`` uniforms (or, for a row without a rate,
    ``rng.integers(0, n, count_i)``).  Consecutive uniform draws
    concatenate — ``rng.random(a)`` then ``rng.random(b)`` yields exactly
    ``rng.random(a + b)`` — so every run of rated inputs between two
    rate-less ones is one block draw, and a chunk of matrix traffic is a
    single ``rng.random(P)``.  Events are grouped per input with one
    radix sort.
    """
    dests = np.empty(len(inputs), dtype=np.int64)
    if len(inputs) == 0:
        return dests
    n = table.n
    order = np.argsort(inputs.astype(np.min_scalar_type(n - 1)), kind="stable")
    counts = np.bincount(inputs, minlength=n)
    ends = np.cumsum(counts)
    u = np.empty(len(inputs))
    picks = []
    at = 0
    for inp in np.flatnonzero((counts > 0) & ~table.rated):
        start, end = ends[inp] - counts[inp], ends[inp]
        rng.random(out=u[at:start])
        u[start:end] = 0.0  # inverted below, then overwritten
        picks.append((start, end, rng.integers(0, n, size=end - start)))
        at = end
    rng.random(out=u[at:])
    sorted_dests = table.invert(np.repeat(np.arange(n), counts), u)
    for start, end, values in picks:
        sorted_dests[start:end] = values
    dests[order] = sorted_dests
    return dests


def draw_destinations(
    rng: np.random.Generator,
    inputs: np.ndarray,
    dest_dists: List[Optional[np.ndarray]],
    n: int,
) -> np.ndarray:
    """Destination ports for one chunk of arrival events.

    This is the *canonical RNG consumption order* both traffic generators
    follow: inputs ascending, each input present in the chunk taking one
    uniform per arrival — drawn for the whole chunk as one block wherever
    the inputs have rates.  An input with no configured rate can only see
    arrivals from a custom arrival process; those are spread uniformly by
    one ``rng.integers`` call at that input's place in the order, so they
    are not silently dropped.  Draws are bit-identical to the historical
    per-input ``rng.choice(n, size=count, p=dist)`` calls (same uniforms,
    same values).
    """
    if len(dest_dists) != n:
        raise ValueError("need one destination distribution per input")
    return _draw_from_cdfs(rng, inputs, _cdf_table(dest_dists))


class DestinationSampler:
    """Strategy for drawing each arrival's destination port.

    Both traffic generators (object and batch) call :meth:`draw` once per
    arrival chunk with the chunk's ``(slots, inputs)`` arrays.  A sampler
    defines its own RNG-consumption contract; because the *same* sampler
    instance type is used by both generators with the same seed, seeded
    object/vectorized engine parity holds for any sampler, stationary or
    not.
    """

    def draw(
        self,
        rng: np.random.Generator,
        slots: np.ndarray,
        inputs: np.ndarray,
        n: int,
    ) -> np.ndarray:
        """Destination port for each arrival event of one chunk."""
        raise NotImplementedError


class MatrixDestinations(DestinationSampler):
    """Stationary destinations from a fixed rate matrix (the default).

    Draws exactly as :func:`draw_destinations` does — the historical RNG
    consumption, inputs ascending, one uniform per arrival — but builds
    the inverse-CDF table once, here, instead of once per chunk.  Seeded
    runs predating the sampler abstraction are bit-identical.
    """

    def __init__(self, dest_dists: List[Optional[np.ndarray]]) -> None:
        self._table = _cdf_table(dest_dists)

    def draw(
        self,
        rng: np.random.Generator,
        slots: np.ndarray,
        inputs: np.ndarray,
        n: int,
    ) -> np.ndarray:
        return _draw_from_cdfs(rng, inputs, self._table)


class DriftingDestinations(DestinationSampler):
    """Nonstationary destinations: row distributions drift linearly in time.

    At slot ``t`` an arrival at input ``i`` draws its destination from the
    normalized row ``(1 - a) * start[i] + a * end[i]`` with
    ``a = min(t / horizon, 1)`` — the workload's traffic matrix morphs
    from ``start_matrix`` to ``end_matrix`` over ``horizon`` slots.  This
    is the stress case for any scheme (like Sprinklers' oracle placement)
    provisioned from a stationary rate estimate.

    RNG contract: one uniform per arrival, drawn per input present in the
    chunk, inputs ascending (mirroring :func:`draw_destinations`), then
    inverted through the slot-interpolated CDF.
    """

    def __init__(self, start_matrix, end_matrix, horizon: int) -> None:
        start_matrix = validate_matrix(start_matrix)
        end_matrix = validate_matrix(end_matrix)
        if start_matrix.shape != end_matrix.shape:
            raise ValueError("start and end matrices must have equal shapes")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.horizon = int(horizon)
        self._cdf0 = self._row_cdfs(start_matrix)
        self._cdf1 = self._row_cdfs(end_matrix)

    @staticmethod
    def _row_cdfs(matrix: np.ndarray) -> np.ndarray:
        """Per-row CDF right-edges; an all-zero row falls back to uniform."""
        n = matrix.shape[0]
        rows = matrix.copy()
        sums = rows.sum(axis=1)
        idle = sums == 0
        rows[idle] = 1.0 / n
        sums[idle] = 1.0
        return np.cumsum(rows / sums[:, None], axis=1)

    def draw(
        self,
        rng: np.random.Generator,
        slots: np.ndarray,
        inputs: np.ndarray,
        n: int,
    ) -> np.ndarray:
        dests = np.empty(len(inputs), dtype=np.int64)
        for inp in np.unique(inputs):
            mask = inputs == inp
            count = int(mask.sum())
            u = rng.random(count)
            alpha = np.minimum(slots[mask] / self.horizon, 1.0)
            edges = (1.0 - alpha)[:, None] * self._cdf0[int(inp)][None, :] + (
                alpha[:, None] * self._cdf1[int(inp)][None, :]
            )
            # A destination is the count of interior right-edges below u;
            # excluding the final edge (== 1) keeps the result in [0, n).
            dests[mask] = np.sum(u[:, None] > edges[:, : n - 1], axis=1)
        return dests


class SteppedPermutations(DestinationSampler):
    """Collective-communication destinations: a permutation per phase.

    Ring-style collectives (allreduce, allgather) send every node's
    traffic to exactly one peer at a time, stepping the peer each
    synchronization phase: during phase ``p`` (slot ``// phase_slots``),
    input ``i`` sends to ``(i + 1 + (p mod (n - 1))) mod n`` — each
    phase is a full derangement (never self), and ``n - 1`` consecutive
    phases visit every peer once, so the time-averaged matrix is uniform
    off-diagonal while the *instantaneous* matrix is maximally
    concentrated (one VOQ per input carries everything).  That contrast
    — provisioning sees the average, every moment looks adversarial — is
    the load-balancing stress the fat-tree and AI-workload papers
    evaluate.

    Consumes no RNG (destinations are a deterministic function of slot
    and input), so object/vectorized engine parity is structural.
    """

    def __init__(self, phase_slots: int) -> None:
        if phase_slots <= 0:
            raise ValueError("phase_slots must be positive")
        self.phase_slots = int(phase_slots)

    def draw(
        self,
        rng: np.random.Generator,
        slots: np.ndarray,
        inputs: np.ndarray,
        n: int,
    ) -> np.ndarray:
        if n <= 1:
            return np.zeros(len(inputs), dtype=np.int64)
        phase = slots // self.phase_slots
        shift = 1 + (phase % (n - 1))
        return (inputs + shift) % n


class FlowModel:
    """Synthetic application flows inside each VOQ (for hashing demos).

    TCP hashing routes each *application flow* — not each VOQ — through one
    intermediate port.  This model labels each generated packet with a flow
    id drawn Zipf-style from ``flows_per_voq`` candidate flows, so hashing
    switches have realistic skewed flow sizes to hash on.
    """

    def __init__(
        self,
        flows_per_voq: int,
        zipf_exponent: float,
        rng: np.random.Generator,
    ) -> None:
        if flows_per_voq <= 0:
            raise ValueError("flows_per_voq must be positive")
        if zipf_exponent < 0:
            raise ValueError("zipf_exponent must be nonnegative")
        self.flows_per_voq = flows_per_voq
        weights = np.arange(1, flows_per_voq + 1, dtype=float) ** (-zipf_exponent)
        self._probs = weights / weights.sum()
        self._rng = rng

    def draw_flow(self, input_port: int, output_port: int, n: int) -> int:
        """A globally unique flow id for a packet of VOQ (input, output)."""
        local = int(self._rng.choice(self.flows_per_voq, p=self._probs))
        return (input_port * n + output_port) * self.flows_per_voq + local


class TrafficGenerator:
    """Generates packets for a switch simulation, slot by slot.

    Parameters
    ----------
    matrix:
        ``N x N`` VOQ rate matrix.  Row sums are the per-input Bernoulli
        arrival probabilities; destinations are drawn proportionally to the
        row's entries.
    rng:
        Randomness for destination draws (and arrivals, if the default
        Bernoulli process is built internally).
    arrivals:
        Optional custom arrival process; defaults to Bernoulli with the
        matrix's row sums.
    flow_model:
        Optional application-flow labeling.
    seq_state:
        Optional per-VOQ sequence-number state, shared across generators.
        Pass the same dict to successive generators to keep sequence
        numbers (and hence reordering measurements) continuous across
        workload phases.
    destinations:
        Optional :class:`DestinationSampler`; defaults to stationary
        draws from the matrix rows (:class:`MatrixDestinations`).  The
        scenario subsystem passes :class:`DriftingDestinations` here for
        nonstationary matrices.
    """

    def __init__(
        self,
        matrix,
        rng: np.random.Generator,
        arrivals: Optional[ArrivalProcess] = None,
        flow_model: Optional[FlowModel] = None,
        seq_state: Optional[Dict[Tuple[int, int], int]] = None,
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
        self.flow_model = flow_model
        self._seq: Dict[Tuple[int, int], int] = (
            seq_state if seq_state is not None else {}
        )
        self.generated = 0

    def _next_seq(self, input_port: int, output_port: int) -> int:
        key = (input_port, output_port)
        seq = self._seq.get(key, 0)
        self._seq[key] = seq + 1
        return seq

    def slots(self, num_slots: int) -> Iterator[Tuple[int, List[Packet]]]:
        """Yield ``(slot, packets_arriving_in_slot)`` for each slot in order.

        Slots with no arrivals are yielded with an empty list so callers can
        drive switches that must step every slot.
        """
        slot_cursor = 0
        for slots, inputs in self.arrivals.events(num_slots):
            packets_by_slot: Dict[int, List[Packet]] = {}
            # Draw destinations for the whole chunk, then build packets
            # input by input.
            all_dests = self._destinations.draw(
                self._rng, slots, inputs, self.n
            )
            for inp in np.unique(inputs):
                mask = inputs == inp
                for slot, dest in zip(slots[mask], all_dests[mask]):
                    pkt = Packet(
                        input_port=int(inp),
                        output_port=int(dest),
                        arrival_slot=int(slot),
                        seq=self._next_seq(int(inp), int(dest)),
                    )
                    if self.flow_model is not None:
                        pkt.flow_id = self.flow_model.draw_flow(
                            pkt.input_port, pkt.output_port, self.n
                        )
                    packets_by_slot.setdefault(int(slot), []).append(pkt)
                    self.generated += 1
            chunk_end = min(slot_cursor + CHUNK_SLOTS, num_slots)
            # numpy nonzero order is row-major -> already sorted by slot,
            # but arrivals in the same slot across inputs must keep a
            # deterministic order: sort each slot's list by input port.
            for slot in range(slot_cursor, chunk_end):
                packets = packets_by_slot.get(slot, [])
                if len(packets) > 1:
                    packets.sort(key=lambda p: p.input_port)
                yield slot, packets
            slot_cursor = chunk_end

    def voq_rate(self, input_port: int, output_port: int) -> float:
        """The configured arrival rate of VOQ (input, output)."""
        return float(self.matrix[input_port][output_port])


def bernoulli_traffic(
    matrix, seed: int = 0, flow_model: Optional[FlowModel] = None
) -> TrafficGenerator:
    """Convenience constructor: Bernoulli traffic from a matrix and a seed."""
    # repro: lint-ignore[RNG003] -- public convenience constructor: raw seed is its API
    rng = np.random.default_rng(seed)
    return TrafficGenerator(matrix, rng, flow_model=flow_model)
