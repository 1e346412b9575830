"""Vectorized kernel: the Sprinklers switch (paper §3, oracle sizing)."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ...core.interval_assignment import PlacementMode, StripeIntervalAssignment
from ...sim.rng import derive_seed
from ...traffic.batch import ArrivalBatch
from .base import (
    Departures,
    PolledQueueBank,
    StreamKernel,
    UnitAssembler,
    mid_residues,
    replay_polled_queues,
    row_residues,
    unit_completion,
)

__all__ = ["Stream", "departures"]


def _placement_tables(matrix: np.ndarray, seed: int):
    """Per-VOQ stripe (size, start, level) tables of one seed's placement.

    Drawn from the same derived seed as the object-engine builder
    (``derive_seed(seed, "sprinklers-placement")``), so the placement —
    and therefore every departure slot — is identical.  Levels are below
    16 (the polled-queue replay packs them into 4 bits): one byte each.
    """
    n = matrix.shape[0]
    placement_rng = np.random.default_rng(
        derive_seed(seed, "sprinklers-placement")
    )
    assignment = StripeIntervalAssignment(
        matrix, rng=placement_rng, mode=PlacementMode.OLS
    )
    sizes = np.empty(n * n, dtype=np.int64)
    starts = np.empty(n * n, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            interval = assignment.interval(i, j)
            sizes[i * n + j] = interval.size
            starts[i * n + j] = interval.start
    return sizes, starts, np.log2(sizes).astype(np.uint8)


def departures(
    batch: ArrivalBatch, matrix: np.ndarray, seed: int
) -> Tuple[Departures, Optional[Dict[str, float]]]:
    """Replay the Sprinklers data path.

    The stripe-interval assignment is drawn from the same derived seed as
    the object-engine builder (``derive_seed(seed, "sprinklers-placement")``),
    so the placement — and therefore every departure slot — is identical.
    """
    n = batch.n
    sizes, starts, levels_tab = _placement_tables(matrix, seed)
    # Only packets of completed stripes ever leave their VOQ.
    packet, voq, row, c, g = unit_completion(batch, sizes)
    row += starts[voq]  # position in the stripe -> LSF row
    level = levels_tab[voq]

    # Stage 1: input i's LSF row `row` is polled by fabric 1 at slots
    # t ≡ row - i (mod n), serving the largest stripe class first; within
    # a (row, class) FIFO the order is stripe completion order (stripes of
    # one class covering a row share one dyadic interval, hence one safe-
    # insertion schedule, so insertion order equals completion order).
    tx = replay_polled_queues(
        voq // n * n + row,
        level,
        _insertion_slots(voq, c, sizes, starts, n),
        g,
        row_residues(n),
        n,
    )
    del g

    # Stage 2: the packet crosses to intermediate port `row` at tx and is
    # delivered next slot; intermediate m serves output j at slots
    # t ≡ m - j (mod n), again largest class first, FIFO by delivery
    # order (at most one delivery per intermediate per slot).
    departure = replay_polled_queues(
        row * n + voq % n, level, tx + 1, tx, mid_residues(n), n
    )
    dep = Departures(
        voq=voq,
        seq=batch.seqs[packet],
        arrival=batch.slots[packet],
        departure=departure,
        wire=row,
        assembled=c,
        tx=tx,
    )
    return dep, {"resizes": 0.0}  # oracle sizing never resizes


def _insertion_slots(
    voq: np.ndarray,
    c: np.ndarray,
    sizes: np.ndarray,
    starts: np.ndarray,
    n: int,
) -> np.ndarray:
    """Safe insertion (§3.4.2) of the stripes completed at slots ``c``.

    A completed stripe enters the input's LSF grid at the first slot,
    from completion on, at which the fabric-1 pointer is not strictly
    inside its interval; while the pointer is at start+1 .. start+size-1
    the stripe waits until the pointer reaches the interval's end.
    """
    # The fabric-1 pointer (input + slot, mod n) less the interval start.
    offset = voq // n
    offset += c
    offset %= n
    offset -= starts[voq]
    wait = sizes[voq]
    inside = (offset > 0) & (offset < wait)
    wait -= offset
    wait *= inside
    wait += c
    return wait


class Stream(StreamKernel):
    """Windowed (and seed-stacked) replay of the Sprinklers data path.

    Seed block ``b`` owns VOQ ids ``b * n^2 + voq`` and queue ids in the
    matching blocks, so one :class:`PolledQueueBank` replay pass serves
    every seed at once while keeping the seeds' dynamics exactly
    independent — per-seed results are bit-identical to the monolithic
    :func:`departures`.
    """

    def __init__(self, matrix: np.ndarray, seeds, total_slots: int) -> None:
        super().__init__(matrix, seeds, total_slots)
        n = self.n
        tables = [_placement_tables(matrix, seed) for seed in seeds]
        self._sizes = np.concatenate([t[0] for t in tables])
        self._starts = np.concatenate([t[1] for t in tables])
        self._levels = np.concatenate([t[2] for t in tables])
        self._assembler = UnitAssembler(self._sizes)
        self._stage1 = PolledQueueBank(
            np.tile(row_residues(n), self.num_blocks), n
        )
        self._stage2 = PolledQueueBank(
            np.tile(mid_residues(n), self.num_blocks), n
        )

    def _replay(self, events, boundary):
        """Assemble stripes, then push the completed ones through both
        stages up to ``boundary``."""
        n = self.n
        block, slots, inputs, outputs, seqs, gidx = events
        voq_x, slot, seq, gidx, pos, c_slot, c_order = self._assembler.feed(
            block * n * n + inputs * n + outputs, slots, seqs, gidx
        )
        row = self._starts[voq_x] + pos
        tx, _, payload = self._stage1.feed(
            voq_x // n * n + row,
            self._levels[voq_x],
            _insertion_slots(voq_x, c_slot, self._sizes, self._starts, n),
            c_order,
            (voq_x, seq, slot, row, c_slot),
            boundary,
        )
        voq_x, seq, slot, row, c_slot = payload
        departure, tx, payload = self._stage2.feed(
            (voq_x // (n * n)) * n * n + row * n + (voq_x % n),
            self._levels[voq_x],
            tx + 1,
            tx,
            (voq_x, seq, slot, row, c_slot),
            boundary,
        )
        voq_x, seq, slot, row, c_slot = payload
        return Departures(
            voq=voq_x,
            seq=seq,
            arrival=slot,
            departure=departure,
            wire=row,
            assembled=c_slot,
            tx=tx,
        )

    def _extras(self):
        # Oracle sizing never resizes.
        return [{"resizes": 0.0}] * self.num_blocks
