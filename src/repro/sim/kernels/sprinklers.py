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
    and therefore every departure slot — is identical.  Sizes and starts
    are at most ``n``: int32, no wider than any per-packet slot column
    they are added to.  Levels are below 16 (the polled-queue replay
    packs them into 4 bits): one byte each.
    """
    n = matrix.shape[0]
    placement_rng = np.random.default_rng(
        derive_seed(seed, "sprinklers-placement")
    )
    assignment = StripeIntervalAssignment(
        matrix, rng=placement_rng, mode=PlacementMode.OLS
    )
    sizes = np.empty(n * n, dtype=np.int32)
    starts = np.empty(n * n, dtype=np.int32)
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
    offset = c + voq // n
    offset %= n
    offset -= starts[voq]
    size = sizes[voq]
    inside = (offset > 0) & (offset < size)
    wait = np.subtract(size, offset, out=offset)
    wait *= inside
    wait += c
    return wait


class Stream(StreamKernel):
    """Windowed replay of the Sprinklers data path: stripes assemble in a
    :class:`UnitAssembler` and cross both stages' :class:`PolledQueueBank`
    replays, bit-identical to the monolithic :func:`departures`."""

    def __init__(self, matrix: np.ndarray, seed: int, total_slots: int) -> None:
        super().__init__(matrix, seed, total_slots)
        n = self.n
        self._sizes, self._starts, self._levels = _placement_tables(
            matrix, seed
        )
        self._assembler = UnitAssembler(self._sizes)
        self._stage1 = PolledQueueBank(row_residues(n), n)
        self._stage2 = PolledQueueBank(mid_residues(n), n)

    def _replay(self, events, boundary):
        """Assemble stripes, then push the completed ones through both
        stages up to ``boundary``."""
        n = self.n
        slots, _, _, voqs, seqs, gidx = events
        voq, slot, seq, gidx, pos, c_slot, c_order = self._assembler.feed(
            voqs, slots, seqs, gidx
        )
        row = self._starts[voq] + pos
        tx, _, payload = self._stage1.feed(
            voq // n * n + row,
            self._levels[voq],
            _insertion_slots(voq, c_slot, self._sizes, self._starts, n),
            c_order,
            (voq, seq, slot, row, c_slot),
            boundary,
        )
        voq, seq, slot, row, c_slot = payload
        departure, tx, payload = self._stage2.feed(
            row * n + voq % n,
            self._levels[voq],
            tx + 1,
            tx,
            (voq, seq, slot, row, c_slot),
            boundary,
        )
        voq, seq, slot, row, c_slot = payload
        return Departures(
            voq=voq,
            seq=seq,
            arrival=slot,
            departure=departure,
            wire=row,
            assembled=c_slot,
            tx=tx,
        )

    def _extras(self):
        return {"resizes": 0.0}  # oracle sizing never resizes
