"""Largest Stripe First (LSF) scheduling structures (paper §3.4).

Both the input ports and the intermediate ports of a Sprinklers switch
schedule *stripes*, largest first, using the same data structure (paper
Fig. 4): an array of FIFO queues with N rows (one per intermediate port)
and ``log2 N + 1`` columns (one per stripe size), plus one bitmap per row
encoding which of its FIFOs are nonempty.  Serving a row is a single
"find first one from the right" bitmap scan — constant time — followed by
one FIFO pop.

Two deployments of the structure:

* :class:`LsfInputScheduler` — at an input port.  Whole stripes are
  "plastered" into the rows of their dyadic interval, one packet per row,
  but only at *safe* instants (when the fabric-1 connection pointer is not
  strictly inside the interval) so that each stripe leaves the input in
  consecutive slots.
* :class:`LsfIntermediateScheduler` — at an intermediate port, which holds
  one *row* of the virtual schedule grid of each output (paper §3.4.3).
  Packets arrive individually (already staggered correctly by fabric 1) and
  are filed by (output, stripe size); the paper's laminar/staggering
  argument makes the per-port greedy choice globally consistent.
"""

from __future__ import annotations

from typing import List, Optional

from ..switching.packet import Packet
from ..switching.ports import FifoQueue
from .dyadic import log2_int
from .striping import Stripe

__all__ = ["LsfInputScheduler", "LsfIntermediateScheduler", "highest_set_bit"]


def highest_set_bit(bitmap: int) -> int:
    """Index of the most significant set bit, or -1 if ``bitmap == 0``.

    This is the paper's "first one from the right" scan of a row of the
    2-D status bitmap (their columns grow rightward with stripe size; our
    bit index grows with the size exponent), i.e. the largest nonempty
    stripe-size class.

    >>> highest_set_bit(0b0110)
    2
    >>> highest_set_bit(0)
    -1
    """
    return bitmap.bit_length() - 1


class LsfInputScheduler:
    """The input-port LSF structure: N rows x (log2 N + 1) size columns.

    Rows are intermediate ports; column ``k`` of row ``m`` holds, in FIFO
    order, the packets bound for intermediate port ``m`` that belong to
    size-``2^k`` stripes.  (The paper notes the input side could collapse
    to ``2N - 1`` FIFOs; we keep the verbose grid, which is the same
    structure the intermediate ports need, and is O(1)-equivalent.)
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.levels = log2_int(n) + 1
        self._fifos: List[List[FifoQueue]] = [
            [FifoQueue() for _ in range(self.levels)] for _ in range(n)
        ]
        self._bitmaps: List[int] = [0] * n
        self.occupancy = 0

    def can_insert(self, stripe: Stripe, pointer: int) -> bool:
        """Whether inserting now keeps the stripe's service in one burst.

        ``pointer`` is the intermediate port the input is connected to in
        the current slot (the row about to be served).  Insertion is safe
        iff the pointer is not strictly inside the stripe's interval: the
        interval's rows are then polled in one consecutive run, entirely
        after the insertion.
        """
        return not stripe.interval.strictly_inside(pointer)

    def insert(self, stripe: Stripe) -> None:
        """Plaster a stripe into its interval's rows, one packet per row."""
        level = stripe.interval.level
        bit = 1 << level
        for port in stripe.interval.ports():
            self._fifos[port][level].push(stripe.packet_for_port(port))
            self._bitmaps[port] |= bit
        self.occupancy += stripe.size

    def serve(self, row: int) -> Optional[Packet]:
        """Serve row ``row``: pop the head of its largest nonempty FIFO."""
        bitmap = self._bitmaps[row]
        if bitmap == 0:
            return None
        level = highest_set_bit(bitmap)
        fifo = self._fifos[row][level]
        packet = fifo.pop()
        if not fifo:
            self._bitmaps[row] &= ~(1 << level)
        self.occupancy -= 1
        return packet

    def row_occupancy(self, row: int) -> int:
        """Packets queued for intermediate port ``row``."""
        return sum(len(f) for f in self._fifos[row])

    def __repr__(self) -> str:
        return f"LsfInputScheduler(n={self.n}, occupancy={self.occupancy})"


class LsfIntermediateScheduler:
    """One intermediate port's share of every output's virtual schedule grid.

    For each output ``j`` the port keeps ``log2 N + 1`` FIFOs — its row of
    output ``j``'s distributed LSF structure — and a bitmap over them.
    Packets are filed by the stripe size carried in their header; within a
    (output, size) class, all stripes covering this port share the same
    dyadic interval, so FIFO order here equals stripe arrival order
    everywhere in the interval, which is what keeps the distributed
    decisions consistent.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.levels = log2_int(n) + 1
        self._fifos: List[List[FifoQueue]] = [
            [FifoQueue() for _ in range(self.levels)] for _ in range(n)
        ]
        self._bitmaps: List[int] = [0] * n
        self.occupancy = 0

    def deliver(self, packet: Packet) -> None:
        """File an arriving packet under (its output, its stripe size)."""
        if packet.stripe_size <= 0:
            raise ValueError(f"packet {packet!r} has no stripe header")
        level = log2_int(packet.stripe_size)
        output = packet.output_port
        self._fifos[output][level].push(packet)
        self._bitmaps[output] |= 1 << level
        self.occupancy += 1

    def serve(self, output: int) -> Optional[Packet]:
        """Serve output ``output``: pop its largest nonempty size class."""
        bitmap = self._bitmaps[output]
        if bitmap == 0:
            return None
        level = highest_set_bit(bitmap)
        fifo = self._fifos[output][level]
        packet = fifo.pop()
        if not fifo:
            self._bitmaps[output] &= ~(1 << level)
        self.occupancy -= 1
        return packet

    def output_occupancy(self, output: int) -> int:
        """Packets buffered here for ``output``."""
        return sum(len(f) for f in self._fifos[output])

    def __repr__(self) -> str:
        return (
            f"LsfIntermediateScheduler(n={self.n}, occupancy={self.occupancy})"
        )
