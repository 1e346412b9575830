"""Full Ordered Frames First (FOFF) — paper §2.2, reference [11].

FOFF removes UFS's full-frame wait: when an input has a full frame (N
packets of one VOQ) it serves it exactly like UFS; when it has none, it
serves *partial* frames from nonempty VOQs in round-robin order rather than
idling.  Partial frames break the equal-queue-length invariant at the
intermediate stage, so packets can reach their output out of order — but
only boundedly so (O(N^2) in [11]) — and a resequencing buffer at each
output restores order before delivery.

Mechanics implemented here:

* frame-at-a-time service per input; a new frame starts the slot after the
  previous one finishes, at whatever fabric offset that is;
* full frames take strict priority; among VOQs with full frames a
  round-robin pointer picks the next; among partial frames a second
  round-robin pointer picks the next nonempty VOQ;
* a partial frame takes everything currently in the VOQ (< N packets);
* departures are the *resequenced* releases: a packet departs when it and
  all its VOQ predecessors have reached the output.  Reported delay
  therefore includes resequencing delay, as in the paper's evaluation.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from .packet import Packet
from .ports import PerOutputBank, VoqBank
from .resequencer import Resequencer
from .switch_base import TwoStageSwitch

__all__ = ["FoffSwitch"]


class FoffSwitch(TwoStageSwitch):
    """Full Ordered Frames First load-balanced switch."""

    name = "foff"
    guarantees_ordering = True  # via output resequencers

    def __init__(self, n: int) -> None:
        super().__init__(n)
        self._voqs: List[VoqBank] = [VoqBank(n) for _ in range(n)]
        self._active_frame: List[Optional[Deque[Packet]]] = [None] * n
        self._full_rr: List[int] = [0] * n  # round-robin over full frames
        self._partial_rr: List[int] = [0] * n  # round-robin over partial frames
        self._mid_banks: List[PerOutputBank] = [PerOutputBank(n) for _ in range(n)]
        self.resequencers: List[Resequencer] = [Resequencer() for _ in range(n)]

    # -- input side -------------------------------------------------------------

    def _accept(self, slot: int, packets: List[Packet]) -> None:
        for packet in packets:
            self._voqs[packet.input_port].push(packet)

    def _pick_frame(self, slot: int, input_port: int) -> Optional[Deque[Packet]]:
        """Select the next frame to serve: full frames first, else partial."""
        bank = self._voqs[input_port]
        n = self.n
        frame: Optional[Deque[Packet]] = None
        # Full frames, round-robin starting at the pointer.
        pointer = self._full_rr[input_port]
        for offset in range(n):
            j = (pointer + offset) % n
            voq = bank.queue(j)
            if len(voq) >= n:
                self._full_rr[input_port] = (j + 1) % n
                frame = deque(voq.pop() for _ in range(n))
                break
        if frame is None:
            # Partial frames, separate round-robin pointer.
            pointer = self._partial_rr[input_port]
            for offset in range(n):
                j = (pointer + offset) % n
                voq = bank.queue(j)
                if voq:
                    self._partial_rr[input_port] = (j + 1) % n
                    count = len(voq)
                    frame = deque(voq.pop() for _ in range(count))
                    break
        if frame is not None:
            for member in frame:
                member.assembled_slot = slot
        return frame

    def _serve_input(
        self, slot: int, input_port: int, mid_port: int
    ) -> Optional[Packet]:
        active = self._active_frame[input_port]
        if active is None:
            # Cycle-aligned like UFS: frames start only at port 0, so full
            # frames deposit one packet at ports 0..N-1 in port order and
            # stay in order; residual reordering comes only from partial
            # frames (absorbed by the output resequencers).
            if mid_port != 0:
                return None
            active = self._pick_frame(slot, input_port)
            if active is None:
                return None
            self._active_frame[input_port] = active
        packet = active.popleft()
        if not active:
            self._active_frame[input_port] = None
        return packet

    # -- intermediate and output side ---------------------------------------------

    def _deliver(self, slot: int, mid_port: int, packet: Packet) -> None:
        self._mid_banks[mid_port].push(packet)

    def _serve_intermediate(
        self, slot: int, mid_port: int, output_port: int
    ) -> Optional[Packet]:
        queue = self._mid_banks[mid_port].queue(output_port)
        if queue:
            return queue.pop()
        return None

    def _finalize_departures(self, slot: int, wire: List[Packet]) -> List[Packet]:
        """Route wire packets through the per-output resequencers."""
        departures: List[Packet] = []
        for packet in wire:
            for released in self.resequencers[packet.output_port].offer(packet):
                self._depart(slot, released)
                departures.append(released)
        return departures

    # -- accounting ---------------------------------------------------------------

    def max_resequencer_occupancy(self) -> int:
        """Peak packets held across all output resequencers (O(N^2) claim)."""
        return max(r.max_occupancy for r in self.resequencers)

    def buffered_packets(self) -> int:
        total = 0
        for i in range(self.n):
            total += self._voqs[i].occupancy()
            active = self._active_frame[i]
            if active is not None:
                total += len(active)
        total += sum(bank.occupancy() for bank in self._mid_banks)
        total += sum(r.pending() for r in self.resequencers)
        return total
