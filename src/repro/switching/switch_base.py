"""Abstract two-stage load-balanced switch and its slot protocol.

Every switch in this library — Sprinklers and all the baselines — shares the
same physical architecture (paper Fig. 1): N inputs, N intermediate ports,
N outputs, and the two deterministic periodic fabrics of
:mod:`repro.switching.fabric`.  What differs is purely the *logic* at the
input and intermediate ports, so this base class fixes the per-slot protocol
and the bookkeeping, and subclasses implement three hooks.

Slot protocol (the timing convention every switch shares), executed by
:meth:`TwoStageSwitch.step` for each slot ``t``:

1. **deliver** — packets that crossed fabric 1 during slot ``t-1`` are
   delivered to their intermediate ports (they become eligible for stage-2
   service from this slot on);
2. **accept** — packets arriving at the inputs in slot ``t`` are handed to
   the input logic (eligible for stage-1 service in the same slot);
3. **stage 1** — each input may transmit one packet to the intermediate
   port fabric 1 currently connects it to;
4. **stage 2** — each intermediate port may transmit one packet to the
   output fabric 2 currently connects it to; those packets depart.

The base class enforces the fabric constraints (one packet per connection,
correct endpoint) and maintains conservation counters used by tests.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from .fabric import decreasing_connection, increasing_connection
from .packet import Packet

__all__ = ["TwoStageSwitch"]


class TwoStageSwitch:
    """Base class for all two-stage load-balanced switches.

    Subclasses implement:

    * :meth:`_accept` — file newly arrived packets into input-side state;
    * :meth:`_serve_input` — pick (at most) the one packet input ``i``
      transmits to intermediate port ``m`` this slot;
    * :meth:`_deliver` — file a packet that just crossed fabric 1 into
      intermediate-port state;
    * :meth:`_serve_intermediate` — pick (at most) the one packet
      intermediate ``m`` transmits to output ``j`` this slot;
    * :meth:`buffered_packets` — total packets currently buffered (for
      conservation checks).

    Subclasses may also override :meth:`_on_departure` (e.g. to feed
    resequencers or clearance accounting).
    """

    #: Human-readable algorithm name (overridden by subclasses).
    name = "two-stage"
    #: Whether the algorithm guarantees in-order delivery per VOQ.
    guarantees_ordering = False

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError(f"switch size must be positive, got {n}")
        self.n = n
        self.now = 0
        self.injected = 0
        self.departed = 0
        self.fake_departed = 0
        self.dropped = 0
        # Packets in flight between the stages: delivered next slot.
        self._crossing: List[Tuple[int, Packet]] = []

    def _drop(self, packet: Packet) -> None:
        """Record an arrival rejected for lack of buffer space.

        Switches with finite buffers call this from :meth:`_accept` instead
        of enqueueing; the packet leaves the conservation equation through
        the ``dropped`` counter.
        """
        self.dropped += 1

    # -- hooks for subclasses -------------------------------------------------

    def _accept(self, slot: int, packets: List[Packet]) -> None:
        """File arrivals into input-side state."""
        raise NotImplementedError

    def _serve_input(self, slot: int, input_port: int, mid_port: int) -> Optional[Packet]:
        """Packet input ``input_port`` sends to intermediate ``mid_port``."""
        raise NotImplementedError

    def _deliver(self, slot: int, mid_port: int, packet: Packet) -> None:
        """File a packet arriving at intermediate ``mid_port``."""
        raise NotImplementedError

    def _serve_intermediate(
        self, slot: int, mid_port: int, output_port: int
    ) -> Optional[Packet]:
        """Packet intermediate ``mid_port`` sends to output ``output_port``."""
        raise NotImplementedError

    def buffered_packets(self) -> int:
        """Packets currently buffered anywhere in the switch."""
        raise NotImplementedError

    def _on_departure(self, slot: int, packet: Packet) -> None:
        """Hook invoked as each packet reaches its output."""

    # -- fabric hooks ------------------------------------------------------------

    def _stage1_connection(self, input_port: int, slot: int) -> int:
        """Intermediate port fabric 1 connects to ``input_port`` at ``slot``.

        Default: the paper's "increasing" sequence.  Overridable so tests
        can demonstrate that the increasing/decreasing *pairing* of the two
        fabrics is load-bearing for stripe continuity.
        """
        return increasing_connection(input_port, slot, self.n)

    def _stage2_connection(self, mid_port: int, slot: int) -> int:
        """Output port fabric 2 connects to ``mid_port`` at ``slot``.

        Default: the paper's "decreasing" sequence.
        """
        return decreasing_connection(mid_port, slot, self.n)

    # -- the slot protocol -----------------------------------------------------

    def step(self, slot: int, arrivals: List[Packet]) -> List[Packet]:
        """Advance the switch by one slot; return the packets departing now.

        ``slot`` must advance by exactly one per call (the fabrics are
        time-indexed).  Fake (padding) packets may appear in the return
        value; they carry ``fake=True`` and are excluded from the
        conservation counters' real-packet totals.
        """
        if slot != self.now:
            raise ValueError(f"expected slot {self.now}, got {slot}")
        n = self.n

        # Phase 1: deliver packets that crossed fabric 1 last slot.
        for mid_port, packet in self._crossing:
            self._deliver(slot, mid_port, packet)
        self._crossing = []

        # Phase 2: accept this slot's arrivals.
        for packet in arrivals:
            if packet.arrival_slot != slot:
                raise ValueError(
                    f"packet {packet!r} arrival slot does not match {slot}"
                )
            if not 0 <= packet.input_port < n:
                raise ValueError(f"bad input port on {packet!r}")
            if not 0 <= packet.output_port < n:
                raise ValueError(f"bad output port on {packet!r}")
        if arrivals:
            self.injected += sum(1 for p in arrivals if not p.fake)
            self._accept(slot, arrivals)

        # Phase 3: stage-1 service along fabric 1's current matching.
        for input_port in range(n):
            mid_port = self._stage1_connection(input_port, slot)
            packet = self._serve_input(slot, input_port, mid_port)
            if packet is not None:
                packet.tx_slot = slot
                self._crossing.append((mid_port, packet))

        # Phase 4: stage-2 service along fabric 2's current matching.
        wire: List[Packet] = []
        for mid_port in range(n):
            output_port = self._stage2_connection(mid_port, slot)
            packet = self._serve_intermediate(slot, mid_port, output_port)
            if packet is None:
                continue
            if packet.output_port != output_port:
                raise AssertionError(
                    f"{self.name}: intermediate {mid_port} sent {packet!r} "
                    f"to output {output_port}"
                )
            wire.append(packet)
        departures = self._finalize_departures(slot, wire)

        self.now = slot + 1
        return departures

    def _finalize_departures(self, slot: int, wire: List[Packet]) -> List[Packet]:
        """Turn packets reaching the outputs into departed packets.

        The default marks every wire packet as departing now.  Switches with
        output resequencers (FOFF) override this to buffer out-of-order
        packets and depart them at their in-order release instant.
        """
        for packet in wire:
            self._depart(slot, packet)
        return wire

    def _depart(self, slot: int, packet: Packet) -> None:
        """Stamp and count a single departing packet."""
        packet.departure_slot = slot
        if packet.fake:
            self.fake_departed += 1
        else:
            self.departed += 1
        self._on_departure(slot, packet)

    def run(self, slotted_arrivals: Iterable[Tuple[int, List[Packet]]]) -> List[Packet]:
        """Drive the switch over a pre-generated arrival stream.

        Convenience wrapper for tests; the simulation engine in
        :mod:`repro.sim.engine` offers warm-up handling and metrics.
        """
        all_departures: List[Packet] = []
        for slot, packets in slotted_arrivals:
            all_departures.extend(self.step(slot, packets))
        return all_departures

    def drain(self, max_slots: int, idle_limit: Optional[int] = None) -> List[Packet]:
        """Step with no arrivals until the switch stops releasing packets.

        Stops after ``idle_limit`` consecutive departure-free slots
        (default ``4n`` — a staged Sprinklers stripe can wait up to ``n``
        slots for aligned insertion and then take two fabric revolutions to
        reach its output) or after ``max_slots``, whichever comes first.
        Note that partially filled stripes/frames legitimately never depart,
        so "drained" means "quiescent", not "empty".
        """
        if idle_limit is None:
            idle_limit = 4 * self.n
        departures: List[Packet] = []
        idle = 0
        for _ in range(max_slots):
            out = self.step(self.now, [])
            departures.extend(out)
            idle = 0 if out else idle + 1
            if idle >= idle_limit:
                break
        return departures

    # -- accounting -------------------------------------------------------------

    def in_flight(self) -> int:
        """Real packets inside the switch (accepted but not departed)."""
        return self.injected - self.departed - self.dropped

    def conservation_ok(self) -> bool:
        """Whether buffered + crossing packets account for all in-flight ones.

        Subclasses whose :meth:`buffered_packets` counts fake packets too
        should override; the stock check ignores fakes by comparing against
        real-packet counters only, so switches that inject fakes (Padded
        Frames) provide their own accounting.
        """
        crossing_real = sum(1 for _, p in self._crossing if not p.fake)
        return self.buffered_packets() + crossing_real == self.in_flight()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.n}, t={self.now}, "
            f"in_flight={self.in_flight()})"
        )
