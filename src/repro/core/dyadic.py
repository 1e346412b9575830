"""Dyadic interval algebra over the intermediate-port range.

The Sprinklers design (paper §3.1) requires any two stripe intervals to
either "bear hug" (one contains the other) or not touch at all.  This is
achieved by making ``N`` a power of two and every stripe interval *dyadic*:
an interval obtained by splitting ``(0, N]`` into ``2^k`` equal parts.

The paper writes dyadic intervals as ``(2^k0 * m, 2^k0 * (m+1)]`` with ports
numbered ``1..N``.  This module uses the equivalent 0-indexed, half-open form
``[start, start + size)`` with ``size`` a power of two and ``start`` a
multiple of ``size``.  The family of dyadic intervals of ``[0, N)`` is a
laminar family — the structural property all of Sprinklers' scheduling
consistency arguments rest on.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

__all__ = [
    "DyadicInterval",
    "is_power_of_two",
    "log2_int",
    "dyadic_interval_for",
    "all_dyadic_intervals",
]


def is_power_of_two(n: int) -> bool:
    """Return ``True`` iff ``n`` is a positive power of two.

    >>> [is_power_of_two(n) for n in (0, 1, 2, 3, 4, 6, 8)]
    [False, True, True, False, True, False, True]
    """
    return n > 0 and (n & (n - 1)) == 0


def log2_int(n: int) -> int:
    """Exact integer log2 of a power of two.

    >>> log2_int(8)
    3
    """
    if not is_power_of_two(n):
        raise ValueError(f"{n} is not a positive power of two")
    return n.bit_length() - 1


class DyadicInterval:
    """A dyadic interval ``[start, start + size)`` of the port range ``[0, N)``.

    ``size`` must be a power of two and ``start`` a multiple of ``size``.
    Instances are immutable, hashable, and ordered by ``(start, size)``.

    >>> iv = DyadicInterval(4, 4)
    >>> iv.contains_port(5), iv.contains_port(8)
    (True, False)
    >>> iv.ports()
    range(4, 8)
    """

    __slots__ = ("start", "size")

    def __init__(self, start: int, size: int) -> None:
        if not is_power_of_two(size):
            raise ValueError(f"size must be a power of two, got {size}")
        if start < 0:
            raise ValueError(f"start must be nonnegative, got {start}")
        if start % size != 0:
            raise ValueError(
                f"start={start} is not aligned to size={size}; "
                "interval is not dyadic"
            )
        self.start = start
        self.size = size

    # -- basic geometry ----------------------------------------------------

    @property
    def end(self) -> int:
        """One past the last port of the interval."""
        return self.start + self.size

    @property
    def level(self) -> int:
        """log2 of the interval size."""
        return log2_int(self.size)

    def ports(self) -> range:
        """The ports covered by this interval."""
        return range(self.start, self.end)

    def contains_port(self, port: int) -> bool:
        """Whether ``port`` lies inside the interval."""
        return self.start <= port < self.end

    def strictly_inside(self, port: int) -> bool:
        """Whether ``port`` lies inside but not at the start.

        This is the condition under which inserting a stripe into the LSF
        structure while the connection pointer is at ``port`` would split the
        stripe's service across two frames: the pointer serves the rows from
        ``port`` on first and reaches the rows before it only after it wraps.
        """
        return self.start < port < self.end

    # -- laminar relations -------------------------------------------------

    def contains(self, other: "DyadicInterval") -> bool:
        """Whether this interval fully contains ``other`` (the "bear hug")."""
        return self.start <= other.start and other.end <= self.end

    def overlaps(self, other: "DyadicInterval") -> bool:
        """Whether the two intervals share at least one port."""
        return self.start < other.end and other.start < self.end

    def parent(self) -> "DyadicInterval":
        """The dyadic interval of twice the size containing this one.

        >>> DyadicInterval(4, 4).parent()
        DyadicInterval(0, 8)
        """
        size = self.size * 2
        return DyadicInterval((self.start // size) * size, size)

    def children(self) -> Tuple["DyadicInterval", "DyadicInterval"]:
        """The two dyadic halves of this interval (size must exceed 1)."""
        if self.size == 1:
            raise ValueError("a unit interval has no children")
        half = self.size // 2
        return (
            DyadicInterval(self.start, half),
            DyadicInterval(self.start + half, half),
        )

    def ancestors_within(self, n: int) -> Iterator["DyadicInterval"]:
        """Yield this interval and all enclosing dyadic intervals up to size n.

        >>> [iv.size for iv in DyadicInterval(6, 2).ancestors_within(8)]
        [2, 4, 8]
        """
        iv = self
        while iv.size <= n:
            yield iv
            if iv.size == n:
                break
            iv = iv.parent()

    # -- paper-facing helpers ------------------------------------------------

    def as_paper_notation(self) -> str:
        """Render in the paper's 1-indexed ``(l, l + 2^k]`` notation.

        >>> DyadicInterval(0, 4).as_paper_notation()
        '(0, 4]'
        """
        return f"({self.start}, {self.end}]"

    # -- dunder plumbing -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DyadicInterval):
            return NotImplemented
        return self.start == other.start and self.size == other.size

    def __lt__(self, other: "DyadicInterval") -> bool:
        return (self.start, self.size) < (other.start, other.size)

    def __hash__(self) -> int:
        return hash((self.start, self.size))

    def __contains__(self, port: int) -> bool:
        return self.contains_port(port)

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[int]:
        return iter(self.ports())

    def __repr__(self) -> str:
        return f"DyadicInterval({self.start}, {self.size})"


def dyadic_interval_for(port: int, size: int, n: int) -> DyadicInterval:
    """The unique dyadic interval of ``size`` containing ``port`` in ``[0, n)``.

    This is the paper's stripe-interval placement rule (§3.3.1): a VOQ whose
    primary intermediate port is ``port`` and whose stripe size is ``size``
    is assigned the unique size-``size`` dyadic interval containing the port.

    >>> dyadic_interval_for(5, 4, 8)
    DyadicInterval(4, 4)
    >>> dyadic_interval_for(5, 8, 8)
    DyadicInterval(0, 8)
    """
    if not is_power_of_two(n):
        raise ValueError(f"switch size n must be a power of two, got {n}")
    if not is_power_of_two(size) or size > n:
        raise ValueError(f"stripe size must be a power of two <= {n}, got {size}")
    if not 0 <= port < n:
        raise ValueError(f"port {port} outside [0, {n})")
    return DyadicInterval((port // size) * size, size)


def all_dyadic_intervals(n: int) -> List[DyadicInterval]:
    """Every dyadic interval of ``[0, n)``, largest first.

    There are exactly ``2n - 1`` of them — the paper's observation (§3.4.2)
    that the collapsed input-side LSF structure needs only ``2N - 1`` FIFO
    queues.

    >>> len(all_dyadic_intervals(8))
    15
    """
    if not is_power_of_two(n):
        raise ValueError(f"n must be a power of two, got {n}")
    intervals: List[DyadicInterval] = []
    size = n
    while size >= 1:
        for start in range(0, n, size):
            intervals.append(DyadicInterval(start, size))
        size //= 2
    return intervals
