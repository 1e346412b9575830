"""Deterministic periodic connection patterns of the two switching fabrics.

A load-balanced switch (paper Fig. 1) contains two fabrics that each execute
a fixed periodic sequence of permutation connections, so that every
input/output pair of a fabric is connected exactly once every N slots — no
scheduler, no arbitration.

With 0-indexed ports, the paper's patterns (§3.4) become:

* **first fabric** ("increasing"): at slot ``t``, input ``i`` is connected
  to intermediate port ``(i + t) mod N``;
* **second fabric** ("decreasing"): at slot ``t``, intermediate port ``m``
  is connected to output ``(m - t) mod N`` — equivalently, output ``j``
  receives from intermediate ``(j + t) mod N``.

The pairing matters: from a single input's viewpoint the target intermediate
port *increases* by one each slot, and from a single output's viewpoint the
source intermediate port also increases by one each slot.  A stripe written
to consecutive intermediate ports in consecutive slots is therefore read out
in consecutive slots as well — the alignment behind Sprinklers' distributed
Largest-Stripe-First consistency (§3.4.3).

Both patterns are plain formulas: :class:`TwoStageSwitch` calls
:func:`increasing_connection` and :func:`decreasing_connection` each slot,
and no permutation table is ever built.
"""

from __future__ import annotations

__all__ = [
    "increasing_connection",
    "decreasing_connection",
    "output_source",
]


def increasing_connection(input_port: int, slot: int, n: int) -> int:
    """Intermediate port connected to ``input_port`` at ``slot`` (fabric 1)."""
    return (input_port + slot) % n


def decreasing_connection(intermediate_port: int, slot: int, n: int) -> int:
    """Output port connected to ``intermediate_port`` at ``slot`` (fabric 2)."""
    return (intermediate_port - slot) % n


def output_source(output_port: int, slot: int, n: int) -> int:
    """Intermediate port that output ``output_port`` reads at ``slot``.

    Inverse view of :func:`decreasing_connection`:

    >>> n = 8
    >>> all(
    ...     decreasing_connection(output_source(j, t, n), t, n) == j
    ...     for j in range(n) for t in range(2 * n)
    ... )
    True
    """
    return (output_port + slot) % n
