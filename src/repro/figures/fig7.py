"""Experiment E4: Figure 7 — average delay vs load, diagonal traffic, N=32."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..models import PAPER_SWITCHES
from .delay_figures import DEFAULT_LOADS, generate as _generate, render as _render

__all__ = ["generate", "render"]


def generate(
    n: int = 32,
    loads: Sequence[float] = DEFAULT_LOADS,
    num_slots: int = 50_000,
    seed: int = 0,
    scenario: Optional[str] = None,
    fabrics: Sequence[str] = (),
    store=None,
    window_slots: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Figure 7 rows (diagonal destinations, or any scenario override)."""
    return _generate(
        scenario or "diagonal",
        n=n,
        loads=loads,
        num_slots=num_slots,
        switches=tuple(PAPER_SWITCHES) + tuple(fabrics),
        seed=seed,
        store=store,
        window_slots=window_slots,
    )


def render(
    n: int = 32,
    loads: Sequence[float] = DEFAULT_LOADS,
    num_slots: int = 50_000,
    seed: int = 0,
    scenario: Optional[str] = None,
    fabrics: Sequence[str] = (),
    store=None,
    window_slots: Optional[int] = None,
) -> str:
    """Figure 7 table + chart (titled with the scenario when overridden)."""
    return _render(
        scenario or "diagonal",
        "Figure 7" if scenario is None else f"Figure 7 [{scenario}]",
        n=n,
        loads=loads,
        num_slots=num_slots,
        switches=tuple(PAPER_SWITCHES) + tuple(fabrics),
        seed=seed,
        store=store,
        window_slots=window_slots,
    )
