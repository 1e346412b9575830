"""Experiment E3: Figure 6 — average delay vs load, uniform traffic, N=32."""

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
    """Figure 6 rows (uniform destinations, or any scenario override)."""
    return _generate(
        scenario or "uniform",
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
    """Figure 6 table + chart (titled with the scenario when overridden)."""
    return _render(
        scenario or "uniform",
        "Figure 6" if scenario is None else f"Figure 6 [{scenario}]",
        n=n,
        loads=loads,
        num_slots=num_slots,
        switches=tuple(PAPER_SWITCHES) + tuple(fabrics),
        seed=seed,
        store=store,
        window_slots=window_slots,
    )
