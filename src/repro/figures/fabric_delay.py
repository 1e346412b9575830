"""Fabric figure: per-stage delay decomposition versus offered load.

For a composite fabric, every packet's end-to-end delay telescopes into
per-stage components (a packet departs stage k in the slot it arrives at
stage k+1), so the per-stage mean delays reported by
:func:`repro.sim.composite.run_fabric` sum exactly to the end-to-end mean.
This figure plots that decomposition across a load sweep: which stage of a
multi-stage fabric dominates delay, and where the knee moves as load rises.

Rows carry ``load``, the end-to-end ``mean_delay``, one
``stage{k}_mean_delay`` column per stage, and the end-to-end reordering
count; the rendered chart plots the end-to-end curve alongside every
stage's curve on the shared log axis.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .. import telemetry
from ..models import CompositeSwitchModel, resolve_fabric
from ..sim.experiment import execute, plan_cell, resolve_pattern
from ..store import coerce_store
from .delay_figures import DEFAULT_LOADS
from .render import ascii_log_chart, format_table

__all__ = ["generate", "render", "figure_params", "DEFAULT_LOADS"]


def figure_params(
    fabric_spec,
    pattern,
    n: int,
    loads: Sequence[float],
    num_slots: int,
    seed: int,
) -> Dict:
    """Store cache-key parameters of one rendered decomposition figure.

    Content-addressed over the figure spec and the per-load plan keys —
    the same any-cell-misses-the-table discipline as
    :func:`repro.figures.delay_figures.table_params`.
    """
    pattern = resolve_pattern(pattern)
    return {
        "schema": 1,
        "kind": "fabric_delay_figure",
        "fabric": fabric_spec.to_dict(),
        "pattern": pattern if isinstance(pattern, str) else pattern.to_dict(),
        "n": int(n),
        "loads": [float(load) for load in loads],
        "num_slots": int(num_slots),
        "seed": int(seed),
        "runs": [
            plan_cell(
                pattern, fabric_spec, n, float(load), num_slots, seed
            ).key
            for load in loads
        ],
    }


def generate(
    fabric="leaf-spine",
    pattern: str = "uniform",
    n: int = 16,
    loads: Sequence[float] = DEFAULT_LOADS,
    num_slots: int = 20_000,
    seed: int = 0,
    store=None,
    window_slots: Optional[int] = None,
) -> List[Dict[str, float]]:
    """One row per load: end-to-end mean delay plus each stage's share.

    ``fabric`` is a registered fabric name, spec dict, or
    :class:`~repro.models.FabricSpec`; ``pattern`` a §6 pattern name or
    any registered scenario.  Each row's ``stage{k}_mean_delay`` columns
    sum to its ``mean_delay`` exactly (delays telescope across the link
    couplers).
    """
    fabric_spec = resolve_fabric(fabric)
    num_stages = fabric_spec.num_stages
    rows: List[Dict[str, float]] = []
    pattern = resolve_pattern(pattern)
    for load in loads:
        result = execute(
            plan_cell(
                pattern, fabric_spec, n, float(load), num_slots, seed,
                window_slots=window_slots,
            ),
            store,
        )
        row: Dict[str, float] = {
            "load": float(load),
            "mean_delay": result.mean_delay,
        }
        for k in range(num_stages):
            row[f"stage{k}_mean_delay"] = result.extras.get(
                f"stage{k}_mean_delay", float("nan")
            )
        row["late_packets"] = result.late_packets
        row["measured"] = result.measured_packets
        rows.append(row)
    return rows


def render(
    fabric="leaf-spine",
    pattern: str = "uniform",
    n: int = 16,
    loads: Sequence[float] = DEFAULT_LOADS,
    num_slots: int = 20_000,
    seed: int = 0,
    store=None,
    window_slots: Optional[int] = None,
) -> str:
    """Decomposition table and log-scale chart for one fabric + pattern.

    With a ``store``, the rendered figure is memoized through the
    experiment store on top of the per-run caching (see
    :func:`figure_params`).
    """
    fabric_spec = resolve_fabric(fabric)
    cache = coerce_store(store)
    params: Optional[Dict] = None
    if cache is not None:
        params = figure_params(
            fabric_spec, pattern, n, loads, num_slots, seed,
        )
        cached = cache.fetch_artifact(params)
        if cached is not None:
            return cached["text"]
    with telemetry.trace(
        "figure.table",
        figure=f"fabric-delay:{fabric_spec.name}",
        pattern=str(pattern),
        n=n,
    ):
        rows = generate(
            fabric_spec,
            pattern,
            n=n,
            loads=loads,
            num_slots=num_slots,
            seed=seed,
            store=cache,
            window_slots=window_slots,
        )
    series: Dict[str, List[tuple]] = {"end-to-end": []}
    stages = CompositeSwitchModel(fabric_spec).models
    for row in rows:
        series["end-to-end"].append((row["load"], row["mean_delay"]))
        for k, model in enumerate(stages):
            series.setdefault(f"stage{k} ({model.name})", []).append(
                (row["load"], row[f"stage{k}_mean_delay"])
            )
    chart = ascii_log_chart(series, x_label="load", y_label="mean delay")
    text = (
        f"Fabric delay decomposition: {fabric_spec.name} "
        f"({' -> '.join(fabric_spec.switch_names)}), {pattern} traffic, "
        f"N={n}, {num_slots} slots\n"
        + format_table(rows)
        + "\n\n"
        + chart
    )
    if cache is not None:
        cache.save_artifact(params, {"text": text})
    return text
