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
from ..models import CompositeSwitchModel, get_fabric
from ..service import JobRequest, run_sweep
from ..sim.experiment import resolve_pattern
from .delay_figures import DEFAULT_LOADS
from .render import ascii_log_chart, format_table

__all__ = ["generate", "render", "DEFAULT_LOADS"]


def generate(
    fabric: str = "leaf-spine",
    pattern: str = "uniform",
    n: int = 16,
    loads: Sequence[float] = DEFAULT_LOADS,
    num_slots: int = 20_000,
    seed: int = 0,
    store=None,
    window_slots: Optional[int] = None,
) -> List[Dict[str, float]]:
    """One row per load: end-to-end mean delay plus each stage's share.

    ``fabric`` is a registered fabric name; ``pattern`` a §6 pattern
    name or any registered scenario.  The loads run as one
    :class:`~repro.service.JobRequest` on
    :func:`~repro.service.run_sweep`'s worker pool.  Each row's
    ``stage{k}_mean_delay`` columns sum to its ``mean_delay`` exactly
    (delays telescope across the link couplers).
    """
    num_stages = get_fabric(fabric).num_stages
    request = JobRequest(
        workload=resolve_pattern(pattern),
        switches=(fabric,),
        loads=loads,
        n=n,
        num_slots=num_slots,
        seeds=(seed,),
        window_slots=window_slots,
    )
    rows: List[Dict[str, float]] = []
    for result in run_sweep(request, store):
        row: Dict[str, float] = {
            "load": result.load,
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
    fabric: str = "leaf-spine",
    pattern: str = "uniform",
    n: int = 16,
    loads: Sequence[float] = DEFAULT_LOADS,
    num_slots: int = 20_000,
    seed: int = 0,
    store=None,
    window_slots: Optional[int] = None,
) -> str:
    """Decomposition table and log-scale chart for one fabric + pattern.

    With a ``store``, a re-render is served run by run from it.
    """
    fabric_spec = get_fabric(fabric)
    with telemetry.trace(
        "figure.table",
        figure=f"fabric-delay:{fabric_spec.name}",
        pattern=str(pattern),
        n=n,
    ):
        rows = generate(
            fabric,
            pattern,
            n=n,
            loads=loads,
            num_slots=num_slots,
            seed=seed,
            store=store,
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
    return (
        f"Fabric delay decomposition: {fabric_spec.name} "
        f"({' -> '.join(fabric_spec.switch_names)}), {pattern} traffic, "
        f"N={n}, {num_slots} slots\n"
        + format_table(rows)
        + "\n\n"
        + chart
    )
