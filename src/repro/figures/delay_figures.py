"""Experiments E3/E4: regenerate the paper's Figures 6 and 7.

Paper §6: average packet delay versus offered load for five switches
(baseline load-balanced, UFS, FOFF, PF, Sprinklers) at N = 32 under
Bernoulli arrivals, with uniformly distributed destinations (Fig. 6) and
the diagonal pattern ``P(j = i) = 1/2`` (Fig. 7).  Delay is plotted on a
log axis against loads 0.1 .. ~0.95.

The shared generator here is parameterized by the traffic pattern;
:mod:`repro.figures.fig6` and :mod:`repro.figures.fig7` are thin fronts.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .. import telemetry
from ..models import PAPER_SWITCHES
from ..service import JobRequest, run_sweep
from ..sim.experiment import resolve_pattern
from .render import ascii_log_chart, format_table

__all__ = ["generate", "render", "DEFAULT_LOADS"]

DEFAULT_LOADS: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)


def generate(
    pattern: str,
    n: int = 32,
    loads: Sequence[float] = DEFAULT_LOADS,
    num_slots: int = 50_000,
    switches: Sequence[str] = PAPER_SWITCHES,
    seed: int = 0,
    store=None,
    window_slots=None,
) -> List[Dict[str, float]]:
    """One row per (switch, load), load-major: mean delay plus ordering
    diagnostics.

    ``pattern`` is a §6 pattern name or any registered scenario.  The
    grid runs as one :class:`~repro.service.JobRequest` on
    :func:`~repro.service.run_sweep`'s worker pool, every cell on the
    vectorized engine where its switch has a kernel (the object engine's
    numbers, at the paper's full scale); ``store`` caches every cell so
    re-rendering a figure recomputes nothing.  ``window_slots`` streams
    the vectorized replay in bounded-memory windows (identical numbers —
    it exists so multi-million-slot points fit in RAM).
    """
    request = JobRequest(
        workload=resolve_pattern(pattern),
        switches=switches,
        loads=loads,
        n=n,
        num_slots=num_slots,
        seeds=(seed,),
        window_slots=window_slots,
    )
    rows: List[Dict[str, float]] = []
    for result in run_sweep(request, store):
        rows.append(
            {
                "switch": result.switch_name,
                "load": result.load,
                "mean_delay": result.mean_delay,
                "late_packets": result.late_packets,
                "measured": result.measured_packets,
            }
        )
    return rows


def render(
    pattern: str,
    figure_name: str,
    n: int = 32,
    loads: Sequence[float] = DEFAULT_LOADS,
    num_slots: int = 50_000,
    switches: Sequence[str] = PAPER_SWITCHES,
    seed: int = 0,
    store=None,
    window_slots=None,
) -> str:
    """Delay-vs-load table and log-scale chart for one traffic pattern.

    With a ``store``, a re-render is served cell by cell from it.
    """
    with telemetry.trace(
        "figure.table", figure=figure_name, pattern=str(pattern), n=n
    ):
        rows = generate(
            pattern,
            n=n,
            loads=loads,
            num_slots=num_slots,
            switches=switches,
            seed=seed,
            store=store,
            window_slots=window_slots,
        )
    series: Dict[str, List[tuple]] = {}
    for row in rows:
        series.setdefault(row["switch"], []).append(
            (row["load"], row["mean_delay"])
        )
    chart = ascii_log_chart(series, x_label="load", y_label="mean delay")
    return (
        f"{figure_name}: average delay vs load ({pattern} traffic, N={n}, "
        f"{num_slots} slots)\n"
        + format_table(rows)
        + "\n\n"
        + chart
    )
