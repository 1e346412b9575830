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

from typing import Dict, List, Optional, Sequence

from .. import telemetry
from ..models import PAPER_SWITCHES
from ..sim.experiment import delay_vs_load_sweep, plan_cell, resolve_pattern
from ..store import coerce_store
from .render import ascii_log_chart, format_table

__all__ = ["generate", "render", "table_params", "DEFAULT_LOADS"]

DEFAULT_LOADS: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)


def table_params(
    pattern,
    figure_name: str,
    n: int,
    loads: Sequence[float],
    num_slots: int,
    switches: Sequence[str],
    seed: int,
) -> Dict:
    """The store cache-key parameters of one rendered figure table.

    Content-addressed over the figure spec *and* the constituent run
    keys: the ``runs`` field lists the per-cell plan keys (the sweep
    plans the same cells with the same helper), so any change that would
    recompute a cell — run-params schema bump included — also misses the
    rendered table, while bit-identical execution details that do not
    enter run keys (the engine, ``window_slots``) hit it.
    """
    pattern = resolve_pattern(pattern)
    plans = [
        plan_cell(pattern, name, n, load, num_slots, seed)
        for load in loads
        for name in switches
    ]
    return {
        "schema": 1,
        "kind": "figure_table",
        "figure": figure_name,
        "pattern": pattern if isinstance(pattern, str) else pattern.to_dict(),
        "n": int(n),
        "loads": [float(load) for load in loads],
        "num_slots": int(num_slots),
        "seed": int(seed),
        # Load-major order: the first row names every switch.
        "switches": [plan.subject for plan in plans[: len(switches)]],
        "runs": [plan.key for plan in plans],
    }


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
    """One row per (switch, load): mean delay plus ordering diagnostics.

    ``pattern`` is a §6 pattern name or any registered scenario.  Every
    cell runs on the vectorized engine where its switch has a kernel
    (the object engine's numbers, at the paper's full scale); ``store``
    caches every cell so re-rendering a figure is free.  ``window_slots``
    streams the vectorized replay in bounded-memory windows (identical
    numbers — it exists so multi-million-slot points fit in RAM).
    """
    results = delay_vs_load_sweep(
        pattern,
        n=n,
        loads=loads,
        num_slots=num_slots,
        switches=switches,
        seed=seed,
        store=store,
        window_slots=window_slots,
    )
    rows: List[Dict[str, float]] = []
    for result in results:
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

    With a ``store``, the *whole rendered table* is memoized through the
    experiment store (see :func:`table_params` for the key scheme) on top
    of the per-cell run caching: re-rendering a figure whose runs are all
    cached skips even the cache assembly.  ``store=None`` (the CLI's
    ``--no-store``) disables both layers.
    """
    cache = coerce_store(store)
    params: Optional[Dict] = None
    if cache is not None:
        params = table_params(
            pattern, figure_name, n, loads, num_slots, switches, seed,
        )
        cached = cache.fetch_artifact(params)
        if cached is not None:
            return cached["text"]
    with telemetry.trace(
        "figure.table", figure=figure_name, pattern=str(pattern), n=n
    ):
        return _render_uncached(
            pattern, figure_name, n, loads, num_slots, switches, seed,
            cache, params, window_slots,
        )


def _render_uncached(
    pattern, figure_name, n, loads, num_slots, switches, seed, cache,
    params, window_slots,
) -> str:
    """The table build behind :func:`render`'s artifact cache."""
    rows = generate(
        pattern,
        n=n,
        loads=loads,
        num_slots=num_slots,
        switches=switches,
        seed=seed,
        store=cache,
        window_slots=window_slots,
    )
    series: Dict[str, List[tuple]] = {}
    for row in rows:
        series.setdefault(row["switch"], []).append(
            (row["load"], row["mean_delay"])
        )
    chart = ascii_log_chart(series, x_label="load", y_label="mean delay")
    text = (
        f"{figure_name}: average delay vs load ({pattern} traffic, N={n}, "
        f"{num_slots} slots)\n"
        + format_table(rows)
        + "\n\n"
        + chart
    )
    if cache is not None:
        cache.save_artifact(params, {"text": text})
    return text
