"""Regeneration of every table and figure in the paper's evaluation."""

import importlib

from . import burst_sensitivity, fabric_delay, fig6, fig7
from .render import ascii_log_chart, format_table, rows_to_csv

__all__ = [
    "ascii_log_chart",
    "burst_sensitivity",
    "fabric_delay",
    "fig5",
    "fig6",
    "fig7",
    "format_table",
    "rows_to_csv",
    "table1",
]


def __getattr__(name: str):
    # The analytic artifacts import scipy (via repro.analysis): load them
    # on first use, so the CLI and the simulation figures start without.
    if name in ("fig5", "table1"):
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
