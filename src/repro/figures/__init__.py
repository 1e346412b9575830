"""Regeneration of every table and figure in the paper's evaluation."""

from . import burst_sensitivity, fabric_delay, fig5, fig6, fig7, table1
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
