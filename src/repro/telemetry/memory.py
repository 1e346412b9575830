"""Peak-memory capture: ru_maxrss always, tracemalloc on request.

``resource.getrusage`` is effectively free, so the peak-RSS figure is
recorded whenever telemetry is on.  ``tracemalloc`` costs real
throughput (every allocation is traced), so it only runs when the run
opted in (``REPRO_TELEMETRY_MEM=1`` or ``telemetry.enable(memory=True)``)
— never implicitly.
"""

from __future__ import annotations

import sys
from typing import Optional

__all__ = ["peak_rss_bytes", "MemoryProbe"]

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platform
    resource = None  # type: ignore[assignment]

import tracemalloc


def peak_rss_bytes() -> Optional[int]:
    """Process peak RSS in bytes, or ``None`` where rusage is missing.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS — normalize
    to bytes so the JSON artifacts compare across machines.
    """
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return int(peak)
    return int(peak) * 1024


class MemoryProbe:
    """Bracket a region: peak RSS delta plus optional tracemalloc peak.

    The tracemalloc section never touches an outer trace: if tracing was
    already started (e.g. by ``tests/test_memory_budget.py``), the
    region's own peak cannot be read without resetting the outer one, so
    the probe neither resets nor stops tracing and reports no
    ``tracemalloc_peak_bytes``.
    """

    __slots__ = ("_use_tracemalloc", "_started_tracemalloc", "_rss_before", "result")

    def __init__(self, use_tracemalloc: bool = False) -> None:
        self._use_tracemalloc = use_tracemalloc
        self._started_tracemalloc = False
        self._rss_before: Optional[int] = None
        self.result: Optional[dict] = None

    def __enter__(self) -> "MemoryProbe":
        self._rss_before = peak_rss_bytes()
        if self._use_tracemalloc and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        out: dict = {}
        rss_after = peak_rss_bytes()
        if rss_after is not None:
            out["peak_rss_bytes"] = rss_after
            if self._rss_before is not None:
                # ru_maxrss is a high-water mark; the delta is 0 when
                # this region did not push a new peak.
                out["peak_rss_delta_bytes"] = max(0, rss_after - self._rss_before)
        if self._started_tracemalloc:
            _, traced_peak = tracemalloc.get_traced_memory()
            out["tracemalloc_peak_bytes"] = int(traced_peak)
            tracemalloc.stop()
        self.result = out
