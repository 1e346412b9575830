"""`repro.telemetry` — spans, metrics, logging, and memory capture.

The observability layer for the whole run path.  Zero dependencies
(stdlib only), disabled by default, and engineered so that the disabled
probes cost a single flag check — the replay kernels instrumented here
stay within noise of their uninstrumented throughput (measured, not
asserted: the ``perf`` benchmark reports the enabled cost as
``driver.trace_overhead_share``).

Quick tour::

    from repro import telemetry

    telemetry.enable()                       # or REPRO_TELEMETRY=1
    with telemetry.trace("replay.window", slots=8192):
        ...                                  # timed, nested span
    telemetry.count("replay.windows")        # counter += 1
    telemetry.observe("stage.feed_s.demo", 0.01)   # histogram sample
    telemetry.set_gauge("fabric.in_flight.stage1", 42)
    telemetry.export_jsonl("trace.jsonl")    # spans + metrics snapshot

Everything here is a thin veneer over the process-wide
:class:`~repro.telemetry.core.TelemetryState`; see the submodules for
the instruments themselves (``spans``, ``metrics``), the logging setup
(``log``), and memory capture (``memory``).
"""

from __future__ import annotations

import time
from typing import Any, Iterable, Iterator, Optional

from .core import (
    ENV_MEMORY_VAR,
    ENV_VAR,
    TelemetryState,
    disable,
    enable,
    enabled,
    enabled_from_env,
    memory_from_env,
    scope,
    state,
)
from .log import get_logger, setup_logging, verbosity_level
from .memory import MemoryProbe, peak_rss_bytes
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .spans import (
    NULL_HANDLE,
    Span,
    Tracer,
    check_trace,
    diff_traces,
    read_trace,
    summarize_trace,
)

__all__ = [
    # switch / state
    "enabled",
    "enable",
    "disable",
    "scope",
    "state",
    "enabled_from_env",
    "memory_from_env",
    "ENV_VAR",
    "ENV_MEMORY_VAR",
    "TelemetryState",
    # spans
    "trace",
    "traced_iter",
    "Span",
    "Tracer",
    "export_jsonl",
    "read_trace",
    "summarize_trace",
    "diff_traces",
    "check_trace",
    # metrics
    "count",
    "observe",
    "set_gauge",
    "counter",
    "histogram",
    "gauge",
    "snapshot",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    # logging
    "get_logger",
    "setup_logging",
    "verbosity_level",
    # memory / capture
    "MemoryProbe",
    "peak_rss_bytes",
    "capture",
    "RunCapture",
]


# ---------------------------------------------------------------------------
# Spans.
# ---------------------------------------------------------------------------


def trace(name: str, **attrs: Any):
    """Open a timed span (context manager); no-op when disabled.

    The handle supports ``.set(key=value)`` for attributes only known
    at the end of the region.
    """
    st = state()
    if not st.enabled:
        return NULL_HANDLE
    return st.tracer.span(name, **attrs)


def traced_iter(name: str, iterable: Iterable, **attrs: Any) -> Iterator:
    """Attribute an iterable's production time to spans named ``name``.

    Each ``next()`` runs inside its own span, so generator work (e.g.
    drawing a traffic window) shows up as a sibling of the consumer's
    spans instead of silently inflating the parent.  When telemetry is
    disabled this returns the original iterable untouched — zero
    wrapping cost.
    """
    if not state().enabled:
        return iter(iterable)

    def _wrapped() -> Iterator:
        iterator = iter(iterable)
        while True:
            with trace(name, **attrs):
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            yield item

    return _wrapped()


def export_jsonl(path) -> int:
    """Write the current trace (+ metrics snapshot) as JSONL; span count."""
    st = state()
    return st.tracer.export_jsonl(path, st.registry.snapshot())


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def count(name: str, amount=1) -> None:
    """Increment counter ``name`` (no-op when disabled)."""
    st = state()
    if st.enabled:
        st.registry.counter(name).add(amount)


def observe(name: str, value: float) -> None:
    """Record one histogram sample (no-op when disabled)."""
    st = state()
    if st.enabled:
        st.registry.histogram(name).observe(value)


def set_gauge(name: str, value: float) -> None:
    """Set gauge ``name`` (no-op when disabled)."""
    st = state()
    if st.enabled:
        st.registry.gauge(name).set(value)


def counter(name: str) -> Counter:
    """The live counter instrument (creates it if needed)."""
    return state().registry.counter(name)


def histogram(name: str) -> Histogram:
    """The live histogram instrument (creates it if needed)."""
    return state().registry.histogram(name)


def gauge(name: str) -> Gauge:
    """The live gauge instrument (creates it if needed)."""
    return state().registry.gauge(name)


def snapshot() -> dict:
    """JSON-serializable snapshot of every registered instrument."""
    return state().registry.snapshot()


# ---------------------------------------------------------------------------
# Per-run capture (RunResult.extras["telemetry"]).
# ---------------------------------------------------------------------------


class RunCapture:
    """Bracket one run; ``.result`` is the extras payload (or ``None``).

    Usage (see ``repro.sim.experiment``)::

        cap = telemetry.capture("run.single")
        with cap:
            result = execute()
        if cap.result is not None:
            result.extras["telemetry"] = cap.result

    When telemetry is disabled the enter/exit are no-ops and ``result``
    stays ``None``, so the disabled run path allocates nothing and —
    crucially — the result dict is byte-identical to an uninstrumented
    run.  The payload: span name, wall seconds, peak RSS, optional
    tracemalloc peak, and the metrics snapshot at exit (all plain JSON,
    so it survives the store round-trip).
    """

    __slots__ = ("_name", "_active", "_t0", "_mem", "_handle", "result")

    def __init__(self, name: str) -> None:
        self._name = name
        self._active = False
        self._t0 = 0.0
        self._mem: Optional[MemoryProbe] = None
        self._handle = None
        self.result: Optional[dict] = None

    def __enter__(self) -> "RunCapture":
        st = state()
        if not st.enabled:
            return self
        self._active = True
        self._handle = st.tracer.span(self._name)
        self._mem = MemoryProbe(use_tracemalloc=st.memory)
        self._mem.__enter__()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._active:
            return
        wall_s = time.perf_counter() - self._t0
        self._mem.__exit__(exc_type, exc, tb)
        self._handle.__exit__(exc_type, exc, tb)
        if exc_type is not None:
            return
        payload: dict = {"span": self._name, "wall_s": wall_s}
        payload.update(self._mem.result or {})
        payload["metrics"] = state().registry.snapshot()
        self.result = payload


def capture(name: str) -> RunCapture:
    """A :class:`RunCapture` for one run (inert while disabled)."""
    return RunCapture(name)
