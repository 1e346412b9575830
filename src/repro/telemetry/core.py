"""Global telemetry state: the on/off switch and the active instruments.

One process holds exactly one telemetry state: a boolean ``enabled``
flag, the span :class:`~repro.telemetry.spans.Tracer`, and the
:class:`~repro.telemetry.metrics.MetricsRegistry`.  The flag is read at
import time from ``REPRO_TELEMETRY`` (``"1"``/``"true"``/``"on"`` enable
it; anything else — the default — leaves it off) and flipped at runtime
by :func:`enable` / :func:`disable` / the :func:`scope` context manager.

Why a module-level flag and not a config object threaded through every
call: the probes sit on the replay hot paths (per window, per store
access, per formation cycle) and the *disabled* cost must be one
attribute check — that is what lets the instrumented kernels stay within
noise of the uninstrumented ones (the ``perf`` benchmark measures the
enabled cost as ``driver.trace_overhead_share``).  Probes never touch
RNG state or cache-key parameters, so flipping the flag cannot perturb
results or store keys (``tests/test_telemetry.py`` pins both).

Process pools: workers inherit the flag (fork) or re-read the
environment (spawn); each process records into its own tracer and
registry.  Cross-process aggregation is the caller's job (the parent
folds what the results carry — see ``repro.service.core``, which
records each shard's worker-side wall time as it lands).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

from .metrics import MetricsRegistry
from .spans import Tracer

__all__ = [
    "TelemetryState",
    "enabled",
    "enable",
    "disable",
    "scope",
    "state",
    "enabled_from_env",
    "memory_from_env",
]

#: Environment switch; values accepted as "on" (case-insensitive).
ENV_VAR = "REPRO_TELEMETRY"
_TRUTHY = ("1", "true", "on", "yes")

#: Environment switch for the (expensive) tracemalloc capture.
ENV_MEMORY_VAR = "REPRO_TELEMETRY_MEM"


def enabled_from_env(environ=None) -> bool:
    """Whether ``REPRO_TELEMETRY`` asks for telemetry (pure function)."""
    environ = os.environ if environ is None else environ
    return str(environ.get(ENV_VAR, "")).strip().lower() in _TRUTHY


def memory_from_env(environ=None) -> bool:
    """Whether ``REPRO_TELEMETRY_MEM`` asks for tracemalloc capture."""
    environ = os.environ if environ is None else environ
    return str(environ.get(ENV_MEMORY_VAR, "")).strip().lower() in _TRUTHY


class TelemetryState:
    """The process-wide instrument set behind the module accessors."""

    __slots__ = ("enabled", "memory", "tracer", "registry")

    def __init__(self, enabled: bool = False, memory: bool = False) -> None:
        self.enabled = enabled
        self.memory = memory
        self.tracer = Tracer()
        self.registry = MetricsRegistry()

    def reset(self) -> None:
        """Drop every recorded span and metric (flag unchanged)."""
        self.tracer = Tracer()
        self.registry = MetricsRegistry()


_STATE = TelemetryState(
    enabled=enabled_from_env(), memory=memory_from_env()
)


def state() -> TelemetryState:
    """The live state (probes read it through the module accessors)."""
    return _STATE


def enabled() -> bool:
    """Whether telemetry is recording — THE hot-path guard.

    Disabled is the default; every probe in the run path checks this (or
    receives a no-op instrument) before doing any work, so an
    uninstrumented-looking run stays uninstrumented-fast.
    """
    return _STATE.enabled


def enable(memory: Optional[bool] = None, fresh: bool = True) -> None:
    """Turn telemetry on (optionally with tracemalloc memory capture).

    ``fresh=True`` (default) starts from empty instruments, so a run's
    trace contains that run only.
    """
    if fresh:
        _STATE.reset()
    if memory is not None:
        _STATE.memory = memory
    _STATE.enabled = True


def disable() -> None:
    """Turn telemetry off (recorded spans/metrics are kept until the
    next :func:`enable` or :meth:`TelemetryState.reset`)."""
    _STATE.enabled = False


@contextmanager
def scope(memory: bool = False) -> Iterator[TelemetryState]:
    """Enable telemetry for a ``with`` block; restore the prior flag after.

    The test-suite idiom: instruments start fresh, the block records,
    and the yielded state is readable after the block::

        with telemetry.scope() as tel:
            run_single_fast(...)
        assert tel.registry.counter("replay.windows").value > 0
    """
    prior_enabled = _STATE.enabled
    prior_memory = _STATE.memory
    enable(memory=memory, fresh=True)
    try:
        yield _STATE
    finally:
        _STATE.enabled = prior_enabled
        _STATE.memory = prior_memory
