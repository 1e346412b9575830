"""Optional compiled kernel backend for the hot scalar-recursion passes.

Three per-element recursions dominate the vectorized replay at scale:
frame formation (:mod:`.frames_pass`), polled-queue service
(:mod:`.polled_pass`), and the per-VOQ reordering fold
(:mod:`.fold_pass`).  Each is reimplemented here as a numba ``@njit``
scalar loop that is *bit-identical* to its NumPy counterpart — same
decisions, same arithmetic, same outputs — so switching backend never
changes a result (and store cache keys deliberately ignore it).

Backend selection is process-global, mirroring how the telemetry switch
works: ``set_kernel_backend("compiled")`` flips every subsequent replay,
and :func:`kernel_backend` scopes a selection to a ``with`` block (the
form ``run_single(..., backend=...)`` and the CLI's ``--backend-kernel``
use).  Without numba installed the compiled passes run as plain Python —
the same code path, orders of magnitude slower — which keeps the parity
grid meaningful everywhere; :func:`compiled_available` reports whether
the real speedup is on the table.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Tuple

from . import fold_pass, frames_pass, polled_pass
from ._jit import HAVE_NUMBA

__all__ = [
    "KERNEL_BACKENDS",
    "compiled_active",
    "compiled_available",
    "fold_pass",
    "frames_pass",
    "get_kernel_backend",
    "kernel_backend",
    "polled_pass",
    "resolve_compiled_passes",
    "set_kernel_backend",
]

#: The selectable kernel backends.  "numpy" is the pinned reference the
#: parity suites define correctness against; "compiled" must match it
#: bit for bit.
KERNEL_BACKENDS: Tuple[str, ...] = ("numpy", "compiled")

_backend = "numpy"


def compiled_available() -> bool:
    """Whether numba is importable (the compiled passes actually compile).

    The "compiled" backend is selectable either way — without numba the
    passes run as pure Python, exact but slow, which is how the parity
    grid exercises them on minimal installs.
    """
    return HAVE_NUMBA


def get_kernel_backend() -> str:
    """The currently selected backend name."""
    return _backend


def compiled_active() -> bool:
    """True when the compiled passes should be dispatched (the hot check
    the kernel branch points call once per pass)."""
    return _backend == "compiled"


def set_kernel_backend(name: str) -> None:
    """Select the process-global kernel backend."""
    if name not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r}; known: "
            + ", ".join(KERNEL_BACKENDS)
        )
    global _backend
    _backend = name


@contextmanager
def kernel_backend(name: Optional[str] = None) -> Iterator[None]:
    """Scope a backend selection to a ``with`` block.

    ``None`` is a no-op (keep whatever is active) so call sites can
    thread an optional ``backend=`` argument through unconditionally.
    """
    if name is None:
        yield
        return
    previous = _backend
    set_kernel_backend(name)
    try:
        yield
    finally:
        set_kernel_backend(previous)


def resolve_compiled_passes(
    kernel_module: str,
) -> Tuple[Callable[..., object], ...]:
    """The compiled pass entry points a kernel module's replay runs through.

    Every vectorized kernel funnels polled-queue service and the
    reordering fold; the frame-at-a-time kernels (anything importing
    :mod:`repro.sim.kernels.frames`) additionally run the formation
    stepper.  The REG005 lint rule calls this to verify that every
    vectorized switch actually resolves compiled implementations for its
    passes.
    """
    module = importlib.import_module(kernel_module)
    passes: Tuple[Callable[..., object], ...] = (
        polled_pass.serve_polled,
        fold_pass.fold_running_max,
    )
    uses_frames = any(
        getattr(value, "__module__", None) == "repro.sim.kernels.frames"
        for value in vars(module).values()
    )
    if uses_frames:
        passes = passes + (frames_pass.form_lanes,)
    return passes
