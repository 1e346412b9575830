"""Compiled implementations of the hot scalar-recursion passes.

Three per-element recursions dominate the vectorized replay at scale:
frame formation (:mod:`.frames_pass`), polled-queue service
(:mod:`.polled_pass`), and the per-VOQ reordering fold
(:mod:`.fold_pass`).  Each is reimplemented here as a numba ``@njit``
scalar loop that is *bit-identical* to its NumPy counterpart — same
decisions, same arithmetic, same outputs — so which one runs never
changes a result (and store cache keys never see it).

Which one runs is a platform fact, not a choice: the compiled passes run
exactly when numba imports (:data:`ACTIVE`), and the NumPy passes
otherwise.  The three dispatch points read ``compiled.ACTIVE`` as a
module attribute at call time, which is the test seam: the parity
suites ``monkeypatch.setattr`` it to pin one implementation against the
other.  Without numba the compiled passes still run — as plain Python,
exact but slow — which is how those suites exercise them on every host.
:func:`compiled_available` / :func:`get_kernel_backend` report which
path a host's runs take.
"""

from __future__ import annotations

import importlib
from typing import Callable, Tuple

from . import fold_pass, frames_pass, polled_pass
from ._jit import HAVE_NUMBA

__all__ = [
    "ACTIVE",
    "compiled_available",
    "fold_pass",
    "frames_pass",
    "get_kernel_backend",
    "polled_pass",
    "resolve_compiled_passes",
]

#: Whether the replay dispatches the compiled passes: exactly when numba
#: imports.  Set once at import; nothing in the library assigns it.
ACTIVE: bool = HAVE_NUMBA


def compiled_available() -> bool:
    """Whether numba is importable (the compiled passes actually compile)."""
    return HAVE_NUMBA


def get_kernel_backend() -> str:
    """The passes replays run on: ``"compiled"`` or ``"numpy"``."""
    return "compiled" if ACTIVE else "numpy"


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
