"""The numba shim: ``@njit`` when numba is importable, identity otherwise.

The compiled passes are written as scalar loops under :func:`njit`.  With
numba installed they compile to machine code, and :data:`HAVE_NUMBA`
makes the replay dispatch them (``repro.sim.kernels.compiled.ACTIVE``);
without it the replay runs the NumPy passes, and the compiled ones stay
callable as plain Python — slow, but *exactly* the same arithmetic,
which is what lets the parity suites exercise them on machines that
never installed numba.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["HAVE_NUMBA", "njit"]

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit as _numba_njit
except ImportError:  # the container default: pure-Python fallback
    _numba_njit = None

#: Whether numba is importable (the compiled passes actually compile).
HAVE_NUMBA = _numba_njit is not None


def njit(**options: Any) -> Callable[[Callable], Callable]:
    """``numba.njit(**options)`` when available, else the identity.

    Always used in factory form (``@njit(cache=True)``) so the fallback
    stays a one-liner.  The fallback exposes the undecorated function
    under ``.py_func`` like numba does, so callers can reach the plain
    Python version uniformly.
    """

    def decorate(func: Callable) -> Callable:
        if _numba_njit is not None:  # pragma: no cover - numba-only
            return _numba_njit(**options)(func)
        func.py_func = func  # type: ignore[attr-defined]
        return func

    return decorate
