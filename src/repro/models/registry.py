"""The switch-model registry: one lookup for every layer.

``register`` / ``get`` / ``available`` are the only switch-resolution
primitives in the library — experiment orchestration, sweeps, figures,
the CLI and the vectorized engine all go through here, so adding a
switch (built-in or third-party) is one ``register`` call away from
every entry point.

Third-party switches can also ship as package entry points in the
``repro.switch_models`` group; each entry point resolves to a
:class:`~repro.models.model.SwitchModel` (or a zero-argument factory
returning one, or an iterable of either).  Discovery is lazy — the first
registry query loads them — and failures are warnings, not crashes: a
broken plugin must not take the built-in switches down with it.
"""

from __future__ import annotations

import warnings
from typing import Dict, Iterable, Optional, Tuple

from .model import SwitchModel

__all__ = [
    "ENTRY_POINT_GROUP",
    "available",
    "build",
    "canonical_name",
    "discover_entry_points",
    "get",
    "register",
]

#: The package entry-point group scanned for third-party switch models.
ENTRY_POINT_GROUP = "repro.switch_models"

_MODELS: Dict[str, SwitchModel] = {}
_ALIASES: Dict[str, str] = {}
_discovered = False


def register(model: SwitchModel, replace: bool = False) -> SwitchModel:
    """Add a switch model (refusing silent overwrites unless ``replace``)."""
    taken = set(_MODELS) | set(_ALIASES)
    claims = (model.name, *model.aliases)
    if not replace:
        clashes = [c for c in claims if c in taken]
        if clashes:
            raise ValueError(
                f"switch model name(s) already registered: {sorted(clashes)}"
            )
    for alias in model.aliases:
        if alias == model.name:
            raise ValueError(f"switch model {model.name!r} aliases itself")
    _MODELS[model.name] = model
    for alias in model.aliases:
        _ALIASES[alias] = model.name
    return model


def canonical_name(name: str) -> str:
    """Resolve an alias to its registry name (identity for canonical names).

    Raises ``ValueError`` for unknown names, listing what is registered.
    """
    _ensure_discovered()
    if name in _MODELS:
        return name
    if name in _ALIASES:
        return _ALIASES[name]
    known = ", ".join(sorted(_MODELS))
    raise ValueError(f"unknown switch {name!r}; known: {known}")


def get(name: str) -> SwitchModel:
    """Look up a switch model by name or alias."""
    return _MODELS[canonical_name(name)]


def available(engine: Optional[str] = None) -> Tuple[str, ...]:
    """Registered switch names (canonical, sorted), optionally filtered.

    ``engine="vectorized"`` lists the switches with an exact kernel (and
    its stream form: monolithic, windowed and multi-seed replay alike);
    the object engine runs them all.
    """
    _ensure_discovered()
    names = _MODELS
    if engine is not None:
        if engine not in ("object", "vectorized"):
            raise ValueError(
                f"unknown engine {engine!r}; known: object, vectorized"
            )
        names = {
            n: m for n, m in names.items() if m.supports_engine(engine)
        }
    return tuple(sorted(names))


def build(name: str, n: int, matrix, seed: int, **params):
    """Instantiate a switch by registry name (the object-engine path)."""
    return get(name).build(n, matrix, seed, **params)


def _ensure_discovered() -> None:
    global _discovered
    if not _discovered:
        _discovered = True
        discover_entry_points()


def discover_entry_points(
    group: str = ENTRY_POINT_GROUP, entries: Optional[Iterable] = None
) -> int:
    """Load third-party switch models from package entry points.

    ``entries`` injects pre-resolved entry-point objects (anything with
    ``.name`` and ``.load()``) — the test seam, also usable by embedders
    that manage their own plugin lists.  Returns the number of models
    registered; a failing plugin emits a warning and is skipped.
    """
    if entries is None:
        try:
            from importlib.metadata import entry_points

            entries = entry_points(group=group)
        except Exception:  # pragma: no cover - stdlib variance
            return 0
    count = 0
    for entry in entries:
        try:
            loaded = entry.load()
            if not isinstance(loaded, SwitchModel) and callable(loaded):
                loaded = loaded()
            models = (
                loaded if isinstance(loaded, (list, tuple)) else (loaded,)
            )
            for model in models:
                if not isinstance(model, SwitchModel):
                    raise TypeError(
                        f"entry point produced {type(model).__name__}, "
                        f"not SwitchModel"
                    )
                register(model)
                count += 1
        except Exception as exc:
            warnings.warn(
                f"failed to load switch-model entry point "
                f"{getattr(entry, 'name', entry)!r}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
    return count
