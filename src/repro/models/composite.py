"""Composite switch models: multi-stage fabrics of registered switches.

A :class:`FabricSpec` chains N registered switch models into one logical
switch: stage-k departures are re-injected as stage-(k+1) arrivals
through a per-link **port map** (stage-k output ``j`` feeds stage-(k+1)
input ``map[j]``), e.g. a two-tier leaf/spine where leaf outputs are
interleaved across spine inputs.  Any registered
:class:`~repro.models.SwitchModel` can be a stage on the object engine;
the vectorized chained replay additionally requires every stage to
have a resumable stream kernel — the windowed interface *is* the
composition surface.

Specs are declarative and picklable (plain dicts of primitives), so
fabrics flow through sweeps, the process pool, and store cache keys the
same way switch names do.  ``register_fabric`` / ``get_fabric`` mirror
the switch registry; names share one namespace with switches so a fabric
name is accepted anywhere a switch name is
(:func:`repro.sim.experiment.run_single` dispatches on it).

The routing model is destination-preserving: a packet for final output
``d`` exits *every* stage at port ``d`` and enters the next stage at
input ``map[d]``.  Stage-(k+1) therefore sees the traffic matrix
``M'[map[d], d] = colsum_d(M_k)`` — admissible whenever the original
matrix is (column sums are preserved, each downstream input carries one
upstream output's aggregate, which is at most the load).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from . import registry
from .model import SwitchModel

__all__ = [
    "CompositeSwitchModel",
    "FabricSpec",
    "available_fabrics",
    "get_fabric",
    "interleave_stride",
    "lookup_fabric",
    "port_map",
    "register_fabric",
    "resolve_fabric",
    "stage_matrices",
]

#: Port-map kinds accepted in a :class:`FabricSpec` link entry.
PORT_MAP_KINDS = ("identity", "interleave", "reverse", "rotate", "permutation")


# -- port maps -----------------------------------------------------------------


def interleave_stride(n: int) -> int:
    """The smallest stride ``s >= 2`` coprime to ``n`` (1 if ``n <= 2``).

    ``j -> (j * s) % n`` then spreads adjacent upstream outputs across
    the downstream inputs — the classic leaf/spine interleave — while
    remaining a permutation.
    """
    if n <= 2:
        return 1
    s = 2
    while gcd(s, n) != 1:
        s += 1
    return s


def port_map(link: Mapping, n: int) -> np.ndarray:
    """Materialize one link's port map as a length-``n`` permutation.

    ``link`` is a mapping with a ``kind`` key (one of
    :data:`PORT_MAP_KINDS`) plus kind-specific fields: ``rotate`` takes
    ``shift`` (default 1) and ``permutation`` takes ``ports`` (a full
    length-``n`` permutation list).  Entry ``map[j]`` is the downstream
    input fed by upstream output ``j``.
    """
    kind = link.get("kind")
    if kind not in PORT_MAP_KINDS:
        raise ValueError(
            f"unknown port-map kind {kind!r}; known: "
            f"{', '.join(PORT_MAP_KINDS)}"
        )
    extra = set(link) - {"kind", "shift", "ports"}
    if extra:
        raise ValueError(f"unknown port-map fields: {sorted(extra)}")
    ports = np.arange(n, dtype=np.int64)
    if kind == "identity":
        return ports
    if kind == "interleave":
        return (ports * interleave_stride(n)) % n
    if kind == "reverse":
        return ports[::-1].copy()
    if kind == "rotate":
        shift = int(link.get("shift", 1))
        return (ports + shift) % n
    # kind == "permutation"
    raw = link.get("ports")
    if raw is None:
        raise ValueError("permutation port map requires a 'ports' list")
    mapped = np.asarray(raw, dtype=np.int64)
    if mapped.shape != (n,) or not np.array_equal(np.sort(mapped), ports):
        raise ValueError(
            f"port map 'ports' must be a permutation of 0..{n - 1} "
            f"(fabric stage size {n}, got {len(mapped)} entries)"
        )
    return mapped


# -- the spec ------------------------------------------------------------------


def _freeze(mapping: Mapping) -> Tuple[Tuple[str, object], ...]:
    """A hashable, order-stable snapshot of a plain mapping."""
    return tuple(sorted(mapping.items()))


@dataclass(frozen=True)
class FabricSpec:
    """A declarative multi-stage fabric: stages, links, nothing else.

    ``stages`` is a tuple of ``{"switch": <registry name>, "params":
    {...}}`` mappings (``params`` optional); ``links`` is a tuple of
    port-map mappings (see :func:`port_map`), one per adjacent stage
    pair.  Validation resolves every stage name against the switch
    registry at construction, so a spec that exists is runnable.
    """

    name: str
    description: str = ""
    stages: Tuple[Mapping, ...] = ()
    links: Tuple[Mapping, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("fabric name must be nonempty")
        stages = tuple(dict(s) for s in self.stages)
        if not stages:
            raise ValueError(f"fabric {self.name!r} needs at least one stage")
        links = self.links
        if links is None:
            links = tuple({"kind": "identity"} for _ in stages[1:])
        links = tuple(dict(l) for l in links)
        if len(links) != len(stages) - 1:
            raise ValueError(
                f"fabric {self.name!r}: {len(stages)} stages need "
                f"{len(stages) - 1} links, got {len(links)}"
            )
        for k, stage in enumerate(stages):
            extra = set(stage) - {"switch", "params"}
            if extra:
                raise ValueError(
                    f"fabric {self.name!r} stage {k}: unknown fields "
                    f"{sorted(extra)}"
                )
            switch = stage.get("switch")
            if not switch:
                raise ValueError(
                    f"fabric {self.name!r} stage {k}: missing 'switch'"
                )
            model = registry.get(switch)  # raises listing known switches
            model.validate_params(dict(stage.get("params") or {}))
        for link in links:
            if link.get("kind") not in PORT_MAP_KINDS:
                raise ValueError(
                    f"fabric {self.name!r}: unknown port-map kind "
                    f"{link.get('kind')!r}; known: "
                    f"{', '.join(PORT_MAP_KINDS)}"
                )
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "links", links)

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def switch_names(self) -> Tuple[str, ...]:
        """Canonical registry names of the stages, in order."""
        return tuple(
            registry.canonical_name(s["switch"]) for s in self.stages
        )

    def to_dict(self) -> Dict:
        """Plain-primitive form (store cache keys, ``from_dict``)."""
        stages = []
        for stage in self.stages:
            entry: Dict[str, object] = {
                "switch": registry.canonical_name(stage["switch"])
            }
            params = dict(stage.get("params") or {})
            if params:
                entry["params"] = params
            stages.append(entry)
        return {
            "name": self.name,
            "description": self.description,
            "stages": stages,
            "links": [dict(l) for l in self.links],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FabricSpec":
        known = {"name", "description", "stages", "links"}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown fabric spec fields: {sorted(extra)}")
        return cls(
            name=data.get("name", ""),
            description=data.get("description", ""),
            stages=tuple(data.get("stages") or ()),
            links=tuple(data["links"]) if "links" in data else None,
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.name,
                tuple(_freeze(s) for s in self.stages),
                tuple(_freeze(l) for l in self.links),
            )
        )


def stage_matrices(matrix: np.ndarray, spec: FabricSpec) -> List[np.ndarray]:
    """Per-stage provisioning matrices for a fabric run.

    Stage 0 sees the offered matrix.  Under destination-preserving
    routing, stage-(k+1) input ``map_k[d]`` carries exactly the traffic
    destined to output ``d`` — the column sum of the stage-k matrix —
    so ``M_{k+1}[map_k[d], d] = colsum_d(M_k)`` and all other entries
    are zero.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError(f"matrix must be square, got {matrix.shape}")
    out = [matrix]
    current = matrix
    for link in spec.links:
        mapped = port_map(link, n)
        cols = current.sum(axis=0)
        nxt = np.zeros((n, n), dtype=float)
        nxt[mapped, np.arange(n)] = cols
        out.append(nxt)
        current = nxt
    return out


# -- the resolved composite ----------------------------------------------------


class CompositeSwitchModel:
    """A :class:`FabricSpec` bound to its stage :class:`SwitchModel`\\ s.

    The runnable form: stage models resolved, parameters validated, and
    engine support derived (``object`` always; ``vectorized`` iff every
    stage has a stream kernel and keeps its params inside the kernel
    schema).  ``reported_name`` — the label on results — is the fabric
    name.
    """

    def __init__(self, spec: FabricSpec) -> None:
        self.spec = spec
        self.name = spec.name
        self.reported_name = spec.name
        self.models: Tuple[SwitchModel, ...] = tuple(
            registry.get(s["switch"]) for s in spec.stages
        )
        self.stage_params: Tuple[Dict, ...] = tuple(
            dict(s.get("params") or {}) for s in spec.stages
        )

    @property
    def capabilities(self) -> frozenset:
        """Capabilities every stage shares (what the chain can promise)."""
        caps = frozenset.intersection(
            *(m.capabilities for m in self.models)
        )
        return caps

    def supports_engine(self, engine: str) -> bool:
        if engine == "object":
            return True
        if engine == "vectorized":
            return all(
                m.supports_engine("vectorized", p)
                for m, p in zip(self.models, self.stage_params)
            )
        raise ValueError(
            f"unknown engine {engine!r}; known: object, vectorized"
        )

    def require_engine(self, engine: str) -> None:
        """Raise with the offending stage when ``engine`` cannot run it."""
        if self.supports_engine(engine):
            return
        for k, (model, params) in enumerate(
            zip(self.models, self.stage_params)
        ):
            if not model.supports_engine("vectorized"):
                composable = ", ".join(
                    registry.available(engine="vectorized")
                )
                raise ValueError(
                    f"fabric {self.name!r} stage {k} ({model.name!r}) is "
                    f"not composable on the vectorized engine (no stream "
                    f"kernel); composable switches: {composable}. "
                    f"Use engine='object'."
                )
            if not set(params) <= set(model.kernel_params):
                raise ValueError(
                    f"fabric {self.name!r} stage {k} ({model.name!r}): "
                    f"parameters {sorted(set(params) - set(model.kernel_params))} "
                    f"are object-engine only; use engine='object'"
                )
        raise AssertionError("unreachable")  # pragma: no cover

    def port_maps(self, n: int) -> List[np.ndarray]:
        """The materialized per-link permutations for stage size ``n``."""
        return [port_map(link, n) for link in self.spec.links]

    def stage_matrices(self, matrix: np.ndarray) -> List[np.ndarray]:
        return stage_matrices(matrix, self.spec)

    def __repr__(self) -> str:
        chain = " -> ".join(m.name for m in self.models)
        return f"CompositeSwitchModel({self.name!r}, {chain})"


# -- the fabric registry -------------------------------------------------------

_FABRICS: Dict[str, FabricSpec] = {}


def register_fabric(spec: FabricSpec, replace: bool = False) -> FabricSpec:
    """Add a fabric spec; fabric and switch names share one namespace.

    Anywhere a switch name is accepted, a fabric name dispatches to the
    multi-stage runner — so a collision would make the run ambiguous and
    is refused in both directions.
    """
    if not replace and spec.name in _FABRICS:
        raise ValueError(f"fabric {spec.name!r} already registered")
    try:
        registry.canonical_name(spec.name)
    except ValueError:
        pass
    else:
        raise ValueError(
            f"fabric name {spec.name!r} collides with a registered switch"
        )
    _FABRICS[spec.name] = spec
    return spec


def get_fabric(name: str) -> FabricSpec:
    """Look up a fabric by name; raises listing the registered fabrics."""
    if name not in _FABRICS:
        known = ", ".join(sorted(_FABRICS)) or "(none)"
        raise ValueError(f"unknown fabric {name!r}; known: {known}")
    return _FABRICS[name]


def lookup_fabric(name) -> Optional[FabricSpec]:
    """Non-raising :func:`get_fabric` — the dispatch predicate used by
    :func:`repro.sim.experiment.run_single` and friends to decide
    whether a "switch name" is actually a fabric."""
    if isinstance(name, FabricSpec):
        return name
    if isinstance(name, str):
        return _FABRICS.get(name)
    return None


def available_fabrics() -> Tuple[str, ...]:
    """Registered fabric names, sorted."""
    return tuple(sorted(_FABRICS))


def resolve_fabric(designator: Union[str, Mapping, FabricSpec]) -> FabricSpec:
    """A spec from a registry name, a spec dict, or a spec (identity)."""
    if isinstance(designator, FabricSpec):
        return designator
    if isinstance(designator, str):
        return get_fabric(designator)
    if isinstance(designator, Mapping):
        return FabricSpec.from_dict(designator)
    raise TypeError(
        f"cannot resolve a fabric from {type(designator).__name__}"
    )


# -- built-in fabrics ----------------------------------------------------------

register_fabric(
    FabricSpec(
        name="leaf-spine",
        description=(
            "Two-tier fabric: a Sprinklers leaf load-balances into an "
            "output-queued spine through an interleaved port map — the "
            "paper's switch deployed as the first hop of a topology."
        ),
        stages=(
            {"switch": "sprinklers"},
            {"switch": "output-queued"},
        ),
        links=({"kind": "interleave"},),
    )
)

register_fabric(
    FabricSpec(
        name="dual-sprinklers",
        description=(
            "Two Sprinklers stages back to back (rotated port map): "
            "does the reordering-free guarantee survive cascading?"
        ),
        stages=(
            {"switch": "sprinklers"},
            {"switch": "sprinklers"},
        ),
        links=({"kind": "rotate", "shift": 1},),
    )
)
