"""The service job model: requests, shards, and store-key planning.

A :class:`JobRequest` is what a client submits — a sweep grid (workload x
switches x loads x seeds).  The service decomposes it into
:class:`ShardSpec` cells, one per (switch, load, seed): the unit of
computation, queueing, and dedup.  A shard is an *unresolved* request;
:func:`shard_run_kwargs` maps it to run arguments, and both the
daemon's plan (:func:`shard_plan`) and the worker's run
(:func:`execute_shard`) reach the same
:class:`~repro.sim.experiment.RunPlan` through them.  Every shard is
therefore keyed by exactly the :attr:`RunPlan.key` its result is saved
under, which is what lets the service (a) serve already-stored shards
without touching a worker and (b) collapse identical in-flight shards
across concurrent requests into one computation.

Both request and shard are plain JSON-serializable data (``to_dict`` /
``from_dict``): requests cross the HTTP boundary, shards cross the
worker-process boundary.  Workloads are declarative — a §6 pattern
(``uniform``/``diagonal``), a registered scenario, a spec-file path, a
``trace:<path>`` designator, or a scenario spec dict — never raw
matrices, so a shard stays a few hundred bytes no matter the port count.
``from_dict`` ignores keys it does not read, such as the ``backend`` an
older client still sends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..sim.experiment import RunPlan, cell_workload, plan_run, run_single
from ..store import cache_key

__all__ = [
    "JobRequest",
    "ShardSpec",
    "execute_shard",
    "expand_shards",
    "shard_key",
    "shard_params",
    "shard_plan",
    "shard_run_kwargs",
]


@dataclass(frozen=True)
class ShardSpec:
    """One (switch, load, seed) cell: the service's unit of work."""

    switch: str
    workload: Union[str, Dict]
    n: int
    load: float
    num_slots: int
    seed: int
    #: Engine the worker should run under; results (and therefore shard
    #: keys) are invariant to it.
    engine: Optional[str] = None
    switch_params: Optional[Dict] = None
    #: Replay window, an execution detail like ``engine``: it never
    #: enters the shard key.
    window_slots: Optional[int] = None

    def to_dict(self) -> Dict:
        return {
            "switch": self.switch,
            "workload": self.workload,
            "n": self.n,
            "load": self.load,
            "num_slots": self.num_slots,
            "seed": self.seed,
            "engine": self.engine,
            "switch_params": (
                dict(self.switch_params) if self.switch_params else None
            ),
            "window_slots": self.window_slots,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ShardSpec":
        return cls(
            switch=data["switch"],
            workload=data["workload"],
            n=int(data["n"]),
            load=float(data["load"]),
            num_slots=int(data["num_slots"]),
            seed=int(data["seed"]),
            engine=data.get("engine") or None,
            switch_params=data.get("switch_params") or None,
            window_slots=data.get("window_slots"),
        )


@dataclass(frozen=True)
class JobRequest:
    """A submitted sweep: the grid a client wants simulated.

    ``workload`` names a §6 pattern, registered scenario, spec file, or
    ``trace:<path>``, or is a scenario spec dict; ``seeds`` is the seed
    block (one full grid per seed).  ``switch_params``, when given,
    applies to every switch in the request — parameter studies submit
    one request per setting.  ``engine`` and ``window_slots`` ride on
    every shard as execution details: they never change a key.
    """

    workload: Union[str, Dict]
    switches: Tuple[str, ...]
    loads: Tuple[float, ...]
    n: int = 16
    num_slots: int = 2_000
    seeds: Tuple[int, ...] = (0,)
    engine: Optional[str] = None
    switch_params: Optional[Dict] = None
    window_slots: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "switches", tuple(self.switches))
        object.__setattr__(
            self, "loads", tuple(float(load) for load in self.loads)
        )
        object.__setattr__(
            self, "seeds", tuple(int(seed) for seed in self.seeds)
        )
        if not self.switches:
            raise ValueError("request needs at least one switch")
        if not self.loads:
            raise ValueError("request needs at least one load")
        if not self.seeds:
            raise ValueError("request needs at least one seed")

    def to_dict(self) -> Dict:
        return {
            "workload": self.workload,
            "switches": list(self.switches),
            "loads": list(self.loads),
            "n": self.n,
            "num_slots": self.num_slots,
            "seeds": list(self.seeds),
            "engine": self.engine,
            "switch_params": (
                dict(self.switch_params) if self.switch_params else None
            ),
            "window_slots": self.window_slots,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "JobRequest":
        return cls(
            workload=data["workload"],
            switches=tuple(data["switches"]),
            loads=tuple(data["loads"]),
            n=int(data.get("n", 16)),
            num_slots=int(data.get("num_slots", 2_000)),
            seeds=tuple(data.get("seeds") or (0,)),
            engine=data.get("engine") or None,
            switch_params=data.get("switch_params") or None,
            window_slots=data.get("window_slots"),
        )


def expand_shards(request: JobRequest) -> List[ShardSpec]:
    """Decompose a request into its (seed x load x switch) shard cells."""
    return [
        ShardSpec(
            switch=switch,
            workload=request.workload,
            n=request.n,
            load=load,
            num_slots=request.num_slots,
            seed=seed,
            engine=request.engine,
            switch_params=request.switch_params,
            window_slots=request.window_slots,
        )
        for seed in request.seeds
        for load in request.loads
        for switch in request.switches
    ]


def shard_run_kwargs(shard: ShardSpec) -> Dict:
    """The :func:`~repro.sim.experiment.run_single` arguments for a shard.

    The one place the shard -> run mapping lives: the daemon plans shards
    with it (:func:`shard_plan`) and workers execute with it
    (:func:`execute_shard`), so planner and executor build the same plan.
    """
    return {
        "switch_name": shard.switch,
        "num_slots": shard.num_slots,
        "seed": shard.seed,
        "keep_samples": False,
        "switch_params": shard.switch_params,
        # Validated at plan time, never part of the key.
        "engine": shard.engine,
        "window_slots": shard.window_slots,
        **cell_workload(shard.workload, shard.n, shard.load),
    }


def shard_plan(shard: ShardSpec) -> RunPlan:
    """The :class:`~repro.sim.experiment.RunPlan` the shard's worker
    executes.

    Raises for invalid shards (unknown switch, bad scenario), so
    submission-time validation comes for free.
    """
    return plan_run(**shard_run_kwargs(shard))


def shard_params(shard: ShardSpec) -> Dict:
    """The shard's full store cache-key parameter dict."""
    return shard_plan(shard).store_params()


def shard_key(shard: ShardSpec) -> str:
    """The shard's experiment-store cache key.

    Exactly the key the worker's ``run_single(store=...)`` call will save
    under (both are the plan's) — shard identity IS store identity,
    which is the whole dedup story.
    """
    return cache_key(shard_params(shard))


def execute_shard(payload: Dict) -> Dict:
    """Worker-side shard execution (the pool's runner).

    ``payload`` carries the shard dict plus the store path; the worker
    re-opens the store locally by that path and runs through the
    ordinary :func:`~repro.sim.experiment.run_single` path, so the
    result is saved under exactly the key the daemon planned for.
    Returns the flattened result row plus the measured wall time —
    small enough to stream, complete enough for watch events.
    """
    shard = ShardSpec.from_dict(payload["shard"])
    t0 = time.perf_counter()
    result = run_single(store=payload["store"], **shard_run_kwargs(shard))
    return {
        "row": _json_row(result.as_row()),
        "wall_s": time.perf_counter() - t0,
    }


def _json_row(row: Dict) -> Dict:
    """A result row with NaNs nulled: shard rows travel as strict JSON
    over the service's HTTP surface (stdlib parsers on the other end)."""
    return {
        field: (None if value != value else value)
        if isinstance(value, float)
        else value
        for field, value in row.items()
    }
