"""Experiment orchestration: plan, key, execute.

This is the layer the figure generators and the benchmark sit on.  One
experiment — a switch or fabric, an admissible workload, a seed — is
described by exactly one value, a :class:`RunPlan`:

* :func:`plan_run` turns loose arguments into a plan.  *All* validation,
  alias canonicalization, fabric lookup and scenario resolution happen
  here, before any store is consulted or any packet is drawn.
* :meth:`RunPlan.store_params` / :attr:`RunPlan.key` are the plan's
  identity in the experiment store (:mod:`repro.store`).  The
  execution-detail fields ``engine`` and ``window_slots`` ride on the
  plan but are not read by ``store_params``: they cannot enter a key.
  Which kernel passes run (compiled where numba imports, NumPy
  otherwise; :mod:`repro.sim.kernels.compiled`) is a fact of the host,
  not of the plan.
* :func:`execute` is fetch-or-simulate-and-save, for switches
  (:mod:`repro.models`) and fabrics alike, on the engine the plan
  resolved.
* :attr:`RunPlan.traffic_key` names the arrival stream a plan replays:
  the store key minus the subject.  Inside a :func:`shared_draws`
  scope, which holds the last batch drawn, plans that follow one
  another with one traffic key draw their arrivals once and replay
  that batch (the paper's §6 runs every switch on the same arrivals at
  each load).

:func:`run_single` is ``execute(plan_run(...), store)`` and
:func:`resolve_run_params` is ``plan_run(...).store_params()``, so the
key a planner computes and the key a run is saved under are the same
expression.  :func:`plan_cell` plans one cell of the paper's §6 grid
(pattern x load x switch); a whole grid runs as a
:class:`~repro.service.JobRequest` through :func:`repro.service.run_sweep`.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Sequence, Union

import numpy as np

from .. import models, telemetry
from ..models import PAPER_SWITCHES
from ..scenarios.build import build_batch_traffic, build_traffic
from ..scenarios.registry import SCENARIOS, resolve_scenario
from ..scenarios.spec import ScenarioSpec, effective_matrix
from ..sim.engine import SimulationEngine
from ..sim.fast_engine import run_single_fast
from ..sim.metrics import SimulationResult
from ..sim.rng import traffic_rng
from ..store import ExperimentStore, cache_key, coerce_store
from ..traffic.batch import ArrivalBatch, BatchTrafficGenerator
from ..traffic.generator import TrafficGenerator, destination_distributions
from ..traffic.matrices import diagonal_matrix, uniform_matrix

__all__ = [
    "ENGINES",
    "PAPER_SWITCHES",
    "RunPlan",
    "TRAFFIC_PATTERNS",
    "cell_workload",
    "execute",
    "plan_cell",
    "plan_run",
    "resolve_pattern",
    "resolve_run_params",
    "run_single",
    "shared_draws",
]

#: Simulation engines: the per-packet object model (the auditable
#: reference and ordering oracle) and the NumPy batch replay of
#: :mod:`repro.sim.fast_engine` (identical results, built for the paper's
#: 200k-slot scale).  :func:`plan_run` runs the vectorized engine
#: wherever its kernels model the run; naming ``"object"`` selects the
#: oracle explicitly.
ENGINES: Sequence[str] = ("object", "vectorized")

#: The two workload patterns of the paper's §6.
TRAFFIC_PATTERNS: Dict[str, Callable[[int, float], np.ndarray]] = {
    "uniform": uniform_matrix,
    "diagonal": diagonal_matrix,
}


#: Store-key fields that name what replays the traffic, not the traffic
#: itself; :attr:`RunPlan.traffic_key` drops them.
_SUBJECT_FIELDS = frozenset(
    {"switch", "switch_params", "kind", "fabric", "keep_samples"}
)


@dataclass(frozen=True, eq=False)
class RunPlan:
    """One fully resolved run: what :func:`execute` simulates and what
    the store keys it by.  Build one with :func:`plan_run`, which
    validates; the constructor does not.

    ``subject`` is the canonical switch name, or the fabric's name when
    ``fabric`` is set.  ``spec`` / ``scenario_load`` are set for
    declarative workloads (``matrix`` is then the scenario's effective
    matrix, which provisions the switch).  Plans pickle, so they cross
    process boundaries unchanged.
    """

    subject: str
    fabric: Optional["models.FabricSpec"]
    matrix: np.ndarray
    num_slots: int
    seed: int
    load_label: float
    warmup_fraction: float
    keep_samples: bool
    spec: Optional[ScenarioSpec]
    scenario_load: Optional[float]
    switch_params: Dict
    #: Execution detail: results are bit-identical whatever these are,
    #: so :meth:`store_params` does not read them.  ``engine`` is the
    #: engine that runs, already resolved by :func:`plan_run`.
    engine: str
    window_slots: Optional[int] = None

    @property
    def n(self) -> int:
        return int(self.matrix.shape[0])

    def store_params(self) -> Dict:
        """The experiment store's cache-key parameters for this run.

        The workload identity is the scenario spec's dict form plus its
        target load when the run is declarative, or a SHA-256 digest of
        the raw matrix bytes plus the caller's load label for ad-hoc
        matrices (see EXPERIMENTS.md, "cache-key scheme").  A fabric run
        embeds its full spec: two fabrics sharing a name but differing
        in stages, parameters, or port maps never collide.
        """
        if self.spec is not None:
            workload: Dict = {"scenario": self.spec.to_dict()}
            load = self.scenario_load
        else:
            digest = hashlib.sha256(
                np.ascontiguousarray(self.matrix, dtype=float).tobytes()
            ).hexdigest()
            workload = {"matrix_sha256": digest}
            load = self.load_label
        params = {
            "schema": 2,
            "kind": "run_single",
            "switch": self.subject,
            "n": self.n,
            "slots": int(self.num_slots),
            "seed": int(self.seed),
            "load": float(load),
            "warmup_fraction": float(self.warmup_fraction),
            "keep_samples": bool(self.keep_samples),
            "workload": workload,
        }
        if self.switch_params:
            # Only present when non-default, so default-parameter runs
            # keep the keys they had before switches took parameters.
            params["switch_params"] = dict(self.switch_params)
        if self.fabric is not None:
            params["kind"] = "run_fabric"
            params["fabric"] = self.fabric.to_dict()
        return params

    @property
    def key(self) -> str:
        """The content address :func:`execute` saves this run under."""
        return cache_key(self.store_params())

    @property
    def traffic_key(self) -> str:
        """The identity of the arrival stream this run replays: the cache
        key of :meth:`store_params` without the fields that name the
        subject.  Runs with one traffic key replay the same arrivals
        whatever their switch."""
        return cache_key({
            k: v
            for k, v in self.store_params().items()
            if k not in _SUBJECT_FIELDS
        })

    @property
    def monolithic(self) -> bool:
        """True when the run replays its whole arrival batch at once
        (no window, or one that covers the run)."""
        return self.window_slots is None or self.window_slots >= self.num_slots

    @property
    def shares_draw(self) -> bool:
        """True for a monolithic vectorized switch run: the one kind a
        :func:`shared_draws` scope hands a held batch.  Fabrics, windowed
        and object-engine runs draw their own arrivals."""
        return (
            self.fabric is None
            and self.engine == "vectorized"
            and self.monolithic
        )

    def batch_traffic(self) -> BatchTrafficGenerator:
        """The run's batch packet source: the scenario's, or i.i.d.
        Bernoulli arrivals from the matrix on the run's traffic stream."""
        if self.spec is None:
            return BatchTrafficGenerator(self.matrix, traffic_rng(self.seed))
        return build_batch_traffic(
            self.spec, self.n, self.scenario_load, self.seed, self.num_slots
        )


def plan_run(
    switch_name,
    matrix: Optional[np.ndarray] = None,
    num_slots: int = 0,
    seed: int = 0,
    load_label: float = float("nan"),
    warmup_fraction: float = 0.1,
    keep_samples: bool = True,
    engine: Optional[str] = None,
    scenario=None,
    n: Optional[int] = None,
    load: Optional[float] = None,
    switch_params: Optional[Dict] = None,
    window_slots: Optional[int] = None,
) -> RunPlan:
    """Validate and resolve one run's arguments into a :class:`RunPlan`.

    Arguments are :func:`run_single`'s (minus ``store``).  Every invalid
    configuration raises its ``ValueError`` here — the same error
    whatever the engine, the switch, or the contents of a store.  The
    plan's ``engine`` is the one that runs: vectorized whenever the
    kernels model the switch (every stage, for a fabric) with its
    parameters, else object; an explicit ``"object"`` forces the oracle.
    """
    if engine is not None and engine not in ENGINES:
        known = ", ".join(ENGINES)
        raise ValueError(f"unknown engine {engine!r}; known: {known}")
    # Fabric and switch names share a namespace; a registered fabric
    # name (or a FabricSpec) plans a multi-stage run.
    fabric = models.lookup_fabric(switch_name)
    if fabric is not None:
        if switch_params:
            raise ValueError(
                f"fabric {fabric.name!r}: per-stage parameters belong in "
                f"the FabricSpec stages, not switch_params"
            )
        subject = fabric.name
        vectorizable = models.CompositeSwitchModel(fabric).supports_engine(
            "vectorized"
        )
    else:
        try:
            subject = models.canonical_name(switch_name)
        except ValueError:
            raise ValueError(
                f"unknown switch or fabric {switch_name!r}; "
                f"switches: {', '.join(models.available())}; "
                f"fabrics: {', '.join(models.available_fabrics())}"
            ) from None
        model = models.get(subject)
        model.validate_params(switch_params or {})
        vectorizable = model.supports_engine("vectorized", switch_params)
    spec: Optional[ScenarioSpec] = None
    if scenario is not None:
        if matrix is not None:
            raise ValueError("pass either matrix or scenario, not both")
        spec = resolve_scenario(scenario)
        if n is None or load is None:
            raise ValueError("scenario runs require n and load")
        matrix = effective_matrix(spec, n, load)
        if math.isnan(load_label):
            load_label = float(load)
    elif matrix is None:
        raise ValueError("need a matrix or a scenario")
    # The generators' own check: row sums above 1 packet/slot raise here,
    # not in every worker that would draw the traffic.
    matrix, _, _ = destination_distributions(matrix)
    if num_slots <= 0:
        raise ValueError("num_slots must be positive")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    if window_slots is not None and window_slots <= 0:
        raise ValueError("window_slots must be positive")
    return RunPlan(
        subject=subject,
        fabric=fabric,
        matrix=matrix,
        num_slots=num_slots,
        seed=seed,
        load_label=load_label,
        warmup_fraction=warmup_fraction,
        keep_samples=keep_samples,
        spec=spec,
        scenario_load=float(load) if spec is not None else None,
        switch_params=dict(switch_params or {}),
        engine=(
            "vectorized" if vectorizable and engine != "object" else "object"
        ),
        window_slots=window_slots,
    )


#: The arrival batch the innermost :func:`shared_draws` scope holds, by
#: traffic key (at most one entry); ``None`` outside every scope.
_HELD: ContextVar[Optional[Dict[str, ArrivalBatch]]] = ContextVar(
    "held_draws", default=None
)


@contextmanager
def shared_draws() -> Iterator[None]:
    """Within this scope, consecutive runs that share a
    :attr:`RunPlan.traffic_key` share one draw: the first monolithic
    vectorized run draws the arrivals, and every later one replays that
    same batch until a run with another key replaces it.

    The scope holds one batch, the last one drawn, so a long-lived
    scope (a pool worker's) stays bounded.  The held columns are
    read-only, so a kernel that wrote its input would raise instead of
    perturbing the next run.  Windowed, fabric and object-engine runs
    draw their own arrivals, as outside a scope.  The batch dies with
    the scope.
    """
    token = _HELD.set({})
    try:
        yield
    finally:
        _HELD.reset(token)


def _shared_arrivals(plan: RunPlan) -> Optional[ArrivalBatch]:
    """A monolithic vectorized switch run's arrivals from the enclosing
    :func:`shared_draws` scope, drawn on first use; ``None`` when the
    run draws its own."""
    held = _HELD.get()
    if held is None or not plan.shares_draw:
        return None
    key = plan.traffic_key
    batch = held.get(key)
    if batch is None:
        held.clear()  # drop the last key's batch before drawing this one
        with telemetry.trace("traffic.draw"):
            batch = held[key] = plan.batch_traffic().draw(plan.num_slots)
        for column in (batch.slots, batch.inputs, batch.outputs, batch.seqs):
            column.flags.writeable = False
    return batch


def _simulate(plan: RunPlan) -> SimulationResult:
    """The uncached simulation (:func:`execute` wraps exactly this)."""
    if plan.fabric is not None:
        # Imported here, not at module scope: the fabric built-ins
        # resolve their stage names against the switch registry, which
        # is still filling in while this module first loads (models ->
        # builtin -> kernels -> sim package -> here).
        from ..sim.composite import run_fabric

        return run_fabric(
            plan.fabric,
            plan.matrix,
            plan.num_slots,
            seed=plan.seed,
            load_label=plan.load_label,
            warmup_fraction=plan.warmup_fraction,
            keep_samples=plan.keep_samples,
            engine=plan.engine,
            batch_traffic=plan.batch_traffic(),
            window_slots=plan.window_slots,
        )
    if plan.engine == "vectorized":
        arrivals = _shared_arrivals(plan)
        return run_single_fast(
            plan.subject,
            plan.matrix,
            plan.num_slots,
            seed=plan.seed,
            load_label=plan.load_label,
            warmup_fraction=plan.warmup_fraction,
            keep_samples=plan.keep_samples,
            batch_traffic=plan.batch_traffic() if arrivals is None else None,
            switch_params=plan.switch_params,
            window_slots=plan.window_slots,
            arrivals=arrivals,
        )
    switch = models.get(plan.subject).build(
        plan.n, plan.matrix, plan.seed, **plan.switch_params
    )
    if plan.spec is not None:
        traffic = build_traffic(
            plan.spec, plan.n, plan.scenario_load, plan.seed, plan.num_slots
        )
    else:
        traffic = TrafficGenerator(plan.matrix, traffic_rng(plan.seed))
    sim = SimulationEngine(
        switch,
        traffic,
        warmup_fraction=plan.warmup_fraction,
        keep_samples=plan.keep_samples,
    )
    return sim.run(plan.num_slots, load_label=plan.load_label)


def execute(
    plan: RunPlan, store: Union[None, str, ExperimentStore] = None
) -> SimulationResult:
    """Fetch ``plan``'s result from ``store``, or simulate and save it.

    The simulation runs under a telemetry capture; when telemetry is on, the capture payload (wall seconds, peak RSS,
    metrics snapshot — process-cumulative at run exit) is attached as
    ``extras["telemetry"]`` *before* the save, so a later hit carries
    the telemetry of the run that computed it, not of the fetch.
    Disabled telemetry leaves the result byte-identical to an
    uninstrumented run.
    """
    cache = coerce_store(store)
    if cache is not None:
        params = plan.store_params()
        cached = cache.fetch(params)
        if cached is not None:
            return cached
    cap = telemetry.capture(
        "run.fabric" if plan.fabric is not None else "run.single"
    )
    with cap:
        result = _simulate(plan)
    if cap.result is not None:
        result.extras["telemetry"] = cap.result
    if cache is not None:
        cache.save(params, result)
    return result


def run_single(
    switch_name: str,
    matrix: Optional[np.ndarray] = None,
    num_slots: int = 0,
    seed: int = 0,
    load_label: float = float("nan"),
    warmup_fraction: float = 0.1,
    keep_samples: bool = True,
    engine: Optional[str] = None,
    scenario=None,
    n: Optional[int] = None,
    load: Optional[float] = None,
    store: Union[None, str, ExperimentStore] = None,
    switch_params: Optional[Dict] = None,
    window_slots: Optional[int] = None,
) -> SimulationResult:
    """Build switch + traffic from a seed and simulate one configuration:
    ``execute(plan_run(...), store)``.

    ``switch_name`` is any name or alias in the switch-model registry
    (:func:`repro.models.available` lists them); aliases are canonicalized
    at plan time, so store cache keys are alias-independent.  A
    registered *fabric* name (:func:`repro.models.available_fabrics`) or
    a :class:`~repro.models.FabricSpec` plans a multi-stage run
    (:func:`repro.sim.composite.run_fabric`), with per-stage metrics in
    the result's extras.
    ``switch_params`` passes schema-checked constructor parameters (e.g.
    ``{"threshold": 8}`` for PF) through the model; the run falls back
    to the object engine when a requested parameter is not in the
    kernel's declared ``kernel_params`` (UFS's finite ``input_buffer``
    drops packets, which the array replay does not model), and
    parameterized runs get their own store cache keys.

    Workload selection — exactly one of:

    * ``matrix`` — an explicit rate matrix (the historical API), or
    * ``scenario`` with ``n`` and ``load`` — a declarative scenario
      (registry name, spec file path, dict, or
      :class:`~repro.scenarios.spec.ScenarioSpec`); the switch is
      provisioned from the scenario's effective matrix and traffic is
      built by :mod:`repro.scenarios.build` (identically for both
      engines).

    The run goes through the NumPy batch engine
    (:mod:`repro.sim.fast_engine`) whenever the switch's registered model
    carries a kernel — which reproduces the object engine's results
    exactly — and falls back to the object engine otherwise (CMS,
    hashing, adaptive Sprinklers), so mixed sweeps keep working.
    ``engine`` ``"object"`` runs the per-packet oracle regardless.

    ``store`` (an :class:`~repro.store.ExperimentStore` or its directory
    path) caches the result content-addressed by :attr:`RunPlan.key`; a
    hit skips the simulation entirely.

    ``window_slots`` streams the vectorized replay in windows of that
    many slots (bounded arrival memory, bit-identical results — see
    :func:`repro.sim.fast_engine.run_single_fast`).  It and ``engine``
    are validated with everything else but change no result, so neither
    enters the store key — a run computed one way is a cache hit for the
    other — and engines or switches that cannot stream simply ignore
    ``window_slots``.
    """
    return execute(
        plan_run(
            switch_name, matrix, num_slots, seed, load_label,
            warmup_fraction, keep_samples, engine, scenario, n, load,
            switch_params, window_slots,
        ),
        store,
    )


def resolve_run_params(
    switch_name: str,
    matrix: Optional[np.ndarray] = None,
    num_slots: int = 0,
    seed: int = 0,
    load_label: float = float("nan"),
    warmup_fraction: float = 0.1,
    keep_samples: bool = True,
    engine: Optional[str] = None,
    scenario=None,
    n: Optional[int] = None,
    load: Optional[float] = None,
    switch_params: Optional[Dict] = None,
) -> Dict:
    """The store cache-key parameters :func:`run_single` would use, without
    running anything: ``plan_run(...).store_params()``.

    Callers that plan work ahead of execution (the simulation service's
    shard dedup) get the key from the same plan :func:`run_single`
    executes, and the same errors for the same invalid configurations.
    """
    return plan_run(
        switch_name, matrix, num_slots, seed, load_label, warmup_fraction,
        keep_samples, engine, scenario, n, load, switch_params,
    ).store_params()


def resolve_pattern(pattern) -> Union[str, Dict]:
    """A figure's ``pattern`` argument, checked and resolved once into
    the workload a :class:`~repro.service.JobRequest` carries: a
    :data:`TRAFFIC_PATTERNS` key comes back as is, any scenario
    designator (registry name, spec file, ``trace:<path>``, dict, spec)
    as its :class:`~repro.scenarios.spec.ScenarioSpec`'s dict form."""
    if isinstance(pattern, str):
        if pattern in TRAFFIC_PATTERNS:
            return pattern
        is_file_or_trace = pattern.endswith(
            (".toml", ".json")
        ) or pattern.startswith("trace:")
        if pattern not in SCENARIOS and not is_file_or_trace:
            known = ", ".join(sorted(TRAFFIC_PATTERNS) + sorted(SCENARIOS))
            raise ValueError(
                f"unknown pattern {pattern!r}; known patterns and "
                f"scenarios: {known}"
            )
    # File and validation errors propagate with their own messages.
    return resolve_scenario(pattern).to_dict()


def cell_workload(pattern, n: int, load: float) -> Dict:
    """:func:`run_single`'s workload arguments for one sweep cell: a §6
    pattern name becomes its rate matrix, anything else is a scenario
    designator run at ``n`` ports and target ``load``."""
    if isinstance(pattern, str) and pattern in TRAFFIC_PATTERNS:
        return {
            "matrix": TRAFFIC_PATTERNS[pattern](n, load),
            "load_label": load,
        }
    return {"scenario": pattern, "n": n, "load": load}


def plan_cell(
    pattern,
    subject,
    n: int,
    load: float,
    num_slots: int,
    seed: int = 0,
    keep_samples: bool = False,
    engine: Optional[str] = None,
    window_slots: Optional[int] = None,
) -> RunPlan:
    """The plan of one (pattern, load, switch-or-fabric) grid cell."""
    return plan_run(
        subject,
        num_slots=num_slots,
        seed=seed,
        keep_samples=keep_samples,
        engine=engine,
        window_slots=window_slots,
        **cell_workload(pattern, n, load),
    )

