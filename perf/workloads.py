"""The five workloads: what each runs, at what size, and why.

A workload is a fixed list of *ops*.  Every op goes through one of the
library's top-level entry points — ``run_single``, ``replicate``, or a
``serve`` daemon behind a ``ServiceClient`` — with
``engine="vectorized"`` and otherwise default arguments, because the
default path is what users run.  The seed reaches the library only as the
``seed=`` / ``base_seed=`` / ``seeds=`` of those calls.

``op.run(rec, label, store)`` executes the op once, times its measured
region with ``rec.root(label)`` and returns a :class:`Sample` holding one
canonical result dict per simulated cell.  With a ``store`` the same call
is served from (or, on its first execution, fills) the experiment store.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns
from statistics import median
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.service import (
    JobRequest,
    ServiceClient,
    ServiceServer,
    SimulationService,
    execute_shard,
    expand_shards,
    serve,
    shard_run_kwargs,
)
from repro.sim.experiment import TRAFFIC_PATTERNS, run_single
from repro.sim.replication import replicate
from repro.store import ExperimentStore
from repro.traffic.matrices import diagonal_matrix

from .trace import ROOT_SPAN, SWITCHES, WORKER_SPAN, Recorder, shard_tag


@dataclass(frozen=True)
class Size:
    """Problem sizes.  ``full`` is what the benchmark measures; ``tiny``
    only drives the same code paths from the harness's own tests."""

    n: int
    cell_slots: int
    rep_n: int
    rep_slots: int
    replications: int
    fabric_slots: int
    window_slots: int
    sweep_slots: int
    parity_n: int
    parity_slots: int


# `full` is sized for the benchmark contract's time cap on 2 shared cores:
# one pass of any op list takes 2-3 s, so a 12 s run holds a warm-up pass
# and three timed ones.  ISSUE 11's sizes (50k-slot cells, 4k-slot
# replications, 100k-slot fabric runs, 20k-slot sweep shards) took 6-9 s a
# pass; slots per cell were cut, never the op lists.
SIZES: Dict[str, Size] = {
    "full": Size(
        n=32, cell_slots=16_000, rep_n=16, rep_slots=1_000, replications=32,
        fabric_slots=30_000, window_slots=8_192, sweep_slots=8_000,
        parity_n=8, parity_slots=2_000,
    ),
    "tiny": Size(
        n=8, cell_slots=600, rep_n=8, rep_slots=300, replications=3,
        fabric_slots=1_200, window_slots=512, sweep_slots=400,
        parity_n=4, parity_slots=300,
    ),
}

#: The paper's title claim (no reordering) holds for these and for the
#: fabrics built from them; the baseline load-balanced switch reorders.
ORDERED = {
    "sprinklers", "ufs", "pf", "foff", "output-queued",
    "leaf-spine", "dual-sprinklers",
}


#: Per-layer metrics ``service_sweep`` derives from worker spans and
#: client-side event times; 0 on the workloads without a service.
SERVICE_EXTRAS = (
    "service.first_event_s",
    "service.shard_s.p50",
    "service.queue_wait_s.p50",
    "service.return_lag_s.p50",
    "service.worker_busy_share",
    "service.cached_cycle_s.p50",
    "service.cached_cycle_s.p90",
)


@dataclass
class Sample:
    """One execution of an op."""

    wall_ns: int
    #: One canonical result dict per cell, in the op's cell order (``None``
    #: for a shard without a payload).  The harness keeps them for an op's
    #: newest execution only: what it holds on to would otherwise grow the
    #: heap the workload is measured in.
    results: Optional[List[Optional[Dict]]]
    info: Dict = field(default_factory=dict)
    digest: str = ""
    injected: int = 0
    cells: int = 0

    def __post_init__(self) -> None:
        self.digest = digest(self.results)
        self.injected = sum(r["injected"] for r in self.results if r)
        self.cells = len(self.results)


def canonical(result) -> Dict:
    """A result as the store would hold it, minus telemetry (host time)."""
    data = result.to_dict(include_samples=False)
    data["extras"].pop("telemetry", None)
    return data


def digest(results: List[Optional[Dict]]) -> str:
    return hashlib.sha256(
        json.dumps(results, sort_keys=True).encode()
    ).hexdigest()


class SimOp:
    """An op that is one library call returning simulation results."""

    def __init__(
        self, op_id: str, subject: str, call: Callable[[object], List]
    ) -> None:
        self.id = op_id
        self.ordered = subject in ORDERED
        self._call = call

    def run(self, rec: Recorder, label: str, store=None) -> Sample:
        hits = store.hits if store is not None else 0
        with rec.root(label) as timing:
            results = self._call(store)
        info = {"hits": store.hits - hits} if store is not None else {}
        return Sample(timing["wall_ns"], [canonical(r) for r in results], info)


class Workload:
    """Base: op list, parity cells, and the store-served (cached) phase."""

    #: The reason each workload exists is its ``why`` in BENCHMARK.json.
    name = ""
    #: ``(op id, reported switch name, load)`` of the cell whose simulated
    #: statistics are reported as ``sim.metrics.*``.
    headline: Tuple[str, str, float] = ("", "", 0.0)

    def __init__(self, seed: int, size: Size, scratch: Path) -> None:
        self.seed = seed
        self.size = size
        self.scratch = scratch
        self.resources = ExitStack()
        self.ops: List = []
        #: ``run_single`` keyword sets (engine left out) run on both engines.
        self.parity: List[Dict] = []

    def parity_cell(self, switch: str) -> Dict:
        return dict(
            switch_name=switch,
            matrix=diagonal_matrix(self.size.parity_n, 0.8),
            num_slots=self.size.parity_slots,
            seed=self.seed,
            load_label=0.8,
        )

    def warm_up(self) -> None:
        """One tiny run per switch used (part of ``setup_s``)."""
        for cell in self.parity:
            run_single(engine="vectorized", **cell)

    def release(self) -> None:
        """Drop what only set-up needed (called once ready is stamped)."""
        self.resources.close()

    def store_dir(self) -> Path:
        """Where the store the cached rounds read lives."""
        return self.scratch / "store"

    def store(self) -> Optional[ExperimentStore]:
        """The ``store=`` of the warm-up pass and the cached rounds."""
        return ExperimentStore(self.store_dir())

    @contextmanager
    def cached(self) -> Iterator[List]:
        """The ops of one cached round (run with ``store=self.store()``)."""
        yield self.ops

    def extra_checks(self, last: Dict[str, Sample]) -> List[Tuple[str, bool]]:
        return []

    def layer_extras(self, spans: List[Dict], samples: Dict) -> Dict[str, float]:
        """Per-layer metrics only the workload can compute."""
        return dict.fromkeys(SERVICE_EXTRAS, 0.0)


def _cell_op(switch: str, pattern: str, seed: int, size: Size) -> SimOp:
    matrix = TRAFFIC_PATTERNS[pattern](size.n, 0.9)

    def call(store):
        return [
            run_single(
                switch, matrix, size.cell_slots, seed=seed, load_label=0.9,
                keep_samples=False, engine="vectorized", store=store,
            )
        ]

    return SimOp(f"{switch}/{pattern}", switch, call)


class _FigCells(Workload):
    """A block of the default ``delay_vs_load_sweep`` grid of Figs. 6-7."""

    switches: Tuple[str, ...] = ()

    def __init__(self, seed, size, scratch):
        super().__init__(seed, size, scratch)
        self.ops = [
            _cell_op(switch, pattern, seed, size)
            for switch in self.switches
            for pattern in ("uniform", "diagonal")
        ]
        self.parity = [self.parity_cell(switch) for switch in self.switches]


class FigCellStriped(_FigCells):
    name = "fig_cell_striped"
    switches = ("sprinklers", "ufs", "load-balanced", "output-queued")
    headline = ("sprinklers/diagonal", "sprinklers", 0.9)


class FigCellFramed(_FigCells):
    name = "fig_cell_framed"
    switches = ("pf", "foff")
    headline = ("pf/diagonal", "pf", 0.9)


class ReplicateShort(Workload):
    name = "replicate_short"
    headline = ("sprinklers", "sprinklers", 0.8)

    def __init__(self, seed, size, scratch):
        super().__init__(seed, size, scratch)
        matrix = diagonal_matrix(size.rep_n, 0.8)
        def op(switch: str) -> SimOp:
            def call(store):
                results = []

                def metric(result) -> float:
                    results.append(result)
                    return result.mean_delay

                replicate(
                    switch, matrix, size.rep_slots,
                    replications=size.replications, base_seed=seed,
                    metric=metric, load_label=0.8, engine="vectorized",
                    store=store, batch_seeds=True,
                )
                return results

            return SimOp(switch, switch, call)

        self.ops = [op(switch) for switch in SWITCHES]
        self.parity = [self.parity_cell(switch) for switch in SWITCHES]


class FabricCollective(Workload):
    name = "fabric_collective"
    headline = ("leaf-spine/ring-allreduce", "leaf-spine", 0.8)
    _RUNS = (
        ("leaf-spine", "ring-allreduce"),
        ("dual-sprinklers", "alltoall-phased"),
    )

    def __init__(self, seed, size, scratch):
        super().__init__(seed, size, scratch)

        def op(fabric: str, scenario: str) -> SimOp:
            def call(store):
                return [
                    run_single(
                        fabric, None, size.fabric_slots, seed=seed,
                        keep_samples=False, engine="vectorized",
                        scenario=scenario, n=size.n, load=0.8, store=store,
                        window_slots=size.window_slots,
                    )
                ]

            return SimOp(f"{fabric}/{scenario}", fabric, call)

        self.ops = [op(*run) for run in self._RUNS]
        self.parity = [
            dict(
                switch_name=fabric, num_slots=size.parity_slots, seed=seed,
                scenario=scenario, n=size.parity_n, load=0.8,
            )
            for fabric, scenario in self._RUNS
        ]


# ---------------------------------------------------------------------------
# service_sweep
# ---------------------------------------------------------------------------


@contextmanager
def daemon(store_uri: str, workers: int, runner=None) -> Iterator[ServiceClient]:
    """A background daemon and a client that has seen ``/health``.

    ``runner`` (traced passes only) is the service's public ``runner=``
    parameter, which ``serve`` does not forward — so the traced daemon is
    built from the same two public classes ``serve`` composes.
    """
    if runner is None:
        server = serve(store_uri, port=0, workers=workers)
    else:
        service = SimulationService(store_uri, workers=workers, runner=runner)
        server = ServiceServer(service, port=0)
    server.start_background()
    try:
        client = ServiceClient(server.address)
        client.health()
        yield client
    finally:
        server.close()


def _failed_shards(events: List[Dict]) -> int:
    return sum(
        1 for e in events
        if e.get("event") == "shard" and e.get("status") != "done"
    )


class SweepOp:
    """Phase A: one 16-cell sweep through a fresh daemon on a fresh sqlite
    store; the measured region is submit -> last ``watch`` event."""

    id = "sweep"
    ordered = True

    def __init__(self, request: JobRequest, workers: int, scratch: Path) -> None:
        self.request = request
        self.workers = workers
        self.scratch = scratch
        self.store_dir: Optional[Path] = None

    def run(self, rec: Recorder, label: str, store=None) -> Sample:
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
        self.store_dir = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.scratch))
        root_id = rec.new_id()
        runner = (
            rec.worker_runner(execute_shard, root_id, label, self.store_dir)
            if rec.enabled
            else None
        )
        with daemon(f"sqlite:{self.store_dir}", self.workers, runner) as client:
            with rec.root(label, span_id=root_id) as timing:
                submitted = perf_counter_ns()
                job = client.submit(self.request)
                seen = [(perf_counter_ns(), e) for e in client.watch(job)]
            payloads = list(client.results(job))
        if rec.enabled:
            rec.absorb(self.store_dir)
        events = [e for _, e in seen]
        info = {
            "submitted_ns": submitted,
            "seen_ns": {
                shard_tag(e["switch"], e["load"], e["seed"]): t
                for t, e in seen
                if e.get("event") == "shard"
            },
            "failed_shards": _failed_shards(events),
        }
        return Sample(
            timing["wall_ns"], [p.get("result") for p in payloads], info
        )


class CycleOp:
    """Phase B: one submit -> watch -> results cycle, every cell cached."""

    id = "cached-cycle"
    ordered = True

    def __init__(self, request: JobRequest, client: ServiceClient) -> None:
        self.request = request
        self.client = client

    def run(self, rec: Recorder, label: str, store=None) -> Sample:
        client = self.client
        with rec.root(label) as timing:
            job = client.submit(self.request)
            events = list(client.watch(job))
            with rec.span("service.results_stream"):
                payloads = list(client.results(job))
        cached = sum(
            1 for e in events
            if e.get("event") == "shard" and e.get("source") == "cached"
        )
        info = {"hits": cached, "failed_shards": _failed_shards(events)}
        return Sample(
            timing["wall_ns"], [p.get("result") for p in payloads], info
        )


def _p(values: List[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class ServiceSweep(Workload):
    name = "service_sweep"
    headline = ("sweep", "sprinklers", 0.9)
    _SWITCHES = ("sprinklers", "ufs", "pf", "foff")

    def __init__(self, seed, size, scratch):
        super().__init__(seed, size, scratch)
        self.workers = min(2, os.cpu_count() or 1)
        self.request = JobRequest(
            workload="diagonal", switches=self._SWITCHES,
            loads=(0.3, 0.5, 0.7, 0.9), n=size.n, num_slots=size.sweep_slots,
            seeds=(seed,), engine="vectorized",
        )
        self.sweep = SweepOp(self.request, self.workers, scratch)
        self.ops = [self.sweep]
        self.parity = [self.parity_cell(switch) for switch in self._SWITCHES]

    def warm_up(self) -> None:
        super().warm_up()
        ready = Path(tempfile.mkdtemp(prefix="ready-", dir=self.scratch))
        self.resources.enter_context(daemon(f"sqlite:{ready}", self.workers))

    def store_dir(self) -> Path:
        return self.sweep.store_dir  # of the newest sweep; it serves phase B

    def store(self) -> None:
        return None  # every sweep's daemon opens its own

    @contextmanager
    def cached(self) -> Iterator[List]:
        uri = f"sqlite:{self.store_dir()}"
        with daemon(uri, self.workers) as client:
            yield [CycleOp(self.request, client)]

    def extra_checks(self, last):
        """Each ``/results`` payload equals a direct run of the same shard."""
        payloads = last["sweep"].results
        checks = []
        for shard, payload in zip(expand_shards(self.request), payloads):
            direct = canonical(run_single(**shard_run_kwargs(shard)))
            checks.append((
                f"results==run_single {shard.switch}@{shard.load}",
                payload is not None and digest([payload]) == digest([direct]),
            ))
        return checks

    def layer_extras(self, spans, samples):
        roots = {s["op"]: s for s in spans if s["name"] == ROOT_SPAN}
        shard_s, queue_s, lag_s, busy, first = [], [], [], [], []
        for label, sample in samples.get("T", {}).get("sweep", []):
            mine = [
                s for s in spans
                if s["name"] == WORKER_SPAN and s["op"] == label
            ]
            info, root = sample.info, roots[label]
            for s in mine:
                shard_s.append((s["end"] - s["start"]) / 1e9)
                queue_s.append((s["start"] - info["submitted_ns"]) / 1e9)
                lag_s.append((info["seen_ns"][s["tag"]] - s["end"]) / 1e9)
            busy.append(
                sum(s["end"] - s["start"] for s in mine)
                / (self.workers * (root["end"] - root["start"]))
            )
            first.append(
                (min(info["seen_ns"].values()) - info["submitted_ns"]) / 1e9
            )
        cycles = [
            sample.wall_ns / 1e9
            for _, sample in samples.get("C", {}).get("cached-cycle", [])
        ]
        return dict(zip(SERVICE_EXTRAS, (
            median(first) if first else 0.0,
            _p(shard_s, 0.5),
            _p(queue_s, 0.5),
            _p(lag_s, 0.5),
            median(busy) if busy else 0.0,
            _p(cycles, 0.5),
            _p(cycles, 0.9),
        )))


WORKLOADS = {
    cls.name: cls
    for cls in (
        FigCellStriped, FigCellFramed, ReplicateShort, FabricCollective,
        ServiceSweep,
    )
}

