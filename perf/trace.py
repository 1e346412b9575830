"""Tracing from outside: spans, the probe table, and self-time arithmetic.

Nothing under ``src/`` is edited to be measured.  A traced pass swaps the
public callables named in :data:`PROBES` for timing shims (module
functions rebound wherever ``repro.*`` imported them, class methods
patched on the class, registered switch models re-registered with timing
proxies around ``kernel`` / ``stream_kernel``) and puts every original
back afterwards.  A probe whose target no longer exists is listed as
missing and its metrics read ``None``; the time it would have claimed
falls through to its parent span and, at the top, to
``driver.unattributed_share``.

A span is a dict ``{id, parent, name, op, start, end, n}``: ``start`` and
``end`` are ``time.perf_counter_ns()`` (CLOCK_MONOTONIC, one clock for
every process on the host, so spans of forked service workers line up
with the client's), ``op`` is the label all spans of one op execution
share, ``n`` the count taken at that boundary (packets drawn, departures
finalized, store hits).  A span's *self time* is its duration minus the
part of it that its child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import itertools
import json
import os
import statistics
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: The six switches with a vectorized kernel; ``sim.kernels.<sw>.*``.
SWITCHES = (
    "sprinklers", "ufs", "load-balanced", "output-queued", "pf", "foff",
)

ROOT_SPAN = "op"
WORKER_SPAN = "service.worker.shard"


class Recorder:
    """In-memory span sink; also the timer of untraced runs.

    ``root`` always measures its body; spans are only kept while
    ``enabled``.  One instance is shared by the shims, the workload ops
    and (by fork) the service's worker processes.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Dict] = []
        self.op: Optional[str] = None
        #: Parent for spans begun on a thread with no open span (the
        #: daemon's HTTP handler threads, forked workers).
        self.root_id = 0
        self._local = threading.local()
        self._seq = itertools.count(1)

    def new_id(self) -> int:
        return (os.getpid() << 32) | next(self._seq)

    def _stack(self) -> List[int]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def begin(
        self, name: str, span_id: int = 0, parent: Optional[int] = None
    ) -> Dict:
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else self.root_id
        span = {
            "id": span_id or self.new_id(),
            "parent": parent,
            "name": name,
            "op": self.op,
            "start": perf_counter_ns(),
            "end": 0,
            "n": 0,
        }
        stack.append(span["id"])
        return span

    def end(self, span: Dict, n: int = 0, keep: bool = True) -> None:
        span["end"] = perf_counter_ns()
        span["n"] = n
        self._stack().pop()
        if keep:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around harness-side code (no-op while disabled)."""
        if not self.enabled:
            yield
            return
        span = self.begin(name)
        try:
            yield
        finally:
            self.end(span)

    @contextmanager
    def root(self, op: str, span_id: int = 0) -> Iterator[Dict]:
        """Time one op execution; yields ``{"wall_ns": ...}`` filled on exit."""
        timing = {"wall_ns": 0}
        if not self.enabled:
            t0 = perf_counter_ns()
            try:
                yield timing
            finally:
                timing["wall_ns"] = perf_counter_ns() - t0
            return
        self.op = op
        span = self.begin(ROOT_SPAN, span_id=span_id, parent=0)
        self.root_id = span["id"]
        try:
            yield timing
        finally:
            self.end(span)
            self.op, self.root_id = None, 0
            timing["wall_ns"] = span["end"] - span["start"]

    # -- the service's worker processes ---------------------------------

    def worker_runner(
        self, runner: Callable, parent_id: int, op: str, out_dir: Path
    ) -> Callable:
        """A ``runner=`` for :class:`repro.service.SimulationService` that
        spans each shard in the (forked) worker and appends the worker's
        spans to ``out_dir/worker-<pid>.jsonl``."""

        def traced(payload: Dict) -> Dict:
            self.spans = []  # the forked copy of the parent's buffer
            self.op = op
            self.root_id = parent_id
            shard = payload["shard"]
            span = self.begin(WORKER_SPAN, parent=parent_id)
            span["tag"] = shard_tag(shard["switch"], shard["load"], shard["seed"])
            try:
                return runner(payload)
            finally:
                self.end(span)
                path = out_dir / f"worker-{os.getpid()}.jsonl"
                with open(path, "a") as fh:
                    for item in self.spans:
                        fh.write(json.dumps(item) + "\n")

        return traced

    def absorb(self, out_dir: Path) -> None:
        """Merge the span files :meth:`worker_runner` left in ``out_dir``."""
        for path in sorted(out_dir.glob("worker-*.jsonl")):
            with open(path) as fh:
                self.spans.extend(json.loads(line) for line in fh)
            path.unlink()


def shard_tag(switch: str, load: float, seed: int) -> str:
    """How a worker span and the client's shard event name the same shard."""
    return f"{switch}/{float(load)}/{int(seed)}"


# ---------------------------------------------------------------------------
# The probe table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Probe:
    """One public callable wrapped in a span.

    ``target`` is ``"module:attr"`` or ``"module:Class.attr"``; ``measure``
    turns the call's result (or each item a generator yields) into the
    span's count ``n``.
    """

    span: str
    target: str
    measure: Optional[Callable[[object], int]] = None


def _hit(result: object) -> int:
    return int(result is not None)


PROBES: Tuple[Probe, ...] = (
    Probe("traffic.draw", "repro.traffic.batch:BatchTrafficGenerator.draw", len),
    Probe("traffic.draw", "repro.traffic.batch:BatchTrafficGenerator.draw_chunks", len),
    Probe("traffic.init", "repro.traffic.batch:BatchTrafficGenerator.__init__"),
    Probe("scenarios.build", "repro.scenarios.registry:resolve_scenario"),
    Probe("scenarios.build", "repro.scenarios.spec:effective_matrix"),
    Probe("scenarios.build", "repro.scenarios.build:build_batch_traffic"),
    Probe("sim.experiment", "repro.sim.experiment:run_single"),
    Probe("sim.experiment.plan", "repro.sim.experiment:resolve_run_params"),
    Probe("sim.fast_engine", "repro.sim.fast_engine:run_single_fast"),
    Probe("sim.fast_engine", "repro.sim.fast_engine:run_replications_fast"),
    Probe("sim.composite", "repro.sim.composite:run_fabric"),
    Probe("sim.replication", "repro.sim.replication:replicate"),
    Probe("sim.stage", "repro.sim.stage:KernelStage.feed", lambda dep: len(dep.voq)),
    Probe("store.save", "repro.store.store:ExperimentStore.save"),
    Probe("store.fetch", "repro.store.store:ExperimentStore.fetch", _hit),
    Probe("store.fetch", "repro.store.store:ExperimentStore.fetch_by_key", _hit),
    Probe("service.submit", "repro.service.client:ServiceClient.submit"),
    Probe("service.plan", "repro.service.core:SimulationService.submit"),
)

#: Streamer methods that replay packets, whichever way the engine drives
#: the stream kernel (windowed, one flush, seed-stacked).
_REPLAY_METHODS = ("feed", "finish", "finish_stacked")


def kernel_span(switch: str, part: str) -> str:
    return f"sim.kernels.{switch}.{part}"


def _timed(rec: Recorder, name: str, fn: Callable, measure=None) -> Callable:
    """``fn`` with a span around each call — or, for a generator function,
    around each ``next`` (time spent in the consumer is not the layer's)."""
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def gen_shim(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                span = rec.begin(name)
                n, done = 0, False
                try:
                    item = next(it)
                    if measure is not None:
                        n = measure(item)
                except StopIteration:
                    done = True
                finally:
                    rec.end(span, n, keep=not done)
                if done:
                    return
                yield item

        return gen_shim

    @functools.wraps(fn)
    def shim(*args, **kwargs):
        span = rec.begin(name)
        n = 0
        try:
            result = fn(*args, **kwargs)
            if measure is not None:
                n = measure(result)
            return result
        finally:
            rec.end(span, n)

    return shim


class _TimedStreamer:
    """A stream kernel whose replay methods are spanned; the rest passes
    through."""

    def __init__(self, rec: Recorder, name: str, inner: object) -> None:
        self._inner = inner
        for method in _REPLAY_METHODS:
            if hasattr(inner, method):
                setattr(self, method, _timed(rec, name, getattr(inner, method)))

    def __getattr__(self, attr: str):
        return getattr(self._inner, attr)


class Shims:
    """The installed timing shims: what is missing, and how to undo them."""

    def __init__(self) -> None:
        self.missing: List[str] = []
        #: Span names that ended up with at least one live shim.
        self.live: set = set()
        #: ``(owner, attribute, original)`` — restored by ``setattr``.
        self.patched: List[Tuple[object, str, object]] = []
        #: Original registered switch models — restored by re-registering.
        self.models: List[object] = []

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        if self.models:
            from repro import models

            for model in self.models:
                models.register(model, replace=True)
        self.patched.clear()
        self.models.clear()


def _resolve(target: str) -> Tuple[object, str, object]:
    """``(owner, attribute, raw original)`` of a probe target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, vars(owner)[attr]


#: Packages whose modules may hold ``from x import f`` copies of a target.
_REBIND_IN = ("repro", "perf")


def _rebind_function(shims: Shims, original: object, shim: object) -> None:
    """Point every module global that *is* ``original`` at ``shim``
    (``from x import f`` copies the binding at import time)."""
    for module in list(sys.modules.values()):
        if module is None or module.__name__.split(".")[0] not in _REBIND_IN:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, shim)
                shims.patched.append((module, attr, original))


def _swap_model(rec: Recorder, shims: Shims, switch: str) -> None:
    from repro import models

    replay, setup = kernel_span(switch, "replay"), kernel_span(switch, "setup")
    try:
        model = models.get(switch)
    except ValueError:
        shims.missing += [f"models:{switch}.kernel", f"models:{switch}.stream_kernel"]
        return
    fields = {}
    kernel = getattr(model, "kernel", None)
    if kernel is not None:
        fields["kernel"] = _timed(rec, replay, kernel)
        shims.live.add(replay)
    else:
        shims.missing.append(f"models:{switch}.kernel")
    factory = getattr(model, "stream_kernel", None)
    if factory is not None:

        @functools.wraps(factory)
        def timed_factory(*args, **kwargs):
            span = rec.begin(setup)
            try:
                inner = factory(*args, **kwargs)
            finally:
                rec.end(span)
            return _TimedStreamer(rec, replay, inner)

        fields["stream_kernel"] = timed_factory
        shims.live.update((replay, setup))
    else:
        shims.missing.append(f"models:{switch}.stream_kernel")
    if fields:
        models.register(dataclasses.replace(model, **fields), replace=True)
        shims.models.append(model)


def install(
    rec: Recorder,
    probes: Iterable[Probe] = PROBES,
    switches: Iterable[str] = SWITCHES,
) -> Shims:
    """Wrap every probe target that exists; never raises for one that
    does not."""
    shims = Shims()
    for probe in probes:
        try:
            owner, attr, original = _resolve(probe.target)
        except (ImportError, AttributeError, KeyError):
            shims.missing.append(probe.target)
            continue
        shim = _timed(rec, probe.span, original, probe.measure)
        if inspect.ismodule(owner):
            _rebind_function(shims, original, shim)
        else:
            setattr(owner, attr, shim)
            shims.patched.append((owner, attr, original))
        shims.live.add(probe.span)
    for switch in switches:
        _swap_model(rec, shims, switch)
    return shims


# ---------------------------------------------------------------------------
# Self time and the layer metrics
# ---------------------------------------------------------------------------


def covered_ns(intervals: List[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, edge = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


def self_times(spans: List[Dict]) -> Dict[int, int]:
    """``span id -> self ns``: duration minus what child spans cover
    (children may overlap each other: parallel workers, handler threads)."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(
            (span["start"], span["end"])
        )
    return {
        span["id"]: (span["end"] - span["start"])
        - covered_ns(children.get(span["id"], []), span["start"], span["end"])
        for span in spans
    }


def _kernel_metrics() -> Dict[str, Tuple[str, str, str]]:
    out = {}
    for sw in SWITCHES:
        replay, setup = kernel_span(sw, "replay"), kernel_span(sw, "setup")
        out[f"sim.kernels.{sw}.replay_s"] = (replay, "self", "compute")
        out[f"sim.kernels.{sw}.setup_s"] = (setup, "self", "compute")
        out[f"sim.kernels.{sw}.calls"] = (replay, "calls", "compute")
    return out


#: ``metric -> (span, aggregate, phase)``; units live in BENCHMARK.json.
#: Aggregates: ``self`` / ``dur`` seconds, ``calls`` spans, ``n`` summed
#: counts.  Phase ``compute`` reads the traced passes of the op list,
#: ``cached`` the traced rounds served from the populated store.
SPAN_METRICS: Dict[str, Tuple[str, str, str]] = {
    "traffic.draw_s": ("traffic.draw", "self", "compute"),
    "traffic.draw_calls": ("traffic.draw", "calls", "compute"),
    "traffic.packets": ("traffic.draw", "n", "compute"),
    "traffic.init_s": ("traffic.init", "self", "compute"),
    "scenarios.build_s": ("scenarios.build", "self", "compute"),
    "sim.experiment.self_s": ("sim.experiment", "self", "compute"),
    "sim.experiment.calls": ("sim.experiment", "calls", "compute"),
    "sim.experiment.plan_s": ("sim.experiment.plan", "self", "cached"),
    **_kernel_metrics(),
    "sim.stage.windows": ("sim.stage", "calls", "compute"),
    "sim.stage.departures": ("sim.stage", "n", "compute"),
    "sim.composite.self_s": ("sim.composite", "self", "compute"),
    "sim.composite.calls": ("sim.composite", "calls", "compute"),
    "sim.fast_engine.self_s": ("sim.fast_engine", "self", "compute"),
    "sim.replication.self_s": ("sim.replication", "self", "compute"),
    "store.save_s": ("store.save", "self", "compute"),
    "store.saves": ("store.save", "calls", "compute"),
    "store.fetch_s": ("store.fetch", "self", "cached"),
    "store.fetches": ("store.fetch", "calls", "cached"),
    "store.hits": ("store.fetch", "n", "cached"),
    "service.submit_s": ("service.submit", "dur", "cached"),
    "service.plan_s": ("service.plan", "self", "cached"),
    "service.results_stream_s": ("service.results_stream", "dur", "cached"),
}

#: Spans the harness records itself; never missing.
HARNESS_SPANS = {"service.results_stream"}

_AGG_INDEX = {"self": 0, "dur": 1, "calls": 2, "n": 3}


def _is_kernel_replay(name: str) -> bool:
    return name.startswith("sim.kernels.") and name.endswith(".replay")


def phase_of(op_label: str) -> str:
    """Execution labels read ``<phase letter><index>:<op id>``: ``T`` a
    traced compute pass, ``C`` a traced cached round."""
    return {"T": "compute", "C": "cached"}.get(op_label[:1], "other")


def layer_metrics(spans: List[Dict], live: set) -> Dict[str, Optional[float]]:
    """Every span-derived per-layer metric.

    A value is the sum over ops of the median over that op's traced
    executions, so one slow execution does not set it; a metric whose
    span has no live shim is ``None``.
    """
    selfs = self_times(spans)
    # (execution label, span name) -> [self ns, dur ns, calls, n]
    totals: Dict[Tuple[str, str], List[int]] = {}
    for span in spans:
        entry = totals.setdefault((span["op"], span["name"]), [0, 0, 0, 0])
        entry[0] += selfs[span["id"]]
        entry[1] += span["end"] - span["start"]
        entry[2] += 1
        entry[3] += span["n"]
    executions: Dict[Tuple[str, str], List[str]] = {}  # (phase, op id) -> labels
    for span in spans:
        if span["name"] == ROOT_SPAN:
            op_id = span["op"].partition(":")[2]
            executions.setdefault((phase_of(span["op"]), op_id), []).append(span["op"])

    def value(span_name: str, agg: str, phase: str) -> float:
        index = _AGG_INDEX[agg]
        total = 0.0
        for (op_phase, _), labels in executions.items():
            if op_phase == phase:
                total += statistics.median(
                    totals.get((label, span_name), (0, 0, 0, 0))[index]
                    for label in labels
                )
        return total / 1e9 if agg in ("self", "dur") else total

    out: Dict[str, Optional[float]] = {}
    for metric, (span_name, agg, phase) in SPAN_METRICS.items():
        known = span_name in live or span_name in HARNESS_SPANS
        out[metric] = value(span_name, agg, phase) if known else None
    replays = [s for s in {s["name"] for s in spans} if _is_kernel_replay(s)]
    out["sim.kernels.cached_replay_s"] = sum(
        value(name, "self", "cached") for name in replays
    )
    roots = [s for s in spans if s["name"] == ROOT_SPAN]
    root_dur = sum(s["end"] - s["start"] for s in roots)
    out["driver.unattributed_share"] = (
        sum(selfs[s["id"]] for s in roots) / root_dur if root_dur else 0.0
    )
    return out


def write_trace(spans: List[Dict], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for span in sorted(spans, key=lambda s: s["start"]):
            fh.write(json.dumps(span) + "\n")
