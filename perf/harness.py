"""The measuring child: one workload, in its own interpreter.

``python -m perf.harness --workload W --seed S --seconds T --trace 0|1``
sets the workload up, prints ``{"ready_ns": ...}``, runs the timed body and
the checks, and prints one JSON record.  The parent (``python -m perf``)
spawns it, so peak RSS and allocator/cache state belong to the workload
alone.

Body (closed loop, one caller, one op in flight), inside ``--seconds``:

1. a warm-up pass of the op list, untimed, with ``store=`` — it pays the
   one-off allocation costs and fills the store the cached rounds read;
2. cached rounds: the same calls served from the populated store (for
   ``service_sweep``, resubmissions to a new daemon on the store the
   warm-up sweep filled), as many as fit in a fifth of ``--seconds``;
3. timed passes of the op list, all ops in pass 1, then all in pass 2, …:
   at least five, more while another fits before ``--seconds`` is up.
   With ``--trace 1`` the cached rounds are traced and the passes come in
   untraced/traced pairs (at least one, order alternating), so the tracing
   overhead is measured inside one process.

An op's time is its fastest sample and a workload's wall time the sum of
its ops' times: on a shared host the noise only ever adds time, and the
measured between-run spread of the fastest-of-five is half that of the
median-of-five (README, noise notes).  Checks run after the body, untimed.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import sys
import tempfile
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Dict, Iterator, List, Optional, Tuple

from . import OUT
from .trace import Recorder, install, layer_metrics, write_trace

MIN_PASSES = 5
MIN_ROUNDS, MAX_ROUNDS = 5, 200
#: The cached rounds stop after this share of ``--seconds``.
CACHED_SHARE = 0.2


def _usage() -> Tuple[float, float, int]:
    """user s, sys s, minor faults — self plus reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        own.ru_utime + kids.ru_utime,
        own.ru_stime + kids.ru_stime,
        own.ru_minflt + kids.ru_minflt,
    )


def _peak_rss_mb() -> float:
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def _sum_of_fastest(per_op: Dict[str, List[float]]) -> float:
    return sum(min(values) for values in per_op.values())


def _leave_one_out(per_op: Dict[str, List[float]]) -> List[float]:
    """:func:`_sum_of_fastest` with each pass left out in turn: how far the
    estimate hangs on any one pass (``perf.compare`` reads its spread)."""
    depth = min(len(values) for values in per_op.values())
    if depth < 2:  # a traced run may hold a single untraced pass
        return [_sum_of_fastest(per_op)]
    return [
        sum(min(v[:i] + v[i + 1:depth]) for v in per_op.values())
        for i in range(depth)
    ]


class Body:
    """Runs the passes and rounds of one workload and keeps every sample."""

    def __init__(self, workload, seconds: float, trace: bool) -> None:
        self.wl = workload
        self.seconds = seconds
        self.trace = trace
        self.rec = Recorder()
        self.attempted = 0
        self.failures: List[str] = []
        #: kind ("P" warm-up, "U" untraced, "T" traced, "C" cached) ->
        #: op id -> [(execution label, Sample)]
        self.samples: Dict[str, Dict[str, List]] = {}
        #: (kind, op id) -> [(user s, sys s, minor faults)] per execution
        self.usage: Dict[Tuple[str, str], List[Tuple[float, float, int]]] = {}
        self.live: set = set()
        self.missing: List[str] = []
        self.counts = {"P": 0, "U": 0, "T": 0, "C": 0}
        self.rss_mb = 0.0

    # -- executing ---------------------------------------------------------

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)

    def _execute(self, op, kind: str, index: int, store) -> None:
        label = f"{kind}{index}:{op.id}"
        before = _usage()
        self.attempted += 1
        try:
            sample = op.run(self.rec, label, store)
        except Exception:
            self.failures.append(f"{label}: {traceback.format_exc(limit=3)}")
            return
        after = _usage()
        runs = self.samples.setdefault(kind, {}).setdefault(op.id, [])
        if runs:
            runs[-1][1].results = None  # its digest and counts stay
        runs.append((label, sample))
        self.usage.setdefault((kind, op.id), []).append(
            tuple(b - a for a, b in zip(before, after))
        )

    def _run_list(self, ops: List, kind: str, store=None) -> float:
        """One pass (or round) of ``ops``; returns its elapsed seconds."""
        t0 = perf_counter()
        self.counts[kind] += 1
        for op in ops:
            self._execute(op, kind, self.counts[kind], store)
        return perf_counter() - t0

    @contextmanager
    def _traced(self) -> Iterator[None]:
        """The probe shims installed and spans kept (traced runs only)."""
        if not self.trace:
            yield
            return
        shims = install(self.rec)
        self.live |= shims.live
        self.missing = shims.missing
        self.rec.enabled = True
        try:
            yield
        finally:
            self.rec.enabled = False
            shims.restore()

    def run(self) -> None:
        start = perf_counter()
        deadline = start + self.seconds
        store = self.wl.store()
        longest = self._run_list(self.wl.ops, "P", store)
        # Taken here, after one pass of the op list, because the
        # high-water mark creeps up with every further pass (allocator
        # fragmentation) and the number of passes depends on the host.
        self.rss_mb = _peak_rss_mb()
        with self.wl.cached() as ops, self._traced():
            cached_end = perf_counter() + CACHED_SHARE * self.seconds
            while self.counts["C"] < MIN_ROUNDS or (
                self.counts["C"] < MAX_ROUNDS and perf_counter() < cached_end
            ):
                self._run_list(ops, "C", store)
        if self.trace:
            pairs = 0
            while pairs < 1 or perf_counter() + 2 * longest <= deadline:
                for kind in ("UT", "TU")[pairs % 2]:
                    with self._traced() if kind == "T" else nullcontext():
                        longest = max(longest, self._run_list(self.wl.ops, kind))
                pairs += 1
        else:
            while (
                self.counts["U"] < MIN_PASSES
                or perf_counter() + longest <= deadline
            ):
                longest = max(longest, self._run_list(self.wl.ops, "U"))

    # -- reading -----------------------------------------------------------

    def walls(self, kind: str) -> Dict[str, List[float]]:
        return {
            op_id: [sample.wall_ns / 1e9 for _, sample in runs]
            for op_id, runs in self.samples.get(kind, {}).items()
        }

    def last(self, kind: str) -> Dict[str, object]:
        return {
            op_id: runs[-1][1]
            for op_id, runs in self.samples.get(kind, {}).items()
        }

    def leanest(self, kind: str) -> Dict[str, Tuple[float, float, int]]:
        """Per op, the ``(user s, sys s, minor faults)`` of the execution
        that took the least CPU time."""
        return {
            op_id: min(rows, key=lambda row: row[0] + row[1])
            for (k, op_id), rows in self.usage.items()
            if k == kind
        }


def _result_ok(result: Optional[Dict], ordered: bool) -> bool:
    if result is None:
        return False
    if ordered and (result["late_packets"] or result["max_displacement"]):
        return False
    return (
        result["departed"] <= result["injected"]
        and result["measured_packets"] > 0
        and math.isfinite(result["mean_delay"])
    )


def run_checks(body: Body) -> str:
    """Every correctness check; returns the workload's ``sim_digest``."""
    from repro.sim.experiment import run_single

    from .workloads import digest

    wl = body.wl
    by_op: Dict[str, set] = {}
    for kind_samples in body.samples.values():
        for op_id, runs in kind_samples.items():
            by_op.setdefault(op_id, set()).update(
                sample.digest for _, sample in runs
            )
    for op_id, digests in sorted(by_op.items()):
        body.check(f"{op_id}: same digest on every execution", len(digests) == 1)
    ordered = {op.id: op.ordered for op in wl.ops}
    last = {**body.last("P"), **body.last("U")}
    for op_id, sample in sorted(last.items()):
        body.check(
            f"{op_id}: ordering, conservation, finite delay",
            all(_result_ok(r, ordered[op_id]) for r in sample.results)
            and not sample.info.get("failed_shards"),
        )
    for op_id, runs in body.samples.get("C", {}).items():
        body.check(
            f"{op_id}: every cached round served from the store",
            all(
                s.info.get("hits") == s.cells and not s.info.get("failed_shards")
                for _, s in runs
            ),
        )
    for cell in wl.parity:
        on_object = run_single(engine="object", **cell).to_dict()
        on_arrays = run_single(engine="vectorized", **cell).to_dict()
        body.check(
            f"{cell['switch_name']}: object == vectorized",
            json.dumps(on_object, sort_keys=True)
            == json.dumps(on_arrays, sort_keys=True),
        )
    for label, ok in wl.extra_checks(last):
        body.check(label, ok)
    return digest(sorted([op_id, sorted(d)] for op_id, d in by_op.items()))


def _headline(body: Body) -> Dict:
    op_id, switch, load = body.wl.headline
    sample = body.last("U").get(op_id) or body.last("P").get(op_id)
    for result in (sample.results if sample else []):
        if result and result["switch_name"] == switch and result["load"] == load:
            return result
    return {}


def build_record(body: Body, check_s: float, sim_digest: str) -> Dict:
    wl = body.wl
    walls, cached = body.walls("U"), body.walls("C")
    last = body.last("U")
    wall_s = _sum_of_fastest(walls)
    packets = sum(s.injected for s in last.values())
    cells = sum(s.cells for s in body.last("C").values())
    cpu = {
        op_id: [u + s for u, s, _ in body.usage[("U", op_id)]] for op_id in walls
    }
    # ``samples``: the metric with each pass (or cached round) left out.
    end_to_end = {
        "packets_per_s": {
            "value": packets / wall_s,
            "samples": [packets / w for w in _leave_one_out(walls)],
        },
        "cpu_s": {
            "value": _sum_of_fastest(cpu),
            "samples": _leave_one_out(cpu),
        },
        "peak_rss_mb": {"value": body.rss_mb, "samples": [body.rss_mb]},
        "cached_cells_per_s": {
            "value": cells / _sum_of_fastest(cached),
            "samples": [cells / w for w in _leave_one_out(cached)],
        },
    }
    layers: Dict[str, Optional[float]] = {}
    if body.trace:
        spans = body.rec.spans
        layers.update(layer_metrics(spans, body.live))
        layers.update(wl.layer_extras(spans, body.samples))
        layers["driver.trace_overhead_share"] = (
            _sum_of_fastest(body.walls("T")) / wall_s - 1.0
        )
        layers["store.bytes_on_disk"] = float(_store_bytes(wl))
        write_trace(spans, OUT / f"trace-{wl.name}.jsonl")
    head = _headline(body)
    leanest = body.leanest("U").values()
    layers.update({
        "sim.metrics.mean_delay_slots": head.get("mean_delay"),
        "sim.metrics.p99_delay_slots": head.get("p99_delay"),
        "sim.metrics.late_packets": head.get("late_packets"),
        "sim.metrics.packets": head.get("measured_packets"),
        "host.cpu_user_s": sum(row[0] for row in leanest),
        "host.cpu_sys_s": sum(row[1] for row in leanest),
        "host.minor_faults": sum(row[2] for row in leanest),
        "driver.check_s": check_s,
    })
    return {
        "workload": wl.name,
        "seed": wl.seed,
        "trace": int(body.trace),
        "seconds": body.seconds,
        "env": _library_env(),
        "passes": dict(body.counts),
        "wall_s": wall_s,
        "ops": [
            {
                "id": op_id, "wall_s": walls[op_id], "cpu_s": cpu[op_id],
                "injected": last[op_id].injected, "cells": last[op_id].cells,
            }
            for op_id in walls
        ],
        "end_to_end": end_to_end,
        "per_layer": layers,
        "probes_missing": body.missing,
        "attempted": body.attempted,
        "failed": len(body.failures),
        "failures": body.failures,
        "sim_digest": sim_digest,
    }


def _library_env() -> Dict:
    import numpy

    from repro.sim.kernels.compiled import compiled_available, get_kernel_backend

    return {
        "numpy": numpy.__version__,
        "numba": compiled_available(),
        "kernel_backend": get_kernel_backend(),
    }


def _store_bytes(workload) -> int:
    from repro.store import ExperimentStore

    return ExperimentStore(workload.store_dir()).stats().total_bytes


def measure(workload, seconds: float, trace: bool) -> Dict:
    """Body, then checks, then the record (in-process; tests call this)."""
    body = Body(workload, seconds, trace)
    body.run()
    t0 = perf_counter()
    sim_digest = run_checks(body)
    return build_record(body, perf_counter() - t0, sim_digest)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf.harness")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from .workloads import SIZES, WORKLOADS

    OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="scratch-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](args.seed, SIZES[args.size], scratch)
        workload.warm_up()
        print(json.dumps({"ready_ns": perf_counter_ns()}), flush=True)
        workload.release()
        if not args.setup_only:
            print(json.dumps(measure(workload, args.seconds, bool(args.trace))))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
