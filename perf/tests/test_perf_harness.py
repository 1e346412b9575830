"""The benchmark harness's own tests (``pytest perf/tests``).

Everything runs at the ``tiny`` problem size: these tests pin the
harness's mechanics — every workload's code path, span nesting and the
self-time arithmetic, shim restoration, missing probes, the compare
verdicts, seed determinism — not any performance number.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys

import pytest

from perf import OUT, ROOT, compare, harness, load_benchmark, trace
from perf.workloads import SIZES, WORKLOADS

BENCH = load_benchmark()
END_TO_END = [m["name"] for m in BENCH["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCH["per_layer"]]


def run_tiny(name, tmp_path, seed=1, traced=True):
    workload = WORKLOADS[name](seed, SIZES["tiny"], tmp_path)
    workload.warm_up()
    workload.release()
    return harness.measure(workload, seconds=0.3, trace=traced)


def read_trace(name):
    with open(OUT / f"trace-{name}.jsonl") as fh:
        return [json.loads(line) for line in fh]


def test_benchmark_json_names_the_workloads_in_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert "setup_s" in END_TO_END
    assert set(trace.SPAN_METRICS) <= set(PER_LAYER)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_traced_and_spans_nest(name, tmp_path):
    record = run_tiny(name, tmp_path)
    assert record["failures"] == []
    assert record["attempted"] > 0 and record["failed"] == 0
    assert record["probes_missing"] == []
    # Every metric BENCHMARK.json promises, and a number for each.
    assert set(record["end_to_end"]) | {"setup_s"} == set(END_TO_END)
    assert set(record["per_layer"]) == set(PER_LAYER)
    assert all(
        isinstance(record["per_layer"][m], (int, float)) for m in PER_LAYER
    )
    assert 0.0 <= record["per_layer"]["driver.unattributed_share"] <= 1.0
    assert record["per_layer"]["sim.kernels.cached_replay_s"] == 0.0

    spans = read_trace(name)
    by_id = {s["id"]: s for s in spans}
    assert len(by_id) == len(spans)
    roots = [s for s in spans if s["name"] == trace.ROOT_SPAN]
    assert roots and all(s["parent"] == 0 for s in roots)
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"]:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
            assert span["op"] == parent["op"]
    # Self times telescope: nothing is counted twice or lost.
    selfs = trace.self_times(spans)
    for root in roots:
        family = [s for s in spans if s["op"] == root["op"]]
        in_process = all(s["id"] >> 32 == root["id"] >> 32 for s in family)
        if in_process and name != "service_sweep":
            assert sum(selfs[s["id"]] for s in family) == root["end"] - root["start"]


def test_only_an_ops_newest_execution_keeps_its_results(tmp_path):
    workload = WORKLOADS["fig_cell_framed"](1, SIZES["tiny"], tmp_path)
    workload.warm_up()
    workload.release()
    body = harness.Body(workload, seconds=0.3, trace=False)
    body.run()
    assert body.counts["U"] >= harness.MIN_PASSES
    assert body.counts["C"] >= harness.MIN_ROUNDS
    for kind in ("U", "C"):
        for runs in body.samples[kind].values():
            assert len(runs) == body.counts[kind]
            assert all(sample.results is None for _, sample in runs[:-1])
            assert runs[-1][1].results
            assert len({sample.digest for _, sample in runs}) == 1


def test_layers_separate_the_workloads(tmp_path):
    framed = run_tiny("fig_cell_framed", tmp_path / "a")["per_layer"]
    fabric = run_tiny("fabric_collective", tmp_path / "b")["per_layer"]
    assert framed["sim.kernels.pf.replay_s"] > 0
    assert framed["sim.kernels.foff.replay_s"] > 0
    assert framed["sim.kernels.sprinklers.replay_s"] == 0
    assert framed["sim.composite.self_s"] == 0
    assert fabric["sim.composite.self_s"] > 0
    assert fabric["sim.stage.windows"] > 0
    assert fabric["sim.kernels.pf.replay_s"] == 0


def test_self_time_is_duration_minus_what_children_cover():
    def span(id_, parent, start, end):
        return {"id": id_, "parent": parent, "name": "x", "op": "T1:a",
                "start": start, "end": end, "n": 0}

    spans = [
        span(1, 0, 0, 100),
        span(2, 1, 10, 40),   # overlaps its sibling: [10,60] is covered once
        span(3, 1, 30, 60),
        span(4, 2, 15, 20),
        span(5, 1, 90, 120),  # runs past its parent: clipped to [90,100]
    ]
    assert trace.self_times(spans) == {1: 40, 2: 25, 3: 30, 4: 5, 5: 30}
    assert trace.covered_ns([(5, 8), (1, 3), (2, 4)], 0, 6) == 4


def test_leave_one_out_recomputes_the_sum_of_fastest():
    per_op = {"a": [3.0, 1.0, 2.0], "b": [5.0, 6.0, 4.0]}
    assert harness._sum_of_fastest(per_op) == 5.0
    assert harness._leave_one_out(per_op) == [5.0, 6.0, 6.0]
    assert harness._leave_one_out({"a": [2.0]}) == [2.0]


def _originals():
    found = {}
    for probe in trace.PROBES:
        owner, attr, original = trace._resolve(probe.target)
        found[probe.target] = (owner, attr, original)
    return found


def test_shims_are_restored_by_identity():
    from repro import models
    from repro.sim import experiment, fast_engine

    originals = _originals()
    registered = {name: models.get(name) for name in trace.SWITCHES}
    shims = trace.install(trace.Recorder())
    try:
        assert shims.missing == []
        for owner, attr, original in originals.values():
            assert vars(owner)[attr] is not original
        assert experiment.run_single_fast is fast_engine.run_single_fast
        for name, model in registered.items():
            assert models.get(name) is not model
    finally:
        shims.restore()
    for owner, attr, original in originals.values():
        assert vars(owner)[attr] is original
    assert experiment.run_single_fast is originals[
        "repro.sim.fast_engine:run_single_fast"
    ][2]
    for name, model in registered.items():
        assert models.get(name) is model


def test_missing_probe_is_listed_and_reads_null(tmp_path, monkeypatch):
    ghosts = trace.PROBES + (
        trace.Probe("traffic.draw", "repro.traffic.batch:NoSuchClass.draw"),
        trace.Probe("sim.composite", "repro.sim.no_such_module:run_fabric"),
    )
    shims = trace.install(trace.Recorder(), ghosts, trace.SWITCHES + ("ghost",))
    shims.restore()
    assert shims.missing == [
        "repro.traffic.batch:NoSuchClass.draw",
        "repro.sim.no_such_module:run_fabric",
        "models:ghost.kernel",
        "models:ghost.stream_kernel",
    ]

    full = run_tiny("fig_cell_striped", tmp_path / "full")["per_layer"]
    # ROADMAP items 1-2 in miniature: the engine entry points are gone.
    gone = ("sim.experiment", "sim.fast_engine")
    left = tuple(
        trace.Probe(
            p.span,
            p.target + "_deleted" if p.span in gone else p.target,
            p.measure,
        )
        for p in trace.PROBES
    )
    monkeypatch.setattr(
        harness, "install", functools.partial(trace.install, probes=left)
    )
    record = run_tiny("fig_cell_striped", tmp_path / "less")
    assert record["failed"] == 0
    assert sorted(record["probes_missing"]) == sorted(
        p.target for p in left if p.span in gone
    )
    layers = record["per_layer"]
    assert layers["sim.experiment.self_s"] is None
    assert layers["sim.fast_engine.self_s"] is None
    assert layers["traffic.draw_s"] > 0
    assert layers["driver.unattributed_share"] > 10 * full["driver.unattributed_share"]


def test_compare_verdicts():
    steady = {"value": 100.0, "samples": [99.0, 100.0, 101.0, 100.0]}
    slower = {"value": 120.0, "samples": [119.0, 120.0, 121.0, 120.0]}
    noisy = {"value": 100.0, "samples": [70.0, 100.0, 130.0, 100.0]}
    faster = {"value": 50.0, "samples": [49.0, 50.0, 51.0, 50.0]}
    assert compare.verdict(steady, steady, "lower", 0.1) == "ok"
    assert compare.verdict(steady, slower, "lower", 0.1) == "regression"
    assert compare.verdict(steady, slower, "higher", 0.1) == "ok"
    assert compare.verdict(slower, steady, "higher", 0.1) == "regression"
    assert compare.verdict(steady, slower, "lower", 0.25) == "ok"
    assert compare.verdict(noisy, steady, "lower", 0.1) == "unresolved"
    assert compare.verdict(steady, noisy, "lower", 0.1) == "unresolved"
    # Too noisy to bound, but every sample of B beats every sample of A.
    assert compare.verdict(noisy, faster, "lower", 0.1) == "ok"
    assert compare.spread([1.0]) == 0.0
    assert compare.worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert compare.worsening(100.0, 90.0, "higher") == pytest.approx(0.10)


def test_compare_exits_1_on_a_regression(tmp_path, capsys):
    def output(path, wall):
        entry = {"value": wall, "samples": [wall] * 3}
        run = {
            "workload": "fig_cell_framed", "trace": 0,
            "end_to_end": {name: entry for name in END_TO_END},
        }
        path.write_text(json.dumps({"runs": [run]}))
        return str(path)

    base = output(tmp_path / "a.json", 100.0)
    same = output(tmp_path / "b.json", 104.0)
    worse = output(tmp_path / "c.json", 130.0)
    assert compare.main([base, same]) == 0
    assert compare.main([base, worse]) == 1
    assert "regression" in capsys.readouterr().out


def test_same_seed_repeats_and_another_seed_differs(tmp_path):
    first = run_tiny("replicate_short", tmp_path / "a", seed=5)
    again = run_tiny("replicate_short", tmp_path / "b", seed=5)
    other = run_tiny("replicate_short", tmp_path / "c", seed=6)
    sim = [m for m in PER_LAYER if m.startswith("sim.metrics.")]
    assert len(sim) == 4
    assert [first["per_layer"][m] for m in sim] == [again["per_layer"][m] for m in sim]
    assert first["sim_digest"] == again["sim_digest"]
    assert first["sim_digest"] != other["sim_digest"]


def test_driver_form_prints_the_result_object_last():
    done = subprocess.run(
        [sys.executable, "-m", "perf", "--workload", "fig_cell_framed",
         "--seed", "3", "--seconds", "0.3", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_no_result_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perf", tmp_path / "perf",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "-m", "perf", "--workload", "fig_cell_framed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "metrics" not in done.stdout
