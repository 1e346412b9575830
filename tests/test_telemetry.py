"""The telemetry layer: instruments, probes, parity, and the CLI surface.

The two non-negotiable properties:

* **Off by default, truly off.** No run result, store key, or RNG draw
  may change because of a probe; disabled probes return shared no-op
  handles and record nothing.
* **On means observable.** An enabled streamed/fabric run yields a JSONL
  trace whose spans nest correctly and whose per-stage child spans
  telescope to the replay total (``check_trace`` — the same gate the CI
  smoke job runs), plus a metrics snapshot carrying every probe family.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import telemetry
from repro.cli import main
from repro.service import JobRequest, run_sweep
from repro.sim.experiment import plan_run, run_single
from repro.store import ExperimentStore
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.spans import (
    Tracer,
    check_trace,
    diff_traces,
    read_trace,
    summarize_trace,
    validate_nesting,
)
from repro.traffic.matrices import uniform_matrix


class TestSwitch:
    def test_disabled_by_default(self):
        assert not telemetry.enabled()

    def test_scope_enables_and_restores(self):
        assert not telemetry.enabled()
        with telemetry.scope() as tel:
            assert telemetry.enabled()
            assert tel is telemetry.state()
        assert not telemetry.enabled()

    def test_scope_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with telemetry.scope():
                raise RuntimeError("boom")
        assert not telemetry.enabled()

    def test_enable_fresh_drops_prior_instruments(self):
        with telemetry.scope() as tel:
            telemetry.count("stale.counter")
            telemetry.enable(fresh=True)
            assert telemetry.state().registry.get("stale.counter") is None
            assert telemetry.state() is tel  # same state, fresh instruments

    def test_env_parsing(self):
        assert telemetry.enabled_from_env({"REPRO_TELEMETRY": "1"})
        assert telemetry.enabled_from_env({"REPRO_TELEMETRY": "On"})
        assert not telemetry.enabled_from_env({"REPRO_TELEMETRY": "0"})
        assert not telemetry.enabled_from_env({})
        assert telemetry.memory_from_env({"REPRO_TELEMETRY_MEM": "yes"})


class TestInstruments:
    def test_counter(self):
        c = Counter("c")
        c.add()
        c.add(4)
        assert c.value == 5
        assert c.snapshot() == {"type": "counter", "value": 5}

    def test_gauge_tracks_extrema(self):
        g = Gauge("g")
        for v in (3.0, -1.0, 7.0):
            g.set(v)
        snap = g.snapshot()
        assert snap["value"] == 7.0
        assert snap["max"] == 7.0
        assert snap["min"] == -1.0
        assert snap["updates"] == 3

    def test_histogram_streaming_moments(self):
        import statistics

        h = Histogram("h")
        values = [1.0, 2.0, 3.0, 4.0, 10.0]
        for v in values:
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(sum(values))
        assert snap["mean"] == pytest.approx(statistics.mean(values))
        assert snap["std"] == pytest.approx(statistics.stdev(values))
        assert snap["min"] == 1.0 and snap["max"] == 10.0

    def test_registry_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.histogram("x")
        assert reg.names() == ["x"]

    def test_disabled_probes_record_nothing(self):
        assert not telemetry.enabled()
        telemetry.count("ghost.counter")
        telemetry.observe("ghost.hist", 1.0)
        telemetry.set_gauge("ghost.gauge", 1.0)
        assert telemetry.state().registry.get("ghost.counter") is None
        assert telemetry.state().registry.get("ghost.hist") is None
        assert telemetry.state().registry.get("ghost.gauge") is None


class TestSpans:
    def test_disabled_trace_is_shared_null_handle(self):
        assert not telemetry.enabled()
        handle = telemetry.trace("x")
        assert handle is telemetry.trace("y")
        assert handle.span is None
        handle.set(k=1)  # no-op, no error
        with handle:
            pass

    def test_disabled_traced_iter_returns_untouched(self):
        items = [1, 2, 3]
        assert list(telemetry.traced_iter("x", items)) == items

    def test_nesting_and_late_attrs(self):
        tracer = Tracer()
        with tracer.span("outer", a=1):
            with tracer.span("inner") as inner:
                inner.set(b=2)
        spans = tracer.spans
        assert [s.name for s in spans] == ["inner", "outer"]  # completion order
        inner, outer = spans
        assert inner.parent == outer.id
        assert inner.depth == 1 and outer.depth == 0
        assert inner.attrs == {"b": 2}
        assert outer.attrs == {"a": 1}
        assert 0 <= inner.dur_s <= outer.dur_s

    def test_export_read_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with telemetry.scope():
            with telemetry.trace("root", note="hi"):
                with telemetry.trace("child"):
                    telemetry.count("events", 3)
            assert telemetry.export_jsonl(path) == 2
        trace = read_trace(path)
        assert trace["meta"]["spans"] == 2
        assert validate_nesting(trace["spans"]) == []
        assert trace["metrics"]["events"]["value"] == 3
        summary = summarize_trace(trace)
        assert summary["by_name"]["root"]["count"] == 1
        assert [r["name"] for r in summary["roots"]] == ["root"]

    def test_read_trace_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(ValueError):
            read_trace(bad)
        headless = tmp_path / "headless.jsonl"
        headless.write_text('{"record": "span", "id": 0}\n')
        with pytest.raises(ValueError):
            read_trace(headless)

    def test_non_json_attrs_survive_export(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with telemetry.scope():
            with telemetry.trace("root", where=tmp_path):  # a Path attr
                pass
            telemetry.export_jsonl(path)
        (span,) = read_trace(path)["spans"]
        assert span["attrs"]["where"] == str(tmp_path)

    def test_diff_traces(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path, names in ((a, ["x"]), (b, ["x", "y"])):
            with telemetry.scope():
                for name in names:
                    with telemetry.trace(name):
                        pass
                telemetry.export_jsonl(path)
        rows = {r["name"]: r for r in diff_traces(read_trace(a), read_trace(b))}
        assert rows["y"]["a_total_s"] == 0.0
        assert rows["y"]["ratio"] is None
        assert rows["x"]["ratio"] is not None

    def test_check_trace_flags_broken_nesting(self):
        trace = {
            "meta": {},
            "metrics": None,
            "spans": [
                {
                    "record": "span", "id": 0, "parent": None, "depth": 0,
                    "name": "root", "start_s": 0.0, "dur_s": 1.0, "attrs": {},
                },
                # Child claims more time than its parent has.
                {
                    "record": "span", "id": 1, "parent": 0, "depth": 1,
                    "name": "child", "start_s": 0.0, "dur_s": 2.0, "attrs": {},
                },
            ],
        }
        problems = check_trace(trace)
        assert any("exceeds parent" in p for p in problems)
        assert any("ends after its parent" in p for p in problems)


    def test_check_trace_gates_the_named_spans(self):
        def span(span_id, parent, name, dur):
            return {
                "record": "span", "id": span_id, "parent": parent,
                "depth": span_id, "name": name,
                "start_s": 0.0, "dur_s": dur, "attrs": {},
            }

        trace = {
            "meta": {},
            "metrics": None,
            "spans": [
                span(0, None, "replay.fabric", 1.0),
                span(1, 0, "fabric.window", 0.99),
                span(2, 1, "stage.feed", 0.5),  # half the window unspanned
            ],
        }
        assert check_trace(trace) == []
        problems = check_trace(trace, covered_names=("fabric.window",))
        assert len(problems) == 1 and "fabric.window" in problems[0]


class TestRunProbes:
    """The wired probes: every family fires on an enabled run."""

    def test_streamed_run_trace_telescopes(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with telemetry.scope() as tel:
            run_single(
                "sprinklers",
                uniform_matrix(8, 0.6),
                4000,
                seed=1,
                engine="vectorized",
                window_slots=500,
            )
            telemetry.export_jsonl(path)
            windows = tel.registry.counter("replay.windows").value
        trace = read_trace(path)
        # The CI gate, slightly loosened: tiny windows make the fixed
        # per-window Python overhead a visible fraction of the span.
        assert check_trace(trace, coverage=0.75) == []
        assert windows == 8
        names = {s["name"] for s in trace["spans"]}
        assert {
            "run.single", "replay.stream", "replay.window",
            "traffic.draw", "replay.finish", "stage.feed",
        } <= names
        metrics = trace["metrics"]
        assert metrics["replay.window.slots_per_s"]["count"] == 8
        assert metrics["replay.window.packets_per_s"]["count"] == 8

    def test_fabric_run_trace_and_stage_labels(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with telemetry.scope() as tel:
            run_single(
                "leaf-spine",
                uniform_matrix(8, 0.6),
                4000,
                seed=1,
                engine="vectorized",
                window_slots=500,
            )
            telemetry.export_jsonl(path)
            names = tel.registry.names()
        trace = read_trace(path)
        assert check_trace(trace, coverage=0.75) == []
        span_names = {s["name"] for s in trace["spans"]}
        assert {
            "run.fabric", "replay.fabric", "fabric.window",
            "fabric.couple", "fabric.join", "fabric.fold", "fabric.finish",
            "stage.feed",
        } <= span_names
        # One level below the replay span: a window is its stage feeds,
        # link coupling/joining and metric folds, nothing unspanned.
        assert check_trace(
            trace, coverage=0.75, covered_names=("fabric.window",)
        ) == []
        # Per-stage labels carry position + switch name.
        assert "stage.feed_s.stage0.sprinklers" in names
        assert "stage.feed_s.stage1.output-queued" in names
        assert "fabric.in_flight.stage1" in names
        # Per-stage feed spans telescope into the fabric windows: the
        # feeds must not exceed their windows' total.
        by_name = summarize_trace(trace)["by_name"]
        assert (
            by_name["stage.feed"]["total_s"]
            <= by_name["fabric.window"]["total_s"] * 1.001
        )

    def test_frame_kernel_counters(self):
        with telemetry.scope() as tel:
            run_single(
                "pf",
                uniform_matrix(8, 0.7),
                2000,
                seed=0,
                engine="vectorized",
            )
            lane = tel.registry.get("kernel.frames.lane_advances")
            jumps = tel.registry.get("kernel.frames.cursor_jumps")
        assert lane is not None and lane.value > 0
        assert jumps is not None and jumps.value >= 0

    def test_store_metrics(self, tmp_path):
        store = ExperimentStore(tmp_path)
        with telemetry.scope() as tel:
            run_single("ufs", uniform_matrix(4, 0.5), 300, store=store)
            assert tel.registry.counter("store.miss").value == 1
            assert tel.registry.counter("store.save").value == 1
            run_single("ufs", uniform_matrix(4, 0.5), 300, store=store)
            assert tel.registry.counter("store.hit").value == 1
            assert tel.registry.histogram("store.fetch_s").count == 1

    def test_sweep_pool_telemetry(self):
        from repro.service import JobRequest, run_sweep

        request = JobRequest(
            "uniform", ("ufs",), (0.5,), n=4, num_slots=300, seeds=(0, 1, 2)
        )
        with telemetry.scope() as tel:
            results = run_sweep(request, workers=2)
            shard_s = tel.registry.histogram("service.shard_s").count
            shard_spans = tel.tracer.find("service.shard")
            job_spans = tel.tracer.find("service.job")
        assert len(results) == 3
        assert shard_s == 3
        assert sorted(span.attrs["seed"] for span in shard_spans) == [0, 1, 2]
        assert all(span.attrs["wall_s"] > 0 for span in shard_spans)
        assert len(job_spans) == 1
        assert job_spans[0].attrs["shards"] == 3
        assert job_spans[0].attrs["failed"] == 0

    def test_replicate_span(self):
        from repro.sim.replication import replicate

        with telemetry.scope() as tel:
            replicate(
                "sprinklers",
                uniform_matrix(4, 0.5),
                400,
                replications=2,
                engine="vectorized",
            )
            (span,) = tel.tracer.find("run.replicate")
        assert span.attrs["engine"] == "vectorized"
        assert span.attrs["replications"] == 2

    def test_sweep_span_and_capture_extras(self):
        """A pooled sweep's worker captures come back with the stored
        result; the parent records the job span."""
        request = JobRequest(
            workload="uniform", switches=("ufs",), loads=(0.5,), n=4,
            num_slots=300, engine="object",
        )
        with telemetry.scope():
            results = run_sweep(request, workers=1)
            (job_span,) = telemetry.state().tracer.find("service.job")
        (result,) = results
        payload = result.extras["telemetry"]
        assert payload["span"] == "run.single"
        assert payload["wall_s"] > 0
        assert "metrics" in payload
        assert job_span.attrs["shards"] == 1

    def test_capture_memory_payload(self):
        with telemetry.scope(memory=True):
            result = run_single("ufs", uniform_matrix(4, 0.5), 300)
        payload = result.extras["telemetry"]
        assert payload["peak_rss_bytes"] > 0
        assert payload["tracemalloc_peak_bytes"] > 0
        # as_row stays flat: the nested payload never leaks into tables.
        assert "telemetry" not in result.as_row()

    def test_memory_capture_keeps_an_outer_tracemalloc_peak(self):
        """A memory-telemetry run inside someone else's tracemalloc
        bracket leaves that bracket's peak alone (it used to reset it)."""
        import tracemalloc

        import numpy as np

        tracemalloc.start()
        try:
            block = np.ones(4 << 20)  # 32 MiB, far above the run's peak
            del block
            _, before = tracemalloc.get_traced_memory()
            with telemetry.scope(memory=True):
                result = run_single("ufs", uniform_matrix(4, 0.5), 300)
            _, after = tracemalloc.get_traced_memory()
            assert tracemalloc.is_tracing()  # the outer trace still runs
        finally:
            tracemalloc.stop()
        assert after >= before >= 32 << 20
        payload = result.extras["telemetry"]
        assert "tracemalloc_peak_bytes" not in payload
        assert payload["peak_rss_bytes"] > 0


class TestParity:
    """Telemetry observes; it must never change what runs compute."""

    def test_grid_bit_identical_and_extras_clean(self):
        request = JobRequest(
            workload="uniform", switches=("sprinklers", "ufs"),
            loads=(0.4, 0.8), n=4, num_slots=400, engine="vectorized",
        )
        baseline = run_sweep(request, workers=2)
        with telemetry.scope():
            observed = run_sweep(request, workers=2)
        assert len(baseline) == len(observed)
        for base, obs in zip(baseline, observed):
            base_dict, obs_dict = base.to_dict(), obs.to_dict()
            assert obs_dict["extras"].pop("telemetry", None) is not None
            assert base_dict == obs_dict
            # Disabled runs must not carry the reserved extras key at all.
            assert "telemetry" not in base.extras

    def test_store_keys_unchanged(self):
        key_disabled = plan_run(
            "sprinklers", uniform_matrix(4, 0.5), 400, 0, 0.5,
            0.1, False, "vectorized",
        ).key
        with telemetry.scope():
            key_enabled = plan_run(
                "sprinklers", uniform_matrix(4, 0.5), 400, 0, 0.5,
                0.1, False, "vectorized",
            ).key
        assert key_enabled == key_disabled

    def test_hits_serve_identical_results_under_telemetry(self, tmp_path):
        store = ExperimentStore(tmp_path)
        cold = run_single(
            "ufs", uniform_matrix(4, 0.5), 300, load_label=0.5, store=store
        )
        with telemetry.scope():
            warm = run_single(
                "ufs", uniform_matrix(4, 0.5), 300, load_label=0.5,
                store=store,
            )
        assert store.hits == 1
        warm_dict = warm.to_dict()
        warm_dict["extras"].pop("telemetry", None)
        assert warm_dict == cold.to_dict()

    def test_env_enabled_subprocess_bit_identical(self):
        """REPRO_TELEMETRY=1 vs unset across real process boundaries."""
        script = (
            "import json, sys\n"
            "from repro.sim.experiment import run_single\n"
            "from repro.traffic.matrices import uniform_matrix\n"
            "r = run_single('sprinklers', uniform_matrix(4, 0.6), 500,\n"
            "               seed=3, engine='vectorized')\n"
            "d = r.to_dict()\n"
            "d['extras'].pop('telemetry', None)\n"
            "print(json.dumps(d, sort_keys=True))\n"
        )

        # pyproject's ``pythonpath`` reaches this process only: hand the
        # child the package directory itself.
        src = str(Path(telemetry.__file__).resolve().parents[2])

        def run(env_value):
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                [src] + [p for p in [env.get("PYTHONPATH")] if p]
            )
            env.pop("REPRO_TELEMETRY", None)
            if env_value is not None:
                env["REPRO_TELEMETRY"] = env_value
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            )
            return proc.stdout

        assert run("1") == run(None)


class TestCli:
    def test_trace_flag_writes_valid_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        code = main(
            [
                "fabrics", "run", "--fabric", "leaf-spine", "--n", "8",
                "--slots", "2000", "--no-store", "--trace", str(path),
            ]
        )
        assert code == 0
        trace = read_trace(path)
        assert validate_nesting(trace["spans"]) == []
        assert {s["name"] for s in trace["spans"]} >= {"run.fabric"}
        assert not telemetry.enabled()  # scope restored after the command

    def test_telemetry_summarize_and_check(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        main(
            [
                "scenarios", "run", "--scenario", "paper-uniform",
                "--n", "4", "--slots", "400", "--no-store",
                "--trace", str(path),
            ]
        )
        capsys.readouterr()
        assert main(["telemetry", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "run.single" in out
        assert "replay.monolithic" in out
        assert "metrics" in out
        assert main(["telemetry", "check", str(path)]) == 0
        assert "OK" in capsys.readouterr().out
        # --span moves the coverage gate to the named spans: run.single's
        # children can never cover 100.1 % of it.
        gate = ["--span", "run.single", "--coverage", "1.001"]
        assert main(["telemetry", "check", str(path), *gate]) == 1
        assert "run.single" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["summarize", "check", "diff"])
    def test_telemetry_unreadable_trace_exits_2(self, tmp_path, capsys, command):
        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text("not a trace\n")
        for bad in (tmp_path / "missing.jsonl", tmp_path, garbage):
            paths = [str(bad)] * (2 if command == "diff" else 1)
            assert main(["telemetry", command, *paths]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1
            assert "cannot read trace" in captured.err

    def test_telemetry_check_fails_on_broken_trace(self, tmp_path, capsys):
        path = tmp_path / "broken.jsonl"
        path.write_text(
            json.dumps({"record": "meta", "format": 1, "spans": 1}) + "\n"
            + json.dumps(
                {
                    "record": "span", "id": 0, "parent": 17, "depth": 3,
                    "name": "orphan", "start_s": 0.0, "dur_s": 1.0,
                    "attrs": {},
                }
            )
            + "\n"
        )
        assert main(["telemetry", "check", str(path)]) == 1
        assert "problem" in capsys.readouterr().out

    def test_telemetry_diff(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            main(
                [
                    "scenarios", "run", "--scenario", "paper-uniform",
                    "--n", "4", "--slots", "300", "--no-store",
                    "--trace", str(path),
                ]
            )
        capsys.readouterr()
        assert main(["telemetry", "diff", str(a), str(b)]) == 0
        assert "run.single" in capsys.readouterr().out

    def test_verbose_flag_accepted(self, capsys):
        assert main(["-v", "bounds", "--rho", "0.9", "--n", "64"]) == 0
