"""The experiment store: keys, round-trip fidelity, zero recomputation.

The acceptance bar is the sweep test: re-running an identical sweep with
the store enabled performs *zero* simulation recomputation — pinned by
counting calls into the (monkeypatched) execution layer, and for pooled
sweeps by counting the store's saves and failing any worker start.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import sqlite3
import time
from collections import Counter

import pytest

import repro.sim.experiment as experiment
from repro.service import JobRequest, WorkerPool, run_sweep
from repro.sim.experiment import plan_run, run_single
from repro.sim.metrics import SimulationResult
from repro.sim.replication import replicate
from repro.scenarios import get_scenario
from repro.store import (
    ExperimentStore,
    cache_key,
    canonical_params,
    coerce_store,
    store_dir,
)
from repro.traffic.matrices import uniform_matrix

from tests.test_scenarios import assert_results_identical


@pytest.fixture()
def store(tmp_path):
    return ExperimentStore(tmp_path / "store")


def set_mtimes(store, mtimes):
    """Backdate stored objects: ``mtimes`` maps key -> save time."""
    with sqlite3.connect(store.db_path) as conn:
        conn.executemany(
            "UPDATE objects SET mtime = ? WHERE key = ?",
            [(mtime, key) for key, mtime in mtimes.items()],
        )


def object_sizes(store):
    """``{key: payload bytes}`` of every stored object, by save time."""
    with sqlite3.connect(store.db_path) as conn:
        return dict(
            conn.execute("SELECT key, size FROM objects ORDER BY mtime")
        )


def params_for(**overrides):
    base = dict(
        switch_name="ufs",
        matrix=uniform_matrix(4, 0.5),
        num_slots=500,
        seed=0,
        load_label=0.5,
        warmup_fraction=0.1,
        keep_samples=True,
        engine="object",
    )
    base.update(overrides)
    return plan_run(**base).store_params()


class TestCacheKeys:
    def test_deterministic(self):
        assert cache_key(params_for()) == cache_key(params_for())

    def test_every_axis_changes_the_key(self):
        base = cache_key(params_for())
        assert cache_key(params_for(seed=1)) != base
        assert cache_key(params_for(num_slots=600)) != base
        assert cache_key(params_for(switch_name="sprinklers")) != base
        assert cache_key(params_for(keep_samples=False)) != base
        assert (
            cache_key(params_for(matrix=uniform_matrix(4, 0.6))) != base
        )

    def test_engine_is_not_an_axis(self):
        """Both engines compute the same result, so they share one key:
        an object-engine run is a cache hit for a vectorized one."""
        assert params_for(engine="vectorized") == params_for()
        assert params_for(engine=None) == params_for()
        assert "engine" not in params_for()

    def test_scenario_workload_identity(self):
        spec = get_scenario("paper-uniform")
        with_spec = params_for(matrix=None, scenario=spec, n=4, load=0.5)
        assert with_spec["workload"] == {"scenario": spec.to_dict()}
        assert cache_key(with_spec) != cache_key(params_for())

    def test_nan_load_label_is_stable(self):
        a = cache_key(params_for(load_label=float("nan")))
        b = cache_key(params_for(load_label=float("nan")))
        assert a == b


class TestRoundTrip:
    def test_result_survives_store(self, store):
        first = run_single(
            "sprinklers",
            uniform_matrix(8, 0.7),
            1000,
            seed=2,
            load_label=0.7,
            store=store,
        )
        assert store.hits == 0 and store.misses == 1
        again = run_single(
            "sprinklers",
            uniform_matrix(8, 0.7),
            1000,
            seed=2,
            load_label=0.7,
            store=store,
        )
        assert store.hits == 1
        assert_results_identical(first, again)
        # samples survive, so order-sensitive statistics still work
        assert again.delay_ci().mean == first.delay_ci().mean

    def test_to_dict_from_dict_lossless(self):
        result = run_single("ufs", uniform_matrix(4, 0.6), 600, seed=1)
        clone = SimulationResult.from_dict(result.to_dict())
        assert_results_identical(result, clone)
        assert clone.is_ordered == result.is_ordered
        assert clone.throughput == result.throughput

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda text: "not json",
            lambda text: b"not gzip at all",
            lambda text: text[:-8],
            lambda text: '{"params": {}}',
        ],
        ids=["not-json", "binary", "truncated", "wrong-shape"],
    )
    def test_corrupt_sqlite_payload_is_a_miss(self, tmp_path, corrupt):
        # A corrupt, partially copied or wrong-shaped payload reads as a
        # miss, and the recomputation overwrites it.
        store = ExperimentStore(tmp_path)
        expected = run_single("ufs", uniform_matrix(4, 0.5), 300, store=store)
        with sqlite3.connect(store.db_path) as conn:
            (text,) = conn.execute("SELECT payload FROM objects").fetchone()
            conn.execute("UPDATE objects SET payload = ?", (corrupt(text),))
        result = run_single("ufs", uniform_matrix(4, 0.5), 300, store=store)
        assert store.hits == 0
        assert result.measured_packets > 0
        assert result.mean_delay == expected.mean_delay
        run_single("ufs", uniform_matrix(4, 0.5), 300, store=store)
        assert store.hits == 1 and len(store) == 1

    def test_manifest_lines_appended(self, tmp_path):
        store = ExperimentStore(tmp_path)
        run_single(
            "ufs",
            scenario="paper-uniform",
            n=4,
            load=0.5,
            num_slots=300,
            store=store,
        )
        (record,) = store.manifest_records()
        assert record["scenario"] == "paper-uniform"

    def test_read_only_manifest_still_serves_hits(self, tmp_path, caplog):
        # A shared/read-only store must keep serving hits even when the
        # best-effort hit log cannot be appended — and must say so once
        # at DEBUG instead of swallowing every failure silently.
        # (chmod is bypassed by root, so a trigger makes the hit insert
        # fail instead.)
        store = ExperimentStore(tmp_path)
        expected = run_single("ufs", uniform_matrix(4, 0.5), 300, store=store)
        with sqlite3.connect(store.db_path) as conn:
            conn.execute(
                "CREATE TRIGGER read_only BEFORE INSERT ON manifest "
                "BEGIN SELECT RAISE(ABORT, 'read-only manifest'); END"
            )
        with caplog.at_level("DEBUG", logger="repro"):
            for _ in range(3):
                hit = run_single(
                    "ufs", uniform_matrix(4, 0.5), 300, store=store
                )
                assert hit.mean_delay == expected.mean_delay
        assert store.hits == 3
        assert store.stats().hits == 0  # no hit was logged
        debug_records = [
            r for r in caplog.records
            if "hit logging disabled" in r.getMessage()
        ]
        assert len(debug_records) == 1  # logged once, not per hit
        assert debug_records[0].levelname == "DEBUG"

    def test_coerce_store(self, tmp_path):
        assert coerce_store(None) is None
        store = coerce_store(tmp_path / "s")
        assert isinstance(store, ExperimentStore)
        assert coerce_store(store) is store

    def test_sqlite_prefix_coerce(self, tmp_path):
        # The prefix names the one layout; it is stripped, so the store
        # flattens back to its bare directory.
        store = coerce_store(f"sqlite:{tmp_path / 's'}")
        assert isinstance(store, ExperimentStore)
        assert store_dir(store) == str(tmp_path / "s")
        assert store.db_path == tmp_path / "s" / "store.sqlite"

    def test_store_reopens_by_bare_path(self, tmp_path):
        # store_dir() flattens stores to a path for pool workers; the
        # path alone reopens the same database.
        store = ExperimentStore(tmp_path)
        expected = run_single("ufs", uniform_matrix(4, 0.5), 300, store=store)
        reopened = ExperimentStore(store_dir(store))
        again = run_single("ufs", uniform_matrix(4, 0.5), 300, store=reopened)
        assert reopened.hits == 1
        assert_results_identical(expected, again)

    @pytest.mark.parametrize("keep_samples", [True, False])
    def test_result_dict_is_the_stored_dict(self, store, keep_samples):
        result = run_single(
            "ufs", uniform_matrix(4, 0.5), 300, load_label=0.5,
            keep_samples=keep_samples, store=store,
        )
        key = cache_key(params_for(num_slots=300, keep_samples=keep_samples))
        assert store.result_dict(key) == result.to_dict(
            include_samples=keep_samples
        )
        assert ("delay_samples" in store.result_dict(key)) is keep_samples
        assert store.result_dict("0" * 64) is None

    @pytest.mark.parametrize("keep_samples", [True, False])
    def test_result_text_is_the_stored_text(self, store, keep_samples):
        # A result without samples comes back as the very text save
        # wrote; one with samples comes back decoded, samples and all.
        result = run_single(
            "ufs", uniform_matrix(4, 0.5), 300, load_label=0.5,
            keep_samples=keep_samples, store=store,
        )
        key = cache_key(params_for(num_slots=300, keep_samples=keep_samples))
        if keep_samples:
            assert store.result_text(key) == result.to_dict()
        else:
            assert store.result_text(key) == canonical_params(
                result.to_dict(include_samples=False)
            )
        assert store.result_text("0" * 64) is None

    @pytest.mark.parametrize(
        "payload, expected",
        [
            ('{"params":{"a":"\\"\\u00e9","b":1.50e3},"result":{"x":1}}',
             '{"x":1}'),
            ('{"params": {}, "result": {"x": 1}}', {"x": 1}),
            ('{"params":{},"result":{"x":1},"z":2}', {"x": 1}),
            ('{"params":{},"result":{"x":1},"result":{"x":2}}', {"x": 2}),
            ('{"params":{"result":{}},"result":{"x":1},"params":{}}',
             {"x": 1}),
            ('{"params":"{}","result":{"x":1}}', {"x": 1}),
            ('{"params":{},"result":{"x":1,"delay_samples":[2]}}',
             {"x": 1, "delay_samples": [2]}),
            ('{"params":{},"result":[1]}', None),
            ("not json", None),
            (b'{"params":{},"result":{"x":1}}', {"x": 1}),
        ],
        ids=[
            "escapes-in-params", "whitespace", "third-member",
            "repeated-result", "repeated-params", "params-not-object",
            "samples", "result-not-object", "not-json", "blob",
        ],
    )
    def test_result_text_only_for_the_two_member_shape(
        self, store, payload, expected
    ):
        # Text is handed out only for exactly {"params": P, "result": R}
        # with no samples; every other payload reads as result_dict does.
        with sqlite3.connect(store.db_path) as conn:
            conn.execute(
                "INSERT INTO objects VALUES (?, ?, 0, 0)", ("k", payload)
            )
        assert store.result_text("k") == expected
        if not isinstance(expected, str):
            assert store.result_dict("k") == expected

    def test_a_nan_result_is_decoded_not_passed_as_text(self, store):
        # SQLite's strict JSON rejects the NaN token canonical_params
        # writes, so such a result takes the decode path.
        text = canonical_params({"params": {}, "result": {"x": math.nan}})
        with sqlite3.connect(store.db_path) as conn:
            conn.execute(
                "INSERT INTO objects VALUES (?, ?, 0, 0)", ("k", text)
            )
        result = store.result_text("k")
        assert isinstance(result, dict) and math.isnan(result["x"])

    @pytest.mark.parametrize("keep_samples", [True, False])
    def test_stored_payload_is_canonical_text(self, store, keep_samples):
        # The payload column is the canonical JSON of params and result,
        # byte for byte, and the size column is its length in bytes.
        result = run_single(
            "ufs", uniform_matrix(4, 0.5), 300, load_label=0.5,
            keep_samples=keep_samples, store=store,
        )
        params = params_for(num_slots=300, keep_samples=keep_samples)
        with sqlite3.connect(store.db_path) as conn:
            key, payload, size = conn.execute(
                "SELECT key, payload, size FROM objects"
            ).fetchone()
        assert key == cache_key(params)
        assert payload == canonical_params(
            {
                "params": params,
                "result": result.to_dict(include_samples=keep_samples),
            }
        )
        assert size == len(payload.encode())

    def test_reads_by_key_are_not_hits(self, store):
        run_single("ufs", uniform_matrix(4, 0.5), 300, store=store)
        key = cache_key(params_for(num_slots=300, load_label=float("nan")))
        assert key in store and "0" * 64 not in store
        assert store.fetch_by_key(key) is not None
        assert store.result_dict(key) is not None
        assert store.hits == 0 and store.stats().hits == 0
        store.gc(max_age_seconds=0.0)
        assert key not in store
        assert store.fetch_by_key(key) is None

    def test_a_gzip_directory_store_is_not_read(self, tmp_path):
        # The older layout's files stay where they are, unread: its
        # cells recompute, as after a SCHEMA_VERSION bump.
        old = tmp_path / "objects" / "ab" / f"ab{'0' * 62}.json.gz"
        old.parent.mkdir(parents=True)
        old.write_bytes(b"\x1f\x8b")
        (tmp_path / "manifest.jsonl").write_text('{"key":"ab"}\n')
        store = ExperimentStore(tmp_path)
        assert len(store) == 0 and store.stats().saves == 0
        assert old.exists()


class TestZeroRecompute:
    """The acceptance criterion: cached sweeps simulate nothing."""

    @pytest.fixture()
    def counting_execute(self, monkeypatch):
        calls = []
        real = experiment._simulate

        def counted(plan):
            calls.append(plan.subject)
            return real(plan)

        monkeypatch.setattr(experiment, "_simulate", counted)
        return calls

    @pytest.mark.parametrize("engine", ["object", "vectorized"])
    def test_identical_sweep_recomputes_nothing(
        self, store, monkeypatch, engine
    ):
        request = JobRequest(
            workload="paper-uniform",
            switches=("sprinklers", "ufs", "load-balanced"),
            loads=(0.3, 0.7),
            n=8,
            num_slots=600,
            engine=engine,
        )
        first = run_sweep(request, store, workers=2)
        assert store.stats().saves == 6
        monkeypatch.setattr(
            WorkerPool, "start",
            lambda self: pytest.fail("a worker pool was started"),
        )
        second = run_sweep(request, store, workers=2)
        assert store.stats().saves == 6  # zero simulation recomputation
        for a, b in zip(first, second):
            assert_results_identical(a, b)

    def test_widening_a_sweep_computes_only_new_cells(self, tmp_path):
        base = dict(
            workload="paper-uniform",
            switches=("ufs",),
            n=8,
            num_slots=500,
            engine="vectorized",
        )
        run_sweep(JobRequest(loads=(0.3, 0.5), **base), tmp_path, workers=2)
        store = ExperimentStore(tmp_path)
        before = {record["key"] for record in store.manifest_records()}
        run_sweep(
            JobRequest(loads=(0.3, 0.5, 0.9), **base), tmp_path, workers=2
        )
        saved = [
            record for record in store.manifest_records()
            if record.get("event") != "hit" and record["key"] not in before
        ]
        assert [record["switch"] for record in saved] == ["ufs"]
        assert store.stats().saves == 3  # only the 0.9 cell ran

    def test_replication_cache(self, tmp_path, counting_execute):
        kwargs = dict(
            scenario="mmpp-bursty",
            n=8,
            load=0.6,
            num_slots=500,
            replications=3,
            engine="vectorized",
            store=tmp_path,
        )
        first = replicate("sprinklers", **kwargs)
        counting_execute.clear()
        second = replicate("sprinklers", **kwargs)
        assert counting_execute == []
        assert first.values == second.values

    def test_matrix_vs_scenario_do_not_collide(
        self, tmp_path, counting_execute
    ):
        # Same (switch, n, load, slots, seed) but different workload
        # identities must occupy distinct cache entries.
        run_single(
            "ufs",
            uniform_matrix(8, 0.5),
            400,
            load_label=0.5,
            store=tmp_path,
        )
        run_single(
            "ufs",
            scenario="paper-uniform",
            n=8,
            load=0.5,
            num_slots=400,
            store=tmp_path,
        )
        assert len(counting_execute) == 2


class TestStoreDoesNotChangeResults:
    def test_store_transparent_for_sweep(self, store):
        request = JobRequest(
            workload="quasi-diagonal",
            switches=("sprinklers",),
            loads=(0.5,),
            n=8,
            num_slots=500,
            engine="vectorized",
        )
        (plain,) = run_sweep(request, workers=1)
        (stored,) = run_sweep(request, store, workers=1)
        (cached,) = run_sweep(request, store, workers=1)
        assert_results_identical(plain, stored)
        assert_results_identical(plain, cached)


class TestStatsAndGc:
    """`repro store stats` / `gc` backing methods (ROADMAP store item)."""

    def _populate(self, store, runs=2):
        for seed in range(runs):
            run_single(
                "ufs", uniform_matrix(4, 0.5), 300, seed=seed, store=store
            )

    def test_stats_counts_entries_saves_and_hits(self, store):
        self._populate(store, runs=2)
        run_single("ufs", uniform_matrix(4, 0.5), 300, seed=0, store=store)
        stats = store.stats()
        assert stats.entries == 2
        assert stats.saves == 2
        assert stats.hits == 1
        assert stats.hit_rate == pytest.approx(1 / 3)
        assert stats.total_bytes > 0
        assert stats.oldest is not None and stats.newest >= stats.oldest

    def test_stats_empty_store(self, store):
        stats = store.stats()
        assert stats.entries == 0
        assert math.isnan(stats.hit_rate)

    def test_gc_by_age(self, store):
        self._populate(store, runs=3)
        sizes = object_sizes(store)
        *old, fresh = sizes
        hour_ago = time.time() - 3600
        set_mtimes(store, {key: hour_ago for key in old})
        report = store.gc(max_age_seconds=60.0)
        assert report.removed == 2
        assert report.kept == 1
        assert report.bytes_freed == sum(sizes[key] for key in old)
        assert list(object_sizes(store)) == [fresh]
        # Manifest compacted: only the survivor's save line is left.
        assert [r["key"] for r in store.manifest_records()] == [fresh]
        report = store.gc(max_age_seconds=0.0)
        assert (report.removed, report.kept) == (1, 0)
        assert len(store) == 0
        assert store.stats().saves == 0

    def test_gc_by_size_removes_oldest_first(self, store):
        self._populate(store, runs=3)
        keys = list(object_sizes(store))
        # Force distinct save times so "oldest" is well defined.
        now = time.time()
        set_mtimes(
            store, {key: now - 100 + rank for rank, key in enumerate(keys)}
        )
        report = store.gc(max_total_bytes=object_sizes(store)[keys[-1]])
        assert report.kept == 1
        assert list(object_sizes(store)) == [keys[-1]]  # newest kept

    def test_gc_without_bounds_keeps_everything(self, store):
        self._populate(store, runs=2)
        report = store.gc()
        assert report.removed == 0
        assert report.kept == 2
        # Cached results still fetch after the manifest compaction.
        before = store.hits
        run_single("ufs", uniform_matrix(4, 0.5), 300, seed=0, store=store)
        assert store.hits == before + 1

    @pytest.mark.parametrize("bound", [
        {"max_age_seconds": -1.0},
        {"max_total_bytes": -1},
        {"max_age_seconds": float("nan")},
    ], ids=["age", "size", "nan-age"])
    def test_gc_rejects_a_negative_bound_untouched(self, store, bound):
        """A negative bound would remove every object; it is refused
        before the transaction, so even the manifest keeps its hit line."""
        self._populate(store, runs=2)
        run_single("ufs", uniform_matrix(4, 0.5), 300, seed=0, store=store)
        with pytest.raises(ValueError, match="must be nonnegative"):
            store.gc(**bound)
        assert len(store) == 2
        assert store.stats().hits == 1

    def test_gc_then_recompute_round_trips(self, store):
        first = run_single(
            "foff", uniform_matrix(4, 0.6), 400, seed=2, store=store,
            engine="vectorized",
        )
        store.gc(max_age_seconds=0.0)
        again = run_single(
            "foff", uniform_matrix(4, 0.6), 400, seed=2, store=store,
            engine="vectorized",
        )
        assert_results_identical(first, again)


def _append_burst(root, worker, count):
    store = ExperimentStore(root)
    for i in range(count):
        store._append_manifest({"worker": worker, "i": i})


def _save_burst(root, worker, result):
    store = ExperimentStore(root)
    store.save(params_for(seed=worker), result)
    store.save(params_for(seed=100), result)  # every worker, one key


class TestManifestConcurrency:
    """Concurrent pool/service workers never tear manifest lines."""

    WORKERS = 8
    APPENDS = 50

    def test_parallel_appends_keep_every_line_intact(self, tmp_path):
        root = tmp_path / "store"
        store = ExperimentStore(root)  # create the database once
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(
                target=_append_burst,
                args=(str(root), worker, self.APPENDS),
            )
            for worker in range(self.WORKERS)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        with sqlite3.connect(store.db_path) as conn:
            lines = [
                line for (line,) in conn.execute("SELECT line FROM manifest")
            ]
        expected = self.WORKERS * self.APPENDS
        assert len(lines) == expected
        # Every line parses (no torn/interleaved writes) and every
        # (worker, i) append survived exactly once.
        records = [json.loads(line) for line in lines]
        counts = Counter((r["worker"], r["i"]) for r in records)
        assert len(counts) == expected
        assert set(counts.values()) == {1}

    def test_parallel_saves_keep_every_object(self, tmp_path):
        root = tmp_path / "store"
        store = ExperimentStore(root)
        result = run_single("ufs", uniform_matrix(4, 0.5), 300)
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_save_burst, args=(str(root), worker, result))
            for worker in range(self.WORKERS)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        stats = store.stats()
        # One object per distinct key; one save line per save call.
        assert (stats.entries, stats.saves) == (self.WORKERS + 1, 16)
        for seed in [*range(self.WORKERS), 100]:
            assert_results_identical(
                store.fetch(params_for(seed=seed)), result
            )
