"""The simulation job service: dedup, crash recovery, streaming, HTTP.

The acceptance bar (ISSUE 8): two concurrent identical sweep submissions
perform each shard's computation **exactly once** (asserted against the
store manifest — one save per key), partial results stream as cells
complete (event order ``job`` -> ``shard``* -> ``done``), and a worker
killed mid-shard has its shard re-queued and completed by a replacement.
ISSUE 23 adds :func:`repro.service.run_sweep` — the service as the one
way a local grid runs across processes — and the poison-shard cap.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import signal
import sqlite3
import subprocess
import sys
import threading
import time
from collections import Counter
from functools import partial
from pathlib import Path
from urllib.parse import urlsplit

import pytest

import repro
from repro.service import (
    JobRequest,
    ServiceClient,
    ServiceError,
    ShardSpec,
    SimulationService,
    WorkerPool,
    execute_shard,
    expand_shards,
    run_sweep,
    serve,
    shard_key,
    shard_run_kwargs,
)
from repro.scenarios import resolve_scenario
from repro.service import core as service_core
from repro.service.daemon import MAX_BODY_BYTES
from repro.service.jobs import shard_params
from repro.service.pool import Task, pick
from repro.sim.experiment import (
    TRAFFIC_PATTERNS,
    cell_workload,
    run_single,
)
from repro.sim.metrics import SimulationResult
from repro.store import ExperimentStore, canonical_params


def small_request(**overrides):
    base = dict(
        workload="uniform",
        switches=("sprinklers", "pf"),
        loads=(0.3, 0.6),
        n=8,
        num_slots=300,
        seeds=(0,),
    )
    base.update(overrides)
    return JobRequest(**base)


class TestJobModel:
    def test_expand_is_the_full_grid(self):
        request = small_request(seeds=(0, 1))
        shards = expand_shards(request)
        assert len(shards) == 8  # 2 seeds x 2 loads x 2 switches
        cells = {(s.switch, s.load, s.seed) for s in shards}
        assert len(cells) == 8

    def test_round_trip_dicts(self):
        assert small_request().engine is None  # resolved per plan
        request = small_request(engine="vectorized")
        assert JobRequest.from_dict(request.to_dict()) == request
        shard = expand_shards(request)[0]
        assert ShardSpec.from_dict(shard.to_dict()) == shard

    def test_window_slots_rides_on_every_shard(self):
        request = small_request(window_slots=64)
        assert JobRequest.from_dict(request.to_dict()) == request
        shards = expand_shards(request)
        assert {s.window_slots for s in shards} == {64}
        assert ShardSpec.from_dict(shards[0].to_dict()) == shards[0]
        assert shard_run_kwargs(shards[0])["window_slots"] == 64

    def test_older_dicts_parse_without_window_slots(self):
        data = small_request().to_dict()
        del data["window_slots"]
        assert JobRequest.from_dict(data).window_slots is None
        shard = expand_shards(small_request())[0].to_dict()
        del shard["window_slots"]
        assert ShardSpec.from_dict(shard).window_slots is None

    def test_invalid_window_raises_at_planning(self):
        shard = expand_shards(small_request(window_slots=0))[0]
        with pytest.raises(ValueError, match="window_slots must be positive"):
            shard_key(shard)

    def test_engine_never_splits_a_shard(self):
        """Object and vectorized submissions of one cell are one shard
        key, so the service computes the cell once."""
        keys = {
            shard_key(expand_shards(small_request(engine=engine))[0])
            for engine in (None, "object", "vectorized")
        }
        keys |= {
            shard_key(expand_shards(small_request(window_slots=w))[0])
            for w in (1, 64)
        }
        assert len(keys) == 1

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            small_request(switches=())
        with pytest.raises(ValueError):
            small_request(loads=())
        with pytest.raises(ValueError):
            small_request(seeds=())

    def test_shard_key_is_run_single_store_key(self, tmp_path):
        """Shard identity IS store identity — the dedup foundation."""
        for workload in ("uniform", "paper-uniform"):
            shard = expand_shards(small_request(workload=workload))[0]
            store = ExperimentStore(tmp_path / workload)
            run_single(store=store, **shard_run_kwargs(shard))
            assert store.fetch_by_key(shard_key(shard)) is not None

    def test_invalid_shard_raises_at_planning(self):
        shard = expand_shards(small_request(switches=("nonesuch",)))[0]
        with pytest.raises(ValueError, match="unknown switch"):
            shard_key(shard)


class TestServiceDedup:
    def test_concurrent_identical_submissions_compute_once(self, tmp_path):
        request = small_request()
        with SimulationService(tmp_path, workers=2) as service:
            ids = [None, None]

            def submit(slot):
                ids[slot] = service.submit(request)

            threads = [
                threading.Thread(target=submit, args=(slot,))
                for slot in (0, 1)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert all(service.wait(jid, timeout=120) for jid in ids)
            first, second = (service.status(jid) for jid in ids)
            assert first["failed"] == 0 and second["failed"] == 0
            # Each key computed by exactly one job; the other shared or
            # (if it lost the race entirely) read the stored result.
            assert (
                first["sources"]["new"] + second["sources"]["new"] == 4
            )
            saves = Counter(
                record["key"]
                for record in service.store.manifest_records()
                if record.get("event") != "hit"
            )
            assert len(saves) == 4
            assert all(count == 1 for count in saves.values())

    def test_resubmission_is_served_from_store(self, tmp_path):
        request = small_request()
        with SimulationService(tmp_path, workers=2) as service:
            first = service.submit(request)
            assert service.wait(first, timeout=120)
            again = service.submit(request)
            assert service.wait(again, timeout=5)
            assert service.status(again)["sources"] == {
                "new": 0, "shared": 0, "cached": 4,
            }

    def test_fresh_service_reuses_a_populated_store(self, tmp_path):
        request = small_request()
        with SimulationService(tmp_path, workers=2) as service:
            jid = service.submit(request)
            assert service.wait(jid, timeout=120)
        with SimulationService(tmp_path, workers=2) as service:
            jid = service.submit(request)
            assert service.wait(jid, timeout=5)
            assert service.status(jid)["sources"]["cached"] == 4

    def test_a_shard_pruned_by_gc_is_recomputed(self, tmp_path):
        # Another process's ``repro store gc`` removes objects this
        # daemon has served: they must not keep serving as cached.
        request = small_request()
        with SimulationService(tmp_path, workers=2) as service:
            first = service.submit(request)
            assert service.wait(first, timeout=120)
            assert ExperimentStore(tmp_path).gc(max_age_seconds=0).kept == 0
            again = service.submit(request)
            assert service.wait(again, timeout=120)
            assert service.status(again)["sources"]["new"] == 4
            cells = list(service.results(again))
        assert [cell["status"] for cell in cells] == ["done"] * 4
        assert all(cell["result"]["measured_packets"] > 0 for cell in cells)

    def test_results_of_a_pruned_job_say_so(self, tmp_path):
        # A finished job whose objects a gc removed has no result to
        # yield: each cell says why instead of reading "done".
        request = small_request()
        with SimulationService(tmp_path, workers=2) as service:
            jid = service.submit(request)
            assert service.wait(jid, timeout=120)
            assert ExperimentStore(tmp_path).gc(max_age_seconds=0).kept == 0
            cells = list(service.results(jid))
        assert [cell["status"] for cell in cells] == ["pruned"] * 4
        assert all("result" not in cell for cell in cells)
        assert all(
            cell["error"] == service_core.PRUNED_ERROR for cell in cells
        )

    def test_an_unreadable_object_is_recomputed_not_served(self, tmp_path):
        # A payload corrupted under a running service is still present,
        # so it is neither pruned nor cached: results say it is
        # unreadable, and the next submission recomputes it.
        request = small_request()
        with SimulationService(tmp_path, workers=2) as service:
            first = service.submit(request)
            assert service.wait(first, timeout=120)
            with sqlite3.connect(service.store.db_path) as conn:
                conn.execute("UPDATE objects SET payload = 'not json'")
            cells = list(service.results(first))
            assert [cell["status"] for cell in cells] == ["failed"] * 4
            assert all(
                cell["error"] == service_core.UNREADABLE_ERROR
                for cell in cells
            )
            assert all("result" not in cell for cell in cells)
            again = service.submit(request)
            assert service.wait(again, timeout=120)
            assert service.status(again)["sources"]["new"] == 4
            for job_id in (again, first):
                cells = list(service.results(job_id))
                assert [cell["status"] for cell in cells] == ["done"] * 4
                assert all("error" not in cell for cell in cells)
                assert all(
                    cell["result"]["measured_packets"] > 0 for cell in cells
                )

    def test_event_stream_order_and_content(self, tmp_path):
        request = small_request()
        with SimulationService(tmp_path, workers=2) as service:
            jid = service.submit(request)
            events = list(service.events(jid, follow=True, timeout=120))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "job"
        assert kinds[-1] == "done"
        assert kinds.count("shard") == 4
        assert events[0]["shards"] == 4
        for event in events[1:-1]:
            assert event["status"] == "done"
            assert event["summary"]["mean_delay"] > 0
        assert events[-1]["status"] == "done"
        assert events[-1]["failed"] == 0

    def test_unknown_switch_rejected_before_any_state(self, tmp_path):
        with SimulationService(tmp_path, workers=1) as service:
            with pytest.raises(ValueError, match="unknown switch"):
                service.submit(small_request(switches=("nonesuch",)))
            assert service.status()["jobs"] == []

    @pytest.mark.parametrize(
        "body", [[1, 2], "x", 3, None], ids=["list", "str", "int", "null"]
    )
    def test_non_object_request_is_a_type_error(self, tmp_path, body):
        with SimulationService(tmp_path, workers=1) as service:
            with pytest.raises(TypeError, match="JSON object"):
                service.submit(body)
            assert service.status()["jobs"] == []

    @pytest.mark.parametrize("workload", ["uniform", "mmpp-bursty"])
    def test_inadmissible_load_rejected_before_any_state(
        self, tmp_path, workload
    ):
        """A load above 1 packet/slot fails at planning, not in every
        worker that would draw its traffic."""
        with SimulationService(tmp_path / "store", workers=1) as service:
            with pytest.raises(ValueError, match="row sums exceed 1"):
                service.submit(
                    small_request(workload=workload, loads=(0.5, 2.0))
                )
            assert service.status()["jobs"] == []
            assert service.pool.outstanding() == 0
        with pytest.raises(ValueError, match="row sums exceed 1"):
            run_single(
                "sprinklers", num_slots=300, store=tmp_path / "store",
                **cell_workload(workload, 8, 2.0),
            )
        assert ExperimentStore(tmp_path / "store").manifest_records() == []

    def test_unknown_job_raises(self, tmp_path):
        with SimulationService(tmp_path, workers=1) as service:
            with pytest.raises(ValueError, match="unknown job"):
                service.status("job-9999")


def _failing_runner(payload):
    raise RuntimeError("shard exploded")


class TestShardFailures:
    def test_failed_shard_surfaces_without_wedging_the_job(self, tmp_path):
        with SimulationService(
            tmp_path, workers=1, runner=_failing_runner
        ) as service:
            jid = service.submit(small_request(switches=("sprinklers",)))
            assert service.wait(jid, timeout=30)
            status = service.status(jid)
            assert status["status"] == "failed"
            assert status["failed"] == 2
            events = list(service.events(jid))
            shard_events = [e for e in events if e["event"] == "shard"]
            assert all(e["status"] == "failed" for e in shard_events)
            assert all(
                "RuntimeError: shard exploded" in e["error"]
                for e in shard_events
            )
            assert events[-1]["status"] == "failed"

    def test_failed_shards_are_retried_by_a_new_submission(self, tmp_path):
        request = small_request(switches=("sprinklers",), loads=(0.3,))
        with SimulationService(
            tmp_path, workers=1, runner=_failing_runner
        ) as service:
            jid = service.submit(request)
            assert service.wait(jid, timeout=30)
            again = service.submit(request)
            assert service.wait(again, timeout=30)
            # Not inherited as "cached" failure — genuinely re-attempted.
            assert service.status(again)["sources"]["new"] == 1


#: Consumed-once crash flag: the first worker to see the file removes it
#: and hangs (to be killed); the respawned worker runs normally.
_CRASH_FLAG_ENV = "REPRO_TEST_CRASH_FLAG"


def _hang_once_runner(payload):
    flag = payload.get("flag") or os.environ.get(_CRASH_FLAG_ENV, "")
    if flag and os.path.exists(flag):
        os.unlink(flag)
        time.sleep(120)
    return {"row": {"ok": True}, "wall_s": 0.01}


def _hang_once_execute(payload):
    from repro.service.jobs import execute_shard

    flag = os.environ.get(_CRASH_FLAG_ENV, "")
    if flag and os.path.exists(flag):
        os.unlink(flag)
        time.sleep(120)
    return execute_shard(payload)


def _wait_for(predicate, timeout, message):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(message)


def _double_runner(payload):
    return 2 * payload


class TestPoolConcurrency:
    def test_concurrent_submits_complete_exactly_once(self):
        """Eight threads submit while six workers (more than this host's
        cores) complete, under a short switch interval: every task is
        assigned, run and delivered exactly once."""
        threads, per_thread = 8, 25
        total = threads * per_thread
        delivered = Counter()
        lock = threading.Lock()
        finished = threading.Event()

        def on_done(task_id, payload):
            with lock:
                delivered[(task_id, payload)] += 1
                if sum(delivered.values()) == total:
                    finished.set()

        def submit(first):
            for k in range(first, first + per_thread):
                pool.submit([(f"task-{k}", k)])

        pool = WorkerPool(_double_runner, workers=6, on_done=on_done)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pool.start()
            submitters = [
                threading.Thread(target=submit, args=(t * per_thread,))
                for t in range(threads)
            ]
            for t in submitters:
                t.start()
            for t in submitters:
                t.join(timeout=30)
                assert not t.is_alive()
            assert finished.wait(timeout=60), "a task was never delivered"
            assert pool.outstanding() == 0
        finally:
            sys.setswitchinterval(interval)
            pool.stop()
        assert delivered == Counter(
            {(f"task-{k}", 2 * k): 1 for k in range(total)}
        )
        assert pool.requeues == 0


class TestWorkerCrashRecovery:
    def test_pool_requeues_shard_of_killed_worker(self, tmp_path):
        flag = tmp_path / "crash-flag"
        flag.touch()
        done = threading.Event()
        results = {}

        def on_done(task_id, payload):
            results[task_id] = payload
            done.set()

        pool = WorkerPool(_hang_once_runner, workers=1, on_done=on_done)
        pool.start()
        try:
            pool.submit([("shard-1", {"flag": str(flag)})])
            _wait_for(
                lambda: not flag.exists(), 15,
                "worker never picked the task up",
            )
            with pool._lock:
                (victim,) = list(pool._workers)
            os.kill(victim, signal.SIGKILL)
            assert done.wait(timeout=30), "requeued shard never completed"
            assert pool.requeues == 1
            assert results["shard-1"]["row"]["ok"] is True
        finally:
            pool.stop()

    def test_service_completes_sweep_across_worker_kill(
        self, tmp_path, monkeypatch
    ):
        flag = tmp_path / "crash-flag"
        flag.touch()
        monkeypatch.setenv(_CRASH_FLAG_ENV, str(flag))
        request = small_request(switches=("sprinklers",), loads=(0.4,))
        with SimulationService(
            tmp_path / "store", workers=1, runner=_hang_once_execute
        ) as service:
            jid = service.submit(request)
            _wait_for(
                lambda: not flag.exists(), 15,
                "worker never picked the shard up",
            )
            with service.pool._lock:
                (victim,) = list(service.pool._workers)
            os.kill(victim, signal.SIGKILL)
            assert service.wait(jid, timeout=60)
            status = service.status(jid)
            assert status["status"] == "done"
            assert status["failed"] == 0
            assert service.pool.requeues == 1
            # The re-run shard's result landed in the store like any other.
            (key,) = service._jobs[jid].shard_keys
            assert service.store.fetch_by_key(key) is not None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_killed_on_its_first_shard(
        self, tmp_path, monkeypatch, workers
    ):
        """The worker dies the instant it gets a shard, before it could
        tell anyone: the parent recorded the assignment, so that one
        shard is requeued."""
        flag = tmp_path / "crash-flag"
        flag.touch()
        monkeypatch.setenv(_CRASH_FLAG_ENV, str(flag))
        with SimulationService(
            tmp_path / "store", workers=workers, runner=_die_once_execute
        ) as service:
            jid = service.submit(small_request())
            assert service.wait(jid, timeout=60), "a shard was orphaned"
            assert not flag.exists(), "no worker was killed"
            status = service.status(jid)
            assert status["status"] == "done"
            assert status["failed"] == 0
            assert service.pool.requeues == 1
            for key in service._jobs[jid].shard_keys:
                assert service.store.fetch_by_key(key) is not None


    def test_worker_killed_on_its_second_shard(self, tmp_path, monkeypatch):
        """One load's four switches share one traffic stream.  The one
        worker dies on its second shard, PF: the first is settled once,
        only PF is requeued and charged with the kill, and every shard
        completes."""
        flag = tmp_path / "crash-flag"
        flag.touch()
        monkeypatch.setenv(_CRASH_FLAG_ENV, str(flag))
        requeued = []
        requeue = WorkerPool._requeue

        def spy(pool, task):
            requeued.append(task.task_id)
            requeue(pool, task)

        monkeypatch.setattr(WorkerPool, "_requeue", spy)
        request = small_request(
            switches=("sprinklers", "pf", "ufs", "foff"), loads=(0.5,)
        )
        with SimulationService(
            tmp_path / "store", workers=1, runner=_die_on_pf_once_execute
        ) as service:
            jid = service.submit(request)
            assert service.wait(jid, timeout=60), "a shard was orphaned"
            assert not flag.exists(), "no worker was killed"
            assert service.status(jid)["status"] == "done"
            keys = service._jobs[jid].shard_keys
            assert requeued == [keys[1]]
            assert service.pool.requeues == 1
            settled = Counter(
                event["key"]
                for event in service.events(jid)
                if event["event"] == "shard"
            )
            assert settled == Counter(keys)
            saves = Counter(
                record["key"]
                for record in service.store.manifest_records()
                if record.get("event") != "hit"
            )
            assert saves == Counter(keys)


def _die_on_pf_once_execute(payload):
    """The first PF shard to see the crash flag consumes it and is
    SIGKILLed; every later run is normal."""
    if payload["shard"]["switch"] == "pf" and _consume(
        os.environ[_CRASH_FLAG_ENV]
    ):
        os.kill(os.getpid(), signal.SIGKILL)
    return execute_shard(payload)


def _die_on_pf_execute(payload):
    """A poison shard: every worker that runs a PF cell is SIGKILLed."""
    if payload["shard"]["switch"] == "pf":
        os.kill(os.getpid(), signal.SIGKILL)
    return execute_shard(payload)


def _consume(flag):
    """Remove ``flag``; True for the one caller that removed it (two
    workers may race for it)."""
    try:
        os.unlink(flag)
    except FileNotFoundError:
        return False
    return True


def _die_once_execute(payload):
    """The first worker to see the crash flag consumes it and is
    SIGKILLed mid-shard; every later run is normal."""
    if _consume(os.environ[_CRASH_FLAG_ENV]):
        os.kill(os.getpid(), signal.SIGKILL)
    return execute_shard(payload)


def _explode_on_ufs_execute(payload):
    if payload["shard"]["switch"] == "ufs":
        raise RuntimeError("shard exploded")
    return execute_shard(payload)


def _sweep_with(monkeypatch, runner):
    """Make ``run_sweep``'s service execute shards with ``runner``."""
    monkeypatch.setattr(
        service_core, "SimulationService",
        partial(SimulationService, runner=runner),
    )


#: The file whose creation releases :func:`_block_until_released`.
_RELEASE_ENV = "REPRO_TEST_RELEASE"


def _block_until_released(payload):
    """Hold the worker until the test creates the release file."""
    release = os.environ[_RELEASE_ENV]
    while not os.path.exists(release):
        time.sleep(0.02)
    return {"row": {"ok": True}, "wall_s": 0.0}


class TestPickRule:
    """The pool's dispatch rule on hand-built queues of ``(draw_key,
    weight)`` tasks."""

    @staticmethod
    def _queue(*tasks):
        return [
            Task(f"task-{i}", None, key, weight)
            for i, (key, weight) in enumerate(tasks)
        ]

    def test_own_key_first_oldest_not_heaviest(self):
        queue = self._queue(("b", 9), ("a", 1), ("a", 5))
        assert pick(queue, "a", held={"b"}) == 1

    def test_unheld_key_next_heaviest(self):
        queue = self._queue(("a", 9), ("b", 3), ("c", 5))
        assert pick(queue, "z", held={"a"}) == 2

    def test_a_none_key_is_never_held(self):
        queue = self._queue(("a", 9), (None, 2))
        assert pick(queue, None, held={"a", None}) == 1
        # Nor is it anyone's own key: a worker without a key takes the
        # heaviest, not the oldest keyless task.
        assert pick(self._queue((None, 1), ("a", 5)), None, set()) == 1

    def test_heaviest_when_every_key_is_held(self):
        queue = self._queue(("a", 2), ("b", 7), ("b", 7))
        assert pick(queue, "c", held={"a", "b"}) == 1

    def test_ties_keep_queue_order(self):
        assert pick(self._queue(("a", 4), ("b", 4)), None, set()) == 0


class TestDispatchOrder:
    @pytest.fixture()
    def tasks(self, tmp_path, monkeypatch):
        """Every task the service hands the pool, as ``(switch,
        draw_key, weight)``; shards finish at once."""
        release = tmp_path / "release"
        release.touch()
        monkeypatch.setenv(_RELEASE_ENV, str(release))
        seen = []
        submit = WorkerPool.submit

        def spy(pool, batch):
            seen.extend(
                (payload["shard"]["switch"], draw_key, weight)
                for _, payload, draw_key, weight in batch
            )
            submit(pool, batch)

        monkeypatch.setattr(WorkerPool, "submit", spy)
        return seen

    @staticmethod
    def _run(tmp_path, request, workers=1):
        """Run ``request``; its shard events in completion order."""
        with SimulationService(
            tmp_path / "store", workers=workers,
            runner=_block_until_released,
        ) as service:
            jid = service.submit(request)
            assert service.wait(jid, timeout=60)
            return [
                (event["load"], event["seed"], event["switch"])
                for event in service.events(jid)
                if event["event"] == "shard"
            ]

    def test_only_shards_that_share_a_draw_carry_a_key(
        self, tmp_path, tasks
    ):
        """Vectorized switch runs of one cell share a key; an
        object-only model, a fabric and every shard of an object-engine
        job draw their own.  Weights are expected packets."""
        self._run(tmp_path, small_request(
            switches=("sprinklers", "cms", "pf", "leaf-spine"), loads=(0.5,),
        ))
        self._run(tmp_path, small_request(
            switches=("sprinklers", "pf"), loads=(0.7,), engine="object",
        ))
        (key,) = {draw_key for switch, draw_key, _ in tasks[:4]} - {None}
        assert [draw_key for _, draw_key, _ in tasks] == [
            key, None, key, None, None, None,
        ]
        assert [weight for _, _, weight in tasks] == pytest.approx(
            [8 * 0.5 * 300] * 4 + [8 * 0.7 * 300] * 2
        )

    def test_heaviest_first_then_the_held_key(self, tmp_path, tasks):
        """One worker: the heaviest cell starts, its traffic-mate
        follows on the held batch, and equal cells (two seeds) keep
        submission order."""
        order = self._run(
            tmp_path, small_request(loads=(0.3, 0.9, 0.6), seeds=(0, 1))
        )
        assert order == [
            (load, seed, switch)
            for load in (0.9, 0.6, 0.3)
            for seed in (0, 1)
            for switch in ("sprinklers", "pf")
        ]

    def test_few_cells_keep_every_worker_busy(self, tmp_path, monkeypatch):
        """One load's five switches on four workers: four shards run at
        once, with no split heuristic."""
        release = tmp_path / "release"
        monkeypatch.setenv(_RELEASE_ENV, str(release))
        request = small_request(
            switches=("sprinklers", "pf", "foff", "ufs", "load-balanced"),
            loads=(0.5,),
        )
        with SimulationService(
            tmp_path / "store", workers=4, runner=_block_until_released
        ) as service:
            try:
                jid = service.submit(request)
                pool = service.pool
                _wait_for(
                    lambda: len(pool._assigned) == 4, 15,
                    "fewer than four shards in flight",
                )
                assert pool.outstanding() == 5
            finally:
                release.touch()
            assert service.wait(jid, timeout=60)
            assert service.status(jid)["status"] == "done"


class TestPoisonShard:
    """A shard that kills every worker it touches fails; it is not
    requeued forever (bounded by ``MAX_ATTEMPTS`` worker deaths, each
    seen at once by its process sentinel)."""

    def test_poison_shard_fails_its_job_in_bounded_time(self, tmp_path):
        """Two workers: PF and its traffic-mate run side by side, and
        only PF is charged with the deaths (requeued twice)."""
        self._assert_only_pf_fails(tmp_path, workers=2)

    def test_poison_shards_group_mate_completes(self, tmp_path):
        """One worker: PF's traffic-mate runs first on the same worker
        and completes; the deaths are still PF's alone."""
        self._assert_only_pf_fails(tmp_path, workers=1)

    @staticmethod
    def _assert_only_pf_fails(tmp_path, workers):
        with SimulationService(
            tmp_path, workers=workers, runner=_die_on_pf_execute
        ) as service:
            jid = service.submit(small_request(loads=(0.3,)))
            assert service.wait(jid, timeout=30), "poison shard cycled"
            assert service.status(jid)["status"] == "failed"
            by_switch = {
                event["switch"]: event
                for event in service.events(jid)
                if event["event"] == "shard"
            }
            assert by_switch["pf"]["status"] == "failed"
            assert "killed 3 workers" in by_switch["pf"]["error"]
            assert by_switch["sprinklers"]["status"] == "done"
            assert service.pool.requeues == 2
            assert service.pool.outstanding() == 0

    def test_run_sweep_raises_instead_of_hanging(
        self, tmp_path, monkeypatch
    ):
        _sweep_with(monkeypatch, _die_on_pf_execute)
        with pytest.raises(
            RuntimeError, match="pf @ load 0.3 seed 0: .*killed 3 workers"
        ):
            run_sweep(small_request(loads=(0.3,)), tmp_path, workers=2)


class TestRunSweep:
    """``run_sweep`` == per-cell ``run_single`` over ``expand_shards``,
    on the service's workers (what ``sim/parallel.py``'s tests pinned)."""

    GRID = dict(n=4, loads=(0.4, 0.7), num_slots=500)
    SWITCHES = ("load-balanced", "sprinklers")

    def _request(self, workload, **overrides):
        return JobRequest(**{
            "workload": workload, "switches": self.SWITCHES, "seeds": (3,),
            **self.GRID, **overrides,
        })

    @staticmethod
    def _keys(store):
        records = ExperimentStore(store).manifest_records()
        return sorted(record["key"] for record in records)

    @pytest.mark.parametrize("engine", ["object", "vectorized"])
    @pytest.mark.parametrize(
        "workload",
        [
            "uniform",
            "mmpp-bursty",
            {**resolve_scenario("hotspot-4x").to_dict(), "name": "ad-hoc"},
        ],
        ids=["pattern", "scenario", "spec-dict"],
    )
    def test_matches_sequential_sweep(self, workload, engine, tmp_path):
        request = self._request(workload, engine=engine)
        pooled = run_sweep(request, tmp_path / "pooled", workers=2)
        sequential = [
            run_single(store=tmp_path / "sequential", **shard_run_kwargs(s))
            for s in expand_shards(request)
        ]
        assert len(pooled) == len(sequential) == 4
        for a, b in zip(pooled, sequential):
            assert a.to_dict() == b.to_dict()
        assert self._keys(tmp_path / "pooled") == self._keys(
            tmp_path / "sequential"
        )

    def test_switch_params_reach_the_run(self):
        by_threshold = {}
        for threshold in (1, 4):
            params = {"threshold": threshold}
            (pooled,) = run_sweep(
                self._request(
                    "uniform", switches=("pf",), loads=(0.6,),
                    switch_params=params,
                ),
                workers=1,
            )
            want = run_single(
                "pf", TRAFFIC_PATTERNS["uniform"](4, 0.6), 500, seed=3,
                load_label=0.6, keep_samples=False, switch_params=params,
            )
            assert pooled.to_dict() == want.to_dict()
            by_threshold[threshold] = pooled.mean_delay
        # Thresholds 1 and 4 genuinely produce different dynamics, so the
        # parameter demonstrably arrived (it is not defaulted away).
        assert by_threshold[1] != by_threshold[4]

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"workload": "bogus"}, "unknown scenario 'bogus'"),
            ({"switches": ("sprinklers", "nonesuch")}, "unknown switch"),
        ],
        ids=["pattern", "switch"],
    )
    def test_invalid_grid_raises_before_any_worker_starts(
        self, overrides, message, monkeypatch
    ):
        monkeypatch.setattr(
            WorkerPool, "start",
            lambda self: pytest.fail("a worker pool was started"),
        )
        with pytest.raises(ValueError, match=message):
            run_sweep(self._request(**{"workload": "uniform", **overrides}))

    def test_failed_cell_is_named_and_the_others_are_stored(
        self, tmp_path, monkeypatch
    ):
        _sweep_with(monkeypatch, _explode_on_ufs_execute)
        request = self._request(
            "uniform", switches=("sprinklers", "ufs", "pf"), loads=(0.5,)
        )
        with pytest.raises(RuntimeError) as excinfo:
            run_sweep(request, tmp_path, workers=2)
        message = str(excinfo.value)
        assert "1 of 3 sweep cells failed" in message
        assert "ufs @ load 0.5 seed 3: RuntimeError: shard exploded" in message
        store = ExperimentStore(tmp_path)
        for shard in expand_shards(request):
            stored = store.fetch_by_key(shard_key(shard))
            if shard.switch == "ufs":
                assert stored is None
            else:
                want = run_single(**shard_run_kwargs(shard))
                assert stored.to_dict() == want.to_dict()

    def test_survives_a_sigkilled_worker(self, tmp_path, monkeypatch):
        flag = tmp_path / "crash-flag"
        flag.touch()
        monkeypatch.setenv(_CRASH_FLAG_ENV, str(flag))
        _sweep_with(monkeypatch, _die_once_execute)
        request = self._request("uniform")
        pooled = run_sweep(request, workers=2)
        assert not flag.exists(), "no worker was killed"
        sequential = [
            run_single(**shard_run_kwargs(s)) for s in expand_shards(request)
        ]
        assert [r.to_dict() for r in pooled] == [
            r.to_dict() for r in sequential
        ]

    def test_fully_stored_sweep_starts_no_worker(self, tmp_path, monkeypatch):
        request = self._request("uniform", window_slots=128)
        first = run_sweep(request, tmp_path, workers=2)
        monkeypatch.setattr(
            WorkerPool, "start",
            lambda self: pytest.fail("a worker pool was started"),
        )
        second = run_sweep(request, tmp_path, workers=2)
        assert [r.to_dict() for r in second] == [r.to_dict() for r in first]


class TestStoreServedCells:
    """A store-served cell is read once by ``results`` and rebuilt at
    most twice by ``run_sweep``: once to plan it, once to return it."""

    @pytest.fixture()
    def rebuilds(self, monkeypatch):
        calls = Counter()
        from_dict = SimulationResult.from_dict.__func__
        to_dict = SimulationResult.to_dict

        def counted_from_dict(cls, data):
            calls["from_dict"] += 1
            return from_dict(cls, data)

        def counted_to_dict(self, *args, **kwargs):
            calls["to_dict"] += 1
            return to_dict(self, *args, **kwargs)

        monkeypatch.setattr(
            SimulationResult, "from_dict", classmethod(counted_from_dict)
        )
        monkeypatch.setattr(SimulationResult, "to_dict", counted_to_dict)
        return calls

    def test_run_sweep_rebuilds_each_cell_at_most_twice(
        self, tmp_path, monkeypatch, rebuilds
    ):
        request = small_request()
        first = [r.as_row() for r in run_sweep(request, tmp_path, workers=2)]
        monkeypatch.setattr(
            WorkerPool, "start",
            lambda self: pytest.fail("a worker pool was started"),
        )
        rebuilds.clear()
        again = run_sweep(request, tmp_path, workers=2)
        assert len(again) == 4
        assert rebuilds["from_dict"] <= 2 * len(again)
        assert rebuilds["to_dict"] == 0
        assert [r.as_row() for r in again] == first

    def test_results_pass_the_stored_dict_on(self, tmp_path, rebuilds):
        request = small_request()
        shards = expand_shards(request)
        store = ExperimentStore(tmp_path)
        # One shard's object carries per-packet samples, as a
        # keep_samples=True run stores them: results leaves them out.
        sampled = run_single(
            **{**shard_run_kwargs(shards[0]), "keep_samples": True}
        ).to_dict()
        assert sampled["delay_samples"]
        payload = {"params": shard_params(shards[0]), "result": sampled}
        with sqlite3.connect(store.db_path) as conn:
            conn.execute(
                "INSERT INTO objects VALUES (?, ?, 0, 0)",
                (shard_key(shards[0]), canonical_params(payload)),
            )
        with SimulationService(store, workers=2) as service:
            job_id = service.submit(request)
            assert service.wait(job_id, timeout=120)
            rebuilds.clear()
            cells = list(service.results(job_id))
        assert rebuilds == Counter()
        assert len(cells) == 4
        assert service.status(job_id)["sources"]["cached"] == 1
        for cell in cells:
            want = store.fetch_by_key(cell["key"]).to_dict(
                include_samples=False
            )
            assert cell["result"] == want
        assert cells[0]["result"]["delay_histogram"]


class TestHTTPSurface:
    @pytest.fixture()
    def server(self, tmp_path):
        with serve(tmp_path, port=0, workers=2) as running:
            yield running

    def test_health_and_submit_watch_results(self, server):
        client = ServiceClient(server.address)
        health = client.health()
        assert health["status"] == "ok"
        assert health == {
            "status": "ok", "store": str(server.service.store.root),
        }

        job_id = client.submit(small_request())
        events = list(client.watch(job_id, timeout=120))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "job"
        assert kinds[-1] == "done"
        assert kinds.count("shard") == 4
        assert events[-1]["status"] == "done"

        status = client.status(job_id)
        assert status["status"] == "done"
        assert status["completed"] == 4

        rows = list(client.results(job_id))
        assert len(rows) == 4
        assert all(row["status"] == "done" for row in rows)
        assert all(row["result"]["measured_packets"] > 0 for row in rows)
        for row in rows:
            stored = server.service.store.fetch_by_key(row["key"])
            assert row["result"] == stored.to_dict(include_samples=False)

        overall = client.status()
        assert [job["job_id"] for job in overall["jobs"]] == [job_id]

    def test_results_rows_are_the_stored_results(self, server):
        # Plain cells travel as stored text, a samples-carrying object
        # and a NaN-mean one through the decode path: every row still
        # decodes to the stored dict without samples, and to what the
        # in-process results yield.  (NaN != NaN, so rows are compared
        # as canonical text.)
        request = small_request()
        shards = expand_shards(request)
        store = server.service.store
        sampled = run_single(
            **{**shard_run_kwargs(shards[0]), "keep_samples": True}
        ).to_dict()
        nan_mean = run_single(**shard_run_kwargs(shards[1])).to_dict(
            include_samples=False
        )
        nan_mean["mean_delay"] = float("nan")
        with sqlite3.connect(store.db_path) as conn:
            conn.executemany(
                "INSERT INTO objects VALUES (?, ?, 0, 0)",
                [
                    (
                        shard_key(shard),
                        canonical_params(
                            {"params": shard_params(shard), "result": result}
                        ),
                    )
                    for shard, result in zip(shards, (sampled, nan_mean))
                ],
            )
        client = ServiceClient(server.address)
        job_id = client.submit(request)
        list(client.watch(job_id, timeout=120))
        rows = list(client.results(job_id))
        assert [row["status"] for row in rows] == ["done"] * 4
        assert client.status(job_id)["sources"]["cached"] == 2
        assert "delay_samples" not in rows[0]["result"]
        assert math.isnan(rows[1]["result"]["mean_delay"])
        for row in rows:
            want = store.fetch_by_key(row["key"]).to_dict(
                include_samples=False
            )
            assert canonical_params(row["result"]) == canonical_params(want)
        assert canonical_params(rows) == canonical_params(
            list(server.service.results(job_id))
        )

    def test_corrupt_payloads_keep_their_status_and_error(self, server):
        # A finished job's objects corrupted four ways: each row says
        # the payload is unreadable, on every read, over HTTP as in
        # process.
        client = ServiceClient(server.address)
        request = small_request()
        job_id = client.submit(request)
        list(client.watch(job_id, timeout=120))
        corruptions = [
            lambda text: "not json",
            lambda text: b"not gzip at all",
            lambda text: text[:-8],
            lambda text: '{"params": {}}',
        ]
        with sqlite3.connect(server.service.store.db_path) as conn:
            for shard, corrupt in zip(expand_shards(request), corruptions):
                key = shard_key(shard)
                (text,) = conn.execute(
                    "SELECT payload FROM objects WHERE key = ?", (key,)
                ).fetchone()
                conn.execute(
                    "UPDATE objects SET payload = ? WHERE key = ?",
                    (corrupt(text), key),
                )
        for _ in range(2):
            rows = list(client.results(job_id))
            assert [row["status"] for row in rows] == ["failed"] * 4
            assert all(
                row["error"] == service_core.UNREADABLE_ERROR for row in rows
            )
            assert all("result" not in row for row in rows)
            assert rows == list(server.service.results(job_id))

    def test_a_cached_row_is_served_undecoded(self, server, monkeypatch):
        # The daemon writes a plain stored result to the wire as the
        # store's text: serving /results runs no JSON decode at all.
        client = ServiceClient(server.address)
        request = small_request()
        list(client.watch(client.submit(request), timeout=120))
        job_id = client.submit(request)
        list(client.watch(job_id, timeout=120))
        assert client.status(job_id)["sources"]["cached"] == 4
        decodes = []
        raw_decode = json.JSONDecoder.raw_decode

        def counted(self, s, *args, **kwargs):
            decodes.append(s)
            return raw_decode(self, s, *args, **kwargs)

        monkeypatch.setattr(json.JSONDecoder, "raw_decode", counted)
        host = urlsplit(server.address)
        conn = http.client.HTTPConnection(host.hostname, host.port)
        conn.request("GET", f"/results?job={job_id}")
        body = conn.getresponse().read().decode()
        conn.close()
        monkeypatch.undo()
        assert decodes == []
        store = server.service.store
        rows = [json.loads(line) for line in body.splitlines()]
        assert len(rows) == 4
        for line, row in zip(body.splitlines(), rows):
            text = store.result_text(row["key"])
            assert line.endswith(f', "result": {text}}}')
            assert row["result"] == store.fetch_by_key(row["key"]).to_dict(
                include_samples=False
            )

    def test_watch_streams_incrementally(self, server):
        """Partial results arrive while later shards are still running."""
        client = ServiceClient(server.address)
        job_id = client.submit(small_request(num_slots=2_000))
        seen_before_done = 0
        for event in client.watch(job_id, timeout=120):
            if event["event"] == "shard":
                status = client.status(job_id)
                if status["completed"] < status["shards"]:
                    seen_before_done += 1
            if event["event"] == "done":
                break
        # With 4 shards on 2 workers, at least the first completion must
        # stream while others are outstanding.
        assert seen_before_done >= 1

    def test_second_identical_submission_shares_or_hits(self, server):
        client = ServiceClient(server.address)
        first = client.submit(small_request())
        second = client.submit(small_request())
        done_first = list(client.watch(first, timeout=120))
        done_second = list(client.watch(second, timeout=120))
        assert done_first[-1]["status"] == "done"
        assert done_second[-1]["status"] == "done"
        s1, s2 = client.status(first), client.status(second)
        assert s1["sources"]["new"] + s2["sources"]["new"] == 4

    def test_errors_are_json(self, server):
        client = ServiceClient(server.address)
        with pytest.raises(ServiceError, match="404"):
            client.status("job-9999")
        with pytest.raises(ServiceError, match="unknown switch"):
            client.submit(small_request(switches=("nonesuch",)))

    @pytest.mark.parametrize("body", [b"[1, 2]", b'"x"'], ids=["list", "str"])
    def test_non_object_body_is_rejected(self, server, body):
        split = urlsplit(server.address)
        conn = http.client.HTTPConnection(split.hostname, split.port, timeout=10)
        try:
            conn.request("POST", "/submit", body=body)
            response = conn.getresponse()
            assert response.status == 400
            assert "JSON object" in json.loads(response.read())["error"]
        finally:
            conn.close()
        assert ServiceClient(server.address).status()["jobs"] == []

    def test_inadmissible_load_is_rejected(self, server):
        client = ServiceClient(server.address)
        with pytest.raises(ServiceError, match="HTTP 400.*row sums exceed 1"):
            client.submit(small_request(loads=(2.0,)))
        assert client.status()["jobs"] == []

    @pytest.mark.parametrize(
        "length, status",
        # The oversized body is never sent: 413 must not wait to read it.
        [("abc", 400), ("-1", 400), (str(MAX_BODY_BYTES + 1), 413)],
        ids=["abc", "-1", "oversized"],
    )
    def test_bad_content_length_is_rejected(self, server, length, status):
        split = urlsplit(server.address)
        conn = http.client.HTTPConnection(split.hostname, split.port, timeout=10)
        try:
            conn.putrequest("POST", "/submit")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == status
            assert "error" in json.loads(response.read())
        finally:
            conn.close()
        assert ServiceClient(server.address).health()["status"] == "ok"

    @pytest.mark.parametrize("timeout", ["abc", "nan", "inf", "-inf"])
    def test_bad_watch_timeout_is_rejected(self, server, timeout):
        """Answered 400 before the stream starts (``nan`` used to make a
        watch that never expires)."""
        job_id = ServiceClient(server.address).submit(
            small_request(switches=("sprinklers",), loads=(0.3,))
        )
        split = urlsplit(server.address)
        conn = http.client.HTTPConnection(split.hostname, split.port, timeout=10)
        try:
            conn.request("GET", f"/watch?job={job_id}&timeout={timeout}")
            response = conn.getresponse()
            assert response.status == 400
            assert "timeout" in json.loads(response.read())["error"]
        finally:
            conn.close()

    def test_unreachable_daemon_message(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServiceError, match="repro serve"):
            client.health()


def _children(pid):
    with open(f"/proc/{pid}/task/{pid}/children") as f:
        return f.read().split()


@pytest.mark.skipif(
    not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
    reason="lists child processes through /proc",
)
class TestDaemonProcess:
    def test_sigterm_stops_the_worker_pool(self, tmp_path):
        """``kill <daemon>`` leaves no worker behind: SIGTERM leaves the
        server loop the way Ctrl-C does, so the pool is stopped."""
        src = str(Path(repro.__file__).resolve().parents[1])
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "2",
             "--port", "0", "--store", str(tmp_path)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        workers = []
        try:
            assert json.loads(daemon.stdout.readline())["event"] == "serving"
            _wait_for(
                lambda: len(_children(daemon.pid)) >= 2, 30,
                "the daemon never started its workers",
            )
            workers = _children(daemon.pid)
            daemon.send_signal(signal.SIGTERM)
            daemon.wait(timeout=30)
            _wait_for(
                lambda: not any(os.path.exists(f"/proc/{p}") for p in workers),
                10, f"workers {workers} outlived the daemon",
            )
        finally:
            daemon.kill()
            daemon.wait()
            daemon.stdout.close()
            for pid in workers:
                if os.path.exists(f"/proc/{pid}"):
                    os.kill(int(pid), signal.SIGKILL)


class TestServiceTelemetry:
    def test_daemon_spans_and_counters(self, tmp_path):
        from repro import telemetry

        with telemetry.scope():
            with SimulationService(tmp_path, workers=2) as service:
                jid = service.submit(small_request())
                assert service.wait(jid, timeout=120)
            trace = tmp_path / "trace.jsonl"
            spans = telemetry.export_jsonl(trace)
        assert spans >= 5  # 4 service.shard + 1 service.job
        names = [
            span["name"]
            for span in telemetry.read_trace(trace)["spans"]
        ]
        assert names.count("service.shard") == 4
        assert names.count("service.job") == 1
        assert telemetry.check_trace(telemetry.read_trace(trace)) == []
