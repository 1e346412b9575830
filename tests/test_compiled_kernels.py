"""Compiled kernel passes: bit parity with NumPy, and no way to choose.

The compiled passes (``repro.sim.kernels.compiled``) must be
indistinguishable from the NumPy passes in every observable — the parity
grid here compares the *entire* ``to_dict`` payload (extras included)
across every kernel switch, switch size, workload shape, and both the
monolithic and streamed replay forms.  Which passes a run takes is a fact
of the host (compiled exactly when numba imports); the grid flips it
through the ``compiled.ACTIVE`` test seam.  Without numba installed (the
default container) the compiled passes run as pure Python, which is the
same arithmetic, so these tests are meaningful everywhere.

The remaining classes pin what surrounds the kernels: pass resolution,
store keys that do not depend on which passes ran, the fused-metrics
histogram contract (exact percentiles with and without retained
samples), serialization round-trips, old clients that still send a
``backend``, and the CLI's rejection of the removed flag.
"""

import pytest

from repro.cli import main
from repro.sim.experiment import resolve_run_params, run_single
from repro.sim.kernels import compiled
from repro.sim.kernels.compiled import (
    compiled_available,
    get_kernel_backend,
    resolve_compiled_passes,
)
from repro.sim.metrics import SimulationResult
from repro.store import ExperimentStore, cache_key
from repro.traffic.matrices import (
    diagonal_matrix,
    hotspot_matrix,
    quasi_diagonal_matrix,
    uniform_matrix,
)

KERNEL_SWITCHES = (
    "sprinklers",
    "ufs",
    "foff",
    "pf",
    "load-balanced",
    "output-queued",
)

WORKLOADS = (
    ("uniform-hot", lambda n: uniform_matrix(n, 0.9)),
    ("uniform-light", lambda n: uniform_matrix(n, 0.3)),
    ("diagonal", lambda n: diagonal_matrix(n, 0.85)),
    ("quasi-diag+hotspot", lambda n: (
        0.5 * quasi_diagonal_matrix(n, 0.8) + 0.5 * hotspot_matrix(n, 0.8)
    )),
)


@pytest.fixture
def run_on(monkeypatch):
    """``run_on(active, switch, matrix, slots, **kwargs)``: one vectorized
    run with the compiled passes on or off (restored after the test)."""

    def run(active, switch, matrix, slots, **kwargs):
        monkeypatch.setattr(compiled, "ACTIVE", active)
        kwargs = {"seed": 7, "load_label": 0.8, "keep_samples": True, **kwargs}
        return run_single(switch, matrix, slots, engine="vectorized", **kwargs)

    return run


class TestParityGrid:
    """Compiled == NumPy, bit for bit, across the whole kernel surface."""

    @pytest.mark.parametrize("n", (2, 8, 32))
    @pytest.mark.parametrize("switch", KERNEL_SWITCHES)
    def test_backend_parity(self, run_on, switch, n):
        slots = 24 * n + 160
        for label, make in WORKLOADS:
            matrix = make(n)
            ref = run_on(False, switch, matrix, slots)
            com = run_on(True, switch, matrix, slots)
            assert com.to_dict() == ref.to_dict(), (switch, n, label)
            # The streamed (windowed) replay dispatches the same compiled
            # passes window by window; parity must survive the carry
            # state (pending CSR tags, polled cursors, fold prev-max).
            strm = run_on(True, switch, matrix, slots, window_slots=48)
            assert strm.to_dict() == ref.to_dict(), (switch, n, label)

    def test_parameterized_kernel_parity(self, run_on):
        # PF's threshold is declared kernel-honored; the compiled
        # formation must follow it identically.
        matrix = uniform_matrix(8, 0.9)
        for threshold in (1, 3, 8):
            kwargs = dict(seed=3, switch_params={"threshold": threshold})
            ref = run_on(False, "pf", matrix, 400, **kwargs)
            com = run_on(True, "pf", matrix, 400, **kwargs)
            assert com.to_dict() == ref.to_dict(), threshold

    def test_compiled_matches_object_oracle(self, run_on):
        matrix = diagonal_matrix(8, 0.9)
        obj = run_single(
            "sprinklers", matrix, 500, seed=7, load_label=0.8,
            engine="object",
        )
        com = run_on(True, "sprinklers", matrix, 500)
        assert com.to_dict() == obj.to_dict()


class TestBackendSelection:
    def test_backend_is_whatever_imports(self):
        assert compiled.ACTIVE == compiled_available()
        assert get_kernel_backend() == (
            "compiled" if compiled_available() else "numpy"
        )

    def test_resolve_compiled_passes(self):
        from repro import models

        for name in KERNEL_SWITCHES:
            model = models.get(name)
            passes = resolve_compiled_passes(model.kernel.__module__)
            assert passes and all(callable(p) for p in passes), name
        # Frame switches additionally resolve the formation stepper.
        pf_passes = resolve_compiled_passes(models.get("pf").kernel.__module__)
        oq_passes = resolve_compiled_passes(
            models.get("output-queued").kernel.__module__
        )
        assert len(pf_passes) == len(oq_passes) + 1

    def test_run_single_backend_does_not_leak(self, run_on):
        # A run reads the platform's choice and never writes it, and
        # get_kernel_backend() reports the passes that actually ran.
        for active in (False, True):
            run_on(active, "sprinklers", uniform_matrix(2, 0.5), 60)
            assert compiled.ACTIVE is active
            assert get_kernel_backend() == (
                "compiled" if active else "numpy"
            )


class TestStoreKeyInvariance:
    """Which passes ran is not part of a result's identity: a store filled
    on a numba host serves a host without it, and vice versa."""

    def test_backend_not_in_cache_key(self, monkeypatch):
        matrix = uniform_matrix(4, 0.7)
        keys = []
        for active in (False, True):
            monkeypatch.setattr(compiled, "ACTIVE", active)
            params = resolve_run_params("sprinklers", matrix, 200, seed=1)
            assert "backend" not in params
            keys.append(cache_key(params))
        assert keys[0] == keys[1]

    def test_compiled_run_is_cache_hit_for_numpy(self, run_on, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        matrix = uniform_matrix(4, 0.8)
        kwargs = dict(seed=2, store=store)
        first = run_on(True, "sprinklers", matrix, 240, **kwargs)
        assert store.stats().saves == 1
        second = run_on(False, "sprinklers", matrix, 240, **kwargs)
        assert store.stats().saves == 1  # hit, not a recompute
        assert second.to_dict() == first.to_dict()


class TestFusedMetrics:
    def test_histogram_percentiles_match_retained(self):
        matrix = uniform_matrix(8, 0.9)
        kwargs = dict(num_slots=400, seed=4, engine="vectorized")
        fused = run_single(
            "sprinklers", matrix, keep_samples=False, **kwargs
        )
        retained = run_single(
            "sprinklers", matrix, keep_samples=True, **kwargs
        )
        assert fused._delay_samples == []
        assert fused.p50_delay == retained.p50_delay
        assert fused.p99_delay == retained.p99_delay
        assert fused._delay_histogram == retained._delay_histogram
        assert (
            sum(fused._delay_histogram.values()) == fused.measured_packets
        )


class TestSerialization:
    def _result(self):
        return run_single(
            "sprinklers", uniform_matrix(4, 0.8), 240, seed=6,
            engine="vectorized", keep_samples=True,
        )

    def test_round_trip_with_samples(self):
        result = self._result()
        data = result.to_dict(include_samples=True)
        assert data["delay_samples"]
        assert data["delay_histogram"]
        back = SimulationResult.from_dict(data)
        assert back.to_dict() == data
        assert back._delay_histogram == result._delay_histogram
        back.delay_ci()  # samples survived the trip

    def test_round_trip_without_samples(self):
        result = self._result()
        data = result.to_dict(include_samples=False)
        assert "delay_samples" not in data
        assert data["delay_histogram"]
        back = SimulationResult.from_dict(data)
        # Everything except the raw samples survives — including the
        # exact percentiles, which come from the histogram.
        assert back.p50_delay == result.p50_delay
        assert back.p99_delay == result.p99_delay
        assert back._delay_histogram == result._delay_histogram
        assert back.to_dict(include_samples=False) == data
        with pytest.raises(ValueError):
            back.delay_ci()

    def test_store_omits_samples_for_fused_runs(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        matrix = uniform_matrix(4, 0.8)
        run_single(
            "sprinklers", matrix, 240, seed=6, engine="vectorized",
            keep_samples=False, store=store,
        )
        params = resolve_run_params(
            "sprinklers", matrix, 240, seed=6, engine="vectorized",
            keep_samples=False,
        )
        stored = store.result_dict(cache_key(params))
        assert "delay_samples" not in stored
        assert stored["delay_histogram"]


class TestOlderClients:
    def test_backend_field_is_ignored(self):
        """A request from a client that still sends ``"backend"`` parses,
        and expands to shards keyed exactly like one that does not."""
        from repro.service.jobs import JobRequest, expand_shards, shard_key

        request = JobRequest(
            workload="uniform", switches=("sprinklers",), loads=(0.5,),
            n=4, num_slots=100,
        )
        old = JobRequest.from_dict(
            {**request.to_dict(), "backend": "compiled"}
        )
        assert old == request
        assert [shard_key(s) for s in expand_shards(old)] == [
            shard_key(s) for s in expand_shards(request)
        ]


class TestShardTransport:
    def test_shard_round_trip_with_backend(self):
        from repro.service.jobs import JobRequest, ShardSpec, expand_shards

        request = JobRequest(
            workload="uniform", switches=("sprinklers",), loads=(0.5,),
            n=4, num_slots=100, engine="vectorized",
        )
        assert JobRequest.from_dict(request.to_dict()) == request
        (shard,) = expand_shards(request)
        assert ShardSpec.from_dict(shard.to_dict()) == shard
        # An older client's payload parses, and re-serializes without
        # the field that no longer means anything.
        legacy = ShardSpec.from_dict({**shard.to_dict(), "backend": "numpy"})
        assert legacy.to_dict() == shard.to_dict()
        assert "backend" not in legacy.to_dict()

    def test_shard_key_invariant_to_backend(self):
        from repro.service.jobs import ShardSpec, shard_key

        base = dict(
            switch="sprinklers", workload="uniform", n=4, load=0.5,
            num_slots=100, seed=0, engine="vectorized",
        )
        keys = {shard_key(ShardSpec(**base))} | {
            shard_key(ShardSpec.from_dict(
                {**ShardSpec(**base).to_dict(), "backend": backend}
            ))
            for backend in (None, "numpy", "compiled")
        }
        assert len(keys) == 1


@pytest.mark.parametrize("argv", [
    ["fig6"],
    ["fig7"],
    ["scenarios", "run", "--scenario", "paper-uniform"],
    ["fabrics", "run"],
    ["fabrics", "delay"],
    ["submit"],
], ids=lambda argv: "-".join(argv[:2]))
def test_backend_kernel_flag_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--backend-kernel", "compiled"])
    assert exc.value.code == 2
    assert "--backend-kernel" in capsys.readouterr().err
