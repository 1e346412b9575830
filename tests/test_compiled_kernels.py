"""Compiled kernel backend: bit parity, selection plumbing, key invariance.

The compiled backend (``repro.sim.kernels.compiled``) must be
indistinguishable from the NumPy reference in every observable — the
parity grid here compares the *entire* ``to_dict`` payload (extras
included) across every kernel switch, switch size, workload shape, and
both the monolithic and streamed replay forms.  Without numba installed
(the default container) the compiled passes run as pure Python, which is
the same arithmetic, so these tests are meaningful everywhere.

The remaining classes pin the plumbing around the kernels: backend
selection (global, scoped, per-run), the deliberate *exclusion* of the
backend from store cache keys, the fused-metrics histogram contract
(exact percentiles with and without retained samples), serialization
round-trips, and the service shard transport.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.experiment import resolve_run_params, run_single
from repro.sim.kernels.compiled import (
    KERNEL_BACKENDS,
    compiled_active,
    get_kernel_backend,
    kernel_backend,
    resolve_compiled_passes,
    set_kernel_backend,
)
from repro.sim.metrics import DelayStats, SimulationResult
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


@pytest.fixture(autouse=True)
def _numpy_backend_restored():
    """Every test starts and ends on the reference backend."""
    set_kernel_backend("numpy")
    yield
    set_kernel_backend("numpy")


def _run(switch, matrix, slots, backend, window_slots=None):
    return run_single(
        switch,
        matrix,
        slots,
        seed=7,
        load_label=0.8,
        engine="vectorized",
        keep_samples=True,
        backend=backend,
        window_slots=window_slots,
    )


class TestParityGrid:
    """Compiled == NumPy, bit for bit, across the whole kernel surface."""

    @pytest.mark.parametrize("n", (2, 8, 32))
    @pytest.mark.parametrize("switch", KERNEL_SWITCHES)
    def test_backend_parity(self, switch, n):
        slots = 24 * n + 160
        for label, make in WORKLOADS:
            matrix = make(n)
            ref = _run(switch, matrix, slots, "numpy")
            com = _run(switch, matrix, slots, "compiled")
            assert com.to_dict() == ref.to_dict(), (switch, n, label)
            # The streamed (windowed) replay dispatches the same compiled
            # passes window by window; parity must survive the carry
            # state (pending CSR tags, polled cursors, fold prev-max).
            strm = _run(switch, matrix, slots, "compiled", window_slots=48)
            assert strm.to_dict() == ref.to_dict(), (switch, n, label)

    def test_parameterized_kernel_parity(self):
        # PF's threshold is declared kernel-honored; the compiled
        # formation must follow it identically.
        matrix = uniform_matrix(8, 0.9)
        for threshold in (1, 3, 8):
            ref = run_single(
                "pf", matrix, 400, seed=3, engine="vectorized",
                switch_params={"threshold": threshold},
            )
            com = run_single(
                "pf", matrix, 400, seed=3, engine="vectorized",
                switch_params={"threshold": threshold}, backend="compiled",
            )
            assert com.to_dict() == ref.to_dict(), threshold

    def test_compiled_matches_object_oracle(self):
        matrix = diagonal_matrix(8, 0.9)
        obj = run_single(
            "sprinklers", matrix, 500, seed=7, load_label=0.8,
            engine="object",
        )
        com = _run("sprinklers", matrix, 500, "compiled")
        assert com.to_dict() == obj.to_dict()


class TestBackendSelection:
    def test_known_backends(self):
        assert KERNEL_BACKENDS == ("numpy", "compiled")
        assert get_kernel_backend() == "numpy"
        assert not compiled_active()

    def test_set_and_reset(self):
        set_kernel_backend("compiled")
        assert compiled_active()
        set_kernel_backend("numpy")
        assert not compiled_active()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            set_kernel_backend("fortran")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            run_single(
                "sprinklers", uniform_matrix(2, 0.5), 50,
                engine="vectorized", backend="fortran",
            )
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_run_params(
                "sprinklers", uniform_matrix(2, 0.5), 50, backend="fortran"
            )

    def test_context_manager_scopes_and_restores(self):
        with kernel_backend("compiled"):
            assert compiled_active()
            with kernel_backend(None):  # None = keep whatever is active
                assert compiled_active()
        assert not compiled_active()

    def test_context_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with kernel_backend("compiled"):
                raise RuntimeError("boom")
        assert get_kernel_backend() == "numpy"

    def test_run_single_backend_does_not_leak(self):
        _run("sprinklers", uniform_matrix(2, 0.5), 60, "compiled")
        assert get_kernel_backend() == "numpy"

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


class TestStoreKeyInvariance:
    def test_backend_not_in_cache_key(self):
        matrix = uniform_matrix(4, 0.7)
        base = resolve_run_params("sprinklers", matrix, 200, seed=1)
        for backend in KERNEL_BACKENDS:
            params = resolve_run_params(
                "sprinklers", matrix, 200, seed=1, backend=backend
            )
            assert params == base
            assert cache_key(params) == cache_key(base)

    def test_compiled_run_is_cache_hit_for_numpy(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        matrix = uniform_matrix(4, 0.8)
        kwargs = dict(
            num_slots=240, seed=2, load_label=0.8, engine="vectorized",
            store=store,
        )
        first = run_single(
            "sprinklers", matrix, backend="compiled", **kwargs
        )
        assert store.stats().saves == 1
        second = run_single("sprinklers", matrix, backend="numpy", **kwargs)
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

    @settings(max_examples=60, deadline=None)
    @given(
        samples=st.lists(
            st.integers(min_value=0, max_value=500), min_size=1, max_size=400
        ),
        q=st.one_of(
            st.integers(min_value=0, max_value=100),
            st.floats(
                min_value=0.0, max_value=100.0,
                allow_nan=False, allow_infinity=False,
            ),
        ),
    )
    def test_histogram_percentile_pins_numpy(self, samples, q):
        stats = DelayStats(keep_samples=False)
        for s in samples:
            stats.add(s)
        assert stats.percentile(q) == pytest.approx(
            float(np.percentile(samples, q)), rel=1e-12, abs=1e-12
        )

    def test_empty_stats_percentile_nan(self):
        assert math.isnan(DelayStats(keep_samples=False).percentile(50))


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
        payload = store.backend.get(cache_key(params))
        assert "delay_samples" not in payload["result"]
        assert payload["result"]["delay_histogram"]


class TestShardTransport:
    def test_shard_round_trip_with_backend(self):
        from repro.service.jobs import JobRequest, ShardSpec, expand_shards

        request = JobRequest(
            workload="uniform",
            switches=("sprinklers",),
            loads=(0.5,),
            n=4,
            num_slots=100,
            engine="vectorized",
            backend="compiled",
        )
        assert JobRequest.from_dict(request.to_dict()) == request
        (shard,) = expand_shards(request)
        assert shard.backend == "compiled"
        assert ShardSpec.from_dict(shard.to_dict()) == shard
        # Legacy payloads (no backend field) still parse.
        legacy = {
            k: v for k, v in shard.to_dict().items() if k != "backend"
        }
        assert ShardSpec.from_dict(legacy).backend is None

    def test_shard_key_invariant_to_backend(self):
        from repro.service.jobs import ShardSpec, shard_key

        base = dict(
            switch="sprinklers", workload="uniform", n=4, load=0.5,
            num_slots=100, seed=0, engine="vectorized",
        )
        keys = {
            shard_key(ShardSpec(backend=backend, **base))
            for backend in (None, "numpy", "compiled")
        }
        assert len(keys) == 1
