"""Unit tests for seeded randomness management (sim/rng.py)."""

import pytest

from repro.sim.rng import derive_seed, spawn_generator, traffic_rng


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "traffic") == derive_seed(7, "traffic")

    def test_names_distinct(self):
        assert derive_seed(7, "traffic") != derive_seed(7, "placement")

    def test_masters_distinct(self):
        assert derive_seed(7, "traffic") != derive_seed(8, "traffic")

    def test_pinned_values(self):
        # Stored results are keyed by seeds derived here: a change in the
        # derivation silently changes every stream.
        assert derive_seed(1, "traffic") == 1708881321632643341
        assert derive_seed(0, "placement") == 3480207682188541672

    def test_is_a_uint64_int(self):
        seed = derive_seed(2**40, "traffic")
        assert type(seed) is int
        assert 0 <= seed < 2**64

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(-1, "x")


class TestSpawnGenerator:
    def test_streams_reproducible(self):
        a = spawn_generator(3, "s").random(5)
        b = spawn_generator(3, "s").random(5)
        assert (a == b).all()

    def test_streams_independent_names(self):
        a = spawn_generator(3, "s1").random(5)
        b = spawn_generator(3, "s2").random(5)
        assert (a != b).any()

    def test_streams_independent_masters(self):
        a = spawn_generator(3, "s").random(5)
        b = spawn_generator(4, "s").random(5)
        assert (a != b).any()


class TestTrafficRng:
    def test_is_the_traffic_stream(self):
        a = traffic_rng(5).random(4)
        b = spawn_generator(5, "traffic").random(4)
        assert (a == b).all()

    def test_each_call_restarts_the_stream(self):
        first = traffic_rng(5)
        first.random(10)
        assert traffic_rng(5).random() == spawn_generator(5, "traffic").random()
