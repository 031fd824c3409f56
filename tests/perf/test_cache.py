"""Tests for the content-addressed artifact cache."""

import numpy as np
import pytest

from repro import telemetry
from repro.perf import cache as perf_cache
from repro.perf.cache import (
    ArtifactCache,
    code_fingerprint,
    reference_network,
    reference_network_key,
    stable_key,
)

#: Cheap training configuration shared by the round-trip tests.
TRAIN_KW = dict(workload="MLP-S", n_train=300, n_test=60, epochs=1, seed=11)


@pytest.fixture
def cache(tmp_path) -> ArtifactCache:
    return ArtifactCache(tmp_path / "cache")


@pytest.fixture
def metrics():
    """An enabled telemetry session, restored to disabled afterwards."""
    session = telemetry.enable()
    yield session
    telemetry.disable()


class TestKeying:
    def test_stable_key_deterministic_and_order_insensitive(self):
        a = stable_key({"x": 1, "y": "two"})
        b = stable_key({"y": "two", "x": 1})
        assert a == b
        assert a == stable_key({"x": 1, "y": "two"})

    def test_stable_key_distinguishes_payloads(self):
        assert stable_key({"x": 1}) != stable_key({"x": 2})

    def test_code_fingerprint_depends_on_module_set(self):
        one = code_fingerprint("repro.nn.network")
        two = code_fingerprint("repro.nn.network", "repro.nn.layers")
        assert one == code_fingerprint("repro.nn.network")
        assert one != two

    def test_every_key_component_moves_the_entry(self, cache):
        base = reference_network_key("MLP-S", 300, 60, 1, 11)
        variants = [
            reference_network_key("MLP-M", 300, 60, 1, 11),
            reference_network_key("MLP-S", 301, 60, 1, 11),
            reference_network_key("MLP-S", 300, 61, 1, 11),
            reference_network_key("MLP-S", 300, 60, 2, 11),
            reference_network_key("MLP-S", 300, 60, 1, 12),
        ]
        dirs = {
            cache.entry_dir("reference_network", key)
            for key in [base, *variants]
        }
        assert len(dirs) == len(variants) + 1

    def test_reference_key_fingerprints_the_trainer_not_the_studies(self):
        """The trained weights come from the training module; an edit
        to a study that only uses the net (the Fig. 6 sweep) must not
        move every cached reference network."""
        from repro.eval.reference import train_reference_network

        modules = perf_cache._TRAIN_MODULES
        assert train_reference_network.__module__ in modules
        assert "repro.eval.precision_study" not in modules
        assert "repro.eval.yield_study" not in modules


class TestReferenceNetworkRoundTrip:
    def test_miss_trains_then_hit_reloads_identically(
        self, cache, metrics
    ):
        net1, x1, y1 = reference_network(cache=cache, **TRAIN_KW)
        assert (
            telemetry.counter_value(
                "perf.cache.miss", kind="reference_network"
            )
            == 1
        )
        net2, x2, y2 = reference_network(cache=cache, **TRAIN_KW)
        assert (
            telemetry.counter_value(
                "perf.cache.hit", kind="reference_network"
            )
            == 1
        )
        assert net1.weights_fingerprint() == net2.weights_fingerprint()
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_changed_seed_misses_again(self, cache, metrics):
        reference_network(cache=cache, **TRAIN_KW)
        other = dict(TRAIN_KW, seed=TRAIN_KW["seed"] + 1)
        net_a, _, _ = reference_network(cache=cache, **other)
        assert (
            telemetry.counter_value(
                "perf.cache.miss", kind="reference_network"
            )
            == 2
        )
        net_b, _, _ = reference_network(cache=cache, **TRAIN_KW)
        assert net_a.weights_fingerprint() != net_b.weights_fingerprint()

    def test_corrupt_entry_is_evicted_and_retrained(self, cache):
        net1, _, _ = reference_network(cache=cache, **TRAIN_KW)
        key = reference_network_key(
            TRAIN_KW["workload"],
            TRAIN_KW["n_train"],
            TRAIN_KW["n_test"],
            TRAIN_KW["epochs"],
            TRAIN_KW["seed"],
        )
        entry = cache.entry_dir("reference_network", key)
        (entry / "weights.npz").write_bytes(b"not an npz")
        net2, _, _ = reference_network(cache=cache, **TRAIN_KW)
        assert net1.weights_fingerprint() == net2.weights_fingerprint()
        # the rebuilt entry serves hits again
        net3, _, _ = reference_network(cache=cache, **TRAIN_KW)
        assert net3.weights_fingerprint() == net1.weights_fingerprint()

    def test_truncated_entry_recovers_and_counts(self, cache, metrics):
        """A partially-written payload must never propagate the load
        error: the entry is evicted, the artifact retrained, and the
        corruption surfaces as the ``perf.cache.corrupt`` counter."""
        net1, x1, _ = reference_network(cache=cache, **TRAIN_KW)
        key = reference_network_key(
            TRAIN_KW["workload"],
            TRAIN_KW["n_train"],
            TRAIN_KW["n_test"],
            TRAIN_KW["epochs"],
            TRAIN_KW["seed"],
        )
        entry = cache.entry_dir("reference_network", key)
        payload = (entry / "weights.npz").read_bytes()
        (entry / "weights.npz").write_bytes(payload[: len(payload) // 2])
        net2, x2, _ = reference_network(cache=cache, **TRAIN_KW)
        assert net1.weights_fingerprint() == net2.weights_fingerprint()
        np.testing.assert_array_equal(x1, x2)
        assert telemetry.counter_total("perf.cache.corrupt") == 1
        # The rebuilt entry is whole again: hits without new corruption.
        reference_network(cache=cache, **TRAIN_KW)
        assert telemetry.counter_total("perf.cache.corrupt") == 1

    def test_disable_bypasses_storage(self, cache):
        perf_cache.disable()
        try:
            assert not perf_cache.active()
            reference_network(cache=cache, **TRAIN_KW)
            assert not list(cache.root.rglob("meta.json"))
        finally:
            perf_cache.enable()
        assert perf_cache.active()

