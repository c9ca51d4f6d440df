"""ResultCache: hit/miss/invalidation, corrupt-entry fallback, codecs."""

import json
import os

import numpy as np
import pytest

from repro.eval.detection_metrics import DetectionMetrics
from repro.eval.regression_metrics import RangeErrors
from repro.runtime import array_fingerprint, codecs, env, fingerprint
from repro.runtime.cache import ResultCache


@pytest.fixture
def cache(tmp_path):
    return ResultCache(root=str(tmp_path), enabled=True)


def _range_errors():
    # np.float32 values, as range_binned_errors actually produces them
    return RangeErrors(errors={(0, 20): np.float32(11.5), (20, 40): -0.25},
                       counts={(0, 20): 12, (20, 40): 12})


@pytest.mark.smoke
class TestFingerprint:
    def test_stable_and_order_independent(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_sensitive_to_values(self):
        assert fingerprint({"a": 1}) != fingerprint({"a": 2})

    def test_array_fingerprint_content_addressed(self):
        a = np.arange(12, dtype=np.float32).reshape(3, 4)
        assert array_fingerprint(a) == array_fingerprint(a.copy())
        assert array_fingerprint(a) != array_fingerprint(a + 1)
        # dtype and shape are part of the identity, not just the bytes
        assert array_fingerprint(a) != array_fingerprint(a.reshape(4, 3))
        assert array_fingerprint(a) != array_fingerprint(a.astype(np.float64))


@pytest.mark.smoke
class TestArrayMemo:
    def test_miss_then_hit(self, cache):
        calls = []

        def compute():
            calls.append(1)
            return np.ones((2, 3), dtype=np.float32)

        config = {"attack": "FGSM", "v": 1}
        first = cache.memo_array("adv", config, compute)
        second = cache.memo_array("adv", config, compute)
        assert len(calls) == 1
        np.testing.assert_array_equal(first, second)

    def test_config_change_invalidates(self, cache):
        calls = []

        def compute():
            calls.append(1)
            return np.zeros(4, dtype=np.float32)

        cache.memo_array("adv", {"model": "aaaa", "v": 1}, compute)
        cache.memo_array("adv", {"model": "bbbb", "v": 1}, compute)
        assert len(calls) == 2

    def test_corrupt_entry_is_a_miss_and_removed(self, cache):
        config = {"x": 1}
        cache.save_arrays("adv", config, {"array": np.arange(3.0)})
        path = cache.path("adv", config, "npz")
        with open(path, "wb") as handle:
            handle.write(b"this is not a zip archive")
        result = cache.memo_array("adv", config, lambda: np.arange(3.0) * 2)
        np.testing.assert_array_equal(result, np.arange(3.0) * 2)
        # the rewrite repaired the entry
        with np.load(cache.path("adv", config, "npz")) as archive:
            np.testing.assert_array_equal(archive["array"], np.arange(3.0) * 2)


@pytest.mark.smoke
class TestJsonMemo:
    def test_metric_tuple_round_trip(self, cache):
        value = (_range_errors(), DetectionMetrics(91.0, 88.5, 90.0))
        cache.save_json("cell", {"v": 1}, value)
        loaded = cache.load_json("cell", {"v": 1})
        assert isinstance(loaded, tuple)
        errors, detection = loaded
        assert errors.errors == value[0].errors
        assert errors.counts == value[0].counts
        assert detection == value[1]

    def test_none_inside_tuple_survives(self, cache):
        cache.save_json("cell", {"v": 2},
                        (None, DetectionMetrics(1.0, 2.0, 3.0)))
        loaded = cache.load_json("cell", {"v": 2})
        assert loaded[0] is None
        assert loaded[1] == DetectionMetrics(1.0, 2.0, 3.0)

    def test_corrupt_json_is_a_miss(self, cache):
        cache.save_json("cell", {"v": 3}, {"fine": 1})
        path = cache.path("cell", {"v": 3}, "json")
        with open(path, "w") as handle:
            handle.write("{truncated")
        assert cache.load_json("cell", {"v": 3}) is None
        assert not os.path.exists(path)

    def test_files_are_human_inspectable(self, cache):
        cache.save_json("cell", {"v": 4}, _range_errors())
        with open(cache.path("cell", {"v": 4}, "json")) as handle:
            raw = json.load(handle)
        # Digest envelope wraps the payload; both stay plain readable JSON.
        assert raw["payload"]["__kind__"] == "range_errors"
        assert len(raw["digest"]) == 64


@pytest.mark.smoke
class TestCodecs:
    def test_scalar_and_ndarray_round_trip(self):
        original = {"a": 1, "b": 2.5, "c": None, "d": "s",
                    "e": np.float32(1.5), "f": np.arange(4)}
        restored = codecs.from_jsonable(
            json.loads(json.dumps(codecs.to_jsonable(original))))
        assert restored["a"] == 1 and restored["b"] == 2.5  # repro: noqa[R005] -- JSON round-trips these doubles bit-exactly
        assert restored["c"] is None and restored["d"] == "s"
        assert restored["e"] == 1.5  # repro: noqa[R005] -- JSON round-trips these doubles bit-exactly
        np.testing.assert_array_equal(restored["f"], np.arange(4))

    def test_tuple_keys_rejected(self):
        with pytest.raises(TypeError):
            codecs.to_jsonable({(0, 20): 1.0})

    def test_unknown_type_rejected(self):
        class Strange:
            pass
        with pytest.raises(TypeError):
            codecs.to_jsonable(Strange())


@pytest.mark.smoke
class TestToggle:
    def test_disabled_cache_never_stores(self, tmp_path, monkeypatch):
        monkeypatch.setenv(env.RESULT_CACHE.name, "0")
        cache = ResultCache(root=str(tmp_path))
        calls = []

        def compute():
            calls.append(1)
            return np.ones(2)

        cache.memo_array("adv", {"v": 1}, compute)
        cache.memo_array("adv", {"v": 1}, compute)
        assert len(calls) == 2
        assert list(tmp_path.iterdir()) == []

    def test_explicit_enabled_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(env.RESULT_CACHE.name, "0")
        cache = ResultCache(root=str(tmp_path), enabled=True)
        cache.memo_array("adv", {"v": 1}, lambda: np.ones(2))
        assert len(list(tmp_path.iterdir())) == 1
