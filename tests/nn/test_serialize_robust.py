"""Defensive checkpoint loading: corrupt caches degrade to misses."""

import numpy as np
import pytest

from repro.models.zoo import load_weights
from repro.nn import Linear, Sequential, serialize
from repro.runtime import store


def _model(seed=0):
    rng = np.random.default_rng(seed)
    model = Sequential(Linear(4, 8), Linear(8, 2))
    for _, param in model.named_parameters():
        param.data[...] = rng.normal(size=param.data.shape)
    return model


def _states_equal(a, b):
    sa, sb = a.state_dict(), b.state_dict()
    return set(sa) == set(sb) and all(
        np.array_equal(sa[k], sb[k]) for k in sa)


@pytest.mark.smoke
class TestRoundTrip:
    def test_save_load_module(self, tmp_path):
        path = str(tmp_path / "model.npz")
        source, target = _model(1), _model(2)
        store.save_state(path, source.state_dict())
        assert load_weights(path, target)
        assert _states_equal(source, target)

    def test_save_is_atomic_no_tmp_left_behind(self, tmp_path):
        path = str(tmp_path / "model.npz")
        store.save_state(path, _model().state_dict())
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "model.npz"]
        assert leftovers == []

    def test_fingerprint_tracks_weights(self):
        a, b = _model(1), _model(1)
        assert serialize.state_fingerprint(a) == serialize.state_fingerprint(b)
        for _, param in b.named_parameters():
            param.data += 1.0
            break
        assert serialize.state_fingerprint(a) != serialize.state_fingerprint(b)


@pytest.mark.smoke
class TestCorruptFallback:
    def test_missing_file_is_a_miss(self, tmp_path):
        assert store.try_load_state(str(tmp_path / "absent.npz")) is None
        assert not load_weights(str(tmp_path / "absent.npz"), _model())

    def test_garbage_bytes_are_a_miss_and_removed(self, tmp_path):
        path = tmp_path / "model.npz"
        path.write_bytes(b"not a zip archive at all")
        assert store.try_load_state(str(path)) is None
        assert not path.exists(), "corrupt checkpoint should be deleted"

    def test_truncated_archive_is_a_miss(self, tmp_path):
        path = str(tmp_path / "model.npz")
        store.save_state(path, _model().state_dict())
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        assert not load_weights(path, _model())

    def test_missing_key_is_a_miss(self, tmp_path):
        path = str(tmp_path / "model.npz")
        state = _model().state_dict()
        state.pop(sorted(state)[0])
        store.save_state(path, state)
        assert not load_weights(path, _model())

    def test_shape_mismatch_is_a_miss(self, tmp_path):
        path = str(tmp_path / "model.npz")
        store.save_state(path,
                         Sequential(Linear(4, 8), Linear(8, 3)).state_dict())
        assert not load_weights(path, _model())

    def test_failed_load_leaves_module_untouched(self, tmp_path):
        path = str(tmp_path / "model.npz")
        state = _model(3).state_dict()
        state.pop(sorted(state)[-1])  # defective: one parameter missing
        store.save_state(path, state)
        target = _model(4)
        before = {k: v.copy() for k, v in target.state_dict().items()}
        assert not load_weights(path, target)
        after = target.state_dict()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_retrain_rewrites_cleanly(self, tmp_path):
        # The zoo's contract: miss -> retrain -> atomic rewrite -> hit.
        path = tmp_path / "model.npz"
        path.write_bytes(b"corrupt")
        fresh = _model(5)
        assert not load_weights(str(path), fresh)
        store.save_state(str(path), fresh.state_dict())
        reloaded = _model(6)
        assert load_weights(str(path), reloaded)
        assert _states_equal(fresh, reloaded)
