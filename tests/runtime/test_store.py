"""Crash-consistent store: digests, atomicity, quarantine, corruption sweeps.

The adversarial corruption sweeps truncate / bit-flip an artifact at *every*
byte offset and assert the store's contract at each one: a damaged file is
either rejected and quarantined or — in the rare benign cases (trailing
padding) — decodes to exactly the original data.  Silent garbage is never
returned.
"""

import json
import os

import numpy as np
import pytest

from repro.runtime import store

pytestmark = pytest.mark.smoke


@pytest.fixture(autouse=True)
def _clean_events():
    store.clear_fault_events()
    store.reset_write_attempts()
    yield
    store.clear_fault_events()
    store.reset_write_attempts()


def _state():
    rng = np.random.default_rng(3)
    return {"weight": rng.normal(size=(4, 3)).astype(np.float32),
            "bias": np.arange(3, dtype=np.float64),
            "epoch": np.array(7)}


def _assert_same_state(a, b):
    assert sorted(a) == sorted(b)
    for key in a:
        np.testing.assert_array_equal(a[key], b[key])


class TestStateRoundTrip:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        state = _state()
        store.save_state(path, state)
        _assert_same_state(store.load_state(path), state)
        assert store.fault_events() == []

    def test_no_tmp_left_behind(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        store.save_state(path, _state())
        assert os.listdir(tmp_path) == ["ckpt.npz"]

    def test_digest_is_embedded(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        state = _state()
        store.save_state(path, state)
        with np.load(path) as archive:
            assert store.DIGEST_KEY in archive.files
            assert str(archive[store.DIGEST_KEY]) == store.state_digest(state)

    def test_reserved_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            store.save_state(str(tmp_path / "x.npz"),
                             {store.DIGEST_KEY: np.array(1)})

    def test_missing_file_is_a_miss(self, tmp_path):
        assert store.try_load_state(str(tmp_path / "absent.npz")) is None
        assert store.fault_events() == []

    def test_legacy_digestless_artifact_loads(self, tmp_path):
        # A digest-less archive is not trusted: it is quarantined, not loaded.
        path = str(tmp_path / "legacy.npz")
        with open(path, "wb") as handle:
            np.savez(handle, **_state())
        with pytest.raises(store.CorruptArtifact, match="<none>"):
            store.load_state(path)
        assert store.try_load_state(path) is None
        (event,) = store.fault_events()
        assert event.kind == "digest-mismatch"
        assert os.path.exists(event.quarantined_to)
        assert not os.path.exists(path)

    def test_overwrite_replaces_atomically(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        store.save_state(path, _state())
        second = {"only": np.array([1.0, 2.0])}
        store.save_state(path, second)
        _assert_same_state(store.load_state(path), second)


class TestStateDigest:
    def test_sensitive_to_values_names_and_shape(self):
        base = _state()
        renamed = dict(base)
        renamed["weight2"] = renamed.pop("weight")
        reshaped = dict(base, weight=base["weight"].reshape(3, 4))
        tweaked = dict(base, bias=base["bias"] + 1e-9)
        digests = {store.state_digest(s)
                   for s in (base, renamed, reshaped, tweaked)}
        assert len(digests) == 4

    def test_insensitive_to_insertion_order(self):
        state = _state()
        reversed_order = dict(reversed(list(state.items())))
        assert store.state_digest(state) == store.state_digest(reversed_order)


class TestQuarantine:
    def test_digest_mismatch_is_quarantined(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        state = _state()
        store.save_state(path, state)
        # Rewrite with a lying digest: a well-formed archive, wrong content.
        payload = dict(state, bias=state["bias"] + 1.0)
        payload[store.DIGEST_KEY] = np.array(store.state_digest(state))
        with open(path, "wb") as handle:
            np.savez(handle, **payload)
        assert store.try_load_state(path) is None
        assert not os.path.exists(path)
        events = store.fault_events()
        assert [e.kind for e in events] == ["digest-mismatch"]
        assert events[0].quarantined_to is not None
        assert os.path.exists(events[0].quarantined_to)
        assert store.QUARANTINE_DIRNAME in events[0].quarantined_to

    def test_quarantine_names_collide_safely(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        for _ in range(3):
            with open(path, "wb") as handle:
                handle.write(b"not a zip at all")
            assert store.try_load_state(path) is None
        names = sorted(os.listdir(tmp_path / store.QUARANTINE_DIRNAME))
        assert names == ["ckpt.npz", "ckpt.npz.1", "ckpt.npz.2"]

    def test_quarantine_is_bounded(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        for _ in range(store.QUARANTINE_KEEP + 5):
            with open(path, "wb") as handle:
                handle.write(b"garbage")
            store.quarantine(path, "unreadable", "test")
        kept = os.listdir(tmp_path / store.QUARANTINE_DIRNAME)
        assert len(kept) <= store.QUARANTINE_KEEP


class TestCorruptionSweeps:
    """Damage the artifact at every offset; silent garbage never escapes."""

    def _saved(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        state = {"w": np.arange(6, dtype=np.float32).reshape(2, 3)}
        store.save_state(path, state)
        with open(path, "rb") as handle:
            return path, state, handle.read()

    def test_truncation_at_every_offset(self, tmp_path):
        path, state, blob = self._saved(tmp_path)
        step = max(1, len(blob) // 64)  # sweep ~64 prefixes incl. 0 and n-1
        for cut in list(range(0, len(blob), step)) + [len(blob) - 1]:
            with open(path, "wb") as handle:
                handle.write(blob[:cut])
            loaded = store.try_load_state(path)
            assert loaded is None, f"truncation to {cut}B returned data"
            assert not os.path.exists(path)
        assert all(e.kind in ("unreadable", "digest-mismatch")
                   for e in store.fault_events())

    def test_bitflip_at_every_offset(self, tmp_path):
        path, state, blob = self._saved(tmp_path)
        step = max(1, len(blob) // 128)  # ~128 sampled offsets, ends pinned
        offsets = sorted(set(range(0, len(blob), step)) | {0, len(blob) - 1})
        for offset in offsets:
            damaged = bytearray(blob)
            damaged[offset] ^= 0xFF
            with open(path, "wb") as handle:
                handle.write(bytes(damaged))
            loaded = store.try_load_state(path)
            if loaded is not None:
                # A flip the decoder tolerated must decode to the original
                # content — anything else is silent garbage.
                _assert_same_state(loaded, state)
                assert os.path.exists(path)
            else:
                assert not os.path.exists(path)
            store.save_state(path, state)  # reset for the next offset
            store.clear_fault_events()


class TestJsonArtifacts:
    def test_round_trip_with_envelope(self, tmp_path):
        path = str(tmp_path / "cell.json")
        payload = {"rows": [1, 2.5, "x"], "nested": {"k": None}}
        store.save_json(path, payload)
        assert store.load_json(path) == payload
        with open(path) as handle:
            raw = json.load(handle)
        assert set(raw) == {"digest", "payload"}
        assert raw["digest"] == store.json_digest(payload)

    def test_tampered_payload_quarantined(self, tmp_path):
        path = str(tmp_path / "cell.json")
        store.save_json(path, {"value": 1})
        with open(path) as handle:
            raw = json.load(handle)
        raw["payload"]["value"] = 2
        with open(path, "w") as handle:
            json.dump(raw, handle)
        assert store.try_load_json(path) is None
        assert not os.path.exists(path)
        assert [e.kind for e in store.fault_events()] == ["digest-mismatch"]

    def test_torn_json_quarantined(self, tmp_path):
        path = str(tmp_path / "cell.json")
        store.save_json(path, {"value": list(range(50))})
        with open(path) as handle:
            text = handle.read()
        with open(path, "w") as handle:
            handle.write(text[:len(text) // 2])
        assert store.try_load_json(path) is None
        assert [e.kind for e in store.fault_events()] == ["unreadable"]

    def test_legacy_json_without_envelope_loads(self, tmp_path):
        # JSON without a digest envelope is quarantined, not loaded.
        path = str(tmp_path / "legacy.json")
        with open(path, "w") as handle:
            json.dump({"plain": True}, handle)
        with pytest.raises(store.CorruptArtifact, match="no digest envelope"):
            store.load_json(path)
        assert store.try_load_json(path) is None
        (event,) = store.fault_events()
        assert event.kind == "digest-mismatch"
        assert os.path.exists(event.quarantined_to)
        assert not os.path.exists(path)

    def test_payload_shaped_like_envelope_is_not_mistaken(self, tmp_path):
        # A user payload with exactly {digest, payload} keys still verifies,
        # because save_json wraps it in an *outer* envelope.
        path = str(tmp_path / "tricky.json")
        payload = {"digest": "abc", "payload": [1]}
        store.save_json(path, payload)
        assert store.load_json(path) == payload
