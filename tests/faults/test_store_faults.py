"""Disk-fault plane: injected torn writes, ENOSPC and bit rot at the store.

Chaos tests for the ``REPRO_FAULT_PLAN`` disk kinds.  Each scenario stages
an injected storage fault at a specific write attempt, then asserts the
store's recovery contract: the damage is detected on load, the defective
artifact is quarantined (never silently reused), any pre-existing artifact
survives untouched, and the retry write succeeds.
"""

import errno
import os

import numpy as np
import pytest

from repro.faults import RuntimeFaultPlan
from repro.faults.runtime import DISK_KINDS, maybe_disk_fault
from repro.runtime import env, store

pytestmark = pytest.mark.faults


@pytest.fixture(autouse=True)
def _clean(monkeypatch):
    monkeypatch.delenv(env.FAULT_PLAN.name, raising=False)
    store.clear_fault_events()
    store.reset_write_attempts()
    yield
    store.clear_fault_events()
    store.reset_write_attempts()


def _state():
    return {"w": np.arange(12, dtype=np.float32).reshape(3, 4)}


class TestDiskFaultPlan:
    def test_disk_kinds_parse(self):
        plan = RuntimeFaultPlan.parse(
            "torn-write@store,enospc@cache:attempt=1,bitrot@zoo")
        assert plan.disk_fault("store") == "torn-write"
        assert plan.disk_fault("cache", attempt=1) == "enospc"
        assert plan.disk_fault("cache", attempt=0) is None
        assert plan.disk_fault("zoo") == "bitrot"
        assert plan.disk_fault("elsewhere") is None

    def test_disk_kinds_do_not_fire_as_exec_faults(self):
        plan = RuntimeFaultPlan.parse("torn-write@store")
        plan.maybe_inject("store")  # must not raise / crash / hang

    def test_exec_kinds_do_not_fire_as_disk_faults(self):
        plan = RuntimeFaultPlan.parse("raise@store")
        assert plan.disk_fault("store") is None

    def test_module_helper_reads_env(self, monkeypatch):
        monkeypatch.setenv(env.FAULT_PLAN.name, "bitrot@store")
        assert maybe_disk_fault("store") == "bitrot"
        monkeypatch.delenv(env.FAULT_PLAN.name)
        assert maybe_disk_fault("store") is None

    def test_all_disk_kinds_registered(self):
        assert set(DISK_KINDS) == {"torn-write", "enospc", "bitrot"}


class TestTornWriteAtStore:
    def test_torn_write_detected_quarantined_and_retried(self, tmp_path,
                                                         monkeypatch):
        monkeypatch.setenv(env.FAULT_PLAN.name, "torn-write@store:attempt=0")
        path = str(tmp_path / "ckpt.npz")
        store.save_state(path, _state())  # write lands, then gets torn
        assert [e.kind for e in store.fault_events()] == ["torn-write"]
        # The torn artifact must read as a loud miss, not garbage.
        assert store.try_load_state(path) is None
        assert not os.path.exists(path)
        assert os.path.exists(
            os.path.join(tmp_path, store.QUARANTINE_DIRNAME, "ckpt.npz"))
        # Attempt 1 is past the planned fault: the rewrite is clean.
        store.save_state(path, _state())
        loaded = store.load_state(path)
        np.testing.assert_array_equal(loaded["w"], _state()["w"])

    def test_scope_mismatch_leaves_store_alone(self, tmp_path, monkeypatch):
        monkeypatch.setenv(env.FAULT_PLAN.name, "torn-write@elsewhere")
        path = str(tmp_path / "ckpt.npz")
        store.save_state(path, _state())
        assert store.fault_events() == []
        assert store.try_load_state(path) is not None


class TestEnospcAtStore:
    def test_prior_artifact_survives_injected_enospc(self, tmp_path,
                                                     monkeypatch):
        path = str(tmp_path / "ckpt.npz")
        original = _state()
        store.save_state(path, original)
        store.reset_write_attempts()
        monkeypatch.setenv(env.FAULT_PLAN.name, "enospc@store:attempt=0")
        with pytest.raises(OSError) as excinfo:
            store.save_state(path, {"w": np.zeros(3, dtype=np.float32)})
        assert excinfo.value.errno == errno.ENOSPC
        # No tmp droppings, and the pre-fault artifact is intact.
        assert sorted(os.listdir(tmp_path)) == ["ckpt.npz"]
        np.testing.assert_array_equal(store.load_state(path)["w"],
                                      original["w"])
        assert [e.kind for e in store.fault_events()] == ["enospc"]
        # The retry (attempt 1) commits the new artifact.
        replacement = {"w": np.zeros(3, dtype=np.float32)}
        store.save_state(path, replacement)
        np.testing.assert_array_equal(store.load_state(path)["w"],
                                      replacement["w"])

    def test_json_write_fails_cleanly_too(self, tmp_path, monkeypatch):
        monkeypatch.setenv(env.FAULT_PLAN.name, "enospc@store:attempt=0")
        path = str(tmp_path / "cell.json")
        with pytest.raises(OSError):
            store.save_json(path, {"rows": [1, 2]})
        assert os.listdir(tmp_path) == []
        store.save_json(path, {"rows": [1, 2]})
        assert store.load_json(path) == {"rows": [1, 2]}


class TestBitrotAtStore:
    def test_bitrot_caught_by_digest_and_regenerated(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv(env.FAULT_PLAN.name, "bitrot@store:attempt=0")
        path = str(tmp_path / "ckpt.npz")
        store.save_state(path, _state())
        assert [e.kind for e in store.fault_events()] == ["bitrot"]
        store.clear_fault_events()
        assert store.try_load_state(path) is None
        kinds = [e.kind for e in store.fault_events()]
        assert kinds and all(k in ("digest-mismatch", "unreadable")
                             for k in kinds)
        assert not os.path.exists(path)
        store.save_state(path, _state())
        np.testing.assert_array_equal(store.load_state(path)["w"],
                                      _state()["w"])

    def test_bitrot_hits_json_envelope_too(self, tmp_path, monkeypatch):
        monkeypatch.setenv(env.FAULT_PLAN.name, "bitrot@store:attempt=0")
        path = str(tmp_path / "cell.json")
        store.save_json(path, {"rows": list(range(64))})
        assert store.try_load_json(path) is None
        assert not os.path.exists(path)


class TestCheckpointerUnderDiskFaults:
    def test_training_resume_survives_torn_snapshot(self, tmp_path,
                                                    monkeypatch):
        """End to end: every snapshot write torn -> training still resumes
        correctly (from scratch), because torn snapshots quarantine as
        misses instead of feeding half-loaded weights to the model."""
        from repro.models.distance import DistanceRegressor
        from repro.models.training import EpochCheckpointer, train_regressor

        rng = np.random.default_rng(9)
        images = rng.random((6, 3, 64, 128), dtype=np.float32)
        distances = rng.uniform(5.0, 60.0, size=6)

        def run(checkpoint=None):
            model = DistanceRegressor(rng=np.random.default_rng(4))
            history = train_regressor(model, images, distances, epochs=2,
                                      batch_size=3, seed=4,
                                      checkpoint=checkpoint)
            return model.state_dict(), history

        baseline_state, baseline_history = run()
        monkeypatch.setenv(env.FAULT_PLAN.name, "torn-write@store")
        ckpt = EpochCheckpointer(str(tmp_path / "reg.ckpt.npz"))
        state, history = run(checkpoint=ckpt)
        assert history == baseline_history
        for key in baseline_state:
            np.testing.assert_array_equal(state[key], baseline_state[key])
        assert any(e.kind == "torn-write" for e in store.fault_events())
