"""Mid-training checkpoint/resume: killed runs finish bit-identically.

The contract under test: a training run killed at *any* epoch boundary and
resumed from its snapshot produces final weights, optimizer state and loss
history byte-for-byte equal to the uninterrupted run.  The kill is staged
through the epoch callback, which the training loops invoke *after* the
snapshot for that epoch is safely on disk.
"""

import numpy as np
import pytest

from repro.models.detector import TinyDetector
from repro.models.distance import DistanceRegressor
from repro.models.training import (EpochCheckpointer, train_detector,
                                   train_regressor)
from repro.runtime import store

EPOCHS = 4


class Killed(RuntimeError):
    """Stand-in for kill -9 at an epoch boundary."""


def _kill_after(epoch_to_die):
    def callback(epoch, loss):
        if epoch + 1 == epoch_to_die:
            raise Killed(f"killed after epoch {epoch + 1}")
    return callback


@pytest.fixture(autouse=True)
def _clean_store_events():
    store.clear_fault_events()
    yield
    store.clear_fault_events()


@pytest.fixture(scope="module")
def detector_data():
    from repro.data.signs import SignDataset
    dataset = SignDataset(6, seed=21)
    return dataset.images(), [scene.boxes for scene in dataset.scenes]


@pytest.fixture(scope="module")
def regressor_data():
    rng = np.random.default_rng(22)
    images = rng.random((8, 3, 64, 128), dtype=np.float32)
    distances = rng.uniform(5.0, 60.0, size=8)
    return images, distances


def _train_detector(images, targets, checkpoint=None, callback=None):
    model = TinyDetector(rng=np.random.default_rng(5))
    history = train_detector(model, images, targets, epochs=EPOCHS,
                             batch_size=4, seed=5, callback=callback,
                             checkpoint=checkpoint)
    return model, history


def _train_regressor(images, distances, checkpoint=None, callback=None):
    model = DistanceRegressor(rng=np.random.default_rng(6))
    history = train_regressor(model, images, distances, epochs=EPOCHS,
                              batch_size=4, seed=6, callback=callback,
                              checkpoint=checkpoint)
    return model, history


def _assert_bit_identical(result, baseline):
    model, history = result
    base_model, base_history = baseline
    assert history == base_history
    state, base_state = model.state_dict(), base_model.state_dict()
    assert sorted(state) == sorted(base_state)
    for key in state:
        np.testing.assert_array_equal(state[key], base_state[key],
                                      err_msg=key)


class TestDetectorResume:
    @pytest.fixture(scope="class")
    def baseline(self, detector_data):
        return _train_detector(*detector_data)

    @pytest.mark.parametrize("kill_epoch", range(1, EPOCHS + 1))
    def test_kill_at_every_epoch_resumes_bit_identical(
            self, detector_data, baseline, tmp_path, kill_epoch):
        ckpt = EpochCheckpointer(str(tmp_path / "det.ckpt.npz"))
        with pytest.raises(Killed):
            _train_detector(*detector_data, checkpoint=ckpt,
                            callback=_kill_after(kill_epoch))
        resumed = _train_detector(*detector_data, checkpoint=ckpt)
        _assert_bit_identical(resumed, baseline)

    def test_corrupt_snapshot_restarts_from_scratch(self, detector_data,
                                                    baseline, tmp_path):
        ckpt = EpochCheckpointer(str(tmp_path / "det.ckpt.npz"))
        with pytest.raises(Killed):
            _train_detector(*detector_data, checkpoint=ckpt,
                            callback=_kill_after(2))
        with open(ckpt.path, "r+b") as handle:
            handle.truncate(100)
        resumed = _train_detector(*detector_data, checkpoint=ckpt)
        _assert_bit_identical(resumed, baseline)
        kinds = [event.kind for event in store.fault_events()]
        assert "unreadable" in kinds  # quarantined, not silently reused

    def test_checkpointing_does_not_change_uninterrupted_runs(
            self, detector_data, baseline, tmp_path):
        ckpt = EpochCheckpointer(str(tmp_path / "det.ckpt.npz"))
        result = _train_detector(*detector_data, checkpoint=ckpt)
        _assert_bit_identical(result, baseline)

    def test_every_zero_disables_snapshots(self, detector_data, tmp_path):
        import os
        ckpt = EpochCheckpointer(str(tmp_path / "det.ckpt.npz"), every=0)
        _train_detector(*detector_data, checkpoint=ckpt)
        assert not os.path.exists(ckpt.path)


class TestRegressorResume:
    @pytest.fixture(scope="class")
    def baseline(self, regressor_data):
        return _train_regressor(*regressor_data)

    @pytest.mark.parametrize("kill_epoch", range(1, EPOCHS + 1))
    def test_kill_at_every_epoch_resumes_bit_identical(
            self, regressor_data, baseline, tmp_path, kill_epoch):
        ckpt = EpochCheckpointer(str(tmp_path / "reg.ckpt.npz"))
        with pytest.raises(Killed):
            _train_regressor(*regressor_data, checkpoint=ckpt,
                             callback=_kill_after(kill_epoch))
        resumed = _train_regressor(*regressor_data, checkpoint=ckpt)
        _assert_bit_identical(resumed, baseline)

    def test_snapshot_interval_still_bit_identical(self, regressor_data,
                                                   baseline, tmp_path):
        # every=2: a kill after epoch 3 resumes from the epoch-2 snapshot
        # and replays epoch 3 — still bit-identical, just more recompute.
        ckpt = EpochCheckpointer(str(tmp_path / "reg.ckpt.npz"), every=2)
        with pytest.raises(Killed):
            _train_regressor(*regressor_data, checkpoint=ckpt,
                             callback=_kill_after(3))
        resumed = _train_regressor(*regressor_data, checkpoint=ckpt)
        _assert_bit_identical(resumed, baseline)


@pytest.mark.analysis
class TestResumeUnderDeterminismAuditor:
    """The determinism oracle's fingerprints verify the resume contract."""

    def test_killed_and_resumed_training_audits_deterministic(
            self, regressor_data, tmp_path):
        from repro.analysis.determinism import (first_divergence,
                                                result_fingerprint)

        images, distances = regressor_data
        uninterrupted = _train_regressor(images, distances)[0].state_dict()
        counter = {"n": 0}

        def killed_resumed_training():
            counter["n"] += 1
            path = str(tmp_path / f"audit-{counter['n']}.ckpt.npz")
            ckpt = EpochCheckpointer(path)
            with pytest.raises(Killed):
                _train_regressor(images, distances, checkpoint=ckpt,
                                 callback=_kill_after(2))
            model, _ = _train_regressor(images, distances, checkpoint=ckpt)
            return model.state_dict()

        first, second = killed_resumed_training(), killed_resumed_training()
        assert (result_fingerprint(first) == result_fingerprint(second)
                == result_fingerprint(uninterrupted)), \
            first_divergence(first, second)
