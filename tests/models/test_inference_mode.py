"""Inference entry points run without a tape and restore the module mode.

``DistanceRegressor.predict``, ``TinyDetector.detect`` and
``DenoisingDiffusionModel.predict_noise`` enter ``no_grad``; the first two
also switch to eval mode for the call and must switch a training model
back even when its forward raises.  ``predict_noise`` runs its network one
sample at a time and must equal one batched forward bit for bit.
"""

import numpy as np
import pytest

from repro.data.driving import MAX_DISTANCE
from repro.defenses.diffusion import DenoisingDiffusionModel
from repro.models import DistanceRegressor, TinyDetector
from repro.nn import Tensor, no_grad

FRAMES = np.random.default_rng(0).random((2, 3, 64, 128)).astype(np.float32)
SIGNS = np.random.default_rng(1).random((2, 3, 64, 64)).astype(np.float32)


def raising_forward(x):
    raise RuntimeError("forward failed")


def recording() -> bool:
    """Whether an op on a grad leaf records the tape."""
    x = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    out = x * 2.0
    return out.requires_grad and out._backward is not None


@pytest.mark.parametrize("model, call", [
    (DistanceRegressor(rng=np.random.default_rng(0)),
     lambda m: m.predict(FRAMES)),
    (TinyDetector(rng=np.random.default_rng(0)),
     lambda m: m.detect(SIGNS)),
])
def test_train_mode_is_restored_when_forward_raises(model, call):
    model.train()
    model.forward = raising_forward
    try:
        with pytest.raises(RuntimeError, match="forward failed"):
            call(model)
    finally:
        del model.forward
    assert model.training
    assert all(child.training for child in model.modules())
    assert recording()


def test_predict_leaves_no_gradients_and_matches_forward():
    model = DistanceRegressor(rng=np.random.default_rng(0))
    model.train()
    predicted = model.predict(FRAMES)
    assert model.training
    assert all(p.grad is None for p in model.parameters())
    model.eval()
    expected = model(Tensor(FRAMES)).data.reshape(-1) * MAX_DISTANCE
    np.testing.assert_array_equal(predicted, expected)


def test_predict_noise_leaves_no_gradients():
    prior = DenoisingDiffusionModel(timesteps=10, hidden=8, seed=0)
    x_t = np.random.default_rng(2).standard_normal(
        (2, 3, 16, 24)).astype(np.float32)
    eps = prior.predict_noise(x_t, 3)
    assert eps.shape == x_t.shape
    assert np.isfinite(eps).all()
    assert all(p.grad is None for p in prior.network.parameters())
    assert recording()


def batched_noise(prior, x_t, t):
    """One batched forward of the noise predictor, as predict_noise once ran."""
    sigma = np.full(len(x_t), prior.sigma(np.array([t]))[0], dtype=np.float32)
    with no_grad():
        return prior.network(Tensor(x_t), sigma).data


@pytest.mark.smoke
@pytest.mark.parametrize("batch", [1, 2, 3, 16])
@pytest.mark.parametrize("frame", [(64, 64), (64, 128)],
                         ids=["sign", "driving"])
@pytest.mark.parametrize("hidden", [8, 40])
def test_predict_noise_equals_one_batched_forward(hidden, frame, batch):
    prior = DenoisingDiffusionModel(timesteps=10, hidden=hidden, seed=hidden)
    x_t = np.random.default_rng(batch).standard_normal(
        (batch, 3) + frame).astype(np.float32)
    eps = prior.predict_noise(x_t, 3)
    expected = batched_noise(prior, x_t, 3)
    assert eps.dtype == expected.dtype
    assert np.array_equal(eps, expected)


@pytest.mark.smoke
def test_predict_noise_of_an_empty_batch_is_empty():
    prior = DenoisingDiffusionModel(timesteps=10, hidden=8, seed=0)
    eps = prior.predict_noise(np.zeros((0, 3, 64, 128), np.float32), 3)
    assert eps.shape == (0, 3, 64, 128)
    assert eps.dtype == np.float32
