"""Layer behaviour: shapes, modes, statistics, and state-dict round trips."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor


RNG = np.random.default_rng(3)


def rand_image(n=2, c=3, h=8, w=8):
    return Tensor(RNG.normal(size=(n, c, h, w)).astype(np.float32))


class TestConv2d:
    def test_output_shape_stride1(self):
        layer = nn.Conv2d(3, 8, 3, padding=1, rng=np.random.default_rng(0))
        out = layer(rand_image())
        assert out.shape == (2, 8, 8, 8)

    def test_output_shape_stride2(self):
        layer = nn.Conv2d(3, 4, 3, stride=2, padding=1, rng=np.random.default_rng(0))
        out = layer(rand_image())
        assert out.shape == (2, 4, 4, 4)

    def test_parameters_registered(self):
        layer = nn.Conv2d(3, 4, 3)
        names = dict(layer.named_parameters())
        assert set(names) == {"weight", "bias"}

    def test_no_bias(self):
        layer = nn.Conv2d(3, 4, 3, bias=False)
        assert set(dict(layer.named_parameters())) == {"weight"}


class TestLinear:
    def test_forward_matches_numpy(self):
        layer = nn.Linear(5, 2, rng=np.random.default_rng(1))
        x = RNG.normal(size=(3, 5)).astype(np.float32)
        out = layer(Tensor(x))
        expected = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(out.data, expected, rtol=1e-5)


class TestBatchNorm:
    def test_normalizes_batch_statistics(self):
        bn = nn.BatchNorm2d(4)
        x = Tensor(RNG.normal(3.0, 2.0, size=(8, 4, 6, 6)).astype(np.float32))
        out = bn(x)
        mean = out.data.mean(axis=(0, 2, 3))
        std = out.data.std(axis=(0, 2, 3))
        np.testing.assert_allclose(mean, np.zeros(4), atol=1e-4)
        np.testing.assert_allclose(std, np.ones(4), atol=1e-2)

    def test_running_stats_update(self):
        bn = nn.BatchNorm2d(2, momentum=0.5)
        x = Tensor(np.full((4, 2, 3, 3), 10.0, dtype=np.float32))
        bn(x)
        assert bn.running_mean[0] == pytest.approx(5.0)  # 0.5*0 + 0.5*10

    def test_eval_uses_running_stats(self):
        bn = nn.BatchNorm2d(2)
        for _ in range(50):
            bn(Tensor(RNG.normal(4.0, 1.0, size=(16, 2, 4, 4)).astype(np.float32)))
        bn.eval()
        x = Tensor(np.full((1, 2, 4, 4), 4.0, dtype=np.float32))
        out = bn(x)
        # An input at the running mean should map near zero.
        assert np.abs(out.data).max() < 0.5

    def test_gradients_flow_through(self):
        bn = nn.BatchNorm2d(2)
        x = Tensor(RNG.normal(size=(4, 2, 3, 3)).astype(np.float32), requires_grad=True)
        bn(x).sum().backward()
        assert x.grad is not None
        assert bn.gamma.grad is not None
        assert bn.beta.grad is not None


class TestSequentialAndModes:
    def test_sequential_chains(self):
        model = nn.Sequential(
            nn.Conv2d(3, 4, 3, padding=1, rng=np.random.default_rng(0)),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Flatten(),
            nn.Linear(4 * 4 * 4, 2, rng=np.random.default_rng(1)),
        )
        out = model(rand_image())
        assert out.shape == (2, 2)

    def test_train_eval_propagate(self):
        model = nn.Sequential(nn.Dropout(0.5), nn.Dropout(0.5))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_dropout_eval_identity(self):
        drop = nn.Dropout(0.9)
        drop.eval()
        x = rand_image()
        np.testing.assert_array_equal(drop(x).data, x.data)

    def test_zero_grad_clears(self):
        layer = nn.Linear(3, 1)
        layer(Tensor(np.ones((2, 3), dtype=np.float32))).sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None


class TestStateDict:
    def test_roundtrip(self):
        model = nn.Sequential(
            nn.ConvBlock(3, 4, rng=np.random.default_rng(0)),
            nn.Flatten(),
            nn.Linear(4 * 8 * 8, 2, rng=np.random.default_rng(1)),
        )
        state = model.state_dict()
        model2 = nn.Sequential(
            nn.ConvBlock(3, 4, rng=np.random.default_rng(42)),
            nn.Flatten(),
            nn.Linear(4 * 8 * 8, 2, rng=np.random.default_rng(43)),
        )
        model2.load_state_dict(state)
        x = rand_image()
        model.eval(), model2.eval()
        np.testing.assert_array_equal(model(x).data, model2(x).data)

    def test_missing_key_raises(self):
        model = nn.Linear(3, 2)
        with pytest.raises(KeyError):
            model.load_state_dict({})

    def test_shape_mismatch_raises(self):
        model = nn.Linear(3, 2)
        bad = model.state_dict()
        bad["weight"] = np.zeros((5, 5), dtype=np.float32)
        with pytest.raises(ValueError):
            model.load_state_dict(bad)

    def test_failed_load_assigns_nothing(self):
        model = nn.Sequential(nn.Linear(3, 4), nn.Linear(4, 2))
        before = {k: v.copy() for k, v in model.state_dict().items()}
        bad = {k: v + 1 for k, v in before.items()}
        bad["layer1.weight"] = np.zeros((5, 5), dtype=np.float32)
        with pytest.raises(ValueError):
            model.load_state_dict(bad)
        after = model.state_dict()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_buffers_in_state_dict(self):
        bn = nn.BatchNorm2d(3)
        assert "buffer.running_mean" in bn.state_dict()

    def test_file_roundtrip(self, tmp_path):
        from repro.runtime import store
        model = nn.Linear(4, 3, rng=np.random.default_rng(5))
        path = str(tmp_path / "model.npz")
        store.save_state(path, model.state_dict())
        model2 = nn.Linear(4, 3, rng=np.random.default_rng(9))
        model2.load_state_dict(store.load_state(path))
        np.testing.assert_array_equal(model.weight.data, model2.weight.data)


class TestNumParameters:
    def test_counts(self):
        layer = nn.Conv2d(3, 8, 3)
        assert layer.num_parameters() == 3 * 8 * 9 + 8
