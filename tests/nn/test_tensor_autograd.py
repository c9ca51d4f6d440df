"""Gradient correctness of the autodiff engine.

Every gradient is checked against central finite differences.  These tests
are the foundation of the whole reproduction: FGSM/Auto-PGD/RP2/CAP are only
as correct as the input gradients this engine produces.
"""

import weakref

import numpy as np
import pytest

from repro.nn import Tensor, concatenate, stack, where
from repro.nn import functional as F


def numerical_grad(fn, x: np.ndarray, eps: float = 1e-2) -> np.ndarray:
    """Central finite-difference gradient of scalar-valued ``fn`` at ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(x)
        flat[i] = original - eps
        minus = fn(x)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_grad(build, x: np.ndarray, atol: float = 2e-2, rtol: float = 2e-2):
    """Compare autodiff grad of ``build(Tensor)`` against finite differences."""
    t = Tensor(x.copy(), requires_grad=True)
    out = build(t)
    out.backward()
    auto = t.grad

    def scalar_fn(arr):
        return float(build(Tensor(arr)).data)

    numeric = numerical_grad(scalar_fn, x.astype(np.float64).copy())
    np.testing.assert_allclose(auto, numeric, atol=atol, rtol=rtol)


RNG = np.random.default_rng(7)


class TestElementwiseGradients:
    def test_add(self):
        check_grad(lambda t: (t + 3.0).sum(), RNG.normal(size=(4, 3)).astype(np.float32))

    def test_sub(self):
        check_grad(lambda t: (5.0 - t).sum(), RNG.normal(size=(4, 3)).astype(np.float32))

    def test_mul(self):
        c = RNG.normal(size=(4, 3)).astype(np.float32)
        check_grad(lambda t: (t * Tensor(c)).sum(), RNG.normal(size=(4, 3)).astype(np.float32))

    def test_div(self):
        x = RNG.uniform(0.5, 2.0, size=(3, 3)).astype(np.float32)
        check_grad(lambda t: (1.0 / t).sum(), x)

    def test_pow(self):
        x = RNG.uniform(0.5, 2.0, size=(5,)).astype(np.float32)
        check_grad(lambda t: (t ** 3).sum(), x)

    def test_exp(self):
        check_grad(lambda t: t.exp().sum(), RNG.normal(size=(4,)).astype(np.float32))

    def test_log(self):
        x = RNG.uniform(0.5, 3.0, size=(4,)).astype(np.float32)
        check_grad(lambda t: t.log().sum(), x)

    def test_sqrt(self):
        x = RNG.uniform(0.5, 3.0, size=(4,)).astype(np.float32)
        check_grad(lambda t: t.sqrt().sum(), x)

    def test_tanh(self):
        check_grad(lambda t: t.tanh().sum(), RNG.normal(size=(4,)).astype(np.float32))

    def test_sigmoid(self):
        check_grad(lambda t: t.sigmoid().sum(), RNG.normal(size=(6,)).astype(np.float32))

    def test_relu(self):
        x = RNG.normal(size=(10,)).astype(np.float32)
        x[np.abs(x) < 0.1] = 0.5  # keep away from the kink
        check_grad(lambda t: t.relu().sum(), x)

    def test_leaky_relu(self):
        x = RNG.normal(size=(10,)).astype(np.float32)
        x[np.abs(x) < 0.1] = -0.5
        check_grad(lambda t: t.leaky_relu(0.2).sum(), x)

    def test_silu(self):
        check_grad(lambda t: t.silu().sum(), RNG.normal(size=(8,)).astype(np.float32))

    def test_abs(self):
        x = RNG.normal(size=(8,)).astype(np.float32)
        x[np.abs(x) < 0.1] = 1.0
        check_grad(lambda t: t.abs().sum(), x)

    def test_clip_passes_grad_inside_bounds(self):
        x = np.array([0.5, -0.5, 2.0, -2.0], dtype=np.float32)
        t = Tensor(x, requires_grad=True)
        t.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_array_equal(t.grad, [1.0, 1.0, 0.0, 0.0])


class TestBroadcastingGradients:
    def test_add_broadcast_row(self):
        b = RNG.normal(size=(1, 3)).astype(np.float32)
        check_grad(lambda t: (Tensor(RNG.normal(size=(4, 3)).astype(np.float32)) + t).sum() if False else (t + Tensor(b)).sum(),
                   RNG.normal(size=(4, 3)).astype(np.float32))

    def test_mul_broadcast_scalar_operand(self):
        x = RNG.normal(size=(2, 3)).astype(np.float32)
        big = Tensor(RNG.normal(size=(4, 2, 3)).astype(np.float32))
        t = Tensor(x.copy(), requires_grad=True)
        (big * t).sum().backward()
        assert t.grad.shape == (2, 3)

    def test_bias_broadcast_grad_shape(self):
        bias = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        x = Tensor(RNG.normal(size=(5, 3)).astype(np.float32))
        (x + bias).sum().backward()
        np.testing.assert_allclose(bias.grad, np.full(3, 5.0))


class TestReductionsAndShapes:
    def test_sum_axis(self):
        check_grad(lambda t: (t.sum(axis=0) ** 2).sum(),
                   RNG.normal(size=(3, 4)).astype(np.float32))

    def test_mean_axis_keepdims(self):
        check_grad(lambda t: (t.mean(axis=1, keepdims=True) * t).sum(),
                   RNG.normal(size=(3, 4)).astype(np.float32))

    def test_max_reduction(self):
        x = np.array([[1.0, 5.0, 2.0], [7.0, 0.0, 3.0]], dtype=np.float32)
        t = Tensor(x, requires_grad=True)
        t.max(axis=1).sum().backward()
        expected = np.array([[0, 1, 0], [1, 0, 0]], dtype=np.float32)
        np.testing.assert_array_equal(t.grad, expected)

    def test_reshape(self):
        check_grad(lambda t: (t.reshape(6) ** 2).sum(),
                   RNG.normal(size=(2, 3)).astype(np.float32))

    def test_transpose(self):
        c = RNG.normal(size=(4, 3)).astype(np.float32)
        check_grad(lambda t: (t.transpose(1, 0) * Tensor(c)).sum(),
                   RNG.normal(size=(3, 4)).astype(np.float32))

    def test_getitem(self):
        x = RNG.normal(size=(4, 5)).astype(np.float32)
        t = Tensor(x, requires_grad=True)
        t[1:3, 2:4].sum().backward()
        expected = np.zeros((4, 5), dtype=np.float32)
        expected[1:3, 2:4] = 1.0
        np.testing.assert_array_equal(t.grad, expected)

    def test_getitem_fancy_repeated_indices_accumulate(self):
        t = Tensor(np.arange(4, dtype=np.float32), requires_grad=True)
        idx = np.array([0, 0, 2])
        t[idx].sum().backward()
        np.testing.assert_array_equal(t.grad, [2.0, 0.0, 1.0, 0.0])

    def test_matmul(self):
        b = RNG.normal(size=(3, 2)).astype(np.float32)
        check_grad(lambda t: (t @ Tensor(b)).sum(),
                   RNG.normal(size=(4, 3)).astype(np.float32))

    def test_matmul_weight_grad(self):
        a = Tensor(RNG.normal(size=(4, 3)).astype(np.float32))
        w = Tensor(RNG.normal(size=(3, 2)).astype(np.float32), requires_grad=True)
        (a @ w).sum().backward()
        np.testing.assert_allclose(w.grad, a.data.T @ np.ones((4, 2)), rtol=1e-5)

    def test_concatenate(self):
        a = Tensor(RNG.normal(size=(2, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(RNG.normal(size=(2, 2)).astype(np.float32), requires_grad=True)
        (concatenate([a, b], axis=1) ** 2).sum().backward()
        np.testing.assert_allclose(a.grad, 2 * a.data, rtol=1e-5)
        np.testing.assert_allclose(b.grad, 2 * b.data, rtol=1e-5)

    def test_stack(self):
        a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        out = stack([a, b], axis=0)
        (out * Tensor(np.array([[1, 2, 3], [4, 5, 6]], dtype=np.float32))).sum().backward()
        np.testing.assert_array_equal(a.grad, [1, 2, 3])
        np.testing.assert_array_equal(b.grad, [4, 5, 6])

    def test_where(self):
        cond = np.array([True, False, True])
        a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        b = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        where(cond, a, b).sum().backward()
        np.testing.assert_array_equal(a.grad, [1, 0, 1])
        np.testing.assert_array_equal(b.grad, [0, 1, 0])


class TestGraphMechanics:
    def test_grad_accumulates_across_uses(self):
        t = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        (t * t + t).backward()  # d/dt (t^2 + t) = 2t + 1 = 5
        np.testing.assert_allclose(t.grad, [5.0])

    def test_detach_blocks_gradient(self):
        t = Tensor(np.array([3.0], dtype=np.float32), requires_grad=True)
        out = t.detach() * t
        out.backward()
        np.testing.assert_allclose(t.grad, [3.0])  # only the non-detached path

    def test_backward_requires_grad(self):
        t = Tensor(np.zeros(3))
        with pytest.raises(RuntimeError):
            t.backward()

    def test_diamond_graph(self):
        # y = (a+b) * (a-b); dy/da = 2a, dy/db = -2b
        a = Tensor(np.array([3.0], dtype=np.float32), requires_grad=True)
        b = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        ((a + b) * (a - b)).backward()
        np.testing.assert_allclose(a.grad, [6.0])
        np.testing.assert_allclose(b.grad, [-4.0])

    def test_deep_chain_no_recursion_error(self):
        t = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        out = t
        for _ in range(3000):
            out = out + 0.001
        out.backward()
        np.testing.assert_allclose(t.grad, [1.0])

    def test_second_backward_after_zero_grad(self):
        t = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        (t * t).backward()
        first = t.grad.copy()
        t.zero_grad()
        (t * t).backward()
        np.testing.assert_allclose(t.grad, first)


@pytest.mark.smoke
class TestTapeRelease:
    """backward() frees the tape as it sweeps it, and a second sweep through
    the freed graph fails instead of silently stopping."""

    @staticmethod
    def leaves():
        x = Tensor(np.array([1.0, -2.0, 3.0], dtype=np.float32), requires_grad=True)
        w = Tensor(np.array([0.5, 4.0, -1.5], dtype=np.float32), requires_grad=True)
        return x, w

    def test_sweep_frees_saved_activation_while_loss_is_held(self):
        x, w = self.leaves()
        h = x * w
        saved = weakref.ref(h.data)  # the VJPs of h * h save h.data
        loss = (h * h).sum()
        del h
        assert saved() is not None  # the graph under loss pins it
        loss.backward()
        assert saved() is None  # freed by the sweep, loss still referenced
        assert loss.grad is not None

    def test_interior_nodes_released_leaf_and_root_grads_kept(self):
        x, w = self.leaves()
        h = x * w
        y = h * h
        loss = y.sum()
        loss.backward()
        for node in (h, y, loss):
            assert node._backward is None and node._parents == ()
        assert h.grad is None and y.grad is None
        np.testing.assert_array_equal(loss.grad, np.float32(1.0))
        # loss = sum((x w)^2): dx = 2 x w^2, dw = 2 x^2 w
        np.testing.assert_allclose(x.grad, 2 * x.data * w.data ** 2)
        np.testing.assert_allclose(w.grad, 2 * x.data ** 2 * w.data)

    @pytest.mark.parametrize("build", [
        lambda x, w: (x * w).sum(),          # root's parent is interior
        lambda x, w: x.sum() + w.sum(),      # root's parents reach leaves
    ], ids=["interior-parent", "leaf-parents"])
    def test_second_backward_on_one_loss_raises(self, build):
        x, w = self.leaves()
        loss = build(x, w)
        loss.backward()
        first = x.grad.copy()
        with pytest.raises(RuntimeError, match=loss._op + ".*forward again"):
            loss.backward()
        np.testing.assert_array_equal(x.grad, first)  # nothing accumulated

    def test_second_root_through_swept_subgraph_raises(self):
        x, w = self.leaves()
        h = x * w
        a = (h * 2.0).sum()
        b = (h * 3.0).sum()
        a.backward()
        with pytest.raises(RuntimeError, match="Tensor.__mul__.*forward again"):
            b.backward()


class TestFunctionalGradients:
    def test_conv2d_input_grad(self):
        x = RNG.normal(size=(1, 2, 5, 5)).astype(np.float32)
        w = Tensor(RNG.normal(size=(3, 2, 3, 3)).astype(np.float32))
        b = Tensor(RNG.normal(size=(3,)).astype(np.float32))
        check_grad(lambda t: (F.conv2d(t, w, b, stride=1, padding=1) ** 2).sum(), x)

    def test_conv2d_weight_grad(self):
        x = Tensor(RNG.normal(size=(2, 2, 5, 5)).astype(np.float32))
        w_data = RNG.normal(size=(3, 2, 3, 3)).astype(np.float32)

        def build(t):
            return (F.conv2d(x, t, None, stride=2, padding=1) ** 2).sum()

        check_grad(build, w_data)

    def test_conv2d_bias_grad(self):
        x = Tensor(RNG.normal(size=(2, 1, 4, 4)).astype(np.float32))
        w = Tensor(RNG.normal(size=(2, 1, 3, 3)).astype(np.float32))
        bias = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        out = F.conv2d(x, w, bias, padding=1)
        out.sum().backward()
        # Each bias element receives one gradient per output pixel per batch.
        np.testing.assert_allclose(bias.grad, np.full(2, 2 * 4 * 4), rtol=1e-5)

    def test_max_pool_grad(self):
        x = RNG.normal(size=(1, 2, 4, 4)).astype(np.float32)
        check_grad(lambda t: (F.max_pool2d(t, 2) ** 2).sum(), x)

    def test_avg_pool_grad(self):
        x = RNG.normal(size=(1, 2, 4, 4)).astype(np.float32)
        check_grad(lambda t: (F.avg_pool2d(t, 2) ** 2).sum(), x)

    def test_pad2d_grad(self):
        x = RNG.normal(size=(1, 1, 3, 3)).astype(np.float32)
        check_grad(lambda t: (F.pad2d(t, (1, 2)) ** 2).sum(), x)

    def test_softmax_rows_sum_to_one(self):
        x = Tensor(RNG.normal(size=(4, 7)).astype(np.float32))
        probs = F.softmax(x, axis=-1)
        np.testing.assert_allclose(probs.data.sum(axis=-1), np.ones(4), rtol=1e-5)

    def test_log_softmax_grad(self):
        x = RNG.normal(size=(2, 5)).astype(np.float32)
        check_grad(lambda t: F.log_softmax(t, axis=-1)[np.arange(2), [1, 3]].sum(), x)

    def test_dropout_eval_is_identity(self):
        rng = np.random.default_rng(0)
        x = Tensor(RNG.normal(size=(3, 3)).astype(np.float32))
        out = F.dropout(x, 0.5, rng, training=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200), dtype=np.float32))
        out = F.dropout(x, 0.3, rng, training=True)
        assert abs(out.data.mean() - 1.0) < 0.02


class TestConvNumericsAgainstScipy:
    def test_conv2d_matches_scipy_correlate(self):
        from scipy.signal import correlate2d
        x = RNG.normal(size=(1, 1, 8, 8)).astype(np.float32)
        w = RNG.normal(size=(1, 1, 3, 3)).astype(np.float32)
        out = F.conv2d(Tensor(x), Tensor(w), None, stride=1, padding=1)
        expected = correlate2d(x[0, 0], w[0, 0], mode="same")
        np.testing.assert_allclose(out.data[0, 0], expected, atol=1e-4)

    def test_conv2d_multichannel_sums_channels(self):
        x = RNG.normal(size=(1, 3, 6, 6)).astype(np.float32)
        w = RNG.normal(size=(2, 3, 3, 3)).astype(np.float32)
        out = F.conv2d(Tensor(x), Tensor(w), None, padding=0)
        from scipy.signal import correlate2d
        expected = np.zeros((2, 4, 4))
        for f in range(2):
            for c in range(3):
                expected[f] += correlate2d(x[0, c], w[f, c], mode="valid")
        np.testing.assert_allclose(out.data[0], expected, atol=1e-4)


class TestUpsample:
    def test_upsample_shape_and_values(self):
        x = Tensor(np.arange(4, dtype=np.float32).reshape(1, 1, 2, 2))
        out = F.upsample_nearest2d(x, 2)
        assert out.shape == (1, 1, 4, 4)
        np.testing.assert_array_equal(out.data[0, 0, :2, :2],
                                      [[0, 0], [0, 0]])
        assert out.data[0, 0, 2, 2] == 3.0  # repro: noqa[R005] -- max-pool selects an input element bit-unchanged

    def test_upsample_grad_sums_blocks(self):
        x = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32), requires_grad=True)
        F.upsample_nearest2d(x, 2).sum().backward()
        np.testing.assert_array_equal(x.grad, np.full((1, 1, 2, 2), 4.0))

    def test_upsample_grad_numeric(self):
        x = RNG.normal(size=(1, 2, 3, 3)).astype(np.float32)
        check_grad(lambda t: (F.upsample_nearest2d(t, 2) ** 2).sum(), x)
