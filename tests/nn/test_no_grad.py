"""``no_grad`` and ``Module.frozen``.

``no_grad``: inference records no tape, nests, and keeps the sanitizer.
``Module.frozen``: parameters act as constants for the block and get back
exactly the ``requires_grad`` they had.
"""

import numpy as np
import pytest

from repro.analysis import sanitize
from repro.analysis.sanitize import SanitizeError
from repro.nn import (BatchNorm2d, Conv2d, Linear, Sequential, Tensor, hooks,
                      no_grad)
from repro.nn import functional as F


@pytest.fixture(autouse=True)
def clean_hooks():
    sanitize.uninstall()
    yield
    sanitize.uninstall()
    hooks.reset()


def recorded(tensor: Tensor) -> bool:
    return (tensor.requires_grad and bool(tensor._parents)
            and tensor._backward is not None)


def leaf():
    return Tensor(np.ones((1, 2, 4, 5), dtype=np.float32), requires_grad=True)


def test_outputs_have_no_grad_and_no_parents():
    x = leaf()
    layer = Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(0))
    with no_grad():
        outs = [layer(x), x * 2.0 + 1.0, F.max_pool2d(x, 2), x.sum(),
                x.clone()]
    for out in outs:
        assert out.requires_grad is False
        assert out._parents == ()
        assert out._backward is None


def test_no_grad_does_not_change_values():
    x = leaf()
    layer = Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(0))
    with no_grad():
        quiet = layer(x).data
    np.testing.assert_array_equal(quiet, layer(x).data)


def test_recording_resumes_after_exit():
    x = leaf()
    with no_grad():
        pass
    out = (x * 3.0).sum()
    assert recorded(out)
    out.backward()
    np.testing.assert_array_equal(x.grad, np.full(x.shape, 3.0))


def test_recording_resumes_after_the_body_raises():
    x = leaf()
    with pytest.raises(ValueError):
        with no_grad():
            raise ValueError("boom")
    assert recorded(x * 2.0)


def test_nesting_keeps_recording_off_until_the_outer_exit():
    x = leaf()
    with no_grad():
        with no_grad():
            assert not recorded(x * 2.0)
        assert not recorded(x * 2.0)
    assert recorded(x * 2.0)


def test_tape_sanitizer_still_fires_inside_no_grad(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "nan")
    assert "nan" in sanitize.install_from_env()
    x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    with no_grad(), np.errstate(divide="ignore"):
        with pytest.raises(SanitizeError, match="__truediv__"):
            x / Tensor(np.zeros(3, dtype=np.float32))


def test_clone_is_seen_by_the_tape_sanitizer():
    x = Tensor(np.array([1.0, np.nan], dtype=np.float32), requires_grad=True)
    with sanitize.sanitized("nan"):
        with pytest.raises(SanitizeError, match="Tensor.clone"):
            x.clone()


def small_net():
    return Sequential(
        Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(0)),
        BatchNorm2d(3))


def trainable(module):
    return [p.requires_grad for p in module.parameters()]


def test_frozen_backward_computes_the_input_gradient_only():
    net = small_net()
    x = leaf()
    net(x).sum().backward()
    expected = x.grad
    net.zero_grad()
    x = leaf()
    with net.frozen():
        net(x).sum().backward()
    np.testing.assert_array_equal(x.grad, expected)
    assert all(p.grad is None for p in net.parameters())
    assert all(trainable(net))


def test_frozen_restores_exactly_what_it_cleared():
    net = small_net()
    net[1].beta.requires_grad = False
    with net.frozen():
        assert not any(trainable(net))
    assert trainable(net) == [True, True, True, False]


def test_frozen_nests_and_restores_when_the_body_raises():
    net = Sequential(Linear(2, 2, rng=np.random.default_rng(0)))
    with pytest.raises(ValueError):
        with net.frozen():
            with net.frozen():
                pass
            assert not any(trainable(net))
            raise ValueError("boom")
    assert all(trainable(net))


def test_frozen_does_not_stamp_parameter_names():
    # Names come from named_parameters() (optimizers, state dicts), not
    # from every attack query's frozen() block.
    net = small_net()
    params = [net[0].weight, net[0].bias, net[1].gamma, net[1].beta]
    for param in params:
        param.name = None
    with net.frozen():
        assert not any(p.requires_grad for p in params)
    assert all(p.requires_grad for p in params)
    assert [p.name for p in params] == [None] * 4
    dict(net.named_parameters())
    assert [p.name for p in params] == [
        "layer0.weight", "layer0.bias", "layer1.gamma", "layer1.beta"]


@pytest.mark.parametrize("make", [
    lambda: Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(0)),
    lambda: Linear(5, 3, rng=np.random.default_rng(0)),
    lambda: BatchNorm2d(2).eval(),
], ids=["Conv2d", "Linear", "BatchNorm2d-eval"])
def test_parameters_frozen_for_the_forward_get_no_gradient(make):
    # Thawed between forward and backward: every op decides at forward
    # time which inputs get a gradient, so the parameters stay constants.
    layer = make()
    x = leaf()
    with layer.frozen():
        out = layer(x)
    out.backward(np.ones(out.shape, dtype=np.float32))
    assert x.grad is not None
    assert all(p.grad is None for p in layer.parameters())
