"""``no_grad``: inference records no tape, nests, and keeps the sanitizer."""

import numpy as np
import pytest

from repro.analysis import sanitize
from repro.analysis.sanitize import SanitizeError
from repro.nn import Conv2d, Tensor, hooks, no_grad
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
        outs = [layer(x), x * 2.0 + 1.0, F.max_pool2d(x, 2), x.sum()]
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
