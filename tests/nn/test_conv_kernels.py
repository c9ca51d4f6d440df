"""``conv2d`` against a float64 direct-sum reference, forward and backward.

Stride-1 convs run as shifted GEMMs over a padded, row-flattened buffer and
strided convs go through im2col, so the property draws both strides and
every padding/kernel mix, including non-square images and batches > 1,
where a shifted slice that reads across an image or row boundary would
show up as a wrong value.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, precision
from repro.nn import functional as F

pytestmark = pytest.mark.smoke


def reference_conv(x, w, b, stride, padding, g):
    """Output and (x, w, b) gradients of a conv by summing over taps.

    ``g`` is the upstream gradient of the output; everything is float64.
    """
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, f, out_h, out_w))
    grad_xp = np.zeros_like(xp)
    grad_w = np.zeros_like(w)
    for i in range(kh):
        for j in range(kw):
            window = xp[:, :, i:i + stride * out_h:stride,
                        j:j + stride * out_w:stride]
            out += np.einsum("fc,ncrs->nfrs", w[:, :, i, j], window)
            grad_w[:, :, i, j] = np.einsum("nfrs,ncrs->fc", g, window)
            grad_xp[:, :, i:i + stride * out_h:stride,
                    j:j + stride * out_w:stride] += np.einsum(
                        "fc,nfrs->ncrs", w[:, :, i, j], g)
    grad_b = None
    if b is not None:
        out += b.reshape(1, f, 1, 1)
        grad_b = g.sum(axis=(0, 2, 3))
    grad_x = grad_xp[:, :, padding:padding + h, padding:padding + wd]
    return out, grad_x, grad_w, grad_b


@st.composite
def conv_cases(draw):
    stride = draw(st.sampled_from([1, 2]))
    padding = draw(st.sampled_from([0, 1, 2]))
    kernel = draw(st.sampled_from([1, 3, 5]))
    low = max(1, kernel - 2 * padding)
    h = draw(st.integers(low, low + 6))
    w = draw(st.integers(low, low + 6))
    return dict(n=draw(st.integers(1, 3)), c=draw(st.integers(1, 4)),
                f=draw(st.integers(1, 4)), h=h, w=w, kernel=kernel,
                stride=stride, padding=padding, bias=draw(st.booleans()),
                seed=draw(st.integers(0, 2 ** 16)))


def run_conv(case, dtype):
    rng = np.random.default_rng(case["seed"])
    x = rng.normal(size=(case["n"], case["c"], case["h"], case["w"]))
    w = rng.normal(size=(case["f"], case["c"], case["kernel"],
                         case["kernel"]))
    b = rng.normal(size=case["f"]) if case["bias"] else None
    with precision(dtype):
        xt = Tensor(x, requires_grad=True)
        wt = Tensor(w, requires_grad=True)
        bt = Tensor(b, requires_grad=True) if b is not None else None
        out = F.conv2d(xt, wt, bt, stride=case["stride"],
                       padding=case["padding"])
        g = rng.normal(size=out.shape)
        out.backward(g)
    expected = reference_conv(x, w, b, case["stride"], case["padding"], g)
    got = (out.data, xt.grad, wt.grad, bt.grad if bt is not None else None)
    return got, expected


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-10),
                                         (np.float32, 2e-4)])
@given(case=conv_cases())
@example(case=dict(n=2, c=3, f=2, h=4, w=7, kernel=3, stride=1, padding=0,
                   bias=False, seed=0))
@example(case=dict(n=3, c=2, f=4, h=5, w=9, kernel=1, stride=1, padding=0,
                   bias=True, seed=1))
@settings(max_examples=60, deadline=None)
def test_conv2d_matches_direct_sum(dtype, tol, case):
    got, expected = run_conv(case, dtype)
    for name, value, want in zip(("out", "grad_x", "grad_w", "grad_b"),
                                 got, expected):
        if want is None:
            assert value is None
            continue
        assert value.dtype == np.dtype(dtype), name
        assert value.shape == want.shape, name
        scale = max(1.0, float(np.abs(want).max()))
        np.testing.assert_allclose(value, want, rtol=0, atol=tol * scale,
                                   err_msg=name)

