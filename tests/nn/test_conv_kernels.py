"""``conv2d`` against a float64 direct-sum reference, forward and backward.

Stride-1 convs run as shifted GEMMs over a padded, row-flattened buffer and
strided convs go through im2col, so the property draws both strides and
every padding/kernel mix, including non-square kernels, asymmetric padding,
non-square images and batches > 1, where a shifted slice that reads across
an image or row boundary would show up as a wrong value.

The stride-1 kernel must also keep the exact bits of the channel-major
kernel it replaced, since the trained DDPM priors and every cached Table V
result depend on them: ``channel_major_conv`` keeps that kernel as an
oracle for ``np.array_equal``.  The bits match wherever numpy hands every
product to BLAS gemm, which needs C >= 2, F >= 2 and a per-sample span of
at least 2 positions; every conv in the models has that shape.  With one
filter, one input channel or a single output position numpy falls back to
gemv or dot, whose sums round differently once split per sample, so the
oracle draws leave those shapes to the direct-sum tolerance test.  (One
more case differs, see README "Bit identity of the stride-1 kernel": the
40->3 conv at a batch of 2 or 3, where the old kernel's single GEMM ended
on columns that OpenBLAS rounds differently.)
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.defenses.diffusion import NoisePredictor
from repro.nn import Conv2d, Tensor, precision
from repro.nn import functional as F

pytestmark = pytest.mark.smoke


def reference_conv(x, w, b, stride, padding, g):
    """Output and (x, w, b) gradients of a conv by summing over taps.

    ``g`` is the upstream gradient of the output; everything is float64.
    """
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out_h = (h + 2 * ph - kh) // stride + 1
    out_w = (wd + 2 * pw - kw) // stride + 1
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
    grad_x = grad_xp[:, :, ph:ph + h, pw:pw + wd]
    return out, grad_x, grad_w, grad_b


def channel_major_conv(x, w, b, padding, g):
    """The channel-major stride-1 kernel that ``F.conv2d`` replaced.

    Zero-pads ``x`` into one ``(C, N*Hp*Wp)`` buffer and runs each tap's
    GEMM across the whole batch at once, then transposes back.  Returns
    the output and the (x, w) gradients for upstream gradient ``g``, in
    the input dtype, with the old kernel's exact float sums.
    """
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    ph, pw = padding
    dtype = x.dtype
    hp, wp = h + 2 * ph, wd + 2 * pw
    out_h, out_w = hp - kh + 1, wp - kw + 1
    padded = np.zeros((c, n, hp, wp), dtype=dtype)
    padded[:, :, ph:ph + h, pw:pw + wd] = x.transpose(1, 0, 2, 3)
    flat = padded.reshape(c, n * hp * wp)
    offsets = [i * wp + j for i in range(kh) for j in range(kw)]
    span = n * hp * wp - offsets[-1]
    taps = w.transpose(2, 3, 0, 1).reshape(kh * kw, f, c)
    full = np.empty((f, flat.shape[1]), dtype=dtype)
    acc, product = full[:, :span], np.empty((f, span), dtype=dtype)
    np.matmul(taps[0], flat[:, :span], out=acc)
    for tap, offset in zip(taps[1:], offsets[1:]):
        acc += np.matmul(tap, flat[:, offset:offset + span], out=product)
    out = np.empty((n, f, out_h, out_w), dtype=dtype)
    np.copyto(out, full.reshape(f, n, hp, wp)[:, :, :out_h, :out_w]
              .transpose(1, 0, 2, 3))
    if b is not None:
        out += b.reshape(1, f, 1, 1)

    g_full = np.zeros((f, n, hp, wp), dtype=dtype)
    g_full[:, :, :out_h, :out_w] = g.transpose(1, 0, 2, 3)
    g_span = g_full.reshape(f, n * hp * wp)[:, :span]
    grad_w = np.stack([g_span @ flat[:, offset:offset + span].T
                       for offset in offsets])
    grad_w = grad_w.reshape(kh, kw, f, c).transpose(2, 3, 0, 1)
    grad_flat = np.zeros_like(flat)
    product = np.empty((c, span), dtype=dtype)
    for tap, offset in zip(taps, offsets):
        grad_flat[:, offset:offset + span] += np.matmul(tap.T, g_span,
                                                        out=product)
    grad_x = grad_flat.reshape(c, n, hp, wp)[:, :, ph:ph + h, pw:pw + wd]
    return out, grad_x.transpose(1, 0, 2, 3), grad_w


@st.composite
def conv_cases(draw, strides=(1, 2), min_channels=1):
    stride = draw(st.sampled_from(strides))
    kernel = tuple(draw(st.sampled_from([1, 3, 5])) for _ in range(2))
    padding = tuple(draw(st.sampled_from([0, 1, 2])) for _ in range(2))
    low_h = max(1, kernel[0] - 2 * padding[0])
    low_w = max(1, kernel[1] - 2 * padding[1])
    h = draw(st.integers(low_h, low_h + 6))
    w = draw(st.integers(low_w, low_w + 6))
    return dict(n=draw(st.integers(1, 3)),
                c=draw(st.integers(min_channels, 4)),
                f=draw(st.integers(min_channels, 4)), h=h, w=w, kernel=kernel,
                stride=stride, padding=padding, bias=draw(st.booleans()),
                seed=draw(st.integers(0, 2 ** 16)))


def run_conv(case, dtype):
    rng = np.random.default_rng(case["seed"])
    x = rng.normal(size=(case["n"], case["c"], case["h"], case["w"]))
    w = rng.normal(size=(case["f"], case["c"]) + case["kernel"])
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
@example(case=dict(n=2, c=3, f=2, h=4, w=7, kernel=(3, 3), stride=1,
                   padding=(0, 0), bias=False, seed=0))
@example(case=dict(n=3, c=2, f=4, h=5, w=9, kernel=(1, 1), stride=1,
                   padding=(0, 0), bias=True, seed=1))
@example(case=dict(n=2, c=2, f=3, h=3, w=6, kernel=(1, 3), stride=1,
                   padding=(0, 1), bias=True, seed=2))
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



def assert_matches_channel_major(x, w, b, padding, seed):
    """``F.conv2d`` at stride 1 against :func:`channel_major_conv`, bits."""
    with precision(np.float32):
        xt = Tensor(x, requires_grad=True)
        wt = Tensor(w, requires_grad=True)
        bt = Tensor(b, requires_grad=True) if b is not None else None
        out = F.conv2d(xt, wt, bt, stride=1, padding=padding)
        g = np.random.default_rng(seed).normal(
            size=out.shape).astype(np.float32)
        out.backward(g)
    want = channel_major_conv(xt.data, wt.data,
                              None if bt is None else bt.data, padding, g)
    for name, value, expected in zip(("out", "grad_x", "grad_w"),
                                     (out.data, xt.grad, wt.grad), want):
        assert value.dtype == np.float32, name
        assert np.array_equal(value, expected), name


def _noise_predictor_convs():
    """The DDPM noise predictor's stride-1 convs, with their input shapes
    on a batch of 4 driving frames (the body runs at half resolution)."""
    net = NoisePredictor(rng=np.random.default_rng(5))
    full, half = (4, 64, 128), (4, 32, 64)
    return [(name, getattr(net, name), full if name.startswith("full")
             else half)
            for name in ("body1", "body2", "up_out", "full_res", "full_out")]


@pytest.mark.parametrize("name, layer, size", _noise_predictor_convs(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_noise_predictor_convs_keep_channel_major_bits(name, layer, size):
    n, h, w = size
    rng = np.random.default_rng(len(name))
    x = rng.normal(size=(n, layer.weight.shape[1], h, w)).astype(np.float32)
    bias = rng.normal(size=layer.bias.shape).astype(np.float32)
    assert_matches_channel_major(x, layer.weight.data, bias,
                                 F._pair(layer.padding), seed=len(name))


def test_detector_head_keeps_channel_major_bits():
    # The detector's 1x1 head: no padding, so the buffer is a reshape of x.
    head = Conv2d(64, 5, 1, rng=np.random.default_rng(6))
    x = np.random.default_rng(7).normal(size=(4, 64, 8, 8)).astype(np.float32)
    assert_matches_channel_major(x, head.weight.data, head.bias.data,
                                 (0, 0), seed=8)


@given(case=conv_cases(strides=(1,), min_channels=2))
@example(case=dict(n=2, c=3, f=2, h=3, w=6, kernel=(1, 3), stride=1,
                   padding=(0, 1), bias=True, seed=3))
@settings(max_examples=60, deadline=None)
def test_stride1_keeps_channel_major_bits(case):
    (kh, kw), (ph, pw) = case["kernel"], case["padding"]
    wp = case["w"] + 2 * pw
    assume((case["h"] + 2 * ph - kh) * wp + wp - kw + 1 >= 2)
    rng = np.random.default_rng(case["seed"])
    shape = (case["n"], case["c"], case["h"], case["w"])
    x = rng.normal(size=shape).astype(np.float32)
    w = rng.normal(size=(case["f"], case["c"]) + case["kernel"])
    b = rng.normal(size=case["f"]) if case["bias"] else None
    assert_matches_channel_major(
        x, w.astype(np.float32),
        None if b is None else b.astype(np.float32), case["padding"],
        seed=case["seed"] + 1)
