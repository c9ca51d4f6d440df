"""Bit-identity of the eval-mode kernels against their earlier formulations.

The eval BatchNorm op, the eval ConvBlock op, ``col2im``'s clipped scatter
into the unpadded gradient, ``im2col``'s zero-fill padding and the
precomputed road layout each replace code that every cached result was
produced with.  Each test here keeps a copy of that earlier code and
asserts the new one gives the same bits, not just close values.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data import driving
from repro.nn import BatchNorm1d, BatchNorm2d, ConvBlock, Tensor, precision
from repro.nn import functional as F

pytestmark = pytest.mark.smoke


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    view = np.uint64 if a.dtype == np.float64 else np.uint32
    return np.array_equal(np.ascontiguousarray(a).view(view),
                          np.ascontiguousarray(b).view(view))


# ---------------------------------------------------------------------------
# Eval BatchNorm
# ---------------------------------------------------------------------------

def legacy_bn_eval(layer, x):
    """Eval BatchNorm as the six-node Tensor chain it used to record."""
    if x.ndim == 4:
        mean = layer.running_mean.reshape(1, -1, 1, 1)
        var = layer.running_var.reshape(1, -1, 1, 1)
        x_hat = (x - mean) * (1.0 / np.sqrt(var + layer.eps))
        return (x_hat * layer.gamma.reshape(1, -1, 1, 1)
                + layer.beta.reshape(1, -1, 1, 1))
    x_hat = (x - layer.running_mean) * (
        1.0 / np.sqrt(layer.running_var + layer.eps))
    return x_hat * layer.gamma + layer.beta


def make_bn(kind, rng):
    c = int(rng.integers(1, 9))
    layer = BatchNorm2d(c) if kind == "2d" else BatchNorm1d(c)
    layer.gamma.data[...] = rng.normal(1.0, 0.5, c)
    layer.beta.data[...] = rng.normal(0.0, 0.5, c)
    layer.running_mean[...] = rng.normal(0.0, 2.0, c)
    layer.running_var[...] = rng.uniform(1e-4, 5.0, c)
    layer.eval()
    n = int(rng.integers(1, 4))
    shape = (n, c, int(rng.integers(1, 7)), int(rng.integers(1, 7))) \
        if kind == "2d" else (n, c)
    return layer, rng.normal(0.0, 3.0, shape)


def bn_pass(layer, forward, x_data, g, frozen):
    layer.zero_grad()
    x = Tensor(x_data, requires_grad=True)
    if frozen:
        with layer.frozen():
            out = forward(x)
            out.backward(g)
    else:
        out = forward(x)
        out.backward(g)
    return out.data, x.grad, layer.gamma.grad, layer.beta.grad


@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["2d", "1d"])
@pytest.mark.parametrize("seed", range(5))
def test_eval_batchnorm_is_bit_identical(kind, dtype, frozen, seed):
    rng = np.random.default_rng(seed)
    with precision(dtype):
        layer, x_data = make_bn(kind, rng)
        g = rng.normal(size=x_data.shape).astype(dtype)
        new = bn_pass(layer, layer, x_data, g, frozen)
        old = bn_pass(layer, lambda x: legacy_bn_eval(layer, x), x_data, g,
                      frozen)
    for name, got, want in zip(("out", "grad_x", "grad_gamma", "grad_beta"),
                               new, old):
        if frozen and name in ("grad_gamma", "grad_beta"):
            assert got is None and want is None, name
            continue
        assert got.dtype == np.dtype(dtype), name
        assert same_bits(got, want), name


def test_eval_batchnorm_records_one_tape_node():
    layer = BatchNorm2d(3).eval()
    x = Tensor(np.ones((1, 3, 2, 2)), requires_grad=True)
    out = layer(x)
    assert set(map(id, out._parents)) == {id(x), id(layer.gamma),
                                          id(layer.beta)}
    with layer.frozen():
        frozen_out = layer(x)
    assert frozen_out._parents == (x,)
    # Thawed between forward and backward: the parameters stay constants
    # of this node, by the forward-time rule every op follows.
    frozen_out.backward(np.ones(frozen_out.shape))
    assert layer.gamma.grad is None and layer.beta.grad is None
    assert x.grad is not None


# ---------------------------------------------------------------------------
# Eval ConvBlock
# ---------------------------------------------------------------------------

def legacy_conv_block_eval(block, x):
    """The eval ConvBlock as the three tape ops it used to record."""
    conv, bn = block.conv, block.bn
    out = F.conv2d(x, conv.weight, None, conv.stride, conv.padding)
    out = F.batch_norm_eval(out, bn.running_mean, bn.running_var, bn.gamma,
                            bn.beta, bn.eps)
    return out.silu()


def make_block(stride, rng):
    block = ConvBlock(4, 8, 3, stride=stride, rng=rng)
    bn = block.bn
    bn.gamma.data[...] = rng.normal(1.0, 0.5, 8)
    bn.beta.data[...] = rng.normal(0.0, 0.5, 8)
    bn.running_mean[...] = rng.normal(0.0, 2.0, 8)
    bn.running_var[...] = rng.uniform(1e-4, 5.0, 8)
    return block.eval()


def block_pass(block, forward, x_data, g, frozen):
    block.zero_grad()
    x = Tensor(x_data, requires_grad=True)
    if frozen:
        with block.frozen():
            out = forward(x)
            out.backward(g)
    else:
        out = forward(x)
        out.backward(g)
    return (out.data, x.grad, block.conv.weight.grad, block.bn.gamma.grad,
            block.bn.beta.grad)


@pytest.mark.parametrize("channel_last", [False, True])
@pytest.mark.parametrize("batch", [1, 2, 3, 32])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_eval_conv_block_is_bit_identical(dtype, frozen, stride, batch,
                                          channel_last):
    # At batch 32 the arrays pass numpy's 256 KiB temporary-elision size,
    # which picks the memory layout the gamma and beta sums add in.  A
    # stride-1 block runs the chain itself in eval mode too.
    rng = np.random.default_rng(batch * 4 + stride)
    with precision(dtype):
        block = make_block(stride, rng)
        x_data = rng.normal(0.0, 2.0, (batch, 4, 32, 48)).astype(dtype)
        if channel_last:
            # Laid out as a strided conv's output, as stages 2 and 3 see.
            x_data = np.ascontiguousarray(
                x_data.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        out_size = (32 // stride, 48 // stride)
        g = rng.normal(size=(batch, 8) + out_size).astype(dtype)
        new = block_pass(block, block, x_data, g, frozen)
        old = block_pass(block, lambda x: legacy_conv_block_eval(block, x),
                         x_data, g, frozen)
    assert new[0].strides == old[0].strides
    for name, got, want in zip(("out", "grad_x", "grad_weight",
                                "grad_gamma", "grad_beta"), new, old):
        if frozen and name not in ("out", "grad_x"):
            assert got is None and want is None, name
            continue
        assert got.dtype == np.dtype(dtype), name
        assert same_bits(got, want), name


def test_eval_conv_block_records_one_tape_node():
    block = ConvBlock(2, 3, 3, stride=2).eval()
    params = (block.conv.weight, block.bn.gamma, block.bn.beta)
    x = Tensor(np.ones((1, 2, 5, 5)), requires_grad=True)
    out = block(x)
    assert out._op == "conv_block_eval"
    assert set(map(id, out._parents)) == set(map(id, (x,) + params))
    with block.frozen():
        frozen_out = block(x)
    assert frozen_out._parents == (x,)
    frozen_out.backward(np.ones(frozen_out.shape))
    assert all(p.grad is None for p in params)
    assert x.grad is not None
    # Train mode, and a stride-1 block in eval mode, keep the conv, batch
    # norm and SiLU ops.
    assert block.train()(x)._op == "Tensor.silu"
    assert ConvBlock(2, 3, 3).eval()(x)._op == "Tensor.silu"


def test_eval_conv_block_enters_through_conv2d(monkeypatch):
    # Profilers time every convolution by replacing F.conv2d, so the fused
    # block must be reached through it.
    calls = []
    conv2d = F.conv2d

    def counted(*args, **kwargs):
        calls.append("bn_silu" in kwargs)
        return conv2d(*args, **kwargs)

    monkeypatch.setattr(F, "conv2d", counted)
    ConvBlock(2, 3, 3, stride=2).eval()(Tensor(np.ones((1, 2, 5, 5))))
    assert calls == [True]


def test_conv2d_fuses_batch_norm_only_into_a_strided_conv_without_bias():
    block = make_block(2, np.random.default_rng(0))
    bn = block.bn
    bn_silu = (bn.running_mean, bn.running_var, bn.gamma, bn.beta, bn.eps)
    x = Tensor(np.ones((1, 4, 6, 6), np.float32))
    with pytest.raises(ValueError, match="strided"):
        F.conv2d(x, block.conv.weight, None, 1, 1, bn_silu=bn_silu)
    with pytest.raises(ValueError, match="bias"):
        F.conv2d(x, block.conv.weight, Tensor(np.zeros(8, np.float32)), 2,
                 1, bn_silu=bn_silu)


# ---------------------------------------------------------------------------
# col2im / im2col
# ---------------------------------------------------------------------------

def legacy_col2im(cols, x_shape, kernel, stride, padding, out_size):
    """Scatter into a padded buffer, then crop (the pre-clipping version)."""
    n, c, h, w = x_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h, out_w = out_size
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    reshaped = cols.reshape(n, c, kh, kw, out_h, out_w)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i:i + sh * out_h:sh,
                   j:j + sw * out_w:sw] += reshaped[:, :, i, j]
    return padded[:, :, ph:h + ph, pw:w + pw]


def legacy_im2col(x, kernel, stride, padding):
    """im2col padding with ``np.pad``."""
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant")
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    sn, sc, s_h, s_w = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x, shape=(n, c, kh, kw, out_h, out_w),
        strides=(sn, sc, s_h, s_w, s_h * sh, s_w * sw))
    cols = patches.reshape(n, c * kh * kw, out_h * out_w)
    return np.ascontiguousarray(cols), (out_h, out_w)


@st.composite
def patch_cases(draw):
    kh, kw = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    ph, pw = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    h = draw(st.integers(max(1, kh - 2 * ph), 9))
    w = draw(st.integers(max(1, kw - 2 * pw), 9))
    return dict(n=draw(st.integers(1, 3)), c=draw(st.integers(1, 3)),
                h=h, w=w, kernel=(kh, kw),
                stride=(draw(st.integers(1, 3)), draw(st.integers(1, 3))),
                padding=(ph, pw),
                dtype=draw(st.sampled_from([np.float32, np.float64])),
                seed=draw(st.integers(0, 2 ** 16)))


def tap_only_reads_padding(case):
    """Whether some kernel row or column never reaches the image."""
    for (k, s, p, size) in zip(case["kernel"], case["stride"],
                               case["padding"], (case["h"], case["w"])):
        out = (size + 2 * p - k) // s + 1
        for tap in range(k):
            if all(not 0 <= tap + s * a - p < size for a in range(out)):
                return True
    return False


# Kernel 5, padding 2 on a 1-pixel axis: taps 0, 1, 3 and 4 read only the
# padding.  Kernel 3, stride 3, padding 1 on a 2-pixel axis: tap 0 does.
PADDING_ONLY = [
    dict(n=1, c=1, h=1, w=1, kernel=(5, 5), stride=(3, 3), padding=(2, 2),
         dtype=np.float32, seed=0),
    dict(n=2, c=3, h=2, w=7, kernel=(3, 5), stride=(3, 2), padding=(1, 2),
         dtype=np.float64, seed=1),
]


def test_examples_cover_taps_in_padding():
    assert all(tap_only_reads_padding(case) for case in PADDING_ONLY)


@given(case=patch_cases())
@example(case=PADDING_ONLY[0])
@example(case=PADDING_ONLY[1])
@example(case=dict(n=1, c=16, h=32, w=64, kernel=(3, 3), stride=(2, 2),
                   padding=(1, 1), dtype=np.float32, seed=2))
@settings(max_examples=150, deadline=None)
def test_col2im_is_bit_identical(case):
    rng = np.random.default_rng(case["seed"])
    (kh, kw), (sh, sw), (ph, pw) = (case["kernel"], case["stride"],
                                    case["padding"])
    out_h = (case["h"] + 2 * ph - kh) // sh + 1
    out_w = (case["w"] + 2 * pw - kw) // sw + 1
    cols = rng.normal(size=(case["n"], case["c"] * kh * kw, out_h * out_w)
                      ).astype(case["dtype"])
    shape = (case["n"], case["c"], case["h"], case["w"])
    args = (shape, case["kernel"], case["stride"], case["padding"],
            (out_h, out_w))
    got = F.col2im(cols, *args)
    assert got.flags.c_contiguous and got.base is None
    assert same_bits(got, legacy_col2im(cols, *args))


@given(case=patch_cases(), transposed=st.booleans())
@example(case=PADDING_ONLY[0], transposed=False)
@settings(max_examples=100, deadline=None)
def test_im2col_zero_fill_matches_np_pad(case, transposed):
    rng = np.random.default_rng(case["seed"])
    shape = (case["n"], case["c"], case["h"], case["w"])
    x = rng.normal(size=shape).astype(case["dtype"])
    if transposed:
        # A non-contiguous input with the same logical shape.
        x = np.ascontiguousarray(x.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
    got, got_size = F.im2col(x, case["kernel"], case["stride"],
                             case["padding"])
    want, want_size = legacy_im2col(x, case["kernel"], case["stride"],
                                    case["padding"])
    assert got_size == want_size
    assert same_bits(got, want)


# ---------------------------------------------------------------------------
# Road render
# ---------------------------------------------------------------------------

def legacy_render_road(rng):
    """The row-by-row road painter the layout tables replace."""
    h, w, horizon = driving.FRAME_H, driving.FRAME_W, driving.HORIZON_ROW
    image = np.zeros((h, w, 3), dtype=np.float32)
    sky_top = np.array([0.5, 0.65, 0.9]) + rng.normal(0, 0.03, 3)
    sky_bot = np.array([0.8, 0.85, 0.95]) + rng.normal(0, 0.03, 3)
    for row in range(horizon):
        t = row / max(1, horizon - 1)
        image[row] = (1 - t) * sky_top + t * sky_bot
    road = np.array([0.33, 0.33, 0.35]) + rng.normal(0, 0.02, 3)
    shoulder = np.array([0.45, 0.47, 0.4]) + rng.normal(0, 0.02, 3)
    for row in range(horizon, h):
        depth = (row - horizon) / (h - horizon)
        half_width = 8 + depth * 55
        image[row] = shoulder * (0.8 + 0.3 * depth)
        cols = np.abs(np.arange(w) - w / 2) <= half_width
        image[row, cols] = road * (0.8 + 0.4 * depth)
        if (row // 3) % 2 == 0:
            for lane_offset in (-0.45, 0.45):
                col = int(w / 2 + lane_offset * 2 * half_width)
                if 0 <= col < w:
                    image[row, max(0, col - 1):col + 1] = [0.85, 0.85, 0.8]
    return image


def test_render_road_is_bit_identical():
    for seed in range(200):
        new_rng = np.random.default_rng(seed)
        old_rng = np.random.default_rng(seed)
        got = driving._render_road(new_rng)
        assert same_bits(got, legacy_render_road(old_rng)), seed
        # Same draws, so the rest of the frame sees the same stream.
        assert new_rng.bit_generator.state == old_rng.bit_generator.state
