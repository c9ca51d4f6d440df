"""Differentiable neural-network primitives built on :class:`repro.nn.Tensor`.

Convolution and pooling hand their heavy lifting to numpy's BLAS-backed
``matmul``: stride-1 convolutions as per-sample shifted GEMMs over a padded,
batch-major copy of the input, strided convolutions and pooling through
im2col.  Each function is one tape op: it computes its output in numpy and
records it through :func:`repro.nn.tensor._op` with one hand-written
vector-Jacobian product per input, rather than being composed from
elementwise primitives, which keeps both the forward and the backward pass
fast enough to train the paper's models on a CPU.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .tensor import Tensor, _op, _unbroadcast, default_dtype


def _pair(value) -> Tuple[int, int]:
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


def im2col(x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int],
           padding: Tuple[int, int]) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Rearrange image patches into columns.

    Returns an array of shape ``(N, C*kh*kw, out_h*out_w)`` and the output
    spatial size.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    if ph or pw:
        padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
        padded[:, :, ph:ph + h, pw:pw + w] = x
        x = padded
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    stride_n, stride_c, stride_h, stride_w = x.strides
    shape = (n, c, kh, kw, out_h, out_w)
    strides = (stride_n, stride_c, stride_h, stride_w, stride_h * sh, stride_w * sw)
    patches = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    # Reshaping the strided view forces the copy into a dense buffer, which
    # is exactly what downstream matmuls need.
    cols = patches.reshape(n, c * kh * kw, out_h * out_w)
    return np.ascontiguousarray(cols), (out_h, out_w)


def col2im(cols: np.ndarray, x_shape: Tuple[int, int, int, int],
           kernel: Tuple[int, int], stride: Tuple[int, int],
           padding: Tuple[int, int], out_size: Tuple[int, int]) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back into an image.

    Overlapping patches are summed, so this is not an inverse.  Image row
    ``r`` takes kernel row ``i`` from output row ``(r + ph - i) / sh`` when
    that is a whole number in range, so the rows fall into ``sh`` phases
    (``r % sh``), each fed by a fixed subset of kernel rows; columns
    likewise.  Each phase is summed in a contiguous buffer, tap by tap in
    ``(i, j)`` order with the ranges clipped to the image, then written
    into the unpadded image once.  Every pixel sums the same terms in the
    same order as a scatter into a padded buffer that is then cropped.
    """
    n, c, h, w = x_shape
    kh, kw = kernel
    sh, sw = stride
    out_h, out_w = out_size
    reshaped = cols.reshape(n, c, kh, kw, out_h, out_w)
    image = np.empty((n, c, h, w), dtype=cols.dtype)
    col_phases = _tap_phases(kw, sw, padding[1], w, out_w)
    for r, rows, row_taps in _tap_phases(kh, sh, padding[0], h, out_h):
        for q, columns, col_taps in col_phases:
            acc = np.zeros((n, c, rows, columns), dtype=cols.dtype)
            for i, a0, a1, di in row_taps:
                for j, b0, b1, dj in col_taps:
                    acc[:, :, a0:a1, b0:b1] += reshaped[
                        :, :, i, j, a0 + di:a1 + di, b0 + dj:b1 + dj]
            image[:, :, r::sh, q::sw] = acc
    return image


def _tap_phases(kernel: int, stride: int, pad: int, size: int,
                out_size: int) -> list:
    """Split one image axis of :func:`col2im` into its stride phases.

    For each phase ``r`` (image indices ``r, r + stride, ...``) returns
    ``(r, length, taps)``: ``taps`` lists, in kernel order, each tap ``t``
    that lands on the phase as ``(t, m0, m1, d)``, where phase slots
    ``m0 <= m < m1`` take output position ``m + d``.
    """
    phases = []
    for r in range(min(stride, size)):
        length = -((r - size) // stride)
        taps = []
        for t in range(kernel):
            d, rem = divmod(r + pad - t, stride)
            m0, m1 = max(0, -d), min(length, out_size - d)
            if rem == 0 and m0 < m1:
                taps.append((t, m0, m1, d))
        phases.append((r, length, taps))
    return phases


def _shifted_layout(x: np.ndarray, kernel: Tuple[int, int],
                    padding: Tuple[int, int]) -> Tuple[np.ndarray, int, list]:
    """Zero-pad ``x`` into one batch-major, row-flattened buffer.

    Returns the ``(N, C, Hp*Wp)`` buffer, the span of positions every tap
    can read within one sample, and each tap's flat offset ``i*Wp + j``.
    Output position ``p = r*Wp + s`` of sample ``n`` of a stride-1 conv is
    the sum over taps of ``w[:, :, i, j] @ buffer[n, :, p + offset]``; the
    span ends at the last real output position, and positions whose column
    runs into the padding (``s >= out_w``) are garbage and cropped by
    :func:`_span_rows`.  With no padding the buffer is a reshape of ``x``.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    ph, pw = padding
    hp, wp = h + 2 * ph, w + 2 * pw
    if ph or pw:
        padded = np.zeros((n, c, hp, wp), dtype=x.dtype)
        padded[:, :, ph:ph + h, pw:pw + w] = x
        x = padded
    offsets = [i * wp + j for i in range(kh) for j in range(kw)]
    return x.reshape(n, c, hp * wp), hp * wp - offsets[-1], offsets


def _span_rows(flat: np.ndarray, out_size: Tuple[int, int],
               row: int) -> np.ndarray:
    """View a ``(..., span)`` buffer of :func:`_shifted_layout` positions
    as its ``(..., out_h, out_w)`` crop, rows ``row`` positions apart."""
    step = flat.strides[-1]
    return np.lib.stride_tricks.as_strided(
        flat, shape=flat.shape[:-1] + out_size,
        strides=flat.strides[:-1] + (row * step, step))


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride=1, padding=0) -> Tensor:
    """2-D cross-correlation, ``x``: (N,C,H,W), ``weight``: (F,C,kh,kw).

    Stride-1 convs run, one sample at a time, as kh*kw shifted GEMMs over
    one padded, batch-major copy of the input (see :func:`_shifted_layout`),
    in both passes, with no im2col buffer; the weight gradient alone runs
    one GEMM per tap over a channel-major copy, so its float sums keep
    their order.  Strided convs gather patches with :func:`im2col` and run
    one GEMM per pass.
    """
    stride = _pair(stride)
    padding = _pair(padding)
    n, c, h, w = x.shape
    f, _, kh, kw = weight.shape
    ph, pw = padding
    dtype = x.data.dtype
    shifted = stride == (1, 1)
    if shifted:
        hp, wp = h + 2 * ph, w + 2 * pw
        out_h, out_w = hp - kh + 1, wp - kw + 1
        flat, span, offsets = _shifted_layout(x.data, (kh, kw), padding)
        taps = weight.data.transpose(2, 3, 0, 1).reshape(kh * kw, f, c)
        # One sample at a time, so the accumulator stays in cache across
        # the taps; it is span-wide and contiguous because `+=` into a
        # strided slice of a full-width buffer costs twice as much.
        acc = np.empty((f, span), dtype=dtype)
        product = np.empty_like(acc)
        crop = _span_rows(acc, (out_h, out_w), wp)
        out = np.empty((n, f, out_h, out_w), dtype=dtype)
        for sample, out_n in zip(flat, out):
            np.matmul(taps[0], sample[:, :span], out=acc)
            for tap, offset in zip(taps[1:], offsets[1:]):
                acc += np.matmul(tap, sample[:, offset:offset + span],
                                 out=product)
            if bias is None:
                np.copyto(out_n, crop)
            else:
                np.add(crop, bias.data.reshape(f, 1, 1), out=out_n)
    else:
        cols, (out_h, out_w) = im2col(x.data, (kh, kw), stride, padding)
        w2d = weight.data.reshape(f, c * kh * kw)
        # Laid out (N, P, F) in memory.  BatchNorm sums its batch
        # statistics in memory order, so this layout pins the bits of the
        # trained regressor and of every cached result built on it.
        out = (np.matmul(cols.transpose(0, 2, 1), w2d.T).transpose(0, 2, 1)
               .reshape(n, f, out_h, out_w))
        if bias is not None:
            out += bias.data.reshape(1, f, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)
    if shifted:
        def weight_vjp(g: np.ndarray) -> np.ndarray:
            # One K = N*Hp*Wp GEMM per tap over channel-major copies:
            # summing per sample would reorder the float sums, and so the
            # bits of every trained weight.
            total = n * hp * wp
            g_major = np.zeros((f, n, hp, wp), dtype=dtype)
            g_major[:, :, :out_h, :out_w] = g.transpose(1, 0, 2, 3)
            g_major = g_major.reshape(f, total)[:, :total - offsets[-1]]
            x_major = np.ascontiguousarray(
                flat.transpose(1, 0, 2)).reshape(c, total)
            grad_taps = np.stack([
                g_major @ x_major[:, offset:offset + g_major.shape[1]].T
                for offset in offsets])
            return grad_taps.reshape(kh, kw, f, c).transpose(2, 3, 0, 1)

        def x_vjp(g: np.ndarray) -> np.ndarray:
            g_span = np.zeros((f, span), dtype=dtype)
            g_crop = _span_rows(g_span, (out_h, out_w), wp)
            grad = np.empty((c, hp * wp), dtype=dtype)
            grad_crop = grad.reshape(c, hp, wp)[:, ph:ph + h, pw:pw + w]
            product = np.empty((c, span), dtype=dtype)
            grad_x = np.empty((n, c, h, w), dtype=dtype)
            for g_n, grad_n in zip(g, grad_x):
                g_crop[...] = g_n
                grad.fill(0)
                for tap, offset in zip(taps, offsets):
                    grad[:, offset:offset + span] += np.matmul(
                        tap.T, g_span, out=product)
                grad_n[...] = grad_crop
            return grad_x
    else:
        w_shape = weight.shape

        def weight_vjp(g: np.ndarray) -> np.ndarray:
            grad_w = (g.reshape(n, f, out_h * out_w).transpose(1, 0, 2)
                      .reshape(f, -1)
                      @ cols.transpose(1, 0, 2).reshape(c * kh * kw, -1).T)
            return grad_w.reshape(w_shape)

        def x_vjp(g: np.ndarray) -> np.ndarray:
            grad_cols = np.matmul(w2d.T, g.reshape(n, f, out_h * out_w))
            return col2im(grad_cols, (n, c, h, w), (kh, kw), stride, padding,
                          (out_h, out_w))

    return _op("conv2d", out.astype(dtype, copy=False), parents,
               (x_vjp, weight_vjp, lambda g: g.sum(axis=(0, 2, 3))))


def batch_norm_eval(x: Tensor, running_mean: np.ndarray,
                    running_var: np.ndarray, gamma: Tensor, beta: Tensor,
                    eps: float) -> Tensor:
    """Eval-mode batch norm over channel axis 1, as one tape op.

    ``x`` is ``(N, C)`` or ``(N, C, H, W)``; the running statistics and
    ``gamma``/``beta`` are ``(C,)``.  The output is
    ``(x - mean) * inv_std * gamma + beta``, evaluated in that order with
    ``inv_std = 1 / sqrt(var + eps)`` computed at the buffers' precision,
    so it is bit-identical to the same expression written with Tensor ops.
    The backward reduces the gamma and beta gradients over the same axes
    that broadcasting them would.
    """
    c = x.shape[1]
    shape = (c,) if x.ndim == 2 else (1, c) + (1,) * (x.ndim - 2)
    dtype = default_dtype()
    mean = np.asarray(running_mean.reshape(shape), dtype=dtype)
    inv_std = np.asarray(1.0 / np.sqrt(running_var.reshape(shape) + eps),
                         dtype=dtype)
    scale = gamma.data.reshape(shape)
    x_hat = x.data - mean
    x_hat *= inv_std
    out = x_hat * scale
    out += beta.data.reshape(shape)
    return _op("batch_norm_eval", out, (x, gamma, beta),
               (lambda g: g * scale * inv_std,
                lambda g: _unbroadcast(g * x_hat, shape).reshape(gamma.shape),
                lambda g: _unbroadcast(g, shape).reshape(beta.shape)))


def max_pool2d(x: Tensor, kernel_size=2, stride=None) -> Tensor:
    """Max pooling with indices recorded for the backward pass."""
    kernel = _pair(kernel_size)
    stride = kernel if stride is None else _pair(stride)
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1
    cols, _ = im2col(x.data.reshape(n * c, 1, h, w), kernel, stride, (0, 0))
    cols = cols.reshape(n * c, kh * kw, out_h * out_w)
    argmax = cols.argmax(axis=1)
    out = np.take_along_axis(cols, argmax[:, None, :], axis=1).squeeze(1)
    out = out.reshape(n, c, out_h, out_w)
    x_shape = x.shape

    def vjp(g: np.ndarray) -> np.ndarray:
        grad_cols = np.zeros((n * c, kh * kw, out_h * out_w), dtype=x.data.dtype)
        flat = g.reshape(n * c, 1, out_h * out_w)
        np.put_along_axis(grad_cols, argmax[:, None, :], flat, axis=1)
        grad = col2im(grad_cols.reshape(n * c, kh * kw, out_h * out_w),
                      (n * c, 1, h, w), kernel, stride, (0, 0), (out_h, out_w))
        return grad.reshape(x_shape)

    return _op("max_pool2d", out.astype(x.data.dtype, copy=False), (x,),
               (vjp,))


def avg_pool2d(x: Tensor, kernel_size=2, stride=None) -> Tensor:
    kernel = _pair(kernel_size)
    stride = kernel if stride is None else _pair(stride)
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1
    cols, _ = im2col(x.data.reshape(n * c, 1, h, w), kernel, stride, (0, 0))
    out = cols.mean(axis=1).reshape(n, c, out_h, out_w)
    x_shape = x.shape
    scale = 1.0 / (kh * kw)

    def vjp(g: np.ndarray) -> np.ndarray:
        flat = g.reshape(n * c, 1, out_h * out_w)
        grad_cols = np.broadcast_to(flat * scale, (n * c, kh * kw, out_h * out_w))
        grad = col2im(np.ascontiguousarray(grad_cols), (n * c, 1, h, w),
                      kernel, stride, (0, 0), (out_h, out_w))
        return grad.reshape(x_shape)

    return _op("avg_pool2d", out.astype(x.data.dtype, copy=False), (x,),
               (vjp,))


def global_avg_pool2d(x: Tensor) -> Tensor:
    """(N,C,H,W) -> (N,C) average over spatial dims."""
    return x.mean(axis=(2, 3))


def upsample_nearest2d(x: Tensor, scale: int = 2) -> Tensor:
    """Nearest-neighbour upsampling by an integer factor.

    Backward pass sums gradients over each ``scale x scale`` block.
    """
    n, c, h, w = x.shape
    out = x.data.repeat(scale, axis=2).repeat(scale, axis=3)
    return _op("upsample_nearest2d", out, (x,),
               (lambda g: g.reshape(n, c, h, scale, w, scale)
                .sum(axis=(3, 5)),))


def pad2d(x: Tensor, padding: Tuple[int, int]) -> Tensor:
    """Zero-pad the two trailing (spatial) dimensions symmetrically."""
    ph, pw = padding
    out = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant")
    h, w = x.shape[2], x.shape[3]
    return _op("pad2d", out, (x,), (lambda g: g[:, :, ph:ph + h, pw:pw + w],))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def dropout(x: Tensor, p: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout — identity at evaluation time."""
    if not training or p <= 0.0:
        return x
    mask = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return _op("dropout", x.data * mask, (x,), (lambda g: g * mask,))
