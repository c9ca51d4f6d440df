"""Image transforms shared by the datasets, defenses, and contrastive pipeline.

All images in this project are ``float32`` CHW arrays in ``[0, 1]``.  These
helpers are plain numpy (not differentiable) — they run on the data path, not
inside the attacked computational graph.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def clip01(image: np.ndarray) -> np.ndarray:
    """Clamp to the valid pixel range."""
    return np.clip(image, 0.0, 1.0).astype(np.float32)


def to_chw(image_hwc: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(image_hwc.transpose(2, 0, 1)).astype(np.float32)


def to_hwc(image_chw: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(image_chw.transpose(1, 2, 0)).astype(np.float32)


def bilinear_resize(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of a CHW image (align_corners=False convention)."""
    c, h, w = image.shape
    if (h, w) == (out_h, out_w):
        return image.astype(np.float32).copy()
    ys = (np.arange(out_h) + 0.5) * h / out_h - 0.5
    xs = (np.arange(out_w) + 0.5) * w / out_w - 0.5
    ys = np.clip(ys, 0, h - 1)
    xs = np.clip(xs, 0, w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0).astype(np.float32)[None, :, None]
    wx = (xs - x0).astype(np.float32)[None, None, :]
    top = image[:, y0][:, :, x0] * (1 - wx) + image[:, y0][:, :, x1] * wx
    bottom = image[:, y1][:, :, x0] * (1 - wx) + image[:, y1][:, :, x1] * wx
    return (top * (1 - wy) + bottom * wy).astype(np.float32)


def letterbox(image: np.ndarray, out_h: int, out_w: int,
              fill: float = 0.5) -> Tuple[np.ndarray, float, Tuple[int, int]]:
    """Resize preserving aspect ratio and pad to ``(out_h, out_w)``.

    Returns the padded image, the scale factor, and the (top, left) offsets —
    enough to map boxes between the two coordinate systems.
    """
    c, h, w = image.shape
    scale = min(out_h / h, out_w / w)
    new_h, new_w = int(round(h * scale)), int(round(w * scale))
    resized = bilinear_resize(image, new_h, new_w)
    canvas = np.full((c, out_h, out_w), fill, dtype=np.float32)
    top = (out_h - new_h) // 2
    left = (out_w - new_w) // 2
    canvas[:, top:top + new_h, left:left + new_w] = resized
    return canvas, scale, (top, left)


def horizontal_flip(image: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(image[:, :, ::-1])


def random_crop_resize(image: np.ndarray, rng: np.random.Generator,
                       min_scale: float = 0.6) -> np.ndarray:
    """Random resized crop back to the original size (SimCLR augmentation)."""
    c, h, w = image.shape
    scale = rng.uniform(min_scale, 1.0)
    crop_h = max(2, int(h * scale))
    crop_w = max(2, int(w * scale))
    top = rng.integers(0, h - crop_h + 1)
    left = rng.integers(0, w - crop_w + 1)
    crop = image[:, top:top + crop_h, left:left + crop_w]
    return bilinear_resize(crop, h, w)


def color_jitter(image: np.ndarray, rng: np.random.Generator,
                 brightness: float = 0.3, contrast: float = 0.3) -> np.ndarray:
    """Random brightness/contrast jitter."""
    out = image.copy()
    out *= 1.0 + rng.uniform(-contrast, contrast)
    out += rng.uniform(-brightness, brightness)
    return clip01(out)


def gaussian_blur3(image: np.ndarray) -> np.ndarray:
    """Cheap 3x3 binomial blur used as a contrastive augmentation."""
    kernel = np.array([1.0, 2.0, 1.0], dtype=np.float32) / 4.0
    padded = np.pad(image, ((0, 0), (1, 1), (0, 0)), mode="edge")
    out = (padded[:, :-2] * kernel[0] + padded[:, 1:-1] * kernel[1]
           + padded[:, 2:] * kernel[2])
    padded = np.pad(out, ((0, 0), (0, 0), (1, 1)), mode="edge")
    out = (padded[:, :, :-2] * kernel[0] + padded[:, :, 1:-1] * kernel[1]
           + padded[:, :, 2:] * kernel[2])
    return out.astype(np.float32)


def _med3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))


def median_blur(images: np.ndarray, k: int = 3) -> np.ndarray:
    """Exact k×k median filter of an (N, C, H, W) batch, as float32.

    Borders replicate the nearest edge pixel (``mode="nearest"`` of an
    ndimage median filter run per channel), and on finite and ±inf inputs
    the result equals that filter bit for bit: the median of an odd window
    is one of its inputs and only comparisons pick it, and the float32
    cast is monotonic, so casting first changes nothing either.

    ``k = 3`` sorts every vertical triple once with three min/max
    compare-exchanges; a pixel's median is then ``med3`` of the max of the
    three column lows, the ``med3`` of the column mids and the min of the
    column highs over its three columns.  Any NaN in a pixel's window makes
    that pixel NaN (a per-channel ndimage filter puts NaN results in
    arbitrary places).  Other odd ``k`` partition the k² shifted views of
    the padded batch, which orders NaN last.
    """
    k = int(k)
    if k < 1 or k % 2 == 0:
        raise ValueError("kernel size must be odd and positive")
    x = np.asarray(images, dtype=np.float32)
    r = k // 2
    h, w = x.shape[-2:]
    padded = np.pad(x, ((0, 0), (0, 0), (r, r), (r, r)), mode="edge")
    if k == 3:
        a, b, c = padded[:, :, :-2], padded[:, :, 1:-1], padded[:, :, 2:]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        lo, c = np.minimum(lo, c), np.maximum(lo, c)
        mid, hi = np.minimum(hi, c), np.maximum(hi, c)
        left, centre, right = slice(None, -2), slice(1, -1), slice(2, None)
        lows = np.maximum(np.maximum(lo[..., left], lo[..., centre]),
                          lo[..., right])
        mids = _med3(mid[..., left], mid[..., centre], mid[..., right])
        highs = np.minimum(np.minimum(hi[..., left], hi[..., centre]),
                           hi[..., right])
        return _med3(lows, mids, highs)
    views = np.stack([padded[:, :, i:i + h, j:j + w]
                      for i in range(k) for j in range(k)])
    return np.partition(views, k * k // 2, axis=0)[k * k // 2]


def simclr_augment(image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The augmentation pipeline for contrastive-view generation."""
    out = random_crop_resize(image, rng)
    if rng.random() < 0.5:
        out = horizontal_flip(out)
    out = color_jitter(out, rng)
    if rng.random() < 0.3:
        out = gaussian_blur3(out)
    return clip01(out)
