"""RP2 — Robust Physical Perturbations, Eykholt et al. 2018 (§III-E.1, eq. 6).

Optimizes a *sticker-like* perturbation confined to the sign surface by a
binary mask, robust across an expectation over environmental transformations
(brightness, translation, sensor noise), and penalized for (a) perturbation
magnitude and (b) non-printability (colors a physical printer cannot
reproduce).

The three loss terms of eq. (6) map one-to-one onto this implementation:

* ``lambda * ||M.delta||_p``      -> ``lambda_norm * mean |masked delta|``
* ``NPS``                          -> distance of patch colors to a printable
                                      palette
* ``E_{x~X_V}[J(f(x + T(M.delta)), y*)]`` -> mean task loss over sampled
                                      transformations (we *maximize* the task
                                      loss: hiding the stop sign is the
                                      single-class analogue of targeted
                                      misclassification to "no sign")
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .base import Attack, LossFn, frozen_model
from ..nn import Adam, Tensor

# A small "printable" palette: saturated primaries plus black/white.  NPS
# penalizes patch pixels far from every palette entry.
PRINTABLE_COLORS = np.array([
    [0.0, 0.0, 0.0], [1.0, 1.0, 1.0],
    [0.8, 0.1, 0.1], [0.1, 0.1, 0.8], [0.1, 0.8, 0.1],
    [0.9, 0.9, 0.1], [0.6, 0.3, 0.1],
], dtype=np.float32)


def non_printability_score(patch: Tensor) -> Tensor:
    """Mean over pixels of the product of distances to each printable color.

    Following Sharif et al. / RP2: a pixel close to *any* printable color
    scores near zero.  ``patch`` is (N, 3, H, W).
    """
    n, c, h, w = patch.shape
    flat = patch.transpose(0, 2, 3, 1).reshape(n * h * w, c)
    score = None
    for color in PRINTABLE_COLORS:
        dist = ((flat - Tensor(color.reshape(1, 3))) ** 2).sum(axis=1)
        score = dist if score is None else score * dist
    return score.mean()


class RP2Attack(Attack):
    """Masked, transformation-robust perturbation optimized with Adam."""

    name = "RP2"

    def __init__(self, lambda_norm: float = 0.05, lambda_nps: float = 0.01,
                 n_iter: int = 40, n_transforms: int = 4, lr: float = 0.1,
                 max_shift: int = 2, eps: float = 0.5,
                 sticker_bands: bool = True, seed: int = 0):
        self.lambda_norm = float(lambda_norm)
        self.lambda_nps = float(lambda_nps)
        self.n_iter = int(n_iter)
        self.n_transforms = int(n_transforms)
        self.lr = float(lr)
        self.max_shift = int(max_shift)
        # Physical-realism constraints: a printed sticker has bounded
        # contrast against the sign (L-inf <= eps), and RP2's stickers cover
        # *bands* of the sign face, not its whole surface.
        self.eps = float(eps)
        self.sticker_bands = bool(sticker_bands)
        self.seed = int(seed)
        self._rng = np.random.default_rng(seed)

    @staticmethod
    def _band_mask(mask: np.ndarray) -> np.ndarray:
        """Restrict each image's mask to two horizontal sticker bands.

        Mirrors the canonical RP2 stop-sign attack (black/white strips above
        and below the lettering).  ``mask`` is (N, 1, H, W).
        """
        out = np.zeros_like(mask)
        for i in range(mask.shape[0]):
            rows = np.nonzero(mask[i, 0].sum(axis=1))[0]
            if rows.size == 0:
                continue
            top_row, bottom_row = rows.min(), rows.max()
            height = bottom_row - top_row + 1
            for center in (0.30, 0.72):
                band_lo = top_row + int(height * (center - 0.10))
                band_hi = top_row + int(height * (center + 0.10))
                out[i, 0, band_lo:band_hi + 1] = mask[i, 0, band_lo:band_hi + 1]
        return out

    # ------------------------------------------------------------------
    def _sample_transform(self) -> Tuple[float, int, int, float]:
        """(brightness scale, dy, dx, noise sigma) for one E_x sample."""
        brightness = self._rng.uniform(0.8, 1.2)
        dy = int(self._rng.integers(-self.max_shift, self.max_shift + 1))
        dx = int(self._rng.integers(-self.max_shift, self.max_shift + 1))
        sigma = self._rng.uniform(0.0, 0.02)
        return brightness, dy, dx, sigma

    @staticmethod
    def _shift(arr: np.ndarray, dy: int, dx: int) -> np.ndarray:
        return np.roll(np.roll(arr, dy, axis=-2), dx, axis=-1)

    # ------------------------------------------------------------------
    def perturb(self, images: np.ndarray, loss_fn: LossFn,
                mask: Optional[np.ndarray] = None) -> np.ndarray:
        x = images.astype(np.float32)
        if mask is None:
            mask = np.ones_like(x[:, :1])
        mask = mask.astype(np.float32)
        if self.sticker_bands:
            mask = self._band_mask(mask)
        delta = Tensor(np.zeros_like(x), requires_grad=True)
        optimizer = Adam([delta], lr=self.lr)
        mask_t = Tensor(np.broadcast_to(mask, x.shape).copy())

        # Adam updates only delta: the model's weight gradients would never
        # be read, so the sweeps run with its parameters frozen.
        with frozen_model(loss_fn):
            for _ in range(self.n_iter):
                optimizer.zero_grad()
                masked_delta = delta * mask_t
                # Expectation over transformations of the *negative* task
                # loss (we maximize task loss, so we minimize its negative).
                task_terms = []
                for _ in range(self.n_transforms):
                    brightness, dy, dx, sigma = self._sample_transform()
                    moved = Tensor(self._shift(masked_delta.data, dy, dx))
                    # Straight-through: transformation applied to data,
                    # gradient flows through the un-shifted delta (small
                    # shifts, so the approximation is tight and keeps the
                    # graph cheap).
                    perturbed = Tensor(np.clip(
                        brightness * x + moved.data
                        + self._rng.normal(0, sigma, x.shape), 0, 1
                    ).astype(np.float32)) + (masked_delta
                                             - masked_delta.detach())
                    task_terms.append(loss_fn(perturbed))
                task_loss = task_terms[0]
                for term in task_terms[1:]:
                    task_loss = task_loss + term
                task_loss = task_loss * (1.0 / self.n_transforms)
                norm_term = masked_delta.abs().mean()
                nps_term = non_printability_score(
                    (Tensor(x) + masked_delta).clip(0, 1))
                objective = (-1.0 * task_loss
                             + self.lambda_norm * norm_term
                             + self.lambda_nps * nps_term)
                objective.backward()
                optimizer.step()
                # Keep the sticker physically plausible and the image
                # feasible.
                delta.data[...] = np.clip(delta.data, -self.eps, self.eps)
                delta.data[...] = np.clip(x + delta.data * mask, 0, 1) - x
                delta.data[...] = delta.data * mask

        return np.clip(x + delta.data * mask, 0.0, 1.0).astype(np.float32)

    def __repr__(self) -> str:
        return (f"RP2Attack(n_iter={self.n_iter}, "
                f"n_transforms={self.n_transforms})")
