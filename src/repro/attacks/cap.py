"""CAP-Attack — runtime stealthy perception attack, Zhou et al. 2025 (eq. 7).

Unlike the offline attacks, CAP-Attack runs *inside the control loop*: for
each incoming frame it

1. locates the lead vehicle's bounding box,
2. **inherits** the previous frame's patch, re-fitted (scaled/translated) to
   the new box so the perturbation stays glued to the vehicle,
3. uses an attribution pass (the input gradient restricted to the box — the
   regions the model is most sensitive to) to refine the patch with a few
   cheap ascent steps, and
4. regularizes the patch magnitude (``lambda * ||Delta_t||_p``) for stealth.

The per-frame budget is deliberately tiny (1–2 gradient steps) — the attack's
power comes from temporal accumulation, which is why the paper evaluates it
in the ACC pipeline and why our closed-loop simulator supports it.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .base import Attack, LossFn, boxes_to_mask, input_gradient, slice_loss_fn
from ..data.transforms import bilinear_resize

Box = Tuple[int, int, int, int]


class CAPAttack(Attack):
    """Stateful frame-by-frame adversarial patch on the lead-vehicle box."""

    name = "CAP-Attack"

    def __init__(self, eps: float = 0.10, step: float = 0.04,
                 steps_per_frame: int = 2, lambda_reg: float = 0.05,
                 attribution_fraction: float = 0.6):
        self.eps = float(eps)
        self.step = float(step)
        self.steps_per_frame = int(steps_per_frame)
        self.lambda_reg = float(lambda_reg)
        self.attribution_fraction = float(attribution_fraction)
        self._patch: Optional[np.ndarray] = None  # (3, h, w) patch in box coords
        self.reset()

    def reset(self) -> None:
        """Forget inherited state (call between videos)."""
        self._patch = None

    # ------------------------------------------------------------------
    def _inherit_patch(self, box: Box, channels: int) -> np.ndarray:
        """Resize the inherited patch to the new box (eq. 7's frame-to-frame
        adaptation); start from zeros on the first frame."""
        x1, y1, x2, y2 = box
        h, w = max(1, y2 - y1), max(1, x2 - x1)
        if self._patch is None:
            return np.zeros((channels, h, w), dtype=np.float32)
        if self._patch.shape[1:] == (h, w):
            return self._patch.copy()
        return bilinear_resize(self._patch, h, w)

    def _attribution_mask(self, grad_patch: np.ndarray) -> np.ndarray:
        """Keep only the most sensitive fraction of pixels in the box.

        This is the paper's attribution mechanism: concentrating the
        perturbation where the DNN is most sensitive increases effect per
        unit of visible change.
        """
        magnitude = np.abs(grad_patch).sum(axis=0)
        if magnitude.size == 0:
            return np.ones_like(grad_patch)
        threshold = np.quantile(magnitude, 1.0 - self.attribution_fraction)
        return (magnitude >= threshold).astype(np.float32)[None]

    # ------------------------------------------------------------------
    def attack_frame(self, frame: np.ndarray, box: Optional[Box],
                     loss_fn: LossFn) -> np.ndarray:
        """Attack a single (3,H,W) frame, updating internal patch state."""
        if box is None:
            return frame.astype(np.float32).copy()
        c, height, width = frame.shape
        x1, y1, x2, y2 = box
        x1, y1 = max(0, int(x1)), max(0, int(y1))
        x2, y2 = min(width, int(x2)), min(height, int(y2))
        if x2 <= x1 or y2 <= y1:
            return frame.astype(np.float32).copy()
        patch = self._inherit_patch((x1, y1, x2, y2), c)
        batch = frame[None].astype(np.float32)
        mask = boxes_to_mask([(x1, y1, x2, y2)], height, width)
        for _ in range(self.steps_per_frame):
            adv = batch.copy()
            adv[0, :, y1:y2, x1:x2] = np.clip(
                adv[0, :, y1:y2, x1:x2] + patch, 0.0, 1.0)
            _, grad = input_gradient(adv, loss_fn, mask=mask)
            grad_patch = grad[0, :, y1:y2, x1:x2]
            attribution = self._attribution_mask(grad_patch)
            ascent = self.step * np.sign(grad_patch) * attribution
            # L_p regularization term of eq. (7): shrink toward stealth.
            patch = patch + ascent - self.lambda_reg * self.step * np.sign(patch)
            patch = np.clip(patch, -self.eps, self.eps)
        self._patch = patch
        out = frame.astype(np.float32).copy()
        out[:, y1:y2, x1:x2] = np.clip(out[:, y1:y2, x1:x2] + patch, 0.0, 1.0)
        return out

    # ------------------------------------------------------------------
    def perturb(self, images: np.ndarray, loss_fn: LossFn,
                mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Batch interface: treats the batch as a *temporal sequence*.

        ``loss_fn`` must accept a single-frame batch (shape (1,C,H,W)); the
        evaluation harness builds per-frame adapters for exactly this reason.
        Boxes are derived from ``mask`` (bounding rectangle per frame).
        """
        boxes = _mask_to_boxes(mask, len(images))
        loss_fns = [slice_loss_fn(loss_fn, i) for i in range(len(images))]
        return self.perturb_sequence(images, loss_fns, boxes)

    def perturb_sequence(self, images: np.ndarray,
                         loss_fns: Sequence[LossFn],
                         boxes: Sequence[Optional[Box]]) -> np.ndarray:
        """Attack a temporal frame sequence with per-frame loss adapters."""
        out = np.empty_like(images, dtype=np.float32)
        for i, frame in enumerate(images):
            out[i] = self.attack_frame(frame, boxes[i], loss_fns[i])
        return out

    def __repr__(self) -> str:
        return (f"CAPAttack(eps={self.eps}, steps_per_frame="
                f"{self.steps_per_frame})")


def _mask_to_boxes(mask: Optional[np.ndarray], n: int):
    if mask is None:
        return [None] * n
    boxes = []
    for i in range(n):
        nonzero = np.nonzero(mask[i, 0])
        if nonzero[0].size == 0:
            boxes.append(None)
            continue
        boxes.append((int(nonzero[1].min()), int(nonzero[0].min()),
                      int(nonzero[1].max()) + 1, int(nonzero[0].max()) + 1))
    return boxes
