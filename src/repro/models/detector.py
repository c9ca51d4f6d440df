"""``TinyDetector`` — the YOLOv8 stand-in for single-class stop-sign detection.

The paper configures YOLOv8 for single-class detection (§V-B.2), which makes
the essential structure a grid of cells each predicting an objectness score
and a box.  ``TinyDetector`` is exactly that: backbone to an S×S grid, then a
1×1 conv head emitting ``(obj, tx, ty, tw, th)`` per cell, YOLO box decoding
(sigmoid center offsets, exponential size w.r.t. an anchor), confidence
thresholding, and IoU NMS.

Everything is differentiable through :mod:`repro.nn`, so FGSM/PGD attacks on
the detection loss work exactly as they do against the real model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..nn import Conv2d, Module, Tensor, losses, no_grad
from .backbone import Backbone


@dataclass
class Detection:
    """One decoded detection: pixel-space box and confidence."""

    box: Tuple[float, float, float, float]
    score: float


def box_iou(a: Sequence[float], b: Sequence[float]) -> float:
    """IoU of two (x1, y1, x2, y2) boxes."""
    ix1, iy1 = max(a[0], b[0]), max(a[1], b[1])
    ix2, iy2 = min(a[2], b[2]), min(a[3], b[3])
    inter = max(0.0, ix2 - ix1) * max(0.0, iy2 - iy1)
    area_a = max(0.0, a[2] - a[0]) * max(0.0, a[3] - a[1])
    area_b = max(0.0, b[2] - b[0]) * max(0.0, b[3] - b[1])
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


def nms(detections: List[Detection], iou_threshold: float = 0.45) -> List[Detection]:
    """Greedy non-maximum suppression, highest score first."""
    ordered = sorted(detections, key=lambda d: d.score, reverse=True)
    kept: List[Detection] = []
    for det in ordered:
        if all(box_iou(det.box, k.box) < iou_threshold for k in kept):
            kept.append(det)
    return kept


class TinyDetector(Module):
    """Grid-based single-class detector over (3, 64, 64) images."""

    def __init__(self, image_size: int = 64, anchor: float = 16.0,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.image_size = image_size
        self.anchor = anchor
        self.backbone = Backbone(rng=rng)
        self.head = Conv2d(self.backbone.out_channels, 5, 1, rng=rng)
        self.grid = image_size // 8
        self.stride = 8.0

    # ------------------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:
        """Raw head output, shape (N, 5, S, S)."""
        return self.head(self.backbone(x))

    # ------------------------------------------------------------------
    def loss(self, x: Tensor, targets: Sequence[Sequence[Tuple[float, float, float, float]]],
             box_weight: float = 5.0) -> Tensor:
        """YOLO-style loss: objectness BCE everywhere + box MSE on positives.

        ``targets[i]`` is the list of ground-truth (x1,y1,x2,y2) boxes for
        image ``i``.
        """
        raw = self.forward(x)
        n = raw.shape[0]
        s = self.grid
        obj_target = np.zeros((n, 1, s, s), dtype=np.float32)
        box_target = np.zeros((n, 4, s, s), dtype=np.float32)
        box_mask = np.zeros((n, 1, s, s), dtype=np.float32)
        for i, boxes in enumerate(targets):
            for (x1, y1, x2, y2) in boxes:
                cx, cy = (x1 + x2) / 2.0, (y1 + y2) / 2.0
                col = int(np.clip(cx // self.stride, 0, s - 1))
                row = int(np.clip(cy // self.stride, 0, s - 1))
                obj_target[i, 0, row, col] = 1.0
                box_mask[i, 0, row, col] = 1.0
                # Targets in head parameterization.
                tx = cx / self.stride - col
                ty = cy / self.stride - row
                tw = np.log(max(x2 - x1, 1e-3) / self.anchor)
                th = np.log(max(y2 - y1, 1e-3) / self.anchor)
                box_target[i, :, row, col] = [tx, ty, tw, th]

        obj_logits = raw[:, 0:1]
        # Up-weight the rare positive cells so objectness learns quickly.
        pos_weight = np.where(obj_target > 0.5, 8.0, 1.0).astype(np.float32)
        obj_loss = losses.bce_with_logits(obj_logits, obj_target,
                                          weight=pos_weight)
        xy = raw[:, 1:3].sigmoid()
        wh = raw[:, 3:5]
        xy_loss = (((xy - Tensor(box_target[:, 0:2])) ** 2)
                   * Tensor(box_mask)).sum() * (1.0 / max(1.0, box_mask.sum()))
        wh_loss = (((wh - Tensor(box_target[:, 2:4])) ** 2)
                   * Tensor(box_mask)).sum() * (1.0 / max(1.0, box_mask.sum()))
        return obj_loss + box_weight * (xy_loss + wh_loss)

    # ------------------------------------------------------------------
    def suppression_loss(self, x: Tensor,
                         targets: Sequence[Sequence[Tuple[float, float, float, float]]]
                         ) -> Tensor:
        """Adversarial objective that *hides* stop signs.

        The BCE of the objectness logits at ground-truth cells against their
        positive label: maximizing it drives the sign cells' confidence to
        zero while leaving background cells untouched.  This is the failure
        mode the paper measures (recall collapses, precision stays high —
        Fig. 2), as opposed to phantom-spawning which would crater precision.
        """
        raw = self.forward(x)
        n, s = raw.shape[0], self.grid
        positive = np.zeros((n, 1, s, s), dtype=np.float32)
        for i, boxes in enumerate(targets):
            for (x1, y1, x2, y2) in boxes:
                col = int(np.clip(((x1 + x2) / 2) // self.stride, 0, s - 1))
                row = int(np.clip(((y1 + y2) / 2) // self.stride, 0, s - 1))
                positive[i, 0, row, col] = 1.0
        obj_logits = raw[:, 0:1]
        per_cell = losses.bce_with_logits(obj_logits, positive,
                                          reduction="none")
        total = (per_cell * Tensor(positive)).sum()
        count = max(1.0, float(positive.sum()))
        return total * (1.0 / count)

    # ------------------------------------------------------------------
    def decode(self, raw: np.ndarray, conf_threshold: float = 0.5,
               iou_threshold: float = 0.45) -> List[List[Detection]]:
        """Decode raw head output (N,5,S,S) into per-image detections."""
        n, _, s, _ = raw.shape
        results: List[List[Detection]] = []
        cols, rows = np.meshgrid(np.arange(s), np.arange(s))
        for i in range(n):
            obj = 1.0 / (1.0 + np.exp(-raw[i, 0]))
            keep = obj >= conf_threshold
            detections: List[Detection] = []
            if keep.any():
                tx = 1.0 / (1.0 + np.exp(-raw[i, 1]))
                ty = 1.0 / (1.0 + np.exp(-raw[i, 2]))
                tw = np.exp(np.clip(raw[i, 3], -4, 2.5))
                th = np.exp(np.clip(raw[i, 4], -4, 2.5))
                for row, col in zip(*np.nonzero(keep)):
                    cx = (col + tx[row, col]) * self.stride
                    cy = (row + ty[row, col]) * self.stride
                    w = tw[row, col] * self.anchor
                    h = th[row, col] * self.anchor
                    detections.append(Detection(
                        box=(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2),
                        score=float(obj[row, col])))
            results.append(nms(detections, iou_threshold))
        return results

    def detect(self, images: np.ndarray, conf_threshold: float = 0.5
               ) -> List[List[Detection]]:
        """Convenience: forward + decode in eval mode on a numpy batch."""
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                raw = self.forward(Tensor(images)).data
        finally:
            if was_training:
                self.train()
        return self.decode(raw, conf_threshold=conf_threshold)
