"""Fast Gradient Sign Method — eq. (2), Goodfellow et al. 2015.

One step of size ``eps`` along the sign of the input gradient of the task
loss.  White-box, cheap, and the paper's canonical "medium strength" attack.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import Attack, LossFn, apply_mask, input_gradient


class FGSMAttack(Attack):
    """x_adv = clip(x + eps * sign(grad_x J)) (or the L2-normalized step).

    ``norm="linf"`` is eq. (2) verbatim; ``norm="l2"`` takes a step of L2
    length ``eps`` along the raw gradient direction (the FGM variant), which
    downstream code uses for norm-sensitivity ablations.
    """

    name = "FGSM"

    def __init__(self, eps: float = 0.06, norm: str = "linf"):
        if eps < 0:
            raise ValueError("eps must be non-negative")
        if norm not in ("linf", "l2"):
            raise ValueError("norm must be 'linf' or 'l2'")
        self.eps = float(eps)
        self.norm = norm

    def perturb(self, images: np.ndarray, loss_fn: LossFn,
                mask: Optional[np.ndarray] = None) -> np.ndarray:
        _, grad = input_gradient(images, loss_fn, mask=None)
        if self.norm == "linf":
            step = self.eps * np.sign(grad)
        else:
            flat = grad.reshape(len(grad), -1)
            norms = np.linalg.norm(flat, axis=1).reshape(-1, 1, 1, 1)
            step = self.eps * grad / np.maximum(norms, 1e-12)
        step = apply_mask(step, mask)
        return np.clip(images + step, 0.0, 1.0).astype(np.float32)

    def __repr__(self) -> str:
        return f"FGSMAttack(eps={self.eps}, norm={self.norm!r})"
