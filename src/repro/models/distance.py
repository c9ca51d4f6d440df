"""``DistanceRegressor`` — the Supercombo stand-in for lead-distance prediction.

OpenPilot's Supercombo is a large multitask network; the paper uses exactly
one of its outputs, the relative distance to the lead vehicle.  This model
reproduces that input/output contract: camera frame in, distance estimate
out, fully differentiable so gradient attacks on the regression output work
identically.

The network predicts distance in a normalized space (``d / MAX_DISTANCE``)
which keeps optimization well-conditioned; :meth:`predict` converts back to
metres.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..data.driving import MAX_DISTANCE
from ..nn import Linear, Module, ReLU, Sequential, Tensor, losses, no_grad
from ..nn import functional as F
from .backbone import Backbone


class DistanceRegressor(Module):
    """(N, 3, 64, 128) frames -> (N,) lead distance in metres."""

    def __init__(self, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.backbone = Backbone(rng=rng)
        self.head = Sequential(
            Linear(self.backbone.out_channels, 64, rng=rng),
            ReLU(),
            Linear(64, 1, rng=rng),
        )

    def forward(self, x: Tensor) -> Tensor:
        """Normalized distance prediction, shape (N, 1)."""
        features = F.global_avg_pool2d(self.backbone(x))
        return self.head(features)

    def loss(self, x: Tensor, distances_m: np.ndarray) -> Tensor:
        """MSE in normalized-distance space."""
        target = (np.asarray(distances_m, dtype=np.float32)
                  / MAX_DISTANCE).reshape(-1, 1)
        return losses.mse_loss(self.forward(x), target)

    def attack_loss(self, x: Tensor, true_distances_m: np.ndarray,
                    mode: str = "inflate") -> Tensor:
        """Adversarial objective the attacks maximize.

        ``mode="inflate"`` (default) is the safety-critical direction the
        paper's attacks target: make the lead look *farther* than it is, so
        ACC closes in (CAP-Attack's explicit goal; also why every "None" row
        of Table I is positive).  ``mode="error"`` is the untargeted variant
        (maximize squared error from the truth), kept for ablations.
        """
        if mode == "inflate":
            return self.forward(x).mean()
        if mode == "error":
            target = (np.asarray(true_distances_m, dtype=np.float32)
                      / MAX_DISTANCE).reshape(-1, 1)
            return losses.mse_loss(self.forward(x), target)
        raise ValueError(f"unknown attack mode {mode!r}")

    def predict(self, images: np.ndarray) -> np.ndarray:
        """Distances in metres for a numpy batch, eval mode, no tape."""
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                out = self.forward(Tensor(images)).data
        finally:
            if was_training:
                self.train()
        return out.reshape(-1) * MAX_DISTANCE
