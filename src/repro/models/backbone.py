"""Shared convolutional backbone for both perception models.

Mirrors the shape of YOLOv8's backbone at miniature scale: a stack of
stride-2 Conv–BN–SiLU stages that reduce the input by 8x.  The same backbone
is reused by the contrastive-learning defense as the encoder ``f_theta`` of
eq. (10).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import ConvBlock, Module, Sequential, Tensor
from ..nn import functional as F


class Backbone(Module):
    """Three stride-2 stages: (3,H,W) -> (channels[2], H/8, W/8)."""

    def __init__(self, channels=(16, 32, 64),
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.stage1 = ConvBlock(3, channels[0], 3, stride=2, rng=rng)
        self.stage2 = ConvBlock(channels[0], channels[1], 3, stride=2, rng=rng)
        self.stage3 = ConvBlock(channels[1], channels[2], 3, stride=2, rng=rng)
        self.out_channels = channels[2]

    def forward(self, x: Tensor) -> Tensor:
        return self.stage3(self.stage2(self.stage1(x)))

    def embed(self, x: Tensor) -> Tensor:
        """Global-average-pooled feature vector (N, C) for contrastive use."""
        return F.global_avg_pool2d(self(x))
