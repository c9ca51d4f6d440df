"""SimBA — Simple Black-box Attack, Guo et al. 2019 (§III-D, eq. 4).

No gradients: the attacker only *queries* the loss.  Each step samples an
unused direction ``q`` from an orthonormal basis (pixel basis, or the
low-frequency block of the 2-D DCT basis), tries ``delta + eps*q`` and
``delta - eps*q``, and keeps whichever increases the adversarial objective.
Because directions are orthonormal and each contributes at most ``eps``,
the cumulative perturbation obeys ``||delta_T||_2^2 <= T * eps^2`` — an
invariant our property tests check directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .base import Attack, LossFn, slice_loss_fn
from ..nn import Tensor, no_grad


@dataclass
class SimBAResult:
    """Bookkeeping for query-efficiency analysis."""

    queries: int = 0
    accepted_steps: int = 0
    loss_trace: List[float] = field(default_factory=list)


class SimBAAttack(Attack):
    """Query-based attack over the pixel or DCT orthonormal basis."""

    name = "SimBA"

    def __init__(self, eps: float = 0.15, max_queries: int = 400,
                 basis: str = "dct", dct_fraction: float = 0.25,
                 seed: int = 0):
        if basis not in ("pixel", "dct"):
            raise ValueError("basis must be 'pixel' or 'dct'")
        self.eps = float(eps)
        self.max_queries = int(max_queries)
        self.basis = basis
        self.dct_fraction = dct_fraction
        self.seed = int(seed)
        self._rng = np.random.default_rng(seed)
        self.last_result: Optional[SimBAResult] = None

    # ------------------------------------------------------------------
    def _direction(self, shape: Tuple[int, ...], index: int) -> np.ndarray:
        """The ``index``-th basis direction as a dense image-shaped array."""
        c, h, w = shape
        direction = np.zeros(shape, dtype=np.float32)
        if self.basis == "pixel":
            flat_index = index
            direction.reshape(-1)[flat_index] = 1.0
            return direction
        # DCT basis restricted to the low-frequency top-left block, which is
        # where SimBA-DCT gets its query efficiency.  Imported here so that
        # importing repro never loads the FFT package.
        from scipy.fftpack import idct

        block_h = max(1, int(h * self.dct_fraction))
        block_w = max(1, int(w * self.dct_fraction))
        per_channel = block_h * block_w
        channel = index // per_channel
        rem = index % per_channel
        row, col = rem // block_w, rem % block_w
        coeffs = np.zeros((h, w), dtype=np.float32)
        coeffs[row, col] = 1.0
        wave = idct(idct(coeffs, axis=0, norm="ortho"), axis=1, norm="ortho")
        norm = np.linalg.norm(wave)
        direction[channel % c] = wave / max(norm, 1e-12)
        return direction

    def _n_directions(self, shape: Tuple[int, ...]) -> int:
        c, h, w = shape
        if self.basis == "pixel":
            return c * h * w
        block_h = max(1, int(h * self.dct_fraction))
        block_w = max(1, int(w * self.dct_fraction))
        return c * block_h * block_w

    # ------------------------------------------------------------------
    def perturb(self, images: np.ndarray, loss_fn: LossFn,
                mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Attack each image independently (SimBA is per-example)."""
        out = images.astype(np.float32).copy()
        total = SimBAResult()
        for i in range(len(images)):
            adv, result = self._attack_single(
                images[i:i + 1], slice_loss_fn(loss_fn, i),
                None if mask is None else mask[i:i + 1])
            out[i] = adv[0]
            total.queries += result.queries
            total.accepted_steps += result.accepted_steps
            total.loss_trace.extend(result.loss_trace)
        self.last_result = total
        return out

    def _attack_single(self, image: np.ndarray, loss_fn: LossFn,
                       mask: Optional[np.ndarray]
                       ) -> Tuple[np.ndarray, SimBAResult]:
        result = SimBAResult()

        def query(arr: np.ndarray) -> float:
            result.queries += 1
            with no_grad():
                return float(loss_fn(Tensor(arr)).data)

        shape = image.shape[1:]
        order = self._rng.permutation(self._n_directions(shape))
        delta = np.zeros_like(image)
        current_loss = query(image)
        result.loss_trace.append(current_loss)
        step_index = 0
        while result.queries < self.max_queries and step_index < len(order):
            direction = self._direction(shape, int(order[step_index]))[None]
            if mask is not None:
                direction = direction * mask
            step_index += 1
            if not np.any(direction):
                continue
            for sign in (+1.0, -1.0):
                candidate_delta = delta + sign * self.eps * direction
                candidate = np.clip(image + candidate_delta, 0.0, 1.0)
                loss = query(candidate)
                if loss > current_loss:
                    delta = candidate_delta
                    current_loss = loss
                    result.accepted_steps += 1
                    result.loss_trace.append(loss)
                    break
                if result.queries >= self.max_queries:
                    break
        return np.clip(image + delta, 0.0, 1.0).astype(np.float32), result

    def __repr__(self) -> str:
        return (f"SimBAAttack(eps={self.eps}, basis={self.basis!r}, "
                f"max_queries={self.max_queries})")
