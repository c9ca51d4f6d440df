"""Auto-PGD — eq. (3), Croce & Hein 2020.

Iterative projected gradient ascent with the two Auto-PGD ingredients that
distinguish it from plain PGD:

* a **momentum** update ``z = x + alpha*sign(g); x' = x + eta*(z - x) +
  (1-eta)*(x - x_prev)`` with ``eta = 0.75``;
* an **adaptive step size**: at checkpoints, if progress has stalled (too few
  loss-improving steps, or the step size hasn't changed while the best loss
  hasn't improved) the step is halved and the iterate restarts from the best
  point found so far.

The attack tracks the best-loss iterate and returns it, which is what makes
Auto-PGD "parameter-free" and reliably the strongest attack in Table I.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .base import Attack, LossFn, input_gradient
from ..nn import Tensor, no_grad


def _checkpoints(n_iter: int) -> List[int]:
    """The Croce–Hein checkpoint schedule: decreasing gaps, p_{j+1} =
    p_j + max(p_j - p_{j-1} - 0.03, 0.06)."""
    points = [0.0, 0.22]
    while points[-1] < 1.0:
        gap = max(points[-1] - points[-2] - 0.03, 0.06)
        points.append(points[-1] + gap)
    return sorted({int(np.ceil(p * n_iter)) for p in points if p <= 1.0})


class AutoPGDAttack(Attack):
    """L-infinity Auto-PGD."""

    name = "Auto-PGD"

    def __init__(self, eps: float = 0.06, n_iter: int = 20,
                 momentum: float = 0.75, seed: int = 0,
                 random_start: bool = True):
        if eps < 0:
            raise ValueError("eps must be non-negative")
        self.eps = float(eps)
        self.n_iter = int(n_iter)
        self.momentum = float(momentum)
        self.random_start = random_start
        self.seed = int(seed)
        self._rng = np.random.default_rng(seed)

    def _project(self, x_adv: np.ndarray, x: np.ndarray,
                 mask: Optional[np.ndarray]) -> np.ndarray:
        """Project into the L-inf ball around x, the valid range, and mask."""
        delta = np.clip(x_adv - x, -self.eps, self.eps)
        if mask is not None:
            delta = delta * mask
        return np.clip(x + delta, 0.0, 1.0).astype(np.float32)

    def perturb(self, images: np.ndarray, loss_fn: LossFn,
                mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Return the best-loss iterate.

        Each gradient query also returns the loss of the point it
        differentiates, so iterate *k*'s loss comes from the query that
        iterate *k + 1* steps from, and the best iterate's gradient is kept
        beside it for a checkpoint reset.  Only the last iterate needs a
        loss-only forward, run without a tape: ``n_iter`` backward sweeps
        and ``n_iter + 1`` forwards per batch.  On a train-mode model,
        BatchNorm running statistics see one EMA update per forward, 21
        per batch at the default ``n_iter=20``; the returned batch does not
        depend on them.
        """
        x = images.astype(np.float32)
        if self.random_start:
            start = x + self.eps * self._rng.uniform(
                -1, 1, size=x.shape).astype(np.float32)
        else:
            start = x.copy()
        x_adv = self._project(start, x, mask)
        step = 2.0 * self.eps

        x_prev = x_adv.copy()
        best = x_adv.copy()
        best_loss, grad = input_gradient(x_adv, loss_fn, mask=mask)
        best_grad = grad
        loss_at_last_checkpoint = best_loss
        step_at_last_checkpoint = step
        improving_steps = 0
        checkpoints = set(_checkpoints(self.n_iter))
        since_checkpoint = 0

        for iteration in range(1, self.n_iter + 1):
            z = self._project(x_adv + step * np.sign(grad), x, mask)
            x_next = self._project(
                x_adv + self.momentum * (z - x_adv)
                + (1.0 - self.momentum) * (x_adv - x_prev), x, mask)
            x_prev = x_adv
            x_adv = x_next
            since_checkpoint += 1
            if iteration < self.n_iter:
                current, grad = input_gradient(x_adv, loss_fn, mask=mask)
            else:
                with no_grad():
                    current = float(loss_fn(Tensor(x_adv)).data)
                grad = None
            if current > best_loss:
                best_loss = current
                best = x_adv.copy()
                best_grad = grad
                improving_steps += 1
            if iteration in checkpoints:
                # Condition 1: fewer than 75% of steps since the last
                # checkpoint improved the objective.
                cond1 = improving_steps < 0.75 * since_checkpoint
                # Condition 2: step unchanged and best loss stagnant.
                cond2 = (step == step_at_last_checkpoint
                         and best_loss <= loss_at_last_checkpoint)
                if cond1 or cond2:
                    step = max(step / 2.0, self.eps / 64.0)
                    x_adv = best.copy()
                    x_prev = best.copy()
                    grad = best_grad
                step_at_last_checkpoint = step
                loss_at_last_checkpoint = best_loss
                improving_steps = 0
                since_checkpoint = 0
        return best

    def __repr__(self) -> str:
        return f"AutoPGDAttack(eps={self.eps}, n_iter={self.n_iter})"


class PGDAttack(Attack):
    """Plain fixed-step PGD — the ablation baseline for Auto-PGD."""

    name = "PGD"

    def __init__(self, eps: float = 0.06, n_iter: int = 20,
                 step: Optional[float] = None, seed: int = 0):
        self.eps = float(eps)
        self.n_iter = int(n_iter)
        self.step = step if step is not None else eps / 4.0
        self.seed = int(seed)
        self._rng = np.random.default_rng(seed)

    def perturb(self, images: np.ndarray, loss_fn: LossFn,
                mask: Optional[np.ndarray] = None) -> np.ndarray:
        x = images.astype(np.float32)
        x_adv = np.clip(x + self.eps * self._rng.uniform(
            -1, 1, size=x.shape).astype(np.float32) * (mask if mask is not None else 1.0),
            0.0, 1.0).astype(np.float32)
        for _ in range(self.n_iter):
            _, grad = input_gradient(x_adv, loss_fn, mask=mask)
            x_adv = x_adv + self.step * np.sign(grad)
            delta = np.clip(x_adv - x, -self.eps, self.eps)
            if mask is not None:
                delta = delta * mask
            x_adv = np.clip(x + delta, 0.0, 1.0).astype(np.float32)
        return x_adv
