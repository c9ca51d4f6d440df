"""Attack interface and loss adapters.

Every attack transforms a numpy image batch into an adversarial batch.  The
model enters through a *loss adapter*: a callable ``loss_fn(x: Tensor) ->
Tensor`` returning a scalar the attacker wants to INCREASE (task loss for
white-box attacks, and the same quantity probed by queries for black-box
ones).  This keeps each algorithm task-agnostic — the same FGSM code attacks
the detector and the regressor, exactly as in the paper.

Attacks may be *masked*: a float mask (broadcastable to the image batch)
confines the perturbation to a region — the lead-vehicle bounding box for
CAP-Attack/Table I, or the sign surface for RP2.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from contextlib import nullcontext
from typing import Callable, ContextManager, Optional, Sequence, Tuple

import numpy as np

from ..models.detector import TinyDetector
from ..models.distance import DistanceRegressor
from ..nn import Module, Tensor

LossFn = Callable[[Tensor], Tensor]


class Attack(ABC):
    """Base class for adversarial perturbation generators."""

    #: human-readable name used in reports
    name: str = "attack"

    @abstractmethod
    def perturb(self, images: np.ndarray, loss_fn: LossFn,
                mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Return adversarial images (same shape, clipped to [0, 1])."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def attack_fingerprint(attack: Attack) -> str:
    """Deterministic description of an attack's class and hyperparameters.

    Used as a result-cache key component: adversarial batches cached under
    one budget must not be served after the budget changes in ``configs.py``.
    Captures every simple-typed public attribute (eps, n_iter, seed, ...).
    """
    params = {key: value for key, value in vars(attack).items()
              if not key.startswith("_")
              and isinstance(value, (bool, int, float, str, tuple))}
    return f"{type(attack).__name__}:{json.dumps(params, sort_keys=True)}"


def full_mask(images: np.ndarray) -> np.ndarray:
    return np.ones_like(images[:, :1])


def boxes_to_mask(boxes: Sequence[Optional[Sequence[float]]],
                  height: int, width: int) -> np.ndarray:
    """Rasterize per-image boxes into an (N,1,H,W) perturbation mask.

    ``None`` entries (no lead vehicle / no sign) produce an all-zero mask, so
    those images pass through the attack unchanged.
    """
    n = len(boxes)
    if n == 0:
        return np.zeros((0, 1, height, width), dtype=np.float32)
    # None boxes become zero-area (x1 == x2) and rasterize to all-zeros.
    coords = np.array([box if box is not None else (0.0, 0.0, 0.0, 0.0)
                       for box in boxes], dtype=np.float64)
    x1 = np.clip(np.floor(coords[:, 0]), 0, width)[:, None]
    y1 = np.clip(np.floor(coords[:, 1]), 0, height)[:, None]
    x2 = np.clip(np.ceil(coords[:, 2]), 0, width)[:, None]
    y2 = np.clip(np.ceil(coords[:, 3]), 0, height)[:, None]
    rows = np.arange(height, dtype=np.float64)
    cols = np.arange(width, dtype=np.float64)
    row_hit = (rows >= y1) & (rows < y2)                      # (N, H)
    col_hit = (cols >= x1) & (cols < x2)                      # (N, W)
    mask = (row_hit[:, None, :, None] & col_hit[:, None, None, :])
    return mask.astype(np.float32)


class BatchLossAdapter:
    """A loss over an image batch that can also be sliced per image.

    Per-example attacks (SimBA, CAP) need the loss restricted to one image;
    :meth:`for_index` returns that restriction.  ``model`` is the network
    the loss runs through, when there is one: gradient queries freeze its
    parameters (see :func:`input_gradient`).
    """

    def __init__(self, batch_fn: Callable[[Tensor], Tensor],
                 single_fn: Callable[[Tensor, int], Tensor],
                 model: Optional[Module] = None):
        self._batch_fn = batch_fn
        self._single_fn = single_fn
        self.model = model

    def __call__(self, x: Tensor) -> Tensor:
        return self._batch_fn(x)

    def for_index(self, index: int) -> "BatchLossAdapter":
        """Loss adapter for image ``index`` alone (expects a (1,C,H,W) batch)."""
        single_fn = self._single_fn
        return BatchLossAdapter(lambda x: single_fn(x, index),
                                lambda x, _: single_fn(x, index), self.model)


def detector_loss_fn(model: TinyDetector, targets: Sequence[Sequence],
                     mode: str = "suppress") -> BatchLossAdapter:
    """Adversarial objective for the detector.

    ``mode="suppress"`` (default, the paper's failure mode) hides signs:
    recall collapses while precision survives — the Fig. 2 signature.
    ``mode="full"`` maximizes the entire detection loss, which additionally
    spawns phantom detections; kept for ablations.
    """
    if mode == "suppress":
        return BatchLossAdapter(
            lambda x: model.suppression_loss(x, targets),
            lambda x, i: model.suppression_loss(x, [targets[i]]), model)
    if mode == "full":
        return BatchLossAdapter(
            lambda x: model.loss(x, targets),
            lambda x, i: model.loss(x, [targets[i]]), model)
    raise ValueError(f"unknown mode {mode!r}")


def regressor_loss_fn(model: DistanceRegressor,
                      true_distances_m: np.ndarray,
                      mode: str = "inflate") -> BatchLossAdapter:
    """Adversarial objective for the regressor.

    The default ``inflate`` mode maximizes the predicted distance — the
    direction that endangers ACC (see
    :meth:`repro.models.DistanceRegressor.attack_loss`).
    """
    distances = np.asarray(true_distances_m, dtype=np.float32)
    return BatchLossAdapter(
        lambda x: model.attack_loss(x, distances, mode=mode),
        lambda x, i: model.attack_loss(x, distances[i:i + 1], mode=mode),
        model)


def targeted_regressor_loss_fn(model: DistanceRegressor,
                               target_distance_m: float) -> BatchLossAdapter:
    """Targeted regression objective: drive predictions to a chosen value.

    SimBA's targeted mode (§III-D) and CAP-style spoofing both reduce to
    maximizing this: the negative squared distance between the prediction
    and the attacker's target.
    """
    from ..data.driving import MAX_DISTANCE

    target = np.float32(target_distance_m / MAX_DISTANCE)

    def objective(x: Tensor) -> Tensor:
        prediction = model.forward(x)
        return -1.0 * ((prediction - Tensor(np.array([[target]]))) ** 2).mean()

    return BatchLossAdapter(objective, lambda x, i: objective(x), model)


def slice_loss_fn(loss_fn: LossFn, index: int) -> LossFn:
    """Per-image restriction of ``loss_fn`` when available.

    Falls back to the batch callable itself for plain closures, which is
    correct whenever the closure already targets single-image batches.
    """
    if isinstance(loss_fn, BatchLossAdapter):
        return loss_fn.for_index(index)
    return loss_fn


def frozen_model(loss_fn: LossFn) -> ContextManager:
    """``loss_fn.model.frozen()`` when the loss carries a model, else a no-op.

    Attacks differentiate w.r.t. the input only; inside this context a
    backward sweep computes no weight gradient (see
    :meth:`repro.nn.Module.frozen`).
    """
    model = getattr(loss_fn, "model", None)
    return model.frozen() if model is not None else nullcontext()


def input_gradient(images: np.ndarray, loss_fn: LossFn,
                   mask: Optional[np.ndarray] = None
                   ) -> Tuple[float, np.ndarray]:
    """The adversarial loss at ``images`` (a float) and its input gradient.

    One forward and one backward sweep return both, so an attack that also
    needs the loss of the point it differentiates (Auto-PGD) pays no second
    forward.  When ``loss_fn`` carries a ``model`` (every
    :class:`BatchLossAdapter` built by the factories here), both sweeps
    run inside ``model.frozen()`` (:func:`frozen_model`): the backward
    computes the input gradient and no weight gradient, and ``param.grad``
    is left untouched.  Plain closures run with the parameters as they
    are.  The gradient is multiplied by ``mask`` when one is given.

    Under ``REPRO_SANITIZE=nan`` (installed via
    :func:`repro.analysis.sanitize.install`), a non-finite input gradient
    raises immediately — a NaN here would otherwise propagate into every
    subsequent attack iterate and silently zero the perturbation.
    """
    from ..analysis import sanitize

    with frozen_model(loss_fn):
        x = Tensor(images.copy(), requires_grad=True)
        loss = loss_fn(x)
        loss.backward()
    grad = x.grad
    if "nan" in sanitize.installed_modes():
        sanitize.check_finite(grad, "adversarial input gradient")
    if mask is not None:
        grad = grad * mask
    return float(loss.data), grad


def apply_mask(perturbation: np.ndarray,
               mask: Optional[np.ndarray]) -> np.ndarray:
    return perturbation if mask is None else perturbation * mask
