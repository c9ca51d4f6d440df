"""Training loops for the two perception models.

Kept separate from the model definitions so the adversarial-training defense
can reuse them with perturbed inputs.

Every loop accepts an optional :class:`EpochCheckpointer`: at each epoch
boundary it snapshots model weights, optimizer state (Adam moments and
step count) and the RNG stream position through the crash-consistent store
(:mod:`repro.runtime.store`), so a training run killed at any point
resumes from the last completed epoch and produces **bit-identical** final
weights to an uninterrupted run.
"""

from __future__ import annotations

import logging
import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn import Adam, Tensor, capture_rng, restore_rng
from ..runtime import journal, store
from .detector import TinyDetector
from .distance import DistanceRegressor

logger = logging.getLogger(__name__)

BoxList = Sequence[Tuple[float, float, float, float]]


class EpochCheckpointer:
    """Epoch-boundary training snapshots with crash-consistent semantics.

    One instance owns one snapshot file.  ``resume()`` restores (model,
    optimizer, RNG) in place from the newest valid snapshot — a corrupt or
    stale snapshot is quarantined and training restarts from scratch with
    the pristine state, never from half-loaded weights.  ``save(epoch)``
    persists the state *after* ``epoch`` completed epochs; ``finalize()``
    removes the snapshot once the final artifact is safely on disk.
    """

    def __init__(self, path: str, every: int = 1, label: str = ""):
        self.path = path
        self.every = int(every)
        self.label = label or os.path.basename(path)

    def resume(self, module, optimizer, rng: np.random.Generator
               ) -> Tuple[int, List[float]]:
        """Restore in place; returns (completed_epochs, loss history).

        ``(0, [])`` means no usable snapshot — either none exists or it was
        defective and has been quarantined with a logged fault event.
        """
        state = store.try_load_state(self.path)
        if state is None:
            return 0, []
        # Keep pristine copies so a half-applied defective snapshot can be
        # rolled back before the from-scratch restart.
        pristine_model = {k: v.copy() for k, v in module.state_dict().items()}
        pristine_optim = optimizer.state_dict()
        try:
            epoch = int(state["epoch"])
            history = [float(x) for x in
                       np.asarray(state["history"]).ravel()]
            module.load_state_dict(_strip(state, "model."))
            optimizer.load_state_dict(_strip(state, "optim."))
            restore_rng(rng, str(state["rng"]))
        except (KeyError, ValueError, TypeError) as error:
            module.load_state_dict(pristine_model)
            optimizer.load_state_dict(pristine_optim)
            store.quarantine(self.path, "stale",
                             f"{type(error).__name__}: {error}")
            return 0, []
        logger.info("resuming %s from epoch %d (%s)", self.label, epoch,
                    self.path)
        journal.emit({"event": "train-resume", "label": self.label,
                      "epoch": epoch, "path": self.path})
        return epoch, history

    def save(self, epoch: int, module, optimizer,
             rng: np.random.Generator, history: Sequence[float]) -> None:
        """Snapshot the state after ``epoch`` completed epochs."""
        if self.every <= 0 or epoch % self.every:
            return
        state: Dict[str, np.ndarray] = {
            "epoch": np.array(epoch),
            "history": np.array(list(history), dtype=np.float64),
            "rng": np.array(capture_rng(rng)),
        }
        for key, value in module.state_dict().items():
            state[f"model.{key}"] = value
        for key, value in optimizer.state_dict().items():
            state[f"optim.{key}"] = value
        store.save_state(self.path, state)
        journal.emit({"event": "train-progress", "label": self.label,
                      "epoch": epoch, "path": self.path})

    def finalize(self) -> None:
        """Drop the snapshot (the final artifact made it to disk)."""
        try:
            os.remove(self.path)
        except OSError:
            pass


def _strip(state: Dict[str, np.ndarray], prefix: str) -> Dict[str, np.ndarray]:
    return {key[len(prefix):]: value for key, value in state.items()
            if key.startswith(prefix)}


def iterate_minibatches(n: int, batch_size: int, rng: np.random.Generator):
    """Yield shuffled index batches covering ``range(n)`` once."""
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def augment_batch(images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Photometric training augmentation (geometry-preserving).

    Mirrors the corruption-robustness a production training recipe (YOLOv8's
    HSV/blur/compression augments) bakes in: light Gaussian noise, 3x3 blur,
    brightness shifts, and coarse quantization.  Geometry is untouched so box
    and distance labels stay valid.  Without this, benign preprocessing
    defenses (median blur, bit-depth reduction) would damage clean accuracy
    far more than they do in the paper.
    """
    from ..data.transforms import gaussian_blur3, median_blur

    out = images.copy()
    for i in range(len(out)):
        roll = rng.random()
        if roll < 0.25:
            out[i] += rng.normal(0, rng.uniform(0.01, 0.05),
                                 out[i].shape).astype(np.float32)
        elif roll < 0.40:
            out[i] = gaussian_blur3(out[i])
        elif roll < 0.55:
            out[i] = median_blur(out[i:i + 1], 3)[0]
        elif roll < 0.70:
            bits = int(rng.integers(3, 6))
            levels = 2 ** bits - 1
            out[i] = np.round(out[i] * levels) / levels
        if rng.random() < 0.3:
            out[i] = out[i] * rng.uniform(0.85, 1.15) + rng.uniform(-0.08, 0.08)
    return np.clip(out, 0.0, 1.0).astype(np.float32)


def train_detector(model: TinyDetector, images: np.ndarray,
                   targets: Sequence[BoxList], epochs: int = 30,
                   batch_size: int = 16, lr: float = 2e-3,
                   seed: int = 0, augment: bool = True,
                   callback: Optional[Callable[[int, float], None]] = None,
                   checkpoint: Optional[EpochCheckpointer] = None
                   ) -> List[float]:
    """Train a detector on (N,3,H,W) images with per-image box lists.

    Returns the per-epoch mean loss history.  With ``checkpoint``, resumes
    from the newest valid epoch snapshot and saves one per boundary.
    """
    rng = np.random.default_rng(seed)
    optimizer = Adam(model.parameters(), lr=lr)
    history: List[float] = []
    start_epoch = 0
    if checkpoint is not None:
        start_epoch, history = checkpoint.resume(model, optimizer, rng)
    model.train()
    for epoch in range(start_epoch, epochs):
        epoch_losses = []
        for batch in iterate_minibatches(len(images), batch_size, rng):
            optimizer.zero_grad()
            batch_images = images[batch]
            if augment:
                batch_images = augment_batch(batch_images, rng)
            loss = model.loss(Tensor(batch_images),
                              [targets[i] for i in batch])
            loss.backward()
            optimizer.step()
            epoch_losses.append(loss.item())
        mean_loss = float(np.mean(epoch_losses))
        history.append(mean_loss)
        if checkpoint is not None:
            checkpoint.save(epoch + 1, model, optimizer, rng, history)
        if callback is not None:
            callback(epoch, mean_loss)
    model.eval()
    return history


def train_regressor(model: DistanceRegressor, images: np.ndarray,
                    distances_m: np.ndarray, epochs: int = 30,
                    batch_size: int = 32, lr: float = 2e-3,
                    seed: int = 0, augment: bool = True,
                    callback: Optional[Callable[[int, float], None]] = None,
                    checkpoint: Optional[EpochCheckpointer] = None
                    ) -> List[float]:
    """Train the distance regressor; returns per-epoch mean loss history."""
    rng = np.random.default_rng(seed)
    optimizer = Adam(model.parameters(), lr=lr)
    history: List[float] = []
    start_epoch = 0
    if checkpoint is not None:
        start_epoch, history = checkpoint.resume(model, optimizer, rng)
    model.train()
    for epoch in range(start_epoch, epochs):
        epoch_losses = []
        for batch in iterate_minibatches(len(images), batch_size, rng):
            optimizer.zero_grad()
            batch_images = images[batch]
            if augment:
                batch_images = augment_batch(batch_images, rng)
            loss = model.loss(Tensor(batch_images), distances_m[batch])
            loss.backward()
            optimizer.step()
            epoch_losses.append(loss.item())
        mean_loss = float(np.mean(epoch_losses))
        history.append(mean_loss)
        if checkpoint is not None:
            checkpoint.save(epoch + 1, model, optimizer, rng, history)
        if callback is not None:
            callback(epoch, mean_loss)
    model.eval()
    return history
