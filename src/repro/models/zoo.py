"""Model zoo: train-once-cache-forever accessors.

Tests, examples, and every benchmark share the same pretrained weights.  The
first call trains a model and caches its state dict in the cache root
(``$REPRO_CACHE_DIR``, default ``.cache/``) keyed by a configuration
fingerprint; later calls load in milliseconds.  Every model — the detector,
the regressor, the DDPM priors and the retrained variants of Tables III and
IV — is loaded or trained by :func:`cached_model`.
"""

from __future__ import annotations

import os
from typing import Tuple

import numpy as np

from ..data.driving import generate_training_set
from ..data.signs import SignDataset
from ..faults.runtime import maybe_inject_scope
from ..runtime import journal, store
from ..runtime.cache import cache_root, fingerprint
from .detector import TinyDetector
from .distance import DistanceRegressor
from .training import EpochCheckpointer, train_detector, train_regressor

# Default training configuration — small enough for CPU, large enough that
# the models are genuinely good on clean data (the paper's clean baselines
# are near-saturated: mAP50 99.5%, distance error < 1 m).
DETECTOR_TRAIN_SCENES = 1000
DETECTOR_EPOCHS = 50
REGRESSOR_TRAIN_FRAMES = 1500
REGRESSOR_EPOCHS = 40
DIFFUSION_EPOCHS = 15
DIFFUSION_IMAGES = 400


def load_weights(path: str, module) -> bool:
    """Load ``module`` from the artifact at ``path``; ``False`` on a miss.

    A missing file is a miss; an unreadable one is quarantined by the store.
    A readable state dict that no longer fits the module (a missing
    parameter, a wrong shape) is quarantined as ``stale``.  Either way the
    module is left as built, since ``load_state_dict`` checks before it
    assigns.
    """
    state = store.try_load_state(path)
    if state is None:
        return False
    try:
        module.load_state_dict(state)
    except (KeyError, ValueError) as error:
        store.quarantine(path, "stale", f"{type(error).__name__}: {error}")
        return False
    return True


def cached_model(name: str, config: dict, build, train):
    """Load the model ``name`` trained under ``config``, or train and cache it.

    ``build()`` constructs the module whose weights are persisted, and
    ``train(module, checkpoint)`` trains it in place.  ``checkpoint`` is the
    mid-training :class:`EpochCheckpointer` (a snapshot every epoch) that
    the callback threads into its loops.
    Training fires the ``zoo.<name>`` fault scope and journals
    ``train-start`` / ``train-done``.
    """
    path = os.path.join(cache_root(), f"{name}-{fingerprint(config)}.npz")
    model = build()
    if not load_weights(path, model):
        label = f"zoo.{name}"
        maybe_inject_scope(label)
        journal.emit({"event": "train-start", "model": name, "path": path})
        # The snapshot sits next to the artifact and is dropped once the
        # trained model is safely on disk.
        checkpoint = EpochCheckpointer(path + ".ckpt.npz", label=label)
        train(model, checkpoint)
        store.save_state(path, model.state_dict())
        checkpoint.finalize()
        journal.emit({"event": "train-done", "model": name, "path": path})
    model.eval()
    return model


def get_sign_dataset(n_scenes: int = DETECTOR_TRAIN_SCENES, seed: int = 0
                     ) -> SignDataset:
    return SignDataset(n_scenes=n_scenes, seed=seed)


def get_sign_testset(n_scenes: int = 150, seed: int = 999) -> SignDataset:
    return SignDataset(n_scenes=n_scenes, seed=seed)


def get_driving_data(n_frames: int = REGRESSOR_TRAIN_FRAMES, seed: int = 0
                     ) -> Tuple[np.ndarray, np.ndarray]:
    return generate_training_set(n_frames, seed=seed)


def get_detector(seed: int = 0, n_scenes: int = DETECTOR_TRAIN_SCENES,
                 epochs: int = DETECTOR_EPOCHS) -> TinyDetector:
    """Pretrained stop-sign detector (cached)."""
    def train(model, checkpoint):
        dataset = get_sign_dataset(n_scenes, seed=seed)
        train_detector(model, dataset.images(),
                       [scene.boxes for scene in dataset.scenes],
                       epochs=epochs, seed=seed, checkpoint=checkpoint)

    return cached_model(
        "detector", {"seed": seed, "scenes": n_scenes, "epochs": epochs,
                     "v": 6},
        lambda: TinyDetector(rng=np.random.default_rng(seed)), train)


def get_regressor(seed: int = 0, n_frames: int = REGRESSOR_TRAIN_FRAMES,
                  epochs: int = REGRESSOR_EPOCHS) -> DistanceRegressor:
    """Pretrained lead-distance regressor (cached)."""
    def train(model, checkpoint):
        images, distances = get_driving_data(n_frames, seed=seed)
        train_regressor(model, images, distances, epochs=epochs, seed=seed,
                        checkpoint=checkpoint)

    return cached_model(
        "regressor", {"seed": seed, "frames": n_frames, "epochs": epochs,
                      "v": 6},
        lambda: DistanceRegressor(rng=np.random.default_rng(seed)), train)


def get_diffusion(domain: str, seed: int = 0, epochs: int = DIFFUSION_EPOCHS,
                  n_images: int = DIFFUSION_IMAGES):
    """Pretrained DDPM prior for ``domain`` in {"signs", "driving"} (cached).

    The prior is trained on *clean* domain images only — the DiffPIR defense
    never sees adversarial examples at training time.
    """
    from ..defenses.diffusion import DenoisingDiffusionModel

    if domain not in ("signs", "driving"):
        raise ValueError("domain must be 'signs' or 'driving'")
    ddpm = DenoisingDiffusionModel(seed=seed)

    def train(network, checkpoint):
        if domain == "signs":
            images = SignDataset(n_images, seed=seed + 50).images()
        else:
            images, _ = generate_training_set(n_images, seed=seed + 50)
        ddpm.train(images, epochs=epochs, checkpoint=checkpoint)

    cached_model("diffusion", {"domain": domain, "seed": seed,
                               "epochs": epochs, "images": n_images, "v": 1},
                 lambda: ddpm.network, train)
    return ddpm
