"""Table III — adversarial training: the cross-attack transfer grid.

Protocol (§V-C.2):

1. Generate an adversarial copy of the training data per attack, against
   the *base* models.
2. Retrain one model per attack on adversarial + clean data; build a fifth
   "Mixed" model from 25% of each attack's examples.
3. Evaluate each retrained model on the adversarial *test* sets of the
   other attacks (also generated against the base model — the transfer
   setting), plus a Mixed test set for detection.

Runtime shape: the sixteen adversarial train/test set generations are grid
cells (``.npz``-cached, parallel); the retrainings stay serial behind the
model zoo's cache (expensive exactly once); the transfer evaluation grid
runs in parallel with JSON-cached metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..configs import PAIRED_ATTACK_ROWS, make_detection_attack, \
    make_regression_attack
from ..defenses.adversarial_training import (generate_adversarial_frames,
                                             generate_adversarial_signs,
                                             mixed_adversarial_set)
from ..eval.detection_metrics import DetectionMetrics
from ..eval.harness import (cached_attack_driving_frames,
                            cached_attack_sign_dataset, evaluate_detection,
                            evaluate_distance, make_balanced_eval_frames)
from ..eval.regression_metrics import RangeErrors
from ..eval.reporting import combined_table
from ..models import TinyDetector
from ..models.distance import DistanceRegressor
from ..models.training import train_detector, train_regressor
from ..models.zoo import (cached_model, get_detector, get_regressor,
                          get_sign_dataset, get_sign_testset)
from ..nn.serialize import state_fingerprint
from ..runtime import GridRunner, array_fingerprint

ROW_NAMES = [row[0] for row in PAIRED_ATTACK_ROWS]  # incl. "CAP/RP2"
_REG_ATTACK = {row[0]: row[1] for row in PAIRED_ATTACK_ROWS}
_DET_ATTACK = {row[0]: row[2] for row in PAIRED_ATTACK_ROWS}

# Scaled-down counterparts of the paper's 416 images / 9600 frames.
TRAIN_SCENES = 250
TRAIN_FRAMES = 400
RETRAIN_EPOCHS_DET = 20
RETRAIN_EPOCHS_REG = 15


@dataclass
class Table3Row:
    trained_on: str
    attacked_by: str
    range_errors: Optional[RangeErrors]
    detection: Optional[DetectionMetrics]


def _retrained_detector(source: str, adv_sets, clean_images, clean_targets,
                        base: TinyDetector) -> TinyDetector:
    if source == "Mixed":
        adv_images, indices = mixed_adversarial_set(adv_sets, fraction=0.25,
                                                    seed=0)
        adv_targets = [clean_targets[i] for i in indices]
    else:
        adv_images = adv_sets[source]
        adv_targets = list(clean_targets)

    def train(model, checkpoint):
        model.load_state_dict(base.state_dict())  # fine-tune, per the paper
        images = np.concatenate([adv_images, clean_images])
        targets = list(adv_targets) + list(clean_targets)
        train_detector(model, images, targets, epochs=RETRAIN_EPOCHS_DET,
                       seed=0, lr=1e-3, checkpoint=checkpoint)

    return cached_model(
        "table3-det", {"source": source, "scenes": TRAIN_SCENES,
                       "epochs": RETRAIN_EPOCHS_DET, "v": 2},
        lambda: TinyDetector(rng=np.random.default_rng(0)), train)


def _retrained_regressor(source: str, adv_sets, clean_images,
                         clean_distances,
                         base: DistanceRegressor) -> DistanceRegressor:
    if source == "Mixed":
        adv_images, indices = mixed_adversarial_set(adv_sets, fraction=0.25,
                                                    seed=0)
        adv_distances = clean_distances[indices]
    else:
        adv_images = adv_sets[source]
        adv_distances = clean_distances

    def train(model, checkpoint):
        model.load_state_dict(base.state_dict())  # fine-tune, per the paper
        images = np.concatenate([adv_images, clean_images])
        distances = np.concatenate([adv_distances, clean_distances])
        train_regressor(model, images, distances,
                        epochs=RETRAIN_EPOCHS_REG, seed=0, lr=1e-3,
                        checkpoint=checkpoint)

    return cached_model(
        "table3-reg", {"source": source, "frames": TRAIN_FRAMES,
                       "epochs": RETRAIN_EPOCHS_REG, "v": 2},
        lambda: DistanceRegressor(rng=np.random.default_rng(0)), train)


def run(n_per_range: int = 12, n_test_scenes: int = 50) -> List[Table3Row]:
    base_detector = get_detector()
    base_regressor = get_regressor()
    det_fp = state_fingerprint(base_detector)
    reg_fp = state_fingerprint(base_regressor)

    train_set = get_sign_dataset(TRAIN_SCENES, seed=77)
    train_images = train_set.images()
    train_targets = [s.boxes for s in train_set.scenes]
    frames, frame_distances, frame_boxes = make_balanced_eval_frames(
        TRAIN_FRAMES // 4, seed=555)

    testset = get_sign_testset(n_scenes=n_test_scenes, seed=999)
    test_images, test_distances, test_boxes = make_balanced_eval_frames(
        n_per_range, seed=123)

    # Stage 1: all adversarial set generations, fanned out.  Train-side sets
    # get explicit npz cells; test-side sets go through the shared harness
    # caches (same entries Tables II/IV hit).
    adv_grid = GridRunner("adv")
    for name in ROW_NAMES:
        adv_grid.add(
            ("train-det", name),
            lambda name=name: generate_adversarial_signs(
                base_detector, train_images, train_targets,
                make_detection_attack(_DET_ATTACK[name])),
            config={"set": "table3-train-det", "source": name,
                    "scenes": TRAIN_SCENES, "model": det_fp, "v": 1})
        adv_grid.add(
            ("train-reg", name),
            lambda name=name: generate_adversarial_frames(
                base_regressor, frames, frame_distances, frame_boxes,
                make_regression_attack(_REG_ATTACK[name])),
            config={"set": "table3-train-reg", "source": name,
                    "frames": TRAIN_FRAMES, "model": reg_fp, "v": 1})
        adv_grid.add(
            ("test-det", name),
            lambda name=name: cached_attack_sign_dataset(
                base_detector, testset,
                make_detection_attack(_DET_ATTACK[name])))
        adv_grid.add(
            ("test-reg", name),
            lambda name=name: cached_attack_driving_frames(
                base_regressor, test_images, test_distances, test_boxes,
                make_regression_attack(_REG_ATTACK[name])))
    adv = adv_grid.run()

    det_adv_sets = {name: adv[("train-det", name)] for name in ROW_NAMES}
    reg_adv_sets = {name: adv[("train-reg", name)] for name in ROW_NAMES}
    det_test_adv = {name: adv[("test-det", name)] for name in ROW_NAMES}
    det_test_adv["Mixed"] = _mixed_test_images(det_test_adv, seed=1)
    reg_test_adv = {name: adv[("test-reg", name)] for name in ROW_NAMES}

    # Stage 2: retraining, serial — each variant is zoo-cached.
    sources = ROW_NAMES + ["Mixed"]
    detectors = {source: _retrained_detector(
        source, det_adv_sets, train_images, train_targets, base_detector)
        for source in sources}
    regressors = {source: _retrained_regressor(
        source, reg_adv_sets, frames, frame_distances, base_regressor)
        for source in sources}

    # Stage 3: the transfer evaluation grid.
    eval_grid = GridRunner("table3")
    pairs = []
    for source in sources:
        test_attacks = [n for n in ROW_NAMES if n != source] + ["Mixed"]
        for attacked_by in test_attacks:
            pairs.append((source, attacked_by))
            def cell(source=source, attacked_by=attacked_by):
                detection = evaluate_detection(
                    detectors[source], testset,
                    adversarial_images=det_test_adv[attacked_by])
                if attacked_by == "Mixed":
                    errors = None  # the paper leaves regression blank
                else:
                    errors = evaluate_distance(
                        regressors[source], test_images, test_distances,
                        test_boxes,
                        adversarial_images=reg_test_adv[attacked_by]
                    ).range_errors
                return (errors, detection)
            config = {"det": state_fingerprint(detectors[source]),
                      "det_adv": array_fingerprint(det_test_adv[attacked_by]),
                      "v": 1}
            if attacked_by != "Mixed":
                config["reg"] = state_fingerprint(regressors[source])
                config["reg_adv"] = array_fingerprint(
                    reg_test_adv[attacked_by])
            eval_grid.add((source, attacked_by), cell, config=config)
    results = eval_grid.run()
    return [Table3Row(source, attacked_by, *results[(source, attacked_by)])
            for source, attacked_by in pairs]


def _mixed_test_images(adv_sets: Dict[str, np.ndarray], seed: int
                       ) -> np.ndarray:
    """Mixed test set: each scene drawn from a random attack's version."""
    rng = np.random.default_rng(seed)
    names = sorted(k for k in adv_sets if k != "Mixed")
    n = len(next(iter(adv_sets.values())))
    picks = rng.integers(0, len(names), size=n)
    return np.stack([adv_sets[names[p]][i] for i, p in enumerate(picks)])


def render(rows: List[Table3Row]) -> str:
    return combined_table(
        [(r.trained_on, r.attacked_by, r.range_errors, r.detection)
         for r in rows],
        title="TABLE III: Performance after adversarial training")
