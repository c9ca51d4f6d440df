"""Table IV — contrastive learning (detection only).

For each adversarial-example source (Gaussian, FGSM, Auto-PGD, RP2, SimBA):
contrastively pretrain the backbone on clean + that attack's adversarial
examples (the paper: "the training and test sets are the same as those for
adversarial training"), fine-tune detection, then evaluate on clean data and
on every *other* attack's adversarial test set.

Runtime shape: adversarial train/test batches are grid cells behind the
``.npz`` cache; the five contrastive retrainings stay serial (they are
train-once-cache-forever via the model zoo); the 25-cell evaluation grid
runs in parallel with JSON-cached metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..configs import make_detection_attack
from ..defenses.adversarial_training import generate_adversarial_signs
from ..defenses.contrastive import contrastive_pretrain
from ..eval.detection_metrics import DetectionMetrics
from ..eval.harness import cached_attack_sign_dataset, evaluate_detection
from ..eval.reporting import table4 as render_table4
from ..models import TinyDetector
from ..models.training import EpochCheckpointer, train_detector
from ..models.zoo import (cached_model, get_detector, get_sign_dataset,
                          get_sign_testset)
from ..nn.serialize import state_fingerprint
from ..runtime import GridRunner, array_fingerprint

SOURCES = ("Gaussian Noise", "FGSM", "Auto-PGD", "RP2", "SimBA")
TRAIN_SCENES = 400
PRETRAIN_EPOCHS = 10
FINETUNE_EPOCHS = 35


@dataclass
class Table4Row:
    pretrained_on: str
    attacked_by: str
    detection: DetectionMetrics


def _contrastive_detector(source: str, adv_images: np.ndarray,
                          clean_images: np.ndarray,
                          clean_targets) -> TinyDetector:
    def train(model, checkpoint):
        # One snapshot per phase; both kept until the zoo finalizes the
        # whole variant, so a kill mid-finetune skips re-pretraining.
        pre_ckpt = EpochCheckpointer(checkpoint.path + ".pre",
                                     every=checkpoint.every,
                                     label=checkpoint.label + ".pretrain")
        fine_ckpt = EpochCheckpointer(checkpoint.path + ".fine",
                                      every=checkpoint.every,
                                      label=checkpoint.label + ".finetune")
        pretrain = np.concatenate([clean_images, adv_images])
        contrastive_pretrain(model, pretrain, epochs=PRETRAIN_EPOCHS, seed=0,
                             checkpoint=pre_ckpt)
        train_detector(model, clean_images, list(clean_targets),
                       epochs=FINETUNE_EPOCHS, seed=0, lr=1e-3,
                       checkpoint=fine_ckpt)
        pre_ckpt.finalize()
        fine_ckpt.finalize()

    return cached_model(
        "table4-contrastive", {"source": source, "scenes": TRAIN_SCENES,
                               "pre": PRETRAIN_EPOCHS,
                               "fine": FINETUNE_EPOCHS, "v": 2},
        lambda: TinyDetector(rng=np.random.default_rng(0)), train)


def run(n_test_scenes: int = 50) -> List[Table4Row]:
    base = get_detector()
    train_set = get_sign_dataset(TRAIN_SCENES, seed=77)
    train_images = train_set.images()
    train_targets = [s.boxes for s in train_set.scenes]
    testset = get_sign_testset(n_scenes=n_test_scenes, seed=999)

    # Stage 1: adversarial batches (test sets + per-source training copies).
    adv_grid = GridRunner("adv")
    for name in SOURCES:
        adv_grid.add(
            ("test", name),
            lambda name=name: cached_attack_sign_dataset(
                base, testset, make_detection_attack(name)))
        adv_grid.add(
            ("train", name),
            lambda name=name: generate_adversarial_signs(
                base, train_images, train_targets,
                make_detection_attack(name)),
            config={"set": "table4-train", "source": name,
                    "scenes": TRAIN_SCENES, "model": state_fingerprint(base),
                    "v": 1})
    adv = adv_grid.run()
    test_adv: Dict[str, np.ndarray] = {name: adv[("test", name)]
                                       for name in SOURCES}

    # Stage 2: contrastive retraining, serial (zoo-cached after first run).
    models = {source: _contrastive_detector(source, adv[("train", source)],
                                            train_images, train_targets)
              for source in SOURCES}

    # Stage 3: the evaluation grid.
    eval_grid = GridRunner("table4")
    pairs = []
    for source in SOURCES:
        for attacked_by in ("Clean",) + SOURCES:
            if attacked_by == source:
                continue
            pairs.append((source, attacked_by))
            def cell(source=source, attacked_by=attacked_by):
                if attacked_by == "Clean":
                    return evaluate_detection(models[source], testset)
                return evaluate_detection(
                    models[source], testset,
                    adversarial_images=test_adv[attacked_by])
            adv_fp = ("clean" if attacked_by == "Clean"
                      else array_fingerprint(test_adv[attacked_by]))
            eval_grid.add((source, attacked_by), cell,
                          config={"model": state_fingerprint(models[source]),
                                  "adv": adv_fp, "scenes": n_test_scenes,
                                  "v": 1})
    results = eval_grid.run()
    return [Table4Row(source, attacked_by, results[(source, attacked_by)])
            for source, attacked_by in pairs]


def render(rows: List[Table4Row]) -> str:
    return render_table4(
        [(r.pretrained_on, r.attacked_by, r.detection) for r in rows])
