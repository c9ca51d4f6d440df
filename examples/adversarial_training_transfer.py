#!/usr/bin/env python3
"""Cross-attack transfer of adversarial training (a slice of Table III).

Retrains the stop-sign detector on FGSM adversarial examples and on a mixed
adversarial set, then evaluates each model against attacks it did and did
not train on.  Demonstrates the paper's finding: single-attack training
overfits; mixed training is balanced.

    python examples/adversarial_training_transfer.py

First run retrains two models (a few minutes); results are cached.
"""

import numpy as np

from repro.configs import make_detection_attack
from repro.defenses import (adversarial_train_detector,
                            generate_adversarial_signs, mixed_adversarial_set)
from repro.eval import attack_sign_dataset, evaluate_detection
from repro.eval.reporting import format_table
from repro.models import TinyDetector
from repro.models.zoo import (cached_model, get_detector, get_sign_dataset,
                              get_sign_testset)

ATTACKS = ("Gaussian Noise", "FGSM", "Auto-PGD")


def retrain_on(attack_names, base, train_images, train_targets, tag):
    """Adversarially retrain a detector on the union of the given attacks."""
    adv_sets = {
        name: generate_adversarial_signs(base, train_images, train_targets,
                                         make_detection_attack(name))
        for name in attack_names
    }
    if len(adv_sets) == 1:
        adv_images = next(iter(adv_sets.values()))
        adv_targets = list(train_targets)
    else:
        adv_images, indices = mixed_adversarial_set(adv_sets, fraction=0.25,
                                                    seed=0)
        adv_targets = [train_targets[i] for i in indices]

    def train(model, checkpoint):
        from repro.models.training import train_detector
        model.load_state_dict(base.state_dict())  # fine-tune the base model
        images = np.concatenate([adv_images, train_images])
        targets = list(adv_targets) + list(train_targets)
        train_detector(model, images, targets, epochs=20, seed=0, lr=1e-3,
                       checkpoint=checkpoint)

    return cached_model(
        f"example-advtrain-{tag}", {"attacks": sorted(attack_names), "v": 2},
        lambda: TinyDetector(rng=np.random.default_rng(0)), train)


def main() -> None:
    base = get_detector()
    train_set = get_sign_dataset(200, seed=77)
    train_images = train_set.images()
    train_targets = [s.boxes for s in train_set.scenes]
    testset = get_sign_testset(n_scenes=50, seed=999)

    models = {
        "base (no adv. training)": base,
        "trained on FGSM": retrain_on(("FGSM",), base, train_images,
                                      train_targets, "fgsm"),
        "trained on mixed": retrain_on(ATTACKS, base, train_images,
                                       train_targets, "mixed"),
    }

    rows = []
    for model_name, model in models.items():
        for attack_name in ATTACKS:
            adv = attack_sign_dataset(base, testset,
                                      make_detection_attack(attack_name))
            metrics = evaluate_detection(model, testset,
                                         adversarial_images=adv)
            rows.append([model_name, attack_name, f"{metrics.map50:.2f}",
                        f"{metrics.recall:.2f}"])
    print(format_table(["Model", "Attacked by", "mAP50", "Recall"], rows,
                       title="Adversarial-training transfer (detection, %)"))


if __name__ == "__main__":
    main()
