"""Table V — DiffPIR diffusion restoration against every attack, both tasks.

Adversarial batches come from the shared result cache; each table row is one
grid cell (DiffPIR purification is the dominant cost, so rows parallelize
well).  The DiffPIR defenses are constructed inside the cell with fixed
seeds, keeping serial and parallel execution bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..configs import (DIFFPIR_DRIVING, DIFFPIR_SIGNS,
                       make_detection_attack, make_regression_attack)
from ..defenses.diffusion import DiffPIRDefense
from ..eval.detection_metrics import DetectionMetrics
from ..eval.harness import (cached_attack_driving_frames,
                            cached_attack_sign_dataset, evaluate_detection,
                            evaluate_distance, make_balanced_eval_frames)
from ..eval.regression_metrics import RangeErrors
from ..eval.reporting import combined_table
from ..models.zoo import (get_detector, get_diffusion, get_regressor,
                          get_sign_testset)
from ..nn.serialize import state_fingerprint
from ..runtime import GridRunner

# Table V rows: the four paired rows plus SimBA (detection only).
ROWS = (
    ("Gaussian", "Gaussian Noise", "Gaussian Noise"),
    ("FGSM", "FGSM", "FGSM"),
    ("Auto-PGD", "Auto-PGD", "Auto-PGD"),
    ("CAP/RP2", "CAP-Attack", "RP2"),
    ("SimBA", None, "SimBA"),
)


@dataclass
class Table5Row:
    attack: str
    range_errors: Optional[RangeErrors]
    detection: Optional[DetectionMetrics]


def run(n_per_range: int = 12, n_scenes: int = 50) -> List[Table5Row]:
    detector = get_detector()
    regressor = get_regressor()
    sign_prior = get_diffusion("signs")
    driving_prior = get_diffusion("driving")

    testset = get_sign_testset(n_scenes=n_scenes, seed=999)
    images, distances, boxes = make_balanced_eval_frames(n_per_range, 123)
    fingerprints = {
        "det": state_fingerprint(detector),
        "reg": state_fingerprint(regressor),
        "sign_prior": state_fingerprint(sign_prior.network),
        "driving_prior": state_fingerprint(driving_prior.network),
    }

    grid = GridRunner("table5")
    for label, regression_attack, detection_attack in ROWS:
        def cell(regression_attack=regression_attack,
                 detection_attack=detection_attack):
            errors = None
            if regression_attack is not None:
                adv_frames = cached_attack_driving_frames(
                    regressor, images, distances, boxes,
                    make_regression_attack(regression_attack))
                frame_defense = DiffPIRDefense(driving_prior, seed=0,
                                               **DIFFPIR_DRIVING)
                errors = evaluate_distance(
                    regressor, images, distances, boxes,
                    adversarial_images=adv_frames,
                    defense=frame_defense).range_errors
            adv_scenes = cached_attack_sign_dataset(
                detector, testset, make_detection_attack(detection_attack))
            sign_defense = DiffPIRDefense(sign_prior, seed=0, **DIFFPIR_SIGNS)
            detection = evaluate_detection(detector, testset,
                                           adversarial_images=adv_scenes,
                                           defense=sign_defense)
            return (errors, detection)
        grid.add(label, cell,
                 config={"row": label, "n_per_range": n_per_range,
                         "scenes": n_scenes, **fingerprints, "v": 1})
    results = grid.run()
    return [Table5Row(label, *results[label]) for label, _, _ in ROWS]


def render(rows: List[Table5Row]) -> str:
    return combined_table(
        [(r.attack, "Diffusion", r.range_errors, r.detection) for r in rows],
        title="TABLE V: Performance after diffusion model cleaning")
