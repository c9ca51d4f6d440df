"""Table II — image-processing defenses across attacks, both tasks.

For each attack row (Gaussian, FGSM, Auto-PGD, CAP/RP2) and each defense
(None, Median Blurring, Randomization, Bit Depth): the regression range
errors and the detection metrics.  Adversarial inputs are generated once per
attack against the undefended model, then each defense is applied to the
same images — the paper's protocol, which is also what makes negative
entries possible (a defense can overshoot below the clean prediction).

Runtime shape: a first grid generates the per-attack adversarial batches
(``.npz``-cached, shared with the other tables via the harness helpers); a
second grid evaluates every (attack, defense) pair in parallel.  Defenses
are constructed *inside* each cell so their internal RNG state is identical
under serial and parallel execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..configs import (BIT_DEPTH_BITS, MEDIAN_BLUR_KERNEL, PAIRED_ATTACK_ROWS,
                       RANDOMIZATION_MIN_SCALE, make_detection_attack,
                       make_regression_attack)
from ..defenses import BitDepthReduction, MedianBlur, Randomization
from ..defenses.base import InputDefense
from ..eval.detection_metrics import DetectionMetrics
from ..eval.harness import (cached_attack_driving_frames,
                            cached_attack_sign_dataset, evaluate_detection,
                            evaluate_distance, make_balanced_eval_frames)
from ..eval.regression_metrics import RangeErrors
from ..eval.reporting import combined_table
from ..models.zoo import get_detector, get_regressor, get_sign_testset
from ..nn.serialize import state_fingerprint
from ..runtime import GridRunner, array_fingerprint


@dataclass
class Table2Row:
    attack: str
    defense: str
    range_errors: Optional[RangeErrors]
    detection: Optional[DetectionMetrics]


def make_defenses() -> Dict[str, Optional[InputDefense]]:
    return {
        "None": None,
        "Median Blurring": MedianBlur(MEDIAN_BLUR_KERNEL),
        "Randomization": Randomization(min_scale=RANDOMIZATION_MIN_SCALE,
                                       seed=0),
        "Bit Depth": BitDepthReduction(BIT_DEPTH_BITS),
    }


def run(n_per_range: int = 15, n_scenes: int = 60,
        seed: int = 123) -> List[Table2Row]:
    detector = get_detector()
    regressor = get_regressor()
    testset = get_sign_testset(n_scenes=n_scenes, seed=999)
    images, distances, boxes = make_balanced_eval_frames(n_per_range, seed)
    det_fp = state_fingerprint(detector)
    reg_fp = state_fingerprint(regressor)

    # Stage 1: adversarial inputs, one cell per attack row and task.
    adv_grid = GridRunner("adv")
    for row_name, regression_attack, detection_attack in PAIRED_ATTACK_ROWS:
        adv_grid.add(
            ("frames", row_name),
            lambda a=regression_attack: cached_attack_driving_frames(
                regressor, images, distances, boxes,
                make_regression_attack(a)))
        adv_grid.add(
            ("scenes", row_name),
            lambda a=detection_attack: cached_attack_sign_dataset(
                detector, testset, make_detection_attack(a)))
    adv = adv_grid.run()

    # Stage 2: every (attack, defense) evaluation in parallel.
    eval_grid = GridRunner("table2")
    defense_names = list(make_defenses())
    for row_name, _, _ in PAIRED_ATTACK_ROWS:
        for defense_name in defense_names:
            def cell(row: str = row_name, name: str = defense_name):
                defense = make_defenses()[name]
                distance_result = evaluate_distance(
                    regressor, images, distances, boxes,
                    adversarial_images=adv[("frames", row)], defense=defense)
                detection_result = evaluate_detection(
                    detector, testset, adversarial_images=adv[("scenes", row)],
                    defense=defense)
                return (distance_result.range_errors, detection_result)
            eval_grid.add(
                (row_name, defense_name), cell,
                config={"defense": defense_name, "det": det_fp, "reg": reg_fp,
                        "frames": array_fingerprint(adv[("frames", row_name)]),
                        "scenes": array_fingerprint(adv[("scenes", row_name)]),
                        "v": 1})
    results = eval_grid.run()

    rows: List[Table2Row] = []
    for row_name, _, _ in PAIRED_ATTACK_ROWS:
        for defense_name in defense_names:
            errors, detection = results[(row_name, defense_name)]
            rows.append(Table2Row(row_name, defense_name, errors, detection))
    return rows


def render(rows: List[Table2Row]) -> str:
    return combined_table(
        [(r.attack, r.defense, r.range_errors, r.detection) for r in rows],
        title="TABLE II: Performance after image processing")
