"""Fig. 2 — stop-sign detection performance with and without attacks.

One grid cell per condition; adversarial scenes go through the shared
``adv-signs`` result cache so the same (model, test set, attack) batch is
never generated twice across Fig. 2 and Tables II–IV.
"""

from __future__ import annotations

from typing import Dict

from ..configs import DETECTION_ATTACKS, make_detection_attack
from ..eval.detection_metrics import DetectionMetrics
from ..eval.harness import cached_attack_sign_dataset, evaluate_detection
from ..eval.reporting import fig2 as render_fig2
from ..models.zoo import get_detector, get_sign_testset
from ..nn.serialize import state_fingerprint
from ..runtime import GridRunner


def run(n_scenes: int = 80, seed: int = 999,
        include_simba: bool = True) -> Dict[str, DetectionMetrics]:
    """Compute the Fig. 2 series; returns {condition: metrics}."""
    detector = get_detector()
    testset = get_sign_testset(n_scenes=n_scenes, seed=seed)
    model_fp = state_fingerprint(detector)

    conditions = ["No Attack"] + [name for name in DETECTION_ATTACKS
                                  if include_simba or name != "SimBA"]
    grid = GridRunner("fig2")
    for condition in conditions:
        def cell(condition: str = condition) -> DetectionMetrics:
            if condition == "No Attack":
                return evaluate_detection(detector, testset)
            adv = cached_attack_sign_dataset(
                detector, testset, make_detection_attack(condition))
            return evaluate_detection(detector, testset,
                                      adversarial_images=adv)
        grid.add(condition, cell,
                 config={"condition": condition, "scenes": n_scenes,
                         "seed": seed, "model": model_fp, "v": 1})
    results = grid.run()
    return {condition: results[condition] for condition in conditions}


def render(rows: Dict[str, DetectionMetrics]) -> str:
    return render_fig2(rows)
