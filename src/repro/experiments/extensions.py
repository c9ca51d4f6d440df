"""Extensions: the paper's §VI future-work directions, implemented —
range-adaptive preprocessing (randomization near, median blur far),
distance-aware adversarial training (far samples up-weighted), and
CAP-Attack against the FCW/AEB monitor in the closed ACC loop.  Each part
runs in process with pinned seeds; nothing here is cached.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from ..attacks import CAPAttack
from ..configs import make_regression_attack
from ..defenses import (MedianBlur, Randomization, RangeAdaptiveDefense,
                        adversarial_train_regressor,
                        distance_aware_adversarial_train_regressor,
                        generate_adversarial_frames)
from ..eval import evaluate_distance, make_balanced_eval_frames
from ..eval.harness import attack_driving_frames
from ..eval.regression_metrics import RangeErrors
from ..eval.reporting import format_table
from ..models.zoo import get_regressor
from ..pipeline import (ClosedLoopSimulator, ScenarioConfig,
                        make_cap_runtime_attack)
from ..pipeline.simulator import SimulationResult


def range_adaptive() -> Dict[str, RangeErrors]:
    """Auto-PGD range errors: no defense, randomization, range-adaptive."""
    regressor = get_regressor()
    images, distances, boxes = make_balanced_eval_frames(n_per_range=8,
                                                         seed=41)
    adv = attack_driving_frames(regressor, images, distances, boxes,
                                make_regression_attack("Auto-PGD"))
    adaptive = RangeAdaptiveDefense(
        Randomization(seed=2), MedianBlur(3),
        range_probe=lambda f: float(regressor.predict(f[None])[0]),
        threshold_m=40.0)
    return {name: evaluate_distance(regressor, images, distances, boxes,
                                    adversarial_images=adv,
                                    defense=defense).range_errors
            for name, defense in (("None", None),
                                  ("Randomization", Randomization(seed=2)),
                                  ("Range-Adaptive", adaptive))}


def distance_aware_training() -> Dict[str, float]:
    """Clean far-range (> 60 m) MAE after standard and distance-aware
    adversarial fine-tuning on the same Auto-PGD frames."""
    regressor = get_regressor()
    images, distances, boxes = make_balanced_eval_frames(n_per_range=8,
                                                         seed=43)
    adv = generate_adversarial_frames(
        regressor, images, distances, boxes,
        make_regression_attack("Auto-PGD"))
    plain = adversarial_train_regressor(
        adv, distances, clean_images=images, clean_distances=distances,
        epochs=10, seed=0, init_from=regressor)
    aware = distance_aware_adversarial_train_regressor(
        adv, distances, images, distances, epochs=10, seed=0,
        init_from=regressor, far_weight=3.0)
    far = distances > 60.0
    return {name: float(np.abs(model.predict(images[far])
                               - distances[far]).mean())
            for name, model in (("standard", plain), ("distance_aware", aware))}


def closed_loop_safety() -> Dict[str, SimulationResult]:
    """One ACC scenario: clean, CAP-attacked, CAP-attacked with AEB."""
    regressor = get_regressor()
    scenario = ScenarioConfig(duration_s=20.0, initial_gap_m=50.0,
                              ego_speed=28.0, lead_speed=25.0)
    clean = ClosedLoopSimulator(regressor, seed=3).run(scenario)
    attacked = ClosedLoopSimulator(regressor, seed=3,
                                   enable_safety=False).run(
        scenario, attack=make_cap_runtime_attack(
            CAPAttack(eps=0.12, steps_per_frame=2)))
    guarded = ClosedLoopSimulator(regressor, seed=3,
                                  enable_safety=True).run(
        scenario, attack=make_cap_runtime_attack(
            CAPAttack(eps=0.12, steps_per_frame=2)))
    return {"clean": clean, "attacked": attacked, "guarded": guarded}


def run() -> Dict[str, Any]:
    return {"range_adaptive": range_adaptive(),
            "distance_aware": distance_aware_training(),
            "closed_loop": closed_loop_safety()}


def render(results: Dict[str, Any]) -> str:
    aware, loop = results["distance_aware"], results["closed_loop"]
    return "\n\n".join([
        format_table(
            ["Defense", "[0,20]", "[20,40]", "[40,60]", "[60,80]"],
            [[name] + [f"{v:+.2f}" for v in errors.as_row()]
             for name, errors in results["range_adaptive"].items()],
            title="Extension: range-adaptive defense vs Auto-PGD (m error)"),
        format_table(
            ["Training", "clean far-range MAE (m)"],
            [["standard adv. training", f"{aware['standard']:.2f}"],
             ["distance-aware (3x far weight)",
              f"{aware['distance_aware']:.2f}"]],
            title="Extension: distance-aware adversarial training"),
        format_table(
            ["Configuration", "Outcome", "Min gap (m)", "FCW", "AEB"],
            [[label, "COLLISION" if r.collided else "ok",
              f"{r.min_distance:.1f}", str(r.fcw_count), str(r.aeb_count)]
             for label, r in (("clean", loop["clean"]),
                              ("CAP, no safety", loop["attacked"]),
                              ("CAP + AEB", loop["guarded"]))],
            title="Extension: closed-loop ACC under CAP-Attack")])
