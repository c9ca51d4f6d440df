"""Table I — average distance-prediction error per range, under attack.

Paper protocol (§V-B.1): adversarial patches in the lead-vehicle region of
each frame; report the mean change in predicted distance (attacked vs clean)
binned by the true range.

Each attack is one :class:`~repro.runtime.GridRunner` cell: adversarial
frames are generated behind the ``.npz`` result cache, metrics land in the
JSON cache, and cells fan across ``REPRO_WORKERS`` processes.
"""

from __future__ import annotations

from typing import Dict

from ..configs import REGRESSION_ATTACKS, make_regression_attack
from ..eval.harness import (cached_attack_driving_frames, evaluate_distance,
                            make_balanced_eval_frames)
from ..eval.regression_metrics import RangeErrors
from ..eval.reporting import table1 as render_table1
from ..models.zoo import get_regressor
from ..nn.serialize import state_fingerprint
from ..runtime import GridRunner


def run(n_per_range: int = 20, seed: int = 123) -> Dict[str, RangeErrors]:
    """Compute the Table I grid; returns {attack name: range errors}."""
    regressor = get_regressor()
    images, distances, boxes = make_balanced_eval_frames(n_per_range, seed)
    model_fp = state_fingerprint(regressor)

    grid = GridRunner("table1")
    for name in REGRESSION_ATTACKS:
        def cell(name: str = name) -> RangeErrors:
            adv = cached_attack_driving_frames(
                regressor, images, distances, boxes,
                make_regression_attack(name))
            return evaluate_distance(regressor, images, distances, boxes,
                                     adversarial_images=adv).range_errors
        grid.add(name, cell,
                 config={"attack": name, "n_per_range": n_per_range,
                         "seed": seed, "model": model_fp, "v": 1})
    results = grid.run()
    return {name: results[name] for name in REGRESSION_ATTACKS}


def render(rows: Dict[str, RangeErrors]) -> str:
    return render_table1(rows)
