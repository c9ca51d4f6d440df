"""Defense router: admission-control scoring + defended-path routing.

AD²-style runtime defense layer (Sahu et al.): instead of paying a heavy
defense on every frame, a cheap **admission scorer** flags frames that
look adversarial and only those take the slow *defended* path (input
purification + a hardened model variant); clean traffic stays on the fast
path at full frame rate.

The scorer is a reconstruction-error heuristic built from the paper's own
preprocessors (:mod:`repro.defenses`): the residual ``|frame −
median_blur(frame)|`` splits cleanly on rendered driving frames — smooth
regions reconstruct almost exactly (residual ≈ 0) and genuine object
edges blow straight past the blur (residual ≫ 0.1) — while bounded
adversarial noise (FGSM / Auto-PGD / CAP at ε ≈ 0.06) lands in a
**mid-band** neither clean population occupies.  Because the paper's
attacks confine perturbations to the lead box, the score is the *maximum
local density* of mid-band residual pixels over small windows: a
perturbed patch saturates one window even when it covers only a few
percent of the frame.  (Calibrated on this repo's renderer: ~90% of
Table II adversarial frames flag at a threshold with ≤5% clean
false-positive rate; see ``tests/serving/test_router.py``.)

The score is thresholded against a quantile of the *clean* score
distribution (:meth:`AdmissionScorer.calibrate`), mirroring how
reconstruction-error detectors are deployed in practice.  The scorer
consults the chaos plan under scope ``serve.scorer`` and **fails safe**:
a scorer crash routes the frame to the defended path, never silently to
the fast path.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..configs import MEDIAN_BLUR_KERNEL
from ..defenses import MedianBlur
from ..faults.runtime import RuntimeFaultPlan

logger = logging.getLogger(__name__)

#: fault-plan scope for the admission scorer (``raise@serve.scorer``).
SCORER_SCOPE = "serve.scorer"

#: request payload tags — which model variant a replica should run.
FAST_PATH = "fast"
DEFENDED_PATH = "defended"


@dataclass
class RouteDecision:
    path: str                  # FAST_PATH | DEFENDED_PATH
    score: float               # admission score (NaN when the scorer failed)
    scorer_fault: bool = False


class AdmissionScorer:
    """Cheap adversarial-evidence score for one frame (higher = worse)."""

    def __init__(self, band_low: float = 0.03, band_high: float = 0.12,
                 window: int = 4, threshold: Optional[float] = None):
        self._blur = MedianBlur(MEDIAN_BLUR_KERNEL)
        self.band_low = float(band_low)
        self.band_high = float(band_high)
        self.window = int(window)
        self.threshold = threshold

    def score(self, frame: np.ndarray) -> float:
        """Admission score of one (C, H, W) frame in [0, 1].

        Max over ``window``-sized tiles of the fraction of pixels whose
        blur residual falls in the suspicious mid-band — ~1.0 when a tile
        sits inside an ε-bounded perturbation patch, near 0 on clean
        renders (their residuals are either ≈0 or edge-sized).
        """
        batch = frame[None].astype(np.float32)
        residual = np.abs(batch - self._blur.purify(batch))[0].mean(axis=0)
        band = ((residual >= self.band_low)
                & (residual < self.band_high)).astype(np.float32)
        k = self.window
        height = band.shape[0] // k * k
        width = band.shape[1] // k * k
        tiles = band[:height, :width].reshape(height // k, k, width // k, k)
        return float(tiles.mean(axis=(1, 3)).max())

    def calibrate(self, clean_frames: np.ndarray,
                  quantile: float = 0.95, margin: float = 1.05) -> float:
        """Set the suspicion threshold from clean traffic.

        ``threshold = margin * quantile(clean scores)`` — at the default
        5% of clean frames would flag without the margin; the margin
        trades a little detection for a near-zero clean slow-path rate.
        """
        scores = np.array([self.score(frame) for frame in clean_frames])
        self.threshold = float(np.quantile(scores, quantile) * margin)
        logger.info("admission scorer calibrated: threshold %.5f "
                    "(clean q%.0f over %d frames)", self.threshold,
                    quantile * 100, len(clean_frames))
        return self.threshold


class DefenseRouter:
    """Route each frame to the fast or the defended serving path."""

    def __init__(self, scorer: Optional[AdmissionScorer] = None,
                 enabled: bool = True):
        self.scorer = scorer or AdmissionScorer()
        self.enabled = enabled
        self.plan = RuntimeFaultPlan.from_env()
        self.routed_defended = 0
        self.scorer_faults = 0

    def route(self, seq: int, frame: np.ndarray) -> RouteDecision:
        """Decide the serving path for request ``seq``.

        Scorer failures (including injected ``raise@serve.scorer``) fail
        *safe*: the frame takes the defended path.
        """
        if not self.enabled:
            return RouteDecision(FAST_PATH, score=0.0)
        if self.scorer.threshold is None:
            raise RuntimeError("AdmissionScorer.calibrate() must run before "
                               "routing (threshold unset)")
        try:
            self.plan.maybe_inject(SCORER_SCOPE, seq)
            score = self.scorer.score(frame)
        except Exception as error:
            self.scorer_faults += 1
            self.routed_defended += 1
            logger.warning("admission scorer failed on request %d (%s); "
                           "failing safe to the defended path", seq, error)
            return RouteDecision(DEFENDED_PATH, score=float("nan"),
                                 scorer_fault=True)
        if score > self.scorer.threshold:
            self.routed_defended += 1
            return RouteDecision(DEFENDED_PATH, score=score)
        return RouteDecision(FAST_PATH, score=score)
