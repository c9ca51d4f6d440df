"""Determinism auditor: re-execute sampled cells, diff content fingerprints.

The result cache (:mod:`repro.runtime.cache`) serves a cell's *first* result
forever, so a nondeterministic cell is worse than a slow one — reruns
silently disagree with the cached value and every downstream table inherits
whichever execution happened first.  The auditor makes that failure loud:
it executes a cell ``runs`` times in-process, content-addresses each result
with the same SHA-256 fingerprinting the cache uses, and on mismatch walks
both result structures to report the *first divergence* (which key, which
array, how far apart).

Cells here are plain zero-argument callables returning nested
dict/list/scalar/ndarray structures — the same shape grid cells return.
:func:`default_cells` samples the repo's deterministic-by-contract
surfaces: scene rendering, sensor-fault application, and a white-box attack
on an untrained model.  ``python -m repro.analysis audit`` runs them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..runtime.cache import array_fingerprint, fingerprint


@dataclass
class AuditCell:
    """One auditable unit of work: a name and a re-executable callable."""

    name: str
    fn: Callable[[], Any]


@dataclass
class AuditReport:
    """Outcome of auditing one cell across ``runs`` executions."""

    name: str
    fingerprints: List[str] = field(default_factory=list)
    divergence: Optional[str] = None    # first-divergence path, or None

    @property
    def deterministic(self) -> bool:
        return len(set(self.fingerprints)) <= 1

    def to_json(self) -> dict:
        return {"name": self.name, "fingerprints": self.fingerprints,
                "deterministic": self.deterministic,
                "divergence": self.divergence}


def result_fingerprint(value: Any) -> str:
    """Content-addressed fingerprint of a nested cell result.

    Arrays hash through :func:`repro.runtime.cache.array_fingerprint`
    (dtype + shape + bytes), dataclasses field by field, everything else
    through the cache's canonical JSON fingerprint — so the auditor detects
    exactly the divergences the result cache would conflate.
    """
    return fingerprint({"result": _canonical(value)})


def _canonical(value: Any) -> Any:
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: _canonical(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, np.ndarray):
        return {"__array__": array_fingerprint(value)}
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items(),
                                                         key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def first_divergence(a: Any, b: Any, path: str = "$") -> Optional[str]:
    """Path and description of the first place two results differ."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if not isinstance(a, np.ndarray) or not isinstance(b, np.ndarray):
            return f"{path}: array vs {type(b).__name__}"
        if a.shape != b.shape or a.dtype != b.dtype:
            return (f"{path}: array meta differs "
                    f"({a.dtype}{a.shape} vs {b.dtype}{b.shape})")
        if array_fingerprint(a) != array_fingerprint(b):
            delta = np.abs(np.asarray(a, dtype=np.float64)
                           - np.asarray(b, dtype=np.float64))
            where = np.unravel_index(int(np.argmax(delta)), a.shape)
            return (f"{path}: array content differs; max |delta| = "
                    f"{float(delta.max()):.6g} at index "
                    f"{tuple(int(i) for i in where)}")
        return None
    if type(a) is not type(b):
        return f"{path}: type {type(a).__name__} vs {type(b).__name__}"
    if isinstance(a, dict):
        if sorted(map(str, a)) != sorted(map(str, b)):
            return f"{path}: key sets differ"
        for key in sorted(a, key=str):
            found = first_divergence(a[key], b[key], f"{path}.{key}")
            if found is not None:
                return found
        return None
    if isinstance(a, (list, tuple)):
        if len(a) != len(b):
            return f"{path}: length {len(a)} vs {len(b)}"
        for i, (item_a, item_b) in enumerate(zip(a, b)):
            found = first_divergence(item_a, item_b, f"{path}[{i}]")
            if found is not None:
                return found
        return None
    if a != b:
        return f"{path}: {a!r} vs {b!r}"
    return None


def audit_cells(cells: Sequence[AuditCell], runs: int = 2
                ) -> List[AuditReport]:
    """Execute each cell ``runs`` times and report fingerprint agreement."""
    if runs < 2:
        raise ValueError("auditing needs at least 2 runs to compare")
    reports: List[AuditReport] = []
    for cell in cells:
        results = [cell.fn() for _ in range(runs)]
        report = AuditReport(
            name=cell.name,
            fingerprints=[result_fingerprint(r) for r in results])
        if not report.deterministic:
            baseline = results[0]
            for candidate in results[1:]:
                report.divergence = first_divergence(baseline, candidate)
                if report.divergence is not None:
                    break
            if report.divergence is None:
                report.divergence = "$: results differ (unlocated)"
        reports.append(report)
    return reports


# ---------------------------------------------------------------------------
# Default audit set — cheap cells over deterministic-by-contract surfaces.
# ---------------------------------------------------------------------------

def _sign_scene_cell() -> Dict[str, Any]:
    from ..data.signs import render_scene
    scene = render_scene(np.random.default_rng(0))
    return {"image": scene.image,
            "boxes": [list(map(float, box)) for box in scene.boxes]}


def _driving_frame_cell() -> Dict[str, Any]:
    from ..data.driving import render_frame
    frame = render_frame(25.0, np.random.default_rng(1))
    return {"image": frame.image, "distance": frame.distance}


def _sensor_fault_cell() -> Dict[str, Any]:
    from ..data.driving import render_frame
    from ..faults.sensor import ExposureShift, NoiseBurst
    frame = render_frame(30.0, np.random.default_rng(2)).image
    noisy = NoiseBurst().apply(frame, None, np.random.default_rng(3))
    shifted = ExposureShift().apply(frame, None, np.random.default_rng(4))
    return {"noisy": noisy, "shifted": shifted}


def _attack_cell() -> Dict[str, Any]:
    from ..attacks import FGSMAttack, regressor_loss_fn
    from ..data.driving import render_frame
    from ..models.distance import DistanceRegressor
    model = DistanceRegressor(rng=np.random.default_rng(5))
    frame = render_frame(20.0, np.random.default_rng(6))
    batch = frame.image[None]
    loss_fn = regressor_loss_fn(model, np.array([frame.distance]))
    adversarial = FGSMAttack(eps=0.03).perturb(batch, loss_fn)
    return {"adversarial": adversarial,
            "prediction": model.predict(adversarial)}


def default_cells() -> List[AuditCell]:
    """The sampled cells ``python -m repro.analysis audit`` re-executes."""
    return [AuditCell("data.sign_scene", _sign_scene_cell),
            AuditCell("data.driving_frame", _driving_frame_cell),
            AuditCell("faults.sensor", _sensor_fault_cell),
            AuditCell("attacks.fgsm_regressor", _attack_cell)]


# ---------------------------------------------------------------------------
# Grid slice — one real Table II cell per defense family (golden entries).
# ---------------------------------------------------------------------------

def _table2_metrics(metrics: Any) -> Dict[str, float]:
    return {"map50": float(metrics.map50),
            "precision": float(metrics.precision),
            "recall": float(metrics.recall)}


def _table2_fixture():
    """Tiny shared fixture: untrained detector + 4-scene sign set + FGSM.

    Untrained weights keep each re-execution cheap while still pushing real
    images through the full attack -> defense -> detect -> match pipeline —
    exactly the surface Table II caches.
    """
    from ..attacks import FGSMAttack
    from ..data.signs import SignDataset
    from ..models.detector import TinyDetector
    model = TinyDetector(rng=np.random.default_rng(11))
    dataset = SignDataset(4, seed=12)
    return model, dataset, FGSMAttack(eps=0.03)


def _grid_image_processing_cell() -> Dict[str, Any]:
    from ..defenses import MedianBlur
    from ..eval.harness import evaluate_detection
    model, dataset, attack = _table2_fixture()
    metrics = evaluate_detection(model, dataset, attack=attack,
                                 defense=MedianBlur(kernel_size=3))
    return _table2_metrics(metrics)


def _grid_adversarial_training_cell() -> Dict[str, Any]:
    # The Table III transfer protocol: perturbations generated against the
    # base model, evaluated on the (here: differently-seeded) retrained one.
    from ..eval.harness import evaluate_detection
    from ..models.detector import TinyDetector
    model, dataset, attack = _table2_fixture()
    retrained = TinyDetector(rng=np.random.default_rng(13))
    metrics = evaluate_detection(retrained, dataset, attack=attack,
                                 attack_model=model)
    return _table2_metrics(metrics)


def _grid_contrastive_cell() -> Dict[str, Any]:
    from ..defenses import contrastive_pretrain
    from ..eval.harness import evaluate_detection
    model, dataset, attack = _table2_fixture()
    history = contrastive_pretrain(model, dataset.images(), epochs=1,
                                   batch_size=4, seed=14)
    metrics = evaluate_detection(model, dataset, attack=attack)
    return dict(_table2_metrics(metrics), pretrain_loss=history)


def _grid_diffusion_cell() -> Dict[str, Any]:
    from ..defenses import DenoisingDiffusionModel, DiffPIRDefense
    from ..eval.harness import evaluate_detection
    model, dataset, attack = _table2_fixture()
    prior = DenoisingDiffusionModel(timesteps=20, hidden=8, seed=15)
    defense = DiffPIRDefense(prior, t_start=6, n_steps=2, seed=16)
    metrics = evaluate_detection(model, dataset, attack=attack,
                                 defense=defense)
    return _table2_metrics(metrics)


def grid_slice_cells() -> List[AuditCell]:
    """One Table II cell per defense family, re-executable end to end.

    Where :func:`default_cells` samples isolated primitives, this slice
    covers the composed grid pipeline the experiment tables are built from:
    attack generation, defense purification (input-transform, retrained
    model transfer, contrastive pretraining, diffusion restoration) and
    detection matching, all with pinned seeds.
    """
    return [AuditCell("table2.image_processing", _grid_image_processing_cell),
            AuditCell("table2.adversarial_training",
                      _grid_adversarial_training_cell),
            AuditCell("table2.contrastive", _grid_contrastive_cell),
            AuditCell("table2.diffusion", _grid_diffusion_cell)]
