"""Determinism oracle: content fingerprints, first divergences, and the
in-process cells the golden record runs twice.

The result cache (:mod:`repro.runtime.cache`) serves a cell's *first* result
forever, so a nondeterministic cell is worse than a slow one — reruns
silently disagree with the cached value and every downstream table inherits
whichever execution happened first.  :func:`result_fingerprint`
content-addresses a result with the same SHA-256 fingerprinting the cache
uses, and :func:`first_divergence` walks two results to report where they
first differ (which key, field or index; for arrays, how far apart).

:data:`CELLS` holds plain zero-argument callables returning nested
dict/list/scalar/ndarray structures — the same shape grid cells return.
``python -m repro.cli analyze golden`` runs each of them twice in process,
fails on a divergence between the two runs, and compares the result with
its entry in ``tests/golden/paper_outputs.json``.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Any, Callable, Dict, Optional

import numpy as np

from ..runtime.cache import array_fingerprint, fingerprint


def result_fingerprint(value: Any) -> str:
    """Content-addressed fingerprint of a nested cell result.

    Arrays hash through :func:`repro.runtime.cache.array_fingerprint`
    (dtype + shape + bytes), dataclasses field by field, everything else
    through the cache's canonical JSON fingerprint — so the golden check
    detects exactly the divergences the result cache would conflate.
    """
    return fingerprint({"result": _canonical(value)})


def row_digests(value: Any) -> Dict[str, str]:
    """A short fingerprint of each depth-1 node of ``value``, by path:
    ``$.key`` for a dict key or dataclass field, ``$[i]`` for a list item."""
    tree = _canonical(value)
    if isinstance(tree, dict):
        nodes = {f"$.{key}": node for key, node in tree.items()}
    elif isinstance(tree, list):
        nodes = {f"$[{i}]": node for i, node in enumerate(tree)}
    else:
        return {}
    return {path: fingerprint({"result": node})[:8]
            for path, node in nodes.items()}


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
    if is_dataclass(a) and not isinstance(a, type):
        a = {f.name: getattr(a, f.name) for f in fields(a)}
        b = {f.name: getattr(b, f.name) for f in fields(b)}
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
    # Scalars compare as the fingerprint sees them: NaN equals NaN, and
    # -0.0 differs from 0.0.
    if fingerprint({"v": a}) != fingerprint({"v": b}):
        return f"{path}: {a!r} vs {b!r}"
    return None


# ---------------------------------------------------------------------------
# Audit cells — cheap cells over deterministic-by-contract surfaces.
# ---------------------------------------------------------------------------

def _sign_scene_cell() -> Dict[str, Any]:
    from ..data.signs import render_scene
    scene = render_scene(np.random.default_rng(0))
    return {"image": scene.image,
            "boxes": np.asarray(scene.boxes, dtype=np.float64)}


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


def _head_mean(model: Any, images: np.ndarray) -> float:
    """Mean raw (pre-decode) head output of ``model`` on ``images``.

    The detection metrics of an untrained detector move only when a
    detection flips; this continuous value moves with any bit of the
    detector or of the frames it saw.
    """
    from ..nn import Tensor, no_grad
    model.eval()
    with no_grad():
        return float(model(Tensor(images)).data.mean(dtype=np.float64))


def _grid_image_processing_cell() -> Dict[str, Any]:
    from ..defenses import MedianBlur
    from ..eval.harness import attack_sign_dataset, evaluate_detection
    model, dataset, attack = _table2_fixture()
    defended = MedianBlur(kernel_size=3).purify(
        attack_sign_dataset(model, dataset, attack))
    metrics = evaluate_detection(model, dataset, adversarial_images=defended)
    return dict(_table2_metrics(metrics),
                head_mean=_head_mean(model, defended))


def _grid_adversarial_training_cell() -> Dict[str, Any]:
    # The Table III transfer protocol: perturbations generated against the
    # base model, evaluated on the (here: differently-seeded) retrained one.
    from ..eval.harness import attack_sign_dataset, evaluate_detection
    from ..models.detector import TinyDetector
    model, dataset, attack = _table2_fixture()
    retrained = TinyDetector(rng=np.random.default_rng(13))
    adversarial = attack_sign_dataset(model, dataset, attack)
    metrics = evaluate_detection(retrained, dataset,
                                 adversarial_images=adversarial)
    return dict(_table2_metrics(metrics),
                head_mean=_head_mean(retrained, adversarial))


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
    from ..eval.harness import attack_sign_dataset, evaluate_detection
    model, dataset, attack = _table2_fixture()
    prior = DenoisingDiffusionModel(timesteps=20, hidden=8, seed=15)
    defense = DiffPIRDefense(prior, t_start=6, n_steps=2, seed=16)
    purified = defense.purify(attack_sign_dataset(model, dataset, attack))
    metrics = evaluate_detection(model, dataset, adversarial_images=purified)
    return dict(_table2_metrics(metrics),
                purified_mean=float(purified.mean(dtype=np.float64)))


#: Every in-process cell, by golden entry name.  The ``grid_slice.*``
#: cells are one Table II cell per defense family: attack generation,
#: defense purification (input transform, retrained-model transfer,
#: contrastive pretraining, diffusion restoration) and detection matching,
#: all with pinned seeds.  Each also returns one continuous value of what it
#: computed (the detector's mean raw head output, the contrastive loss, the
#: mean purified frame), so its fingerprint sees numerics below a flipped
#: detection.  The ``audit.*`` cells sample isolated primitives: scene
#: rendering, sensor-fault application and a white-box attack on an
#: untrained model.
CELLS: Dict[str, Callable[[], Dict[str, Any]]] = {
    "grid_slice.table2.image_processing": _grid_image_processing_cell,
    "grid_slice.table2.adversarial_training": _grid_adversarial_training_cell,
    "grid_slice.table2.contrastive": _grid_contrastive_cell,
    "grid_slice.table2.diffusion": _grid_diffusion_cell,
    "audit.data.sign_scene": _sign_scene_cell,
    "audit.data.driving_frame": _driving_frame_cell,
    "audit.faults.sensor": _sensor_fault_cell,
    "audit.attacks.fgsm_regressor": _attack_cell,
}
