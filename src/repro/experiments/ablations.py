"""Ablations backing the paper's mechanistic claims (DESIGN.md §5).

* **Patch size vs distance** — why attacks are stronger at close range: the
  perturbable region (the lead's bounding box) shrinks quadratically with
  distance.  We sweep distance, attack with a fixed method, and report both
  the box area and the induced error.
* **Auto-PGD vs plain PGD** — the value of Croce-Hein step-size adaptation
  at equal iteration budgets.
* **DiffPIR steps** — restoration quality vs runtime, the trade-off the
  Discussion says needs optimizing for real-time use.

All sweeps except the DiffPIR one run as grid cells (parallel + cached);
the DiffPIR sweep measures wall-clock per frame, so it stays serial and
uncached — a cache hit would report a meaningless 0 ms.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List

import numpy as np

from ..attacks import AutoPGDAttack, FGSMAttack, PGDAttack, boxes_to_mask, \
    regressor_loss_fn
from ..data.driving import render_frame
from ..defenses.diffusion import DiffPIRDefense
from ..eval.harness import evaluate_distance, make_balanced_eval_frames
from ..eval.reporting import format_table
from ..models.zoo import get_diffusion, get_regressor
from ..nn.serialize import state_fingerprint
from ..runtime import GridRunner, stable_seed


# ----------------------------------------------------------------------
@dataclass
class PatchSizeRow:
    distance_m: float
    box_area_px: int
    induced_error_m: float


def patch_size_sweep(distances=(5, 10, 15, 20, 30, 40, 60, 80),
                     n_frames: int = 8,
                     eps: float = 0.06) -> List[PatchSizeRow]:
    regressor = get_regressor()
    model_fp = state_fingerprint(regressor)

    def cell(distance: float):
        # Per-distance RNG so cells are independent of execution order.
        rng = np.random.default_rng(stable_seed("ablation-patch", distance,
                                                base=5))
        frames, boxes = [], []
        for _ in range(n_frames):
            frame = render_frame(float(distance), rng)
            frames.append(frame.image)
            boxes.append(frame.lead_box)
        images = np.stack(frames)
        truth = np.full(n_frames, float(distance), dtype=np.float32)
        mask = boxes_to_mask(boxes, 64, 128)
        attack = FGSMAttack(eps=eps)
        adv = attack.perturb(images, regressor_loss_fn(regressor, truth),
                             mask=mask)
        clean_pred = regressor.predict(images)
        adv_pred = regressor.predict(adv)
        area = int(np.mean([(b[2] - b[0]) * (b[3] - b[1]) for b in boxes]))
        return (area, float((adv_pred - clean_pred).mean()))

    grid = GridRunner("ablation-patch")
    for distance in distances:
        grid.add(("patch", distance), lambda d=distance: cell(float(d)),
                 config={"distance": float(distance), "n_frames": n_frames,
                         "eps": eps, "model": model_fp, "v": 2})
    results = grid.run()
    return [PatchSizeRow(float(d), *results[("patch", d)])
            for d in distances]


def render_patch_size(rows: List[PatchSizeRow]) -> str:
    return format_table(
        ["True distance (m)", "Lead box area (px)", "Induced error (m)"],
        [[f"{r.distance_m:.0f}", str(r.box_area_px),
          f"{r.induced_error_m:+.2f}"] for r in rows],
        title="Ablation: attack surface (lead box area) vs distance")


# ----------------------------------------------------------------------
@dataclass
class PGDComparisonRow:
    attack: str
    n_iter: int
    close_range_error_m: float


def apgd_vs_pgd(iteration_budgets=(5, 10, 20),
                n_per_range: int = 8) -> List[PGDComparisonRow]:
    regressor = get_regressor()
    model_fp = state_fingerprint(regressor)
    images, distances, boxes = make_balanced_eval_frames(n_per_range, seed=21)

    def cell(name: str, n_iter: int) -> float:
        # Attacks are built inside the cell so their RNG state is identical
        # under serial and parallel execution.
        if name == "PGD":
            attack = PGDAttack(eps=0.06, n_iter=n_iter, seed=1)
        else:
            attack = AutoPGDAttack(eps=0.06, n_iter=n_iter, seed=1)
        result = evaluate_distance(regressor, images, distances, boxes,
                                   attack=attack)
        return result.range_errors[(0, 20)]

    grid = GridRunner("ablation-apgd")
    keys = [(name, n_iter) for n_iter in iteration_budgets
            for name in ("PGD", "Auto-PGD")]
    for name, n_iter in keys:
        grid.add((name, n_iter),
                 lambda name=name, n_iter=n_iter: cell(name, n_iter),
                 config={"attack": name, "n_iter": n_iter,
                         "n_per_range": n_per_range, "model": model_fp,
                         "v": 1})
    results = grid.run()
    return [PGDComparisonRow(name, n_iter, results[(name, n_iter)])
            for name, n_iter in keys]


def render_apgd_vs_pgd(rows: List[PGDComparisonRow]) -> str:
    return format_table(
        ["Attack", "Iterations", "[0,20] m error"],
        [[r.attack, str(r.n_iter), f"{r.close_range_error_m:+.2f}"]
         for r in rows],
        title="Ablation: Auto-PGD step-size adaptation vs plain PGD")


# ----------------------------------------------------------------------
@dataclass
class WeatherRow:
    condition: str
    clean_mae_m: float
    attacked_close_error_m: float


def weather_sweep(n_frames: int = 10, intensity: float = 0.7,
                  eps: float = 0.06) -> List[WeatherRow]:
    """Attack strength under §III-A's degraded-visibility conditions.

    For each weather kind, measure (a) the model's clean MAE under that
    weather and (b) the FGSM-induced close-range error on weathered frames —
    quantifying the paper's framing that sensor-degraded conditions are
    where perturbation robustness matters most.
    """
    from ..data.weather import apply_weather

    regressor = get_regressor()
    rng = np.random.default_rng(11)
    frames, boxes = [], []
    distances = np.linspace(6.0, 18.0, n_frames).astype(np.float32)
    for d in distances:
        frame = render_frame(float(d), rng)
        frames.append(frame.image)
        boxes.append(frame.lead_box)
    base = np.stack(frames)
    model_fp = state_fingerprint(regressor)

    def cell(condition: str):
        if condition == "clear":
            images = base
        else:
            images = np.stack([
                apply_weather(f, condition, intensity,
                              rng=np.random.default_rng(5)) for f in base])
        clean_pred = regressor.predict(images)
        clean_mae = float(np.abs(clean_pred - distances).mean())
        mask = boxes_to_mask(boxes, 64, 128)
        adv = FGSMAttack(eps=eps).perturb(
            images, regressor_loss_fn(regressor, distances), mask=mask)
        adv_pred = regressor.predict(adv)
        return (clean_mae, float((adv_pred - clean_pred).mean()))

    conditions = ("clear", "fog", "rain", "night")
    grid = GridRunner("ablation-weather")
    for condition in conditions:
        grid.add(("weather", condition), lambda c=condition: cell(c),
                 config={"condition": condition, "n_frames": n_frames,
                         "intensity": intensity, "eps": eps,
                         "model": model_fp, "v": 1})
    results = grid.run()
    return [WeatherRow(c, *results[("weather", c)]) for c in conditions]


def render_weather(rows: List[WeatherRow]) -> str:
    return format_table(
        ["Condition", "Clean MAE (m)", "FGSM-induced error (m)"],
        [[r.condition, f"{r.clean_mae_m:.2f}",
          f"{r.attacked_close_error_m:+.2f}"] for r in rows],
        title="Ablation: perception and attack under weather (SIII-A)")


# ----------------------------------------------------------------------
@dataclass
class DiffusionStepsRow:
    n_steps: int
    restoration_mae: float
    ms_per_frame: float


def diffusion_steps_sweep(step_counts=(2, 5, 10, 20), n_images: int = 8,
                          noise_sigma: float = 0.1) -> List[DiffusionStepsRow]:
    prior = get_diffusion("signs")
    from ..models.zoo import get_sign_testset
    clean = get_sign_testset(n_scenes=n_images, seed=42).images()
    rng = np.random.default_rng(9)
    noisy = np.clip(clean + rng.normal(0, noise_sigma, clean.shape),
                    0, 1).astype(np.float32)
    rows: List[DiffusionStepsRow] = []
    for n_steps in step_counts:
        defense = DiffPIRDefense(prior, t_start=30, n_steps=n_steps, seed=0)
        start = time.perf_counter()
        restored = defense.purify(noisy)
        elapsed = (time.perf_counter() - start) / n_images * 1000.0
        mae = float(np.abs(restored - clean).mean())
        rows.append(DiffusionStepsRow(n_steps, mae, elapsed))
    return rows


def render_diffusion_steps(rows: List[DiffusionStepsRow]) -> str:
    return format_table(
        ["DiffPIR steps", "restoration MAE", "ms/frame"],
        [[str(r.n_steps), f"{r.restoration_mae:.4f}",
          f"{r.ms_per_frame:.1f}"] for r in rows],
        title="Ablation: DiffPIR steps vs fidelity vs runtime")
