"""serve_bench — serving availability under chaos + defense-router ASR.

Two questions about the serving layer (:mod:`repro.serving`), answered on
the paper's own models and attack suite:

**Availability.**  For a set of chaos scenarios — nominal traffic, a mixed
crash/hang/scorer-fault plan, a persistently crash-looping replica, and an
overload burst — play a synthetic 20 Hz trace through the full stack and
report availability, virtual p50/p99 latency, shed/hedge/retry counts,
circuit-breaker trips and respawns.  Every scenario runs **twice** and the
row records whether the two executions were bit-identical (the virtual
clock guarantees they must be).

**Defense routing.**  Replay Table II's protocol as *traffic*: the eval
frames with a fraction of adversarially perturbed ticks (every regression
attack family), served once with the router disabled (all traffic on the
fast path) and once enabled (suspected frames routed to a defended variant
= input purification + an adversarially fine-tuned regressor).  Reported
per mode: attack success rate (answered attacked ticks whose served
distance is off by more than :data:`ASR_THRESHOLD_M`), clean-traffic MAE,
p50/p99 latency (the routing cost), and the defended-path share.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

import numpy as np

from ..configs import (MEDIAN_BLUR_KERNEL, REGRESSION_ATTACKS,
                       make_regression_attack)
from ..defenses import MedianBlur
from ..eval.harness import (cached_attack_driving_frames,
                            make_balanced_eval_frames)
from ..eval.reporting import format_table
from ..models.distance import DistanceRegressor
from ..models.training import train_regressor
from ..models.zoo import cached_model, get_regressor
from ..nn.serialize import state_fingerprint
from ..pipeline.perception import PerceptionService
from ..runtime import GridRunner
from ..runtime import env
from ..serving import (AdmissionScorer, BrokerConfig, PerceptionServer,
                       ServeConfig, ServeReport, TrafficTrace, run_serve)

SERVE_SEED = 7
ASR_THRESHOLD_M = 10.0     # served distance this far off = attack success
DEFENDED_EPOCHS = 6
BENCH_VERSION = 3

#: scenario -> (fault plan, arrival-rate burst factor).
CHAOS_SCENARIOS: Dict[str, Dict[str, Any]] = {
    "nominal": {"plan": "", "burst": 1.0},
    "chaos": {"plan": ("crash@serve.replica.0:attempt=10-30,"
                       "hang@serve.replica.1:attempt=25,"
                       "raise@serve.scorer:attempt=12"),
              "burst": 1.0},
    "crashloop": {"plan": "crash@serve.replica.0:attempt=0+", "burst": 1.0},
    "overload": {"plan": "", "burst": 40.0},
}


def _serve_config() -> ServeConfig:
    # Short wall timeout: injected hangs should cost ~a second of real
    # time, not the production default, while staying >> real inference.
    return ServeConfig(wall_timeout=2.0,
                       broker=BrokerConfig(deadline_ms=60.0))


def _serve_once(trace: TrafficTrace, server: PerceptionServer,
                calibration: np.ndarray, plan: str,
                router: bool = True) -> ServeReport:
    """One serve run under ``plan`` (the ambient plan is restored after)."""
    previous = env.FAULT_PLAN.raw()
    env.FAULT_PLAN.set(plan)
    try:
        scorer = AdmissionScorer()
        scorer.calibrate(calibration)
        config = _serve_config()
        config.router_enabled = router
        return run_serve(trace, server, config, scorer=scorer)
    finally:
        env.FAULT_PLAN.set(previous or "")


# ----------------------------------------------------------------------
# Part A: availability under chaos
# ----------------------------------------------------------------------

def run_availability(n_ticks: int = 240) -> List[Dict[str, Any]]:
    model = get_regressor()
    model_fp = state_fingerprint(model)
    images, distances, _ = make_balanced_eval_frames(n_per_range=8,
                                                     seed=SERVE_SEED)
    base_trace = TrafficTrace.from_clean(images, distances, n_ticks=n_ticks,
                                         seed=SERVE_SEED)
    server = PerceptionServer(PerceptionService(model))

    def cell(plan: str, burst: float) -> Dict[str, Any]:
        trace = base_trace.burst(burst) if burst != 1.0 else base_trace
        first = _serve_once(trace, server, images, plan)
        second = _serve_once(trace, server, images, plan)
        return {"summary": first.summary(),
                "fingerprint": first.fingerprint(),
                "deterministic": first.fingerprint() == second.fingerprint(),
                "breaker_transitions": first.breaker_transitions}

    grid = GridRunner("serve_bench")
    for scenario, spec in CHAOS_SCENARIOS.items():
        grid.add(scenario,
                 lambda spec=spec: cell(spec["plan"], spec["burst"]),
                 config={"model": model_fp, "ticks": n_ticks,
                         "plan": spec["plan"], "burst": spec["burst"],
                         "seed": SERVE_SEED, "v": BENCH_VERSION})
    results = grid.run()
    return [{"scenario": scenario, "plan": CHAOS_SCENARIOS[scenario]["plan"],
             **results[scenario]} for scenario in CHAOS_SCENARIOS]


# ----------------------------------------------------------------------
# Part B: defense-router ASR on Table II attack traffic
# ----------------------------------------------------------------------

def _defended_regressor(base: DistanceRegressor) -> DistanceRegressor:
    """Blur-domain adversarially fine-tuned variant for the defended path.

    The defended serving path runs median-blur purification in front of
    the model, so the variant is fine-tuned **behind the same blur**:
    purified white-box adversarial frames plus (double-weighted) purified
    clean frames, at a gentle learning rate.  Fine-tuning on *raw*
    adversarial frames instead leaves the model mismatched with the
    purified serving input and performs worse than the base model
    (measured; see the serve_bench router table).  Frames come from a
    different seed than the traffic eval set.
    """
    images, distances, boxes = make_balanced_eval_frames(n_per_range=24,
                                                         seed=77)
    adv_parts = [cached_attack_driving_frames(
        base, images, distances, boxes, make_regression_attack(name))
        for name in ("FGSM", "Auto-PGD")]
    purify = MedianBlur(MEDIAN_BLUR_KERNEL).purify

    def train(model, checkpoint):
        model.load_state_dict(base.state_dict())
        train_images = np.concatenate(
            [purify(part.astype(np.float32)) for part in adv_parts]
            + [purify(images.astype(np.float32))] * 2)
        train_distances = np.concatenate([distances] * (len(adv_parts) + 2))
        train_regressor(model, train_images, train_distances,
                        epochs=DEFENDED_EPOCHS, seed=0, lr=3e-4,
                        checkpoint=checkpoint)

    return cached_model(
        "serve-defended-reg",
        {"base": state_fingerprint(base), "epochs": DEFENDED_EPOCHS, "v": 2},
        lambda: DistanceRegressor(rng=np.random.default_rng(0)), train)


def _traffic_metrics(report: ServeReport) -> Dict[str, Any]:
    attacked = [t for t in report.ticks if t.attack and t.outcome == "answered"]
    successes = [t for t in attacked
                 if t.measurement is None
                 or abs(t.measurement - t.truth) > ASR_THRESHOLD_M]
    clean = [t for t in report.ticks
             if not t.attack and t.outcome == "answered"
             and t.measurement is not None]
    summary = report.summary()
    return {
        "asr": round(len(successes) / len(attacked), 4) if attacked else 0.0,
        "attacked_ticks": len(attacked),
        "clean_mae": (round(float(np.mean([abs(t.measurement - t.truth)
                                           for t in clean])), 3)
                      if clean else None),
        "latency_p50_ms": summary["latency_p50_ms"],
        "latency_p99_ms": summary["latency_p99_ms"],
        "availability": summary["availability"],
        "defended_share": round(summary["routed_defended"]
                                / max(1, summary["ticks"]), 4),
    }


def run_router(n_per_range: int = 6, attack_fraction: float = 0.35,
               n_ticks: int = 200) -> List[Dict[str, Any]]:
    model = get_regressor()
    model_fp = state_fingerprint(model)
    images, distances, boxes = make_balanced_eval_frames(n_per_range,
                                                         seed=123)
    adversarial = {name: cached_attack_driving_frames(
        model, images, distances, boxes, make_regression_attack(name))
        for name in REGRESSION_ATTACKS}
    defended = _defended_regressor(model)
    server = PerceptionServer(
        fast=PerceptionService(model),
        defended=PerceptionService(defended,
                                   defense=MedianBlur(MEDIAN_BLUR_KERNEL)))
    trace = TrafficTrace.mixed(images, distances, adversarial,
                               attack_fraction=attack_fraction,
                               n_ticks=n_ticks, seed=SERVE_SEED)

    def cell(router: bool) -> Dict[str, Any]:
        report = _serve_once(trace, server, images, plan="", router=router)
        return _traffic_metrics(report)

    grid = GridRunner("serve_bench_router")
    modes = {"fast-path": False, "routed": True}
    for mode, router in modes.items():
        grid.add(mode, lambda router=router: cell(router),
                 config={"model": model_fp,
                         "defended": state_fingerprint(defended),
                         "frames": n_per_range, "ticks": n_ticks,
                         "fraction": attack_fraction, "seed": SERVE_SEED,
                         "v": BENCH_VERSION})
    results = grid.run()
    return [{"mode": mode, **results[mode]} for mode in modes]


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def run(n_ticks: int = 240,
        n_per_range: int = 6) -> Dict[str, List[Dict[str, Any]]]:
    return {"availability": run_availability(n_ticks),
            "router": run_router(n_per_range)}


def render(results: Dict[str, List[Dict[str, Any]]]) -> str:
    rows = []
    for row in results["availability"]:
        summary = row["summary"]
        rows.append([
            row["scenario"], f"{summary['availability']:.3f}",
            str(summary["shed"]), str(summary["coasted"]),
            f"{summary['latency_p50_ms']:.1f}"
            if summary["latency_p50_ms"] is not None else "-",
            f"{summary['latency_p99_ms']:.1f}"
            if summary["latency_p99_ms"] is not None else "-",
            str(summary["retries"]), str(summary["hedges"]),
            str(summary["breaker_trips"]), str(summary["respawns"]),
            str(summary["unserved"]),
            "yes" if row["deterministic"] else "NO",
        ])
    availability = format_table(
        ["scenario", "avail", "shed", "coast", "p50ms", "p99ms", "retry",
         "hedge", "trips", "respawn", "unserved", "bit-identical"],
        rows, title="Serving availability under chaos "
                    "(virtual-clock latencies)")

    rows = []
    for row in results["router"]:
        rows.append([
            row["mode"], f"{row['asr']:.3f}", str(row["attacked_ticks"]),
            f"{row['clean_mae']:.2f}" if row["clean_mae"] is not None else "-",
            f"{row['latency_p50_ms']:.1f}", f"{row['latency_p99_ms']:.1f}",
            f"{row['defended_share']:.3f}", f"{row['availability']:.3f}",
        ])
    router = format_table(
        ["mode", "ASR", "attacked", "clean MAE", "p50ms", "p99ms",
         "defended", "avail"],
        rows, title="Defense router vs fast path on Table II attack "
                    f"traffic (success = error > {ASR_THRESHOLD_M:.0f} m)")
    return availability + "\n\n" + router


def export_bench(path: str,
                 results: Dict[str, List[Dict[str, Any]]]) -> str:
    """Write the serving benchmark JSON (``BENCH_serving.json``).

    Plain JSON (matching ``BENCH_runtime.json``), written atomically so a
    crash mid-export never leaves a torn benchmark file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump({"version": BENCH_VERSION,
                   "asr_threshold_m": ASR_THRESHOLD_M, **results},
                  handle, indent=1)
    os.replace(tmp, path)
    return path
