"""The four benchmark workloads, the layer map and the output checks.

Each workload drives the program through its public API from one process.
``setup(seed)`` builds everything a pass needs: it loads the zoo, generates
the inputs from the seed and warms the code paths up.  ``run_pass()`` does
one pass over those inputs and returns its outputs, which
:func:`check_outputs` compares with ``reference.json``.  The benchmark, not
the program, owns the seed: the program only receives the generated frames,
scenarios and traces (``table1.run`` renders its own eval frames from the
seed it is given, as the program always does).

A *tick* is one step of a workload's inner loop, timed at the workload's
tick function: either the interval between its successive calls (the last
tick of a pass ends with the pass) or the duration of each call.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import repro.attacks.autopgd as autopgd_module
import repro.attacks.cap as cap_module
import repro.attacks.fgsm as fgsm_module
import repro.data.driving as driving_module
import repro.eval.harness as harness
import repro.nn.functional as functional
import repro.pipeline.camera as camera_module
import repro.runtime.grid as grid_module
from repro.attacks import (AutoPGDAttack, CAPAttack, FGSMAttack,
                           GaussianNoiseAttack, regressor_loss_fn)
from repro.configs import DIFFPIR_DRIVING, MEDIAN_BLUR_KERNEL
from repro.defenses import MedianBlur
from repro.defenses.diffusion import DenoisingDiffusionModel, DiffPIRDefense
from repro.eval.harness import make_balanced_eval_frames, summarize_simulation
from repro.experiments import table1
from repro.experiments.serve_bench import CHAOS_SCENARIOS
from repro.faults.watchdog import PerceptionWatchdog
from repro.models import zoo
from repro.models.distance import DistanceRegressor
from repro.nn import BatchNorm2d, SiLU, Tensor
from repro.pipeline.acc import ACCPlanner
from repro.pipeline.camera import Camera
from repro.pipeline.perception import PerceptionService
from repro.pipeline.safety import SafetyMonitor
from repro.pipeline.simulator import (ClosedLoopSimulator, ScenarioConfig,
                                      make_cap_runtime_attack)
from repro.pipeline.tracker import LeadKalmanFilter
from repro.runtime import GridRunner
from repro.serving import (AdmissionScorer, BrokerConfig, PerceptionServer,
                           ServeConfig, TrafficTrace, run_serve)
from repro.serving.broker import RequestBroker
from repro.serving.replica import ReplicaPool
from repro.serving.router import FAST_PATH

from tracing import Tracer

#: Training budget of the driving DDPM prior the benchmark builds.  The
#: zoo default (15 epochs x 400 images) takes ~530 s on a 2-core box, more
#: than a first run may spend building.  Purification cost depends only on
#: the network and the DiffPIR schedule, not on how long the prior trained.
PRIOR_TRAINING = {"epochs": 4, "n_images": 160}


def driving_prior() -> DenoisingDiffusionModel:
    return zoo.get_diffusion("driving", **PRIOR_TRAINING)


def prepare_zoo() -> None:
    """Load, or train once, every zoo model a workload uses."""
    zoo.get_regressor()
    driving_prior()


class Workload:
    name = ""
    #: frames (or ticks) one pass processes
    frames_per_pass = 1
    #: (owner, attribute) of the tick function
    tick: Tuple[Any, str] = (None, "")
    #: True: a tick is one call of the tick function; False: the interval
    #: from one call to the next
    tick_is_call = False

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def run_pass(self) -> Dict[str, Any]:
        raise NotImplementedError

    def availability(self, outputs: Dict[str, Any],
                     ticks_s: List[float]) -> float:
        """Share of the pass's frames that produced a usable answer."""
        raise NotImplementedError


class AttackGrid(Workload):
    """Table I: four regression attacks on 32 balanced eval frames, serial."""

    name = "attack-grid"
    N_PER_RANGE = 8          # 4 ranges x 8 = one batch of 32 per attack
    frames_per_pass = 4 * N_PER_RANGE
    # One batch-32 gradient query of FGSM or Auto-PGD.  Intervals between
    # queries would also span the evaluation between attack cells, and
    # CAP's batch-1 queries swing with the box's speed far more than the
    # batched GEMMs do.
    tick = (autopgd_module, "input_gradient")  # also wrapped in fgsm
    tick_is_call = True

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.regressor = zoo.get_regressor()
        images, distances, boxes = make_balanced_eval_frames(1, seed)
        loss = regressor_loss_fn(self.regressor, distances)
        FGSMAttack(eps=0.06).perturb(images, loss)

    def run_pass(self) -> Dict[str, Any]:
        rows = table1.run(n_per_range=self.N_PER_RANGE, seed=self.seed)
        outputs: Dict[str, Any] = {}
        for attack, errors in rows.items():
            row = [float(value) for value in errors.as_row()]
            outputs[attack] = float(np.mean(row))
            outputs[f"{attack} rows"] = row
        return outputs

    def availability(self, outputs: Dict[str, Any],
                     ticks_s: List[float]) -> float:
        rows = [value for key, value in outputs.items()
                if key.endswith(" rows")]
        return float(np.isfinite(rows).mean())


class ClosedLoop(Workload):
    """A 30 s ACC drive under CAP-Attack, median blur and the watchdog."""

    name = "closed-loop"
    DURATION_S = 30.0
    frames_per_pass = 600
    tick = (Camera, "capture")

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.regressor = zoo.get_regressor()
        self.scenario = ScenarioConfig(
            duration_s=self.DURATION_S,
            initial_gap_m=float(rng.uniform(50.0, 70.0)),
            lead_speed=float(rng.uniform(24.0, 27.0)))
        self.camera_seed = int(rng.integers(0, 2 ** 31))
        warm = ScenarioConfig(duration_s=0.5)
        self._drive(warm)

    def _drive(self, scenario: ScenarioConfig):
        simulator = ClosedLoopSimulator(
            self.regressor, defense=MedianBlur(MEDIAN_BLUR_KERNEL),
            degradation=True, seed=self.camera_seed)
        attack = make_cap_runtime_attack(CAPAttack(eps=0.10,
                                                   steps_per_frame=2))
        return simulator.run(scenario, attack=attack)

    def run_pass(self) -> Dict[str, Any]:
        result = self._drive(self.scenario)
        summary = summarize_simulation(result)
        accepted = sum(1 for tick in result.ticks if tick.measurement_accepted)
        return {"collided": int(summary["collided"]),
                "ticks": summary["ticks"],
                "min_distance": summary["min_distance"],
                "mean_tracking_error": summary["mean_tracking_error"],
                "accepted_share": accepted / max(1, summary["ticks"])}

    def availability(self, outputs: Dict[str, Any],
                     ticks_s: List[float]) -> float:
        """Share of ticks that finished within the 20 Hz control period.

        The watchdog's accepted share would depend on how well the attack
        does on the seed's scenario; the deadline share does not.
        """
        return float(np.mean(np.asarray(ticks_s) <= self.scenario.dt))


class DiffPIRPurify(Workload):
    """DiffPIR on 16 FGSM-attacked driving frames, then the regressor."""

    name = "diffpir-purify"
    frames_per_pass = 16
    tick = (DenoisingDiffusionModel, "predict_noise")
    tick_is_call = True

    def setup(self, seed: int) -> None:
        self.regressor = zoo.get_regressor()
        self.prior = driving_prior()
        images, distances, boxes = make_balanced_eval_frames(4, seed)
        self.clean = images
        self.distances = distances
        self.frames = harness.attack_driving_frames(
            self.regressor, images, distances, boxes, FGSMAttack(eps=0.06))
        self.prior.predict_noise(self.frames[:1], 1)

    def run_pass(self) -> Dict[str, Any]:
        # A fresh defense per pass: its renoising generator restarts, so
        # every pass purifies identically.
        defense = DiffPIRDefense(self.prior, seed=0, **DIFFPIR_DRIVING)
        purified = defense.purify(self.frames)
        predictions = self.regressor.predict(purified)
        return {"finite_share": float(np.isfinite(purified).mean()),
                "purify_error": float(np.abs(purified - self.clean).mean()),
                "purified_mae": float(np.abs(predictions
                                             - self.distances).mean())}

    def availability(self, outputs: Dict[str, Any],
                     ticks_s: List[float]) -> float:
        return outputs["finite_share"]


class ServeChaos(Workload):
    """240 ticks through router, broker and 2 in-process replicas under chaos.

    A quarter of the ticks carry FGSM frames.  On clean-only traffic the
    router flags 0-10% of ticks depending on the seed, which put the tick
    p98 on the edge between fast-path and defended-path ticks; with a fixed
    attacked share the p98 is a defended-path latency on every seed.

    A tick is one replica call.  A retried or hedged request makes a second
    call; timed per routed request instead, those 12-22 doubled requests per
    pass (their count depends on the seed) sat right at the p98.
    """

    name = "serve-chaos"
    N_TICKS = 240
    ATTACK_FRACTION = 0.25
    frames_per_pass = N_TICKS
    tick = (ReplicaPool, "call")
    tick_is_call = True
    PLAN = CHAOS_SCENARIOS["chaos"]["plan"]

    def setup(self, seed: int) -> None:
        model = zoo.get_regressor()
        images, distances, boxes = make_balanced_eval_frames(8, seed)
        attacked = harness.attack_driving_frames(
            model, images, distances, boxes, FGSMAttack(eps=0.06))
        self.trace = TrafficTrace.mixed(
            images, distances, {"FGSM": attacked},
            attack_fraction=self.ATTACK_FRACTION, n_ticks=self.N_TICKS,
            seed=seed)
        self.server = PerceptionServer(
            fast=PerceptionService(model),
            defended=PerceptionService(
                model, defense=MedianBlur(MEDIAN_BLUR_KERNEL)))
        self.scorer = AdmissionScorer()
        self.scorer.calibrate(images)
        self.server((FAST_PATH, images[0]))

    def run_pass(self) -> Dict[str, Any]:
        config = ServeConfig(n_replicas=2, forked=False, wall_timeout=2.0,
                             broker=BrokerConfig(deadline_ms=60.0))
        report = run_serve(self.trace, self.server, config,
                           scorer=self.scorer)
        summary = report.summary()
        attempts = sum(tick.attempts for tick in report.ticks)
        return {"ticks": summary["ticks"],
                "unserved": summary["unserved"],
                "defended_share": summary["routed_defended"] / self.N_TICKS,
                "availability": summary["availability"],
                "breaker_trips": summary["breaker_trips"],
                "respawns": summary["respawns"],
                "retries": summary["retries"],
                "hedges": summary["hedges"],
                "answered_per_attempt": summary["answered"] / max(1, attempts),
                "fingerprint": report.fingerprint()}

    def availability(self, outputs: Dict[str, Any],
                     ticks_s: List[float]) -> float:
        """Answered share of ticks on the broker's virtual clock."""
        return outputs["availability"]


WORKLOADS = {cls.name: cls for cls in
             (AttackGrid, ClosedLoop, DiffPIRPurify, ServeChaos)}


def fault_plan(workload: str) -> Optional[str]:
    """REPRO_FAULT_PLAN for ``workload``; only serve-chaos runs one."""
    return ServeChaos.PLAN if workload == ServeChaos.name else None


def install_ticks(tracer: Tracer, workload: Workload) -> None:
    owner, attr = workload.tick
    tracer.wrap(owner, attr, "tick", log_spans=True)
    if owner is autopgd_module:
        tracer.wrap(fgsm_module, attr, "tick", log_spans=True)


def tick_seconds(workload: Workload, spans: List[Tuple[float, float]],
                 pass_end: float) -> List[float]:
    """Tick wall times of one pass from the tick function's call spans."""
    if workload.tick_is_call:
        return [end - start for start, end in spans]
    starts = [start for start, _ in spans] + [pass_end]
    return [b - a for a, b in zip(starts, starts[1:])]


def _count_cols(result, tracer: Tracer) -> None:
    tracer.bytes["nn.im2col"] += result[0].nbytes


def install_layers(tracer: Tracer) -> None:
    """Wrap each layer's public entry points for the traced run."""
    wrap = tracer.wrap
    wrap(functional, "conv2d", "nn.conv2d",
         after=lambda out, t: t.time_backward(out, "nn.conv2d"))
    wrap(functional, "im2col", "nn.im2col", after=_count_cols)
    wrap(functional, "col2im", "nn.col2im")
    wrap(Tensor, "backward", "nn.backward")
    wrap(BatchNorm2d, "forward", "nn.batchnorm")
    wrap(SiLU, "forward", "nn.silu")
    wrap(DistanceRegressor, "predict", "models.predict")
    for cls, key in ((GaussianNoiseAttack, "gaussian"), (FGSMAttack, "fgsm"),
                     (AutoPGDAttack, "autopgd")):
        wrap(cls, "perturb", f"attacks.perturb.{key}")
    wrap(CAPAttack, "perturb_sequence", "attacks.perturb.cap")
    for module in (fgsm_module, autopgd_module, cap_module):
        wrap(module, "input_gradient", "attacks.input_gradient")
    wrap(CAPAttack, "attack_frame", "attacks.cap_frame")
    wrap(DiffPIRDefense, "purify", "defenses.diffpir")
    wrap(DenoisingDiffusionModel, "predict_noise", "defenses.denoiser")
    wrap(MedianBlur, "purify", "defenses.median_blur")
    wrap(camera_module, "render_frame", "data.render_frame")
    wrap(driving_module, "render_frame", "data.render_frame")
    wrap(PerceptionService, "process", "pipeline.process")
    for owner, attr in ((LeadKalmanFilter, "predict"),
                        (LeadKalmanFilter, "update"),
                        (ACCPlanner, "plan"), (SafetyMonitor, "assess")):
        wrap(owner, attr, "pipeline.control")
    wrap(PerceptionWatchdog, "observe", "faults.watchdog")
    wrap(harness, "attack_driving_frames", "eval.attack_frames")
    wrap(GridRunner, "run", "runtime.grid")
    wrap(grid_module, "_execute_cell", "runtime.cells")
    wrap(RequestBroker, "submit", "serving.submit")
    wrap(ReplicaPool, "call", "serving.replica_call")
    wrap(AdmissionScorer, "score", "serving.score")


#: per-layer metrics reported as a share (%) of the measured pass time
TIMED_LAYERS = (
    "nn.conv2d", "nn.im2col", "nn.col2im", "nn.backward", "nn.batchnorm",
    "nn.silu", "models.predict", "attacks.perturb.gaussian",
    "attacks.perturb.fgsm", "attacks.perturb.autopgd", "attacks.perturb.cap",
    "attacks.input_gradient", "attacks.cap_frame", "defenses.diffpir",
    "defenses.denoiser", "defenses.median_blur", "data.render_frame",
    "pipeline.process", "pipeline.control", "faults.watchdog",
    "eval.attack_frames", "serving.submit", "serving.replica_call",
    "serving.score")
#: per-layer call counts reported per pass
COUNTED_LAYERS = ("nn.conv2d", "models.predict", "attacks.input_gradient",
                  "defenses.denoiser", "data.render_frame")
#: serve report counters reported per pass
SERVE_COUNTERS = ("retries", "hedges", "respawns", "breaker_trips")


def layer_metrics(tracer: Tracer, workload: Workload, window_s: float,
                  passes: List[Dict[str, Any]],
                  nn_passes: Tuple[int, int]) -> Dict[str, float]:
    """Per-layer metrics of a traced run (every name, on every workload)."""
    n = len(passes)
    metrics: Dict[str, float] = {}
    for name in TIMED_LAYERS:
        metrics[f"{name}.pct"] = 100.0 * tracer.seconds[name] / window_s
    overhead = tracer.seconds["runtime.grid"] - tracer.seconds["runtime.cells"]
    metrics["runtime.grid_overhead.pct"] = 100.0 * overhead / window_s
    for name in COUNTED_LAYERS:
        metrics[f"{name}.calls"] = tracer.calls[name] / n
    metrics["nn.im2col.bytes"] = tracer.bytes["nn.im2col"] / n
    metrics["nn.forward_passes"] = nn_passes[0] / n
    metrics["nn.backward_passes"] = nn_passes[1] / n
    adversarial_frames = (workload.frames_per_pass
                          if workload.name == AttackGrid.name else 0)
    metrics["attacks.queries_per_frame"] = (
        tracer.calls["attacks.input_gradient"] / (n * adversarial_frames)
        if adversarial_frames else 0.0)
    for key in SERVE_COUNTERS:
        metrics[f"serving.{key}"] = float(np.mean(
            [outputs.get(key, 0) for outputs in passes]))
    metrics["serving.answered_per_attempt"] = float(np.mean(
        [outputs.get("answered_per_attempt", 0.0) for outputs in passes]))
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith(".pct"):
        return "%"
    if name.endswith(".calls"):
        return "calls/pass"
    if name.endswith(".bytes"):
        return "B/pass"
    if name == "attacks.queries_per_frame":
        return "queries/frame"
    if name == "serving.answered_per_attempt":
        return "ratio"
    return "count/pass"


def _same(a: Any, b: Any, rel: float = 1e-6) -> bool:
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y, rel) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        a, b = float(a), float(b)
        if np.isnan(a) or np.isnan(b):
            return bool(np.isnan(a) and np.isnan(b))
        return abs(a - b) <= rel * max(1.0, abs(a), abs(b))
    return a == b


def check_outputs(outputs: Dict[str, Any], first: Dict[str, Any],
                  bands: Dict[str, List[float]]) -> List[str]:
    """Problems with one pass: outside a reference band, or not equal to the
    run's first pass (same inputs must give the same outputs)."""
    problems = []
    for key, (low, high) in bands.items():
        value = outputs.get(key)
        if value is None or not low <= float(value) <= high:
            problems.append(f"{key}={value} outside [{low}, {high}]")
    for key, value in first.items():
        if not _same(outputs.get(key), value):
            problems.append(f"{key} differs between passes: "
                            f"{outputs.get(key)} vs {value}")
    return problems


def reference_path() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "reference.json")
