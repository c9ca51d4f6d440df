"""Fault matrix — closed-loop safety under sensor faults.

The paper's Tables IV-V ask "does the defense recover the metric the attack
destroyed?"; this experiment asks the same question for *non-adversarial*
sensor faults and the graceful-degradation path: for each fault model
(frame drops, stuck buffer, occlusion, exposure failure, noise burst,
NaN-corrupted frames) we run the closed-loop ACC scenario

* **clean** — no faults, nominal stack (the reference row),
* **faulted** — fault active during the lead's braking window, no
  degradation handling (raw measurements straight into the tracker), and
* **+degradation** — same fault with the perception watchdog, tracker
  coasting, and degraded-ACC/FCW/AEB ladder enabled,

and report collision, minimum gap, tracking error, and safety-event counts.
The scenario is adversarially timed: the lead brakes hard exactly while the
camera is faulted, so a stack that blindly trusts perception either
tailgates a stale estimate or chases garbage.

Runtime shape: 13 independent cells (1 clean + 6 faults x 2 modes) behind
the JSON result cache, fanned out via :class:`GridRunner` — which also makes
this grid the standing testbed for the runtime fault plane (crash a worker
with ``REPRO_FAULT_PLAN`` and the grid must still converge, resuming from
per-cell checkpoints).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..eval.harness import evaluate_fault_robustness
from ..eval.reporting import fault_table
from ..faults.sensor import from_spec
from ..models.zoo import get_regressor
from ..nn.serialize import state_fingerprint
from ..pipeline.simulator import ScenarioConfig
from ..runtime import GridRunner

#: fault label -> injector spec (see :func:`repro.faults.sensor.from_spec`).
#: Every fault is active over [8 s, 14 s) — bracketing the lead's braking
#: window below — so the faulted stack loses perception exactly when the
#: true gap is shrinking fastest.
FAULT_SPECS: Dict[str, str] = {
    "frame_drop": "frame_drop@8-14",
    "stuck_frame": "stuck_frame@8-14",
    "occlusion": "occlusion@8-14:fraction=0.6",
    "exposure": "exposure@8-14:gain=0.1",
    "noise_burst": "noise_burst@8-14:sigma=0.6",
    "nan_frames": "nan_frames@8-14:fraction=0.05",
}

SCENARIO_VERSION = 3
FAULT_SEED = 0


def _lead_profile(time_s: float) -> float:
    """Lead speed (m/s): cruise, brake hard at 9-13 s, recover."""
    if time_s < 9.0:
        return 25.0
    if time_s < 13.0:
        return max(10.0, 25.0 - 3.75 * (time_s - 9.0))
    return 14.0


def make_scenario() -> ScenarioConfig:
    return ScenarioConfig(duration_s=25.0, initial_gap_m=45.0,
                          ego_speed=27.0, lead_speed=25.0,
                          lead_profile=_lead_profile)


@dataclass
class FaultMatrixRow:
    fault: str            # "clean" or a FAULT_SPECS key
    mode: str             # "clean" / "faulted" / "+degradation"
    metrics: Dict[str, float]


def run(seed: int = FAULT_SEED) -> List[FaultMatrixRow]:
    model = get_regressor()
    model_fp = state_fingerprint(model)

    def cell(spec: Optional[str], degradation: bool,
             spec_seed: int = seed) -> Dict[str, float]:
        factory = (None if spec is None
                   else (lambda: from_spec(spec, seed=spec_seed)))
        return evaluate_fault_robustness(model, fault_factory=factory,
                                         scenario=make_scenario(),
                                         degradation=degradation,
                                         seed=spec_seed)

    grid = GridRunner("fault_matrix")
    cells: List[Tuple[str, str]] = [("clean", "clean")]
    grid.add(("clean", "clean"), lambda: cell(None, False),
             config={"model": model_fp, "fault": "none", "degradation": False,
                     "seed": seed, "v": SCENARIO_VERSION})
    for label, spec in FAULT_SPECS.items():
        for mode, degradation in (("faulted", False), ("+degradation", True)):
            cells.append((label, mode))
            grid.add((label, mode),
                     lambda spec=spec, degradation=degradation:
                     cell(spec, degradation),
                     config={"model": model_fp, "fault": spec,
                             "degradation": degradation, "seed": seed,
                             "v": SCENARIO_VERSION})
    results = grid.run()
    return [FaultMatrixRow(fault, mode, results[(fault, mode)])
            for fault, mode in cells]


def render(rows: List[FaultMatrixRow]) -> str:
    return fault_table([(r.fault, r.mode, r.metrics) for r in rows])
