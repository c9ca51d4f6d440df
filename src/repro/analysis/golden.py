"""Golden outputs: the committed record of the paper's deterministic results.

``tests/golden/paper_outputs.json`` holds one entry per experiment of
:data:`RECORDED`, run exactly as ``python -m repro <name>`` runs it at its
defaults (through the CLI's experiment registry), and one per grid-slice
cell of :mod:`repro.analysis.determinism`.  Each entry records the
arguments it ran with, ``bits`` (the result's content fingerprint) and
``printed`` (its rendered table, one string per line).  :func:`status`
classifies a rerun as ``ok``, ``bits moved / printed holds`` (numerics
changed below the printed precision) or ``printed moved``.  Wall-clock
values (``overhead``, the DiffPIR-steps ms/frame) are in neither level;
only the paper-shape predicates of :data:`SHAPES` see them.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, \
    Tuple

import numpy as np

from . import determinism

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))))
GOLDEN_PATH = os.path.join(_ROOT, "tests", "golden", "paper_outputs.json")
EXPERIMENTS_MD = os.path.join(_ROOT, "EXPERIMENTS.md")
RESULTS_MARKER = "## Results (golden record)"

#: CLI experiments the golden file records, in EXPERIMENTS.md order.
RECORDED = ("table1", "fig2", "table2", "table3", "table4", "table5",
            "ablations", "extensions", "fault_matrix", "serve_bench")
#: CLI experiments whose every value is wall clock: predicates only.
TIMED = ("overhead",)
GRID_SLICE = "grid_slice."

OK = "ok"
BITS_MOVED = "bits moved / printed holds"
PRINTED_MOVED = "printed moved"


def _grid_slice() -> Dict[str, determinism.AuditCell]:
    return {GRID_SLICE + cell.name: cell
            for cell in determinism.grid_slice_cells()}


def entry_names() -> List[str]:
    """Every recorded entry, in file order."""
    return list(RECORDED) + list(_grid_slice())


def _entry(args: Dict[str, Any], result: Any, printed: str) -> Dict[str, Any]:
    return {"args": args, "bits": determinism.result_fingerprint(result),
            "printed": printed.splitlines()}


def _run(name: str) -> Tuple[Optional[Dict[str, Any]], List[str]]:
    if name.startswith(GRID_SLICE):
        result = _grid_slice()[name].fn()
        # Metrics at the tables' precision (2 decimals).
        return _entry({}, result, "\n".join(
            f"{key}: " + ", ".join(f"{v:.2f}" for v in np.atleast_1d(value))
            for key, value in sorted(result.items()))), []
    from ..cli import EXPERIMENTS, build_parser
    experiment = EXPERIMENTS[name]
    args = experiment.kwargs(build_parser().parse_args([name]))
    result = experiment.run(**args)
    broken = [f"{name}: {claim}" for claim, holds
              in SHAPES.get(name, lambda _: {})(result).items() if not holds]
    if name in TIMED:
        return None, broken
    if name == "ablations":  # drop the wall clock
        result = dict(result, diffusion_steps=[
            dataclasses.replace(row, ms_per_frame=None)
            for row in result["diffusion_steps"]])
    return _entry(args, result, experiment.render(result)), broken


def rerun(names: Optional[Sequence[str]] = None
          ) -> Iterator[Tuple[str, Optional[Dict[str, Any]], List[str]]]:
    """Recompute ``names`` (default: every entry, then :data:`TIMED`) in
    process, yielding ``(name, entry or None if timed, broken claims)``.
    The caller turns the result cache off."""
    for name in (entry_names() + list(TIMED) if names is None else names):
        yield (name, *_run(name))


def status(recorded: Optional[Dict[str, Any]], fresh: Dict[str, Any]) -> str:
    if recorded is None or recorded["printed"] != fresh["printed"]:
        return PRINTED_MOVED
    return OK if recorded["bits"] == fresh["bits"] else BITS_MOVED


def load() -> Dict[str, Dict[str, Any]]:
    """The recorded entries (empty before the first ``--write``)."""
    if not os.path.exists(GOLDEN_PATH):
        return {}
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def dumps(entries: Dict[str, Dict[str, Any]]) -> str:
    return json.dumps(entries, indent=1) + "\n"


def sync_experiments_md(text: str,
                        recorded: Dict[str, Dict[str, Any]]) -> str:
    """``text`` with its "Results" section re-rendered from ``recorded``."""
    head, marker, _ = text.partition(RESULTS_MARKER)
    if not marker:
        raise ValueError(f"no {RESULTS_MARKER!r} section in EXPERIMENTS.md")
    blocks = [RESULTS_MARKER, "",
              "Rendered by `python -m repro.cli analyze golden --write` from",
              "`tests/golden/paper_outputs.json`; each heading names the",
              "arguments the entry ran with. Wall-clock values are not",
              "recorded: the DiffPIR-steps ms/frame column reads `-` here.",
              ""]
    for name, entry in recorded.items():
        args = ", ".join(f"{k}={v}" for k, v in entry["args"].items())
        blocks.append(f"### {name}" + (f" ({args})" if args else "")
                      + "\n\n```\n" + "\n".join(entry["printed"]) + "\n```\n")
    return head + "\n".join(blocks)


# ---------------------------------------------------------------------------
# Paper-shape predicates, moved from the old benchmark asserts:
# claim -> holds, per CLI experiment.
# ---------------------------------------------------------------------------

def _table1_shapes(rows) -> Dict[str, bool]:
    apgd = rows["Auto-PGD"]
    gaussian = float(np.nanmax(np.abs(rows["Gaussian Noise"].as_row())))
    return {"Gaussian noise is near-harmless (< 3 m)": gaussian < 3.0,
            "Auto-PGD exceeds 10 m at [0, 20] m": apgd[(0, 20)] > 10.0,
            "Auto-PGD hits [0, 20] m harder than [60, 80] m":
                apgd[(0, 20)] > apgd[(60, 80)],
            "Auto-PGD beats FGSM at [0, 20] m":
                apgd[(0, 20)] > rows["FGSM"][(0, 20)]}


def _fig2_shapes(rows) -> Dict[str, bool]:
    clean, fgsm = rows["No Attack"], rows["FGSM"]
    return {"clean mAP50 > 93": clean.map50 > 93.0,
            "FGSM costs > 15 mAP50": fgsm.map50 < clean.map50 - 15.0,
            "Gaussian noise costs > 10 mAP50":
                rows["Gaussian Noise"].map50 < clean.map50 - 10.0,
            "Auto-PGD is limited (mAP50 above FGSM)":
                rows["Auto-PGD"].map50 > fgsm.map50,
            "FGSM costs > 15 recall": fgsm.recall < clean.recall - 15.0}


def _table2_shapes(rows) -> Dict[str, bool]:
    at = {(r.attack, r.defense): r for r in rows}
    apgd = at[("Auto-PGD", "None")].range_errors[(0, 20)]
    randomized = at[("Auto-PGD", "Randomization")].range_errors
    return {"median blur recovers > 5 mAP50 under Gaussian noise":
                at[("Gaussian Noise", "Median Blurring")].detection.map50
                > at[("Gaussian Noise", "None")].detection.map50 + 5.0,
            "randomization cuts [0, 20] m Auto-PGD error by > 40%":
                randomized[(0, 20)] < apgd * 0.6,
            "randomized [60, 80] m error is below undefended [0, 20] m":
                randomized[(60, 80)] < apgd}


def _table3_shapes(rows) -> Dict[str, bool]:
    from ..experiments.table3 import ROW_NAMES
    worst = {s: min(r.detection.map50 for r in rows if r.trained_on == s)
             for s in [*ROW_NAMES, "Mixed"]}
    mixed = next(r for r in rows
                 if (r.trained_on, r.attacked_by) == ("Mixed", "Auto-PGD"))
    return {"mixed training holds [0, 20] m Auto-PGD under 15 m":
                mixed.range_errors[(0, 20)] < 15.0,
            "every retrained detector keeps mAP50 > 30":
                min(worst.values()) > 30.0,
            "mixed worst mAP50 within 5 of the single-attack worst":
                worst["Mixed"] >= min(worst[s] for s in ROW_NAMES) - 5.0}


def _table4_shapes(rows) -> Dict[str, bool]:
    from ..experiments.table4 import SOURCES
    at = {(r.pretrained_on, r.attacked_by): r.detection.map50 for r in rows}
    vulnerable = [min(m for (s, a), m in at.items() if s == source
                      and a != "Clean") < at[(source, "Clean")] - 5.0
                  for source in SOURCES]
    return {"clean mAP50 > 90 after contrastive pretraining":
                all(at[(s, "Clean")] > 90.0 for s in SOURCES),
            ">= 3 models lose > 5 mAP50 to some attack":
                sum(vulnerable) >= 3}


def _table5_shapes(rows) -> Dict[str, bool]:
    at = {r.attack: r for r in rows}
    return {"diffusion holds [0, 20] m Auto-PGD under 15 m":
                at["Auto-PGD"].range_errors[(0, 20)] < 15.0,
            "precision > 85 under every attack":
                all(r.detection.precision > 85.0 for r in rows),
            "some [60, 80] m error is pulled below 1 m":
                min(r.range_errors[(60, 80)] for r in rows
                    if r.range_errors is not None) < 1.0}


def _overhead_shapes(rows) -> Dict[str, bool]:
    ms = {r.defense: r.ms_per_frame for r in rows}
    classical = max(ms["Median Blurring"], ms["Bit Depth"],
                    ms["Randomization"])
    return {"classical preprocessing is > 5x cheaper than DiffPIR":
                classical < ms["Diffusion (DiffPIR)"] / 5.0,
            "classical preprocessing fits a 50 ms tick": classical < 50.0}


def _ablation_shapes(results) -> Dict[str, bool]:
    patch = results["patch_size"]
    areas = [r.box_area_px for r in patch]
    third = max(1, len(patch) // 3)
    errors = [r.induced_error_m for r in patch]
    pgd = {(r.attack, r.n_iter): r.close_range_error_m
           for r in results["apgd_vs_pgd"]}
    steps = {r.n_steps: r for r in results["diffusion_steps"]}
    weather = {r.condition: r.clean_mae_m for r in results["weather"]}
    return {"the lead box shrinks with distance":
                areas == sorted(areas, reverse=True),
            "near-third induced error exceeds far-third":
                sum(errors[:third]) > sum(errors[-third:]),
            "Auto-PGD >= PGD - 2 m at 2 of 3 budgets":
                sum(pgd[("Auto-PGD", n)] >= pgd[("PGD", n)] - 2.0
                    for n in (5, 10, 20)) >= 2,
            "20 DiffPIR steps take longer than 2":
                steps[20].ms_per_frame > steps[2].ms_per_frame,
            "10-step MAE < 1.5x 2-step MAE":
                steps[10].restoration_mae < steps[2].restoration_mae * 1.5,
            "fog raises the clean MAE": weather["fog"] > weather["clear"],
            "night lowers the clean MAE by <= 0.2 m":
                weather["night"] >= weather["clear"] - 0.2}


def _extension_shapes(results) -> Dict[str, bool]:
    errors, loop = results["range_adaptive"], results["closed_loop"]
    clean, attacked = loop["clean"], loop["attacked"]
    return {"range-adaptive overshoots less than randomization at 60-80 m":
                abs(errors["Range-Adaptive"][(60, 80)])
                < abs(errors["Randomization"][(60, 80)]),
            "range-adaptive cuts the undefended [0, 20] m error":
                errors["Range-Adaptive"][(0, 20)] < errors["None"][(0, 20)],
            "distance-aware far MAE within 1 m of standard":
                results["distance_aware"]["distance_aware"]
                <= results["distance_aware"]["standard"] + 1.0,
            "the clean ACC run does not collide": not clean.collided,
            "CAP-Attack collides or shrinks the min gap by > 1 m":
                attacked.collided
                or attacked.min_distance < clean.min_distance - 1.0,
            "AEB does not shrink the attacked min gap":
                loop["guarded"].min_distance >= attacked.min_distance - 1e-6}


SHAPES: Dict[str, Callable[[Any], Dict[str, bool]]] = {
    "table1": _table1_shapes, "fig2": _fig2_shapes, "table2": _table2_shapes,
    "table3": _table3_shapes, "table4": _table4_shapes,
    "table5": _table5_shapes, "overhead": _overhead_shapes,
    "ablations": _ablation_shapes, "extensions": _extension_shapes}
