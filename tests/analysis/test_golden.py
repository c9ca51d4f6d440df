"""Golden outputs without running a full experiment: the grid-slice entries,
the bits/printed split, EXPERIMENTS.md rendering, and every shape predicate
on a paper-like and a doctored result."""

import numpy as np
import pytest

from repro.analysis import determinism, golden
from repro.eval.detection_metrics import DetectionMetrics
from repro.eval.regression_metrics import RANGES, RangeErrors
from repro.experiments.ablations import (DiffusionStepsRow, PatchSizeRow,
                                         PGDComparisonRow, WeatherRow)
from repro.experiments.overhead import OverheadRow
from repro.experiments.table2 import Table2Row
from repro.experiments.table3 import ROW_NAMES, Table3Row
from repro.experiments.table4 import SOURCES, Table4Row
from repro.experiments.table5 import Table5Row
from repro.pipeline.simulator import SimulationResult

pytestmark = pytest.mark.analysis

GRID_SLICE = [name for name in golden.entry_names()
              if name.startswith(golden.GRID_SLICE)]


def test_grid_slice_entries_match_the_golden_file():
    recorded = golden.load()
    for name, entry, _ in golden.rerun(GRID_SLICE):
        assert golden.status(recorded.get(name), entry) == golden.OK, name


def test_one_ulp_conv_weight_moves_bits_not_printed(monkeypatch):
    fixture = determinism._table2_fixture

    def nudged():
        model, dataset, attack = fixture()
        weight = dict(model.named_parameters())[
            "backbone.stage1.conv.weight"].data.reshape(-1)
        weight[0] = np.nextafter(weight[0], np.float32(np.inf))
        return model, dataset, attack

    monkeypatch.setattr(determinism, "_table2_fixture", nudged)
    recorded = golden.load()
    statuses = {name: golden.status(recorded[name], entry)
                for name, entry, _ in golden.rerun(GRID_SLICE)}
    assert statuses["grid_slice.table2.contrastive"] == golden.BITS_MOVED
    assert golden.PRINTED_MOVED not in statuses.values()


def test_golden_file_records_every_entry_and_rewrites_byte_identically():
    recorded = golden.load()
    assert list(recorded) == golden.entry_names()
    assert recorded["table1"]["args"] == {"n_per_range": 12}
    with open(golden.GOLDEN_PATH, encoding="utf-8") as handle:
        text = handle.read()
    assert golden.dumps(recorded) == text


def test_experiments_md_results_render_from_the_golden_file():
    with open(golden.EXPERIMENTS_MD, encoding="utf-8") as handle:
        text = handle.read()
    assert golden.sync_experiments_md(text, golden.load()) == text


# Shape predicates: each holds on a paper-like result and fails on a
# doctored one, so none of them is vacuous.

def _errors(*values):
    return RangeErrors(dict(zip(RANGES, values)), {})


def _det(map50, precision=95.0):
    return DetectionMetrics(map50, precision, map50)


def _sim(min_gap):
    return SimulationResult([], False, min_gap, 0, 0)


PAPER_LIKE = {
    "table1": lambda: {
        "Gaussian Noise": _errors(-0.2, 0.2, -0.8, -0.2),
        "FGSM": _errors(11.1, 6.5, 9.1, 5.6),
        "Auto-PGD": _errors(40.1, 7.9, 9.5, 5.7),
        "CAP-Attack": _errors(22.4, 10.6, 13.8, 7.3)},
    "fig2": lambda: {name: _det(m) for name, m in (
        ("No Attack", 98.2), ("Gaussian Noise", 71.5), ("FGSM", 65.3),
        ("Auto-PGD", 90.9), ("RP2", 89.0), ("SimBA", 81.7))},
    "table2": lambda: [Table2Row(a, d, _errors(*e), _det(m)) for a, d, e, m in (
        ("Gaussian Noise", "None", (0, 0, 0, 0), 72.2),
        ("Gaussian Noise", "Median Blurring", (0, 1, 9, 2), 97.3),
        ("Auto-PGD", "None", (45.5, 8.8, 10.0, 7.1), 89.8),
        ("Auto-PGD", "Randomization", (14.0, -6.7, -22.3, -22.3), 91.8))],
    "table3": lambda: [
        Table3Row(source, "FGSM" if source == "Auto-PGD" else "Auto-PGD",
                  _errors(5.4, 1.0, 2.9, 2.8), _det(90.0))
        for source in ROW_NAMES + ["Mixed"]],
    "table4": lambda: [
        Table4Row(source, attack, _det(m)) for source in SOURCES
        for attack, m in (("Clean", 97.0), ("Gaussian Noise", 85.0))],
    "table5": lambda: [
        Table5Row(attack, _errors(5.0, 2.1, -7.9, -20.0), _det(92.0))
        for attack in ("Gaussian", "FGSM", "Auto-PGD", "CAP/RP2")
    ] + [Table5Row("SimBA", None, _det(92.6))],
    "overhead": lambda: [
        OverheadRow(name, ms, ms <= 50.0) for name, ms in (
            ("Median Blurring", 0.96), ("Bit Depth", 0.03),
            ("Randomization", 0.71), ("Diffusion (DiffPIR)", 64.2))],
    "ablations": lambda: {
        "patch_size": [PatchSizeRow(d, area, err) for d, area, err in (
            (5, 2520, 18.6), (10, 616, 18.8), (15, 300, 6.6),
            (20, 154, 8.0), (30, 80, 4.2), (40, 40, 9.7), (60, 16, 6.8),
            (80, 12, 3.5))],
        "apgd_vs_pgd": [PGDComparisonRow(attack, n, err)
                        for n in (5, 10, 20)
                        for attack, err in (("PGD", 40.0), ("Auto-PGD", 50.0))],
        "diffusion_steps": [DiffusionStepsRow(n, 0.055, 13.0 * n)
                            for n in (2, 5, 10, 20)],
        "weather": [WeatherRow(condition, mae, 20.0) for condition, mae in (
            ("clear", 2.0), ("fog", 43.1), ("rain", 3.7), ("night", 40.8))]},
    "extensions": lambda: {
        "range_adaptive": {
            "None": _errors(27.2, 7.6, 10.1, 7.2),
            "Randomization": _errors(-5.7, -7.2, -18.7, -41.7),
            "Range-Adaptive": _errors(-1.5, -4.4, 13.9, 1.9)},
        "distance_aware": {"standard": 3.25, "distance_aware": 3.85},
        "closed_loop": {"clean": _sim(40.2), "attacked": _sim(29.0),
                        "guarded": _sim(29.0)}},
}

#: experiment -> one doctor per shape claim, in claim order; doctor ``i``
#: must break claim ``i`` of a :data:`PAPER_LIKE` result.
DOCTORED = {
    "table1": [
        lambda r: r["Gaussian Noise"].errors.update({(20, 40): 3.5}),
        lambda r: r["Auto-PGD"].errors.update({(0, 20): 9.0}),
        lambda r: r["Auto-PGD"].errors.update({(60, 80): 45.0}),
        lambda r: r.update({"Auto-PGD": r["FGSM"], "FGSM": r["Auto-PGD"]})],
    "fig2": [lambda r: setattr(r["No Attack"], "map50", 90.0),
             lambda r: setattr(r["FGSM"], "map50", 90.0),
             lambda r: setattr(r["Gaussian Noise"], "map50", 90.0),
             lambda r: setattr(r["Auto-PGD"], "map50", 60.0),
             lambda r: setattr(r["FGSM"], "recall", 90.0)],
    "table2": [lambda r: setattr(r[1].detection, "map50", 75.0),
               lambda r: r[3].range_errors.errors.update({(0, 20): 30.0}),
               lambda r: r[3].range_errors.errors.update({(60, 80): 50.0})],
    "table3": [lambda r: r[-1].range_errors.errors.update({(0, 20): 20.0}),
               lambda r: setattr(r[0].detection, "map50", 25.0),
               lambda r: setattr(r[-1].detection, "map50", 80.0)],
    "table4": [lambda r: setattr(r[0].detection, "map50", 88.0),
               lambda r: [setattr(row.detection, "map50", 95.0)
                          for row in r[1:6:2]]],
    "table5": [lambda r: r[2].range_errors.errors.update({(0, 20): 16.0}),
               lambda r: setattr(r[4].detection, "precision", 80.0),
               lambda r: [row.range_errors.errors.update({(60, 80): 2.0})
                          for row in r[:4]]],
    "overhead": [lambda r: setattr(r[3], "ms_per_frame", 4.0),
                 lambda r: setattr(r[0], "ms_per_frame", 60.0)],
    "ablations": [
        lambda r: setattr(r["patch_size"][0], "box_area_px", 10),
        lambda r: [setattr(row, "induced_error_m", 0.0)
                   for row in r["patch_size"][:2]],
        lambda r: [setattr(row, "close_range_error_m", 0.0)
                   for row in r["apgd_vs_pgd"] if row.attack == "Auto-PGD"],
        lambda r: setattr(r["diffusion_steps"][3], "ms_per_frame", 1.0),
        lambda r: setattr(r["diffusion_steps"][2], "restoration_mae", 0.1),
        lambda r: setattr(r["weather"][1], "clean_mae_m", 1.0),
        lambda r: setattr(r["weather"][3], "clean_mae_m", 1.0)],
    "extensions": [
        lambda r: r["range_adaptive"]["Range-Adaptive"].errors.update(
            {(60, 80): -50.0}),
        lambda r: r["range_adaptive"]["Range-Adaptive"].errors.update(
            {(0, 20): 30.0}),
        lambda r: r["distance_aware"].update(distance_aware=5.0),
        lambda r: setattr(r["closed_loop"]["clean"], "collided", True),
        lambda r: setattr(r["closed_loop"]["attacked"], "min_distance", 40.0),
        lambda r: setattr(r["closed_loop"]["guarded"], "min_distance", 20.0)],
}


@pytest.mark.parametrize("name", sorted(golden.SHAPES))
def test_each_shape_claim_holds_then_fails_when_doctored(name):
    claims = golden.SHAPES[name](PAPER_LIKE[name]())
    assert all(claims.values()), [c for c, ok in claims.items() if not ok]
    assert len(DOCTORED[name]) == len(claims)
    for claim, doctor in zip(claims, DOCTORED[name]):
        result = PAPER_LIKE[name]()
        doctor(result)
        assert not golden.SHAPES[name](result)[claim], claim
