"""Determinism oracle tests: fingerprint agreement and first-divergence
reporting, through dicts, lists, arrays and dataclasses."""

import numpy as np
import pytest

from repro.analysis import determinism, golden
from repro.analysis.determinism import first_divergence, result_fingerprint
from repro.eval.harness import DistanceEvaluation
from repro.eval.regression_metrics import RANGES, RangeErrors
from repro.experiments.table2 import Table2Row

pytestmark = pytest.mark.analysis


# ---------------------------------------------------------------------------
# Fingerprinting and divergence location
# ---------------------------------------------------------------------------

def test_result_fingerprint_stable_across_equal_structures():
    a = {"image": np.arange(6, dtype=np.float32).reshape(2, 3), "n": 3}
    b = {"n": 3, "image": np.arange(6, dtype=np.float32).reshape(2, 3)}
    assert result_fingerprint(a) == result_fingerprint(b)


def test_result_fingerprint_sensitive_to_content():
    a = {"image": np.zeros(4, dtype=np.float32)}
    b = {"image": np.zeros(4, dtype=np.float32)}
    b["image"][2] = 1e-7
    assert result_fingerprint(a) != result_fingerprint(b)


def test_first_divergence_locates_array_delta():
    a = {"metrics": [1.0, {"grid": np.zeros((2, 2))}]}
    b = {"metrics": [1.0, {"grid": np.zeros((2, 2))}]}
    b["metrics"][1]["grid"][1, 0] = 0.25
    where = first_divergence(a, b)
    assert where is not None
    assert "$.metrics[1].grid" in where
    assert "0.25" in where and "(1, 0)" in where


def test_first_divergence_reports_meta_and_keys():
    assert "meta" in first_divergence(np.zeros(3), np.zeros(4))
    assert "key sets" in first_divergence({"a": 1}, {"b": 1})
    assert first_divergence({"a": np.ones(2)}, {"a": np.ones(2)}) is None


def test_first_divergence_sees_scalars_as_the_fingerprint_does():
    nan = float("nan")
    assert first_divergence({"a": nan, "b": 1}, {"a": nan, "b": 2}) == \
        "$.b: 1 vs 2"
    assert result_fingerprint(0.0) != result_fingerprint(-0.0)
    assert first_divergence({"a": 0.0}, {"a": -0.0}) == "$.a: 0.0 vs -0.0"


def _row(near_error):
    errors = dict(zip(RANGES, (near_error, 2.0, 3.0, 4.0)))
    return Table2Row("FGSM", "None", RangeErrors(errors, {}), None)


def test_first_divergence_walks_dataclass_fields():
    where = first_divergence([_row(1.0)], [_row(1.5)])
    assert where.startswith("$[0].range_errors.errors"), where
    assert "1.0 vs 1.5" in where
    assert first_divergence([_row(1.0)], [_row(1.0)]) is None


def test_first_divergence_walks_dataclass_array_fields():
    def evaluation(last):
        predictions = np.array([10.0, 20.0, last])
        return DistanceEvaluation(_row(1.0).range_errors, predictions,
                                  predictions.copy(), predictions.copy())
    where = first_divergence(evaluation(30.0), evaluation(30.5))
    assert where.startswith("$.attacked_predictions: array content"), where
    assert "(2,)" in where


def test_deterministic_cell_passes():
    def cell():
        return {"draw": np.random.default_rng(7).normal(size=8)}
    results = [cell() for _ in range(3)]
    assert len({result_fingerprint(r) for r in results}) == 1
    assert first_divergence(results[0], results[2]) is None


def test_injected_unseeded_rng_cell_is_caught():
    # The regression class the twice-run exists for: someone drops the seed
    # and every rerun silently disagrees with the cached result.
    state = np.random.default_rng()          # repro: noqa[R001] -- deliberate nondeterminism under test
    def cell():
        return {"draw": state.normal(size=8), "count": 8}
    first, second = cell(), cell()
    assert result_fingerprint(first) != result_fingerprint(second)
    divergence = first_divergence(first, second)
    assert divergence is not None
    assert "$.draw" in divergence             # located, not just detected


def test_default_cells_are_deterministic():
    # The audit.* golden entries: each runs twice and matches its record.
    names = [name for name in determinism.CELLS if name.startswith("audit.")]
    assert len(names) == 4
    recorded = golden.load()
    broken = [name for name, entry, _ in golden.rerun(names)
              if golden.status(recorded.get(name), entry) != golden.OK
              or golden.moved(recorded[name], entry)]
    assert not broken, f"nondeterministic or moved cells: {broken}"
