"""Named-scope chaos targeting: REPRO_FAULT_PLAN aimed at zoo training
paths, verified with the determinism oracle's fingerprints."""

import numpy as np
import pytest

from repro.analysis.determinism import first_divergence, result_fingerprint
from repro.faults.runtime import (InjectedFault, RuntimeFaultPlan,
                                  maybe_inject_scope)

pytestmark = [pytest.mark.analysis, pytest.mark.faults]


def test_parse_accepts_named_scopes():
    plan = RuntimeFaultPlan.parse("crash@2,raise@zoo.detector")
    assert plan.lookup(2, 0).kind == "crash"
    assert plan.lookup("zoo.detector", 0).kind == "raise"
    assert plan.lookup("zoo.regressor", 0) is None


def test_parse_rejects_empty_target():
    with pytest.raises(ValueError, match="target"):
        RuntimeFaultPlan.parse("raise@")


def test_scope_injection_fires_only_for_matching_scope(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_PLAN", "raise@zoo.detector")
    maybe_inject_scope("zoo.regressor")          # different scope: no fault
    with pytest.raises(InjectedFault, match="zoo.detector"):
        maybe_inject_scope("zoo.detector")


def test_scope_injection_respects_attempt(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_PLAN", "raise@zoo.detector:attempt=1")
    maybe_inject_scope("zoo.detector", attempt=0)   # fires on retry only
    with pytest.raises(InjectedFault):
        maybe_inject_scope("zoo.detector", attempt=1)


def test_zoo_training_paths_are_chaos_targetable(monkeypatch, tmp_path):
    # Cache-miss training must pass through the scope hook; point the cache
    # at an empty directory so get_detector takes its training path.
    from repro.models import zoo

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_FAULT_PLAN", "raise@zoo.detector")
    with pytest.raises(InjectedFault, match="zoo.detector"):
        zoo.get_detector(n_scenes=2, epochs=1)


def test_cached_model_scope_uses_model_name(monkeypatch, tmp_path):
    from repro.models import zoo

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_FAULT_PLAN", "raise@zoo.variant")

    from repro import nn

    def build():
        return nn.Linear(2, 1, rng=np.random.default_rng(0))

    with pytest.raises(InjectedFault, match="zoo.variant"):
        zoo.cached_model("variant", {"v": 0}, build,
                         lambda model, checkpoint: None)


def test_scoped_faults_stay_deterministic_under_audit(monkeypatch):
    # A chaos plan must not perturb *results*: a cell that survives its
    # injected fault via retry still has to fingerprint identically, which
    # is exactly what the golden check's twice-run checks.
    monkeypatch.setenv("REPRO_FAULT_PLAN", "raise@zoo.cell:attempt=0")

    def cell():
        rng = np.random.default_rng(11)
        for attempt in range(2):
            try:
                maybe_inject_scope("zoo.cell", attempt=attempt)
            except InjectedFault:
                continue
            return {"value": rng.normal(size=4)}
        raise AssertionError("retry budget exhausted")

    results = [cell() for _ in range(3)]
    assert len({result_fingerprint(r) for r in results}) == 1, \
        first_divergence(results[0], results[-1])
