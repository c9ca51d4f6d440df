"""Gradient-check harness tests: every registered case passes, and a
deliberately wrong backward formula demonstrably fails."""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro.nn
from repro.analysis import gradcheck
from repro.analysis.cli import main as analysis_main
from repro.nn import Tensor, hooks

pytestmark = pytest.mark.analysis


def test_every_registered_case_passes():
    results = gradcheck.run()
    assert len(results) >= 18            # layers + activations + losses
    failed = [r for r in results if not r.passed]
    assert not failed, "\n".join(
        f"{r.name}: max_rel={r.max_rel_error:.3e} worst={r.worst}"
        for r in failed)
    # float64 central differences resolve far below the acceptance tol —
    # a pass near the tolerance boundary would itself be suspicious.
    assert max(r.max_rel_error for r in results) < 1e-6


def tape_op_names() -> set:
    """Every ``_op("<name>", ...)`` literal in the ``repro.nn`` sources."""
    names = set()
    for path in Path(repro.nn.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "_op" and node.args
                    and isinstance(node.args[0], ast.Constant)):
                names.add(node.args[0].value)
    return names


def test_every_tape_op_has_a_gradcheck_case():
    ops = tape_op_names()
    assert {"Tensor.__mul__", "conv2d", "batch_norm_eval"} <= ops
    ran = set()

    def record(phase, array, op_name, parents):
        if phase == "backward":
            ran.add(op_name)

    previous = hooks.TAPE_CHECK
    hooks.set_tape_check(record)
    try:
        gradcheck.run()
    finally:
        hooks.set_tape_check(previous)
    assert not ops - ran, f"ops whose backward no case runs: {sorted(ops - ran)}"


def test_unknown_case_raises():
    with pytest.raises(KeyError, match="no_such_case"):
        gradcheck.run(names=["no_such_case"])


def _broken_gradient_build():
    """A scalar loss whose registered backward is off by a factor of 2."""
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(4,)), requires_grad=True)

    def forward() -> Tensor:
        # loss = sum(x^2); correct dL/dx = 2x.  Build it via the
        # (correct) autodiff graph, then sabotage the result by scaling
        # the analytic gradient after backward.
        return (x * x).sum()

    class Sabotaged:
        """Wraps ``x`` so the harness reads a perturbed .grad."""
        data = x.data

        @property
        def grad(self):
            return None if x.grad is None else 2.0 * x.grad

        @grad.setter
        def grad(self, value):
            x.grad = value

    return forward, [("x", Sabotaged())]


def test_broken_gradient_fails_the_check():
    result = gradcheck.check_build("sabotaged", _broken_gradient_build)
    assert not result.passed
    assert result.max_rel_error > 0.1    # off by 2x, not roundoff noise
    assert "x[" in result.worst


def test_perturbed_registered_case_fails():
    # Same property through the real registry: perturb one weight's
    # analytic gradient by rebuilding linear with a wrapped checked list.
    build = gradcheck.CASES["linear"]

    def sabotaged():
        forward, checked = build()

        class Wrong:
            def __init__(self, tensor):
                self._t = tensor
                self.data = tensor.data

            @property
            def grad(self):
                g = self._t.grad
                return None if g is None else g + 0.5

            @grad.setter
            def grad(self, value):
                self._t.grad = value

        label, tensor = checked[0]
        return forward, [(label, Wrong(tensor))] + checked[1:]

    result = gradcheck.check_build("linear-sabotaged", sabotaged)
    assert not result.passed


def test_cli_gradcheck_single_case(capsys):
    assert analysis_main(["gradcheck", "--case", "linear", "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "ok " in out and "1/1 cases passed" in out


def test_cli_gradcheck_json(capsys):
    import json
    assert analysis_main(
        ["gradcheck", "--case", "mse_loss", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failed"] == 0
    assert payload["results"][0]["name"] == "mse_loss"
    assert payload["results"][0]["passed"] is True
