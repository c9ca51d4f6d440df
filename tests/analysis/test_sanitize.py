"""Runtime sanitizer tests: tape NaN tracing, optimizer aliasing, guards."""

import numpy as np
import pytest

from repro import nn
from repro.analysis import sanitize
from repro.analysis.sanitize import SanitizeError, check_finite
from repro.nn import Tensor, hooks

pytestmark = pytest.mark.analysis


@pytest.fixture(autouse=True)
def clean_hooks():
    sanitize.uninstall()
    hooks.reset()
    yield
    sanitize.uninstall()
    hooks.reset()


# ---------------------------------------------------------------------------
# check_finite: the shared NaN guard
# ---------------------------------------------------------------------------

def test_check_finite_passes_finite_arrays():
    assert check_finite(np.zeros((2, 3))) is None


def test_check_finite_raises_with_location():
    bad = np.array([1.0, np.nan, 2.0, np.inf])
    with pytest.raises(SanitizeError) as excinfo:
        check_finite(bad, "test batch")
    message = str(excinfo.value)
    assert "test batch" in message
    assert "2 non-finite value(s)" in message
    assert "flat index 1" in message


def test_check_finite_report_mode_does_not_raise():
    report = check_finite(np.array([np.inf]), raise_error=False)
    assert report is not None and "1 non-finite" in report
    assert check_finite(np.array([1.0]), raise_error=False) is None


# ---------------------------------------------------------------------------
# Mode selection / installation
# ---------------------------------------------------------------------------

def test_enabled_modes_parses_env(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "nan, alias")
    assert sanitize.enabled_modes() == frozenset({"nan", "alias"})


def test_enabled_modes_rejects_unknown(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "nan,bogus")
    with pytest.raises(ValueError, match="bogus"):
        sanitize.enabled_modes()


@pytest.mark.parametrize("mode", ["grad", "determinism"])
def test_offline_harness_names_are_not_modes(monkeypatch, mode):
    # gradcheck and the golden determinism check install no process hooks, so
    # naming them in REPRO_SANITIZE must fail loudly, not pass as inert.
    monkeypatch.setenv("REPRO_SANITIZE", mode)
    with pytest.raises(ValueError, match=f"unknown sanitizer.*{mode}"):
        sanitize.enabled_modes()
    with pytest.raises(ValueError, match=mode):
        sanitize.install([mode])


def test_install_from_env_noop_when_unset(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert sanitize.install_from_env() == frozenset()
    assert hooks.TAPE_CHECK is None and hooks.ALIAS_CHECK is None


def test_install_from_env_installs_hooks(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "nan,alias")
    assert sanitize.install_from_env() == frozenset({"nan", "alias"})
    assert hooks.TAPE_CHECK is sanitize.tape_check
    assert hooks.ALIAS_CHECK is sanitize.check_optimizer_aliasing


def test_sanitized_context_restores_previous_state():
    sanitize.install(["alias"])
    with sanitize.sanitized("nan"):
        assert sanitize.installed_modes() == frozenset({"nan"})
        assert hooks.ALIAS_CHECK is None
    assert sanitize.installed_modes() == frozenset({"alias"})
    assert hooks.TAPE_CHECK is None
    assert hooks.ALIAS_CHECK is sanitize.check_optimizer_aliasing


# ---------------------------------------------------------------------------
# Tape sanitizer (mode "nan")
# ---------------------------------------------------------------------------

class Exploding(nn.Module):
    """Forward divides by zero, emitting inf inside the module."""

    def forward(self, x: Tensor) -> Tensor:
        return x / Tensor(np.zeros(1, dtype=np.float32))


def test_tape_sanitizer_names_op_and_module():
    model = Exploding()
    x = Tensor(np.ones(1, dtype=np.float32), requires_grad=True)
    with sanitize.sanitized("nan"):
        with pytest.raises(SanitizeError) as excinfo:
            model(x)
    message = str(excinfo.value)
    assert "tape sanitizer" in message
    assert "__truediv__" in message          # the originating op
    assert "Exploding" in message            # the live module path


def test_tape_sanitizer_catches_backward_nan():
    # Forward is finite; the gradient of log at a subnormal input overflows
    # float32, so the first non-finite value appears during the backward
    # sweep (on the intermediate node's output-gradient) and must be
    # attributed there.
    x = Tensor(np.array([1e-42], dtype=np.float32), requires_grad=True)
    with sanitize.sanitized("nan"):
        intermediate = x * 1.0
        loss = intermediate.log().sum()
        with pytest.raises(SanitizeError, match="backward"):
            loss.backward()


def test_tape_sanitizer_flags_the_non_finite_weight():
    model = nn.Linear(3, 2, rng=np.random.default_rng(0))
    assert dict(model.named_parameters())["weight"].name == "weight"
    model.weight.data[0, 1] = np.nan
    x = Tensor(np.ones((1, 3), dtype=np.float32), requires_grad=True)
    with sanitize.sanitized("nan"):
        with pytest.raises(SanitizeError) as excinfo:
            model(x)
    message = str(excinfo.value)
    assert "__matmul__" in message
    assert "; parameters in op: weight <-- non-finite data" in message


def test_tape_disabled_lets_nan_flow():
    x = Tensor(np.ones(1, dtype=np.float32), requires_grad=True)
    out = Exploding()(x)
    assert np.isinf(out.data).all()


def test_attack_gradient_guard(monkeypatch):
    from repro.attacks.base import input_gradient

    def nan_loss(x):
        return (x * Tensor(np.full(x.data.shape, np.nan,
                                   dtype=np.float32))).sum()

    images = np.full((1, 1, 2, 2), 0.5, dtype=np.float32)
    # Guard armed: the non-finite input gradient raises. The tape hook
    # itself is not installed (modes=["alias"] would arm alias only), so
    # install "nan" minus the tape by arming installed_modes directly.
    with sanitize.sanitized("nan"):
        hooks.set_tape_check(None)   # isolate the input_gradient guard
        with pytest.raises(SanitizeError, match="adversarial input gradient"):
            input_gradient(images, nan_loss)
    # Guard unarmed: gradient flows through (legacy behavior).
    _, grad = input_gradient(images, nan_loss)
    assert np.isnan(grad).all()


# ---------------------------------------------------------------------------
# Optimizer aliasing detector (mode "alias")
# ---------------------------------------------------------------------------

def make_model_and_grads():
    model = nn.Linear(4, 3, rng=np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).normal(size=(2, 4)).astype(np.float32))
    loss = (model(x) ** 2).sum()
    loss.backward()
    return model


def test_alias_detector_passes_correct_optimizer():
    model = make_model_and_grads()
    sgd = nn.SGD(model.parameters(), lr=0.1, momentum=0.9)
    with sanitize.sanitized("alias"):
        sgd.step()   # healthy scratch buffers: no error


def test_alias_detector_catches_param_aliased_scratch():
    model = make_model_and_grads()
    sgd = nn.SGD(model.parameters(), lr=0.1, momentum=0.9)
    # Seeded bug: a scratch buffer aliasing parameter storage means every
    # in-place product in step() corrupts the weights.
    sgd._scratch[0] = sgd.params[0].data
    with sanitize.sanitized("alias"):
        with pytest.raises(SanitizeError, match=r"_scratch\[0\].*params\[0\]\.data"):
            sgd.step()


def test_alias_detector_catches_grad_aliased_velocity():
    model = make_model_and_grads()
    sgd = nn.SGD(model.parameters(), lr=0.1, momentum=0.9)
    sgd._velocity[1] = sgd.params[1].grad
    with sanitize.sanitized("alias"):
        with pytest.raises(SanitizeError, match=r"_velocity\[1\].*\.grad"):
            sgd.step()


def test_alias_detector_catches_view_aliasing_in_adam():
    model = make_model_and_grads()
    adam = nn.Adam(model.parameters(), lr=0.01)
    # A *view* (not identity) must also be caught — np.shares_memory, not `is`.
    adam._m[0] = adam.params[0].data[:]
    with sanitize.sanitized("alias"):
        with pytest.raises(SanitizeError, match=r"_m\[0\]"):
            adam.step()


def test_alias_check_disabled_by_default():
    model = make_model_and_grads()
    sgd = nn.SGD(model.parameters(), lr=0.1, momentum=0.9)
    sgd._scratch[0] = sgd.params[0].data
    sgd.step()   # no sanitizer installed: the seeded bug goes unnoticed
