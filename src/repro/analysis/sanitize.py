"""Runtime sanitizers for the autodiff engine and optimizers.

Enabled with ``REPRO_SANITIZE=<modes>`` (comma-separated) or explicitly via
:func:`install` / the :func:`sanitized` context manager.  Modes:

* ``nan`` — *tape sanitizer*: checks every op output during the forward
  pass and every op output-gradient during the backward sweep, raising
  :class:`SanitizeError` naming the originating op (the name it records
  on the tape), the named weights among its inputs and the live module
  path (``Detector.ConvBlock.BatchNorm2d`` in train mode; an eval strided
  ``ConvBlock`` is one ``conv_block_eval`` op under
  ``Detector.ConvBlock``) the moment a NaN/Inf first appears, instead of
  letting it surface three layers later as a mysteriously diverged loss.
  Also arms the NaN guard in :func:`repro.attacks.base.input_gradient`.
* ``alias`` — *aliasing detector*: after every ``optimizer.step()``,
  fingerprints the optimizer's scratch buffers (``_velocity``,
  ``_scratch``, ``_m``, ``_v``, ``_buf1``, ``_buf2``) against parameter
  and gradient storage with ``np.shares_memory``.  The in-place SGD/Adam
  rewrite keeps its hot loop allocation-free by updating through those
  buffers; if one ever aliases ``p.data``/``p.grad``, updates silently
  corrupt parameters — exactly the bug class this guards.

The offline harnesses (:mod:`repro.analysis.gradcheck`,
:mod:`repro.analysis.golden`) are not modes: they run through
``python -m repro.cli analyze`` and install no process hooks.

The hooks live in :mod:`repro.nn.hooks` so ``repro.nn`` never has to
import this package; when no sanitizer is installed the engine pays one
``is None`` test per op.

:func:`check_finite` is also the repo's *uniform* NaN-guard helper:
:class:`repro.pipeline.perception.PerceptionService` and the attack stack
route their non-finite detection/reporting through it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, FrozenSet, Iterable, Iterator, Optional

import numpy as np

from ..nn import hooks
from ..runtime import env

#: every recognised REPRO_SANITIZE mode
KNOWN_MODES = ("nan", "alias")

#: optimizer attributes holding per-parameter scratch storage
_SCRATCH_ATTRS = ("_velocity", "_scratch", "_m", "_v", "_buf1", "_buf2")

#: modes currently installed by :func:`install` (not merely set in the env)
_INSTALLED: FrozenSet[str] = frozenset()


class SanitizeError(RuntimeError):
    """A runtime sanitizer detected a violated numeric invariant."""


# ---------------------------------------------------------------------------
# Finite-value checking (the shared NaN-guard)
# ---------------------------------------------------------------------------

def non_finite_report(array: Any) -> Optional[str]:
    """``None`` when every element is finite, else a locating description."""
    arr = np.asarray(array)
    finite = np.isfinite(arr)
    if bool(finite.all()):
        return None
    flat = finite.reshape(-1)
    bad = int(flat.size - flat.sum())
    first = int(np.argmin(flat))
    value = arr.reshape(-1)[first]
    return (f"{bad} non-finite value(s) in array of shape {arr.shape}; "
            f"first at flat index {first} ({value!r})")


def check_finite(array: Any, what: str = "array",
                 raise_error: bool = True) -> Optional[str]:
    """Uniform NaN/Inf guard.

    Returns ``None`` when ``array`` is entirely finite.  Otherwise raises
    :class:`SanitizeError` naming ``what`` — or, with
    ``raise_error=False``, returns the report string so callers that
    degrade gracefully (e.g. ``PerceptionService`` dropping a frame) can
    reuse the exact same detection and wording.
    """
    report = non_finite_report(array)
    if report is not None and raise_error:
        raise SanitizeError(f"{what}: {report}")
    return report


# ---------------------------------------------------------------------------
# Mode selection
# ---------------------------------------------------------------------------

def enabled_modes() -> FrozenSet[str]:
    """Modes requested via ``REPRO_SANITIZE``; raises on unknown names."""
    raw = env.SANITIZE.get()
    if not raw:
        return frozenset()
    modes = {part.strip() for part in raw.split(",") if part.strip()}
    unknown = modes - set(KNOWN_MODES)
    if unknown:
        raise ValueError(
            f"{env.SANITIZE.name} lists unknown sanitizer(s) "
            f"{sorted(unknown)}; known: {', '.join(KNOWN_MODES)}")
    return frozenset(modes)


def sanitizers_active() -> bool:
    """Whether ``REPRO_SANITIZE`` requests at least one sanitizer."""
    return bool(enabled_modes())


def installed_modes() -> FrozenSet[str]:
    """Modes actually installed in this process (see :func:`install`)."""
    return _INSTALLED


# ---------------------------------------------------------------------------
# Tape sanitizer (mode "nan")
# ---------------------------------------------------------------------------

def parameter_report(parents: Iterable[Any]) -> str:
    """Which named weight tensors the failing op used, flagging bad ones.

    ``Module.named_parameters`` stamps each parameter's dotted path onto
    ``Tensor.name``, so the named tensors among an op's parents are exactly
    the weights it touched.
    """
    found = {tensor.name: tensor for tensor in parents if tensor.name}
    notes = []
    for name in sorted(found):
        tensor = found[name]
        flags = []
        if non_finite_report(tensor.data) is not None:
            flags.append("non-finite data")
        grad = tensor.grad
        if grad is not None and non_finite_report(grad) is not None:
            flags.append("non-finite grad")
        suffix = f" <-- {', '.join(flags)}" if flags else ""
        notes.append(f"{name}{suffix}")
    if not notes:
        return ""
    return "; parameters in op: " + ", ".join(notes)


def tape_check(phase: str, array: np.ndarray, op_name: str,
               parents: Iterable[Any]) -> None:
    """Installed as :data:`repro.nn.hooks.TAPE_CHECK` under mode ``nan``."""
    report = non_finite_report(array)
    if report is None:
        return
    kind = "output of" if phase == "forward" else "gradient flowing out of"
    raise SanitizeError(
        f"tape sanitizer: non-finite {phase} {kind} op "
        f"{op_name} (module path: {hooks.module_path()}): {report}"
        f"{parameter_report(parents)}")


# ---------------------------------------------------------------------------
# Optimizer aliasing detector (mode "alias")
# ---------------------------------------------------------------------------

def check_optimizer_aliasing(optimizer: Any) -> None:
    """Installed as :data:`repro.nn.hooks.ALIAS_CHECK` under mode ``alias``.

    An optimizer scratch buffer that shares memory with a parameter or its
    gradient turns every in-place product/sum into silent parameter
    corruption; ``np.shares_memory`` catches views as well as identity.
    """
    params = list(getattr(optimizer, "params", ()))
    for attr in _SCRATCH_ATTRS:
        buffers = getattr(optimizer, attr, None)
        if not isinstance(buffers, (list, tuple)):
            continue
        for i, buf in enumerate(buffers):
            if not isinstance(buf, np.ndarray):
                continue
            for j, p in enumerate(params):
                data = getattr(p, "data", None)
                grad = getattr(p, "grad", None)
                if isinstance(data, np.ndarray) and np.shares_memory(buf, data):
                    raise SanitizeError(
                        f"aliasing detector: {type(optimizer).__name__}."
                        f"{attr}[{i}] shares memory with params[{j}].data — "
                        "in-place updates through this buffer corrupt the "
                        "parameter")
                if isinstance(grad, np.ndarray) and np.shares_memory(buf, grad):
                    raise SanitizeError(
                        f"aliasing detector: {type(optimizer).__name__}."
                        f"{attr}[{i}] shares memory with params[{j}].grad — "
                        "in-place updates through this buffer corrupt the "
                        "gradient")


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------

def install(modes: Optional[Iterable[str]] = None) -> FrozenSet[str]:
    """Install the requested sanitizer hooks; defaults to ``REPRO_SANITIZE``.

    Returns the set of modes now installed.  Idempotent; unknown mode
    names raise ``ValueError``.
    """
    global _INSTALLED
    selected = frozenset(modes) if modes is not None else enabled_modes()
    unknown = selected - set(KNOWN_MODES)
    if unknown:
        raise ValueError(f"unknown sanitizer(s) {sorted(unknown)}; "
                         f"known: {', '.join(KNOWN_MODES)}")
    hooks.set_tape_check(tape_check if "nan" in selected else None)
    hooks.set_alias_check(
        check_optimizer_aliasing if "alias" in selected else None)
    _INSTALLED = selected
    return selected


def uninstall() -> None:
    """Remove every installed sanitizer hook."""
    global _INSTALLED
    hooks.set_tape_check(None)
    hooks.set_alias_check(None)
    _INSTALLED = frozenset()


@contextmanager
def sanitized(*modes: str) -> Iterator[None]:
    """Run a block with the given sanitizers installed, then restore."""
    previous = _INSTALLED
    install(modes)
    try:
        yield
    finally:
        install(previous)


def install_from_env() -> FrozenSet[str]:
    """Install whatever ``REPRO_SANITIZE`` requests (no-op when unset)."""
    if not sanitizers_active():
        return frozenset()
    return install()
