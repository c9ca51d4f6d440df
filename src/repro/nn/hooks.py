"""Lightweight global counters and sanitizer hook points for nn passes.

The runtime instrumentation layer (:mod:`repro.runtime.instrument`) reads
these to attribute nn work to experiment grid cells.  A *forward pass* is
one top-level module invocation (nested submodule calls inside a model do
not count separately).  The models' own entry points (``loss``,
``attack_loss``, ``predict``, ``detect``, ``embed``) call the model through
``self(...)``, so one model call is one pass.  A *backward pass* is one call
to :meth:`repro.nn.Tensor.backward`.

Counters are per-process.  The parallel grid executor snapshots them inside
each worker and ships the deltas back to the parent, so per-cell counts are
exact under both serial and forked execution.

This module is also the seam where :mod:`repro.analysis.sanitize` attaches
its runtime checks.  ``repro.nn`` never imports the analysis package (that
would invert the dependency graph); instead the sanitizers install plain
callables here:

* :data:`TAPE_CHECK` — called by :func:`repro.nn.tensor._op` with
  ``(phase, array, op_name, parents)`` for every op output
  (``phase="forward"``, all of the op's input tensors) and by
  :meth:`repro.nn.Tensor.backward` for every op output-gradient
  (``phase="backward"``, the inputs that get a gradient).  ``op_name``
  names the originating operation (``Tensor.__mul__``, ``conv2d``).
* :data:`ALIAS_CHECK` — called by every optimizer at the end of ``step()``
  with the optimizer instance, so a detector can fingerprint scratch
  buffers against parameter/grad storage.

Both default to ``None``; the only overhead when disabled is one global
load and an ``is None`` test per op.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

#: sanitizer slot: fn(phase, array, op_name, parents) -> None; installed
#: by repro.analysis.sanitize, read by tensor._op / Tensor.backward.
TAPE_CHECK: Optional[Callable[[str, Any, str, Tuple[Any, ...]], None]] = None

#: sanitizer slot: fn(optimizer) -> None; called at the end of step().
ALIAS_CHECK: Optional[Callable[[Any], None]] = None

#: class names of the modules currently on the __call__ stack, outermost
#: first — gives sanitizer reports a "Detector.ConvBlock.BatchNorm2d" path.
#: An eval strided ConvBlock calls no submodule: its one conv_block_eval op
#: reports as "Detector.ConvBlock".
MODULE_STACK: List[str] = []


class PassCounters:
    """Mutable forward/backward counters with a module-call depth guard."""

    __slots__ = ("forward", "backward", "_depth")

    def __init__(self) -> None:
        self.forward = 0
        self.backward = 0
        self._depth = 0

    def snapshot(self) -> Tuple[int, int]:
        return (self.forward, self.backward)

    def reset(self) -> None:
        self.forward = 0
        self.backward = 0
        self._depth = 0


COUNTERS = PassCounters()


def enter_module(module: Optional[Any] = None) -> None:
    """Called by ``Module.__call__`` on entry; counts only top-level calls."""
    COUNTERS._depth += 1
    if COUNTERS._depth == 1:
        COUNTERS.forward += 1
    MODULE_STACK.append(type(module).__name__ if module is not None else "?")


def exit_module() -> None:
    COUNTERS._depth -= 1
    if MODULE_STACK:
        MODULE_STACK.pop()


def module_path() -> str:
    """Dotted class-name path of the live module stack (for diagnostics)."""
    return ".".join(MODULE_STACK) if MODULE_STACK else "<no module>"


def set_tape_check(fn: Optional[Callable[..., None]]) -> None:
    """Install (or clear, with ``None``) the autodiff tape sanitizer."""
    global TAPE_CHECK
    TAPE_CHECK = fn


def set_alias_check(fn: Optional[Callable[[Any], None]]) -> None:
    """Install (or clear, with ``None``) the optimizer aliasing detector."""
    global ALIAS_CHECK
    ALIAS_CHECK = fn


def count_backward() -> None:
    """Called by ``Tensor.backward`` once per reverse-mode sweep."""
    COUNTERS.backward += 1


def snapshot() -> Tuple[int, int]:
    """Current (forward, backward) counts for this process."""
    return COUNTERS.snapshot()


def reset() -> None:
    COUNTERS.reset()
    del MODULE_STACK[:]
