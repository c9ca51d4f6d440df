"""Reverse-mode automatic differentiation over numpy arrays.

This module is the computational substrate for the whole reproduction: the
paper's attacks (FGSM, Auto-PGD, RP2, CAP) all require gradients of a loss
with respect to the *input image*, and every defense requires training, so a
real autodiff engine is non-negotiable.  The design follows the classic
tape-based approach: every operation records a backward closure and its
parent tensors; :meth:`Tensor.backward` topologically sorts the graph and
accumulates gradients.

Tensors hold ``float32`` numpy arrays by default.  The working precision is
a process-global knob (:func:`default_dtype` / :func:`precision`): the
numeric grad-check harness in :mod:`repro.analysis.gradcheck` runs the same
graph code under ``float64`` so central differences resolve below 1e-4
relative error.  Broadcasting follows numpy semantics; gradients of
broadcast operands are reduced back to the operand's shape (see
:func:`_unbroadcast`).

Recording is also a process-global switch: inside :func:`no_grad` ops
record no tape, so inference keeps no parents and no backward closures,
and each op's saved buffers are freed as soon as the op returns.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from . import hooks

ArrayLike = Union[np.ndarray, float, int, Sequence]

_DEFAULT_DTYPE = np.dtype(np.float32)
_GRAD_ENABLED = True


def default_dtype() -> np.dtype:
    """The dtype new tensors are created with (``float32`` unless overridden)."""
    return _DEFAULT_DTYPE


def set_default_dtype(dtype) -> np.dtype:
    """Set the working precision; returns the previous dtype."""
    global _DEFAULT_DTYPE
    resolved = np.dtype(dtype)
    if resolved not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported tensor dtype {dtype!r}")
    previous = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = resolved
    return previous


@contextmanager
def precision(dtype) -> Iterator[None]:
    """Temporarily switch the working precision (e.g. float64 for gradcheck)."""
    previous = set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(previous)


@contextmanager
def no_grad() -> Iterator[None]:
    """Run inference without recording the tape.

    Op outputs get ``requires_grad=False`` and no parents, so nothing pins
    an op's saved buffers past its return.  The tape sanitizer still sees
    every forward output.  Nests, and restores the previous state on exit
    even when the body raises.  Like :func:`precision`, the switch is
    process-global.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _as_array(value: ArrayLike) -> np.ndarray:
    arr = np.asarray(value, dtype=_DEFAULT_DTYPE)
    return arr


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor that records operations for backpropagation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "name")
    __array_priority__ = 100  # make numpy defer to our __radd__ etc.

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        # Dotted parameter path (stamped by Module.named_parameters) so
        # sanitizer reports can say *which weight* went non-finite.
        self.name: Optional[str] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def clone(self) -> "Tensor":
        out = Tensor(self.data.copy(), requires_grad=self.requires_grad)
        if self.requires_grad:
            out._parents = (self,)
            out._backward = lambda g: _accumulate(self, g)
        return out

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Tuple["Tensor", ...],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        check = hooks.TAPE_CHECK
        if check is not None:
            check("forward", data, backward)
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                _accumulate(self, _unbroadcast(g, self.shape))
            if other.requires_grad:
                _accumulate(other, _unbroadcast(g, other.shape))

        return Tensor._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            _accumulate(self, -g)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                _accumulate(self, _unbroadcast(g, self.shape))
            if other.requires_grad:
                _accumulate(other, _unbroadcast(-g, other.shape))

        return Tensor._make(self.data - other.data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self.data, other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                _accumulate(self, _unbroadcast(g * b, self.shape))
            if other.requires_grad:
                _accumulate(other, _unbroadcast(g * a, other.shape))

        return Tensor._make(a * b, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self.data, other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                _accumulate(self, _unbroadcast(g / b, self.shape))
            if other.requires_grad:
                _accumulate(other, _unbroadcast(-g * a / (b * b), other.shape))

        return Tensor._make(a / b, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        a = self.data

        def backward(g: np.ndarray) -> None:
            _accumulate(self, g * exponent * np.power(a, exponent - 1))

        return Tensor._make(np.power(a, exponent), (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self.data, other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                ga = g @ np.swapaxes(b, -1, -2)
                _accumulate(self, _unbroadcast(ga, self.shape))
            if other.requires_grad:
                gb = np.swapaxes(a, -1, -2) @ g
                _accumulate(other, _unbroadcast(gb, other.shape))

        return Tensor._make(a @ b, (self, other), backward)

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g: np.ndarray) -> None:
            _accumulate(self, g * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        a = self.data

        def backward(g: np.ndarray) -> None:
            _accumulate(self, g / a)

        return Tensor._make(np.log(a), (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(g: np.ndarray) -> None:
            _accumulate(self, g / (2.0 * out_data))

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        a = self.data

        def backward(g: np.ndarray) -> None:
            _accumulate(self, g * np.sign(a))

        return Tensor._make(np.abs(a), (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(g: np.ndarray) -> None:
            _accumulate(self, g * (1.0 - out_data * out_data))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(g: np.ndarray) -> None:
            _accumulate(self, g * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(g: np.ndarray) -> None:
            _accumulate(self, g * mask)

        return Tensor._make(self.data * mask, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.1) -> "Tensor":
        a = self.data
        factor = np.where(a > 0, 1.0, negative_slope).astype(a.dtype)

        def backward(g: np.ndarray) -> None:
            _accumulate(self, g * factor)

        return Tensor._make(a * factor, (self,), backward)

    def silu(self) -> "Tensor":
        """x * sigmoid(x) — the activation YOLOv8 uses."""
        a = self.data
        sig = 1.0 / (1.0 + np.exp(-a))
        out_data = a * sig

        def backward(g: np.ndarray) -> None:
            _accumulate(self, g * (sig * (1.0 + a * (1.0 - sig))))

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values; gradient passes only where unclipped."""
        a = self.data
        mask = ((a >= low) & (a <= high)).astype(a.dtype)

        def backward(g: np.ndarray) -> None:
            _accumulate(self, g * mask)

        return Tensor._make(np.clip(a, low, high), (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
            keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.shape

        def backward(g: np.ndarray) -> None:
            grad = np.asarray(g, dtype=self.data.dtype)
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % len(shape) for a in axes)
                for ax in sorted(axes):
                    grad = np.expand_dims(grad, ax)
            _accumulate(self, np.broadcast_to(grad, shape).copy())

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
             keepdims: bool = False) -> "Tensor":
        count = self.size if axis is None else np.prod(
            [self.shape[a % self.ndim] for a in ((axis,) if isinstance(axis, int) else axis)]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            if axis is None:
                mask = (self.data == out_data).astype(self.data.dtype)
            else:
                expanded = self.data.max(axis=axis, keepdims=True)
                mask = (self.data == expanded).astype(self.data.dtype)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            grad = np.asarray(g, dtype=self.data.dtype)
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            _accumulate(self, mask * grad)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape

        def backward(g: np.ndarray) -> None:
            _accumulate(self, g.reshape(original))

        return Tensor._make(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = np.argsort(axes)

        def backward(g: np.ndarray) -> None:
            _accumulate(self, g.transpose(inverse))

        return Tensor._make(self.data.transpose(axes), (self,), backward)

    def flatten(self, start_dim: int = 0) -> "Tensor":
        shape = self.shape[:start_dim] + (-1,)
        return self.reshape(*shape)

    def __getitem__(self, index) -> "Tensor":
        original_shape = self.shape

        def backward(g: np.ndarray) -> None:
            grad = np.zeros(original_shape, dtype=self.data.dtype)
            np.add.at(grad, index, g)
            _accumulate(self, grad)

        return Tensor._make(self.data[index], (self,), backward)

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones (so calling ``loss.backward()`` on a scalar
        loss works as expected).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        hooks.count_backward()
        if grad is None:
            grad = np.ones_like(self.data)
        self.grad = np.asarray(grad, dtype=self.data.dtype)

        order: list[Tensor] = []
        seen = set()

        def visit(node: "Tensor") -> None:
            stack = [(node, False)]
            while stack:
                current, processed = stack.pop()
                if processed:
                    order.append(current)
                    continue
                if id(current) in seen:
                    continue
                seen.add(id(current))
                stack.append((current, True))
                for parent in current._parents:
                    if id(parent) not in seen:
                        stack.append((parent, False))

        visit(self)
        check = hooks.TAPE_CHECK
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                if check is not None:
                    check("backward", node.grad, node._backward)
                node._backward(node.grad)


def _accumulate(tensor: Tensor, grad: np.ndarray) -> None:
    grad = np.asarray(grad, dtype=tensor.data.dtype)
    if tensor.grad is None:
        tensor.grad = grad.copy() if grad.base is not None else grad
    else:
        tensor.grad = tensor.grad + grad


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(start, stop)
                _accumulate(tensor, g[tuple(index)])

    data = np.concatenate([t.data for t in tensors], axis=axis)
    return Tensor._make(data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stack along a new axis."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]

    def backward(g: np.ndarray) -> None:
        slices = np.moveaxis(g, axis, 0)
        for tensor, piece in zip(tensors, slices):
            if tensor.requires_grad:
                _accumulate(tensor, piece)

    data = np.stack([t.data for t in tensors], axis=axis)
    return Tensor._make(data, tuple(tensors), backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable selection: ``condition`` is a boolean numpy mask."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    cond = np.asarray(condition, dtype=bool)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * cond, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * (~cond), b.shape))

    return Tensor._make(np.where(cond, a.data, b.data), (a, b), backward)


def no_grad_tensor(data: ArrayLike) -> Tensor:
    """Convenience constructor for constants."""
    return Tensor(data, requires_grad=False)


# ---------------------------------------------------------------------------
# RNG stream capture — for crash-consistent training checkpoints.
# ---------------------------------------------------------------------------

def capture_rng(rng: np.random.Generator) -> str:
    """Serialize a Generator's bit-stream position as a JSON string.

    PCG64 state words are 128-bit integers, so the state rides in JSON
    (arbitrary-precision ints) rather than a fixed-width array — the
    string embeds in an ``.npz`` as a 0-d unicode entry, no pickle needed.
    """
    import json
    return json.dumps(rng.bit_generator.state)


def restore_rng(rng: np.random.Generator, captured: str) -> None:
    """Restore a Generator to a state captured by :func:`capture_rng`.

    Raises ``ValueError`` if the captured state belongs to a different
    bit-generator type — a checkpoint from an incompatible layout must
    read as corrupt, not silently reseed.
    """
    import json
    state = json.loads(captured)
    expected = type(rng.bit_generator).__name__
    if state.get("bit_generator") != expected:
        raise ValueError(
            f"captured RNG state is for {state.get('bit_generator')!r}, "
            f"generator uses {expected!r}")
    rng.bit_generator.state = state
