"""Reverse-mode automatic differentiation over numpy arrays.

This module is the computational substrate for the whole reproduction: the
paper's attacks (FGSM, Auto-PGD, RP2, CAP) all require gradients of a loss
with respect to the *input image*, and every defense requires training, so a
real autodiff engine is non-negotiable.  The design follows the classic
tape-based approach.  Every op computes its output and hands it to
:func:`_op` with its name, its parent tensors and one vector-Jacobian
product per parent (``g -> gradient of that parent``).  :func:`_op` is the
one place that calls the tape sanitizer, honours :func:`no_grad`, keeps the
parents that require grad and builds the backward that undoes broadcasting
and accumulates; :meth:`Tensor.backward` topologically sorts the graph, runs
those backwards and releases each interior node as soon as its own has run.

Tensors hold ``float32`` numpy arrays by default.  The working precision is
a process-global knob (:func:`default_dtype` / :func:`precision`): the
numeric grad-check harness in :mod:`repro.analysis.gradcheck` runs the same
graph code under ``float64`` so central differences resolve below 1e-4
relative error.  Broadcasting follows numpy semantics; gradients of
broadcast operands are reduced back to the operand's shape (see
:func:`_unbroadcast`).

Recording is also a process-global switch: inside :func:`no_grad` ops
record no tape, so inference keeps no parents and no VJPs, and each op's
saved buffers are freed as soon as the op returns.
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
                 "_op", "name")
    __array_priority__ = 100  # make numpy defer to our __radd__ etc.

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        # Name of the op that produced this tensor (None for a leaf).
        self._op: Optional[str] = None
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
        return _op("Tensor.clone", self.data.copy(), (self,), (lambda g: g,))

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return _op("Tensor.__add__", self.data + other.data, (self, other),
                   (lambda g: g, lambda g: g))

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return _op("Tensor.__neg__", -self.data, (self,), (lambda g: -g,))

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return _op("Tensor.__sub__", self.data - other.data, (self, other),
                   (lambda g: g, lambda g: -g))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self.data, other.data
        return _op("Tensor.__mul__", a * b, (self, other),
                   (lambda g: g * b, lambda g: g * a))

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self.data, other.data
        return _op("Tensor.__truediv__", a / b, (self, other),
                   (lambda g: g / b, lambda g: -g * a / (b * b)))

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        a = self.data
        return _op("Tensor.__pow__", np.power(a, exponent), (self,),
                   (lambda g: g * exponent * np.power(a, exponent - 1),))

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self.data, other.data
        return _op("Tensor.__matmul__", a @ b, (self, other),
                   (lambda g: g @ np.swapaxes(b, -1, -2),
                    lambda g: np.swapaxes(a, -1, -2) @ g))

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        return _op("Tensor.exp", out_data, (self,), (lambda g: g * out_data,))

    def log(self) -> "Tensor":
        a = self.data
        return _op("Tensor.log", np.log(a), (self,), (lambda g: g / a,))

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)
        return _op("Tensor.sqrt", out_data, (self,),
                   (lambda g: g / (2.0 * out_data),))

    def abs(self) -> "Tensor":
        a = self.data
        return _op("Tensor.abs", np.abs(a), (self,),
                   (lambda g: g * np.sign(a),))

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        return _op("Tensor.tanh", out_data, (self,),
                   (lambda g: g * (1.0 - out_data * out_data),))

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))
        return _op("Tensor.sigmoid", out_data, (self,),
                   (lambda g: g * out_data * (1.0 - out_data),))

    def relu(self) -> "Tensor":
        mask = self.data > 0
        return _op("Tensor.relu", self.data * mask, (self,),
                   (lambda g: g * mask,))

    def leaky_relu(self, negative_slope: float = 0.1) -> "Tensor":
        a = self.data
        factor = np.where(a > 0, 1.0, negative_slope).astype(a.dtype)
        return _op("Tensor.leaky_relu", a * factor, (self,),
                   (lambda g: g * factor,))

    def silu(self) -> "Tensor":
        """x * sigmoid(x) — the activation YOLOv8 uses."""
        a = self.data
        sig = 1.0 / (1.0 + np.exp(-a))
        return _op("Tensor.silu", a * sig, (self,),
                   (lambda g: g * (sig * (1.0 + a * (1.0 - sig))),))

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values; gradient passes only where unclipped."""
        a = self.data
        mask = ((a >= low) & (a <= high)).astype(a.dtype)
        return _op("Tensor.clip", np.clip(a, low, high), (self,),
                   (lambda g: g * mask,))

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
            keepdims: bool = False) -> "Tensor":
        shape = self.shape

        def vjp(g: np.ndarray) -> np.ndarray:
            grad = np.asarray(g, dtype=self.data.dtype)
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % len(shape) for a in axes)
                for ax in sorted(axes):
                    grad = np.expand_dims(grad, ax)
            return np.broadcast_to(grad, shape).copy()

        return _op("Tensor.sum", self.data.sum(axis=axis, keepdims=keepdims),
                   (self,), (vjp,))

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
             keepdims: bool = False) -> "Tensor":
        count = self.size if axis is None else np.prod(
            [self.shape[a % self.ndim] for a in ((axis,) if isinstance(axis, int) else axis)]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def vjp(g: np.ndarray) -> np.ndarray:
            if axis is None:
                mask = (self.data == out_data).astype(self.data.dtype)
            else:
                expanded = self.data.max(axis=axis, keepdims=True)
                mask = (self.data == expanded).astype(self.data.dtype)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            grad = np.asarray(g, dtype=self.data.dtype)
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            return mask * grad

        return _op("Tensor.max", out_data, (self,), (vjp,))

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape
        return _op("Tensor.reshape", self.data.reshape(shape), (self,),
                   (lambda g: g.reshape(original),))

    def transpose(self, *axes: int) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = np.argsort(axes)
        return _op("Tensor.transpose", self.data.transpose(axes), (self,),
                   (lambda g: g.transpose(inverse),))

    def flatten(self, start_dim: int = 0) -> "Tensor":
        shape = self.shape[:start_dim] + (-1,)
        return self.reshape(*shape)

    def __getitem__(self, index) -> "Tensor":
        original_shape = self.shape

        def vjp(g: np.ndarray) -> np.ndarray:
            grad = np.zeros(original_shape, dtype=self.data.dtype)
            np.add.at(grad, index, g)
            return grad

        return _op("Tensor.__getitem__", self.data[index], (self,), (vjp,))

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor, releasing the tape.

        ``grad`` defaults to ones (so calling ``loss.backward()`` on a scalar
        loss works as expected).  The sweep pops nodes off the topological
        order, and once an op output's backward has run it drops that
        node's ``grad``, ``_backward`` and ``_parents``.  So each saved
        activation is freed as soon as its VJP has been used, even while
        the caller still holds the loss, and only the leaves' grads and
        this tensor's ``.grad`` survive the sweep.  A sweep that reaches a
        released op output (``backward()`` twice on one loss, or a second
        loss that shares a swept subgraph) raises ``RuntimeError``: run the
        forward again to build a fresh graph.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        hooks.count_backward()
        if grad is None:
            grad = np.ones_like(self.data)
        self.grad = np.asarray(grad, dtype=self.data.dtype)

        order: list[Tensor] = []
        seen = set()
        stack = [(self, False)]
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
        del seen

        check = hooks.TAPE_CHECK
        while order:
            node = order.pop()
            if node._backward is None:
                # Every op output on the order requires grad and has one by
                # now, so one without a backward was released by a sweep.
                if node._op is not None:
                    raise RuntimeError(
                        f"backward() reached the output of {node._op}, whose "
                        "tape an earlier backward() already released; run "
                        "the forward again")
                continue  # a leaf: its grad is a result of the sweep
            if check is not None:
                check("backward", node.grad, node._op, node._parents)
            node._backward(node.grad)
            if node is not self:
                node.grad = None
            node._backward = None
            node._parents = ()


def _op(name: str, data: np.ndarray, parents: Tuple[Tensor, ...],
        vjps: Sequence[Callable[[np.ndarray], np.ndarray]]) -> Tensor:
    """Record one tape op: ``data``, computed by op ``name`` from ``parents``.

    ``vjps[i]`` maps the output's gradient to the gradient of
    ``parents[i]`` (before any broadcast is undone).  Only the parents that
    require grad now, at forward time, keep their VJP, so a parameter
    frozen for the forward stays a constant of this op even if thawed
    before the backward, and the buffers that only a dropped VJP reads are
    freed when the op returns.  Under :func:`no_grad` nothing is kept.
    """
    check = hooks.TAPE_CHECK
    if check is not None:
        check("forward", data, name, parents)
    out = Tensor(data)
    out._op = name
    if _GRAD_ENABLED:
        kept = [(p, vjp) for p, vjp in zip(parents, vjps) if p.requires_grad]
        if kept:
            def backward(g: np.ndarray) -> None:
                for parent, vjp in kept:
                    _accumulate(parent, _unbroadcast(vjp(g), parent.shape))

            out.requires_grad = True
            out._parents = tuple(parent for parent, _ in kept)
            out._backward = backward
    return out


def _accumulate(tensor: Tensor, grad: np.ndarray) -> None:
    grad = np.asarray(grad, dtype=tensor.data.dtype)
    if tensor.grad is None:
        tensor.grad = grad.copy() if grad.base is not None else grad
    else:
        tensor.grad = tensor.grad + grad


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])
    index = [slice(None)] * data.ndim
    pieces = []
    for start, stop in zip(offsets[:-1], offsets[1:]):
        index[axis] = slice(start, stop)
        pieces.append(tuple(index))
    return _op("concatenate", data, tuple(tensors),
               [lambda g, piece=piece: g[piece] for piece in pieces])


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stack along a new axis."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)
    return _op("stack", data, tuple(tensors),
               [lambda g, i=i: np.moveaxis(g, axis, 0)[i]
                for i in range(len(tensors))])


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable selection: ``condition`` is a boolean numpy mask."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    cond = np.asarray(condition, dtype=bool)
    return _op("where", np.where(cond, a.data, b.data), (a, b),
               (lambda g: g * cond, lambda g: g * (~cond)))


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
