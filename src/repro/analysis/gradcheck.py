"""Sampled numeric gradient checking for every layer and loss in ``repro.nn``.

Every attack in the paper consumes gradients from the from-scratch autodiff
engine, so a wrong backward formula silently weakens attacks (and therefore
overstates defenses).  This harness compares each analytic gradient against
central finite differences::

    dL/dp[i]  ≈  (L(p[i] + eps) - L(p[i] - eps)) / (2 * eps)

sampling ``k`` random coordinates per checked tensor.  The whole graph runs
under ``float64`` (:func:`repro.nn.precision`), where central differences
with ``eps = 1e-6`` resolve to ~1e-9 relative error — far below the 1e-4
acceptance tolerance — so a failure means a wrong formula, not roundoff.

Each registered *case* builds a tiny seeded graph ending in a scalar loss
and names the tensors whose gradients to verify.  Run all of them with
``python -m repro.analysis gradcheck`` (or ``python -m repro.cli analyze
gradcheck``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..nn import Tensor, functional as F, losses
from ..nn.tensor import precision

#: a case builder returns (forward, checked) where ``forward()`` recomputes
#: the scalar loss Tensor from scratch and ``checked`` names the tensors
#: whose analytic gradients the harness verifies.
CaseBuild = Callable[[], Tuple[Callable[[], Tensor],
                               List[Tuple[str, Tensor]]]]

CASES: Dict[str, CaseBuild] = {}


def case(name: str) -> Callable[[CaseBuild], CaseBuild]:
    def register(build: CaseBuild) -> CaseBuild:
        if name in CASES:
            raise ValueError(f"duplicate gradcheck case {name!r}")
        CASES[name] = build
        return build
    return register


@dataclass
class GradCheckResult:
    """Outcome of one case: worst sampled coordinate across all tensors."""

    name: str
    max_rel_error: float
    checked: int                 # number of sampled coordinates
    tolerance: float
    worst: str = ""              # "tensor[i]: analytic=…, numeric=…"

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance

    def to_json(self) -> dict:
        return {"name": self.name, "max_rel_error": self.max_rel_error,
                "checked": self.checked, "tolerance": self.tolerance,
                "passed": self.passed, "worst": self.worst}


def check_build(name: str, build: CaseBuild, k: int = 5, eps: float = 1e-6,
                tol: float = 1e-4, seed: int = 0) -> GradCheckResult:
    """Run one case: analytic backward vs. ``k`` sampled central differences."""
    with precision(np.float64):
        forward, checked = build()
        for _, tensor in checked:
            tensor.grad = None
        loss = forward()
        loss.backward()
        analytic = {label: np.array(tensor.grad, dtype=np.float64, copy=True)
                    for label, tensor in checked}

        rng = np.random.default_rng(seed)
        max_rel = 0.0
        worst = ""
        count = 0
        for label, tensor in checked:
            flat = tensor.data.reshape(-1)
            n = min(k, flat.size)
            indices = rng.choice(flat.size, size=n, replace=False)
            for i in indices:
                original = flat[i]
                flat[i] = original + eps
                loss_plus = float(forward().data)
                flat[i] = original - eps
                loss_minus = float(forward().data)
                flat[i] = original
                numeric = (loss_plus - loss_minus) / (2.0 * eps)
                exact = float(analytic[label].reshape(-1)[i])
                rel = abs(numeric - exact) / max(1.0, abs(numeric), abs(exact))
                count += 1
                if rel > max_rel:
                    max_rel = rel
                    worst = (f"{label}[{int(i)}]: analytic={exact:.6g}, "
                             f"numeric={numeric:.6g}")
    return GradCheckResult(name=name, max_rel_error=max_rel, checked=count,
                           tolerance=tol, worst=worst)


def run(names: Optional[Sequence[str]] = None, k: int = 5, eps: float = 1e-6,
        tol: float = 1e-4, seed: int = 0) -> List[GradCheckResult]:
    """Run the selected (default: all) cases in registration order."""
    selected = list(CASES) if names is None else list(names)
    unknown = [n for n in selected if n not in CASES]
    if unknown:
        raise KeyError(f"unknown gradcheck case(s) {unknown}; "
                       f"known: {sorted(CASES)}")
    return [check_build(n, CASES[n], k=k, eps=eps, tol=tol, seed=seed)
            for n in selected]


# ---------------------------------------------------------------------------
# Shared fixture helpers
# ---------------------------------------------------------------------------

def _weighted_sum(out: Tensor, rng: np.random.Generator) -> Tensor:
    """Contract ``out`` to a scalar with fixed random weights.

    A plain ``.sum()`` would give a constant output-gradient of ones, which
    cannot distinguish e.g. a transposed backward; random weights make the
    pullback informative.
    """
    weights = Tensor(rng.normal(size=out.shape))
    return (out * weights).sum()


def _params(module: nn.Module) -> List[Tuple[str, Tensor]]:
    return list(module.named_parameters())


# ---------------------------------------------------------------------------
# Layer cases
# ---------------------------------------------------------------------------

@case("linear")
def _linear():
    rng = np.random.default_rng(11)
    layer = nn.Linear(6, 4, rng=rng)
    x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)

    def forward() -> Tensor:
        return _weighted_sum(layer(x), np.random.default_rng(12))

    return forward, [("x", x)] + _params(layer)


@case("conv2d")
def _conv2d():
    rng = np.random.default_rng(21)
    layer = nn.Conv2d(2, 3, 3, stride=1, padding=1, rng=rng)
    x = Tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)

    def forward() -> Tensor:
        return _weighted_sum(layer(x), np.random.default_rng(22))

    return forward, [("x", x)] + _params(layer)


@case("conv2d_strided")
def _conv2d_strided():
    rng = np.random.default_rng(23)
    layer = nn.Conv2d(2, 2, 3, stride=2, padding=0, rng=rng)
    x = Tensor(rng.normal(size=(1, 2, 7, 7)), requires_grad=True)

    def forward() -> Tensor:
        return _weighted_sum(layer(x), np.random.default_rng(24))

    return forward, [("x", x)] + _params(layer)


@case("conv2d_strided_padded")
def _conv2d_strided_padded():
    # The backbone's geometry: stride 2, padding 1 and odd H/W, so col2im
    # clips border taps out of the padding on the way back.
    rng = np.random.default_rng(29)
    layer = nn.Conv2d(2, 3, 3, stride=2, padding=1, rng=rng)
    x = Tensor(rng.normal(size=(2, 2, 5, 7)), requires_grad=True)

    def forward() -> Tensor:
        return _weighted_sum(layer(x), np.random.default_rng(30))

    return forward, [("x", x)] + _params(layer)


@case("conv2d_1x1")
def _conv2d_1x1():
    rng = np.random.default_rng(25)
    layer = nn.Conv2d(3, 2, 1, rng=rng)
    x = Tensor(rng.normal(size=(2, 3, 3, 4)), requires_grad=True)

    def forward() -> Tensor:
        return _weighted_sum(layer(x), np.random.default_rng(26))

    return forward, [("x", x)] + _params(layer)


@case("conv2d_stride1_batched")
def _conv2d_stride1_batched():
    # Unpadded, non-square and batched: a shifted slice that crossed a row
    # or image boundary would mix neighbouring samples.
    rng = np.random.default_rng(27)
    layer = nn.Conv2d(2, 3, 3, stride=1, padding=0, rng=rng)
    x = Tensor(rng.normal(size=(2, 2, 4, 6)), requires_grad=True)

    def forward() -> Tensor:
        return _weighted_sum(layer(x), np.random.default_rng(28))

    return forward, [("x", x)] + _params(layer)


@case("conv2d_rect_stride1")
def _conv2d_rect_stride1():
    # A non-square kernel with padding on one axis only: each sample's
    # span depends on kh, kw and the padded width separately.
    rng = np.random.default_rng(81)
    layer = nn.Conv2d(2, 3, (1, 3), stride=1, padding=(0, 1), rng=rng)
    x = Tensor(rng.normal(size=(2, 2, 3, 5)), requires_grad=True)

    def forward() -> Tensor:
        return _weighted_sum(layer(x), np.random.default_rng(82))

    return forward, [("x", x)] + _params(layer)


@case("batchnorm2d")
def _batchnorm2d():
    rng = np.random.default_rng(31)
    layer = nn.BatchNorm2d(3)
    layer.train()
    x = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)

    def forward() -> Tensor:
        return _weighted_sum(layer(x), np.random.default_rng(32))

    return forward, [("x", x)] + _params(layer)


@case("batchnorm1d")
def _batchnorm1d():
    rng = np.random.default_rng(33)
    layer = nn.BatchNorm1d(5)
    layer.train()
    x = Tensor(rng.normal(size=(6, 5)), requires_grad=True)

    def forward() -> Tensor:
        return _weighted_sum(layer(x), np.random.default_rng(34))

    return forward, [("x", x)] + _params(layer)


@case("batchnorm2d_eval")
def _batchnorm2d_eval():
    rng = np.random.default_rng(35)
    layer = nn.BatchNorm2d(3)
    layer.running_mean[...] = rng.normal(size=3)
    layer.running_var[...] = rng.uniform(0.5, 2.0, size=3)
    layer.gamma.data[...] = rng.normal(1.0, 0.3, size=3)
    layer.beta.data[...] = rng.normal(size=3)
    layer.eval()
    x = Tensor(rng.normal(size=(2, 3, 3, 4)), requires_grad=True)

    def forward() -> Tensor:
        return _weighted_sum(layer(x), np.random.default_rng(36))

    return forward, [("x", x)] + _params(layer)


@case("max_pool2d")
def _max_pool2d():
    rng = np.random.default_rng(41)
    x = Tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True)

    def forward() -> Tensor:
        return _weighted_sum(F.max_pool2d(x, 2), np.random.default_rng(42))

    return forward, [("x", x)]


@case("avg_pool2d")
def _avg_pool2d():
    rng = np.random.default_rng(43)
    x = Tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True)

    def forward() -> Tensor:
        return _weighted_sum(F.avg_pool2d(x, 2), np.random.default_rng(44))

    return forward, [("x", x)]


@case("global_avg_pool2d")
def _global_avg_pool2d():
    rng = np.random.default_rng(45)
    x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)

    def forward() -> Tensor:
        return _weighted_sum(F.global_avg_pool2d(x),
                             np.random.default_rng(46))

    return forward, [("x", x)]


@case("upsample_nearest2d")
def _upsample():
    rng = np.random.default_rng(47)
    x = Tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)

    def forward() -> Tensor:
        return _weighted_sum(F.upsample_nearest2d(x, 2),
                             np.random.default_rng(48))

    return forward, [("x", x)]


@case("pad2d")
def _pad2d():
    rng = np.random.default_rng(49)
    x = Tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)

    def forward() -> Tensor:
        return _weighted_sum(F.pad2d(x, (1, 2)), np.random.default_rng(50))

    return forward, [("x", x)]


@case("clip_clone")
def _clip_clone():
    rng = np.random.default_rng(83)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)

    def forward() -> Tensor:
        return _weighted_sum(x.clip(-0.5, 0.5) + x.clone(),
                             np.random.default_rng(84))

    return forward, [("x", x)]


@case("max")
def _max():
    rng = np.random.default_rng(85)
    x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)

    def forward() -> Tensor:
        rows = _weighted_sum(x.max(axis=1), np.random.default_rng(86))
        return rows + x.max()

    return forward, [("x", x)]


@case("concatenate_stack")
def _concatenate_stack():
    rng = np.random.default_rng(87)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 2)), requires_grad=True)

    def forward() -> Tensor:
        joined = nn.concatenate([a, b], axis=1)
        return _weighted_sum(nn.stack([joined, joined * joined], axis=1),
                             np.random.default_rng(88))

    return forward, [("a", a), ("b", b)]


@case("activations")
def _activations():
    rng = np.random.default_rng(51)
    x = Tensor(rng.normal(size=(3, 4)) + 0.05, requires_grad=True)

    def forward() -> Tensor:
        stages = x.relu() + x.leaky_relu(0.1) + x.silu() + x.tanh() + x.sigmoid()
        return _weighted_sum(stages, np.random.default_rng(52))

    return forward, [("x", x)]


@case("softmax")
def _softmax():
    rng = np.random.default_rng(53)
    x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)

    def forward() -> Tensor:
        return _weighted_sum(F.softmax(x, axis=-1),
                             np.random.default_rng(54))

    return forward, [("x", x)]


@case("log_softmax")
def _log_softmax():
    rng = np.random.default_rng(55)
    x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)

    def forward() -> Tensor:
        return _weighted_sum(F.log_softmax(x, axis=-1),
                             np.random.default_rng(56))

    return forward, [("x", x)]


@case("dropout")
def _dropout():
    rng = np.random.default_rng(57)
    layer = nn.Dropout(p=0.4, seed=7)
    layer.train()
    x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)

    def forward() -> Tensor:
        # Re-seed per evaluation so every finite-difference probe sees the
        # identical dropout mask; without this the loss itself is stochastic
        # and central differences measure mask noise, not the gradient.
        layer._rng = np.random.default_rng(7)
        return _weighted_sum(layer(x), np.random.default_rng(58))

    return forward, [("x", x)]


@case("conv_block")
def _conv_block():
    rng = np.random.default_rng(61)
    block = nn.ConvBlock(2, 3, kernel_size=3, rng=rng)
    block.train()
    x = Tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)

    def forward() -> Tensor:
        return _weighted_sum(block(x), np.random.default_rng(62))

    return forward, [("x", x)] + _params(block)


@case("conv_block_eval")
def _conv_block_eval():
    rng = np.random.default_rng(65)
    block = nn.ConvBlock(2, 3, kernel_size=3, stride=2, rng=rng)
    block.bn.running_mean[...] = rng.normal(scale=0.5, size=3)
    block.bn.running_var[...] = rng.uniform(0.5, 2.0, size=3)
    block.eval()
    x = Tensor(rng.normal(size=(1, 2, 5, 7)), requires_grad=True)

    def forward() -> Tensor:
        return _weighted_sum(block(x), np.random.default_rng(66))

    return forward, [("x", x)] + _params(block)


@case("conv_block_eval_frozen")
def _conv_block_eval_frozen():
    # Frozen parameters, as in an attack query: only the input gradient
    # runs, over a batch.
    rng = np.random.default_rng(67)
    block = nn.ConvBlock(2, 3, kernel_size=3, stride=2, rng=rng)
    block.bn.running_mean[...] = rng.normal(scale=0.5, size=3)
    block.bn.running_var[...] = rng.uniform(0.5, 2.0, size=3)
    block.bn.gamma.data[...] = rng.normal(1.0, 0.3, size=3)
    block.bn.beta.data[...] = rng.normal(size=3)
    block.eval()
    x = Tensor(rng.normal(size=(3, 2, 5, 7)), requires_grad=True)

    def forward() -> Tensor:
        with block.frozen():
            return _weighted_sum(block(x), np.random.default_rng(68))

    return forward, [("x", x)]


@case("sequential_flatten")
def _sequential_flatten():
    rng = np.random.default_rng(63)
    model = nn.Sequential(nn.Conv2d(1, 2, 3, padding=1, rng=rng),
                          nn.ReLU(), nn.Flatten(), nn.Linear(2 * 4 * 4, 3,
                                                             rng=rng))
    x = Tensor(rng.normal(size=(2, 1, 4, 4)), requires_grad=True)

    def forward() -> Tensor:
        return _weighted_sum(model(x), np.random.default_rng(64))

    return forward, [("x", x)] + _params(model)


# ---------------------------------------------------------------------------
# Loss cases
# ---------------------------------------------------------------------------

@case("mse_loss")
def _mse():
    rng = np.random.default_rng(71)
    pred = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    target = rng.normal(size=(4, 3))

    def forward() -> Tensor:
        return losses.mse_loss(pred, target)

    return forward, [("pred", pred)]


@case("smooth_l1_loss")
def _smooth_l1():
    rng = np.random.default_rng(73)
    # Keep |pred - target| away from the quadratic/linear switch at beta,
    # where the loss is only C^1 and finite differences straddle the kink.
    pred = Tensor(rng.normal(size=(4, 3)) * 3.0, requires_grad=True)
    target = np.zeros((4, 3))

    def forward() -> Tensor:
        return losses.smooth_l1_loss(pred, target, beta=0.5)

    return forward, [("pred", pred)]


@case("bce_with_logits")
def _bce():
    rng = np.random.default_rng(75)
    logits = Tensor(rng.normal(size=(4, 3)) + 0.2, requires_grad=True)
    target = (rng.random((4, 3)) > 0.5).astype(np.float64)

    def forward() -> Tensor:
        return losses.bce_with_logits(logits, target)

    return forward, [("logits", logits)]


@case("cross_entropy")
def _cross_entropy():
    rng = np.random.default_rng(77)
    logits = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    labels = rng.integers(0, 4, size=5)

    def forward() -> Tensor:
        return losses.cross_entropy(logits, labels)

    return forward, [("logits", logits)]


@case("info_nce")
def _info_nce():
    rng = np.random.default_rng(79)
    a = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 6)), requires_grad=True)

    def forward() -> Tensor:
        return losses.info_nce(a, b, temperature=0.3, margin=0.1)

    return forward, [("a", a), ("b", b)]
