"""Neural-network layers: a minimal ``Module`` system over the autodiff core.

The layer set covers what the paper's two models need — convolutions, batch
norm, pooling, linear heads, dropout — plus the projection head used by the
contrastive-learning defense.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import functional as F
from . import hooks
from . import init
from .tensor import Tensor


class Module:
    """Base class: tracks parameters, submodules, and train/eval mode."""

    def __init__(self) -> None:
        self._params: Dict[str, Tensor] = {}
        self._buffers: Dict[str, np.ndarray] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    # -- registration --------------------------------------------------
    def __setattr__(self, name, value):
        if isinstance(value, Tensor) and getattr(value, "requires_grad", False):
            self.__dict__.setdefault("_params", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        self._buffers[name] = np.asarray(value, dtype=np.float32)
        object.__setattr__(self, name, self._buffers[name])

    # -- traversal ------------------------------------------------------
    def parameters(self) -> Iterator[Tensor]:
        for _, p in self.named_parameters():
            yield p

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        for name, param in self._params.items():
            # Stamp the dotted path onto the tensor itself: every optimizer
            # construction walks this, so sanitizer reports can name the
            # exact weight that went non-finite (see repro.analysis.sanitize).
            param.name = prefix + name
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix + name + ".")

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name in self._buffers:
            yield prefix + name, self._buffers[name]
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix + name + ".")

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    # -- mode -----------------------------------------------------------
    def train(self) -> "Module":
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    @contextmanager
    def frozen(self) -> Iterator[None]:
        """Treat the parameters as constants for the block.

        Clears ``requires_grad`` on every parameter that has it, so ops
        run in the block keep no VJP for a parameter: their backward
        computes input gradients only and ``param.grad`` is left
        untouched, also when the backward runs after the block exits.
        On exit, even when the body raises, exactly the parameters it
        cleared get ``requires_grad`` back.  Nests.
        """
        # Walk _params directly: named_parameters() would rebuild and
        # re-stamp every dotted name on each attack query.
        thawed = [param for module in self.modules()
                  for param in module._params.values() if param.requires_grad]
        for param in thawed:
            param.requires_grad = False
        try:
            yield
        finally:
            for param in thawed:
                param.requires_grad = True

    # -- state dict -----------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        for name, buf in self.named_buffers():
            state["buffer." + name] = buf.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Copy ``state`` into the parameters and buffers.

        Every entry is checked before any is assigned, so a state dict that
        does not fit (a missing parameter, a wrong shape) raises
        ``KeyError`` / ``ValueError`` and leaves the module untouched.
        """
        targets = []
        for name, param in self.named_parameters():
            if name not in state:
                raise KeyError(f"missing parameter {name!r} in state dict")
            targets.append((name, param.data))
        targets += [("buffer." + name, buf) for name, buf
                    in self.named_buffers() if "buffer." + name in state]
        for key, array in targets:
            if array.shape != state[key].shape:
                raise ValueError(f"shape mismatch for {key!r}: "
                                 f"{array.shape} vs {state[key].shape}")
        for key, array in targets:
            array[...] = state[key]

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def __call__(self, *args, **kwargs):
        hooks.enter_module(self)
        try:
            return self.forward(*args, **kwargs)
        finally:
            hooks.exit_module()

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class Sequential(Module):
    """Chain modules; callable layers are applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers: List[Module] = []
        for i, layer in enumerate(layers):
            setattr(self, f"layer{i}", layer)
            self.layers.append(layer)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self.layers)

    def __getitem__(self, i: int) -> Module:
        return self.layers[i]


class Conv2d(Module):
    """2-D convolution (cross-correlation) layer."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        kh, kw = F._pair(kernel_size)
        fan_in = in_channels * kh * kw
        self.weight = Tensor(
            init.he_normal((out_channels, in_channels, kh, kw), fan_in, rng),
            requires_grad=True)
        self.bias = Tensor(init.zeros((out_channels,)), requires_grad=True) if bias else None
        self.stride = stride
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias,
                        stride=self.stride, padding=self.padding)


class Linear(Module):
    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.weight = Tensor(
            init.xavier_uniform((in_features, out_features), in_features,
                                out_features, rng),
            requires_grad=True)
        self.bias = Tensor(init.zeros((out_features,)), requires_grad=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class BatchNorm2d(Module):
    """Batch normalization over (N,H,W) per channel with running statistics."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.gamma = Tensor(init.ones((num_features,)), requires_grad=True)
        self.beta = Tensor(init.zeros((num_features,)), requires_grad=True)
        self.eps = eps
        self.momentum = momentum
        self.register_buffer("running_mean", init.zeros((num_features,)))
        self.register_buffer("running_var", init.ones((num_features,)))

    def forward(self, x: Tensor) -> Tensor:
        if not self.training:
            return F.batch_norm_eval(x, self.running_mean, self.running_var,
                                     self.gamma, self.beta, self.eps)
        mean = x.mean(axis=(0, 2, 3), keepdims=True)
        var = ((x - mean) ** 2).mean(axis=(0, 2, 3), keepdims=True)
        self.running_mean[...] = ((1 - self.momentum) * self.running_mean
                                  + self.momentum * mean.data.reshape(-1))
        self.running_var[...] = ((1 - self.momentum) * self.running_var
                                 + self.momentum * var.data.reshape(-1))
        x_hat = (x - mean) / (var + self.eps).sqrt()
        gamma = self.gamma.reshape(1, -1, 1, 1)
        beta = self.beta.reshape(1, -1, 1, 1)
        return x_hat * gamma + beta


class BatchNorm1d(Module):
    """Batch norm over the batch dimension of (N, F) inputs."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.gamma = Tensor(init.ones((num_features,)), requires_grad=True)
        self.beta = Tensor(init.zeros((num_features,)), requires_grad=True)
        self.eps = eps
        self.momentum = momentum
        self.register_buffer("running_mean", init.zeros((num_features,)))
        self.register_buffer("running_var", init.ones((num_features,)))

    def forward(self, x: Tensor) -> Tensor:
        if not self.training:
            return F.batch_norm_eval(x, self.running_mean, self.running_var,
                                     self.gamma, self.beta, self.eps)
        mean = x.mean(axis=0, keepdims=True)
        var = ((x - mean) ** 2).mean(axis=0, keepdims=True)
        self.running_mean[...] = ((1 - self.momentum) * self.running_mean
                                  + self.momentum * mean.data.reshape(-1))
        self.running_var[...] = ((1 - self.momentum) * self.running_var
                                 + self.momentum * var.data.reshape(-1))
        x_hat = (x - mean) / (var + self.eps).sqrt()
        return x_hat * self.gamma + self.beta


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class LeakyReLU(Module):
    def __init__(self, negative_slope: float = 0.1):
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.negative_slope)


class SiLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.silu()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class MaxPool2d(Module):
    def __init__(self, kernel_size: int = 2, stride: Optional[int] = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)


class AvgPool2d(Module):
    def __init__(self, kernel_size: int = 2, stride: Optional[int] = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride)


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.flatten(start_dim=1)


class Dropout(Module):
    def __init__(self, p: float = 0.5, seed: int = 0):
        super().__init__()
        self.p = p
        self._rng = np.random.default_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self._rng, training=self.training)


class ConvBlock(Module):
    """Conv → BatchNorm → SiLU, the repeating unit of both backbones."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int = 3,
                 stride: int = 1, rng: Optional[np.random.Generator] = None):
        super().__init__()
        padding = kernel_size // 2
        self.conv = Conv2d(in_channels, out_channels, kernel_size,
                           stride=stride, padding=padding, bias=False, rng=rng)
        self.bn = BatchNorm2d(out_channels)
        self.act = SiLU()

    def forward(self, x: Tensor) -> Tensor:
        return self.act(self.bn(self.conv(x)))
