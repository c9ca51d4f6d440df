"""Diffusion-model defense — §IV-C, eq. (9): DiffPIR restoration.

Two pieces:

* :class:`DenoisingDiffusionModel` — a small DDPM: a fully-convolutional
  noise predictor ``eps_theta(x_t, sigma_t)`` (noise level injected as an
  extra input plane) trained with the standard denoising objective on
  *clean* domain images.  Being fully convolutional, one architecture serves
  both the 64x64 sign images and the 64x128 driving frames.
* :class:`DiffPIRDefense` — the plug-and-play restoration loop of Zhu et
  al. 2023 with identity degradation operator ``H = I`` (the adversarial
  image is treated as a noisy observation of the clean one): each step
  (1) predicts the clean image x0 from the current iterate (denoising),
  (2) takes the data-consistency proximal step
      ``x0_hat = (rho_t * x0 + y) / (rho_t + 1)``,
  (3) renoises to the next time step mixing predicted and fresh noise with
      the zeta parameter — exactly the three terms of eq. (9).

The paper's operational findings reproduce mechanically: restoration erases
high-frequency adversarial structure (strong defense when the attack is
strong), but the generative prior also "repairs" *legitimate* detail — weak
attacks come back slightly degraded and small distant vehicles come back
slightly blurrier, which biases distance predictions negative at long range.
"""

from __future__ import annotations

import math
import time
from typing import List, Optional

import numpy as np

from .base import InputDefense
from ..models.training import EpochCheckpointer
from ..nn import Adam, Conv2d, Module, SiLU, Tensor, losses, no_grad
from ..nn import functional as F


def cosine_alpha_bar(timesteps: int, s: float = 0.008) -> np.ndarray:
    """Nichol & Dhariwal cosine schedule for cumulative alpha."""
    steps = np.arange(timesteps + 1, dtype=np.float64)
    f = np.cos((steps / timesteps + s) / (1 + s) * math.pi / 2) ** 2
    alpha_bar = f / f[0]
    return alpha_bar[1:].astype(np.float32)  # length T, index t-1


class NoisePredictor(Module):
    """eps_theta(x_t, sigma_t): a small encoder/decoder noise predictor.

    Input is RGB plus a constant noise-level plane.  The body runs at half
    resolution (stride-2 encoder, nearest-neighbour decoder) for speed; a
    parallel full-resolution 3x3 path preserves the high-frequency detail
    that noise prediction needs.
    """

    def __init__(self, hidden: int = 40, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.down = Conv2d(4, hidden, 3, stride=2, padding=1, rng=rng)
        self.body1 = Conv2d(hidden, hidden, 3, padding=1, rng=rng)
        self.body2 = Conv2d(hidden, hidden, 3, padding=1, rng=rng)
        self.up_out = Conv2d(hidden, 3, 3, padding=1, rng=rng)
        self.full_res = Conv2d(4, 16, 3, padding=1, rng=rng)
        self.full_out = Conv2d(16, 3, 3, padding=1, rng=rng)
        self.act = SiLU()

    def forward(self, x_t: Tensor, sigma: np.ndarray) -> Tensor:
        """``sigma`` is a per-sample noise level, shape (N,)."""
        n, _, h, w = x_t.shape
        plane = np.broadcast_to(
            np.asarray(sigma, dtype=np.float32).reshape(n, 1, 1, 1),
            (n, 1, h, w)).copy()
        from ..nn.tensor import concatenate
        stacked = concatenate([x_t, Tensor(plane)], axis=1)
        body = self.act(self.down(stacked))
        body = self.act(self.body1(body)) + body
        body = self.act(self.body2(body)) + body
        coarse = F.upsample_nearest2d(self.up_out(body), 2)
        fine = self.full_out(self.act(self.full_res(stacked)))
        return coarse + fine


class DenoisingDiffusionModel:
    """A small DDPM over domain images in [0,1] (internally [-1,1])."""

    def __init__(self, timesteps: int = 100, hidden: int = 40, seed: int = 0):
        self.timesteps = timesteps
        self.alpha_bar = cosine_alpha_bar(timesteps)
        self.network = NoisePredictor(hidden=hidden,
                                      rng=np.random.default_rng(seed))
        self._rng = np.random.default_rng(seed + 7)

    # -- scaling helpers ------------------------------------------------
    @staticmethod
    def to_model_space(images: np.ndarray) -> np.ndarray:
        return (images * 2.0 - 1.0).astype(np.float32)

    @staticmethod
    def to_image_space(arr: np.ndarray) -> np.ndarray:
        return np.clip((arr + 1.0) / 2.0, 0.0, 1.0).astype(np.float32)

    def sigma(self, t: np.ndarray) -> np.ndarray:
        """Noise std at (0-indexed) timestep array ``t``."""
        return np.sqrt(1.0 - self.alpha_bar[t]).astype(np.float32)

    # -- training --------------------------------------------------------
    def train(self, images: np.ndarray, epochs: int = 20,
              batch_size: int = 32, lr: float = 2e-3,
              checkpoint: Optional[EpochCheckpointer] = None) -> List[float]:
        """Denoising score matching on clean images; returns loss history.

        Epoch snapshots (``checkpoint``) capture the noise-predictor
        weights, the Adam moments and ``self._rng`` (which drives batch
        order, timestep draws and noise), so a killed prior training
        resumes bit-identically.
        """
        data = self.to_model_space(images)
        optimizer = Adam(self.network.parameters(), lr=lr)
        history: List[float] = []
        start_epoch = 0
        if checkpoint is not None:
            start_epoch, history = checkpoint.resume(self.network, optimizer,
                                                     self._rng)
        self.network.train()
        for epoch in range(start_epoch, epochs):
            order = self._rng.permutation(len(data))
            epoch_losses = []
            for start in range(0, len(data), batch_size):
                batch = data[order[start:start + batch_size]]
                t = self._rng.integers(0, self.timesteps, size=len(batch))
                noise = self._rng.standard_normal(batch.shape).astype(np.float32)
                ab = self.alpha_bar[t].reshape(-1, 1, 1, 1)
                x_t = np.sqrt(ab) * batch + np.sqrt(1 - ab) * noise
                optimizer.zero_grad()
                predicted = self.network(Tensor(x_t), self.sigma(t))
                loss = losses.mse_loss(predicted, noise)
                loss.backward()
                optimizer.step()
                epoch_losses.append(loss.item())
            history.append(float(np.mean(epoch_losses)))
            if checkpoint is not None:
                checkpoint.save(epoch + 1, self.network, optimizer,
                                self._rng, history)
        self.network.eval()
        return history

    # -- inference helpers -------------------------------------------------
    def predict_noise(self, x_t: np.ndarray, t: int) -> np.ndarray:
        """eps_theta(x_t) at step ``t``, run through the network one sample
        at a time.

        At batch 16 every activation is several MB, so each layer streams
        the whole batch through memory; one sample's working set stays in
        cache.  The noise predictor has no cross-sample op (per-sample
        stride-1 convs, a per-slice stride-2 GEMM, no BatchNorm), so the
        result equals one batched forward bit for bit.
        """
        sigma = self.sigma(np.array([t]))
        eps = np.empty(x_t.shape, dtype=np.float32)
        with no_grad():
            for i in range(len(x_t)):
                eps[i] = self.network(Tensor(x_t[i:i + 1]), sigma).data[0]
        return eps

    def predict_x0(self, x_t: np.ndarray, t: int) -> np.ndarray:
        """x0 estimate from the noise prediction at step t."""
        ab = self.alpha_bar[t]
        eps = self.predict_noise(x_t, t)
        x0 = (x_t - np.sqrt(1 - ab) * eps) / np.sqrt(ab)
        return np.clip(x0, -1.5, 1.5)

    # -- persistence -------------------------------------------------------
    def state_dict(self):
        return self.network.state_dict()

    def load_state_dict(self, state) -> None:
        self.network.load_state_dict(state)


class DiffPIRDefense(InputDefense):
    """DiffPIR restoration (eq. 9) with identity degradation.

    Parameters mirror the DiffPIR paper: ``t_start`` sets how much of the
    diffusion trajectory is used (the implicit assumed degradation
    strength), ``lambda_`` scales the data-consistency weight rho_t, and
    ``zeta`` mixes predicted vs. fresh noise during renoising.
    """

    name = "Diffusion"

    def __init__(self, model: DenoisingDiffusionModel, t_start: int = 15,
                 n_steps: int = 5, lambda_: float = 7.0, zeta: float = 0.0,
                 sigma_n: float = 0.12, seed: int = 0):
        if t_start >= model.timesteps:
            raise ValueError("t_start must be < model.timesteps")
        # Fewer than one step returns the rescaled input undenoised; more
        # than t_start repeats timesteps of the integer schedule.
        if not 1 <= n_steps <= t_start:
            raise ValueError(f"n_steps must be in [1, t_start={t_start}], "
                             f"got {n_steps}")
        self.model = model
        self.t_start = int(t_start)
        self.n_steps = int(n_steps)
        self.lambda_ = float(lambda_)
        self.zeta = float(zeta)
        # Assumed measurement-noise level of the degraded observation, in
        # [0,1] image space.  Enters the DiffPIR data-consistency weight
        # rho_t = lambda * sigma_n^2 / sigma_t^2.
        self.sigma_n = float(sigma_n)
        self._rng = np.random.default_rng(seed)
        self.last_runtime_s: Optional[float] = None

    def purify(self, images: np.ndarray) -> np.ndarray:
        started = time.perf_counter()
        y = self.model.to_model_space(images)
        ab = self.model.alpha_bar
        # Time schedule: t_start -> 0 in n_steps.
        schedule = np.linspace(self.t_start, 0, self.n_steps + 1).astype(int)
        # Initialize at x_{t_start} by *rescaling* the observation: the
        # degradation already plays the role of the forward-process noise
        # (y = x + n), so x_t ~= sqrt(abar_t) * y.  Adding fresh noise on
        # top (plain DDPM inversion) would overshoot the noise level the
        # denoiser is told about and only destroy more signal.
        t0 = schedule[0]
        x = np.sqrt(ab[t0]) * y
        for t_now, t_next in zip(schedule[:-1], schedule[1:]):
            # (1) denoise: predict x0.
            x0 = self.model.predict_x0(x, int(t_now))
            # (2) data consistency: proximal step toward the observation.
            # DiffPIR weight rho_t = lambda * sigma_n^2 / sigma_t^2: early
            # (noisy) steps trust the observation, late steps trust the
            # prior's estimate.  sigma_n is doubled to model space [-1, 1].
            sigma_t2 = max(1.0 - ab[t_now], 1e-8)
            sigma_n_model = 2.0 * self.sigma_n
            rho = self.lambda_ * (sigma_n_model ** 2) / float(sigma_t2)
            x0_hat = (rho * x0 + y) / (rho + 1.0)
            if t_next <= 0:
                x = x0_hat
                break
            # (3) renoise to t_next mixing predicted and fresh noise.
            eps_hat = ((x - np.sqrt(ab[t_now]) * x0_hat)
                       / np.sqrt(max(1.0 - ab[t_now], 1e-8)))
            fresh = self._rng.standard_normal(x.shape).astype(np.float32)
            mixed = (np.sqrt(1 - self.zeta) * eps_hat
                     + np.sqrt(self.zeta) * fresh)
            x = (np.sqrt(ab[t_next]) * x0_hat
                 + np.sqrt(1 - ab[t_next]) * mixed)
        result = self.model.to_image_space(x)
        self.last_runtime_s = time.perf_counter() - started
        return result

    def __repr__(self) -> str:
        return (f"DiffPIRDefense(t_start={self.t_start}, "
                f"n_steps={self.n_steps}, zeta={self.zeta})")
