"""Contrastive pretraining and the diffusion (DiffPIR) defense."""

import numpy as np
import pytest

from repro.defenses import (DenoisingDiffusionModel, DiffPIRDefense,
                            contrastive_pretrain, cosine_alpha_bar)
from repro.models import TinyDetector


class TestContrastive:
    def test_pretrain_loss_decreases(self, sign_scenes):
        model = TinyDetector(rng=np.random.default_rng(0))
        images = sign_scenes.images()
        history = contrastive_pretrain(model, images, epochs=6,
                                       batch_size=10, seed=0)
        assert history[-1] < history[0]

    def test_pretrain_changes_backbone(self, sign_scenes):
        model = TinyDetector(rng=np.random.default_rng(0))
        before = model.backbone.stage1.conv.weight.data.copy()
        contrastive_pretrain(model, sign_scenes.images()[:10], epochs=1,
                             batch_size=5, seed=0)
        assert not np.array_equal(before,
                                  model.backbone.stage1.conv.weight.data)

    def test_embeddings_of_views_align_after_training(self):
        from repro.nn import Tensor
        from repro.data.signs import SignDataset
        from repro.data.transforms import simclr_augment
        model = TinyDetector(rng=np.random.default_rng(0))
        images = SignDataset(48, seed=222).images()
        contrastive_pretrain(model, images, epochs=15, seed=0)
        rng = np.random.default_rng(1)
        model.eval()

        def cos(u, v):
            return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v) + 1e-9))

        def embed(arr):
            return model.backbone.embed(Tensor(arr[None])).data[0]

        # Aggregate over several anchors: views of the same image should be
        # closer (on average) than views of different images.
        same, cross = [], []
        for i in range(12):
            za = embed(simclr_augment(images[i], rng))
            zb = embed(simclr_augment(images[i], rng))
            zo = embed(images[(i + 17) % len(images)])
            same.append(cos(za, zb))
            cross.append(cos(za, zo))
        assert np.mean(same) > np.mean(cross)


class TestDiffusionSchedule:
    def test_alpha_bar_monotone_decreasing(self):
        ab = cosine_alpha_bar(100)
        assert len(ab) == 100
        assert all(b < a for a, b in zip(ab, ab[1:]))
        assert 0.0 < ab[-1] < ab[0] <= 1.0

    def test_sigma_increases_with_t(self):
        model = DenoisingDiffusionModel(timesteps=50)
        sigmas = model.sigma(np.arange(50))
        assert all(b >= a for a, b in zip(sigmas, sigmas[1:]))


class TestDDPMTraining:
    def test_training_reduces_loss(self):
        rng = np.random.default_rng(0)
        # Structured toy data: vertical gradient images.
        base = np.linspace(0, 1, 16, dtype=np.float32)
        images = np.stack([
            np.broadcast_to(base[None, :, None] * rng.uniform(0.5, 1.0),
                            (3, 16, 16)).astype(np.float32)
            for _ in range(32)])
        model = DenoisingDiffusionModel(timesteps=50, hidden=16, seed=0)
        history = model.train(images, epochs=6, batch_size=8)
        assert history[-1] < history[0]

    def test_predict_x0_shape(self):
        model = DenoisingDiffusionModel(timesteps=50, hidden=16, seed=0)
        x = np.zeros((2, 3, 16, 16), dtype=np.float32)
        out = model.predict_x0(x, 10)
        assert out.shape == x.shape

    def test_state_dict_roundtrip(self):
        model = DenoisingDiffusionModel(timesteps=50, hidden=16, seed=0)
        state = model.state_dict()
        other = DenoisingDiffusionModel(timesteps=50, hidden=16, seed=99)
        other.load_state_dict(state)
        x = np.random.default_rng(0).random((1, 3, 8, 8)).astype(np.float32)
        np.testing.assert_array_equal(model.predict_noise(x, 5),
                                      other.predict_noise(x, 5))


class TestDiffPIR:
    @pytest.fixture(scope="class")
    def trained_prior(self):
        # Use the zoo's cached prior: a well-trained DDPM is what the
        # DiffPIR algorithm assumes (an undertrained one *adds* error).
        from repro.models.zoo import get_diffusion
        return get_diffusion("signs")

    def test_output_shape_and_range(self, trained_prior, sign_scenes):
        defense = DiffPIRDefense(trained_prior, t_start=20, n_steps=5, seed=0)
        out = defense.purify(sign_scenes.images()[:2])
        assert out.shape == (2, 3, 64, 64)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_removes_noise_toward_clean(self, trained_prior, sign_scenes):
        rng = np.random.default_rng(1)
        clean = sign_scenes.images()[:4]
        noisy = np.clip(clean + rng.normal(0, 0.12, clean.shape), 0, 1
                        ).astype(np.float32)
        defense = DiffPIRDefense(trained_prior, seed=0)
        restored = defense.purify(noisy)
        assert (np.abs(restored - clean).mean()
                < np.abs(noisy - clean).mean())

    def test_runtime_recorded(self, trained_prior, sign_scenes):
        defense = DiffPIRDefense(trained_prior, t_start=10, n_steps=3, seed=0)
        defense.purify(sign_scenes.images()[:1])
        assert defense.last_runtime_s is not None
        assert defense.last_runtime_s > 0

    def test_invalid_t_start(self, trained_prior):
        with pytest.raises(ValueError):
            DiffPIRDefense(trained_prior, t_start=200)

    @pytest.mark.parametrize("n_steps", [-1, 0, 16])
    def test_step_count_out_of_range(self, trained_prior, n_steps):
        # Zero steps would return the rescaled input undenoised; more
        # steps than t_start would repeat timesteps of the schedule.
        with pytest.raises(ValueError, match="n_steps"):
            DiffPIRDefense(trained_prior, t_start=15, n_steps=n_steps)

    @pytest.mark.parametrize("n_steps", [1, 15])
    def test_step_count_range_ends(self, trained_prior, n_steps):
        defense = DiffPIRDefense(trained_prior, t_start=15, n_steps=n_steps)
        assert defense.n_steps == n_steps

    def test_more_steps_changes_output(self, trained_prior, sign_scenes):
        few = DiffPIRDefense(trained_prior, t_start=15, n_steps=2, seed=0)
        many = DiffPIRDefense(trained_prior, t_start=15, n_steps=10, seed=0)
        x = sign_scenes.images()[:1]
        assert not np.array_equal(few.purify(x), many.purify(x))
