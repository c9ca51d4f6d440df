"""``median_blur`` against a per-channel ``scipy.ndimage`` oracle.

The kernel filters a whole (N, C, H, W) batch at once: min/max
compare-exchanges for k = 3, a partition over shifted views for other odd
k.  The median of an odd window is one of its inputs, so every case must
equal scipy's ``mode="nearest"`` filter exactly, ties and ±inf included.
The old per-channel scipy loops of ``MedianBlur``, the router's scorer and
the training augmentation serve as oracles for their callers.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.ndimage import maximum_filter, median_filter

from repro.data.driving import generate_training_set, render_frame
from repro.data.transforms import gaussian_blur3, median_blur
from repro.defenses import MedianBlur
from repro.models.training import augment_batch
from repro.serving import AdmissionScorer

pytestmark = pytest.mark.smoke


def scipy_median(images, k):
    """The per-image, per-channel loop ``MedianBlur`` ran before."""
    out = np.empty_like(images, dtype=np.float32)
    for i in range(images.shape[0]):
        for c in range(images.shape[1]):
            out[i, c] = median_filter(images[i, c], size=k, mode="nearest")
    return out


@st.composite
def median_cases(draw):
    k = draw(st.sampled_from([1, 3, 5, 7]))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)),
             draw(st.integers(1, 20)), draw(st.integers(1, 20)))
    kind = draw(st.sampled_from(["continuous", "ties", "inf"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    images = rng.random(shape).astype(np.float32)
    if kind == "ties":
        images = np.round(images * 3) / 3
    elif kind == "inf":
        roll = rng.random(shape)
        images[roll < 0.15] = np.inf
        images[roll > 0.85] = -np.inf
    return k, images


@given(median_cases())
@example((3, np.zeros((1, 1, 1, 1), dtype=np.float32)))
@example((7, np.arange(6, dtype=np.float32).reshape(1, 1, 2, 3)))
@settings(max_examples=150, deadline=None)
def test_equals_scipy_median_filter(case):
    k, images = case
    out = median_blur(images, k)
    assert out.dtype == np.float32 and out.shape == images.shape
    assert np.array_equal(out, scipy_median(images, k))


@pytest.mark.parametrize("k", [3, 5])
def test_float64_input_gives_float32_output(k):
    images = np.random.default_rng(1).random((2, 3, 9, 11))
    out = median_blur(images, k)
    assert out.dtype == np.float32
    assert np.array_equal(out, scipy_median(images.astype(np.float32), k))


@pytest.mark.parametrize("k", [3, 5])
def test_batched_call_equals_per_frame_calls(k):
    images = np.random.default_rng(2).random((4, 3, 12, 17)).astype(np.float32)
    per_frame = np.concatenate([median_blur(images[i:i + 1], k)
                                for i in range(len(images))])
    assert np.array_equal(median_blur(images, k), per_frame)


@pytest.mark.parametrize("k", [0, 2, 4, -1])
def test_even_or_nonpositive_kernel_rejected(k):
    with pytest.raises(ValueError):
        median_blur(np.zeros((1, 1, 4, 4), dtype=np.float32), k)


def test_nan_marks_every_window_that_holds_it():
    rng = np.random.default_rng(3)
    images = rng.random((2, 3, 10, 13)).astype(np.float32)
    images[rng.random(images.shape) < 0.04] = np.nan
    images[0, 0, 0, 0] = images[1, 2, 9, 12] = np.nan  # corners
    out = median_blur(images, 3)
    nan_window = np.stack([
        [maximum_filter(np.isnan(channel), size=3, mode="nearest")
         for channel in image] for image in images])
    assert np.array_equal(np.isnan(out), nan_window)
    assert np.array_equal(out[~nan_window],
                          scipy_median(images, 3)[~nan_window])


def test_median_blur_defense_is_the_kernel():
    images = np.random.default_rng(4).random((3, 3, 16, 20)).astype(np.float32)
    for k in (3, 5):
        assert np.array_equal(MedianBlur(k).purify(images),
                              scipy_median(images, k))


def _scipy_score(scorer, frame):
    """``AdmissionScorer.score`` with the blur done by the scipy oracle."""
    batch = frame[None].astype(np.float32)
    residual = np.abs(batch - scipy_median(batch, 3))[0].mean(axis=0)
    band = ((residual >= scorer.band_low)
            & (residual < scorer.band_high)).astype(np.float32)
    k = scorer.window
    height = band.shape[0] // k * k
    width = band.shape[1] // k * k
    tiles = band[:height, :width].reshape(height // k, k, width // k, k)
    return float(tiles.mean(axis=(1, 3)).max())


def test_admission_score_matches_scipy_on_driving_frames():
    rng = np.random.default_rng(5)
    scorer = AdmissionScorer()
    frames = [render_frame(distance, rng).image
              for distance in (None, 8.0, 25.0, 60.0)]
    noisy = [np.clip(frame + rng.uniform(-0.06, 0.06, frame.shape),
                     0.0, 1.0).astype(np.float32) for frame in frames]
    scores = [scorer.score(frame) for frame in frames + noisy]
    assert scores == [_scipy_score(scorer, frame) for frame in frames + noisy]
    assert max(scores) > 0.0


def scipy_augment_batch(images, rng):
    """``augment_batch`` as it was with its own per-channel scipy loop."""
    out = images.copy()
    for i in range(len(out)):
        roll = rng.random()
        if roll < 0.25:
            out[i] += rng.normal(0, rng.uniform(0.01, 0.05),
                                 out[i].shape).astype(np.float32)
        elif roll < 0.40:
            out[i] = gaussian_blur3(out[i])
        elif roll < 0.55:
            for c in range(out.shape[1]):
                out[i, c] = median_filter(out[i, c], size=3, mode="nearest")
        elif roll < 0.70:
            bits = int(rng.integers(3, 6))
            levels = 2 ** bits - 1
            out[i] = np.round(out[i] * levels) / levels
        if rng.random() < 0.3:
            out[i] = out[i] * rng.uniform(0.85, 1.15) + rng.uniform(-0.08, 0.08)
    return np.clip(out, 0.0, 1.0).astype(np.float32)


def test_augment_batch_is_bit_identical_to_the_scipy_augment():
    images, _ = generate_training_set(64, seed=6)
    new = augment_batch(images, np.random.default_rng(7))
    old = scipy_augment_batch(images, np.random.default_rng(7))
    assert np.array_equal(new.view(np.uint32), old.view(np.uint32))
