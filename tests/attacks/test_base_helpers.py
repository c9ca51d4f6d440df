"""Loss-adapter and mask helpers in repro.attacks.base."""

import numpy as np
import pytest

from repro.attacks import (BatchLossAdapter, boxes_to_mask, full_mask,
                           input_gradient, slice_loss_fn)
from repro.nn import Tensor


class TestBoxesToMask:
    def test_basic_rasterization(self):
        mask = boxes_to_mask([(2, 3, 5, 6)], 8, 8)
        assert mask.shape == (1, 1, 8, 8)
        assert mask[0, 0, 3:6, 2:5].all()
        assert mask.sum() == 9

    def test_none_boxes_are_empty(self):
        mask = boxes_to_mask([None, (0, 0, 2, 2)], 4, 4)
        assert mask[0].sum() == 0
        assert mask[1].sum() == 4

    def test_boxes_clipped_to_frame(self):
        mask = boxes_to_mask([(-5, -5, 100, 100)], 8, 8)
        assert mask.sum() == 64

    def test_fractional_boxes_expand_outward(self):
        mask = boxes_to_mask([(1.4, 1.4, 2.6, 2.6)], 8, 8)
        # floor(1.4)=1, ceil(2.6)=3 -> 2x2 block
        assert mask[0, 0, 1:3, 1:3].all()

    def test_full_mask_shape(self):
        images = np.zeros((3, 3, 5, 7), dtype=np.float32)
        mask = full_mask(images)
        assert mask.shape == (3, 1, 5, 7)
        assert mask.all()

    def test_empty_box_list(self):
        mask = boxes_to_mask([], 6, 9)
        assert mask.shape == (0, 1, 6, 9)

    def test_matches_scalar_reference(self):
        # The vectorized rasterizer must agree with the per-pixel definition.
        def reference(boxes, height, width):
            masks = np.zeros((len(boxes), 1, height, width), dtype=np.float32)
            for i, box in enumerate(boxes):
                if box is None:
                    continue
                x1, y1, x2, y2 = box
                x1 = int(np.clip(np.floor(x1), 0, width))
                y1 = int(np.clip(np.floor(y1), 0, height))
                x2 = int(np.clip(np.ceil(x2), 0, width))
                y2 = int(np.clip(np.ceil(y2), 0, height))
                masks[i, 0, y1:y2, x1:x2] = 1.0
            return masks

        rng = np.random.default_rng(0)
        boxes = [None]
        for _ in range(25):
            x1, y1 = rng.uniform(-10, 30, 2)
            boxes.append((x1, y1, x1 + rng.uniform(-2, 25),
                          y1 + rng.uniform(-2, 25)))
        boxes.append((0, 0, 0, 0))          # degenerate
        boxes.append((100, 100, 200, 200))  # fully outside
        got = boxes_to_mask(boxes, 17, 23)
        np.testing.assert_array_equal(got, reference(boxes, 17, 23))
        assert got.dtype == np.float32


class TestInputGradient:
    def test_gradient_of_sum_is_ones(self):
        images = np.random.default_rng(0).random((2, 1, 3, 3)).astype(np.float32)
        _, grad = input_gradient(images, lambda x: x.sum())
        np.testing.assert_array_equal(grad, np.ones_like(images))

    def test_mask_zeroes_outside(self):
        images = np.random.default_rng(1).random((1, 1, 4, 4)).astype(np.float32)
        mask = np.zeros((1, 1, 4, 4), dtype=np.float32)
        mask[0, 0, :2] = 1.0
        _, grad = input_gradient(images, lambda x: (x * x).sum(), mask=mask)
        assert (grad[0, 0, 2:] == 0).all()
        assert (grad[0, 0, :2] != 0).any()

    def test_does_not_mutate_input(self):
        images = np.random.default_rng(2).random((1, 1, 3, 3)).astype(np.float32)
        original = images.copy()
        input_gradient(images, lambda x: (x * 2.0).sum())
        np.testing.assert_array_equal(images, original)


class TestBatchLossAdapter:
    def test_batch_and_single_paths(self):
        adapter = BatchLossAdapter(
            lambda x: x.sum(),
            lambda x, i: x.sum() * (i + 1))
        x = Tensor(np.ones((2, 1, 2, 2), dtype=np.float32))
        assert adapter(x).item() == pytest.approx(8.0)
        single = adapter.for_index(1)
        one = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32))
        assert single(one).item() == pytest.approx(8.0)

    def test_slice_loss_fn_passthrough_for_closures(self):
        plain = lambda x: x.sum()
        assert slice_loss_fn(plain, 3) is plain

    def test_slice_loss_fn_uses_adapter(self):
        adapter = BatchLossAdapter(lambda x: x.sum(),
                                   lambda x, i: x.sum() * 0.0)
        sliced = slice_loss_fn(adapter, 0)
        x = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32))
        assert sliced(x).item() == 0.0  # repro: noqa[R005] -- masked-out region is written as exact zeros
