"""Attack gradient queries: input-only backward sweeps, one forward each.

Every white-box attack reaches the model through ``input_gradient``, which
returns the loss and the input gradient of one sweep and runs it inside
``model.frozen()``.  These tests pin three contracts: attacks leave the
model's parameters exactly as they found them (no ``grad``, still
trainable), Auto-PGD returns the same bits as its former two-forward loop,
and it makes ``n_iter`` backward sweeps and ``n_iter + 1`` forwards.
"""

from typing import Optional

import numpy as np
import pytest

from repro.attacks import (AutoPGDAttack, BatchLossAdapter, CAPAttack,
                           FGSMAttack, PGDAttack, RP2Attack, SimBAAttack,
                           boxes_to_mask, detector_loss_fn, input_gradient,
                           regressor_loss_fn)
from repro.attacks.autopgd import _checkpoints
from repro.models.detector import TinyDetector
from repro.models.distance import DistanceRegressor
from repro.nn import Tensor, hooks, no_grad

pytestmark = pytest.mark.smoke

N, H, W = 3, 32, 48
SIGN = 32


class Boom(RuntimeError):
    pass


def fresh_regressor() -> DistanceRegressor:
    return DistanceRegressor(rng=np.random.default_rng(3)).eval()


def fresh_detector() -> TinyDetector:
    return TinyDetector(image_size=SIGN, rng=np.random.default_rng(4)).eval()


def driving_batch():
    rng = np.random.default_rng(5)
    images = rng.random((N, 3, H, W)).astype(np.float32)
    boxes = [(8, 6, 30, 20), (20, 10, 44, 28), (2, 2, 16, 14)]
    return images, np.array([20.0, 35.0, 50.0]), boxes


def sign_batch():
    rng = np.random.default_rng(6)
    images = rng.random((2, 3, SIGN, SIGN)).astype(np.float32)
    return images, [[(8.0, 8.0, 20.0, 20.0)], [(12.0, 4.0, 28.0, 18.0)]]


def regressor_case(attack):
    """(model, perturb(loss_fn), loss_fn) for a masked regressor attack."""
    model = fresh_regressor()
    images, distances, boxes = driving_batch()
    mask = boxes_to_mask(boxes, H, W)

    def perturb(loss_fn):
        return attack.perturb(images, loss_fn, mask=mask)

    return model, perturb, regressor_loss_fn(model, distances)


def detector_case(attack):
    """(model, perturb(loss_fn), loss_fn) for a masked detector attack."""
    model = fresh_detector()
    images, targets = sign_batch()
    mask = boxes_to_mask([boxes[0] for boxes in targets], SIGN, SIGN)

    def perturb(loss_fn):
        return attack.perturb(images, loss_fn, mask=mask)

    return model, perturb, detector_loss_fn(model, targets)


CASES = {
    "fgsm-regressor": lambda: regressor_case(FGSMAttack(eps=0.05)),
    "fgsm-detector": lambda: detector_case(FGSMAttack(eps=0.05)),
    "autopgd-regressor": lambda: regressor_case(
        AutoPGDAttack(eps=0.05, n_iter=4, seed=1)),
    "autopgd-detector": lambda: detector_case(
        AutoPGDAttack(eps=0.05, n_iter=4, seed=1)),
    "pgd-regressor": lambda: regressor_case(
        PGDAttack(eps=0.05, n_iter=2, seed=1)),
    "cap-regressor": lambda: regressor_case(CAPAttack(steps_per_frame=2)),
    "rp2-detector": lambda: detector_case(RP2Attack(n_iter=2,
                                                    n_transforms=2)),
    "simba-regressor": lambda: regressor_case(
        SimBAAttack(eps=0.2, max_queries=6, seed=1)),
}


def assert_untouched(model) -> None:
    for name, param in model.named_parameters():
        assert param.grad is None, name
        assert param.requires_grad is True, name


def raising(adapter: BatchLossAdapter) -> BatchLossAdapter:
    """The same loss, raising after the model forward of its first call."""
    def guard(loss: Tensor) -> Tensor:
        raise Boom("mid-query")

    return BatchLossAdapter(lambda x: guard(adapter(x)),
                            lambda x, i: guard(adapter.for_index(i)(x)),
                            adapter.model)


# ---------------------------------------------------------------------------
# (a) attacks leave the parameters as they found them
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", sorted(CASES))
def test_perturb_leaves_parameters_untouched(case):
    model, perturb, loss_fn = CASES[case]()
    adversarial = perturb(loss_fn)
    assert np.isfinite(adversarial).all()
    assert_untouched(model)


@pytest.mark.parametrize("case", sorted(CASES))
def test_parameters_restored_when_the_loss_raises(case):
    model, perturb, loss_fn = CASES[case]()
    with pytest.raises(Boom):
        perturb(raising(loss_fn))
    assert_untouched(model)


def test_frozen_query_matches_an_unfrozen_one():
    model = fresh_regressor()
    images, distances, boxes = driving_batch()
    mask = boxes_to_mask(boxes, H, W)
    adapter = regressor_loss_fn(model, distances)
    loss, grad = input_gradient(images, adapter, mask=mask)
    assert_untouched(model)
    # A plain closure carries no model: its sweep also fills param.grad.
    plain_loss, plain_grad = input_gradient(images, lambda x: adapter(x),
                                            mask=mask)
    assert loss == plain_loss  # repro: noqa[R005] -- same forward, same bits
    np.testing.assert_array_equal(grad, plain_grad)
    assert all(p.grad is not None for p in model.parameters())


def test_for_index_keeps_the_model():
    model = fresh_regressor()
    adapter = regressor_loss_fn(model, np.array([20.0, 30.0]))
    assert adapter.model is model
    assert adapter.for_index(1).model is model


# ---------------------------------------------------------------------------
# (b) Auto-PGD equals its former two-forward loop
# ---------------------------------------------------------------------------

def two_forward_autopgd(attack: AutoPGDAttack, images: np.ndarray, loss_fn,
                        mask: Optional[np.ndarray]):
    """The Auto-PGD loop as it was before queries returned the loss.

    Every iterate is differentiated with a full tape (parameters thawed)
    and then sent through the network a second time for its loss.
    Returns the adversarial batch and the number of step-halving resets.
    """
    def gradient(arr):
        x = Tensor(arr.copy(), requires_grad=True)
        loss_fn(x).backward()
        return x.grad if mask is None else x.grad * mask

    def loss_of(arr):
        return float(loss_fn(Tensor(arr)).data)

    x = images.astype(np.float32)
    start = x + attack.eps * attack._rng.uniform(
        -1, 1, size=x.shape).astype(np.float32)
    x_adv = attack._project(start, x, mask)
    step = 2.0 * attack.eps
    x_prev = x_adv.copy()
    best = x_adv.copy()
    best_loss = loss_of(x_adv)
    loss_at_last_checkpoint = best_loss
    step_at_last_checkpoint = step
    improving_steps = 0
    checkpoints = set(_checkpoints(attack.n_iter))
    since_checkpoint = 0
    resets = 0
    for iteration in range(1, attack.n_iter + 1):
        grad = gradient(x_adv)
        z = attack._project(x_adv + step * np.sign(grad), x, mask)
        x_next = attack._project(
            x_adv + attack.momentum * (z - x_adv)
            + (1.0 - attack.momentum) * (x_adv - x_prev), x, mask)
        x_prev = x_adv
        x_adv = x_next
        since_checkpoint += 1
        current = loss_of(x_adv)
        if current > best_loss:
            best_loss = current
            best = x_adv.copy()
            improving_steps += 1
        if iteration in checkpoints:
            cond1 = improving_steps < 0.75 * since_checkpoint
            cond2 = (step == step_at_last_checkpoint
                     and best_loss <= loss_at_last_checkpoint)
            if cond1 or cond2:
                step = max(step / 2.0, attack.eps / 64.0)
                x_adv = best.copy()
                x_prev = best.copy()
                resets += 1
            step_at_last_checkpoint = step
            loss_at_last_checkpoint = best_loss
            improving_steps = 0
            since_checkpoint = 0
    return best, resets


@pytest.mark.parametrize("masked", [False, True])
def test_autopgd_equals_the_two_forward_loop(masked):
    model = fresh_regressor()
    images, distances, boxes = driving_batch()
    mask = boxes_to_mask(boxes, H, W) if masked else None
    loss_fn = regressor_loss_fn(model, distances)
    kwargs = dict(eps=0.05, n_iter=12, seed=7)
    expected, resets = two_forward_autopgd(AutoPGDAttack(**kwargs), images,
                                           loss_fn, mask)
    assert resets > 0, "the schedule must exercise a step-halving reset"
    got = AutoPGDAttack(**kwargs).perturb(images, loss_fn, mask=mask)
    assert np.array_equal(got, expected)


# ---------------------------------------------------------------------------
# (c) one forward per iterate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_iter", [1, 5, 20])
def test_autopgd_sweep_counts(n_iter):
    model = fresh_regressor()
    images, distances, boxes = driving_batch()
    loss_fn = regressor_loss_fn(model, distances)
    # One model call is one counted forward pass.
    before = hooks.snapshot()
    with no_grad():
        loss_fn(Tensor(images))
    per_forward = hooks.snapshot()[0] - before[0]
    assert per_forward == 1

    before = hooks.snapshot()
    AutoPGDAttack(eps=0.05, n_iter=n_iter, seed=2).perturb(
        images, loss_fn, mask=boxes_to_mask(boxes, H, W))
    forwards, backwards = (after - start for after, start
                           in zip(hooks.snapshot(), before))
    assert backwards == n_iter
    assert forwards == (n_iter + 1) * per_forward


def test_simba_queries_record_no_tape():
    model = fresh_regressor()
    images, distances, _ = driving_batch()
    adapter = regressor_loss_fn(model, distances)
    outputs = []

    def loss_fn(x: Tensor) -> Tensor:
        outputs.append(adapter.for_index(0)(x))
        return outputs[-1]

    before = hooks.snapshot()
    SimBAAttack(eps=0.2, max_queries=5, seed=0).perturb(images[:1], loss_fn)
    assert hooks.snapshot()[1] == before[1]
    assert len(outputs) == 5
    assert not any(out.requires_grad for out in outputs)

