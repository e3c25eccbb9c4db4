"""AMSGrad: single-step hand evaluation, zero-gradient fixed point,
max-accumulator monotonicity."""

import numpy as np
import pytest

from notemort.ndcore import AmsGrad, parameter
from notemort.ndcore.optim import BETA1, BETA2, EPS


def test_single_step_hand_evaluation():
    p = parameter(np.array([1.0]))
    opt = AmsGrad({"w": p}, lr=1e-3)
    p.grad = np.array([0.5])
    opt.step()
    # m_hat = 0.5, sqrt(vhat_corrected) = 0.5 -> update magnitude ~ lr
    update = 1.0 - p.data[0]
    assert update == pytest.approx(1e-3 * 0.5 / (0.5 + 1e-8), rel=1e-12)
    assert opt.t == 1


def test_zero_gradient_leaves_params_unchanged():
    p = parameter(np.array([2.0, -3.0]))
    opt = AmsGrad({"w": p})
    for _ in range(5):
        p.grad = np.zeros(2)
        opt.step()
    np.testing.assert_array_equal(p.data, [2.0, -3.0])
    assert opt.t == 5


def test_missing_grad_treated_as_zero():
    p = parameter(np.array([1.0]))
    opt = AmsGrad({"w": p})
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0])


def test_vhat_nondecreasing_under_shrinking_gradients():
    rng = np.random.default_rng(0)
    p = parameter(rng.standard_normal(8))
    opt = AmsGrad({"w": p})
    prev = opt.vhat["w"].copy()
    for step in range(1, 30):
        p.grad = rng.standard_normal(8) / step  # |g| decreasing
        opt.step()
        assert np.all(opt.vhat["w"] >= prev)
        prev = opt.vhat["w"].copy()


def test_bias_correction_matches_manual_two_steps():
    p = parameter(np.array([0.0]))
    lr, b1, b2, eps = 0.01, BETA1, BETA2, EPS
    opt = AmsGrad({"w": p}, lr=lr)
    grads = [0.3, -0.2]
    m = v = vhat = 0.0
    x = 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        vhat = max(vhat, v)
        x -= lr * (m / (1 - b1**t)) / (np.sqrt(vhat / (1 - b2**t)) + eps)
        p.grad = np.array([g])
        opt.step()
    assert p.data[0] == pytest.approx(x, rel=1e-12)
