"""Adam update arithmetic and determinism."""

import math

import numpy as np
import pytest

from dagam import Tensor
from dagam.errors import ConfigError, DimensionError
from dagam.optim import Adam


def test_first_step_hand_evaluated():
    # With g=1, lr=1e-3: m=0.1, v=0.001; bias correction maps both to 1.0,
    # so the parameter moves by lr/(1+eps) (frozen from the update formulas).
    p = Tensor([1.0], requires_grad=True)
    opt = Adam([p], lr=1e-3)
    p.grad = np.array([1.0])
    opt.step()
    assert opt.t == 1
    np.testing.assert_allclose(opt.m[0], [0.1], atol=1e-15)
    np.testing.assert_allclose(opt.v[0], [0.001], atol=1e-15)
    np.testing.assert_allclose(p.data, [1.0 - 1e-3 / (1.0 + 1e-8)], atol=1e-15)
    assert abs(p.data[0] - 0.999) < 1e-6


def test_zero_gradient_leaves_parameter_unchanged():
    p = Tensor([2.0, -1.0], requires_grad=True)
    opt = Adam([p])
    p.grad = np.zeros(2)
    opt.step()
    np.testing.assert_array_equal(p.data, [2.0, -1.0])
    assert opt.t == 1


def test_none_gradient_treated_as_zero():
    p = Tensor([5.0], requires_grad=True)
    opt = Adam([p])
    opt.step()
    np.testing.assert_array_equal(p.data, [5.0])


def test_two_clones_step_byte_identically():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((4, 3))
    grads = [rng.standard_normal((4, 3)) for _ in range(2)]

    def run():
        p = Tensor(data.copy(), requires_grad=True)
        opt = Adam([p], lr=0.01)
        for g in grads:
            p.grad = g.copy()
            opt.step()
        return p.data

    assert np.array_equal(run(), run())


def test_nonpositive_learning_rate_rejected():
    with pytest.raises(ConfigError):
        Adam([Tensor([1.0])], lr=0.0)


@pytest.mark.parametrize("lr", [math.nan, math.inf])
def test_non_finite_learning_rate_rejected(lr):
    with pytest.raises(ConfigError, match="learning rate"):
        Adam([Tensor([1.0])], lr=lr)


def test_second_moment_stays_nonnegative():
    p = Tensor([0.5], requires_grad=True)
    opt = Adam([p])
    for g in (-3.0, 2.0, -0.1):
        p.grad = np.array([g])
        opt.step()
        assert (opt.v[0] >= 0).all()
    assert opt.t == 3


def test_wrong_grad_shape_leaves_no_half_applied_step():
    # The bad grad is the last one, so a check inside the update loop would
    # raise only after the earlier parameters and the counter had moved.
    a = Tensor([1.0, 1.0], requires_grad=True)
    b = Tensor([2.0, 3.0], requires_grad=True)
    opt = Adam([a, b], lr=0.1)
    a.grad = np.ones(2)
    b.grad = np.ones(3)
    with pytest.raises(DimensionError, match="grad shape"):
        opt.step()
    assert opt.t == 0
    np.testing.assert_array_equal(a.data, [1.0, 1.0])
    np.testing.assert_array_equal(b.data, [2.0, 3.0])
    for m, v in zip(opt.m, opt.v):
        np.testing.assert_array_equal(m, 0.0)
        np.testing.assert_array_equal(v, 0.0)
