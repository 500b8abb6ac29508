"""The finite-difference oracle itself, and the per-op gradient sweep."""

from functools import partial

import numpy as np
import pytest

from dagam import Tape, Tensor
from dagam import model, ops
from dagam.errors import ContractError, GradCheckError
from dagam.model import gcn_layer
from dagam.tensor import record_block

from gradcheck import finite_difference, grad_check, nonsmooth_margin, op_entries

TOL = 1e-4


def test_tanh_of_linear_map():
    rng = np.random.default_rng(0)
    w = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    err = grad_check(lambda w_, x_: ops.reduce_sum(ops.tanh(ops.matmul(w_, x_))), [w, x])
    assert err < TOL


def test_constant_function_has_zero_error():
    x = Tensor(np.ones(4), requires_grad=True)
    err = grad_check(lambda _: Tensor(2.5), [x])
    assert err == 0.0


def test_relu_kink_rejected_by_precondition():
    x = Tensor([1.0, 0.0, -1.0], requires_grad=True)
    with pytest.raises(ContractError):
        grad_check(lambda x_: ops.reduce_sum(ops.relu(x_)), [x])


def test_relu_kink_inside_a_gcn_layer_rejected():
    # x W has an exact zero, so the layer's relu sits on its kink; the tape
    # holds the GCN stack, attention, pooling and readout as one checkpointed
    # entry that keeps no ops, which the check must replay to look inside.
    x = Tensor([[[1.0, -1.0], [2.0, 0.5]]], requires_grad=True)
    w = Tensor([[1.0], [1.0]], requires_grad=True)
    w_att = Tensor([[1.0]], requires_grad=True)
    lap = Tensor(np.eye(2))
    block = partial(model._gcn_embedding, k=1.0)

    def f(x_, w_):
        embedding, _ = record_block("gcn_embedding", block, (x_, lap, w_att, w_))
        return ops.reduce_sum(embedding)

    with Tape() as tape:
        f(x, w)
    assert [e.op for e in tape.entries] == ["gcn_embedding", "sum"]
    assert nonsmooth_margin(tape) == 0.0
    with pytest.raises(ContractError):
        grad_check(f, [x, w])


def test_relu_kink_distance_inside_a_gcn_layer_is_read_from_its_recorded_input():
    # x W = [0.75, -3e-4, -0.5]: the layer's relu sits 3e-4 from its kink,
    # and its recorded input still holds the pre-activation after it ran.
    x = Tensor([[0.25, 0.5], [-1e-4, -2e-4], [-0.25, -0.25]], requires_grad=True)
    w = Tensor([[1.0], [1.0]], requires_grad=True)
    lap = Tensor(np.eye(3))
    with Tape() as tape:
        ops.reduce_sum(gcn_layer(lap, x, w))
    (relu,) = [e for e in op_entries(tape) if e.op == "relu"]
    np.testing.assert_array_equal(relu.inputs[0].data, x.data @ w.data)
    margin = nonsmooth_margin(tape)
    assert margin == pytest.approx(3e-4)
    assert grad_check(lambda x_, w_: ops.reduce_sum(gcn_layer(lap, x_, w_)), [x, w]) < TOL


@pytest.mark.parametrize("left", [(3, 4), (2, 3, 4), (2, 2, 3, 4)])
def test_matmul_with_a_2d_right_operand(left):
    # The left operand's gradient is taken against a contiguous copy of the
    # right operand's transpose; the operand here is itself a transposed view.
    rng = np.random.default_rng(len(left))
    a = Tensor(rng.standard_normal(left), requires_grad=True)
    b = Tensor(rng.standard_normal((2, 4)).T, requires_grad=True)
    assert not b.data.flags.c_contiguous
    assert grad_check(lambda a_, b_: ops.reduce_sum(ops.tanh(ops.matmul(a_, b_))), [a, b]) < TOL


def test_max_tie_rejected():
    # A 0-0 tie too: finite differences give [0.5, 0.5, 0] against an analytic
    # [1, 0, 0]. Only the model's margin (_helpers._model_margin) may pass such
    # ties, because there the zeros are relu-saturated and stay constant.
    for values in ([2.0, 2.0, 1.0], [0.0, 0.0, -1.0]):
        x = Tensor(values, requires_grad=True)
        with pytest.raises(ContractError):
            grad_check(lambda x_: ops.reduce_max(x_, axis=0), [x])


def test_non_scalar_function_rejected():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractError):
        grad_check(lambda x_: ops.mul(x_, x_), [x])


@pytest.mark.parametrize(
    "view",
    [lambda a: a.T, lambda a: a[::2, 1::2]],
    ids=["transposed", "strided_slice"],
)
def test_non_contiguous_inputs_are_perturbed_in_place(view):
    # A copy of the data (what reshape returns for a non-contiguous array)
    # would leave f unchanged by every probe and give an all-zero gradient.
    data = view(np.random.default_rng(5).standard_normal((4, 6)) + 3.0)
    assert not data.flags.c_contiguous
    x = Tensor(data, requires_grad=True)
    assert x.data is data
    before = data.copy()
    (numeric,) = finite_difference(lambda: float((x.data * x.data).sum()), [x])
    np.testing.assert_allclose(numeric, 2.0 * before, rtol=1e-8)
    np.testing.assert_array_equal(x.data, before)
    assert grad_check(lambda x_: ops.reduce_sum(ops.mul(x_, x_)), [x]) < TOL


@pytest.mark.parametrize("failing_call", [1, 2], ids=["upper_probe", "lower_probe"])
def test_a_raising_probe_leaves_the_tensor_as_it_was(failing_call):
    x = Tensor([1.0, 2.0], requires_grad=True)
    before = x.data.tobytes()
    calls = []

    def f():
        calls.append(1)
        if len(calls) == failing_call:
            raise RuntimeError("probe failed")
        return float(x.data.sum())

    with pytest.raises(RuntimeError, match="probe failed"):
        finite_difference(f, [x])
    assert x.data.tobytes() == before


def test_a_nan_gradient_raises_naming_its_input_and_position():
    x = Tensor([np.nan, 1.0], requires_grad=True)
    message = "NaN gradient for input 0 at flat index 0 (analytic=nan, numeric=nan)"
    with pytest.raises(GradCheckError) as caught:
        grad_check(lambda x_: ops.reduce_sum(ops.mul(x_, x_)), [x])
    assert str(caught.value) == message


def _away_from_zero(rng, shape, low=0.2, high=1.5):
    """Samples with |x| in [low, high]: clear of relu/log kinks."""
    signs = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return signs * rng.uniform(low, high, shape)


def _distinct(rng, shape, spacing=0.05):
    """Samples whose values pairwise differ by at least `spacing`."""
    n = int(np.prod(shape))
    base = np.arange(n) * (2.0 * spacing)
    rng.shuffle(base)
    return (base + rng.uniform(0.0, spacing, n)).reshape(shape)


def _op_cases(rng):
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    c = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    col = Tensor(rng.standard_normal((3, 1)), requires_grad=True)
    pos = Tensor(_away_from_zero(rng, (3, 4)), requires_grad=True)
    posonly = Tensor(rng.uniform(0.2, 2.0, (3, 4)), requires_grad=True)
    spread = Tensor(_distinct(rng, (3, 4)), requires_grad=True)
    logits = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
    mix = Tensor(rng.standard_normal((2, 5)))
    batched = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    lap = Tensor(rng.standard_normal((3, 3)))
    return [
        ("matmul", lambda: grad_check(lambda a_, b_: ops.reduce_sum(ops.matmul(a_, b_)), [a, b])),
        ("batched-matmul", lambda: grad_check(
            lambda x_, w_: ops.reduce_sum(ops.matmul(x_, w_)), [batched, w])),
        ("matmul-const-left", lambda: grad_check(
            lambda x_: ops.reduce_sum(ops.tanh(ops.matmul(lap, x_))), [batched])),
        ("add", lambda: grad_check(lambda a_, c_: ops.reduce_sum(ops.add(a_, c_)), [a, c])),
        ("mul-broadcast", lambda: grad_check(
            lambda a_, col_: ops.reduce_sum(ops.mul(a_, col_)), [a, col])),
        ("relu", lambda: grad_check(lambda p_: ops.reduce_sum(ops.relu(p_)), [pos])),
        ("tanh", lambda: grad_check(lambda a_: ops.reduce_sum(ops.tanh(a_)), [a])),
        ("log", lambda: grad_check(lambda p_: ops.reduce_sum(ops.log(p_)), [posonly])),
        ("sum-axis", lambda: grad_check(
            lambda a_: ops.reduce_sum(ops.tanh(ops.reduce_sum(a_, axis=0))), [a])),
        ("mean-axis", lambda: grad_check(
            lambda a_: ops.reduce_sum(ops.tanh(ops.reduce_mean(a_, axis=1))), [a])),
        ("max-axis", lambda: grad_check(
            lambda s_: ops.reduce_sum(ops.reduce_max(s_, axis=1)), [spread])),
        ("softmax", lambda: grad_check(
            lambda l_: ops.reduce_sum(ops.mul(ops.softmax_rows(l_), mix)), [logits])),
        ("gather", lambda: grad_check(
            lambda a_: ops.reduce_sum(ops.gather_rows(a_, np.array([0, 2]))), [a])),
        ("gather-repeat", lambda: grad_check(
            lambda a_: ops.reduce_sum(ops.tanh(ops.gather_rows(a_, np.array([1, 1, 2])))), [a])),
        ("concat", lambda: grad_check(
            lambda a_, c_: ops.reduce_sum(ops.tanh(ops.concat([a_, c_], axis=1))), [a, c])),
    ]


@pytest.mark.parametrize("seed", range(100))
def test_every_op_passes_grad_check_across_seeds(seed):
    rng = np.random.default_rng(seed)
    for name, check in _op_cases(rng):
        err = check()
        assert err < TOL, f"{name} failed at seed {seed}: {err}"


def test_composite_gcn_style_layer_matches_finite_differences():
    # activation(L x W) with a smooth activation: the composite from the
    # operator set most relevant downstream.
    rng = np.random.default_rng(42)
    lap = Tensor(rng.standard_normal((4, 4)))
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)

    def loss(x_, w_):
        return ops.reduce_sum(ops.tanh(ops.matmul(ops.matmul(lap, x_), w_)))

    assert grad_check(loss, [x, w]) < TOL
