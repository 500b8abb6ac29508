"""Forward values, backward rules, and tape behavior of the autodiff core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagam import Tape, Tensor, backward
from dagam import ops
from dagam.errors import ContractError, DegenerateInputError, DimensionError
from dagam.model import forward_batch

from _helpers import tiny_setup


def run_backward(build):
    """Run `build` under a fresh tape and backpropagate from its output."""
    with Tape() as tape:
        out = build()
    backward(out, tape)
    return out


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ops.matmul(a, b).data, b.data)

    def test_row_times_column(self):
        out = ops.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_gradient_matches_finite_differences(self):
        # d sum(a @ b) / da at a=[[1,2]], b=[[3],[4]]: frozen from the
        # central-difference oracle below, which lands on [[3, 4]].
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        b = Tensor([[3.0], [4.0]])
        run_backward(lambda: ops.reduce_sum(ops.matmul(a, b)))
        np.testing.assert_allclose(a.grad, [[3.0, 4.0]], atol=1e-12)

        h = 1e-4
        numeric = np.zeros(2)
        for j in range(2):
            base = a.data.copy()
            a.data[0, j] = base[0, j] + h
            hi = float((a.data @ b.data).sum())
            a.data[0, j] = base[0, j] - h
            lo = float((a.data @ b.data).sum())
            a.data[0, j] = base[0, j]
            numeric[j] = (hi - lo) / (2 * h)
        np.testing.assert_allclose(a.grad[0], numeric, rtol=1e-6)

    def test_batched_operand_gradients_sum_over_batch(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((4, 3, 2)))
        w = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
        run_backward(lambda: ops.reduce_sum(ops.matmul(x, w)))
        expected = sum(x.data[i].T @ np.ones((3, 5)) for i in range(4))
        np.testing.assert_allclose(w.grad, expected, atol=1e-12)

    def test_constant_operand_gets_no_gradient(self):
        lap = Tensor(np.arange(9.0).reshape(3, 3))
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        with Tape() as tape:
            out = ops.matmul(lap, x)
        (entry,) = tape.entries
        g_lap, g_x = entry.backward(np.ones(out.shape))
        assert g_lap is None
        np.testing.assert_array_equal(g_x, np.broadcast_to(lap.data.sum(axis=0)[:, None], x.shape))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            ops.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_batch_mismatch_raised_by_the_product_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"batch.*\(2, 3, 4\).*\(3, 4, 5\)"):
            ops.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))


class TestElementwise:
    def test_relu(self):
        t = Tensor([-1.0, 0.0, 2.0, np.nan])
        out = ops.relu(t).data
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.0, np.nan])
        assert not np.shares_memory(out, t.data)
        np.testing.assert_array_equal(t.data, [-1.0, 0.0, 2.0, np.nan])

    def test_tanh_is_odd_at_zero(self):
        assert ops.tanh(Tensor(0.0)).item() == 0.0

    def test_tanh_stays_open_and_keeps_gradient_when_saturated(self):
        # float64 np.tanh rounds to exactly +-1 past |x| ~ 19, where 1 - y*y is 0.
        x = Tensor([-400.0, -40.0, -19.5, 19.5, 40.0, 400.0], requires_grad=True)
        y = ops.tanh(x)
        run_backward(lambda: ops.reduce_sum(ops.tanh(x)))
        assert (np.abs(y.data) < 1.0).all()
        np.testing.assert_array_equal(np.sign(y.data), np.sign(x.data))
        with np.errstate(over="ignore"):  # cosh(400)**2 overflows, so the oracle is 0 there
            sech2 = 1.0 / np.cosh(x.data) ** 2
        np.testing.assert_allclose(x.grad, sech2, rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(x.grad > 0, sech2 > 0)
        assert (x.grad[1:-1] > 0).all()

    def test_broadcast_mul_with_column(self):
        out = ops.mul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[10.0], [20.0]]))
        np.testing.assert_array_equal(out.data, [[10.0, 20.0], [60.0, 80.0]])

    def test_broadcast_gradient_sums_to_operand_shape(self):
        col = Tensor([[10.0], [20.0]], requires_grad=True)
        full = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        run_backward(lambda: ops.reduce_sum(ops.mul(full, col)))
        np.testing.assert_array_equal(col.grad, [[3.0], [7.0]])
        np.testing.assert_array_equal(full.grad, [[10.0, 10.0], [20.0, 20.0]])

    def test_log_clamps_at_floor(self):
        out = ops.log(Tensor([1.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.0, np.log(1e-12)])

    def test_non_broadcastable_shapes_raise(self):
        with pytest.raises(DimensionError):
            ops.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 3))))

    @pytest.mark.parametrize("op", [ops.add, ops.mul])
    def test_broadcast_error_names_both_shapes(self, op):
        with pytest.raises(DimensionError, match=rf"{op.__name__}: shapes \(2, 3\) and \(4,\)"):
            op(Tensor(np.zeros((2, 3))), Tensor(np.zeros(4)))


class TestReduce:
    def test_mean_axis0(self):
        out = ops.reduce_mean(Tensor([[1.0, 2.0], [3.0, 4.0]]), axis=0)
        np.testing.assert_array_equal(out.data, [2.0, 3.0])

    def test_max_axis0(self):
        out = ops.reduce_max(Tensor([[1.0, 2.0], [3.0, 4.0]]), axis=0)
        np.testing.assert_array_equal(out.data, [3.0, 4.0])

    def test_sum_gradient_is_upstream_everywhere(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        run_backward(lambda: ops.reduce_sum(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_max_gradient_routes_to_first_maximal_element(self):
        x = Tensor([[2.0, 2.0, 1.0]], requires_grad=True)
        run_backward(lambda: ops.reduce_max(x, axis=1))
        np.testing.assert_array_equal(x.grad, [[1.0, 0.0, 0.0]])

    def test_max_of_a_nan_slice_sends_its_gradient_to_the_first_nan(self):
        # No element equals a NaN max; the NaN that made it takes the gradient.
        x = Tensor([[1.0, np.nan, 2.0, np.nan], [0.0, 3.0, 3.0, -1.0]], requires_grad=True)
        with Tape() as tape:
            out = ops.reduce_max(x, axis=1)
            loss = ops.reduce_sum(ops.mul(out, Tensor([2.0, 5.0])))
        np.testing.assert_array_equal(out.data, [np.nan, 3.0])
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [[0.0, 2.0, 0.0, 0.0], [0.0, 5.0, 0.0, 0.0]])

    def test_empty_axis_raises(self):
        with pytest.raises(DegenerateInputError):
            ops.reduce_mean(Tensor(np.zeros((0, 3))), axis=0)


class TestSoftmaxRows:
    def test_symmetry(self):
        np.testing.assert_allclose(ops.softmax_rows(Tensor([[0.0, 0.0]])).data, [[0.5, 0.5]])

    def test_shift_invariance_without_overflow(self):
        out = ops.softmax_rows(Tensor([[1000.0, 1000.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_closed_form(self):
        out = ops.softmax_rows(Tensor([[np.log(2.0), 0.0]]))
        np.testing.assert_allclose(out.data, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-12)

    def test_empty_last_axis_is_degenerate(self):
        with pytest.raises(DegenerateInputError, match=r"\(2, 0\)"):
            ops.softmax_rows(Tensor(np.zeros((2, 0))))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=6))
    def test_rows_sum_to_one_up_to_magnitude_1e4(self, row):
        out = ops.softmax_rows(Tensor([row]))
        assert abs(out.data.sum() - 1.0) < 1e-9


class TestBackward:
    def test_sum_loss_gives_unit_gradients(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        run_backward(lambda: ops.reduce_sum(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        run_backward(lambda: ops.reduce_sum(ops.mul(x, x)))
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = ops.mul(x, x)
        with pytest.raises(ContractError):
            backward(y, tape)

    def test_repeated_backward_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            loss = ops.reduce_sum(ops.mul(x, x))
        backward(loss, tape)
        once = x.grad.copy()
        backward(loss, tape)
        np.testing.assert_allclose(x.grad, 2.0 * once)

    def test_shared_subexpression_fans_in(self):
        x = Tensor([2.0], requires_grad=True)
        run_backward(lambda: ops.reduce_sum(ops.add(ops.mul(x, x), x)))
        np.testing.assert_allclose(x.grad, [5.0])

    def test_no_tape_means_no_graph(self):
        x = Tensor([1.0], requires_grad=True)
        out = ops.mul(x, x)
        assert not out.requires_grad

    def test_every_reachable_tensor_gets_a_grad_buffer(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            mid = ops.mul(x, x)
            loss = ops.reduce_sum(mid)
        backward(loss, tape)
        assert mid.grad is not None and mid.grad.shape == mid.shape
        assert x.grad is not None


class TestGradBuffers:
    @staticmethod
    def assert_no_aliasing(tensors):
        grads = [t.grad for t in tensors if t.grad is not None]
        assert grads
        for i, grad in enumerate(grads):
            assert grad.flags.writeable
            for other in grads[i + 1 :]:
                assert not np.shares_memory(grad, other)
            for t in tensors:
                assert not np.shares_memory(grad, t.data)

    def test_same_shape_add_gives_each_input_its_own_buffer(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        with Tape() as tape:
            total = ops.add(a, b)
            loss = ops.reduce_sum(ops.mul(total, total))
        backward(loss, tape)
        np.testing.assert_array_equal(a.grad, [8.0, 12.0])
        np.testing.assert_array_equal(b.grad, [8.0, 12.0])
        self.assert_no_aliasing([a, b, total, loss])

    def test_no_buffer_of_a_model_pass_aliases_another(self):
        params, x, adjacency, laplacian = tiny_setup(3)
        with Tape() as tape:
            emotion, domain, _ = forward_batch(params, x, laplacian, adjacency, 0.5)
            loss = ops.add(
                ops.reduce_sum(ops.log(emotion)), ops.reduce_sum(ops.log(domain))
            )
        backward(loss, tape)
        tensors = {}
        for entry in tape.entries:
            for t in (*entry.inputs, entry.output):
                tensors[id(t)] = t
        tensors = list(tensors.values())
        assert all(t.grad is not None for t in tensors if t.requires_grad)
        self.assert_no_aliasing(tensors)


class TestGatherConcat:
    def test_gather_selects_rows(self):
        x = Tensor(np.arange(12.0).reshape(4, 3))
        out = ops.gather_rows(x, np.array([0, 2]))
        np.testing.assert_array_equal(out.data, x.data[[0, 2]])

    def test_gather_backward_scatters(self):
        x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        run_backward(lambda: ops.reduce_sum(ops.gather_rows(x, np.array([1, 3]))))
        expected = np.zeros((4, 3))
        expected[[1, 3]] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_gather_rejects_indices_outside_range(self):
        x = Tensor(np.arange(12.0).reshape(4, 3))
        for bad in ([0, -1], [1, 4]):
            with pytest.raises(ContractError, match=r"\[0, 4\)"):
                ops.gather_rows(x, np.array(bad))

    def test_batched_gather(self):
        x = Tensor(np.arange(24.0).reshape(2, 4, 3), requires_grad=True)
        idx = np.array([[0, 1], [2, 3]])
        with Tape() as tape:
            out = ops.gather_rows(x, idx)
            loss = ops.reduce_sum(out)
        np.testing.assert_array_equal(out.data[0], x.data[0, [0, 1]])
        np.testing.assert_array_equal(out.data[1], x.data[1, [2, 3]])
        backward(loss, tape)
        expected = np.zeros((2, 4, 3))
        expected[0, [0, 1]] = 1.0
        expected[1, [2, 3]] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_batched_gather_with_repeats_accumulates(self):
        x = Tensor(np.arange(24.0).reshape(2, 4, 3), requires_grad=True)
        run_backward(lambda: ops.reduce_sum(ops.gather_rows(x, np.array([[1, 1, 3], [0, 2, 2]]))))
        expected = np.zeros((2, 4, 3))
        expected[0, 1] = 2.0
        expected[0, 3] = 1.0
        expected[1, 0] = 1.0
        expected[1, 2] = 2.0
        np.testing.assert_array_equal(x.grad, expected)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_gather_keeps_non_finite_upstream_in_its_row(self, bad):
        x = Tensor(np.zeros((2, 4, 3)), requires_grad=True)
        with Tape() as tape:
            out = ops.gather_rows(x, np.array([[1, 1, 3], [0, 2, 2]]))
        upstream = np.ones(out.shape)
        upstream[0, 0, 1] = bad
        (grad,) = tape.entries[0].backward(upstream)
        np.testing.assert_array_equal(grad[0, 1, 1], bad)
        np.testing.assert_array_equal(grad[0, [0, 2]], 0.0)
        np.testing.assert_array_equal(grad[1, [1, 3]], 0.0)
        np.testing.assert_array_equal(grad[0, 3], 1.0)

    @pytest.mark.parametrize("shape", [(5, 3), (2, 5, 3), (2, 3, 5, 4)])
    def test_gather_matches_take_along_axis_and_add_at(self, shape):
        rng = np.random.default_rng(len(shape))
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        # Seven picks from five rows: every batch element repeats a row.
        index = rng.integers(0, shape[-2], shape[:-2] + (7,))
        with Tape() as tape:
            out = ops.gather_rows(x, index)
        reference = np.take_along_axis(x.data, index[..., None], axis=-2)
        np.testing.assert_array_equal(out.data, reference)
        upstream = rng.standard_normal(out.shape)
        (grad,) = tape.entries[0].backward(upstream)
        expected = np.zeros(shape)
        for lead in np.ndindex(shape[:-2]):
            np.add.at(expected[lead], index[lead], upstream[lead])
        np.testing.assert_allclose(grad, expected, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("bad", [np.array([1.7, 2.9]), np.array([True, False]), []])
    def test_gather_rejects_non_integer_indices(self, bad):
        x = Tensor(np.arange(12.0).reshape(4, 3))
        with pytest.raises(ContractError, match="integers"):
            ops.gather_rows(x, bad)

    def test_gather_takes_unsigned_indices(self):
        x = Tensor(np.arange(24.0).reshape(2, 4, 3), requires_grad=True)
        index = np.array([[3, 3], [0, 1]], dtype=np.uint64)
        run_backward(lambda: ops.reduce_sum(ops.gather_rows(x, index)))
        expected = np.zeros((2, 4, 3))
        expected[0, 3] = 2.0
        expected[1, [0, 1]] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_gather_rejects_a_scalar_index(self):
        with pytest.raises(DimensionError):
            ops.gather_rows(Tensor(np.zeros((4, 3))), np.int64(1))

    def test_concat_splits_gradient(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        b = Tensor([[3.0]], requires_grad=True)
        run_backward(lambda: ops.reduce_sum(ops.concat([a, b], axis=1)))
        np.testing.assert_array_equal(a.grad, [[1.0, 1.0]])
        np.testing.assert_array_equal(b.grad, [[1.0]])

    @pytest.mark.parametrize("axis", [2, 5, -3])
    def test_concat_rejects_axis_out_of_range(self, axis):
        a = Tensor(np.zeros((2, 3)))
        with pytest.raises(DimensionError, match=f"axis {axis}"):
            ops.concat([a, a], axis=axis)

    def test_concat_mismatch_names_the_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\), \(4, 2\)"):
            ops.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2)))], axis=1)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
    collapse_rows=st.booleans(),
)
def test_broadcast_mul_sum_equals_explicit_expansion(rows, cols, seed, collapse_rows):
    rng = np.random.default_rng(seed)
    full = rng.standard_normal((rows, cols))
    small_shape = (1, cols) if collapse_rows else (rows, 1)
    small = rng.standard_normal(small_shape)
    via_ops = ops.reduce_sum(ops.mul(Tensor(full), Tensor(small))).item()
    explicit = float((full * np.broadcast_to(small, full.shape)).sum())
    assert via_ops == pytest.approx(explicit, abs=1e-12)


def test_tape_determinism_forward_and_gradients():
    def run(seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        with Tape() as tape:
            loss = ops.reduce_sum(ops.tanh(ops.matmul(x, w)))
        backward(loss, tape)
        return loss.data.copy(), x.grad.copy(), w.grad.copy()

    first = run(123)
    second = run(123)
    for lhs, rhs in zip(first, second):
        assert np.array_equal(lhs, rhs)
