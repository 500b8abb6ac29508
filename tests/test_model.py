"""GCN layers, attention pooling, readout, gradient reversal, full forward."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dagam import Tape, Tensor, backward
from dagam import model, ops, tensor
from dagam.errors import ConfigError, DataError, DegenerateInputError, DimensionError
from dagam.graph import renormalized_laplacian
from dagam.model import (
    attention_scores,
    forward_batch,
    gcn_layer,
    grad_reverse,
    init_params,
    readout,
    retained_count,
    sag_pool,
    top_rank,
)

from _helpers import tiny_model_grad_error, tiny_setup


def identity(x):
    return x


class TestGcnLayer:
    def test_identity_propagation(self):
        x = Tensor(np.arange(6.0).reshape(3, 2))
        out = gcn_layer(Tensor(np.eye(3)), x, Tensor(np.eye(2)), activation=identity)
        np.testing.assert_array_equal(out.data, x.data)

    def test_neighborhood_averaging(self):
        lap = Tensor(np.full((2, 2), 0.5))
        x = Tensor([[2.0], [4.0]])
        out = gcn_layer(lap, x, Tensor([[1.0]]), activation=identity)
        np.testing.assert_allclose(out.data, [[3.0], [3.0]])

    def test_gradient_check_on_weights_and_features(self):
        from dagam.gradcheck import grad_check

        rng = np.random.default_rng(11)
        # renormalized_laplacian takes a symmetric adjacency: mirror the strict upper triangle.
        upper = np.triu(np.abs(rng.standard_normal((4, 4))), 1)
        lap = Tensor(renormalized_laplacian(upper + upper.T))
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)

        def f(x_, w_):
            return ops.reduce_sum(ops.tanh(gcn_layer(lap, x_, w_, activation=ops.tanh)))

        # Widths 2, 3 and 5 from 3 features take both associations: L (x W) and (L x) W.
        for width in (2, 3, 5):
            w = Tensor(rng.standard_normal((3, width)), requires_grad=True)
            assert grad_check(f, [x, w]) < 1e-4

    @pytest.mark.parametrize("width", [1, 4, 6])
    def test_batch_equals_dense_product(self, width):
        rng = np.random.default_rng(width)
        lap = rng.standard_normal((5, 5))
        x, w = rng.standard_normal((3, 5, 4)), rng.standard_normal((4, width))
        out = gcn_layer(Tensor(lap), Tensor(x), Tensor(w), activation=identity)
        np.testing.assert_allclose(out.data, lap @ x @ w, rtol=0, atol=1e-12)


    @pytest.mark.parametrize("width, first", [(1, "xw"), (4, "lx"), (6, "lx")])
    def test_narrowing_weight_is_applied_first(self, width, first, monkeypatch):
        lap, x, w = Tensor(np.eye(5)), Tensor(np.ones((2, 5, 4))), Tensor(np.ones((4, width)))
        operands = []
        matmul = ops.matmul

        def recording(a, b):
            operands.append((a, b))
            return matmul(a, b)

        monkeypatch.setattr(ops, "matmul", recording)
        gcn_layer(lap, x, w)
        assert operands[0] == ((x, w) if first == "xw" else (lap, x))


def plain_gcn_layer(laplacian, x, w, activation=ops.relu):
    """gcn_layer as the bare composition of its ops, each recorded on its own."""
    if w.shape[-1] < x.shape[-1]:
        return activation(ops.matmul(laplacian, ops.matmul(x, w)))
    return activation(ops.matmul(ops.matmul(laplacian, x), w))


def batched_tiny(seed, batch=3):
    """tiny_setup with a batch of ``batch`` samples and a loss mixing both heads."""
    params, x, adjacency, laplacian = tiny_setup(seed)
    rng = np.random.default_rng([seed, 9])
    x = Tensor(rng.standard_normal((batch, *x.shape[1:])), requires_grad=True)
    mix_emotion = Tensor(rng.standard_normal((batch, params.n_classes)))
    mix_domain = Tensor(rng.standard_normal((batch, 2)))

    def loss():
        emotion, domain, _ = forward_batch(params, x, laplacian, adjacency, 0.5, lam=0.7)
        return ops.add(
            ops.reduce_sum(ops.mul(emotion, mix_emotion)), ops.reduce_sum(ops.mul(domain, mix_domain))
        )

    return params, x, loss


class TestGcnBlock:
    """Under a tape each gcn_layer call is one entry that keeps its inner gradients to itself."""

    @pytest.mark.parametrize("seed", range(3))
    def test_gradients_equal_the_op_by_op_tape_and_accumulate(self, seed, monkeypatch):
        params, x, loss = batched_tiny(seed)
        tensors = [x, *params.all_params()]

        def grads():
            for t in tensors:
                t.grad = None
            with Tape() as tape:
                out = loss()
            backward(out, tape)
            once = [t.grad.copy() for t in tensors]
            backward(out, tape)
            return tape, once, [t.grad for t in tensors]

        tape, blocked, twice = grads()
        assert any(e.op == "gcn_layer" for e in tape.entries)
        for g1, g2 in zip(blocked, twice):
            np.testing.assert_array_equal(g2, 2.0 * g1)
        monkeypatch.setattr(model, "gcn_layer", plain_gcn_layer)
        tape, plain, _ = grads()
        assert not any(e.op == "gcn_layer" for e in tape.entries)
        for g_block, g_plain in zip(blocked, plain):
            np.testing.assert_array_equal(g_block, g_plain)

    def test_one_entry_per_layer_and_no_grad_inside(self):
        params, _, loss = batched_tiny(0)
        with Tape() as tape:
            out = loss()
        backward(out, tape)
        blocks = [e for e in tape.entries if e.op == "gcn_layer"]
        weights = [*params.gcn_weights, params.w_att]
        assert len(blocks) == len(weights)
        assert all(e.inputs[2] is w for e, w in zip(blocks, weights))
        # The only matmuls left on the tape are the heads' own.
        assert sum(e.op == "matmul" for e in tape.entries) == len(params.emotion) + len(params.domain)
        for entry in blocks:
            assert entry.output.grad is not None
            inner = entry.meta["tape"].entries
            assert [e.op for e in inner][-1] in ("relu", "tanh")
            assert all(e.output.grad is None for e in inner)

    @pytest.mark.parametrize("width", [2, 6])
    def test_without_a_tape_it_is_the_plain_composition(self, width, monkeypatch):
        rng = np.random.default_rng(width)
        upper = np.triu(rng.uniform(0.1, 1.0, (5, 5)), 1)
        lap = Tensor(renormalized_laplacian(upper + upper.T))
        x = Tensor(rng.standard_normal((3, 5, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, width)), requires_grad=True)
        expected = plain_gcn_layer(lap, x, w).data
        monkeypatch.setattr(tensor, "Tape", None)  # a private tape would fail to open
        out = gcn_layer(lap, x, w)
        assert not out.requires_grad
        np.testing.assert_array_equal(out.data, expected)

    def test_shape_error_inside_a_block_leaves_the_outer_tape_active_and_empty(self):
        # W narrows the features, so x W is recorded on the block's tape
        # before L, sized for 3 nodes, fails against 4.
        x = Tensor(np.ones((4, 2)), requires_grad=True)
        w = Tensor(np.ones((2, 1)), requires_grad=True)
        with Tape() as tape:
            with pytest.raises(DimensionError):
                gcn_layer(Tensor(np.eye(3)), x, w)
            assert len(tape) == 0
            ops.relu(x)
        assert [e.op for e in tape.entries] == ["relu"]
        assert not ops.relu(x).requires_grad  # no tape is left on the stack


class TestAttentionScores:
    def test_zero_weights_give_zero_scores(self):
        lap = Tensor(np.eye(3))
        x = Tensor(np.random.default_rng(0).standard_normal((3, 4)))
        out = attention_scores(lap, x, Tensor(np.zeros((4, 1))))
        np.testing.assert_array_equal(out.data, np.zeros((3, 1)))

    def test_scalar_case(self):
        out = attention_scores(Tensor([[1.0]]), Tensor([[0.7]]), Tensor([[2.0]]))
        assert out.data[0, 0] == pytest.approx(np.tanh(1.4))

    def test_scores_bounded(self):
        rng = np.random.default_rng(1)
        out = attention_scores(
            Tensor(rng.standard_normal((5, 5))),
            Tensor(10.0 * rng.standard_normal((5, 3))),
            Tensor(rng.standard_normal((3, 1))),
        )
        assert (np.abs(out.data) < 1.0).all()

    def test_multi_column_weight_rejected(self):
        with pytest.raises(DimensionError):
            attention_scores(Tensor(np.eye(2)), Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))


class TestTopRank:
    def test_basic_selection(self):
        idx = top_rank(np.array([0.9, 0.1, 0.5, 0.7]), 0.5)
        np.testing.assert_array_equal(idx, [0, 3])

    def test_tie_breaks_toward_lower_index(self):
        idx = top_rank(np.array([0.5, 0.5, 0.1]), 1.0 / 3.0)
        np.testing.assert_array_equal(idx, [0])

    def test_k_one_keeps_everything(self):
        idx = top_rank(np.array([3.0, 1.0, 2.0]), 1.0)
        np.testing.assert_array_equal(idx, [0, 1, 2])

    def test_column_vector_scores_accepted(self):
        # The trailing axis is the node axis: a column is four one-node graphs.
        idx = top_rank(np.array([[0.9], [0.1], [0.5], [0.7]]), 0.5)
        np.testing.assert_array_equal(idx, [[0], [0], [0], [0]])
        assert top_rank(np.zeros((4, 1)), 0.5).shape == (4, 1)
        idx = top_rank(np.array([[0.9, 0.1, 0.5, 0.7]]), 0.5)
        np.testing.assert_array_equal(idx, [[0, 3]])

    def test_batched_scores(self):
        scores = np.array([[0.9, 0.1, 0.5, 0.7], [0.1, 0.9, 0.7, 0.5]])
        idx = top_rank(scores, 0.5)
        np.testing.assert_array_equal(idx, [[0, 3], [1, 2]])

    @settings(max_examples=100, deadline=None)
    @given(
        scores=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=3, max_side=7),
            # Few distinct values, so most draws carry ties.
            elements=st.sampled_from([-1.0, -0.5, 0.0, 0.25, 1.0]),
        ),
        k=st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_matches_sorted_reference_under_ties(self, scores, k):
        n = scores.shape[-1]
        count = retained_count(k, n)
        got = top_rank(scores, k)
        assert got.shape == scores.shape[:-1] + (count,)
        for row in np.ndindex(scores.shape[:-1]):
            s = scores[row]
            expected = sorted(sorted(range(n), key=lambda i: (-s[i], i))[:count])
            assert got[row].tolist() == expected

    def test_retained_count_matches_exact_ceiling_for_grid(self):
        # Oracle: exact rational arithmetic on the decimal grid.
        for tenth in range(1, 11):
            k = tenth / 10.0
            for n in range(1, 63):
                expected = -((-Fraction(tenth, 10) * n) // 1)  # ceil
                assert retained_count(k, n) == int(expected), (k, n)

    def test_bad_ratio_rejected(self):
        with pytest.raises(ConfigError):
            retained_count(0.0, 10)
        with pytest.raises(ConfigError):
            retained_count(1.1, 10)


class TestSagPool:
    def test_identity_when_everything_kept_with_unit_scores(self):
        x = Tensor(np.arange(8.0).reshape(4, 2))
        a = np.eye(4)
        scores = Tensor(np.ones((4, 1)))
        pool = sag_pool(x, a, scores, 1.0)
        np.testing.assert_array_equal(pool.x_out.data, x.data)
        np.testing.assert_array_equal(pool.a_out, a)
        np.testing.assert_array_equal(pool.index, [0, 1, 2, 3])

    def test_selection_scaling_and_submatrix(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((4, 3)))
        a = rng.uniform(0, 1, (4, 4))
        a = (a + a.T) / 2
        scores = Tensor(np.array([[0.9], [0.1], [0.5], [0.7]]))
        pool = sag_pool(x, a, scores, 0.5)
        np.testing.assert_array_equal(pool.index, [0, 3])
        np.testing.assert_allclose(pool.x_out.data[0], 0.9 * x.data[0])
        np.testing.assert_allclose(pool.x_out.data[1], 0.7 * x.data[3])
        np.testing.assert_array_equal(pool.a_out, a[np.ix_([0, 3], [0, 3])])

    def test_batched_a_out_is_each_rows_submatrix(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal((3, 5, 2)))
        a = rng.uniform(0, 1, (5, 5))
        a = (a + a.T) / 2
        pool = sag_pool(x, a, Tensor(rng.standard_normal((3, 5, 1))), 0.6)
        assert pool.a_out.shape == (3, 3, 3)
        for b in range(3):
            np.testing.assert_array_equal(pool.a_out[b], a[np.ix_(pool.index[b], pool.index[b])])

    @pytest.mark.parametrize("columns", [2, 3])
    def test_scores_with_more_than_one_column_rejected(self, columns):
        # With as many columns as features, the score product would broadcast.
        x = Tensor(np.ones((4, 3)))
        with pytest.raises(DimensionError, match="must have shape"):
            sag_pool(x, np.eye(4), Tensor(np.ones((4, columns))), 0.5)

    def test_gradient_reaches_attention_weights(self):
        params, x, adjacency, laplacian = tiny_setup(3)
        with Tape() as tape:
            h = x
            for w in params.gcn_weights:
                h = gcn_layer(laplacian, h, w)
            scores = attention_scores(laplacian, h, params.w_att)
            pool = sag_pool(h, adjacency, scores, 0.5)
            loss = ops.reduce_sum(pool.x_out)
        backward(loss, tape)
        assert params.w_att.grad is not None
        assert np.abs(params.w_att.grad).max() > 0

    @pytest.mark.parametrize("k", [i / 10 for i in range(1, 11)])
    def test_node_count_exactly_ceil_k_n(self, k):
        rng = np.random.default_rng(17)
        for n in range(1, 63):
            x = Tensor(rng.standard_normal((n, 2)))
            scores = Tensor(rng.standard_normal((n, 1)))
            pool = sag_pool(x, np.eye(n), scores, k)
            assert pool.x_out.shape[0] == retained_count(k, n)


class TestReadout:
    def test_hand_computed(self):
        out = readout(Tensor([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out.data, [2.0, 3.0, 3.0, 4.0])

    def test_single_node(self):
        out = readout(Tensor([[5.0]]))
        np.testing.assert_array_equal(out.data, [5.0, 5.0])

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 3))
        perm = rng.permutation(6)
        # identical up to summation order in the mean
        np.testing.assert_allclose(
            readout(Tensor(x)).data, readout(Tensor(x[perm])).data, atol=1e-12
        )

    def test_zero_nodes_rejected(self):
        with pytest.raises(DegenerateInputError):
            readout(Tensor(np.zeros((0, 3))))


class TestGradReverse:
    def test_forward_bit_identical(self):
        x = Tensor(np.random.default_rng(0).standard_normal((3, 3)))
        out = grad_reverse(x, 1.0)
        assert np.array_equal(out.data, x.data)

    def test_backward_negates(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        with Tape() as tape:
            loss = ops.reduce_sum(ops.mul(grad_reverse(x, 1.0), Tensor([[3.0, 4.0]])))
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [[-3.0, -4.0]])

    def test_lambda_zero_blocks_gradient(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        with Tape() as tape:
            loss = ops.reduce_sum(grad_reverse(x, 0.0))
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0]])

    def test_scaled_lambda(self):
        x = Tensor([2.0, 2.0], requires_grad=True)
        with Tape() as tape:
            row = ops.reshape(x, (1, 2))
            loss = ops.reduce_sum(grad_reverse(row, 2.5))
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [-2.5, -2.5])

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigError):
            grad_reverse(Tensor([1.0]), -0.1)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(ConfigError, match="reversal strength"):
            grad_reverse(Tensor([1.0]), lam)


class TestForward:
    def test_probabilities_sum_to_one(self):
        params, x, adjacency, laplacian = tiny_setup(0)
        emotion, domain, _ = forward_batch(params, x, laplacian, adjacency, 0.5)
        assert emotion.shape == (1, 2) and domain.shape == (1, 2)
        assert abs(emotion.data.sum() - 1.0) < 1e-9
        assert abs(domain.data.sum() - 1.0) < 1e-9

    def test_unbatched_sample_rejected(self):
        params, x, adjacency, laplacian = tiny_setup(0)
        with pytest.raises(DimensionError):
            forward_batch(params, Tensor(x.data[0]), laplacian, adjacency, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_feature_rejected_at_its_position(self, bad):
        params, x, adjacency, laplacian = tiny_setup(0)
        batch = np.repeat(x.data, 3, axis=0)
        batch[1, 2, 0] = bad
        batch[2, 0, 1] = bad
        with pytest.raises(DataError, match=r"\(1, 2, 0\)"):
            forward_batch(params, Tensor(batch), laplacian, adjacency, 0.5)

    def test_zeroed_final_emotion_layer_gives_uniform(self):
        params, x, adjacency, laplacian = tiny_setup(1)
        for t in params.emotion[-1]:
            t.data[:] = 0.0
        emotion, _, _ = forward_batch(params, x, laplacian, adjacency, 0.5)
        np.testing.assert_allclose(emotion.data, [[0.5, 0.5]])

    def test_default_ratio_keeps_31_of_62(self):
        rng = np.random.default_rng(5)
        params = init_params(5, 3, rng, gcn_hidden=(8, 8, 8), emotion_hidden=(8, 4),
                             domain_hidden=(4,))
        x = Tensor(rng.standard_normal((1, 62, 5)))
        raw = rng.uniform(0.1, 1.0, (62, 62))
        adjacency = np.triu(raw, 1)
        adjacency = adjacency + adjacency.T
        laplacian = Tensor(renormalized_laplacian(adjacency))
        _, _, pool = forward_batch(params, x, laplacian, adjacency, 0.5)
        assert pool.index.shape == (1, 31)

    def test_deterministic_for_fixed_params(self):
        params, x, adjacency, laplacian = tiny_setup(2)
        first = forward_batch(params, x, laplacian, adjacency, 0.5)[0].data
        second = forward_batch(params, x, laplacian, adjacency, 0.5)[0].data
        np.testing.assert_array_equal(first, second)

    @settings(max_examples=40, deadline=None)
    @given(size=st.integers(1, 6), seed=st.integers(0, 2**16))
    def test_batched_matches_per_sample(self, size, seed):
        params, _, adjacency, laplacian = tiny_setup(seed)
        batch = np.random.default_rng([seed, 1]).standard_normal((size, 4, 3))
        emotion_b, domain_b, pool_b = forward_batch(params, Tensor(batch), laplacian, adjacency, 0.5)
        for i in range(size):
            emotion_i, domain_i, pool_i = forward_batch(
                params, Tensor(batch[i : i + 1]), laplacian, adjacency, 0.5
            )
            np.testing.assert_allclose(emotion_b.data[i], emotion_i.data[0], atol=1e-12)
            np.testing.assert_allclose(domain_b.data[i], domain_i.data[0], atol=1e-12)
            np.testing.assert_array_equal(pool_b.index[i], pool_i.index[0])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), perm=st.permutations(range(4)))
    def test_permutation_consistency_of_probabilities(self, seed, perm):
        # Relabelling the channels leaves the readout unchanged, unless a tie
        # at the retention boundary lets the relabelling keep another node.
        # Scores within rounding of a tie count as tied: the permuted products
        # sum in another order.
        params, x, adjacency, laplacian = tiny_setup(seed)
        emotion, _, pool = forward_batch(params, x, laplacian, adjacency, 0.5)
        h = x
        for w in params.gcn_weights:
            h = gcn_layer(laplacian, h, w)
        scores = np.sort(attention_scores(laplacian, h, params.w_att).data[0, :, 0])[::-1]
        kept = pool.index.shape[-1]
        assume(scores[kept - 1] - scores[kept] > 1e-9)
        perm = np.array(perm)
        p = np.eye(4)[perm]
        x_p = Tensor(x.data[:, perm])
        lap_p = Tensor(p @ laplacian.data @ p.T)
        adj_p = p @ adjacency @ p.T
        emotion_p, _, _ = forward_batch(params, x_p, lap_p, adj_p, 0.5)
        np.testing.assert_allclose(emotion_p.data, emotion.data, atol=1e-12)

    def test_domain_head_optional(self):
        params, x, adjacency, laplacian = tiny_setup(10)
        emotion, domain, _ = forward_batch(params, x, laplacian, adjacency, 0.5, domain_head=False)
        assert domain is None
        assert emotion.shape == (1, 2)


class TestEndToEndGradient:
    @pytest.mark.parametrize("seed", range(5))
    def test_tiny_model_matches_branchwise_finite_differences(self, seed):
        assert tiny_model_grad_error(seed) < 1e-4

    def test_reversal_scales_with_lambda(self):
        assert tiny_model_grad_error(100, lam=0.5) < 1e-4

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_zero_reversal_hides_the_domain_head_from_the_feature_extractor(self, seed):
        params, x, adjacency, laplacian = tiny_setup(seed)
        rng = np.random.default_rng([seed, 2])
        mix_emotion = Tensor(rng.standard_normal((1, params.n_classes)))
        mix_domain = Tensor(rng.standard_normal((1, 2)))
        tensors = [x, *params.all_params()]

        def grads(with_domain):
            for t in tensors:
                t.grad = None
            with Tape() as tape:
                emotion, domain, _ = forward_batch(params, x, laplacian, adjacency, 0.5, lam=0.0)
                loss = ops.reduce_sum(ops.mul(emotion, mix_emotion))
                if with_domain:
                    loss = ops.add(loss, ops.reduce_sum(ops.mul(domain, mix_domain)))
            backward(loss, tape)
            return {id(t): t.grad for t in tensors}

        alone, joint = grads(False), grads(True)
        for t in [x, *params.feature_params()]:
            np.testing.assert_array_equal(joint[id(t)], alone[id(t)])
        # A dead relu can zero one layer's weight grad, but not the whole head's.
        assert all(alone[id(t)] is None for t in params.domain_params())
        assert any(np.any(joint[id(t)] != 0.0) for t in params.domain_params())


def test_named_parameters_are_exhaustive_and_disjoint():
    params, _, _, _ = tiny_setup(0)
    named = params.named()
    listed = params.all_params()
    assert len(named) == len(listed)
    assert {id(t) for t in named.values()} == {id(t) for t in listed}
    groups = [params.feature_params(), params.emotion_params(), params.domain_params()]
    seen = set()
    for group in groups:
        for t in group:
            assert id(t) not in seen
            seen.add(id(t))
