"""GCN layers, attention pooling, readout, gradient reversal, full forward."""

import contextlib
import gc
import math
import weakref
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dagam import Tape, Tensor, backward
from dagam import model, ops, tensor
from dagam.errors import (
    ConfigError,
    ContractError,
    DataError,
    DegenerateInputError,
    DimensionError,
    GraphError,
)
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
from dagam.tensor import record_block

from _helpers import TINY_GCN_HIDDEN, tape_data_bytes, tiny_model_grad_error, tiny_setup, traced_peak_bytes
from gradcheck import grad_check, nonsmooth_margin, op_entries


class TestGcnLayer:
    def test_identity_propagation(self):
        x = Tensor(np.arange(6.0).reshape(3, 2))  # non-negative, so relu keeps it
        out = gcn_layer(Tensor(np.eye(3)), x, Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_neighborhood_averaging(self):
        lap = Tensor(np.full((2, 2), 0.5))
        x = Tensor([[2.0], [4.0]])
        out = gcn_layer(lap, x, Tensor([[1.0]]))
        np.testing.assert_allclose(out.data, [[3.0], [3.0]])

    def test_gradient_check_on_weights_and_features(self):
        rng = np.random.default_rng(11)
        # renormalized_laplacian takes a symmetric adjacency: mirror the strict upper triangle.
        upper = np.triu(np.abs(rng.standard_normal((4, 4))), 1)
        lap = Tensor(renormalized_laplacian(upper + upper.T))
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)

        def f(x_, w_):
            return ops.reduce_sum(ops.tanh(gcn_layer(lap, x_, w_)))

        # Widths 2, 3 and 5 from 3 features take both associations: L (x W) and (L x) W.
        for width in (2, 3, 5):
            w = Tensor(rng.standard_normal((3, width)), requires_grad=True)
            assert grad_check(f, [x, w]) < 1e-4

    @pytest.mark.parametrize("width", [1, 4, 6])
    def test_batch_equals_dense_product(self, width):
        rng = np.random.default_rng(width)
        lap = rng.standard_normal((5, 5))
        x, w = rng.standard_normal((3, 5, 4)), rng.standard_normal((4, width))
        out = gcn_layer(Tensor(lap), Tensor(x), Tensor(w))
        np.testing.assert_allclose(out.data, np.maximum(lap @ x @ w, 0.0), rtol=0, atol=1e-12)


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


def plain_propagation(laplacian, x, w):
    if w.shape[-1] < x.shape[-1]:
        return ops.matmul(laplacian, ops.matmul(x, w))
    return ops.matmul(ops.matmul(laplacian, x), w)


def plain_gcn_layer(laplacian, x, w):
    """gcn_layer as the bare composition of its ops, written out apart from the model's own code."""
    return ops.relu(plain_propagation(laplacian, x, w))


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


def plain_blocks(op, fn, inputs):
    """record_block as a plain call: the block's ops go on the tape one by one."""
    return fn(*inputs)


def default_setup(seed, batch):
    """Default widths on a random 62-node graph: params, (batch, 62, 5) features, adjacency, Laplacian."""
    rng = np.random.default_rng(seed)
    params = init_params(5, 3, rng)
    upper = np.triu(rng.uniform(0.1, 1.0, (62, 62)), 1)
    adjacency = upper + upper.T
    x = Tensor(rng.standard_normal((batch, 62, 5)))
    return params, x, adjacency, Tensor(renormalized_laplacian(adjacency))


def block_setup(rng, shape, widths, k=0.5):
    """The model's block at ratio ``k`` on a random graph, and its inputs.

    The inputs are features (..., N, F), the Laplacian, an attention weight
    and GCN weights F -> widths[0] -> ..., in the order ``forward_batch``
    passes them: (x, L, w_att, *weights).
    """
    nodes, features = shape[-2:]
    upper = np.triu(rng.uniform(0.1, 1.0, (nodes, nodes)), 1)
    adjacency = upper + upper.T
    lap = Tensor(renormalized_laplacian(adjacency))
    x = Tensor(rng.standard_normal(shape), requires_grad=True)
    sizes = [features, *widths]
    weights = [Tensor(rng.standard_normal(io), requires_grad=True) for io in zip(sizes[:-1], sizes[1:])]
    w_att = Tensor(rng.standard_normal((sizes[-1], 1)), requires_grad=True)
    return partial(model._gcn_embedding, k=k), (x, lap, w_att, *weights)


def plain_block(block, x, lap, w_att, *weights):
    """The block as the bare composition of its ops, apart from the model's own layer and attention code."""
    h = x
    for w in weights:
        h = plain_gcn_layer(lap, h, w)
    scores = ops.tanh(plain_propagation(lap, h, w_att))
    index = top_rank(scores.data[..., 0], block.keywords["k"])
    return readout(sag_pool(h, scores, index)), index


def made_inside_blocks(monkeypatch):
    """Collect every tensor the ops make while the model's block runs, forward or recompute."""
    made, inside = [], []
    record = ops.record_op

    def recording(op, inputs, out_data, backward, meta=None):
        out = record(op, inputs, out_data, backward, meta)
        if inside:
            made.append(out)
        return out

    def marked(fn):
        def run(*args, **bound):
            inside.append(fn)
            try:
                return fn(*args, **bound)
            finally:
                inside.pop()

        return run

    monkeypatch.setattr(ops, "record_op", recording)
    monkeypatch.setattr(model, "_gcn_embedding", marked(model._gcn_embedding))
    return made


class TestGcnBlock:
    """Under a tape the GCN stack, the attention scores, the pooling and the
    readout are one checkpointed entry that keeps only the embedding and
    recomputes in backward; it is the model's only block."""

    @pytest.mark.parametrize("seed", range(3))
    def test_gradients_equal_the_op_by_op_tape_and_accumulate(self, seed, monkeypatch):
        # A batch of 3 is one recompute slice, so even the weights' sums run
        # in the op-by-op order.
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
            return tape, [out.data, *once], [t.grad for t in tensors]

        tape, blocked, twice = grads()
        assert [e.op for e in tape.entries if e.meta and "fn" in e.meta] == ["gcn_embedding"]
        for g1, g2 in zip(blocked[1:], twice):
            np.testing.assert_array_equal(g2, 2.0 * g1)
        monkeypatch.setattr(model, "record_block", plain_blocks)
        monkeypatch.setattr(model, "gcn_layer", plain_gcn_layer)
        tape, plain, _ = grads()
        assert "gcn_embedding" not in {e.op for e in tape.entries}
        for g_block, g_plain in zip(blocked, plain):
            np.testing.assert_array_equal(g_block, g_plain)

    @pytest.mark.parametrize("batch", [3, 70])  # one slice, then nine
    def test_an_input_passed_twice_gets_the_plain_gradient_once(self, batch):
        rng = np.random.default_rng(batch)
        block, (x, lap, w_att, w) = block_setup(rng, (batch, 5, 4), (4,))
        mix = Tensor(rng.standard_normal((batch, 2 * 4)))

        def grads(embedding):
            x.grad = w.grad = w_att.grad = None
            with Tape() as tape:
                loss = ops.reduce_sum(ops.mul(embedding(x, lap, w_att, w, w), mix))
            backward(loss, tape)
            return x.grad, w.grad, w_att.grad

        x_block, *w_block = grads(lambda *inputs: record_block("gcn_embedding", block, inputs)[0])
        x_plain, *w_plain = grads(lambda *inputs: block(*inputs)[0])
        np.testing.assert_array_equal(x_block, x_plain)
        for g_block, g_plain in zip(w_block, w_plain):
            if batch <= tensor.SLICE_ROWS:
                np.testing.assert_array_equal(g_block, g_plain)
            else:  # summed slice by slice
                assert np.abs(g_block - g_plain).max() <= 1e-12 * np.abs(g_plain).max()

    def test_a_weight_shared_by_the_three_layers_gets_the_op_by_op_gradient(self, monkeypatch):
        params, x, adjacency, laplacian = tiny_setup(5, n_features=TINY_GCN_HIDDEN[0])
        shared = params.gcn_weights[0]
        params.gcn_weights = [shared] * 3
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((3, *x.shape[1:])), requires_grad=True)
        mix = Tensor(rng.standard_normal((3, params.n_classes)))

        def grads():
            x.grad = shared.grad = None
            with Tape() as tape:
                emotion, _, _ = forward_batch(params, x, laplacian, adjacency, 0.5, domain_head=False)
                loss = ops.reduce_sum(ops.mul(emotion, mix))
            backward(loss, tape)
            return x.grad, shared.grad

        blocked = grads()
        monkeypatch.setattr(model, "record_block", plain_blocks)
        for g_block, g_plain in zip(blocked, grads()):
            np.testing.assert_array_equal(g_block, g_plain)

    @pytest.mark.parametrize("width", [3, 4])
    def test_a_layer_makes_three_output_sized_buffers(self, width):
        # Width 3 narrows the 4 features, so the layer makes x W, then L (x W);
        # width 4 makes L x, then (L x) W. relu makes the third. In a block the
        # tape keeps only the embedding: a mean and a max per column.
        batch, nodes, features = 3, 5, 4
        rng = np.random.default_rng(width)
        lap = Tensor(rng.standard_normal((nodes, nodes)))
        x = Tensor(rng.standard_normal((batch, nodes, features)), requires_grad=True)
        w = Tensor(rng.standard_normal((features, width)), requires_grad=True)
        given = lap.data.nbytes + x.data.nbytes + w.data.nbytes
        output_sized = batch * nodes * width * x.data.itemsize
        with Tape() as tape:
            gcn_layer(lap, x, w)
        assert [e.op for e in tape.entries] == ["matmul", "matmul", "relu"]
        assert tape_data_bytes(tape) - given == 3 * output_sized
        with Tape() as plain:
            plain_gcn_layer(lap, x, w)
        assert tape_data_bytes(plain) - given == 3 * output_sized
        w_att = Tensor(rng.standard_normal((width, 1)), requires_grad=True)
        block = partial(model._gcn_embedding, k=0.6)
        with Tape() as blocked:
            record_block("gcn_embedding", block, (x, lap, w_att, w))
        embedding = batch * 2 * width * x.data.itemsize
        assert tape_data_bytes(blocked) - given - w_att.data.nbytes == embedding

    def test_one_stack_entry_and_no_grad_inside(self, monkeypatch):
        made = made_inside_blocks(monkeypatch)
        params, x, loss = batched_tiny(0, batch=40)  # five recompute slices
        with Tape() as tape:
            out = loss()
        (block,) = [e for e in tape.entries if e.meta and "fn" in e.meta]
        assert block.op == "gcn_embedding" and tape.entries[0] is block
        assert block.inputs == (x, block.inputs[1], params.w_att, *params.gcn_weights)
        # The heads' ops follow on the caller's tape and read the embedding;
        # the attention's, the pooling's and the readout's ops ran inside the
        # block.
        readers = [e.op for e in tape.entries if block.output in e.inputs]
        assert readers == ["matmul", "grad_reverse"]
        on_tape = [e.op for e in tape.entries]
        assert {"tanh", "gather_rows", "mean", "max", "concat"}.isdisjoint(on_tape)
        # The matmuls on the tape are the heads' own.
        assert on_tape.count("matmul") == len(params.emotion) + len(params.domain)
        forward_made = len(made)
        backward(out, tape)
        assert len(made) > forward_made  # the recompute ran
        assert block.output.grad is not None and params.w_att.grad is not None
        assert all(t.grad is None for t in made)

    def test_the_tape_holds_no_array_made_inside_a_block(self, monkeypatch):
        made = made_inside_blocks(monkeypatch)
        # At every batch size, a batch of one included, each slice's result is
        # written into the block's own output array, so nothing made inside
        # survives.
        for batch in (1, 3, 40):
            _, _, loss = batched_tiny(1, batch=batch)
            with Tape() as tape:
                out = loss()
            arrays = [weakref.ref(t.data) for t in made]
            (output,) = [e.output.data for e in tape.entries if e.op == "gcn_embedding"]
            made.clear()

            def held():
                gc.collect()
                return {id(a()) for a in arrays if a() is not None}

            assert held() == set()
            backward(out, tape)
            assert held() == set()

    @pytest.mark.parametrize("width", [2, 6])
    def test_without_a_tape_it_is_the_plain_composition(self, width, monkeypatch):
        rng = np.random.default_rng(width)
        monkeypatch.setattr(tensor, "Tape", None)  # a private tape would fail to open
        for shape in ((3, 5, 4), (70, 5, 4)):  # one slice, then nine
            block, inputs = block_setup(rng, shape, (width, 3))
            plain_out, plain_index = plain_block(block, *inputs)
            out, index = record_block("gcn_embedding", block, inputs)
            assert not out.requires_grad
            np.testing.assert_array_equal(out.data, plain_out.data)
            np.testing.assert_array_equal(index, plain_index)

    def test_shape_error_inside_a_block_leaves_the_outer_tape_active_and_empty(self):
        # The Laplacian, sized for 3 nodes, fails against 4 in the block's
        # forward, whose ops record nothing.
        x = Tensor(np.ones((1, 4, 2)), requires_grad=True)
        w = Tensor(np.ones((2, 1)), requires_grad=True)
        w_att = Tensor(np.ones((1, 1)), requires_grad=True)
        block = partial(model._gcn_embedding, k=0.5)
        stack = tensor._STATE.stack
        with Tape() as tape:
            with pytest.raises(DimensionError):
                record_block("gcn_embedding", block, (x, Tensor(np.eye(3)), w_att, w))
            assert tensor._STATE.stack is stack and stack == [tape]
            assert len(tape) == 0
            ops.relu(x)
        assert [e.op for e in tape.entries] == ["relu"]
        assert not ops.relu(x).requires_grad  # no tape is left on the stack

    def test_shape_error_in_a_block_recompute_leaves_the_tape_stack_as_it_was(self):
        x = Tensor(np.ones((40, 4, 2)), requires_grad=True)
        w = Tensor(np.ones((2, 3)), requires_grad=True)
        w_att = Tensor(np.ones((3, 1)), requires_grad=True)
        lap = Tensor(np.eye(4))
        block = partial(model._gcn_embedding, k=0.5)
        with Tape() as tape:
            embedding, _ = record_block("gcn_embedding", block, (x, lap, w_att, w))
            loss = ops.reduce_sum(embedding)
        lap.data = np.eye(3)  # the recompute reads it and fails in its first slice
        stack = tensor._STATE.stack
        with Tape() as outer:
            with pytest.raises(DimensionError):
                backward(loss, tape)
            assert tensor._STATE.stack is stack and stack == [outer]
            ops.relu(x)
        assert [e.op for e in outer.entries] == ["relu"]
        with pytest.raises(DimensionError):
            backward(loss, tape)
        assert tensor._STATE.stack is stack and not stack
        assert x.grad is None and w.grad is None and w_att.grad is None

    def test_backward_and_margin_keep_the_forwards_selection(self, monkeypatch):
        # top_rank runs once per slice in the forward. The backward's
        # recompute and the margin's replay take the rows the forward kept, so
        # a seam that raises once the forward is done changes nothing.
        top = model.top_rank
        calls = []

        def counted(scores, k):
            calls.append(scores.shape)
            return top(scores, k)

        def fails(scores, k):
            raise AssertionError("top_rank called after the forward")

        def run(swap):
            monkeypatch.setattr(model, "top_rank", counted)
            params, x, loss = batched_tiny(6, batch=40)  # five slices
            with Tape() as tape:
                out = loss()
            if swap:
                monkeypatch.setattr(model, "top_rank", fails)
            backward(out, tape)
            return nonsmooth_margin(tape), [t.grad for t in (x, *params.all_params())]

        margin, grads = run(swap=False)
        calls.clear()
        swapped_margin, swapped = run(swap=True)
        assert calls == [(tensor.SLICE_ROWS, 4)] * 5
        assert swapped_margin == margin
        for g, g_swapped in zip(grads, swapped):
            np.testing.assert_array_equal(g_swapped, g)


class TestCheckpointSlicing:
    """The block runs its forward and its backward recompute in slices of
    SLICE_ROWS samples of its (B, N, F) batch."""

    SLICES_OF_70 = [(8, 5, 3)] * 8 + [(6, 5, 3)]
    # The input shape, the slices the forward runs, the slices the backward
    # recomputes. The last slice is short.
    CASES = {
        "batch_70": ((70, 5, 3), SLICES_OF_70, SLICES_OF_70),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_the_op_by_op_composition(self, case):
        shape, forward_slices, slices = self.CASES[case]
        assert tensor.SLICE_ROWS == 8
        rng = np.random.default_rng(len(shape) + len(slices))
        # Widths 4 then 2: one layer widens the 3 features, one narrows.
        block, (x, lap, *params) = block_setup(rng, shape, (4, 2))
        seen = []

        def recorded_block(first, *rest, **selected):
            seen.append(first.shape)
            return block(first, *rest, **selected)

        out_shape = block(x, lap, *params)[0].shape
        mix = rng.standard_normal(out_shape)
        tensors = [x, *params]

        def run(make, x_in, mix_in):
            for t in (x_in, *params):
                t.grad = None
            with Tape() as tape:
                out, index = make(x_in)
                loss = ops.reduce_sum(ops.mul(out, Tensor(mix_in)))
            backward(loss, tape)
            return tape, loss, out.data, index, [t.grad.copy() for t in (x_in, *params)]

        tape, loss, out, index, grads = run(
            lambda x_: record_block("gcn_embedding", recorded_block, (x_, lap, *params)), x, mix
        )
        assert seen == [*forward_slices, *slices]
        backward(loss, tape)
        for t, g in zip(tensors, grads):
            np.testing.assert_array_equal(t.grad, 2.0 * g)

        _, _, plain_out, plain_index, plain = run(lambda x_: block(x_, lap, *params), x, mix)
        np.testing.assert_array_equal(out, plain_out)
        np.testing.assert_array_equal(index, plain_index)
        np.testing.assert_array_equal(grads[0], plain[0])
        for g, p in zip(grads[1:], plain[1:]):
            assert np.abs(g - p).max() <= 1e-12 * np.abs(p).max()

        summed = None
        for lo in range(0, len(x.data), tensor.SLICE_ROWS):
            part = Tensor(x.data[lo : lo + tensor.SLICE_ROWS], requires_grad=True)
            *_, part_grads = run(
                lambda x_: block(x_, lap, *params), part, mix[lo : lo + tensor.SLICE_ROWS]
            )
            summed = part_grads[1:] if summed is None else [a + b for a, b in zip(summed, part_grads[1:])]
        for g, s in zip(grads[1:], summed):
            np.testing.assert_array_equal(g, s)

    @pytest.mark.parametrize("shape", [(4,), (3, 4, 2), (40, 4, 2), (40, 4)])
    def test_a_function_that_changes_the_leading_axes_rejected(self, shape):
        x = Tensor(np.ones(shape), requires_grad=True)
        calls = []

        def sum_samples(x_):  # the output loses the sample axis
            calls.append(x_.shape)
            return ops.reduce_sum(x_, axis=0), np.zeros(x_.shape[:-1], dtype=np.intp)

        def one_index_row(x_):  # the index loses it
            calls.append(x_.shape)
            return ops.mul(x_, x_), np.zeros(x_.shape[-2:-1], dtype=np.intp)

        for fn in (sum_samples, one_index_row):
            for taped in (True, False):
                calls.clear()
                tape = Tape()
                with tape if taped else contextlib.nullcontext():
                    with pytest.raises(ContractError, match=r"\(B, N, F\) batch.*\(b, M\) rows"):
                        record_block("drop_samples", fn, (x,))
                assert len(tape) == 0
                # A first input that is not (B, N, F) is rejected before fn
                # runs; a lost sample axis on the first slice, before any
                # slice is written.
                assert len(calls) == (1 if len(shape) == 3 else 0)

    def test_a_forward_without_a_tape_holds_the_output_and_one_slice(self):
        # Equal widths make every layer buffer input-sized; 8 slices make a
        # slice's buffers an eighth of that. Unsliced, the forward held about
        # three input-sized buffers at once: a layer's input, product and relu.
        rng = np.random.default_rng(3)
        block, inputs = block_setup(rng, (8 * tensor.SLICE_ROWS, 32, 32), (32, 32, 32))
        results = []
        peak = traced_peak_bytes(lambda: results.append(record_block("gcn_embedding", block, inputs)))
        (out, index), sliced = results[0], inputs[0].data.nbytes // 8
        assert peak < out.data.nbytes + index.nbytes + 4 * sliced

    def test_a_backward_frees_each_slice_as_it_walks_it(self):
        # Widths and batch as above, in slice buffers of (SLICE_ROWS, 32, 32).
        # A recompute that kept its slice's entries and spent gradients to
        # the end of the walk held about twice the slice's activations and
        # peaked at ~30 buffers; one that drops them as it reaches them
        # peaks at ~13.
        rng = np.random.default_rng(3)
        block, inputs = block_setup(rng, (8 * tensor.SLICE_ROWS, 32, 32), (32, 32, 32))
        inputs[0].requires_grad = False
        with Tape() as tape:
            out, _ = record_block("gcn_embedding", block, inputs)
            loss = ops.reduce_sum(out)
        peak = traced_peak_bytes(lambda: backward(loss, tape))
        assert peak < 20 * (inputs[0].data.nbytes // 8)

    def test_an_untaped_forward_batch_holds_the_embedding_and_slices(self):
        # The pooled nodes are (B, 31, 64), about 15 times the (B, 128)
        # embedding; a forward that held them whole would peak above this
        # bound by themselves.
        params, x, adjacency, laplacian = default_setup(8, 16 * tensor.SLICE_ROWS)
        nodes, width = x.shape[1], params.gcn_weights[-1].shape[-1]
        results = []
        peak = traced_peak_bytes(
            lambda: results.append(forward_batch(params, x, laplacian, adjacency, 0.5))
        )
        index = results[0][2]
        embedding = len(x.data) * 2 * width * x.data.itemsize
        sliced = tensor.SLICE_ROWS * nodes * width * x.data.itemsize
        assert peak < embedding + index.nbytes + 4 * sliced

    def test_a_taped_forward_batch_keeps_less_than_the_pooled_nodes(self):
        # Besides its inputs, the tape holds the (B, 128) embedding and the
        # heads' activations: all of it together is less than the (B, 31, 64)
        # pooled nodes, which a tape ending the block at pooling would keep.
        params, x, adjacency, laplacian = default_setup(12, 2 * tensor.SLICE_ROWS)
        x.requires_grad = True
        given = sum(t.data.nbytes for t in (x, laplacian, *params.all_params()))
        with Tape() as tape:
            _, _, index = forward_batch(params, x, laplacian, adjacency, 0.5)
        pooled = index.size * params.gcn_weights[-1].shape[-1] * x.data.itemsize
        assert tape_data_bytes(tape) - given < pooled

    def test_a_taped_forward_batch_keeps_no_array_over_all_nodes(self):
        # Besides the features, whatever the tape holds has at most the
        # embedding: no (..., N, G) stack output or (..., N, 1) scores.
        _, x, loss = batched_tiny(3, batch=20)
        with Tape() as tape:
            loss()
        held = {id(t): t for e in tape.entries for t in (*e.inputs, e.output)}
        n = x.shape[-2]
        assert [t.shape for t in held.values() if t is not x and t.ndim > 2 and t.shape[-2] == n] == []


def test_forward_batch_leaves_its_callers_arrays_as_they_were():
    params, x, adjacency, laplacian = tiny_setup(4)
    x = Tensor(np.random.default_rng(4).standard_normal((3, *x.shape[1:])), requires_grad=True)
    callers = [x.data, laplacian.data, adjacency, *(p.data for p in params.all_params())]
    before = [a.tobytes() for a in callers]
    forward_batch(params, x, laplacian, adjacency, 0.5)
    assert [a.tobytes() for a in callers] == before
    with Tape() as tape:
        emotion, domain, _ = forward_batch(params, x, laplacian, adjacency, 0.5)
        loss = ops.add(ops.reduce_sum(ops.log(emotion)), ops.reduce_sum(ops.log(domain)))
    backward(loss, tape)
    assert [a.tobytes() for a in callers] == before


def test_backward_leaves_the_callers_tape_whole():
    # 20 samples cross two slice boundaries. The walk pops the list it is
    # given, so the tape's own must survive it for a second pass.
    params, _, loss = batched_tiny(6, batch=20)
    with Tape() as tape:
        out = loss()
    entries = list(tape.entries)
    backward(out, tape)
    assert len(tape.entries) == len(entries)
    assert all(a is b for a, b in zip(tape.entries, entries))
    once = [p.grad.copy() for p in params.all_params()]
    backward(out, tape)
    for p, g in zip(params.all_params(), once):
        np.testing.assert_array_equal(p.grad, 2.0 * g)
    held = [t for e in tape.entries for t in (*e.inputs, e.output) if t.requires_grad]
    assert [t for t in held if t.grad is None] == []


def test_no_recorded_op_writes_over_its_inputs():
    # Walked op by op, so the GCN stack's inside is covered too. An op that
    # wrote over an input would return that input's buffer.
    _, _, loss = batched_tiny(2, batch=40)
    with Tape() as tape:
        loss()
    entries = list(op_entries(tape))
    assert {"relu", "matmul", "max", "gather_rows"} <= {e.op for e in entries}
    for entry in entries:
        for t in entry.inputs:
            assert not np.shares_memory(entry.output.data, t.data), entry.op


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

    def test_zero_nodes_are_degenerate(self):
        params, _, _, _ = tiny_setup(0)
        empty = np.empty((0, 0))
        for call in (
            lambda: retained_count(0.5, 0),
            lambda: top_rank(np.empty((3, 0)), 0.5),
            lambda: forward_batch(params, Tensor(np.empty((2, 0, 3))), Tensor(empty), empty, 0.5),
        ):
            with pytest.raises(DegenerateInputError, match="node count"):
                call()


class TestSagPool:
    def test_identity_when_everything_kept_with_unit_scores(self):
        x = Tensor(np.arange(8.0).reshape(4, 2))
        scores = Tensor(np.ones((4, 1)))
        out = sag_pool(x, scores, top_rank(scores.data[..., 0], 1.0))
        np.testing.assert_array_equal(out.data, x.data)

    def test_kept_rows_scaled_by_their_scores(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((4, 3)))
        scores = Tensor(np.array([[0.9], [0.1], [0.5], [0.7]]))
        out = sag_pool(x, scores, np.array([0, 3]))
        np.testing.assert_allclose(out.data[0], 0.9 * x.data[0])
        np.testing.assert_allclose(out.data[1], 0.7 * x.data[3])

    @pytest.mark.parametrize("columns", [2, 3])
    def test_scores_with_more_than_one_column_rejected(self, columns):
        # With as many columns as features, the score product would broadcast.
        x = Tensor(np.ones((4, 3)))
        with pytest.raises(DimensionError, match="must have shape"):
            sag_pool(x, Tensor(np.ones((4, columns))), np.array([0, 1]))

    def test_gradient_reaches_attention_weights(self):
        params, x, _, laplacian = tiny_setup(3)
        with Tape() as tape:
            embedding, _ = model._gcn_embedding(x, laplacian, params.w_att, *params.gcn_weights, k=0.5)
            loss = ops.reduce_sum(embedding)
        backward(loss, tape)
        assert params.w_att.grad is not None
        assert np.abs(params.w_att.grad).max() > 0

    @pytest.mark.parametrize("k", [i / 10 for i in range(1, 11)])
    def test_node_count_exactly_ceil_k_n(self, k):
        # The block with no GCN layer: attention on the features, pooling,
        # then the readout of what pooling kept.
        rng = np.random.default_rng(17)
        for n in range(1, 63):
            x = Tensor(rng.standard_normal((n, 2)))
            lap = Tensor(np.eye(n))
            w_att = Tensor(rng.standard_normal((2, 1)))
            embedding, index = model._gcn_embedding(x, lap, w_att, k=k)
            pooled = sag_pool(x, attention_scores(lap, x, w_att), index)
            assert pooled.shape == (retained_count(k, n), 2)
            assert index.shape == (retained_count(k, n),)
            np.testing.assert_array_equal(embedding.data, readout(pooled).data)


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

    def test_unbatched_sample_rejected(self, monkeypatch):
        # Features are one (B, N, F) batch: a bare (N, F) sample and an
        # (S, B, N, F) stack of batches are rejected before any op.
        params, x, adjacency, laplacian = tiny_setup(0)
        products = []
        matmul = ops.matmul
        monkeypatch.setattr(ops, "matmul", lambda a, b: products.append(a) or matmul(a, b))
        for shape in (x.shape[1:], (2, 3, *x.shape[1:])):
            features = Tensor(np.ones(shape), requires_grad=True)
            with Tape() as tape:
                with pytest.raises(DimensionError, match=r"\(B, N, F\)"):
                    forward_batch(params, features, laplacian, adjacency, 0.5)
            assert products == [] and len(tape) == 0

    # Every sample shares one (N, N) Laplacian: a per-sample or broadcast one
    # is rejected whether the GCN stack would run one slice or several.
    @pytest.mark.parametrize(
        "batch, shape", [(2, (2, 4, 4)), (33, (33, 4, 4)), (2, (1, 4, 4)), (2, (5, 5))]
    )
    def test_a_laplacian_other_than_n_by_n_rejected_before_any_op(self, batch, shape, monkeypatch):
        params, x, adjacency, laplacian = tiny_setup(0)
        x = Tensor(np.ones((batch, *x.shape[1:])), requires_grad=True)
        lap = Tensor(np.resize(laplacian.data, shape))
        recorded = []
        monkeypatch.setattr(ops, "record_op", lambda *args, **kwargs: recorded.append(args))
        with Tape():
            with pytest.raises(DimensionError, match=r"laplacian .* 4 nodes"):
                forward_batch(params, x, lap, adjacency, 0.5)
        assert recorded == []

    # The adjacency too, although nothing past the check reads it.
    @pytest.mark.parametrize(
        "batch, shape", [(2, (2, 4, 4)), (33, (33, 4, 4)), (2, (1, 4, 4)), (2, (5, 5))]
    )
    def test_an_adjacency_other_than_n_by_n_rejected_before_any_op(self, batch, shape, monkeypatch):
        params, x, adjacency, laplacian = tiny_setup(0)
        x = Tensor(np.ones((batch, *x.shape[1:])), requires_grad=True)
        recorded = []
        monkeypatch.setattr(ops, "record_op", lambda *args, **kwargs: recorded.append(args))
        with Tape():
            with pytest.raises(DimensionError, match=r"adjacency .* 4 nodes"):
                forward_batch(params, x, laplacian, np.resize(adjacency, shape), 0.5)
        assert recorded == []

    @pytest.mark.parametrize("k", [0.0, 1.5, math.nan])
    def test_a_ratio_outside_zero_to_one_rejected_before_any_op(self, k, monkeypatch):
        params, _, adjacency, laplacian = tiny_setup(0)
        x = Tensor(np.ones((20, 4, 3)), requires_grad=True)
        products = []
        matmul = ops.matmul
        monkeypatch.setattr(ops, "matmul", lambda a, b: products.append(a) or matmul(a, b))
        with Tape() as tape:
            with pytest.raises(ConfigError, match="pooling ratio"):
                forward_batch(params, x, laplacian, adjacency, k)
        assert products == [] and len(tape) == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_laplacian_rejected_before_any_op(self, bad, monkeypatch):
        params, x, adjacency, laplacian = tiny_setup(0)
        lap = laplacian.data.copy()
        lap[2, 1] = bad
        products = []
        matmul = ops.matmul
        monkeypatch.setattr(ops, "matmul", lambda a, b: products.append(a) or matmul(a, b))
        with Tape() as tape:
            with pytest.raises(GraphError, match=rf"laplacian must be finite; entry \(2, 1\) is {bad}"):
                forward_batch(params, x, Tensor(lap), adjacency, 0.5)
        assert products == [] and len(tape) == 0

    def test_an_empty_batch_gives_empty_outputs(self):
        params, x, adjacency, laplacian = tiny_setup(0)
        empty = Tensor(np.empty((0, *x.shape[1:])))
        emotion, domain, index = forward_batch(params, empty, laplacian, adjacency, 0.5)
        assert emotion.shape == (0, params.n_classes) and domain.shape == (0, 2)
        assert index.shape == (0, retained_count(0.5, x.shape[-2]))

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
        _, _, index = forward_batch(params, x, laplacian, adjacency, 0.5)
        assert index.shape == (1, 31)

    def test_deterministic_for_fixed_params(self):
        params, x, adjacency, laplacian = tiny_setup(2)
        first = forward_batch(params, x, laplacian, adjacency, 0.5)[0].data
        second = forward_batch(params, x, laplacian, adjacency, 0.5)[0].data
        np.testing.assert_array_equal(first, second)

    @settings(max_examples=40, deadline=None)
    @given(
        size=st.one_of(
            st.integers(1, 6),
            # The GCN stack runs these in more than one slice of SLICE_ROWS
            # samples, the last one short.
            st.integers(tensor.SLICE_ROWS + 1, 3 * tensor.SLICE_ROWS + 6),
        ),
        seed=st.integers(0, 2**16),
    )
    @example(size=tensor.SLICE_ROWS + 1, seed=0)
    def test_batched_matches_per_sample(self, size, seed):
        params, _, adjacency, laplacian = tiny_setup(seed)
        batch = np.random.default_rng([seed, 1]).standard_normal((size, 4, 3))
        emotion_b, domain_b, index_b = forward_batch(params, Tensor(batch), laplacian, adjacency, 0.5)
        for i in range(size):
            emotion_i, domain_i, index_i = forward_batch(
                params, Tensor(batch[i][None]), laplacian, adjacency, 0.5
            )
            np.testing.assert_allclose(emotion_b.data[i], emotion_i.data[0], atol=1e-12)
            np.testing.assert_allclose(domain_b.data[i], domain_i.data[0], atol=1e-12)
            np.testing.assert_array_equal(index_b[i], index_i[0])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), perm=st.permutations(range(4)))
    def test_permutation_consistency_of_probabilities(self, seed, perm):
        # Relabelling the channels leaves the readout unchanged, unless a tie
        # at the retention boundary lets the relabelling keep another node.
        # Scores within rounding of a tie count as tied: the permuted products
        # sum in another order.
        params, x, adjacency, laplacian = tiny_setup(seed)
        emotion, _, index = forward_batch(params, x, laplacian, adjacency, 0.5)
        h = x
        for w in params.gcn_weights:
            h = gcn_layer(laplacian, h, w)
        scores = np.sort(attention_scores(laplacian, h, params.w_att).data[0, :, 0])[::-1]
        kept = index.shape[-1]
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
