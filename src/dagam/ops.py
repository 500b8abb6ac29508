"""Differentiable operations on :class:`~dagam.tensor.Tensor`.

All ops follow numpy's trailing-dimension broadcast rule and work on
float64 data. Binary ops and matmul accept extra leading batch dimensions;
gradients are summed back down to each operand's shape.

Operands whose shapes do not fit raise DimensionError naming the shapes.
Where numpy rejects them itself, the operation is the check: its
ValueError is re-raised as DimensionError, so the valid path pays for no
pre-check. Only what numpy would accept or misreport is checked up front:
matmul's rank (numpy takes 1-d operands) and inner dimension, and the
range of concat's axis.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .errors import ContractError, DegenerateInputError, DimensionError
from .tensor import Tensor, record_op

# Arguments of log are clamped below at this floor so loss terms stay finite
# on zero probabilities; the gradient is zeroed inside the clamped region.
LOG_FLOOR = 1e-12

# float64 tanh rounds to exactly +-1 once |x| passes ~19; outputs are clipped
# to the largest double below 1 so they stay in the open interval.
_TANH_BOUND = np.nextafter(1.0, 0.0)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; extra leading dimensions broadcast as a batch."""
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs rank >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: inner dimensions disagree, {a.shape} x {b.shape}")
    try:
        out = a.data @ b.data
    except ValueError:
        raise DimensionError(f"matmul: batch dimensions disagree, {a.shape} x {b.shape}") from None

    def backward(g):
        ga = None
        if a.requires_grad:
            # BLAS runs g @ W^T faster on a C-contiguous copy of W^T than on
            # the transposed view, with the same result.
            ga = _unbroadcast(g @ np.ascontiguousarray(np.swapaxes(b.data, -1, -2)), a.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape) if b.requires_grad else None
        return ga, gb

    return record_op("matmul", (a, b), out, backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return record_op("add", (a, b), out, backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError:
        raise DimensionError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return record_op("mul", (a, b), out, backward)


def relu(x: Tensor) -> Tensor:
    """max(x, 0) in a fresh array; a NaN input stays NaN."""
    out = np.maximum(x.data, 0.0)

    def backward(g):
        return (g * (x.data > 0),)

    return record_op("relu", (x,), out, backward)


def tanh(x: Tensor) -> Tensor:
    """tanh(x) strictly inside (-1, 1), with derivative sech^2(x) computed from x."""
    y = np.tanh(x.data, out=np.empty_like(x.data))
    np.clip(y, -_TANH_BOUND, _TANH_BOUND, out=y)

    def backward(g):
        e = np.exp(-2.0 * np.abs(x.data))
        return (g * (4.0 * e / (1.0 + e) ** 2),)

    return record_op("tanh", (x,), y, backward)


def log(x: Tensor) -> Tensor:
    """Natural log of ``max(x, LOG_FLOOR)``; flat (zero gradient) below the floor."""
    clamped = np.maximum(x.data, LOG_FLOOR)

    def backward(g):
        return (np.where(x.data >= LOG_FLOOR, g / clamped, 0.0),)

    return record_op("log", (x,), np.log(clamped), backward)


def _check_reduce_axis(x: Tensor, axis: int | None) -> int | None:
    if axis is None:
        if x.size == 0:
            raise DegenerateInputError("cannot reduce an empty tensor")
        return None
    if not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"axis {axis} out of range for shape {x.shape}")
    axis = axis % x.ndim
    if x.shape[axis] == 0:
        raise DegenerateInputError(f"cannot reduce over empty axis {axis} of shape {x.shape}")
    return axis


def reduce_sum(x: Tensor, axis: int | None = None) -> Tensor:
    axis = _check_reduce_axis(x, axis)
    out = x.data.sum(axis=axis)

    def backward(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.shape),)

    return record_op("sum", (x,), out, backward)


def reduce_mean(x: Tensor, axis: int | None = None) -> Tensor:
    axis = _check_reduce_axis(x, axis)
    count = x.size if axis is None else x.shape[axis]
    out = x.data.mean(axis=axis)

    def backward(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / count, x.shape),)

    return record_op("mean", (x,), out, backward)


def reduce_max(x: Tensor, axis: int) -> Tensor:
    """Max reduction along integer ``axis``; the gradient goes to the first maximal element.

    A slice holding NaN reduces to NaN and sends its gradient to its first NaN.
    """
    if axis is None:
        raise DimensionError("reduce_max needs an integer axis")
    axis = _check_reduce_axis(x, axis)
    out = x.data.max(axis=axis)

    def backward(g):
        grad = np.zeros_like(x.data)
        first = np.expand_dims(np.argmax(x.data, axis=axis), axis)
        np.put_along_axis(grad, first, np.expand_dims(g, axis), axis=axis)
        return (grad,)

    return record_op("max", (x,), out, backward, meta={"axis": axis})


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax along the last axis, computed with max subtraction for stability."""
    if x.ndim < 1:
        raise DimensionError("softmax_rows needs at least one axis")
    if x.shape[-1] == 0:
        raise DegenerateInputError(f"softmax_rows over an empty last axis, shape {x.shape}")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    y = np.exp(shifted)
    y /= y.sum(axis=-1, keepdims=True)

    def backward(g):
        return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)

    return record_op("softmax_rows", (x,), y, backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    try:
        out = x.data.reshape(shape)
    except ValueError:
        raise DimensionError(f"cannot reshape {x.shape} to {shape}") from None
    original = x.shape

    def backward(g):
        return (g.reshape(original),)

    return record_op("reshape", (x,), out, backward)


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    if not tensors:
        raise DegenerateInputError("concat of zero tensors")
    ndim = tensors[0].ndim
    if not -ndim <= axis < ndim:
        raise DimensionError(f"concat: axis {axis} out of range for rank-{ndim} inputs")
    axis %= ndim
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        shapes = ", ".join(str(t.shape) for t in tensors)
        raise DimensionError(f"concat: shapes {shapes} do not join along axis {axis}") from None
    inputs = tuple(tensors)

    def backward(g):
        offsets = list(accumulate(t.shape[axis] for t in inputs))[:-1]
        return tuple(np.split(g, offsets, axis=axis))

    return record_op("concat", inputs, out, backward)


def gather_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """Select rows along the second-to-last axis.

    ``index`` has shape ``x.shape[:-2] + (M,)`` and an integer dtype
    (signed or unsigned; float and bool indices raise ContractError rather
    than being truncated or read as 0/1), with entries in ``[0, N)``, else
    ContractError; the output is ``x.shape[:-2] + (M, F)``. The forward
    makes one index into a (batch, N, F) view; the backward scatter-adds
    with one ``np.bincount`` over flat element indices, so repeated indices
    accumulate and a non-finite upstream value reaches only the row it was
    gathered from.
    """
    if x.ndim < 2:
        raise DimensionError(f"gather_rows needs rank >= 2 input, got {x.shape}")
    index = np.asarray(index)
    if index.dtype.kind not in "iu":
        raise ContractError(f"gather_rows: indices must be integers, got dtype {index.dtype}")
    if index.ndim != x.ndim - 1 or index.shape[:-1] != x.shape[:-2]:
        raise DimensionError(
            f"gather_rows: index shape {index.shape} does not match input {x.shape}"
        )
    n_rows, n_cols = x.shape[-2], x.shape[-1]
    if index.size and not (0 <= index.min() and index.max() < n_rows):
        raise ContractError(
            f"gather_rows: indices must lie in [0, {n_rows}), got [{index.min()}, {index.max()}]"
        )
    batch = math.prod(x.shape[:-2])
    rows = index.astype(np.intp, copy=False).reshape(batch, index.shape[-1])
    samples = np.arange(batch)[:, None]
    out = x.data.reshape(batch, n_rows, n_cols)[samples, rows].reshape(index.shape + (n_cols,))

    def backward(g):
        flat = ((rows + n_rows * samples)[..., None] * n_cols + np.arange(n_cols)).ravel()
        grad = np.bincount(flat, weights=g.ravel(), minlength=batch * n_rows * n_cols)
        return (grad.reshape(x.shape),)

    return record_op("gather_rows", (x,), out, backward)
