"""Dense float64 tensors and the gradient tape.

Reverse-mode differentiation works by recording every differentiable
operation, in execution order, onto the active :class:`Tape`. Because ops
are recorded as they run, the record is already topologically sorted and
``backward`` simply walks it in reverse. One training run owns one tape;
the active-tape stack is thread-local so independent runs can execute
concurrently.

A block (:func:`record_block`) records a whole layer as one entry: its ops
go on a private tape that the entry's backward replays. Tensors made inside
a block never get a ``grad``; their gradients live only while the block's
backward runs.

Tensors are single-writer, with one exception: a block may overwrite its
own intermediate when no recorded backward reads that intermediate, as the
GCN layer's relu writes over the product it activates.
"""

from __future__ import annotations

import threading
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ContractError


class _State(threading.local):
    """Per-thread stack of recording tapes, innermost last."""

    def __init__(self):
        self.stack: list[Tape] = []


_STATE = _State()


class Tensor:
    """A dense n-dimensional float64 value with an optional gradient buffer.

    ``data`` is stored row-major. ``grad`` is filled in by :func:`backward`
    and has the same shape as ``data`` whenever present. Tensors are
    single-writer: do not mutate ``data`` while a tape that saw the tensor
    is still live. The one exception is a block's own intermediate that no
    recorded backward reads, which the block may overwrite (``ops.relu``
    with ``in_place``).
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class TapeEntry(NamedTuple):
    op: str
    inputs: tuple[Tensor, ...]
    output: Tensor
    # Maps the upstream gradient to per-input contributions. A contribution
    # is None for an input without requires_grad (nothing reads it), and is
    # otherwise a fresh array or a view, never an array the closure keeps or
    # that is some tensor's data: ``backward`` may adopt it as a grad buffer.
    backward: Callable[[np.ndarray], tuple[np.ndarray | None, ...]]
    # Op-specific details for tape introspection: a max's reduce axis, a
    # block's private tape under "tape".
    meta: dict | None


class Tape:
    """Ordered record of differentiable operations.

    Entries are appended in execution order, so every operation's inputs
    precede it and reverse iteration is a valid backward schedule.
    """

    def __init__(self):
        self.entries: list[TapeEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    def __enter__(self) -> "Tape":
        _STATE.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = _STATE.stack
        if not stack or stack[-1] is not self:
            raise ContractError("tape context exited out of order")
        stack.pop()


def record_op(op: str, inputs: Sequence[Tensor], out_data: np.ndarray, backward, meta=None) -> Tensor:
    """Create the output tensor of an op, recording it if a tape is active.

    The output requires a gradient only when some input does and a tape is
    listening; otherwise the op runs as plain evaluation.
    """
    stack = _STATE.stack
    needs_grad = bool(stack) and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=needs_grad)
    if needs_grad:
        stack[-1].entries.append(TapeEntry(op, tuple(inputs), out, backward, meta))
    return out


def record_block(op: str, fn: Callable[..., Tensor], inputs: tuple[Tensor, ...], *args) -> Tensor:
    """``fn(*inputs, *args)``, recorded as one entry when a tape is active.

    With no tape active this is a plain call. Otherwise ``fn``'s ops are
    recorded on a private tape, and the active tape gets one entry whose
    backward replays them with a gradient table of its own and returns the
    contributions to ``inputs`` alone. Every tensor ``fn`` reads that may
    require a gradient must be one of ``inputs``.
    """
    if not _STATE.stack:
        return fn(*inputs, *args)
    with Tape() as inner:
        out = fn(*inputs, *args)

    def backward(g):
        flowing = {out: g}
        _propagate(inner.entries, flowing)
        return tuple(flowing.get(t) for t in inputs)

    return record_op(op, inputs, out.data, backward, {"tape": inner})


def _propagate(entries: list[TapeEntry], flowing: dict[Tensor, np.ndarray]) -> None:
    """Walk ``entries`` in reverse, summing each input's contributions into ``flowing``.

    ``flowing`` maps a tensor to its gradient so far and must hold the
    starting gradient. Tensors hash by identity, so it keys each by itself.
    """
    for entry in reversed(entries):
        upstream = flowing.get(entry.output)
        if upstream is None:
            continue  # not on the path from the start
        contributions = entry.backward(upstream)
        for tensor, contrib in zip(entry.inputs, contributions):
            if contrib is None or not tensor.requires_grad:
                continue
            held = flowing.get(tensor)
            flowing[tensor] = contrib if held is None else held + contrib


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate ``grad`` buffers for every requires-grad tensor feeding ``loss``.

    Tensors made inside a block (:func:`record_block`) get none: their
    gradients are freed when the block's backward returns. Gradients
    accumulate: calling backward again without clearing grads adds a second,
    independent pass' contributions on top of the first. A tensor without a
    buffer adopts its summed contribution as ``grad`` when that is a fresh
    writeable array no other tensor adopted in this pass; views and shared
    arrays are copied, so no two buffers alias.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    # Accumulate within this pass in a side table so repeated backward calls
    # stay independent, then fold the totals into the persistent buffers.
    flowing: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
    _propagate(tape.entries, flowing)
    adopted: set[int] = set()
    for tensor, total in flowing.items():
        if tensor.grad is not None:
            tensor.grad += total
        elif total.base is None and total.flags.writeable and id(total) not in adopted:
            tensor.grad = total
            adopted.add(id(total))
        else:
            tensor.grad = np.array(total)
