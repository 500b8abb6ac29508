"""Dense float64 tensors and the gradient tape.

Reverse-mode differentiation works by recording every differentiable
operation, in execution order, onto the active :class:`Tape`. Because ops
are recorded as they run, the record is already topologically sorted and
``backward`` simply walks it in reverse. One training run owns one tape;
the active-tape stack is thread-local so independent runs can execute
concurrently.

A block (:func:`record_block`), here the model's GCN stack, attention scores,
pooling and readout, runs on a (B, N, F) batch in slices of ``SLICE_ROWS``
samples, with or without a tape, and records them as one checkpointed entry
that references only its inputs, its output (the (B, 2G) embedding) and the
nodes it kept. Its backward recomputes the block on the same slices with
those nodes, so nothing is selected twice, each on a private tape whose
entries and spent gradients are dropped as the walk reaches them. No
intermediate of a block outlives its slice, and tensors made inside a block
never get a ``grad``.

Tensors are single-writer: no op writes into its inputs' data, so a recorded
tensor keeps the values it was recorded with.
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

# Samples per slice of a block, in its forward and its backward recompute, so a
# block's memory is its output plus one slice's intermediates at any batch size.
# A B=256 train step (1 BLAS thread, 150 steps, seeds 71-73) takes ~21k minor
# faults at 32, ~12k at 16, ~90 at 8 and ~6 at 4 (getrusage means): above 8
# glibc trims the heap after a slice and regrows it in the next. Median steps
# took 88-130, 75-82, 61-76 and 71-75 ms: 8 is the fastest.
SLICE_ROWS = 8


class Tensor:
    """A dense n-dimensional float64 value with an optional gradient buffer.

    ``data`` is stored row-major. ``grad`` is filled in by :func:`backward`
    and has the same shape as ``data`` whenever present. Tensors are
    single-writer: do not mutate ``data`` while a tape that saw the tensor
    is still live; a block's backward recomputes from its inputs' data.
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
    # Maps the upstream gradient to per-input contributions. For an input
    # without requires_grad it may be None or an array (``mul`` computes one
    # for a constant factor); ``_propagate`` drops either unread. Any other is
    # a fresh array or a view, never an array the closure keeps or that is
    # some tensor's data: ``backward`` may adopt it as a grad buffer.
    backward: Callable[[np.ndarray], tuple[np.ndarray | None, ...]]
    # Op-specific details for tape introspection: a max's reduce axis, a
    # block's function under "fn" and its selected rows under "index" (its
    # ops are ``fn(*inputs, index=index)`` replayed). No code in the package
    # reads it: the test oracle ``tests/gradcheck.py`` does, and
    # ``bench/tracing.py`` passes it through.
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


def record_block(
    op: str, fn: Callable[..., tuple[Tensor, np.ndarray]], inputs: tuple[Tensor, ...]
) -> tuple[Tensor, np.ndarray]:
    """``fn(*inputs)`` run in slices, recorded as one checkpointed entry when a tape is active.

    ``fn`` returns an output and the integer rows it selected per sample, as
    the model's GCN stack, attention, pooling and readout return the
    embedding and the indices of the nodes pooling kept. It runs on slices of
    ``SLICE_ROWS`` samples of the first input, with gradient-free wrappers of
    the others so that none of its ops records, and each slice's results are
    written into the one output and index array the block returns: at any
    batch size the forward holds those plus one slice's intermediates. The
    active tape gets one entry (when some input requires a gradient) that
    references only ``inputs``, the output and the index. Its backward
    recomputes ``fn(*inputs, index=rows)`` on the same slices, each on a
    private tape whose entries and spent gradients are dropped as the walk
    reaches them, where ``rows`` are the rows that slice's forward selected,
    so ``fn`` must use them rather than select again. It sums every slice's
    gradients into one table: the first input's slices fill one array, and an
    input passed twice gets its total once.

    The contract: the first input is a (B, N, F) batch, checked before any
    slice runs, and ``fn`` maps each slice of b samples to an output with
    leading axis b and (b, M) rows, checked before they are written. ``fn``
    must also be row-independent over the samples, and read only ``inputs``,
    ``index`` and what it binds itself. Since it is recomputed in backward,
    the inputs' data and the returned index must stay unchanged until then.
    """
    first, rest = inputs[0], inputs[1:]
    if first.ndim != 3:
        raise _contract_broken(op, first.shape)
    batch = len(first.data)
    slices = [slice(lo, lo + SLICE_ROWS) for lo in range(0, max(batch, 1), SLICE_ROWS)]
    constants = [Tensor(t.data) for t in rest]
    for s in slices:
        part = Tensor(first.data[s])
        part_out, part_index = fn(part, *constants)
        b = part.shape[:1]
        if part_out.shape[:1] != b or part_index.ndim != 2 or part_index.shape[:1] != b:
            raise _contract_broken(op, f"{part.shape} -> {part_out.shape} and {part_index.shape}")
        if s.start == 0:
            out = np.empty((batch, *part_out.shape[1:]))
            index = np.empty((batch, part_index.shape[1]), part_index.dtype)
        out[s] = part_out.data
        index[s] = part_index
        del part_out  # not held while the next slice runs

    def backward(g):
        grad_first = np.empty(first.shape) if first.requires_grad else None
        totals: dict[Tensor, np.ndarray] = {}
        for s in slices:
            part = Tensor(first.data[s], requires_grad=first.requires_grad)
            with Tape() as tape:
                part_out, _ = fn(part, *rest, index=index[s])
            entries, flowing = tape.entries, {**totals, part_out: g[s]}
            del tape, part_out  # the walk holds the only references
            for _ in _propagate(entries, flowing):
                pass
            if grad_first is not None:
                grad_first[s] = flowing.get(part, 0.0)
            totals = {t: flowing[t] for t in rest if t in flowing}
        return (grad_first, *(totals.pop(t, None) for t in rest))

    return record_op(op, inputs, out, backward, {"fn": fn, "index": index}), index


def _contract_broken(op: str, got) -> ContractError:
    return ContractError(
        f"{op}: a block maps a (B, N, F) batch, b samples per slice, to an output "
        f"with leading axis b and (b, M) rows, got {got}"
    )


def _propagate(entries: list[TapeEntry], flowing: dict[Tensor, np.ndarray]):
    """Pop ``entries`` from the end, summing each input's contributions into ``flowing``.

    ``flowing`` maps a tensor to its gradient so far and must hold the
    starting gradient. Tensors hash by identity, so it keys each by itself.
    An entry leaves ``entries`` when reached and its output's gradient leaves
    ``flowing`` when taken; that (output, gradient) pair is yielded, so a
    caller that keeps none frees both as it goes. The leaves' stay in ``flowing``.
    """
    while entries:
        entry = entries.pop()
        upstream = flowing.pop(entry.output, None)
        if upstream is None:
            continue  # not on the path from the start
        yield entry.output, upstream
        for tensor, contrib in zip(entry.inputs, entry.backward(upstream)):
            if contrib is None or not tensor.requires_grad:
                continue
            held = flowing.get(tensor)
            flowing[tensor] = contrib if held is None else held + contrib


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate ``grad`` buffers for every requires-grad tensor feeding ``loss``.

    Tensors made inside a block (:func:`record_block`) get none: their
    gradients are freed as the block's backward walks its slices. Gradients
    accumulate: calling backward again without clearing grads adds a second,
    independent pass' contributions on top of the first. A tensor without a
    buffer adopts its summed contribution as ``grad`` when that is a fresh
    writeable array no other tensor adopted in this pass; views and shared
    arrays are copied, so no two buffers alias.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    # Accumulate within this pass in a side table so repeated backward calls
    # stay independent, then fold the totals into the persistent buffers. The
    # walk pops a copy of the entries, so the tape stays whole for the next.
    flowing: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
    spent = [*_propagate(list(tape.entries), flowing), *flowing.items()]
    adopted: set[int] = set()
    for tensor, total in spent:
        if tensor.grad is not None:
            tensor.grad += total
        elif total.base is None and total.flags.writeable and id(total) not in adopted:
            tensor.grad = total
            adopted.add(id(total))
        else:
            tensor.grad = np.array(total)
