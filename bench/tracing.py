"""Outside-in tracing of dagam: timing wrappers around its public functions.

The tracer swaps module attributes of an imported dagam for wrappers that
time each call, and puts the originals back in ``restore``. Nothing inside
the package changes. Three kinds of wrapper exist:

* op wrappers time each differentiable op's forward call and count it;
* a ``record_op`` wrapper times each op's backward closure when the tape
  replays it, and counts the recordings so every op call can be matched to
  a wrapper (an entry point the tracer missed shows up as a mismatch);
* stage wrappers time model and feature stages. Stages of one layer do not
  nest: a stage called inside another (the GCN propagation inside attention
  scoring, band isolation inside DE extraction) counts toward the outer one,
  so stage times add up without overlap.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

OPS = (
    "matmul", "gather_rows", "mul", "relu", "tanh", "reduce_max", "reduce_mean",
    "reduce_sum", "concat", "add", "softmax_rows", "log", "reshape", "grad_reverse",
)
# Tape names that differ from the op function's name.
_FROM_TAPE = {"max": "reduce_max", "mean": "reduce_mean", "sum": "reduce_sum"}
MODEL_STAGES = ("gcn", "attention", "pool", "readout", "heads")
FEATURE_STAGES = ("downsample", "band_limit", "extract")


@dataclass
class Counts:
    """What the wrappers saw since the last ``Tracer.take``; times in seconds."""

    fwd: dict = field(default_factory=lambda: defaultdict(float))
    bwd: dict = field(default_factory=lambda: defaultdict(float))
    calls: dict = field(default_factory=lambda: defaultdict(int))
    recorded: dict = field(default_factory=lambda: defaultdict(int))
    stage: dict = field(default_factory=lambda: defaultdict(float))
    fwd_flop: float = 0.0
    bwd_flop: float = 0.0
    scores: int = 0
    saturated: int = 0

    def unmatched_ops(self) -> dict[str, tuple[int, int]]:
        """Ops whose wrapped calls differ from their ``record_op`` calls."""
        return {
            op: (self.calls[op], self.recorded[op])
            for op in OPS
            if self.calls[op] != self.recorded[op]
        }


def matmul_flop(a_shape, b_shape) -> float:
    batch = np.prod(np.broadcast_shapes(a_shape[:-2], b_shape[:-2]), dtype=float)
    return 2.0 * batch * a_shape[-2] * a_shape[-1] * b_shape[-1]


class Tracer:
    """Installs timing wrappers on a dagam import; see the module docstring."""

    def __init__(self, ops, model, features):
        self.ops, self.model, self.features = ops, model, features
        self.counts = Counts()
        self._saved: list[tuple[object, str, object]] = []
        self._open: str | None = None
        self._readout_end: float | None = None

    def take(self) -> Counts:
        """Return what was counted so far and start counting afresh."""
        taken, self.counts = self.counts, Counts()
        return taken

    def install(self) -> None:
        ops, model, features = self.ops, self.model, self.features
        for name in OPS:
            owner = model if name == "grad_reverse" else ops
            self._patch(owner, name, self._op(name, getattr(owner, name)))
        record = self._record(ops.record_op)
        self._patch(ops, "record_op", record)
        self._patch(model, "record_op", record)
        # gcn_layer bound its ``activation=ops.relu`` default at import, so
        # replacing ops.relu alone would miss every GCN relu.
        gcn = model.gcn_layer
        self._patch(gcn, "__defaults__", (ops.relu,))
        self._patch(model, "gcn_layer", self._stage("gcn", gcn))
        self._patch(
            model, "attention_scores", self._stage("attention", model.attention_scores, self._saturation)
        )
        self._patch(model, "sag_pool", self._stage("pool", model.sag_pool))
        self._patch(model, "readout", self._stage("readout", model.readout, self._mark_readout))
        self._patch(model, "forward_batch", self._forward(model.forward_batch))
        self._patch(features, "downsample", self._stage("downsample", features.downsample))
        self._patch(features, "band_isolate", self._stage("band_limit", features.band_isolate))
        self._patch(features, "extract_features", self._stage("extract", features.extract_features))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _op(self, name: str, fn):
        clock = time.perf_counter
        is_matmul = name == "matmul"

        def wrapped(*args, **kwargs):
            start = clock()
            out = fn(*args, **kwargs)
            elapsed = clock() - start
            counts = self.counts
            counts.fwd[name] += elapsed
            counts.calls[name] += 1
            if is_matmul:
                counts.fwd_flop += matmul_flop(args[0].shape, args[1].shape)
            return out

        return wrapped

    def _record(self, record_op):
        clock = time.perf_counter

        def record(op, inputs, out_data, backward, meta=None):
            name = _FROM_TAPE.get(op, op)
            self.counts.recorded[name] += 1

            def timed_backward(g):
                start = clock()
                grads = backward(g)
                elapsed = clock() - start
                counts = self.counts
                counts.bwd[name] += elapsed
                if name == "matmul":
                    # Each returned gradient is one full-batch product of
                    # g (..., M, N) with an (N, K) or (K, M) operand.
                    inner = inputs[0].shape[-1]
                    counts.bwd_flop += sum(2.0 * g.size * inner for grad in grads if grad is not None)
                return grads

            return record_op(op, inputs, out_data, timed_backward, meta)

        return record

    def _stage(self, name: str, fn, after=None):
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            if self._open is not None:
                return fn(*args, **kwargs)
            self._open = name
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                self._open = None
                self.counts.stage[name] += end - start
            if after is not None:
                after(out, end)
            return out

        return wrapped

    def _forward(self, forward_batch):
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            self._readout_end = None
            out = forward_batch(*args, **kwargs)
            # The heads run from the end of the readout to the return.
            if self._readout_end is not None:
                self.counts.stage["heads"] += clock() - self._readout_end
            return out

        return wrapped

    def _mark_readout(self, out, end: float) -> None:
        self._readout_end = end

    def _saturation(self, scores, end: float) -> None:
        # tanh scores of exactly +-1 have zero gradient.
        self.counts.scores += scores.data.size
        self.counts.saturated += int(np.count_nonzero(np.abs(scores.data) == 1.0))
