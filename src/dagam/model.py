"""The network: GCN feature stack, self-attention graph pooling, readout,
an emotion classifier head, and a gradient-reversed domain classifier head.

One shared three-layer GCN stack produces node embeddings; a single extra
column projection turns those embeddings into per-node attention scores.
Pooling keeps the ceil(k*N) best-scoring nodes, scales their features by
their scores (that product is what trains the attention weights), and the
readout concatenates column means and maxima into a fixed-size embedding
consumed by both heads. The network runs on batches of (N, F) node-feature
matrices; a single sample is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import ops
from .errors import ConfigError, DataError, DegenerateInputError, DimensionError, GraphError
from .tensor import Tensor, record_block, record_op

DEFAULT_GCN_HIDDEN = (64, 64, 64)
DEFAULT_EMOTION_HIDDEN = (64, 32)
DEFAULT_DOMAIN_HIDDEN = (32,)


def retained_count(k: float, n: int) -> int:
    """ceil(k * n) with a tiny guard against float products like 6.000000001."""
    if not 0.0 < k <= 1.0:
        raise ConfigError(f"pooling ratio must lie in (0, 1], got {k}")
    if n < 1:
        raise DegenerateInputError(f"node count must be positive, got {n}")
    return max(1, math.ceil(k * n - 1e-9))


@dataclass
class ModelParams:
    """Parameter groups: feature extractor, emotion head, domain head.

    ``emotion`` holds (W, b) pairs for three fully connected layers ending
    in the class logits; ``domain`` two layers ending in two domain logits.
    The groups are disjoint and together cover every trainable tensor.
    """

    gcn_weights: list[Tensor]
    w_att: Tensor
    emotion: list[tuple[Tensor, Tensor]]
    domain: list[tuple[Tensor, Tensor]]

    def feature_params(self) -> list[Tensor]:
        return [*self.gcn_weights, self.w_att]

    def emotion_params(self) -> list[Tensor]:
        return [t for layer in self.emotion for t in layer]

    def domain_params(self) -> list[Tensor]:
        return [t for layer in self.domain for t in layer]

    def all_params(self) -> list[Tensor]:
        return [*self.feature_params(), *self.emotion_params(), *self.domain_params()]

    def named(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, w in enumerate(self.gcn_weights):
            out[f"gcn.{i}.weight"] = w
        out["attention.weight"] = self.w_att
        for group, layers in (("emotion", self.emotion), ("domain", self.domain)):
            for i, (w, b) in enumerate(layers):
                out[f"{group}.{i}.weight"] = w
                out[f"{group}.{i}.bias"] = b
        return out

    @property
    def n_classes(self) -> int:
        return self.emotion[-1][1].shape[0]


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> Tensor:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-bound, bound, (fan_in, fan_out)), requires_grad=True)


def _head(rng, widths: list[int]) -> list[tuple[Tensor, Tensor]]:
    return [
        (_glorot(rng, fan_in, fan_out), Tensor(np.zeros(fan_out), requires_grad=True))
        for fan_in, fan_out in zip(widths[:-1], widths[1:])
    ]


def init_params(
    n_features: int,
    n_classes: int,
    rng: np.random.Generator,
    gcn_hidden=DEFAULT_GCN_HIDDEN,
    emotion_hidden=DEFAULT_EMOTION_HIDDEN,
    domain_hidden=DEFAULT_DOMAIN_HIDDEN,
) -> ModelParams:
    """Glorot-uniform weights, zero biases, drawn in a fixed order."""
    if n_classes < 2:
        raise ConfigError(f"need at least two classes, got {n_classes}")
    widths = [n_features, *gcn_hidden]
    gcn_weights = [_glorot(rng, widths[i], widths[i + 1]) for i in range(len(gcn_hidden))]
    w_att = _glorot(rng, widths[-1], 1)
    embedding = 2 * widths[-1]
    emotion = _head(rng, [embedding, *emotion_hidden, n_classes])
    domain = _head(rng, [embedding, *domain_hidden, 2])
    return ModelParams(gcn_weights, w_att, emotion, domain)


def gcn_layer(laplacian: Tensor, x: Tensor, w: Tensor) -> Tensor:
    """Graph propagation relu(L x W), recorded op by op.

    The product is associated as L (x W) when W narrows the features and as
    (L x) W otherwise, so the node-mixing product runs on the narrower side.
    ``forward_batch`` runs the layers, the attention scores, the pooling and
    the readout inside one checkpointed block, on slices of
    ``tensor.SLICE_ROWS`` samples, which keeps none of their intermediates
    past a slice.
    """
    return ops.relu(_propagation(laplacian, x, w))


def _propagation(laplacian: Tensor, x: Tensor, w: Tensor) -> Tensor:
    if w.shape[-1] < x.shape[-1]:
        return ops.matmul(laplacian, ops.matmul(x, w))
    return ops.matmul(ops.matmul(laplacian, x), w)


def attention_scores(laplacian: Tensor, x: Tensor, w_att: Tensor) -> Tensor:
    """Per-node scores tanh(L x w) in (-1, 1), shape (..., N, 1), recorded op by op."""
    if w_att.shape[-1] != 1:
        raise DimensionError(f"attention weight must have one output column, got {w_att.shape}")
    return ops.tanh(_propagation(laplacian, x, w_att))


def top_rank(scores: np.ndarray, k: float) -> np.ndarray:
    """Ascending indices of the ceil(k*N) largest scores along the last axis.

    ``scores`` has shape (..., N): the trailing axis is the node axis, and
    the output has shape (..., M). Ties break toward the lower original index.
    """
    s = np.asarray(scores, dtype=np.float64)
    count = retained_count(k, s.shape[-1])
    # Stable argsort of the negated scores keeps lower indices first on ties.
    order = np.argsort(-s, axis=-1, kind="stable")[..., :count]
    return np.sort(order, axis=-1)


def sag_pool(x: Tensor, scores: Tensor, index: np.ndarray) -> Tensor:
    """The ``index`` rows of ``x`` (..., M), each scaled by its score.

    ``index`` is the selection, ``top_rank`` of the scores. It is piecewise
    constant in them, so gradients flow only through the score multiplication.
    """
    if scores.shape != x.shape[:-1] + (1,):
        raise DimensionError(f"scores {scores.shape} must have shape {x.shape[:-1] + (1,)}")
    return ops.mul(ops.gather_rows(x, index), ops.gather_rows(scores, index))


def _gcn_embedding(
    x: Tensor, laplacian: Tensor, w_att: Tensor, *weights: Tensor, k: float, index: np.ndarray | None = None
) -> tuple[Tensor, np.ndarray]:
    """The checkpointed block of ``forward_batch``: GCN stack, attention scores, pooling, readout.

    Takes a (b, N, F) slice and returns its embedding (b, 2G) and kept node
    indices (b, M). The nodes are ``top_rank`` of the scores unless ``index``
    gives them, as the block's recompute does with the rows its forward kept.
    """
    for w in weights:
        x = gcn_layer(laplacian, x, w)
    scores = attention_scores(laplacian, x, w_att)
    if index is None:
        index = top_rank(scores.data[..., 0], k)
    return readout(sag_pool(x, scores, index)), index


def readout(x: Tensor) -> Tensor:
    """Concatenated column means and column maxima: (..., M, F) -> (..., 2F)."""
    if x.ndim < 2:
        raise DimensionError(f"readout needs (..., nodes, features), got {x.shape}")
    if x.shape[-2] == 0:
        raise DegenerateInputError("readout over zero nodes")
    return ops.concat([ops.reduce_mean(x, axis=-2), ops.reduce_max(x, axis=-2)], axis=-1)


def grad_reverse(x: Tensor, lam: float) -> Tensor:
    """Identity forward; backward multiplies the upstream gradient by -lam."""
    if not 0 <= lam < np.inf:
        raise ConfigError(f"reversal strength must be >= 0 and finite, got {lam}")

    def backward(g):
        return (-lam * g,)

    return record_op("grad_reverse", (x,), x.data.copy(), backward)


def _feed_forward(x: Tensor, layers: list[tuple[Tensor, Tensor]]) -> Tensor:
    """Fully connected stack with relu between layers, linear at the end."""
    out = x
    for depth, (w, b) in enumerate(layers):
        out = ops.add(ops.matmul(out, w), b)
        if depth < len(layers) - 1:
            out = ops.relu(out)
    return out


def forward_batch(
    params: ModelParams,
    x: Tensor,
    laplacian: Tensor,
    adjacency: np.ndarray,
    k: float,
    lam: float = 1.0,
    domain_head: bool = True,
):
    """Run the network on (B, N, F) features; a single sample is a batch of one.

    Returns (emotion probabilities (B, C), domain probabilities (B, 2) or
    None, the (B, M) indices of the nodes pooling kept).
    Pooling keeps the ``top_rank`` nodes of the attention scores at ratio
    ``k``; ``lam`` is the reversal strength in front of the domain head,
    which can be skipped entirely for ablations and evaluation.

    ``laplacian`` and ``adjacency`` are (N, N) matrices shared by every
    sample and ``k`` lies in (0, 1]; anything else raises before any op
    runs. Only the Laplacian feeds the network. The GCN stack, the attention
    scores, the pooling and the readout run as one checkpointed block on
    slices of ``tensor.SLICE_ROWS`` samples, with or without a tape, so their
    buffers take one slice's memory at any batch size and a tape keeps only
    the (B, 2G) embedding. ``top_rank`` runs once per slice, in the forward.
    The heads run op by op on the whole batch.

    A NaN or infinite feature raises DataError naming its first position,
    and a non-finite Laplacian entry GraphError naming its own. Only ``x``
    and the Laplacian are scanned: the parameters are not, since scanning
    them on every call would cost a batch-1 request more than its features
    do; a training loop is the place to check them once per step.
    """
    if x.ndim != 3:
        raise DimensionError(f"expected (B, N, F) features, got {x.shape}")
    n = x.shape[-2]
    if laplacian.shape != (n, n):
        raise DimensionError(f"laplacian {laplacian.shape} does not match {n} nodes")
    if not np.isfinite(laplacian.data).all():
        i, j = np.argwhere(~np.isfinite(laplacian.data))[0]
        raise GraphError(f"laplacian must be finite; entry ({i}, {j}) is {laplacian.data[i, j]}")
    if np.shape(adjacency) != (n, n):
        raise DimensionError(f"adjacency {np.shape(adjacency)} does not match {n} nodes")
    retained_count(k, n)
    finite = np.isfinite(x.data)
    if not finite.all():
        position = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise DataError(f"forward_batch: feature {x.data[position]} at position {position}")
    block = partial(_gcn_embedding, k=k)
    embedding, index = record_block("gcn_embedding", block, (x, laplacian, params.w_att, *params.gcn_weights))
    emotion = ops.softmax_rows(_feed_forward(embedding, params.emotion))
    domain = None
    if domain_head:
        domain = ops.softmax_rows(_feed_forward(grad_reverse(embedding, lam), params.domain))
    return emotion, domain, index
