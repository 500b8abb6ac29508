"""Shared fixtures-in-code for model-level gradient verification."""

from unittest import mock

import numpy as np

from dagam import Tape, Tensor, backward
from dagam import model, ops
from dagam.gradcheck import finite_difference, op_entries
from dagam.graph import renormalized_laplacian
from dagam.model import forward_batch, init_params

TINY_GCN_HIDDEN = (5, 5, 5)
TINY_EMOTION_HIDDEN = (6, 4)
TINY_DOMAIN_HIDDEN = (4,)


def tiny_setup(seed, n_nodes=4, n_features=3, n_classes=2):
    """A small random instance: params, a batch of one (1, N, F), adjacency, laplacian."""
    rng = np.random.default_rng(seed)
    params = init_params(
        n_features,
        n_classes,
        rng,
        gcn_hidden=TINY_GCN_HIDDEN,
        emotion_hidden=TINY_EMOTION_HIDDEN,
        domain_hidden=TINY_DOMAIN_HIDDEN,
    )
    x = Tensor(rng.standard_normal((1, n_nodes, n_features)), requires_grad=True)
    raw = rng.uniform(0.1, 1.0, (n_nodes, n_nodes))
    adjacency = np.triu(raw, 1)
    adjacency = adjacency + adjacency.T
    laplacian = Tensor(renormalized_laplacian(adjacency))
    return params, x, adjacency, laplacian


def _model_margin(tape):
    """Like nonsmooth_margin, but exact 0-0 ties in max reductions are safe.

    In this architecture those ties are relu-saturated features scaled by a
    score: the zeros are locally constant under perturbation (guarded by the
    relu margin itself), so both oracles agree there.
    """
    closest = np.inf
    for entry in op_entries(tape):
        x = entry.inputs[0].data
        if entry.op == "relu":
            closest = min(closest, float(np.abs(x).min()))
        elif entry.op == "max":
            axis = entry.meta["axis"]
            if x.shape[axis] < 2:
                continue
            ordered = np.sort(x, axis=axis)
            top = np.take(ordered, -1, axis=axis)
            second = np.take(ordered, -2, axis=axis)
            gaps = top - second
            live = ~((top == 0.0) & (second == 0.0))
            if live.any():
                closest = min(closest, float(gaps[live].min()))
    return closest


def tiny_model_grad_error(seed, k=0.5, lam=1.0, h=1e-4, margin=5e-4):
    """Max relative error of the end-to-end analytic gradient on a tiny model.

    The training gradient is intentionally not the derivative of the forward
    function: the domain branch reaches the shared embedding through gradient
    reversal. The numeric oracle therefore measures each branch separately
    with central differences and combines them per parameter group:
    fd(emotion) - lam * fd(domain) for the features and feature-extractor
    parameters (the reversal sits between them and the domain loss), and
    fd(emotion) + fd(domain) for the head parameters. The pooling selection
    is frozen at the unperturbed scores since it is piecewise constant (by
    swapping ``model.top_rank``, the seam ``forward_batch`` ranks through), and
    instances whose relu/max inputs sit within ``margin`` of a kink are
    deterministically reseeded (finite differences straddle the kink there).
    """
    for attempt in range(64):
        params, x, adjacency, laplacian = tiny_setup(seed + 7919 * attempt)
        with Tape() as probe:
            _, _, pool = forward_batch(params, x, laplacian, adjacency, k, lam)
        if _model_margin(probe) > margin:
            break
    else:
        raise AssertionError(f"no kink-free instance found from seed {seed}")
    rng = np.random.default_rng(seed + 1)
    mix_emotion = Tensor(rng.standard_normal((1, params.n_classes)))
    mix_domain = Tensor(rng.standard_normal((1, 2)))
    frozen = pool.index

    def branches(lam_value):
        emo, dom, _ = forward_batch(params, x, laplacian, adjacency, k, lam_value)
        ly = ops.reduce_sum(ops.mul(emo, mix_emotion))
        ld = ops.reduce_sum(ops.mul(dom, mix_domain))
        return ly, ld

    def scalar_of(which):
        def run():
            ly_, ld_ = branches(lam)
            return float((ly_ if which == "emotion" else ld_).data)

        return run

    tensors = [x, *params.all_params()]
    with mock.patch.object(model, "top_rank", lambda scores, k_: frozen):
        with Tape() as tape:
            ly, ld = branches(lam)
            total = ops.add(ly, ld)
        for t in tensors:
            t.grad = None
        backward(total, tape)
        analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in tensors]
        fd_emotion = finite_difference(scalar_of("emotion"), tensors, h)
        fd_domain = finite_difference(scalar_of("domain"), tensors, h)

    reversed_group = {id(x), *(id(t) for t in params.feature_params())}
    worst = 0.0
    for t, a, ge, gd in zip(tensors, analytic, fd_emotion, fd_domain):
        factor = -lam if id(t) in reversed_group else 1.0
        expected = ge + factor * gd
        err = np.abs(a - expected) / np.maximum(1.0, np.abs(expected))
        worst = max(worst, float(err.max()))
    return worst
