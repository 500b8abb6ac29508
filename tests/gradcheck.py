"""Gradient verification against central finite differences.

``grad_check`` is the oracle used throughout the test suite: it compares
the tape's analytic gradients with a numeric derivative computed from two
function evaluations per coordinate. Functions must be evaluated away from
non-smooth points (relu kinks, max ties, the log floor); the check inspects
the recorded tape and rejects inputs that sit within the perturbation step
of such a point, since the two oracles legitimately disagree there.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from dagam.errors import ContractError, GradCheckError
from dagam.ops import LOG_FLOOR
from dagam.tensor import Tape, TapeEntry, Tensor, backward


def _top_two_gap(values: np.ndarray, axis: int) -> float:
    """Smallest gap between the largest and second-largest entries per slice."""
    if values.shape[axis] < 2:
        return np.inf
    ordered = np.sort(values, axis=axis)
    top = np.take(ordered, -1, axis=axis)
    second = np.take(ordered, -2, axis=axis)
    return float((top - second).min())


def op_entries(tape: Tape) -> Iterator[TapeEntry]:
    """The recorded ops in order, with each block entry replaced by the ops inside it.

    A block keeps no ops, so its function is replayed on its recorded inputs
    and selected rows onto a private tape, once per call.
    """
    for entry in tape.entries:
        fn = entry.meta.get("fn") if entry.meta else None
        if fn is None:
            yield entry
            continue
        with Tape() as inner:
            fn(*entry.inputs, index=entry.meta["index"])
        yield from op_entries(inner)


def nonsmooth_margin(tape: Tape) -> float:
    """Distance from the recorded evaluation point to the nearest kink.

    Covers relu kinks at zero, ties in max reductions and the log floor,
    inside blocks too. Infinite when every recorded op is smooth at its input.
    """
    closest = np.inf
    for entry in op_entries(tape):
        x = entry.inputs[0].data
        if entry.op == "relu":
            closest = min(closest, float(np.abs(x).min()))
        elif entry.op == "max":
            closest = min(closest, _top_two_gap(x, entry.meta["axis"]))
        elif entry.op == "log":
            closest = min(closest, float(np.abs(x - LOG_FLOOR).min()))
    return closest


def finite_difference(
    f: Callable[[], float], tensors: Sequence[Tensor], h: float = 1e-4
) -> list[np.ndarray]:
    """Central-difference gradient of the scalar ``f()`` with respect to each tensor.

    Each coordinate is moved by +h and -h in place, ``f`` is called at both
    points, and the coordinate is restored, even if ``f`` raises. Coordinates
    are written through ``t.data`` itself, so a non-contiguous array (a
    transpose, a strided slice) is perturbed where ``f`` reads it.
    """
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        for idx in np.ndindex(t.shape):
            saved = t.data[idx]
            try:
                t.data[idx] = saved + h
                upper = f()
                t.data[idx] = saved - h
                lower = f()
            finally:
                t.data[idx] = saved
            g[idx] = (upper - lower) / (2.0 * h)
        grads.append(g)
    return grads


def grad_check(
    f: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    h: float = 1e-4,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must map the given tensors to a scalar and be re-evaluable (each
    numeric probe calls it again). Gradients on the inputs are reset. The
    relative error of each coordinate is |analytic - numeric| / max(1, |numeric|).
    """
    inputs = list(inputs)
    with Tape() as tape:
        out = f(*inputs)
    if out.size != 1:
        raise ContractError(f"grad_check needs a scalar-valued function, got shape {out.shape}")
    closest = nonsmooth_margin(tape)
    if closest <= h:
        raise ContractError(
            f"inputs sit {closest:g} from a non-smooth point (<= step {h:g}); "
            "finite differences are unreliable there"
        )
    for t in inputs:
        t.grad = None
    backward(out, tape)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in inputs]
    numeric = finite_difference(lambda: float(f(*inputs).data.reshape(())), inputs, h)

    worst = 0.0
    for i, (exact, approx) in enumerate(zip(analytic, numeric)):
        nan = np.flatnonzero(np.isnan(exact) | np.isnan(approx))
        if nan.size:
            j = int(nan[0])
            raise GradCheckError(
                f"NaN gradient for input {i} at flat index {j} "
                f"(analytic={float(exact.flat[j])}, numeric={float(approx.flat[j])})"
            )
        err = np.abs(exact - approx) / np.maximum(1.0, np.abs(approx))
        # fmax skips the NaN that an infinite analytic and numeric pair gives.
        worst = float(np.fmax.reduce(err, axis=None, initial=worst))
    return worst
