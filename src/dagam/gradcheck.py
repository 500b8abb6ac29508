"""Gradient verification against central finite differences.

``grad_check`` is the oracle used throughout the test suite: it compares
the tape's analytic gradients with a numeric derivative computed from two
function evaluations per coordinate. Functions must be evaluated away from
non-smooth points (relu kinks, max ties, the log floor); the check inspects
the recorded tape and rejects inputs that sit within the perturbation step
of such a point, since the two oracles legitimately disagree there.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, GradCheckError
from .ops import LOG_FLOOR
from .tensor import Tape, Tensor, backward


def _top_two_gap(values: np.ndarray, axis: int | None) -> float:
    """Smallest gap between the largest and second-largest entries per slice."""
    if axis is None:
        if values.size < 2:
            return np.inf
        flat = np.sort(values, axis=None)
        return float(flat[-1] - flat[-2])
    if values.shape[axis] < 2:
        return np.inf
    ordered = np.sort(values, axis=axis)
    top = np.take(ordered, -1, axis=axis)
    second = np.take(ordered, -2, axis=axis)
    return float((top - second).min())


def nonsmooth_margin(tape: Tape) -> float:
    """Distance from the recorded evaluation point to the nearest kink.

    Covers relu kinks at zero, ties in max reductions and the log floor.
    Infinite when every recorded op is smooth at its input.
    """
    closest = np.inf
    for entry in tape.entries:
        x = entry.inputs[0].data
        if entry.op == "relu":
            closest = min(closest, float(np.abs(x).min()))
        elif entry.op == "max":
            closest = min(closest, _top_two_gap(x, entry.meta["axis"]))
        elif entry.op == "log":
            closest = min(closest, float(np.abs(x - LOG_FLOOR).min()))
    return closest


def reject_nonsmooth(tape: Tape, margin: float) -> None:
    """Raise if any recorded op was evaluated within ``margin`` of a kink."""
    closest = nonsmooth_margin(tape)
    if closest <= margin:
        raise ContractError(
            f"inputs sit {closest:g} from a non-smooth point (<= step {margin:g}); "
            "finite differences are unreliable there"
        )


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
    reject_nonsmooth(tape, h)
    for t in inputs:
        t.grad = None
    backward(out, tape)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in inputs]

    def evaluate() -> float:
        return float(f(*inputs).data.reshape(()))

    worst = 0.0
    for i, t in enumerate(inputs):
        flat = t.data.reshape(-1)
        for j in range(flat.size):
            saved = flat[j]
            flat[j] = saved + h
            upper = evaluate()
            flat[j] = saved - h
            lower = evaluate()
            flat[j] = saved
            numeric = (upper - lower) / (2.0 * h)
            exact = analytic[i].reshape(-1)[j]
            if np.isnan(numeric) or np.isnan(exact):
                raise GradCheckError(
                    f"NaN gradient for input {i} at flat index {j} "
                    f"(analytic={exact!r}, numeric={numeric!r})"
                )
            err = abs(exact - numeric) / max(1.0, abs(numeric))
            if err > worst:
                worst = err
    return worst
