"""Adam optimizer with bias correction."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConfigError, DimensionError
from .tensor import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Standard Adam update: moments decay toward the gradient, bias-corrected
    by 1/(1-beta^t), and the parameter moves lr * m_hat / (sqrt(v_hat) + eps).

    Parameters with a ``None`` grad are treated as having a zero gradient
    (their moments still decay). The step counter increases by exactly one
    per ``step`` call. A grad whose shape differs from its parameter's raises
    DimensionError before any counter, moment or parameter changes.
    """

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3):
        if not 0 < lr < np.inf:
            raise ConfigError(f"learning rate must be positive and finite, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.t = 0
        # Per-parameter first and second moment estimates.
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p in self.params:
            if p.grad is not None and p.grad.shape != p.data.shape:
                raise DimensionError(f"grad shape {p.grad.shape} does not match param {p.data.shape}")
        self.t += 1
        correct1 = 1.0 - BETA1**self.t
        correct2 = 1.0 - BETA2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = 0.0 if p.grad is None else p.grad
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * np.square(g)
            m_hat = m / correct1
            v_hat = v / correct2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
