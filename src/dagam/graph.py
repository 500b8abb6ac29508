"""EEG channel graph: distance-based adjacency and its renormalized Laplacian.

Edges between channels i and j carry weight min(1, sigma / d_ij^2) from the
physical electrode distance; selected inter-hemisphere pairs can then be
overwritten with a negative "global connection" weight. The propagation
matrix used by the model is D^(-1/2) (A + I) D^(-1/2) with degrees taken
over absolute values, so negative global edges cannot zero out a row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GraphError, LayoutError


@dataclass(frozen=True)
class ElectrodeLayout:
    """Ordered channel names with 3-D head-model coordinates.

    The row order defines node index order everywhere downstream.
    """

    names: tuple[str, ...]
    positions: np.ndarray  # (N, 3)

    def __post_init__(self):
        positions = np.asarray(self.positions, dtype=np.float64)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "names", tuple(self.names))
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise LayoutError(f"positions must be (N, 3), got {positions.shape}")
        if len(self.names) != positions.shape[0]:
            raise LayoutError(
                f"{len(self.names)} names but {positions.shape[0]} coordinate rows"
            )
        if len(set(self.names)) != len(self.names):
            seen = set()
            dup = next(n for n in self.names if n in seen or seen.add(n))
            raise LayoutError(f"duplicate channel name {dup!r}")
        if not np.isfinite(positions).all():
            raise LayoutError("electrode coordinates must be finite")

    def __len__(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class Adjacency:
    """Symmetric channel-graph weights with a zero diagonal.

    Distance-derived entries lie in (0, 1]; global-connection entries in
    [-1, 0].
    """

    matrix: np.ndarray
    names: tuple[str, ...]


def build_adjacency(layout: ElectrodeLayout, sigma: float) -> Adjacency:
    """Distance-derived adjacency A_ij = min(1, sigma / d_ij^2), zero diagonal."""
    if not 0 < sigma < np.inf:
        raise ConfigError(f"sigma must be positive and finite, got {sigma}")
    diff = layout.positions[:, None, :] - layout.positions[None, :, :]
    d = np.sqrt((diff**2).sum(axis=-1))
    n = len(layout)
    off = ~np.eye(n, dtype=bool)
    if (d[off] == 0).any():
        i, j = next(zip(*np.nonzero((d == 0) & off)))
        raise LayoutError(
            f"channels {layout.names[i]!r} and {layout.names[j]!r} have coincident coordinates"
        )
    # Distinct electrodes a tiny distance apart have a subnormal d^2, so
    # sigma / d^2 overflows to inf, which the cap turns into 1.
    with np.errstate(divide="ignore", over="ignore"):
        a = np.minimum(1.0, sigma / (d**2))
    np.fill_diagonal(a, 0.0)
    return Adjacency(a, layout.names)


def apply_global_connections(
    adj: Adjacency,
    pairs: list[tuple[str, str]],
    weight: float,
) -> Adjacency:
    """Overwrite the listed symmetric entries with ``weight`` in [-1, 0]."""
    if not -1.0 <= weight <= 0.0:
        raise ConfigError(f"global-connection weight must lie in [-1, 0], got {weight}")
    matrix = adj.matrix.copy()
    for left, right in pairs:
        try:
            i = adj.names.index(left)
            j = adj.names.index(right)
        except ValueError as exc:
            raise LayoutError(f"unknown channel name in global pair ({left!r}, {right!r})") from exc
        if i == j:
            raise LayoutError(f"global pair names the same channel twice: {left!r}")
        matrix[i, j] = weight
        matrix[j, i] = weight
    return Adjacency(matrix, adj.names)


def renormalized_laplacian(adj) -> np.ndarray:
    """D^(-1/2) (A + I) D^(-1/2) with absolute-value degrees.

    Accepts an :class:`Adjacency` or a raw square symmetric matrix. Degrees
    use |A + I| entries so negative global connections keep every row's
    degree positive; an exact zero absolute degree is reported as a graph
    error rather than silently producing NaN.
    """
    a = adj.matrix if isinstance(adj, Adjacency) else np.asarray(adj, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise GraphError(f"adjacency must be square, got {a.shape}")
    if not np.isfinite(a).all():
        i, j = np.argwhere(~np.isfinite(a))[0]
        raise GraphError(f"adjacency must be finite; entry ({i}, {j}) is {a[i, j]}")
    if not np.array_equal(a, a.T):
        raise GraphError("adjacency must be symmetric")
    a_tilde = a + np.eye(a.shape[0])
    degree = np.abs(a_tilde).sum(axis=1)
    if (degree == 0).any():
        row = int(np.nonzero(degree == 0)[0][0])
        raise GraphError(f"row {row} has zero absolute degree; graph is degenerate")
    scale = 1.0 / np.sqrt(degree)
    lap = a_tilde * scale[:, None] * scale[None, :]
    return (lap + lap.T) / 2.0  # symmetrize away rounding asymmetry
