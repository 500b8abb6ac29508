"""Domain-adversarial graph attention pipeline for multichannel EEG.

Layering, bottom to top: a float64 reverse-mode autodiff core (`tensor`,
`ops`, `optim`), channel-graph construction (`graph`, `layouts`),
differential-entropy features (`features`), and the model (`model`).
Failures raise the classes in `errors`.
"""

from .tensor import Tape, Tensor, backward
from .errors import (
    ConfigError,
    ContractError,
    DagamError,
    DataError,
    DegenerateInputError,
    DimensionError,
    GradCheckError,
    GraphError,
    LayoutError,
    TrainingDivergenceError,
)

__version__ = "0.1.0"

__all__ = [
    "Tape",
    "Tensor",
    "backward",
    "ConfigError",
    "ContractError",
    "DagamError",
    "DataError",
    "DegenerateInputError",
    "DimensionError",
    "GradCheckError",
    "GraphError",
    "LayoutError",
    "TrainingDivergenceError",
    "__version__",
]
