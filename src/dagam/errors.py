"""Exception taxonomy shared across the package.

Every failure mode the library reports deliberately maps to one of these
classes, so callers can tell configuration mistakes apart from bad data or
a diverging run.
"""


class DagamError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(DagamError):
    """Tensor or matrix shapes are incompatible for the requested operation."""


class ContractError(DagamError):
    """A caller violated a documented precondition (e.g. non-scalar loss)."""


class DegenerateInputError(DagamError):
    """Structurally valid input with an empty or size-zero extent."""


class ConfigError(DagamError):
    """A configuration value is out of its documented range."""


class LayoutError(DagamError):
    """Electrode layout is invalid (duplicate names, coincident positions)."""


class GraphError(DagamError):
    """Graph construction failed (e.g. a zero absolute-degree row)."""


class DataError(DagamError):
    """Dataset contents violate an invariant (bad labels, empty subject)."""


class TrainingDivergenceError(DagamError):
    """Training produced a non-finite loss."""

    def __init__(self, message, epoch=None):
        super().__init__(message)
        self.epoch = epoch


class GradCheckError(DagamError):
    """Gradient verification hit a NaN; names the offending coordinate.

    Raised by the test oracle ``tests/gradcheck.py``, not by the package.
    """
