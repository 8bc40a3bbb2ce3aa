"""Exception hierarchy shared across the toolbox."""

__all__ = ["ConfigurationError", "ContainerError", "DecompositionError", "DimensionError",
           "EmptySelectionError", "LabelSchemaError", "PolarcubeError", "TrainingDivergedError",
           "UndefinedFeatureError"]


class PolarcubeError(Exception):
    """Base class for all toolbox errors."""


class UndefinedFeatureError(PolarcubeError):
    """Polarimetric features requested for a vector with s0 <= 0."""


class DecompositionError(PolarcubeError):
    """Polarized/unpolarized decomposition requested for an invalid vector."""


class ConfigurationError(PolarcubeError):
    """Measurement configuration is unusable (empty, rank-deficient, ...)."""


class DimensionError(PolarcubeError):
    """Array dimensions violate an operation's precondition."""


class EmptySelectionError(PolarcubeError):
    """A statistic was requested over an empty pixel selection."""


class TrainingDivergedError(PolarcubeError):
    """Loss became non-finite during fitting.

    Carries ``checkpoint`` (last good parameter state) and ``step``.
    """

    def __init__(self, message, checkpoint=None, step=None):
        super().__init__(message)
        self.checkpoint = checkpoint
        self.step = step


class ContainerError(PolarcubeError):
    """Malformed container file (bad magic, truncation, bad version, ...)."""


class LabelSchemaError(PolarcubeError):
    """Label sidecar violates the label schema."""
