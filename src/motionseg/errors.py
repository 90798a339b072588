"""Exception types shared across the package."""


class MotionsegError(Exception):
    """Base class for all library errors."""


class ShapeError(MotionsegError, ValueError):
    """Array dimensions do not match what an operation requires."""


class NumericError(MotionsegError, ArithmeticError):
    """A computation produced or received non-finite values."""


class DegenerateBatchError(MotionsegError, ValueError):
    """A batch or sequence cannot support the requested sampling."""


class DegenerateDatasetError(MotionsegError, ValueError):
    """A dataset lacks the structure needed for training."""


class UnfittedModelError(MotionsegError, RuntimeError):
    """Inference was requested from a model that was never fitted."""


class ModelInvalidError(MotionsegError, ValueError):
    """Model parameters violate their own invariants (e.g. a non-PD covariance)."""


class DataFormatError(MotionsegError, ValueError):
    """A dataset file failed to parse; carries file and line context."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f" [{path}"
            if line is not None:
                loc += f":{line}"
            loc += "]"
        super().__init__(message + loc)
        self.path = path
        self.line = line


class SchemaError(DataFormatError):
    """A dataset file parsed but its contents are inconsistent."""


class ConfigError(MotionsegError, ValueError):
    """A run configuration is invalid (unknown key, bad value)."""
