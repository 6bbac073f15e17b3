"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Tensor shapes are incompatible for the requested operation."""


class ConfigError(ValueError):
    """A configuration value (or combination of values) is invalid."""


class DataFormatError(ValueError):
    """A dataset file does not conform to the expected format."""


class CheckpointError(RuntimeError):
    """A checkpoint file is corrupted, truncated, or inconsistent."""


class TrainingError(RuntimeError):
    """Training cannot continue, e.g. the loss became non-finite."""
