"""Exception types shared across the package, and the two checks every
config dataclass builds itself with."""

import numbers
from dataclasses import fields


class ShapeError(ValueError):
    """Tensor shapes are incompatible for the requested operation."""


class ConfigError(ValueError):
    """A configuration value (or combination of values) is invalid."""


# annotation -> (accepted type, how a message names it)
_FIELD_KINDS = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a number"),
                "str": (str, "a string")}


def is_integer(value) -> bool:
    """An integer that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_fields(obj):
    """Raise ConfigError naming the first field of the dataclass ``obj`` whose
    value does not fit its annotation: ``int``, ``float`` (any real number)
    or ``str``, each optionally ``| None``.  A bool is never a number.  Other
    annotations are left to the class.  Annotations are read as written, so
    the class's module must use ``from __future__ import annotations``."""
    for f in fields(obj):
        kind = _FIELD_KINDS.get(f.type.removesuffix(" | None"))
        value = getattr(obj, f.name)
        if kind is None or (value is None and f.type.endswith(" | None")):
            continue
        if isinstance(value, bool) or not isinstance(value, kind[0]):
            raise ConfigError(f"{f.name} must be {kind[1]}, got {value!r}")


def config_from(cls, raw, what: str, **given):
    """``cls(**raw)``, with the ``given`` values in place of ``raw``'s, for a
    JSON object ``raw``.  Any other value, or a key ``cls`` has no field
    for, raises ConfigError naming the ``what`` config."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} config must be a JSON object, got {raw!r}")
    unknown = set(raw) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {what} config keys: {sorted(unknown)}")
    return cls(**{**raw, **given})


class DataFormatError(ValueError):
    """A dataset file does not conform to the expected format."""


class CheckpointError(RuntimeError):
    """A checkpoint file is corrupted, truncated, or inconsistent."""


class TrainingError(RuntimeError):
    """Training cannot continue, e.g. the loss became non-finite."""
