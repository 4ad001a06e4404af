"""Error taxonomy shared across the package.

Validation failures (bad config, bad model data) are distinct from numerical
accuracy failures (a requested tolerance that could not be met), which are in
turn distinct from I/O problems.  The CLI maps these families to exit codes.

One number rule, ``_number_problem``, judges every scalar argument of the
library and of the configuration.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "GibbsflowError",
    "ValidationError",
    "ConfigError",
    "ModelError",
    "TimeRangeError",
    "DecompositionError",
    "AccuracyError",
]


class GibbsflowError(Exception):
    """Base class for package errors."""


class ValidationError(GibbsflowError, ValueError):
    """Invalid user input (configuration or model data)."""


class ConfigError(ValidationError):
    """Configuration rejected; carries every failure found, not just the first."""

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class ModelError(ValidationError):
    """Model data violates a structural requirement (e.g. negative perturbation)."""


class TimeRangeError(ValidationError):
    """A time argument lies outside the model horizon [0, T]."""


class DecompositionError(GibbsflowError):
    """Eigen/singular decomposition failed; carries diagnostics."""

    def __init__(self, message, *, dim=None, cond=None):
        self.dim = dim
        self.cond = cond
        extra = []
        if dim is not None:
            extra.append(f"dim={dim}")
        if cond is not None:
            extra.append(f"cond~{cond:.3e}")
        if extra:
            message = f"{message} ({', '.join(extra)})"
        super().__init__(message)


class AccuracyError(GibbsflowError):
    """A requested tolerance was not met; carries the best achieved estimate."""

    def __init__(self, message, *, requested=None, achieved=None):
        self.requested = requested
        self.achieved = achieved
        extra = []
        if requested is not None:
            extra.append(f"requested={requested:.3e}")
        if achieved is not None:
            extra.append(f"achieved={achieved:.3e}")
        if extra:
            message = f"{message} ({', '.join(extra)})"
        super().__init__(message)


def _number_problem(value, lo=None, hi=None, lo_open=False, hi_open=False, integer=False):
    """What is wrong with ``value`` as a number within the bounds, or None.

    An integer is an ``int`` or a numpy integer, a number may also be a
    ``float`` or a numpy float, and a boolean is neither.  A number is finite,
    as a float too: an ``int`` beyond the float range is infinite; ``lo`` and
    ``hi`` are exclusive with ``lo_open`` and ``hi_open``."""
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, kinds):
        return f"must be {'an integer' if integer else 'a number'}, got {value!r}"
    show = str if integer else "{:g}".format
    if not integer:
        try:
            value = float(value)
        except OverflowError:
            value = np.inf if value > 0 else -np.inf
        if not np.isfinite(value):
            return f"must be finite, got {value!r}"
    if lo is not None and (value <= lo if lo_open else value < lo):
        return f"must be {'>' if lo_open else '>='} {show(lo)}, got {show(value)}"
    if hi is not None and (value >= hi if hi_open else value > hi):
        return f"must be {'<' if hi_open else '<='} {show(hi)}, got {show(value)}"
    return None


def _require_number(name: str, value, error: type[ValidationError] = ValidationError, **bounds):
    """``value`` as an int (``integer``) or a float; ``error`` with ``name`` in
    front of the problem when ``_number_problem`` finds one under ``bounds``."""
    problem = _number_problem(value, **bounds)
    if problem is not None:
        raise error(f"{name} {problem}")
    return int(value) if bounds.get("integer") else float(value)
