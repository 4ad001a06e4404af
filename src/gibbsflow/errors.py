"""Error taxonomy shared across the package.

Validation failures (bad config, bad model data) are distinct from numerical
accuracy failures (a requested tolerance that could not be met), which are in
turn distinct from I/O problems.  The CLI maps these families to exit codes.
"""
from __future__ import annotations

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

