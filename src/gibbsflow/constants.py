"""Estimation of the structural constants of a model.

For a model with generator A (spectrum >= 1) and perturbation B(t):

    c_alpha       sup_t ||B(t) A^{-alpha}||            (relative bound)
    l_alpha_beta  sup_{t,r} ||A^{-alpha}(B(t)-B(r))A^{-alpha}|| / |t-r|^beta
    m_alpha       sup_{tau in (0, t-s]} tau^alpha ||e^{-tau A} A^alpha||
    xi            c_alpha * m_alpha * (t-s)^{1-alpha} / (1-alpha)

xi < 1 makes the perturbation series over [s, t] geometrically convergent
with tail ratio xi.  Suprema over t are approximated by maxima over a
uniform grid on the full horizon [0, T]; the supremum over tau is taken in
closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import fractional_power, opnorm
from .models import Model, perturbation_entries
from .propagator import _batch_length, _check_window

__all__ = ["ConstantsReport", "estimate_constants", "contraction_coefficient"]

# xi must recompute from its factors to this relative tolerance.
XI_CONSISTENCY_TOL = 1e-12


@dataclass(frozen=True)
class ConstantsReport:
    """Grid estimates of the structural constants over [s, t]."""

    c_alpha: float
    m_alpha: float
    l_alpha_beta: float
    xi: float
    alpha: float
    beta: float
    s: float
    t: float
    grid: int

    def __post_init__(self):
        delta = self.t - self.s
        recomputed = (self.c_alpha * self.m_alpha * delta ** (1.0 - self.alpha)
                      / (1.0 - self.alpha))
        scale = max(abs(self.xi), abs(recomputed), 1e-300)
        if abs(self.xi - recomputed) > XI_CONSISTENCY_TOL * scale:
            raise ValidationError(
                f"xi={self.xi!r} inconsistent with its factors ({recomputed!r})"
            )


def smoothing_constant(eigenvalues: np.ndarray, delta: float, alpha: float) -> float:
    """sup over tau in (0, delta] of tau^alpha ||e^{-tau A} A^alpha||.

    With A symmetric the norm is max_i g(tau lambda_i) with
    g(x) = x^alpha e^{-x}, and tau lambda_i covers (0, delta lambda_max].
    g rises on [0, alpha] and falls after it, so the sup is
    g(min(alpha, delta lambda_max)); at alpha = 0 that is 0^0 = 1 exactly.
    """
    x = min(alpha, delta * float(np.max(eigenvalues)))
    return float(x ** alpha * math.exp(-x))


def _horizon_samples(model: Model, grid: int) -> tuple[np.ndarray, float, np.ndarray]:
    """Grid times on [0, T], c_alpha, and A^{-alpha} B(t) A^{-alpha} per time.

    c_alpha is the grid maximum of ||B(t) A^{-alpha}||.  B is evaluated a
    chunk of at most ``BATCH_BYTES`` at a time, so only the sandwiched stack
    of shape (grid, d, d) is held in full.
    """
    alpha = model.perturbation.alpha
    a = model.generator.operator
    a_neg = fractional_power(a, -alpha).entries if alpha != 0.0 else np.eye(model.dim)
    times = np.linspace(0.0, model.horizon, grid)
    sandwiched = np.empty((times.size, model.dim, model.dim))
    c_alpha = 0.0
    chunk = _batch_length(model.dim)
    for start in range(0, times.size, chunk):
        b = perturbation_entries(model, times[start:start + chunk])
        c_alpha = max(c_alpha, *(opnorm(m) for m in b @ a_neg))
        sandwiched[start:start + chunk] = a_neg @ b @ a_neg
    return times, c_alpha, sandwiched


def _coefficient(model: Model, c_alpha: float, s: float, t: float) -> float:
    """xi over [s, t] from the horizon's relative bound ``c_alpha``."""
    alpha = model.perturbation.alpha
    m_alpha = smoothing_constant(model.generator.eigenvalues, t - s, alpha)
    return c_alpha * m_alpha * (t - s) ** (1.0 - alpha) / (1.0 - alpha)


def contraction_coefficient(model: Model, s: float, t: float, grid: int = 101) -> float:
    """xi = c_alpha * m_alpha * (t-s)^{1-alpha} / (1-alpha) for [s, t].

    The perturbation series over [s, t] has tail ratio xi when xi < 1;
    computed without the (expensive) Hoelder constant.
    """
    if not s < t:
        raise ValidationError(f"coefficient requires s < t, got s={s!r}, t={t!r}")
    _check_window(model, s, t)
    _, c_alpha, _ = _horizon_samples(model, grid)
    return _coefficient(model, c_alpha, s, t)


def estimate_constants(model: Model, s: float, t: float, grid: int = 101) -> ConstantsReport:
    """Grid estimates of (c_alpha, m_alpha, l_alpha_beta, xi) for [s, t].

    ``grid`` sets the number of horizon sample times; the Hoelder constant
    maximizes the quotient over all grid pairs.
    """
    if not s < t:
        raise ValidationError(f"constants require s < t, got s={s!r}, t={t!r}")
    if not (isinstance(grid, (int, np.integer)) and grid >= 2):
        raise ValidationError(f"grid must be an integer >= 2, got {grid!r}")
    _check_window(model, s, t)
    alpha = model.perturbation.alpha
    beta = model.perturbation.beta
    times, c_alpha, sandwiched = _horizon_samples(model, grid)
    l_alpha_beta = 0.0
    for i in range(grid):
        for j in range(i + 1, grid):
            gap = abs(times[j] - times[i]) ** beta
            quotient = opnorm(sandwiched[j] - sandwiched[i]) / gap
            if quotient > l_alpha_beta:
                l_alpha_beta = quotient

    delta = t - s
    m_alpha = smoothing_constant(model.generator.eigenvalues, delta, alpha)
    xi = c_alpha * m_alpha * delta ** (1.0 - alpha) / (1.0 - alpha)
    return ConstantsReport(
        c_alpha=float(c_alpha), m_alpha=float(m_alpha),
        l_alpha_beta=float(l_alpha_beta), xi=float(xi),
        alpha=alpha, beta=beta, s=float(s), t=float(t), grid=int(grid),
    )
