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
from .models import Model, diagonal_form, perturbation_entries
from .propagator import _batch_length, _check_window

__all__ = ["ConstantsReport", "estimate_constants", "smoothing_constant",
           "contraction_coefficient"]

# xi must recompute from its factors to this relative tolerance.
XI_CONSISTENCY_TOL = 1e-12
# Margins of the triangle-inequality bound on a pair's Hoelder quotient.
# Against exact arithmetic, a computed norm of a difference is off by
# O(d u) relative (u = 2^-53) and the prefix sums of the adjacent norms by
# at most about grid u P_last, so these margins exceed the rounding by orders
# of magnitude: no pair whose computed quotient could beat the maximum so
# far is skipped.
PRUNE_REL = 1e-10
PRUNE_ABS = 1e-14


@dataclass(frozen=True)
class ConstantsReport:
    """Grid estimates of the structural constants over [s, t].

    ``c_alpha`` and ``l_alpha_beta`` are maxima over the ``grid`` sample
    times, so they are lower bounds of the suprema they estimate, not
    bounds; ``xi``, built from ``c_alpha``, is an estimate too.
    ``m_alpha`` is the supremum in closed form.
    """

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


def _horizon_samples(model: Model, grid: int,
                     keep: bool = True) -> tuple[np.ndarray, float, np.ndarray | None]:
    """Grid times on [0, T], c_alpha, and S(t) = A^{-alpha} B(t) A^{-alpha} per time.

    For a model with a diagonal form (``diagonal_form``) no B(t) is sampled:
    c_alpha and the diagonals of the S(t), shape (grid, d), are built in
    closed form, bit for bit what the general route gives, since a matrix
    product with a diagonal operand adds exact zeros.  Otherwise B is sampled
    a chunk of at most ``BATCH_BYTES`` at a time, and the full stack
    (grid, d, d) is returned only with ``keep`` (None without).  ``grid`` is
    checked before anything is sampled.
    """
    if not (isinstance(grid, (int, np.integer)) and grid >= 2):
        raise ValidationError(f"grid must be an integer >= 2, got {grid!r}")
    alpha = model.perturbation.alpha
    a = model.generator.operator
    a_neg = fractional_power(a, -alpha).entries if alpha != 0.0 else np.eye(model.dim)
    times = np.linspace(0.0, model.horizon, grid)
    form = diagonal_form(model)
    if form is not None:
        b = form.profile.value(times)[:, None] * form.mu
        lam_neg = np.diagonal(a_neg)
        return times, float(np.max(np.abs(b * lam_neg))), lam_neg * b * lam_neg
    d, chunk = model.dim, _batch_length(model.dim)
    samples = np.empty((grid, d, d)) if keep else None
    c_alpha = 0.0
    for start in range(0, grid, chunk):
        b = perturbation_entries(model, times[start:start + chunk])
        c_alpha = max(c_alpha, *(opnorm(m) for m in b @ a_neg))
        if keep:
            samples[start:start + len(b)] = a_neg @ b @ a_neg
    return times, c_alpha, samples


def _relative_bound(model: Model, grid: int) -> float:
    """c_alpha, the grid maximum of ||B(t) A^{-alpha}||, without holding the samples."""
    return _horizon_samples(model, grid, keep=False)[1]


def _row_gaps(times: np.ndarray, i: int, beta: float) -> np.ndarray:
    """``abs(t_j - t_i) ** beta`` for j > i, one scalar power at a time.

    A vectorized power may differ from the scalar one in the last bit.
    """
    return np.array([abs(gap) ** beta for gap in times[i + 1:] - times[i]])


def _holder_constant(times: np.ndarray, samples: np.ndarray, beta: float) -> float:
    """Largest ``opnorm(S_j - S_i) / abs(t_j - t_i) ** beta`` over grid pairs.

    Bit for bit the maximum of that quotient over all i < j, without an SVD
    per pair.  ``samples`` holds the S(t) of ``_horizon_samples``: either
    their diagonals, shape (grid, d), for a model with a diagonal form, read as
    the largest entry of |diag_j - diag_i|; or the full stack (grid, d, d).
    LAPACK's singular values of a diagonal matrix, and so ``opnorm``'s, are
    its sorted |entries|, except on some 2 x 2 matrices, where its closed
    formula may be an ulp off.  For the full stack the grid - 1 adjacent
    norms are computed, and the triangle inequality bounds every other pair
    by (P_j - P_i) / |t_j - t_i|^beta, P being their prefix sums; pairs are
    evaluated in order of decreasing bound while the bound exceeds the
    largest quotient so far.
    """
    grid = samples.shape[0]
    if samples.ndim == 2:
        best = 0.0
        for i in range(grid - 1):
            norms = np.max(np.abs(samples[i + 1:] - samples[i]), axis=1)
            best = max(best, float(np.max(norms / _row_gaps(times, i, beta))))
        return best

    adjacent = np.array([opnorm(samples[k + 1] - samples[k]) for k in range(grid - 1)])
    gaps = [abs(times[k + 1] - times[k]) ** beta for k in range(grid - 1)]
    best = float(np.max(adjacent / gaps))
    prefix = np.concatenate(([0.0], np.cumsum(adjacent)))
    slack = grid * PRUNE_ABS * prefix[-1]
    bounds, firsts, lasts = [], [], []
    for i in range(grid - 2):
        gaps = _row_gaps(times, i, beta)[1:]
        bound = ((prefix[i + 2:] - prefix[i]) * (1.0 + PRUNE_REL) + slack) / gaps
        (keep,) = np.nonzero(bound > best)
        bounds.append(bound[keep])
        firsts.append(np.full(keep.size, i))
        lasts.append(keep + i + 2)
    if not bounds:
        return best
    bounds, firsts, lasts = (np.concatenate(x) for x in (bounds, firsts, lasts))
    for k in np.argsort(-bounds, kind="stable"):
        if bounds[k] <= best:
            break
        i, j = firsts[k], lasts[k]
        gap = abs(times[j] - times[i]) ** beta
        best = max(best, opnorm(samples[j] - samples[i]) / gap)
    return float(best)


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
    _check_window(model, s, t)
    return _coefficient(model, _relative_bound(model, grid), s, t)


def estimate_constants(model: Model, s: float, t: float, grid: int = 101) -> ConstantsReport:
    """Grid estimates of (c_alpha, m_alpha, l_alpha_beta, xi) for [s, t].

    ``grid`` sets the number of horizon sample times; the Hoelder constant
    maximizes the quotient over all grid pairs (see ``_holder_constant``).
    """
    _check_window(model, s, t)
    alpha = model.perturbation.alpha
    beta = model.perturbation.beta
    times, c_alpha, samples = _horizon_samples(model, grid)
    l_alpha_beta = _holder_constant(times, samples, beta)
    m_alpha = smoothing_constant(model.generator.eigenvalues, t - s, alpha)
    xi = _coefficient(model, c_alpha, s, t)
    return ConstantsReport(
        c_alpha=float(c_alpha), m_alpha=float(m_alpha),
        l_alpha_beta=float(l_alpha_beta), xi=float(xi),
        alpha=alpha, beta=beta, s=float(s), t=float(t), grid=int(grid),
    )
