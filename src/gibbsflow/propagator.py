"""Propagator construction: product-formula approximants and oracles.

For the problem du/dt = -(A + B(t)) u on [s, t], split the interval into n
cells of width tau = (t-s)/n with left endpoints

    t_k = s + (k-1) (t-s)/n,   k = 1..n,

and approximate the solution operator by the ordered product

    U_n = W_n W_{n-1} ... W_1,

where each factor advances one cell and the k = n factor is applied last
(leftmost).  Three factor shapes are supported:

    left      W_k = e^{-tau A} e^{-tau B(t_k)}
    right     W_k = e^{-tau B(t_k)} e^{-tau A}
    symmetric W_k = e^{-tau A/2} e^{-tau B(t_k)} e^{-tau A/2}

All factors are contractions, so ||U_n|| <= e^{-(t-s)} (A >= 1).
"""
from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import AccuracyError, TimeRangeError, ValidationError
from .linalg import HermitianOperator, heat, opnorm, trace_norm
from .models import Model, perturbation_entries
from .quadrature import QuadratureSpec, integrate_matrix

__all__ = [
    "Scheme",
    "Partition",
    "make_partition",
    "PropagatorResult",
    "step_factor",
    "product_approximant",
    "reference_propagator",
    "integral_equation_residual",
]

# Contractions may exceed unit norm only by rounding noise.
CONTRACTION_SLACK = 1e-10
# Hard cap on the number of cells the reference oracle may use.
REFERENCE_MAX_STEPS = 2 ** 20
# Bytes of matrices built at once: cell factors in the product kernel, B(t)
# samples on the series and constants grids.  Larger batches raise peak
# memory without making the work faster.
BATCH_BYTES = 64 * 1024

# Reference results per model instance, keyed by (s, t, tol, n0).  Weak keys
# make a model's results live no longer than the model.
_REFERENCE_MEMO: "weakref.WeakKeyDictionary[Model, dict]" = weakref.WeakKeyDictionary()


def _batch_length(dim: int) -> int:
    """Number of (dim, dim) matrices that fit in ``BATCH_BYTES``, at least one."""
    return max(1, BATCH_BYTES // (8 * dim * dim))


class Scheme(enum.Enum):
    """Factor shape of the product approximant."""

    LEFT = "left"
    RIGHT = "right"
    SYMMETRIC = "symmetric"


@dataclass(frozen=True)
class Partition:
    """Uniform partition of [s, t] into n cells, sampled at left endpoints."""

    s: float
    t: float
    n: int
    points: np.ndarray = field(repr=False)

    @property
    def step(self) -> float:
        return (self.t - self.s) / self.n


def make_partition(s: float, t: float, n: int) -> Partition:
    if not (np.isfinite(s) and np.isfinite(t) and s < t):
        raise ValidationError(f"partition requires finite s < t, got s={s!r}, t={t!r}")
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValidationError(f"partition requires an integer n >= 1, got {n!r}")
    points = s + np.arange(n) * ((t - s) / n)
    points.setflags(write=False)
    return Partition(float(s), float(t), int(n), points)


@dataclass(frozen=True)
class PropagatorResult:
    """A computed propagator over [s, t] with its provenance.

    ``tail_bound`` is set only by series constructions and bounds the
    truncation error in trace norm; a truncated series may exceed unit
    norm by at most that much, which the contraction check allows for.
    """

    U: np.ndarray
    s: float
    t: float
    method: str
    tail_bound: Optional[float] = None

    def __post_init__(self):
        u = np.asarray(self.U, dtype=float)
        if not np.all(np.isfinite(u)):
            raise ValidationError(f"propagator entries must be finite ({self.method})")
        norm = opnorm(u)
        if norm > 1.0 + CONTRACTION_SLACK + (self.tail_bound or 0.0):
            raise ValidationError(
                f"propagator is not a contraction: ||U|| = {norm!r} ({self.method})"
            )
        object.__setattr__(self, "U", u)


def _check_window(model: Model, s: float, t: float) -> None:
    """Reject windows reaching outside the model horizon [0, T]."""
    if not (0.0 <= s and t <= model.horizon):
        raise TimeRangeError(
            f"window [{s!r}, {t!r}] outside the model horizon [0, {model.horizon!r}]"
        )


def _heat_of_perturbation(model: Model, times: np.ndarray, tau: float) -> np.ndarray:
    """Entries of e^{-tau B(t)} for every t in ``times``, shape (n, d, d).

    Uses the family's batched ``heat_factor`` when present, otherwise the
    spectral route on each matrix of ``perturbation_entries``.
    """
    fast = model.perturbation.heat_factor
    if fast is not None:
        return fast(times, tau)
    return np.array([heat(HermitianOperator(b), tau)
                     for b in perturbation_entries(model, times)])


def step_factor(scheme: Scheme, model: Model, t_k: float, tau: float) -> np.ndarray:
    """Single-cell factor W_k for the sample time t_k and cell width tau."""
    if tau <= 0:
        raise ValidationError(f"cell width must be positive, got {tau}")
    a = model.generator.operator
    eb = _heat_of_perturbation(model, np.array([float(t_k)]), tau)[0]
    if scheme is Scheme.LEFT:
        return heat(a, tau) @ eb
    if scheme is Scheme.RIGHT:
        return eb @ heat(a, tau)
    if scheme is Scheme.SYMMETRIC:
        half = heat(a, 0.5 * tau)
        return half @ eb @ half
    raise ValidationError(f"unknown scheme {scheme!r}")


def _pairwise(factors: np.ndarray) -> np.ndarray:
    """Ordered product of a stack (later factors on the left) by pairwise halving."""
    while len(factors) > 1:
        paired = factors[1::2] @ factors[0:-1:2]
        if len(factors) % 2:
            paired = np.concatenate((paired, factors[-1:]))
        factors = paired
    return factors[0]


def _ordered_product(model: Model, sample_times: np.ndarray, tau: float,
                     scheme: Scheme) -> np.ndarray:
    """Product of cell factors, later times applied on the left.

    Factors are built a batch of at most ``BATCH_BYTES`` at a time and each
    batch is reduced pairwise; batch products are merged like a binary
    counter, so the whole product is a balanced tree whose rounding error
    grows with log n.  The symmetric scheme shares the half steps of
    neighbouring cells: half eB_n eA eB_{n-1} ... eA eB_1 half.
    """
    if scheme not in (Scheme.LEFT, Scheme.RIGHT, Scheme.SYMMETRIC):
        raise ValidationError(f"unknown scheme {scheme!r}")
    a = model.generator.operator
    n = len(sample_times)
    ea = heat(a, tau)
    half = heat(a, 0.5 * tau) if scheme is Scheme.SYMMETRIC else None
    batch = _batch_length(model.dim)
    levels: list[int] = []
    products: list[np.ndarray] = []
    for start in range(0, n, batch):
        eb = _heat_of_perturbation(model, sample_times[start:start + batch], tau)
        factors = eb @ ea if scheme is Scheme.RIGHT else ea @ eb
        if half is not None and start + batch >= n:
            factors[-1] = half @ eb[-1]
        product, level = _pairwise(factors), 0
        while levels and levels[-1] == level:
            product = product @ products.pop()
            level = levels.pop() + 1
        products.append(product)
        levels.append(level)
    u = products.pop()
    while products:
        u = u @ products.pop()
    return u @ half if half is not None else u


def product_approximant(scheme: Scheme, model: Model, s: float, t: float,
                        n: int) -> PropagatorResult:
    """The n-cell product approximant U_n over [s, t] within the model horizon."""
    part = make_partition(s, t, n)
    _check_window(model, part.s, part.t)
    u = _ordered_product(model, part.points, part.step, scheme)
    return PropagatorResult(u, part.s, part.t, method=f"{scheme.value}(n={n})")


def _symmetric_midpoint_product(model: Model, s: float, t: float, n: int) -> np.ndarray:
    """Symmetric factors sampled at cell midpoints; reference use only.

    Midpoint sampling makes the product second-order accurate in n, which the
    doubling/extrapolation loop of the reference oracle requires; the
    production ``Scheme.SYMMETRIC`` keeps left-endpoint sampling.
    """
    part = make_partition(s, t, n)
    midpoints = part.points + 0.5 * part.step
    return _ordered_product(model, midpoints, part.step, Scheme.SYMMETRIC)


def _extrapolated_reference(model: Model, s: float, t: float, tol: float,
                            n0: int) -> PropagatorResult:
    """The doubling/extrapolation loop of ``reference_propagator``, uncached."""
    n = n0
    u_prev = _symmetric_midpoint_product(model, s, t, n)
    u_curr = _symmetric_midpoint_product(model, s, t, 2 * n)
    extrap_prev = (4.0 * u_curr - u_prev) / 3.0
    diff = trace_norm(u_curr - u_prev)
    while True:
        n *= 2
        if 2 * n > REFERENCE_MAX_STEPS:
            raise AccuracyError(
                f"reference propagator hit the cell cap {REFERENCE_MAX_STEPS}",
                requested=tol, achieved=diff,
            )
        u_prev, u_curr = u_curr, _symmetric_midpoint_product(model, s, t, 2 * n)
        extrap = (4.0 * u_curr - u_prev) / 3.0
        diff = trace_norm(u_curr - u_prev)
        extrap_diff = trace_norm(extrap - extrap_prev)
        if diff <= 0.5 * tol and extrap_diff <= 0.5 * tol:
            break
        extrap_prev = extrap
    extrap.setflags(write=False)
    return PropagatorResult(
        extrap, float(s), float(t),
        method=f"reference(tol={tol:g}, n={2 * n}, diff={diff:.3e})",
    )


def _cross_validate(model: Model, result: PropagatorResult, tol: float) -> None:
    """Raise unless ``result`` agrees with the series within its tail bound."""
    from .dyson import dyson_phillips_sum

    eps = max(tol, 1e-8)
    series = dyson_phillips_sum(model, result.s, result.t, eps)
    gap = trace_norm(result.U - series.U)
    budget = (series.tail_bound or 0.0) + 10.0 * eps + tol
    if gap > budget:
        raise AccuracyError(
            "reference propagator disagrees with the perturbation series",
            requested=budget, achieved=gap,
        )


def reference_propagator(model: Model, s: float, t: float, tol: float = 1e-10,
                         n0: int = 8, cross_validate: bool = False) -> PropagatorResult:
    """High-accuracy oracle propagator over [s, t].

    Computes midpoint-sampled symmetric products at n, 2n, 4n, ... and stops
    once both the raw doubling difference ||U_{2n} - U_n||_1 and the
    difference of successive Richardson extrapolants (4 U_{2n} - U_n)/3 fall
    below tol/2, returning the last extrapolant.  Fails with the best
    achieved estimate if the cell cap is reached first.

    Results are memoized per model instance and (s, t, tol, n0), with a
    read-only ``U``, so every caller asking for the same window shares one
    computation.  With ``cross_validate`` the result, cached or not, is
    additionally checked against the perturbation-series construction within
    its tail bound.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValidationError(f"tol must be positive, got {tol}")
    _check_window(model, s, t)
    memo = _REFERENCE_MEMO.setdefault(model, {})
    key = (float(s), float(t), float(tol), int(n0))
    result = memo.get(key)
    if result is None:
        result = memo[key] = _extrapolated_reference(model, s, t, tol, n0)
    if cross_validate:
        _cross_validate(model, result, tol)
    return result


def integral_equation_residual(u_fn: Callable[[float, float], np.ndarray],
                               model: Model, s: float, t: float,
                               quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Trace-norm defect of the variation-of-constants equation.

    For the true solution operator, U(s, t) = e^{-(t-s)A} - int_s^t
    e^{-(t-r)A} B(r) U(s, r) dr; the residual measures how far ``u_fn``
    is from satisfying it.  ``u_fn(s, r)`` maps data at time s to time r.
    """
    if not s < t:
        raise ValidationError(f"residual requires s < t, got s={s!r}, t={t!r}")
    _check_window(model, s, t)
    a = model.generator.operator
    lam, q = a.spectrum()

    def integrand(r: np.ndarray) -> np.ndarray:
        heats = (q * np.exp(-(t - r)[:, None] * lam)[:, None, :]) @ q.T
        b = perturbation_entries(model, r)
        u = np.array([np.asarray(u_fn(s, float(x)), dtype=float) for x in r])
        return heats @ b @ u

    integral = integrate_matrix(integrand, s, t, quad,
                                breakpoints=model.perturbation.breakpoints)
    defect = np.asarray(u_fn(s, t)) - heat(a, t - s) + integral
    return trace_norm(defect)
