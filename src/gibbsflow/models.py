"""Problem models: du/dt = -(A + B(t)) u on a finite horizon [0, T].

A model couples a generator A (symmetric, spectrum >= 1) with a non-negative
time-dependent perturbation family B(t) declared to satisfy

    ||B(t) A^{-alpha}||        bounded   (relative boundedness, order alpha),
    ||A^{-alpha}(B(t)-B(s))A^{-alpha}|| <= L |t-s|^beta   (Hoelder in time).

alpha and beta are declared parameters of the family: on a finite-dimensional
truncation every family is bounded and Lipschitz, so the declared values act
as regime selectors for the rate analysis rather than measurable quantities.

Built-in families carry closed-form time integrals where they exist, so the
scalar and commuting models expose exact propagators.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ModelError, TimeRangeError, ValidationError
from .linalg import HermitianOperator, eigen_entries, heat, symmetrized

__all__ = [
    "TimeProfile",
    "constant_profile",
    "linear_profile",
    "kink_profile",
    "Generator",
    "SpectralForm",
    "PerturbationFamily",
    "Model",
    "scalar_model",
    "commuting_model",
    "rotating_model",
    "evaluate_perturbation",
    "perturbation_entries",
    "diagonal_form",
]

# Smallest admissible generator eigenvalue (A >= 1 up to rounding).
GENERATOR_FLOOR = 1.0 - 1e-12
# Perturbations must be non-negative up to rounding when validated.
NONNEG_TOL = 1e-10


@dataclass(frozen=True)
class TimeProfile:
    """Scalar coefficient b(t) = offset + slope t + scale |t - t0|^beta.

    ``value`` maps times to an array shaped like them and ``integral(s, t)``
    is int_s^t b in closed form.  ``beta`` in (0, 1] is the Hoelder exponent
    the profile declares; models built on it declare it unless told
    otherwise.  ``breakpoints`` lists the times where b may not be smooth.
    Between breakpoints b is concave if ``scale`` >= 0 and monotone if
    ``slope`` is 0, so its minimum on an interval is at an end or a
    breakpoint; a kink term therefore needs t0 among the breakpoints, and a
    negative ``scale`` needs ``slope`` 0.
    """

    label: str
    offset: float = 0.0
    slope: float = 0.0
    scale: float = 0.0
    t0: float = 0.0
    beta: float = 1.0
    breakpoints: tuple[float, ...] = ()

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ModelError(f"profile requires beta in (0, 1], got {self.beta}")
        if (self.scale < 0 and self.slope != 0
                or self.scale != 0 and self.t0 not in self.breakpoints):
            raise ModelError(f"profile {self.label}: a kink term needs t0 among the "
                             f"breakpoints, and a negative scale needs slope 0")

    def value(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        return np.asarray(self.offset + self.slope * ts
                          + self.scale * np.abs(ts - self.t0) ** self.beta)

    def integral(self, s: float, t: float) -> float:
        u, v, p = s - self.t0, t - self.t0, self.beta + 1.0
        kink = math.copysign(abs(v) ** p / p, v) - math.copysign(abs(u) ** p / p, u)
        return self.offset * (t - s) + 0.5 * self.slope * (t * t - s * s) + self.scale * kink


def constant_profile(c: float) -> TimeProfile:
    c = float(c)
    return TimeProfile(f"const({c:g})", offset=c)


def linear_profile(slope: float, offset: float = 0.0) -> TimeProfile:
    slope, offset = float(slope), float(offset)
    return TimeProfile(f"linear(slope={slope:g}, offset={offset:g})", offset=offset, slope=slope)


def kink_profile(t0: float, beta: float, scale: float = 1.0, offset: float = 0.0) -> TimeProfile:
    """b(t) = offset + scale * |t - t0|^beta; Hoelder of order beta at t0."""
    t0, beta, scale, offset = float(t0), float(beta), float(scale), float(offset)
    return TimeProfile(f"kink(t0={t0:g}, beta={beta:g}, scale={scale:g}, offset={offset:g})",
                       offset=offset, scale=scale, t0=t0, beta=beta, breakpoints=(t0,))


class Generator:
    """Generator A: symmetric with every eigenvalue >= 1 (checked here)."""

    __slots__ = ("operator",)

    def __init__(self, operator):
        if not isinstance(operator, HermitianOperator):
            operator = HermitianOperator(operator)
        w, _ = operator.spectrum()
        if w[0] < GENERATOR_FLOOR:
            raise ModelError(
                f"generator spectrum must satisfy lambda_min >= 1, got {w[0]!r}"
            )
        self.operator = operator

    @property
    def dim(self) -> int:
        return self.operator.dim

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.operator.spectrum()[0]

    @property
    def diagonal(self) -> Optional[np.ndarray]:
        """The diagonal of A when every off-diagonal entry is exactly 0, else None.

        Read only by ``diagonal_form``, which pairs it with a spectral form in
        the standard basis, and by the closed-form product it selects."""
        a = self.operator.entries
        lam = np.diagonal(a)
        return lam if np.array_equal(a, np.diag(lam)) else None

    def heat(self, t: float) -> np.ndarray:
        """Entries of e^{-tA}."""
        return heat(self.operator, t)

    def __repr__(self) -> str:
        return f"Generator(dim={self.dim})"


def check_exponents(alpha: float, beta: float) -> None:
    """Reject a declared (alpha, beta) outside [0, 1) x (0, 1]."""
    if not 0.0 <= alpha < 1.0:
        raise ModelError(f"alpha must lie in [0, 1), got {alpha}")
    if not 0.0 < beta <= 1.0:
        raise ModelError(f"beta must lie in (0, 1], got {beta}")


def _check_horizon(horizon: float) -> None:
    """Reject a horizon that is not positive and finite."""
    if not (np.isfinite(horizon) and horizon > 0):
        raise ModelError(f"horizon must be positive and finite, got {horizon}")


@dataclass(frozen=True, eq=False)
class SpectralForm:
    """B(t) = b(t) V(t) diag(mu) V(t)^T: a profile b, fixed eigenvalues ``mu``
    (finite and non-negative, shape (d,)) and ``basis(ts)``, the orthonormal
    V(t) for a 1-D array of n times, shape (n, d, d), or None for V = I.

    It compares by identity, so a family holding it stays a memo key and the
    array ``mu`` never enters equality or hashing.
    """

    profile: TimeProfile
    mu: np.ndarray
    basis: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        if mu.ndim != 1 or not np.all(np.isfinite(mu)) or np.any(mu < 0):
            raise ModelError(f"spectral mu must be a finite, non-negative vector, got {mu}")
        object.__setattr__(self, "mu", mu)

    def frame(self, ts: np.ndarray) -> Optional[np.ndarray]:
        """V(t) for every time in ``ts``, or None for the standard basis."""
        return None if self.basis is None else self.basis(ts)


@dataclass(frozen=True, kw_only=True)
class PerturbationFamily:
    """Time-dependent perturbation B(t) with declared (alpha, beta).

    B is declared exactly once, in one of two ways.  ``spectral`` is a
    ``SpectralForm``, B(t) = b(t) V(t) diag(mu) V(t)^T; every built-in
    family is one.  ``entries(ts)`` is a general formula: for a 1-D array of
    n times it returns the entries of every B(t), shape (n, d, d).  Read B
    through ``perturbation_entries``, which builds it from either and
    validates it like ``HermitianOperator``.  ``breakpoints`` lists the times
    where t -> B(t) is not smooth, so quadratures can align panel edges with
    them; like ``beta`` it must agree with B.
    """

    entries: Optional[Callable[[np.ndarray], np.ndarray]] = None
    spectral: Optional[SpectralForm] = None
    alpha: float
    beta: float
    breakpoints: tuple[float, ...] = ()

    def __post_init__(self):
        check_exponents(self.alpha, self.beta)
        if (self.entries is None) == (self.spectral is None):
            raise ModelError("a perturbation family declares exactly one of entries "
                             "and spectral")


@dataclass(frozen=True)
class Model:
    """Generator + perturbation family + horizon, with an optional exact propagator.

    ``exact(s, t)`` (when present) returns the solution operator carrying data
    at time s to time t, for 0 <= s <= t <= horizon.
    """

    generator: Generator
    perturbation: PerturbationFamily
    horizon: float = 1.0
    exact: Optional[Callable[[float, float], np.ndarray]] = None
    descriptor: str = ""

    def __post_init__(self):
        _check_horizon(self.horizon)

    @property
    def dim(self) -> int:
        return self.generator.dim


def evaluate_perturbation(model: Model, t: float, validate: bool = False) -> HermitianOperator:
    """B(t) for t in [0, horizon]; with ``validate`` also check B(t) >= 0."""
    b = HermitianOperator(perturbation_entries(model, np.array([t]))[0])
    if validate:
        w, _ = b.spectrum()
        if w[0] < -NONNEG_TOL:
            raise ModelError(f"perturbation not non-negative at t={t!r}: min eig {w[0]!r}")
    return b


def perturbation_entries(model: Model, times) -> np.ndarray:
    """Symmetrized entries of B(t) for a 1-D array of n times, shape (n, d, d).

    B comes from the family's spectral form or its ``entries``, and every
    matrix gets the checks of ``HermitianOperator``: finite entries, then
    ``symmetrized``.
    """
    times = np.asarray(times, dtype=float)
    shape = (times.size, model.dim, model.dim)
    if times.ndim != 1:
        raise ValidationError(f"times must be a 1-D array, got shape {times.shape}")
    if not np.all(np.isfinite(times)):
        raise ValidationError("times must be finite")
    if times.size and not (0.0 <= times.min() and times.max() <= model.horizon):
        raise TimeRangeError(
            f"times [{float(times.min())!r}, {float(times.max())!r}] outside the model "
            f"horizon [0, {model.horizon!r}]"
        )
    form = model.perturbation.spectral
    b = (eigen_entries(form.profile.value(times)[..., None] * form.mu, form.frame(times))
         if form is not None else np.asarray(model.perturbation.entries(times), dtype=float))
    if b.shape != shape:
        raise ValidationError(f"perturbation entries have shape {b.shape}, expected {shape}")
    if not np.all(np.isfinite(b)):
        raise ValidationError("perturbation entries must be finite")
    return symmetrized(b, where=lambda k: f" at t={float(times[k])!r}")


def diagonal_form(model: Model) -> Optional[SpectralForm]:
    """The family's spectral form when A is diagonal and the form's basis is
    None, so that B(t) = b(t) diag(mu), else None: the one test of diagonal
    structure.  A family whose B(t) is diagonal in some other way gets None,
    and its callers take their general route."""
    form = model.perturbation.spectral
    if form is None or form.basis is not None or model.generator.diagonal is None:
        return None
    return form


def _spectral_model(lam, profile: TimeProfile, mu, basis, exact, beta: float | None,
                    alpha: float, horizon: float, name: str, details: str) -> Model:
    """The model of a built-in family: A = diag(lam) and the spectral form
    B(t) = b(t) V(t) diag(mu) V(t)^T of ``profile``, ``mu`` and ``basis``.

    The family's breakpoints are the profile's inside (0, horizon), and
    ``beta=None`` declares the profile's beta.  The profile is screened for
    negativity at 0, at the horizon and at those breakpoints, which is exact:
    between breakpoints a ``TimeProfile`` takes its minimum at an end.
    """
    _check_horizon(horizon)
    breakpoints = tuple(x for x in profile.breakpoints if 0.0 < x < horizon)
    ts = np.array([0.0, *breakpoints, horizon])
    vals = profile.value(ts)
    if np.any(vals < -NONNEG_TOL):
        t_bad = float(ts[np.argmin(vals)])
        raise ModelError(
            f"profile {profile.label} is negative at t={t_bad:g} "
            f"(value {float(np.min(vals)):g})"
        )
    generator = Generator(np.diag(lam))
    if beta is None:
        beta = profile.beta
    family = PerturbationFamily(
        spectral=SpectralForm(profile, mu, basis),
        alpha=alpha,
        beta=beta,
        breakpoints=breakpoints,
    )
    return Model(generator, family, horizon, exact,
                 descriptor=f"{name}({details}, alpha={alpha:g}, beta={beta:g})")


def scalar_model(a: float, b: TimeProfile, beta: float | None = None,
                 alpha: float = 0.0, horizon: float = 1.0) -> Model:
    """Dimension-one model: A = (a), B(t) = (b(t)), with the exact propagator
    exp(-a (t-s) - int_s^t b).  ``beta=None`` declares the profile's beta."""
    a = float(a)
    if isinstance(b, (int, float)):
        b = constant_profile(b)

    def exact(s: float, t: float) -> np.ndarray:
        return np.array([[math.exp(-a * (t - s) - b.integral(s, t))]])

    return _spectral_model(np.array([a]), b, np.ones(1), None, exact, beta, alpha, horizon,
                           "scalar", f"a={a:g}, b={b.label}")


def commuting_model(lambdas, d0, b: TimeProfile, beta: float | None = None,
                    alpha: float = 0.0, horizon: float = 1.0) -> Model:
    """Diagonal model: A = diag(lambdas), B(t) = b(t) diag(d0).

    Everything commutes, so the exact propagator is the diagonal
    exp(-lambda_k (t-s) - d0_k int_s^t b).  ``beta=None`` declares the
    profile's beta.
    """
    lam = np.asarray(lambdas, dtype=float)
    d0 = np.asarray(d0, dtype=float)
    if lam.ndim != 1 or d0.shape != lam.shape:
        raise ModelError(
            f"lambdas and d0 must be one-dimensional with equal length, "
            f"got {lam.shape} and {d0.shape}"
        )

    def exact(s: float, t: float) -> np.ndarray:
        ib = b.integral(s, t)
        return np.diag(np.exp(-lam * (t - s) - d0 * ib))

    return _spectral_model(lam, b, d0, None, exact, beta, alpha, horizon,
                           "commuting", f"dim={lam.size}, b={b.label}")


def rotating_model(lambdas, b0, omega: float, beta: float, t0: float = 0.5,
                   alpha: float = 0.0, horizon: float = 1.0) -> Model:
    """Non-commuting model: B(t) = (1 + |t-t0|^beta) R(omega t) b0 R(omega t)^T.

    The rotation R acts in the (1, 2) plane, so B(t) genuinely fails to
    commute with A = diag(lambdas) whenever omega != 0 and b0 couples the
    rotated directions.  There is no closed-form propagator.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or lam.size < 2:
        raise ModelError(f"rotating model needs >= 2 eigenvalues, got shape {lam.shape}")
    if not isinstance(b0, HermitianOperator):
        b0 = np.asarray(b0, dtype=float)
        if b0.ndim == 1:
            b0 = np.diag(b0)
        b0 = HermitianOperator(b0)
    if b0.dim != lam.size:
        raise ModelError(f"b0 dimension {b0.dim} does not match generator dimension {lam.size}")
    mu, q0 = b0.spectrum()
    if mu[0] < -NONNEG_TOL:
        raise ModelError(f"b0 must be non-negative, got min eigenvalue {mu[0]!r}")
    omega, beta, t0 = float(omega), float(beta), float(t0)
    _check_horizon(horizon)
    if not 0.0 <= t0 <= horizon:
        raise ModelError(f"t0={t0!r} outside the horizon [0, {horizon!r}]")

    def rotated_basis(ts: np.ndarray) -> np.ndarray:
        # R(omega t) @ q0 for every time; it touches only the first two rows.
        v = np.array(np.broadcast_to(q0, ts.shape + q0.shape))
        c, s = np.cos(omega * ts)[..., None], np.sin(omega * ts)[..., None]
        v[..., 0, :] = c * q0[0, :] - s * q0[1, :]
        v[..., 1, :] = s * q0[0, :] + c * q0[1, :]
        return v

    return _spectral_model(lam, kink_profile(t0, beta, scale=1.0, offset=1.0),
                           np.maximum(mu, 0.0), rotated_basis, None, beta, alpha, horizon,
                           "rotating", f"dim={lam.size}, omega={omega:g}, t0={t0:g}")
