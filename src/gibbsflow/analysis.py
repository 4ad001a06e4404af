"""Convergence-rate analysis and inequality verification.

The product approximants converge in trace norm at a rate eps(n) that
depends only on the declared smoothness parameters (alpha, beta) of the
perturbation family:

    beta = 1                      eps(n) = log(n) / n      (n >= 2)
    beta = 1, alpha in (1/2, 1)   eps(n) = n^{-(1-alpha)}
    beta > 2 alpha - 1 > 0        eps(n) = n^{-beta}
    beta > alpha                  eps(n) = n^{-(beta-alpha)}

Several regimes can apply at once; reports evaluate all of them, with the
headline chosen by the priority order above.  When none applies, the
absence of a known bound is reported explicitly.

Bound checks follow a train/test protocol: the prefactor is fitted as
max err/eps over the leading part of the n-grid and the bound is then
required on the remaining n (optionally with a small slack).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import MAX_DIM, ValidationError, _require_number
from .linalg import heat, opnorm, singular_values, trace_norm
from .models import Generator, Model, check_exponents
from .propagator import (
    Scheme,
    _check_window,
    _ordered_product,
    make_partition,
    product_approximant,
    reference_propagator,
)

__all__ = [
    "RateRegime",
    "applicable_regimes",
    "RateFit",
    "fit_rate",
    "RegimeResult",
    "ConvergenceReport",
    "run_convergence",
    "Lemma21Check",
    "verify_lemma21",
    "Lemma21Ensemble",
    "lemma21_ensemble",
    "LiftingCheck",
    "verify_lifting",
    "CocycleCheck",
    "verify_cocycle",
    "ContractionCheck",
    "verify_contraction",
]

# Errors below this are treated as exact reproduction rather than fitted.
EXACT_REPRODUCTION_TOL = 1e-14
# Inequality checks allow rounding noise relative to their right-hand side.
INEQUALITY_SLACK = 1e-10
# The reference oracle should be at least this much below the errors it measures.
ORACLE_HEADROOM = 100.0
# The Lemma 2.1 ensemble is drawn and evaluated in blocks of this many
# instances; the block fixes the draw order, so it is part of the ensemble.
LEMMA21_BLOCK = 256


@dataclass(frozen=True)
class RateRegime:
    """A convergence-rate guarantee eps(n): n^-power, or log(n)/n when
    ``power`` is None."""

    power: Optional[float]

    @property
    def label(self) -> str:
        return "log(n)/n" if self.power is None else f"n^-{self.power:g}"

    def epsilon(self, n: int) -> float:
        """eps(n) for n >= 1, or n >= 2 for log(n)/n."""
        n = _require_number("n", n, lo=1.0 if self.power is not None else 2.0)
        return n ** -self.power if self.power is not None else math.log(n) / n


def applicable_regimes(alpha: float, beta: float) -> tuple[RateRegime, ...]:
    """Every known rate regime for (alpha, beta), headline first."""
    check_exponents(alpha, beta)
    regimes = []
    if beta == 1.0:
        regimes.append(RateRegime(None))
        if 0.5 < alpha < 1.0:
            regimes.append(RateRegime(1.0 - alpha))
    else:
        if beta > 2.0 * alpha - 1.0 > 0.0:
            regimes.append(RateRegime(beta))
        if beta > alpha:
            regimes.append(RateRegime(beta - alpha))
    return tuple(regimes)


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float


def fit_rate(n_list: Sequence[int], errors: Sequence[float]) -> RateFit:
    """Least-squares slope of log err against log n, ignoring zero errors."""
    n_arr = np.asarray(n_list, dtype=float)
    e_arr = np.asarray(errors, dtype=float)
    if n_arr.shape != e_arr.shape:
        raise ValidationError(
            f"n_list and errors must have equal length, got {n_arr.size} and {e_arr.size}"
        )
    keep = e_arr > 0
    if np.count_nonzero(keep) < 3:
        raise ValidationError(
            f"rate fit needs at least 3 positive errors, got {int(np.count_nonzero(keep))}"
        )
    x = np.log(n_arr[keep])
    y = np.log(e_arr[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(np.sum(resid ** 2))
    r_squared = 1.0 if ss_tot <= 1e-30 else 1.0 - ss_res / ss_tot
    return RateFit(float(slope), float(intercept), float(r_squared))


@dataclass(frozen=True)
class RegimeResult:
    """Train/test outcome of one rate bound on one error sequence, with the
    rate ``epsilon`` at every n of the report's ``n_list``."""

    label: str
    prefactor: float
    bound_satisfied: bool
    train_ns: tuple[int, ...]
    test_ns: tuple[int, ...]
    epsilon: tuple[float, ...]


@dataclass(frozen=True)
class ConvergenceReport:
    """Errors of one scheme against the oracle, with rate diagnostics.

    ``regime`` is the headline regime's label, and ``fitted_prefactor`` and
    ``bound_satisfied`` are its outcome; all three are None when no regime
    applies.
    """

    model: str
    scheme: Scheme
    s: float
    t: float
    n_list: tuple[int, ...]
    err_op: tuple[float, ...]
    err_tr: tuple[float, ...]
    fitted_slope: float
    r_squared: float
    fitted_prefactor: Optional[float]
    regime: Optional[str]
    bound_satisfied: Optional[bool]
    regimes: tuple[RegimeResult, ...]
    exact_reproduction: bool
    oracle: str
    slack: float
    notes: tuple[str, ...] = ()


def _oracle(model: Model, s: float, t: float, tol_ref: float) -> np.ndarray:
    """U(s, t): the exact propagator when the model has one, else the
    (memoized) reference oracle at ``tol_ref``."""
    if model.exact is not None:
        return np.asarray(model.exact(s, t))
    return reference_propagator(model, s, t, tol_ref).U


def run_convergence(model: Model, scheme: Scheme, s: float, t: float,
                    n_list: Sequence[int], tol_ref: float = 1e-10,
                    slack: float = 0.0,
                    fit_ns: Optional[Sequence[int]] = None) -> ConvergenceReport:
    """Measure scheme errors over n_list and check every applicable rate bound.

    Errors are measured against the exact propagator when the model has one,
    otherwise against the reference oracle at tolerance ``tol_ref``.  The
    prefactor of each applicable regime is fitted on ``fit_ns`` (default:
    the first half of n_list; else distinct values of n_list that leave at
    least one to test) and the bound is tested on the rest, allowing a
    relative ``slack``.  Every entry of ``n_list`` and ``fit_ns`` is an
    integer; at beta = 1, where the log(n)/n rate vanishes at n = 1,
    ``n_list`` may not hold 1.
    """
    ns = tuple(_require_number("n_list", n, lo=1, integer=True) for n in n_list)
    if len(ns) < 3 or list(ns) != sorted(set(ns)):
        raise ValidationError(
            f"n_list must be >= 3 strictly increasing positive integers, got {list(n_list)!r}"
        )
    if model.perturbation.beta == 1.0 and 1 in ns:
        raise ValidationError(f"n_list must not hold 1 at beta = 1 (the log(n)/n rate "
                              f"is defined for n >= 2), got {list(ns)!r}")
    _require_number("tol_ref", tol_ref, lo=0.0, lo_open=True)
    _require_number("slack", slack, lo=0.0, hi=1.0, hi_open=True)
    if fit_ns is None:
        train = ns[: max(1, len(ns) // 2)]
    else:
        train = tuple(_require_number("fit_ns", n, integer=True) for n in fit_ns)
        if (not train or len(set(train)) != len(train)
                or any(n not in ns for n in train) or len(train) == len(ns)):
            raise ValidationError(f"fit_ns {list(fit_ns)!r} must be distinct values of "
                                  f"n_list, at least one, leaving at least one n to test")
    test = tuple(n for n in ns if n not in train)

    oracle_label = "exact" if model.exact is not None else f"reference(tol={tol_ref:g})"
    u_star = _oracle(model, s, t, tol_ref)

    err_op, err_tr = [], []
    for n in ns:
        sv = singular_values(product_approximant(scheme, model, s, t, n).U - u_star)
        err_op.append(float(sv[0]))
        err_tr.append(float(np.sum(sv)))

    notes = []
    exact_reproduction = max(err_tr) <= EXACT_REPRODUCTION_TOL
    if exact_reproduction:
        fit = RateFit(float("nan"), float("nan"), float("nan"))
        notes.append("errors at rounding level; scheme reproduces the propagator exactly")
    else:
        fit = fit_rate(ns, err_tr)

    if oracle_label != "exact":
        smallest = min((e for e in err_tr if e > 0), default=0.0)
        if smallest > 0 and tol_ref > smallest / ORACLE_HEADROOM:
            notes.append(f"reference tolerance {tol_ref:g} is within {ORACLE_HEADROOM:g}x "
                         f"of the smallest measured error {smallest:g}")

    alpha = model.perturbation.alpha
    beta = model.perturbation.beta
    err_of = dict(zip(ns, err_tr))
    regimes = []
    for regime in applicable_regimes(alpha, beta):
        eps = {n: regime.epsilon(n) for n in ns}
        prefactor = max(err_of[n] / eps[n] for n in train)
        ok = all(err_of[n] <= (1.0 + slack) * prefactor * eps[n] for n in test)
        regimes.append(RegimeResult(regime.label, float(prefactor), bool(ok), train, test,
                                    tuple(eps.values())))
    if not regimes:
        notes.append(f"no known convergence-rate bound for alpha={alpha:g}, beta={beta:g}")

    headline = regimes[0] if regimes else None
    return ConvergenceReport(
        model=model.descriptor,
        scheme=scheme,
        s=float(s), t=float(t),
        n_list=ns,
        err_op=tuple(float(e) for e in err_op),
        err_tr=tuple(float(e) for e in err_tr),
        fitted_slope=fit.slope,
        r_squared=fit.r_squared,
        fitted_prefactor=None if headline is None else headline.prefactor,
        regime=None if headline is None else headline.label,
        bound_satisfied=None if headline is None else headline.bound_satisfied,
        regimes=tuple(regimes),
        exact_reproduction=exact_reproduction,
        oracle=oracle_label,
        slack=float(slack),
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class Lemma21Check:
    """Trace-norm bound for an interleaved product of contractions and heat factors.

    lhs = ||V_1 e^{-t_1 A} ... V_n e^{-t_n A}||_1,
    rhs = prod_j ||V_j|| * ||e^{-(sum_j t_j) A / 4}||_1.
    """

    lhs: float
    rhs: float
    margin: float
    holds: bool


def _lemma21_sides(lam: np.ndarray, factors: np.ndarray, factor_norms: np.ndarray,
                   times: np.ndarray, owner: np.ndarray,
                   position: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(lhs, rhs)`` of the interleaved-product bound for k instances at
    once, each in the eigenframe of its generator.

    Instance i has the generator diag(lam[i]); the factor ``factors[f]``,
    shape (d, d), with norm ``factor_norms[f]`` and time ``times[f]`` is its
    ``position[f]``-th factor when ``owner[f] == i``.  Every instance has its
    factors at positions 0, 1, ..., listed in that order.  The heat factor
    e^{-t A} scales the columns by e^{-t lam}, and ||e^{-T A / 4}||_1 is the
    sum of its eigenvalues, so only ``lhs`` takes an SVD.  The product is
    built left to right, so an instance's sides do not depend on its stack.
    """
    steps = factors * np.exp(-times[:, None] * lam[owner])[:, None, :]
    product = np.empty((lam.shape[0],) + factors.shape[1:])
    product[owner[position == 0]] = steps[position == 0]
    for j in range(1, int(position.max()) + 1):
        at = position == j
        i = owner[at]
        product[i] = product[i] @ steps[at]
    norms = np.ones(lam.shape[0])
    np.multiply.at(norms, owner, factor_norms)
    total = np.zeros(lam.shape[0])
    np.add.at(total, owner, times)
    lhs = np.sum(singular_values(product), axis=-1)
    rhs = norms * np.sum(np.exp(-(0.25 * total)[:, None] * lam), axis=-1)
    return lhs, rhs


def _framed_sides(w: np.ndarray, q: np.ndarray, factors: np.ndarray, times: np.ndarray,
                  owner: np.ndarray, position: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_lemma21_sides`` of factors given in the standard basis: instance i
    has the generator spectrum ``(w[i], q[i])``, so its factors V move into
    the eigenframe as q^T V q.  Factors are arbitrary here, so their norms
    are SVD norms."""
    if not np.all(np.isfinite(factors)):
        raise ValidationError("factors must have finite entries")
    if not np.all(np.isfinite(times) & (times > 0)):
        raise ValidationError(f"times must be positive, got {times.tolist()!r}")
    frame = q[owner]
    framed = np.swapaxes(frame, -1, -2) @ factors @ frame
    return _lemma21_sides(w, framed, singular_values(factors)[:, 0], times, owner, position)


def _lemma21_holds(lhs: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Margins ``rhs - lhs`` and whether each is within rounding of >= 0."""
    margin = rhs - lhs
    return margin, margin >= -INEQUALITY_SLACK * np.maximum(1.0, rhs)


def verify_lemma21(generator: Generator, contractions: Sequence[np.ndarray],
                   times: Sequence[float]) -> Lemma21Check:
    """Check the interleaved-product trace bound for one instance."""
    if len(contractions) != len(times) or not contractions:
        raise ValidationError(
            f"need equally many factors and times (>= 1), got "
            f"{len(contractions)} and {len(times)}"
        )
    dim = generator.dim
    factors = [np.asarray(v, dtype=float) for v in contractions]
    if any(v.shape != (dim, dim) for v in factors):
        raise ValidationError(
            f"factors must have the generator's shape {(dim, dim)}, got "
            f"{[v.shape for v in factors]!r}"
        )
    w, q = generator.spectrum()
    n = len(factors)
    lhs, rhs = _framed_sides(w[None], q[None], np.stack(factors),
                             np.array([float(x) for x in times]),
                             np.zeros(n, dtype=int), np.arange(n))
    margin, holds = _lemma21_holds(lhs, rhs)
    return Lemma21Check(float(lhs[0]), float(rhs[0]), float(margin[0]), bool(holds[0]))


@dataclass(frozen=True)
class Lemma21Ensemble:
    """The interleaved-product bound on a seeded ensemble: it ``holds`` when
    every one of the ``count`` instances does."""

    count: int
    seed: int
    dim_max: int
    holds_count: int
    failures: int
    min_margin: float
    holds: bool


def _haar(normals: np.ndarray) -> np.ndarray:
    """Haar-distributed orthogonal matrices from a stack of Gaussian ones:
    the QR factor Q with R's diagonal made positive (LAPACK's own signs
    would make every Q[0, 0] non-positive)."""
    q, r = np.linalg.qr(normals)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def _lemma21_blocks(count: int, seed: int, dim_max: int):
    """Yield ``(indices, lhs, rhs)`` for every instance of the seeded ensemble.

    An instance is A = Q diag(lam) Q^T with Q Haar and lam uniform in
    [1, 5), 1 to 8 factors V_j = O_j diag(s_j) with O_j Haar and s_j
    uniform in [0, 1), and times uniform in [0.01, 2).  Conjugating by Q
    leaves both sides unchanged, so it is drawn in A's eigenframe: the
    generator diag(lam) and the factors O'_j diag(s_j) Q, where
    O'_j = Q^T O_j is again Haar and independent of Q; a factor's norm is
    max(s_j).  ``default_rng(seed)`` is read in blocks of ``LEMMA21_BLOCK``
    instances: every dimension, every factor count, then per dimension in
    ascending order the normals of Q, lam, the normals of O', s and t.
    """
    _require_number("count", count, lo=1, integer=True)
    _require_number("dim_max", dim_max, lo=1, hi=MAX_DIM, integer=True)
    _require_number("seed", seed, lo=0, integer=True)
    rng = np.random.default_rng(seed)
    for start in range(0, count, LEMMA21_BLOCK):
        dims = rng.integers(1, dim_max + 1, min(LEMMA21_BLOCK, count - start))
        counts = rng.integers(1, 9, dims.size)
        for dim in sorted(set(dims.tolist())):
            members = np.flatnonzero(dims == dim)
            basis = _haar(rng.standard_normal((members.size, dim, dim)))
            lam = 1.0 + 4.0 * rng.random((members.size, dim))
            n = counts[members]
            owner = np.repeat(np.arange(members.size), n)
            orth = _haar(rng.standard_normal((owner.size, dim, dim)))
            scales = rng.random((owner.size, dim))
            times = 0.01 + 1.99 * rng.random(owner.size)
            factors = (orth * scales[:, None, :]) @ basis[owner]
            position = np.arange(owner.size) - np.repeat(np.cumsum(n) - n, n)
            yield (start + members, *_lemma21_sides(lam, factors, scales.max(axis=1), times,
                                                     owner, position))


def _lemma21_arrays(count: int, seed: int, dim_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-instance ``lhs`` and ``rhs`` of the seeded ensemble, in draw order."""
    lhs, rhs = np.empty(count), np.empty(count)
    for indices, block_lhs, block_rhs in _lemma21_blocks(count, seed, dim_max):
        lhs[indices], rhs[indices] = block_lhs, block_rhs
    return lhs, rhs


def lemma21_ensemble(count: int = 1000, seed: int = 0, dim_max: int = 16) -> Lemma21Ensemble:
    """Run the interleaved-product bound on seeded random instances.

    Instances of equal dimension in a block are evaluated in one stack,
    in their generators' eigenframes (see ``_lemma21_blocks``).
    """
    holds = 0
    min_margin = float("inf")
    for _, lhs, rhs in _lemma21_blocks(count, seed, dim_max):
        margin, ok = _lemma21_holds(lhs, rhs)
        holds += int(np.count_nonzero(ok))
        min_margin = min(min_margin, float(np.min(margin)))
    return Lemma21Ensemble(count, seed, dim_max, holds, count - holds, float(min_margin),
                           holds == count)


@dataclass(frozen=True)
class LiftingCheck:
    """Half-product decomposition of the trace-norm error at even n.

    Splitting the ordered product at k_n = n/2 and the propagator at the
    matching partition time bounds the trace-norm error by operator-norm
    half errors weighted with half trace norms:

        lhs <= e_late * ||P_early||_1 + ||U_late||_1 * e_early.
    """

    scheme: Scheme
    n: int
    k_n: int
    lhs: float
    rhs: float
    half_op_errors: tuple[float, float]
    half_tr_norms: tuple[float, float]
    c_ts: float
    holds: bool


def verify_lifting(model: Model, scheme: Scheme, s: float, t: float, n: int,
                   tol_ref: float = 1e-10) -> LiftingCheck:
    """Check the split-product error bound for one even n."""
    n = _require_number("n", n, lo=4, integer=True)
    if n % 2 != 0:
        raise ValidationError(f"lifting check requires an even n, got {n}")
    _require_number("tol_ref", tol_ref, lo=0.0, lo_open=True)
    part = make_partition(s, t, n)
    _check_window(model, part.s, part.t)
    tau = part.step
    k_n = n // 2
    mid = s + k_n * tau

    early = _ordered_product(model, part.points[:k_n], tau, scheme)
    late = _ordered_product(model, part.points[k_n:], tau, scheme)
    u_n = late @ early

    u_early = _oracle(model, s, mid, tol_ref)
    u_late = _oracle(model, mid, t, tol_ref)
    u_full = u_late @ u_early

    e_late = opnorm(late - u_late)
    e_early = opnorm(early - u_early)
    tr_early = trace_norm(early)
    tr_u_late = trace_norm(u_late)
    lhs = trace_norm(u_n - u_full)
    rhs = e_late * tr_early + tr_u_late * e_early
    c_ts = trace_norm(heat(model.generator, 0.5 * (t - s)))
    holds = lhs <= rhs + INEQUALITY_SLACK * max(1.0, rhs)
    return LiftingCheck(
        scheme=scheme, n=int(n), k_n=int(k_n),
        lhs=float(lhs), rhs=float(rhs),
        half_op_errors=(float(e_late), float(e_early)),
        half_tr_norms=(float(tr_early), float(tr_u_late)),
        c_ts=float(c_ts), holds=bool(holds),
    )


@dataclass(frozen=True)
class CocycleCheck:
    """Composition-law residual ||U(r,t) U(s,r) - U(s,t)|| of an oracle.

    ``budget`` is the triangle-inequality budget, three oracles at tol_ref
    each; ``contraction_ok`` says ||U(s,t)|| <= 1.
    """

    s: float
    r: float
    t: float
    residual: float
    budget: float
    norm: float
    contraction_ok: bool
    holds: bool


def verify_cocycle(model: Model, s: float, r: float, t: float,
                   tol_ref: float = 1e-10) -> CocycleCheck:
    if not s < r < t:
        raise ValidationError(f"cocycle check requires s < r < t, got {(s, r, t)!r}")
    _require_number("tol_ref", tol_ref, lo=0.0, lo_open=True)
    u_sr = reference_propagator(model, s, r, tol_ref)
    u_rt = reference_propagator(model, r, t, tol_ref)
    u_st = reference_propagator(model, s, t, tol_ref)
    residual = float(trace_norm(u_rt.U @ u_sr.U - u_st.U))
    norm = float(opnorm(u_st.U))
    budget = 3.0 * float(tol_ref)
    return CocycleCheck(float(s), float(r), float(t), residual, budget, norm,
                        norm <= 1.0 + INEQUALITY_SLACK, residual <= budget)


@dataclass(frozen=True)
class ContractionCheck:
    """||U_n|| against the generator bound e^{-(t-s)}."""

    scheme: Scheme
    n: int
    s: float
    t: float
    norm: float
    bound: float
    holds: bool


def verify_contraction(model: Model, scheme: Scheme, s: float, t: float,
                       n: int) -> ContractionCheck:
    result = product_approximant(scheme, model, s, t, n)
    norm = opnorm(result.U)
    bound = math.exp(-(t - s) * float(model.generator.spectrum()[0][0]))
    holds = norm <= bound + INEQUALITY_SLACK
    return ContractionCheck(scheme, int(n), float(s), float(t),
                            float(norm), float(bound), bool(holds))
