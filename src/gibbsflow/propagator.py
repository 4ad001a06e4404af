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

The reference oracle is the fourth-order commutator-free Magnus integrator
CF4 (Blanes & Moan, Appl. Numer. Math. 56, 2006) on cells graded toward the
family's breakpoints.
"""
from __future__ import annotations

import enum
import math
import weakref
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import (MAX_COUNT, DecompositionError, TimeRangeError, ValidationError,
                     _require_number)
from .linalg import checked_eigh, eigen_entries, heat, opnorm, trace_norm
from .models import Model, diagonal_form, perturbation_entries
from .quadrature import _refine_by_doubling, integrate_matrix, mesh_grading, panel_edges

__all__ = [
    "Scheme",
    "Partition",
    "make_partition",
    "PropagatorResult",
    "product_approximant",
    "reference_propagator",
    "integral_equation_residual",
]

# Contractions may exceed unit norm only by rounding noise.
CONTRACTION_SLACK = 1e-10
# The reference oracle starts at this many cells per piece and doubles at
# most this often, so its finest product has 2^19 cells per piece.  A power
# of two, so a piece's product is a subtree of its window's product tree.
REFERENCE_CELLS = 8
REFERENCE_DOUBLINGS = 16
# CF4 on a cell [t, t + h]: Gauss nodes t + c_i h, c = 1/2 -+ sqrt(3)/6, and
# weights a = 1/4 -+ sqrt(3)/6 (see ``_magnus_product``).
_CF4_NODES = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
_CF4_WEIGHTS = (0.25 - math.sqrt(3.0) / 6.0, 0.25 + math.sqrt(3.0) / 6.0)
# Convergence order of CF4: its difference between n and 2n cells is 15 times
# the error of the 2n-cell product (see ``_refine_by_doubling``).
CF4_ORDER = 4
# Bytes of matrices built at once: cell factors in the product kernel, B(t)
# samples on the series and constants grids.  Larger batches raise peak
# memory without making the work faster.
BATCH_BYTES = 64 * 1024

# CF4 products of the oracle's pieces per model instance, keyed by (lo, hi, n).
# Weak keys make a model's products live no longer than the model.
_PIECE_PRODUCTS: "weakref.WeakKeyDictionary[Model, dict]" = weakref.WeakKeyDictionary()


def _batch_length(dim: int) -> int:
    """Largest power of two of (dim, dim) matrices that fit in ``BATCH_BYTES``,
    at least one.  Power-of-two batches make the kernel's product tree the
    aligned dyadic tree for every batch size."""
    fit = max(1, BATCH_BYTES // (8 * dim * dim))
    return 1 << (fit.bit_length() - 1)


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
    s, t = _require_number("s", s), _require_number("t", t)
    if not s < t:
        raise ValidationError(f"partition requires s < t, got s={s!r}, t={t!r}")
    n = _require_number("n", n, lo=1, hi=MAX_COUNT, integer=True)
    points = s + np.arange(n) * ((t - s) / n)
    points.setflags(write=False)
    return Partition(s, t, n, points)


@dataclass(frozen=True)
class PropagatorResult:
    """A computed propagator over [s, t] with its provenance.

    ``tail_bound`` is set only by series constructions.  It estimates the
    truncation error in trace norm and does not bound it: it omits the
    factor ||e^{-(t-s)A}||_1 (see ``dyson``).  The contraction check lets a
    truncated series exceed unit norm by that much.
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
    """Reject a window [s, t] unless its ends are finite with s < t, and
    reject one reaching outside the model horizon [0, T]."""
    s, t = _require_number("s", s), _require_number("t", t)
    if not s < t:
        raise ValidationError(f"window requires s < t, got s={s!r}, t={t!r}")
    if not (0.0 <= s and t <= model.horizon):
        raise TimeRangeError(
            f"window [{s!r}, {t!r}] outside the model horizon [0, {model.horizon!r}]"
        )


def _heat_of_perturbation(model: Model, times: np.ndarray, tau: float) -> np.ndarray:
    """Entries of every e^{-tau B(t)} for t in ``times``: V diag(e^{-tau b(t) mu}) V^T
    from the family's spectral form, otherwise one stacked, self-checked
    decomposition of ``perturbation_entries``."""
    form = model.perturbation.spectral
    if form is not None:
        return eigen_entries(np.exp((-tau * form.profile.value(times))[..., None] * form.mu),
                             form.frame(times))
    w, q = checked_eigh(perturbation_entries(model, times))
    return eigen_entries(np.exp(-tau * w), q)


def _pairwise(factors: np.ndarray) -> np.ndarray:
    """Ordered product of a stack (later factors on the left) by pairwise
    halving."""
    while len(factors) > 1:
        paired = factors[1::2] @ factors[0:-1:2]
        if len(factors) % 2:
            paired = np.concatenate((paired, factors[-1:]))
        factors = paired
    return factors[0]


def _tree_product(batches: Iterable[np.ndarray]) -> np.ndarray:
    """Ordered product of consecutive stacks of factors, later on the left.

    Each stack is reduced pairwise and the stack products are merged like a
    binary counter, so the whole product is a balanced tree: a bound on its
    rounding error grows with log n instead of n.
    """
    levels: list[int] = []
    products: list[np.ndarray] = []
    for factors in batches:
        product, level = _pairwise(factors), 0
        while levels and levels[-1] == level:
            product = product @ products.pop()
            level = levels.pop() + 1
        products.append(product)
        levels.append(level)
    u = products.pop()
    while products:
        u = u @ products.pop()
    return u


def _ordered_product(model: Model, sample_times: np.ndarray, tau: float,
                     scheme: Scheme) -> np.ndarray:
    """Product of cell factors, later times applied on the left.

    When the model has a diagonal form (``diagonal_form``: A is diagonal and
    the family's spectral form is B(t) = b(t) diag(mu)), every factor of every scheme
    is diagonal, so the factors commute and the product is the closed form
    diag(exp(-tau (n lambda + (sum_k b(t_k)) mu))): one pairwise sum of n
    samples and one exponential per entry, rounded once instead of n times.

    Otherwise factors are built a batch of at most ``BATCH_BYTES`` at a time
    and multiplied by ``_tree_product``; e^{-tau A} is one matrix, whatever
    the structure of A.  The symmetric scheme shares the half steps of
    neighbouring cells: half eB_n eA eB_{n-1} ... eA eB_1 half.
    """
    if scheme not in (Scheme.LEFT, Scheme.RIGHT, Scheme.SYMMETRIC):
        raise ValidationError(f"unknown scheme {scheme!r}")
    n = len(sample_times)
    form = diagonal_form(model)
    if form is not None:
        b_sum = np.sum(form.profile.value(sample_times))
        return np.diag(np.exp(-tau * (n * model.generator.diagonal + b_sum * form.mu)))

    ea = heat(model.generator, tau)
    half = heat(model.generator, 0.5 * tau) if scheme is Scheme.SYMMETRIC else None
    batch = _batch_length(model.dim)

    def batches():
        for start in range(0, n, batch):
            eb = _heat_of_perturbation(model, sample_times[start:start + batch], tau)
            factors = eb @ ea if scheme is Scheme.RIGHT else ea @ eb
            if half is not None and start + batch >= n:
                factors[-1] = half @ eb[-1]
            yield factors

    u = _tree_product(batches())
    return u @ half if half is not None else u


def product_approximant(scheme: Scheme, model: Model, s: float, t: float,
                        n: int) -> PropagatorResult:
    """The n-cell product approximant U_n over [s, t] within the model horizon."""
    part = make_partition(s, t, n)
    _check_window(model, part.s, part.t)
    u = _ordered_product(model, part.points, part.step, scheme)
    return PropagatorResult(u, part.s, part.t, method=f"{scheme.value}(n={n})")


def _magnus_product(model: Model, edges: np.ndarray) -> np.ndarray:
    """CF4 product over the cells between ``edges``, later cells on the left.

    A cell [t, t + h] contributes e^{-h X_2} e^{-h X_1} with
    X_1 = A/2 + a_2 B(c_1) + a_1 B(c_2) and X_2 = A/2 + a_1 B(c_1) + a_2 B(c_2),
    B read through ``perturbation_entries`` at the Gauss nodes.  The
    exponents are symmetric, so a batch of exponentials is one stacked
    ``eigh``.  Factors are built at most ``BATCH_BYTES`` at a time and
    multiplied by ``_tree_product``.
    """
    half_a = 0.5 * model.generator.entries
    dim = model.dim
    a1, a2 = _CF4_WEIGHTS
    cells = max(1, _batch_length(dim) // 2)

    def batches():
        for start in range(0, len(edges) - 1, cells):
            grid = edges[start:start + cells + 1]
            h = np.diff(grid)
            times = grid[:-1, None] + h[:, None] * _CF4_NODES
            b = perturbation_entries(model, times.ravel()).reshape(len(h), 2, dim, dim)
            x = np.stack((a2 * b[:, 0] + a1 * b[:, 1], a1 * b[:, 0] + a2 * b[:, 1]), axis=1)
            x = (x + half_a).reshape(2 * len(h), dim, dim)
            try:
                w, v = np.linalg.eigh(x)
            except np.linalg.LinAlgError as exc:
                raise DecompositionError(f"eigendecomposition did not converge: {exc}",
                                         dim=dim) from exc
            yield eigen_entries(np.exp(-np.repeat(h, 2)[:, None] * w), v)

    return _tree_product(batches())


def _piece_product(model: Model, lo: float, hi: float, n: int) -> np.ndarray:
    """Read-only CF4 product over n cells on the piece [lo, hi], graded
    toward its ends that are breakpoints as the family's declared Hoelder
    order asks (``mesh_grading``); memoized per model and (lo, hi, n)."""
    memo = _PIECE_PRODUCTS.setdefault(model, {})
    key = (lo, hi, n)
    if key not in memo:
        edges = panel_edges(lo, hi, n, model.perturbation.breakpoints,
                            mesh_grading(model.perturbation.beta))
        memo[key] = _magnus_product(model, edges)
        memo[key].setflags(write=False)
    return memo[key]


def reference_propagator(model: Model, s: float, t: float,
                         tol: float = 1e-10) -> PropagatorResult:
    """High-accuracy oracle propagator over [s, t].

    CF4 Magnus products on n cells per piece of [s, t] between the family's
    breakpoints, graded toward them below Hoelder order 1.  n doubles from
    ``REFERENCE_CELLS`` until the fourth-order error estimate
    ||U_2n - U_n||_1 / 15 is at most tol/2, and the 2n-cell product is
    returned.  Where the differences shrink by less than 16 per doubling,
    the estimate uses the observed ratio r instead of 16, D / (r - 1).
    Fails with the last estimate once a difference stops shrinking or the
    doublings run out; the second difference alone may grow, and the
    estimate after it is the raw difference D.

    The product at n is the ``_tree_product`` of the pieces' products, each
    memoized per model instance, piece and n (``_piece_product``).  Pieces
    have 8 * 2^k cells and kernel batches a power of two of factors, so each
    piece's product is a subtree of the whole window's tree: the result has
    the same bits whichever windows came before.  Windows that share a piece
    share its products, and a repeated or failing window reruns only the
    doubling loop's trace norms, returning an equal result or raising an
    equal ``AccuracyError``.
    """
    _require_number("tol", tol, lo=0.0, lo_open=True)
    _check_window(model, s, t)
    cuts = panel_edges(s, t, 1, model.perturbation.breakpoints).tolist()
    pieces = list(zip(cuts[:-1], cuts[1:]))
    u, n, diff = _refine_by_doubling(
        lambda n: _tree_product(_piece_product(model, lo, hi, n)[None] for lo, hi in pieces),
        REFERENCE_CELLS, 0.5 * tol, REFERENCE_DOUBLINGS, order=CF4_ORDER,
        label="reference propagator")
    u.setflags(write=False)
    return PropagatorResult(u, float(s), float(t),
                            method=f"reference(tol={tol:g}, n={n}, diff={diff:.3e})")


def integral_equation_residual(u_fn: Callable[[float, float], np.ndarray],
                               model: Model, s: float, t: float,
                               tol: float = 1e-10) -> float:
    """Trace-norm defect of the variation-of-constants equation.

    For the true solution operator, U(s, t) = e^{-(t-s)A} - int_s^t
    e^{-(t-r)A} B(r) U(s, r) dr; the residual measures how far ``u_fn``
    is from satisfying it.  ``u_fn(s, r)`` maps data at time s to time r,
    and the integral is taken to ``tol`` (``integrate_matrix``).
    """
    _check_window(model, s, t)
    lam, q = model.generator.spectrum()

    def integrand(r: np.ndarray) -> np.ndarray:
        heats = eigen_entries(np.exp(-(t - r)[:, None] * lam), q)
        b = perturbation_entries(model, r)
        u = np.array([np.asarray(u_fn(s, float(x)), dtype=float) for x in r])
        return heats @ b @ u

    integral = integrate_matrix(integrand, s, t, tol,
                                breakpoints=model.perturbation.breakpoints,
                                grading=mesh_grading(model.perturbation.beta))
    defect = np.asarray(u_fn(s, t)) - heat(model.generator, t - s) + integral
    return trace_norm(defect)
