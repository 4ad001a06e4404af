"""Perturbation-series construction of the propagator.

With G(r) = e^{-rA}, the solution operator of du/dt = -(A + B(t)) u obeys
U(t, s) = sum_k S_k(t, s) with

    S_0(t, s) = G(t - s),
    S_k(t, s) = - int_s^t G(t - r) B(r) S_{k-1}(r, s) dr,

and, when the contraction coefficient xi of the interval is < 1, the terms
satisfy ||S_k||_1 <= xi^k, so truncating after N terms leaves a tail of at
most xi^{N+1} / (1 - xi).

The nested integrals are evaluated by collocation on a fixed composite
Gauss-Legendre grid (graded toward breakpoints below Hoelder order 1, as in
``quadrature.panel_edges``), working in the eigenbasis of A so that every
application of G is a diagonal scaling.  Cumulative panel integrals are
propagated with the semigroup identity G(x + d - r) = G(d) G(x - r).  B is
sampled only at the panel nodes: a partial-panel integral reads the product
B S_{k-1} at those nodes through one weight array per grid (Lagrange rows of
the panel nodes).  Panel counts double until two refinements of the
requested quantity agree in trace norm within the quadrature tolerance.

Intervals with xi >= 1/2 are bisected and the halves composed through the
propagator composition law; truncation tails add across the composition.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .constants import _coefficient, _relative_bound
from .errors import ConfigError, ValidationError
from .models import Model, perturbation_entries
from .propagator import PropagatorResult, _batch_length, _check_window
from .quadrature import (QuadratureSpec, _edge_nodes, _leggauss, _refine_by_doubling,
                         mesh_grading, panel_edges)

__all__ = ["dyson_phillips_term", "dyson_phillips_sum"]

# Bisect whenever the interval's contraction coefficient reaches this value.
BISECTION_THRESHOLD = 0.5
# Hard caps on series depth and recursive bisection.
MAX_DEPTH = 40
MAX_BISECTIONS = 32


class _CollocationGrid:
    """Fixed quadrature grid on [s, t] with everything precomputed.

    Shapes: M panels, P nodes per panel, dimension d.  All level arrays are
    expressed in the eigenbasis of A.
    """

    def __init__(self, model: Model, s: float, t: float, n_panels: int,
                 nodes_per_panel: int):
        lam, q = model.generator.operator.spectrum()
        self.lam, self.q = lam, q
        self.s, self.t = s, t
        d = lam.size

        family = model.perturbation
        edges = panel_edges(s, t, n_panels, family.breakpoints, mesh_grading(family.beta))
        m_panels, p = edges.size - 1, nodes_per_panel
        nodes, weights = _edge_nodes(edges, p)
        self.nodes, self.weights, self.edges = nodes, weights, edges

        self.b_nodes = _b_hat(model, q, nodes)                       # (M, P, d, d)

        # Semigroup scalings: across whole panels, node -> right edge,
        # left edge -> node.
        self.exp_panel = np.exp(-(edges[1:] - edges[:-1])[:, None] * lam)      # (M, d)
        self.exp_right = np.exp(-(edges[1:, None] - nodes)[..., None] * lam)   # (M, P, d)
        self.exp_tocell = np.exp(-(nodes - edges[:-1, None])[..., None] * lam)  # (M, P, d)

        # Partial-panel integrals int_{edge}^{x_i} e^{-(x_i - r) lambda} F(r) dr
        # with F = B S_{k-1}: Gauss-Legendre nodes r_ij on [edge, x_i], where F
        # is its Lagrange polynomial through the panel nodes.  On the reference
        # panel [-1, 1], r_ij sits at zeta_ij = -1 + (1+xi_i)(1+xi_j)/2,
        # x_i - r_ij = h (1+xi_i)(1-xi_j)/2 and the weight is h (1+xi_i)/2 w_j
        # for half-width h, so only the heat factor depends on the panel.
        # partial[m, a, i, k] sums over j.
        xi0, w0 = _leggauss(p)
        half = 0.5 * (edges[1:] - edges[:-1])
        rise = 0.5 * (1.0 + xi0)[:, None]                            # (P, 1)
        gap = rise * (1.0 - xi0)                                     # (P, P)
        heat = np.exp(-(half[:, None, None] * gap)[..., None] * lam)  # (M, P, P, d)
        heat *= (half[:, None, None] * (rise * w0))[..., None]
        partial = np.swapaxes(_reference_rows(p), 1, 2) @ heat       # (M, P, P, d)
        self.partial = np.ascontiguousarray(np.moveaxis(partial, 3, 1))  # (M, d, P, P)

        # S_0 in the eigenbasis: diagonal heat factors from s.
        eye = np.eye(d)
        self.t0_nodes = np.exp(-(nodes - s)[..., None] * lam)[..., None] * eye  # (M,P,d,d)
        self.t0_end = np.diag(np.exp(-(t - s) * lam))

    def level(self, prev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One series level: values at all nodes and at the right endpoint."""
        m_panels, p, d, _ = prev.shape
        f = self.b_nodes @ prev                                      # (M, P, d, d)
        k = np.einsum("mp,mpab->mab", self.weights, self.exp_right[..., None] * f)
        cum = np.empty((m_panels + 1, d, d))
        cum[0] = 0.0
        for m in range(m_panels):
            cum[m + 1] = self.exp_panel[m][:, None] * cum[m] + k[m]

        j = np.swapaxes(self.partial @ np.swapaxes(f, 1, 2), 1, 2)    # (M, P, d, d)
        new = -(self.exp_tocell[..., None] * cum[:-1, None] + j)
        return new, -cum[m_panels]

    def terms_at_endpoint(self, depth: int) -> list[np.ndarray]:
        """S_0(t, s) .. S_depth(t, s) in the original basis."""
        out = [self.q @ self.t0_end @ self.q.T]
        values = self.t0_nodes
        for _ in range(depth):
            values, end = self.level(values)
            out.append(self.q @ end @ self.q.T)
        return out


def _b_hat(model: Model, q: np.ndarray, times: np.ndarray) -> np.ndarray:
    """q^T B(x) q for every time x in ``times``, shape times.shape + (d, d).

    B is evaluated a chunk of at most ``BATCH_BYTES`` at a time.
    """
    d = q.shape[0]
    flat = times.ravel()
    out = np.empty((flat.size, d, d))
    chunk = _batch_length(d)
    for start in range(0, flat.size, chunk):
        b = perturbation_entries(model, flat[start:start + chunk])
        out[start:start + chunk] = q.T @ b @ q
    return out.reshape(times.shape + (d, d))


@lru_cache(maxsize=32)
def _reference_rows(p: int) -> np.ndarray:
    """Barycentric Lagrange rows on the reference panel, shape (P, P, P):
    out[i, j, k] = ell_k(zeta_ij) on the P Gauss-Legendre nodes xi, where
    zeta_ij = -1 + (1 + xi_i)(1 + xi_j)/2 is the j-th Gauss node of [-1, xi_i]."""
    base, _ = _leggauss(p)
    zeta = -1.0 + 0.5 * (1.0 + base)[:, None] * (1.0 + base)
    bw = np.empty(p)
    for k in range(p):
        bw[k] = 1.0 / np.prod(base[k] - np.delete(base, k))
    diff = zeta[..., None] - base                                   # (P, P, P)
    exact = np.isclose(diff, 0.0, atol=1e-15)
    rows = bw / np.where(exact, 1.0, diff)
    rows /= rows.sum(axis=-1, keepdims=True)
    hit = exact.any(axis=-1)
    if np.any(hit):
        rows[hit] = np.where(exact[hit], 1.0, 0.0)
    rows.setflags(write=False)
    return rows


def _refined(model: Model, s: float, t: float, depth: int, quad: QuadratureSpec,
             pick) -> tuple[np.ndarray, int, float]:
    """``pick`` of the endpoint terms S_0 .. S_depth, refined by panel doubling."""
    return _refine_by_doubling(
        lambda n_panels: pick(_CollocationGrid(model, s, t, n_panels, quad.nodes_per_panel)
                              .terms_at_endpoint(depth)),
        quad.initial_panels, quad.tol, quad.max_doublings)


def dyson_phillips_term(model: Model, s: float, t: float, k: int,
                        quad: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """The k-th series term S_k(t, s)."""
    _check_window(model, s, t)
    if isinstance(k, bool) or not (isinstance(k, (int, np.integer)) and 0 <= k <= MAX_DEPTH):
        raise ValidationError(f"series order must be an integer in [0, {MAX_DEPTH}], got {k!r}")
    if k == 0:
        return model.generator.heat(t - s)
    return _refined(model, s, t, int(k), quad, lambda terms: terms[-1])[0]


def _truncation_depth(xi: float, eps_tail: float) -> int | None:
    """Smallest N with xi^{N+1}/(1-xi) <= eps_tail, None if beyond the cap."""
    if xi <= 0.0:
        return 0
    target = eps_tail * (1.0 - xi)
    if xi ** (MAX_DEPTH + 1) > target:
        return None
    n = 0
    while xi ** (n + 1) > target:
        n += 1
    return n


def dyson_phillips_sum(model: Model, s: float, t: float, eps_tail: float,
                       quad: QuadratureSpec | None = None, grid: int = 101,
                       _depth: int = 0, _c_alpha: float | None = None) -> PropagatorResult:
    """Truncated series propagator with estimated truncation tail <= eps_tail.

    Intervals whose contraction coefficient xi reaches 1/2 (or whose depth
    budget is exhausted) are bisected and the halves composed; tail bounds
    add across the composition.  The relative bound c_alpha of xi is sampled
    on the horizon once and shared by the halves; as a grid maximum it is a
    lower bound of the sup, so the tail is an estimate.  Quadrature error is
    controlled separately by ``quad`` (default tolerance: eps_tail / 10,
    floored at 1e-13).
    """
    if not (np.isfinite(eps_tail) and eps_tail > 0):
        raise ValidationError(f"eps_tail must be positive, got {eps_tail}")
    _check_window(model, s, t)
    if quad is None:
        quad = QuadratureSpec(tol=max(min(eps_tail / 10.0, 1e-8), 1e-13))
    if _c_alpha is None:
        _c_alpha = _relative_bound(model, grid)
    xi = _coefficient(model, _c_alpha, s, t)
    depth = _truncation_depth(xi, eps_tail) if xi < BISECTION_THRESHOLD else None
    if depth is None:
        if _depth >= MAX_BISECTIONS:
            raise ConfigError(
                f"series bisection depth exceeded {MAX_BISECTIONS} on "
                f"[{s!r}, {t!r}] (xi={xi:.4g}); the interval cannot be resolved"
            )
        mid = 0.5 * (s + t)
        left = dyson_phillips_sum(model, s, mid, 0.5 * eps_tail, quad, grid, _depth + 1,
                                  _c_alpha)
        right = dyson_phillips_sum(model, mid, t, 0.5 * eps_tail, quad, grid, _depth + 1,
                                   _c_alpha)
        tail = (left.tail_bound or 0.0) + (right.tail_bound or 0.0)
        return PropagatorResult(
            right.U @ left.U, float(s), float(t),
            method=f"dyson(bisected at {mid:g}; xi={xi:.4g})",
            tail_bound=tail,
        )
    if depth == 0:
        # The partial sum is S_0 = e^{-(t-s)A} alone; no quadrature needed.
        tail = xi / (1.0 - xi) if xi > 0 else 0.0
        return PropagatorResult(
            model.generator.heat(t - s), float(s), float(t),
            method=f"dyson(depth=0, xi={xi:.4g})", tail_bound=float(tail),
        )
    u, n_panels, _ = _refined(model, s, t, depth, quad, sum)
    tail = xi ** (depth + 1) / (1.0 - xi) if xi > 0 else 0.0
    return PropagatorResult(
        u, float(s), float(t),
        method=f"dyson(depth={depth}, xi={xi:.4g}, panels={n_panels})",
        tail_bound=float(tail),
    )
