"""Composite Gauss-Legendre quadrature for matrix-valued integrands.

Panels are aligned with any declared breakpoints of the integrand (times
where it is not smooth), then doubled until two successive refinements agree
in trace norm within the requested tolerance.  Below Hoelder order 1 the
panels next to a breakpoint are graded toward it algebraically (Brunner,
*Collocation Methods for Volterra Integral and Related Functional
Equations*, 2004), so refinement keeps a high order through a kink.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import AccuracyError, ValidationError, _require_number
from .linalg import trace_norm

__all__ = ["panel_edges", "integrate_matrix"]

# Nodes per call of a vectorized integrand.
CHUNK_NODES = 128
# Grading exponent toward breakpoints below Hoelder order 1: x -> x^4.  With
# n cells on a piece ending at a kink |t - t0|^beta, the cell at the kink has
# width ~ n^-4 and contributes an error ~ n^(-4 (1 + beta)), so a
# fourth-order rule keeps order 4 for every beta > 0; x -> x^2 would leave
# it at 2 (1 + beta) < 4.
GRADED_EXPONENT = 4
# The composite rule: Gauss-Legendre nodes per panel, the panel count it
# starts from, and how often that count may double before it gives up.
NODES_PER_PANEL = 16
INITIAL_PANELS = 2
MAX_DOUBLINGS = 12


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def mesh_grading(beta: float) -> int:
    """Grading exponent of the panels of a family of declared Hoelder order
    ``beta``: 1 (uniform panels) at beta = 1, ``GRADED_EXPONENT`` below."""
    return 1 if beta >= 1.0 else GRADED_EXPONENT


def _graded_piece(lo: float, hi: float, k: int, grading: int, toward_lo: bool,
                  toward_hi: bool) -> np.ndarray:
    """k + 1 edges from lo to hi, packed toward each flagged end by x -> x^q.

    A cell's offset is measured from the end it is graded toward, so the
    smallest cells keep their relative precision.  Graded toward both ends,
    each half of the piece is graded toward its own end.
    """
    if grading == 1 or not (toward_lo or toward_hi):
        return np.linspace(lo, hi, k + 1)
    u = np.linspace(0.0, 1.0, k + 1)
    width = hi - lo
    if toward_lo and toward_hi:
        width, u = 0.5 * width, 2.0 * u
        edges = np.where(u <= 1.0, lo + width * u ** grading, hi - width * (2.0 - u) ** grading)
    elif toward_lo:
        edges = lo + width * u ** grading
    else:
        edges = hi - width * (1.0 - u) ** grading
    edges[0], edges[-1] = lo, hi
    return edges


def panel_edges(a: float, b: float, n_panels: int, breakpoints: Sequence[float] = (),
                grading: int = 1) -> np.ndarray:
    """Panel edges on [a, b]: breakpoints become edges, pieces get panel
    counts proportional to their length (at least one each).

    With ``grading`` q > 1 the edges of every piece are packed by x -> x^q
    toward each of its ends that is a breakpoint, the window's ends
    included; q = 1 gives uniform edges on every piece.
    """
    a, b = _require_number("a", a), _require_number("b", b)
    if not a < b:
        raise ValidationError(f"integration interval requires a < b, got [{a}, {b}]")
    _require_number("n_panels", n_panels, lo=1, integer=True)
    _require_number("grading", grading, lo=1, integer=True)
    points = {float(x) for x in breakpoints}
    cuts = sorted(x for x in points if a < x < b)
    pieces = list(zip([a, *cuts], [*cuts, b]))
    total = b - a
    edges = [a]
    for lo, hi in pieces:
        k = max(1, round(n_panels * (hi - lo) / total))
        edges.extend(_graded_piece(lo, hi, k, grading, lo in points, hi in points)[1:])
    return np.asarray(edges)


def _edge_nodes(edges: np.ndarray, nodes_per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on the panels between ``edges``,
    shape (panels, nodes_per_panel) each."""
    x0, w0 = _leggauss(nodes_per_panel)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return mid[:, None] + half[:, None] * x0[None, :], half[:, None] * w0[None, :]


def panel_nodes(a: float, b: float, n_panels: int, nodes_per_panel: int,
                breakpoints: Sequence[float] = (),
                grading: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Flattened Gauss-Legendre nodes and weights of the composite rule."""
    nodes, weights = _edge_nodes(panel_edges(a, b, n_panels, breakpoints, grading),
                                nodes_per_panel)
    return nodes.ravel(), weights.ravel()


def integrate_matrix(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                     tol: float = 1e-10, breakpoints: Sequence[float] = (),
                     grading: int = 1) -> np.ndarray:
    """Integrate a matrix-valued function, doubling panels until two
    refinements agree in trace norm within ``tol``.  ``breakpoints`` and
    ``grading`` shape the panels as in ``panel_edges``; the rule has
    ``NODES_PER_PANEL`` nodes per panel, starts from ``INITIAL_PANELS``
    panels and doubles them at most ``MAX_DOUBLINGS`` times.

    ``f`` is vectorized: it takes a 1-D array of n nodes and returns the n
    values stacked, shape (n, d, d).  It is called on at most
    ``CHUNK_NODES`` nodes at a time, so memory does not grow with the panel
    count.
    """
    _require_number("tol", tol, lo=0.0, lo_open=True)

    def estimate(n_panels: int) -> np.ndarray:
        nodes, weights = panel_nodes(a, b, n_panels, NODES_PER_PANEL, breakpoints, grading)
        total = 0.0
        for start in range(0, nodes.size, CHUNK_NODES):
            chunk = nodes[start:start + CHUNK_NODES]
            values = np.asarray(f(chunk), dtype=float)
            if values.ndim != 3 or values.shape[0] != chunk.size:
                raise ValidationError(
                    f"integrand must return shape ({chunk.size}, d, d) for "
                    f"{chunk.size} nodes, got {values.shape}"
                )
            total = total + np.tensordot(weights[start:start + CHUNK_NODES], values, axes=1)
        return total

    return _refine_by_doubling(estimate, INITIAL_PANELS, tol, MAX_DOUBLINGS)[0]


def _refine_by_doubling(estimate: Callable[[int], np.ndarray], n: int, tol: float,
                        max_doublings: int, order: Optional[int] = None,
                        label: str = "refinement") -> tuple[np.ndarray, int, float]:
    """Double ``n`` until the error estimate of ``estimate(2n)`` is at most
    ``tol``; the last estimate, its ``n`` and that error estimate.

    The error estimate is the trace-norm difference D of two successive
    estimates.  For a method of ``order`` p it is D / (r - 1) instead, with r
    the ratio of the last two differences capped at 2^p: the Richardson
    estimate D / (2^p - 1) where convergence shows that order, and an honest
    larger one where it is slower (on the first doubling r = 2^p).

    Fails once the doublings run out, or as soon as a difference is no
    smaller than the one before it: refinement has hit a rounding floor (or
    does not converge), and further doublings would only multiply the cost.
    The second difference alone may grow, since a coarse mesh can still be
    pre-asymptotic; the estimate after that growth is the raw difference D,
    with no ratio against the grown one.  ``label`` names what is refined in
    the error message.
    """
    prev = estimate(n)
    diff = error = float("inf")
    grew = False
    for doubling in range(max_doublings):
        n *= 2
        curr = estimate(n)
        last, diff = diff, trace_norm(curr - prev)
        error = diff
        if order is not None and 0.0 < diff < last and not grew:
            error = diff / (min(last / diff, 2.0 ** order) - 1.0)
        if error <= tol:
            return curr, n, error
        grew = diff >= last
        if grew and doubling != 1:
            raise AccuracyError(f"{label} stopped converging at n={n}: the difference "
                                f"{diff:.3e} did not shrink from {last:.3e}",
                                requested=tol, achieved=error)
        prev = curr
    raise AccuracyError(f"{label} did not reach tolerance after {max_doublings} "
                        f"doublings (n={n})", requested=tol, achieved=error)
