"""Composite Gauss-Legendre quadrature for matrix-valued integrands.

Panels are aligned with any declared breakpoints of the integrand (times
where it is not smooth), then doubled until two successive refinements agree
in trace norm within the requested tolerance.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import AccuracyError, ValidationError
from .linalg import trace_norm

__all__ = ["QuadratureSpec", "panel_nodes", "integrate_matrix"]

# Nodes per call of a vectorized integrand.
CHUNK_NODES = 128


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy contract for the adaptive composite rule."""

    tol: float = 1e-10
    nodes_per_panel: int = 16
    initial_panels: int = 2
    max_doublings: int = 12

    def __post_init__(self):
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValidationError(f"tol must be positive, got {self.tol}")
        if self.nodes_per_panel < 2:
            raise ValidationError(f"nodes_per_panel must be >= 2, got {self.nodes_per_panel}")
        if self.initial_panels < 1:
            raise ValidationError(f"initial_panels must be >= 1, got {self.initial_panels}")
        if self.max_doublings < 0:
            raise ValidationError(f"max_doublings must be >= 0, got {self.max_doublings}")


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def panel_edges(a: float, b: float, n_panels: int,
                breakpoints: Sequence[float] = ()) -> np.ndarray:
    """Panel edges on [a, b]: breakpoints become edges, pieces get panel
    counts proportional to their length (at least one each)."""
    if not a < b:
        raise ValidationError(f"integration interval requires a < b, got [{a}, {b}]")
    cuts = sorted({float(x) for x in breakpoints if a < x < b})
    pieces = list(zip([a, *cuts], [*cuts, b]))
    total = b - a
    edges = [a]
    for lo, hi in pieces:
        k = max(1, round(n_panels * (hi - lo) / total))
        edges.extend(np.linspace(lo, hi, k + 1)[1:])
    return np.asarray(edges)


def panel_nodes(a: float, b: float, n_panels: int, nodes_per_panel: int,
                breakpoints: Sequence[float] = ()) -> tuple[np.ndarray, np.ndarray]:
    """Flattened Gauss-Legendre nodes and weights of the composite rule."""
    edges = panel_edges(a, b, n_panels, breakpoints)
    x0, w0 = _leggauss(nodes_per_panel)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    weights = (half[:, None] * w0[None, :]).ravel()
    return nodes, weights


def integrate_matrix(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                     spec: QuadratureSpec = QuadratureSpec(),
                     breakpoints: Sequence[float] = ()) -> np.ndarray:
    """Integrate a matrix-valued function, doubling panels until two
    refinements agree in trace norm within ``spec.tol``.

    ``f`` is vectorized: it takes a 1-D array of n nodes and returns the n
    values stacked, shape (n, d, d).  It is called on at most
    ``CHUNK_NODES`` nodes at a time, so memory does not grow with the panel
    count.
    """

    def estimate(n_panels: int) -> np.ndarray:
        nodes, weights = panel_nodes(a, b, n_panels, spec.nodes_per_panel, breakpoints)
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

    return _refine_by_doubling(estimate, spec.initial_panels, spec.tol,
                               spec.max_doublings)[0]


def _refine_by_doubling(estimate: Callable[[int], np.ndarray], n: int, tol: float,
                        max_doublings: int) -> tuple[np.ndarray, int, float]:
    """Double ``n`` until two successive ``estimate(n)`` agree in trace norm
    within ``tol``; the last estimate, its ``n`` and their difference."""
    prev = estimate(n)
    diff = float("inf")
    for _ in range(max_doublings):
        n *= 2
        curr = estimate(n)
        diff = trace_norm(curr - prev)
        if diff <= tol:
            return curr, n, diff
        prev = curr
    raise AccuracyError(f"refinement did not reach tolerance after {max_doublings} "
                        f"doublings (n={n})", requested=tol, achieved=diff)
