"""Spectral linear algebra for finite self-adjoint operators.

Everything the package does with operator functions -- semigroup factors
e^{-tH}, fractional powers H^p, Schatten norms -- goes through a single
eigendecomposition path Q f(L) Q^T.  Nothing is exponentiated by series.
Matrices are real symmetric; the decomposition is cached on the operator.
"""
from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .errors import DecompositionError, DomainError, ValidationError

__all__ = [
    "HermitianOperator",
    "eigh",
    "operator_function",
    "heat",
    "fractional_power",
    "singular_values",
    "symmetrized",
    "checked_eigh",
    "eigen_entries",
    "schatten_norm",
    "trace_norm",
    "opnorm",
]

# Largest admissible relative asymmetry of an input matrix.  Inputs within the
# tolerance are symmetrized; anything beyond it is a caller bug.
SYMMETRY_TOL = 1e-12
# Acceptance threshold for the eigendecomposition self-checks (orthogonality
# of eigenvectors and reconstruction of the operator).
RECONSTRUCTION_TOL = 1e-10


def _as_square_matrix(entries, name: str = "matrix", stacked: bool = False) -> np.ndarray:
    """Float entries of one square matrix, or with ``stacked`` of a stack
    (..., d, d) of them; non-empty and finite."""
    m = np.asarray(entries, dtype=float)
    square = m.ndim >= 2 and m.shape[-1] == m.shape[-2] > 0
    if not square or (m.ndim > 2 and not stacked):
        raise ValidationError(f"{name} must be square and non-empty, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} entries must be finite")
    return m


def _first_bad(bad: np.ndarray) -> tuple[tuple, str]:
    """Index of the first flagged matrix of a stack (``()`` for one matrix),
    and where it sits, for error messages."""
    if bad.ndim == 0:
        return (), ""
    k = np.unravel_index(int(np.argmax(bad)), bad.shape)
    return k, f" (matrix {', '.join(str(int(i)) for i in k)} of the stack)"


def symmetrized(m: np.ndarray, where: Optional[Callable[[tuple], str]] = None) -> np.ndarray:
    """``0.5 (M + M^T)`` for a matrix or a stack (..., d, d) of them.

    Asymmetry beyond ``SYMMETRY_TOL * (1 + max|M|)`` in any matrix is
    rejected; ``where(k)`` names the first such matrix of a stack, at index
    k, in the message (default: its position in the stack).
    """
    mt = np.swapaxes(m, -1, -2)
    scale = 1.0 + np.max(np.abs(m), axis=(-2, -1))
    asym = np.max(np.abs(m - mt), axis=(-2, -1))
    bad = asym > SYMMETRY_TOL * scale
    if np.any(bad):
        k, place = _first_bad(bad)
        raise ValidationError(
            f"matrix is not symmetric{where(k) if where else place}: max|M - M^T| = "
            f"{float(asym[k]):.3e} exceeds {SYMMETRY_TOL:g} * scale"
        )
    return 0.5 * (m + mt)


def eigen_entries(w: np.ndarray, v: Optional[np.ndarray]) -> np.ndarray:
    """Entries of V diag(w) V^T from the last axes: w (..., d), V (..., d, d).

    ``v=None`` stands for the standard basis; the diagonal matrices are then
    filled in directly.
    """
    if v is not None:
        return (v * w[..., None, :]) @ np.swapaxes(v, -1, -2)
    d = w.shape[-1]
    out = np.zeros(w.shape[:-1] + (d * d,))
    out[..., ::d + 1] = w
    return out.reshape(w.shape + (d,))


def checked_eigh(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric
    matrix or of every matrix of a stack (..., d, d).

    Each decomposition must pass the self-check: orthogonality of the
    eigenvectors and reconstruction of the matrix within
    ``RECONSTRUCTION_TOL``; otherwise ``DecompositionError``.
    """
    dim = sym.shape[-1]
    try:
        w, q = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        cond = None
        try:
            cond = float(np.max(np.linalg.cond(sym)))
        except (np.linalg.LinAlgError, ValueError):
            pass
        raise DecompositionError(
            f"eigendecomposition did not converge: {exc}", dim=dim, cond=cond,
        ) from exc
    qt = np.swapaxes(q, -1, -2)
    scale = 1.0 + np.max(np.abs(w), axis=-1, initial=0.0)
    ortho = np.max(np.abs(qt @ q - np.eye(dim)), axis=(-2, -1))
    recon = np.max(np.abs(eigen_entries(w, q) - sym), axis=(-2, -1))
    bad = (ortho > RECONSTRUCTION_TOL) | (recon > RECONSTRUCTION_TOL * scale)
    if np.any(bad):
        k, where = _first_bad(bad)
        wk = np.abs(w[k])
        raise DecompositionError(
            f"eigendecomposition failed self-check{where}: "
            f"orthogonality defect {float(ortho[k]):.3e}, "
            f"reconstruction defect {float(recon[k]):.3e}",
            dim=dim, cond=float(np.max(wk) / max(np.min(wk), 1e-300)),
        )
    return w, q


class HermitianOperator:
    """A real symmetric matrix with a lazily cached eigendecomposition.

    The input is symmetrized on construction; asymmetry beyond
    ``SYMMETRY_TOL`` (relative to the largest entry) is rejected.
    """

    __slots__ = ("entries", "_spectrum")

    def __init__(self, entries):
        sym = symmetrized(_as_square_matrix(entries))
        sym.setflags(write=False)
        self.entries = sym
        self._spectrum = None

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and orthonormal eigenvectors (columns)."""
        if self._spectrum is None:
            w, q = checked_eigh(self.entries)
            w.setflags(write=False)
            q.setflags(write=False)
            self._spectrum = (w, q)
        return self._spectrum

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim})"


def eigh(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues in ascending order and the orthonormal eigenvector matrix.

    Accepts a ``HermitianOperator`` or any symmetric matrix.
    """
    if not isinstance(h, HermitianOperator):
        h = HermitianOperator(h)
    return h.spectrum()


def operator_function(h: HermitianOperator, f: Callable[[np.ndarray], np.ndarray]) -> HermitianOperator:
    """Apply a scalar function to a symmetric operator: Q f(L) Q^T.

    ``f`` receives the eigenvalue vector and must return finite values for
    every eigenvalue; a non-finite value raises ``DomainError`` naming the
    offending eigenvalue.
    """
    w, q = h.spectrum()
    with np.errstate(all="ignore"):
        fw = np.asarray(f(w), dtype=float)
        if fw.shape != w.shape:
            fw = np.asarray([f(x) for x in w], dtype=float)
    bad = ~np.isfinite(fw)
    if np.any(bad):
        lam = w[bad][0]
        raise DomainError(f"operator function is undefined at eigenvalue {lam!r}")
    return HermitianOperator(eigen_entries(fw, q))


def heat(h: HermitianOperator, t: float) -> np.ndarray:
    """Entries of the semigroup factor e^{-tH} for t >= 0."""
    if t < 0:
        raise ValidationError(f"heat kernel requires t >= 0, got {t}")
    w, q = h.spectrum()
    return eigen_entries(np.exp(-t * w), q)


def fractional_power(h: HermitianOperator, p: float) -> HermitianOperator:
    """H^p via the spectrum; negative or fractional powers require positive spectrum."""
    w, _ = h.spectrum()
    if (p < 0 or p != round(p)) and np.any(w <= 0):
        lam = w[w <= 0][0]
        raise DomainError(f"power {p} is undefined at non-positive eigenvalue {lam!r}")
    return operator_function(h, lambda lam: np.power(lam, p))


def singular_values(m) -> np.ndarray:
    """Singular values in descending order, of a matrix or along the last
    axis for every matrix of a stack (..., d, d)."""
    a = _as_square_matrix(m, stacked=True)
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(
            f"singular value decomposition did not converge: {exc}", dim=a.shape[-1]
        ) from exc


def schatten_norm(m, p) -> float:
    """Schatten p-norm for p in {1, 2, inf}: trace norm, Frobenius, operator norm."""
    s = singular_values(m)
    if s.ndim != 1:
        raise ValidationError(f"Schatten norms take one matrix, got shape {np.shape(m)}")
    if p == 1:
        return float(np.sum(s))
    if p == 2:
        return float(np.sqrt(np.sum(s * s)))
    if p == np.inf:
        return float(s[0])
    raise ValidationError(f"unsupported Schatten order {p!r}; expected 1, 2 or inf")


def trace_norm(m) -> float:
    return schatten_norm(m, 1)


def opnorm(m) -> float:
    return schatten_norm(m, np.inf)
