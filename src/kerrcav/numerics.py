"""Dense complex linear algebra for unitary quantum dynamics.

All propagators are built from Hermitian eigendecompositions, which keeps
them unitary to roundoff and lets one decomposition serve many evolution
times.  Dimensions in this package are small (a few hundred at most), so
dense storage is used throughout.
"""
from __future__ import annotations

import numpy as np

from .errors import ValidationError

HERMITICITY_TOL = 1e-12
ANTIHERMITICITY_TOL = 1e-12


def as_matrix(obj) -> np.ndarray:
    """Return ``obj`` as a square complex ndarray."""
    m = np.asarray(obj, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    return m


def hermiticity_defect(h) -> float:
    """Max entrywise |H - H^dag|."""
    m = as_matrix(h)
    return float(np.abs(m - m.conj().T).max())


def require_hermitian(h, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Validate H = H^dag within ``tol`` relative to the largest entry."""
    m = as_matrix(h)
    defect = hermiticity_defect(m)
    scale = float(np.abs(m).max())
    if defect > tol * max(scale, 1.0):
        raise ValidationError(
            f"matrix is not Hermitian: max entrywise defect {defect:.3e} "
            f"exceeds {tol:.0e} * max|H| = {tol * scale:.3e}"
        )
    return m


def require_antihermitian(a, tol: float = ANTIHERMITICITY_TOL) -> np.ndarray:
    """Validate A = -A^dag within ``tol`` relative to the largest entry."""
    m = as_matrix(a)
    defect = float(np.abs(m + m.conj().T).max())
    scale = float(np.abs(m).max())
    if defect > tol * max(scale, 1.0):
        raise ValidationError(
            f"matrix is not anti-Hermitian: max entrywise defect {defect:.3e} "
            f"exceeds {tol:.0e} * max|A| = {tol * scale:.3e}"
        )
    return m


class HermitianEigensystem:
    """Eigendecomposition of a Hermitian matrix, reusable for many times.

    ``propagator(t)`` returns exp(-i H t); the decomposition is computed once,
    so evolving the same generator for a grid of durations is cheap.
    """

    def __init__(self, h, tol: float = HERMITICITY_TOL):
        m = require_hermitian(h, tol)
        # symmetrize so eigh sees an exactly Hermitian input
        m = 0.5 * (m + m.conj().T)
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(m)
        self.dim = m.shape[0]

    def propagator(self, t: float) -> np.ndarray:
        v = self.eigenvectors
        return (v * np.exp(-1j * self.eigenvalues * t)) @ v.conj().T

    def phases(self, t) -> np.ndarray:
        """exp(-i w_j t) for each eigenvalue; ``t`` may be an array."""
        t = np.asarray(t, dtype=float)
        return np.exp(-1j * np.multiply.outer(t, self.eigenvalues))


def expm_hermitian(h, t: float) -> np.ndarray:
    """exp(-i H t) for Hermitian H via eigendecomposition."""
    if not np.isfinite(t):
        raise ValidationError(f"evolution time must be finite, got {t}")
    return HermitianEigensystem(h).propagator(t)


def expm_antihermitian(a) -> np.ndarray:
    """exp(A) for anti-Hermitian A, via exp(A) = exp(-i (iA) * 1)."""
    m = require_antihermitian(a)
    return expm_hermitian(1j * m, 1.0)


def unitarity_defect(u) -> float:
    """Max entrywise |U^dag U - I|."""
    m = as_matrix(u)
    return float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())


def max_abs_diff(a, b) -> float:
    """Max entrywise |a - b| for matrices or vectors."""
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())
