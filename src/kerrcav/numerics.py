"""Dense complex linear algebra for unitary quantum dynamics.

All propagators are built from Hermitian eigendecompositions, which keeps
them unitary to roundoff and lets one decomposition serve many evolution
times; exp(A) of an anti-Hermitian A is ``expm_hermitian(1j * A, 1.0)``,
whose Hermiticity check on iA is the anti-Hermitian check on A.  Storage
is dense.  Every routine here takes either one square matrix or a stack
(S, d, d) of them, the diagonal blocks of a block-diagonal operator (one
per photon-number sector); a stack is decomposed by one batched ``eigh``,
so the cost is S d^3 instead of (S d)^3, and its defects are the maxima
over its blocks.  ``block_diagonal`` assembles the dense matrix of a
stack.
"""
from __future__ import annotations

import numpy as np

from .errors import ValidationError

HERMITICITY_TOL = 1e-12


def as_matrix(obj) -> np.ndarray:
    """Return ``obj`` as a complex square matrix or stack (S, d, d) of them."""
    m = np.asarray(obj, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValidationError(
            f"expected a square matrix or a stack of them, got shape {m.shape}")
    return m


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def block_diagonal(blocks) -> np.ndarray:
    """Dense matrix with the (S, d, d) stack on its diagonal."""
    b = np.asarray(blocks)
    s, d, _ = b.shape
    out = np.zeros((s, d, s, d), dtype=b.dtype)
    out[np.arange(s), :, np.arange(s), :] = b
    return out.reshape(s * d, s * d)


def hermiticity_defect(h) -> float:
    """Max entrywise |H - H^dag|."""
    m = as_matrix(h)
    return float(np.abs(m - dagger(m)).max())


def require_hermitian(h) -> np.ndarray:
    """Validate H = H^dag within HERMITICITY_TOL of the largest entry."""
    m = as_matrix(h)
    defect, scale = hermiticity_defect(m), float(np.abs(m).max())
    if defect > HERMITICITY_TOL * max(scale, 1.0):
        raise ValidationError(
            f"matrix is not Hermitian: max entrywise defect {defect:.3e} exceeds "
            f"{HERMITICITY_TOL:.0e} * max|H| = {HERMITICITY_TOL * scale:.3e}")
    return m


class HermitianEigensystem:
    """Eigendecomposition of a Hermitian matrix or stack, reusable for many times.

    ``propagator(t)`` returns exp(-i H t), a stack for a stack; the
    decomposition is computed once, so evolving the same generator for a
    grid of durations is cheap.  ``dim`` is the size of one block.
    """

    def __init__(self, h):
        m = require_hermitian(h)
        # symmetrize so eigh sees an exactly Hermitian input
        m = 0.5 * (m + dagger(m))
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(m)
        self.dim = m.shape[-1]

    def propagator(self, t: float) -> np.ndarray:
        v = self.eigenvectors
        return (v * np.exp(-1j * self.eigenvalues * t)[..., None, :]) @ dagger(v)


def expm_hermitian(h, t: float) -> np.ndarray:
    """exp(-i H t) for Hermitian H via eigendecomposition."""
    if not np.isfinite(t):
        raise ValidationError(f"evolution time must be finite, got {t}")
    return HermitianEigensystem(h).propagator(t)


def unitarity_defect(u) -> float:
    """Max entrywise |U^dag U - I|, over every block of a stack."""
    m = as_matrix(u)
    return float(np.abs(dagger(m) @ m - np.eye(m.shape[-1])).max())

