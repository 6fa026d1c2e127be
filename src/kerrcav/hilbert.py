"""Truncated Fock (x) collective-atom Hilbert spaces and their operators.

Every Hamiltonian in this package is permutation symmetric, so dynamics
started in a symmetric state never leaves the symmetric (Dicke) sector.
That sector is the only atomic space: it is enumerated by occupation
numbers per level, (m_0, ..., m_{levels-1}) with sum N, and has dimension
C(N + levels - 1, levels - 1).

Basis ordering is frozen as part of the output contract: photon indices vary
slowest (mode a slower than mode b), the atomic occupation fastest.
Occupations are ordered by decreasing m_0, then decreasing m_1; for one atom
this is the level order 0, 1, 2.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import ValidationError, require_integer

DIMENSION_GUARD = 10**6

# level symbols accepted by collective() / basis_state()
_PM = ("+", "-")


def _as_level(level) -> str:
    s = str(level)
    if s not in {"0", "1", "2", "+", "-"}:
        raise ValidationError(f"unknown atomic level {level!r}")
    return s


@dataclass(frozen=True)
class Space:
    """A validated Fock (x) atomic space with a frozen basis enumeration."""

    n_max: int
    n_modes: int
    n_atoms: int
    levels: int
    atomic_basis: tuple = field(repr=False)

    @property
    def photon_dim(self) -> int:
        return (self.n_max + 1) ** self.n_modes

    @property
    def atomic_dim(self) -> int:
        return len(self.atomic_basis)

    @property
    def dim(self) -> int:
        return self.photon_dim * self.atomic_dim


def _photon_tuple(space: Space, photons) -> tuple:
    ns = (photons,) if np.isscalar(photons) else tuple(photons)
    if len(ns) != space.n_modes:
        raise ValidationError(
            f"expected {space.n_modes} photon number(s), got {len(ns)}"
        )
    for n in ns:
        require_integer(n, 0, "photon number")
        if n > space.n_max:
            raise ValidationError(f"photon number {n} outside 0..{space.n_max}")
    return tuple(int(n) for n in ns)


def _symmetric_basis(n_atoms: int, levels: int) -> tuple:
    occs = []
    if levels == 2:
        for m0 in range(n_atoms, -1, -1):
            occs.append((m0, n_atoms - m0))
    else:
        for m0 in range(n_atoms, -1, -1):
            for m1 in range(n_atoms - m0, -1, -1):
                occs.append((m0, m1, n_atoms - m0 - m1))
    return tuple(occs)


def build_space(
    n_max: int,
    n_atoms: int,
    levels: int = 2,
    n_modes: int = 1,
) -> Space:
    """Validate and construct a Space with its basis enumeration fixed.

    The dimension guard is checked before the basis is enumerated.
    """
    require_integer(n_max, 0, "n_max")
    require_integer(n_modes, 1, "n_modes")
    require_integer(n_atoms, 1, "n_atoms")
    require_integer(levels, 2, "levels_per_atom")
    n_max, n_modes, n_atoms, levels = map(int, (n_max, n_modes, n_atoms,
                                                levels))
    if n_modes > 2:
        raise ValidationError(f"n_modes must be 1 or 2, got {n_modes}")
    if levels > 3:
        raise ValidationError(f"levels_per_atom must be 2 or 3, got {levels}")

    dim = (n_max + 1) ** n_modes * math.comb(n_atoms + levels - 1, levels - 1)
    if dim > DIMENSION_GUARD:
        raise ValidationError(
            f"space dimension {dim} exceeds the guard {DIMENSION_GUARD}; "
            "use a smaller truncation or fewer atoms"
        )
    return Space(n_max, n_modes, n_atoms, levels,
                 _symmetric_basis(n_atoms, levels))


def _check_mode(space: Space, mode: int) -> None:
    require_integer(mode, 0, "mode index")
    if mode >= space.n_modes:
        raise ValidationError(f"mode index {mode} invalid for {space.n_modes} mode(s)")


def _photon_only(space: Space, mat_1mode: np.ndarray, mode: int) -> np.ndarray:
    """Lift a single-mode photon matrix to the full space."""
    ops = []
    for m in range(space.n_modes):
        ops.append(mat_1mode if m == mode else np.eye(space.n_max + 1))
    out = ops[0]
    for o in ops[1:]:
        out = np.kron(out, o)
    return np.kron(out, np.eye(space.atomic_dim))


def annihilation(space: Space, mode: int = 0) -> np.ndarray:
    """Truncated lowering operator for the given photon mode."""
    _check_mode(space, mode)
    return _photon_only(space, np.diag(
        np.sqrt(np.arange(1, space.n_max + 1)), 1).astype(complex), mode)


def number_op(space: Space, mode: int = 0) -> np.ndarray:
    """Photon number of the given mode."""
    _check_mode(space, mode)
    return _photon_only(
        space, np.diag(np.arange(space.n_max + 1)).astype(complex), mode)


def _atomic_collective_plain(space: Space, bra: int, ket: int) -> np.ndarray:
    """sum_k |bra_k><ket_k| on the atomic factor, for plain levels 0/1/2."""
    d = space.atomic_dim
    out = np.zeros((d, d), dtype=complex)
    index = {occ: i for i, occ in enumerate(space.atomic_basis)}
    for j, occ in enumerate(space.atomic_basis):
        if bra == ket:
            out[j, j] += occ[ket]
            continue
        if occ[ket] == 0:
            continue
        new = list(occ)
        new[ket] -= 1
        new[bra] += 1
        i = index[tuple(new)]
        out[i, j] += math.sqrt(occ[ket] * (occ[bra] + 1))
    return out


def collective(space: Space, bra, ket) -> np.ndarray:
    """Collective transition operator S_{bra,ket} = sum_k |bra_k><ket_k|.

    Levels may be 0, 1, 2 or the metastable superpositions '+', '-' with
    |+-> = (|0> +- |1>)/sqrt(2).  Identity on all photon factors.
    """
    bra, ket = _as_level(bra), _as_level(ket)
    if "2" in (bra, ket) and space.levels < 3:
        raise ValidationError("level 2 requested on a two-level space")

    # expand +/- into 0/1 combinations: |+-> = (|0> +- |1>)/sqrt(2)
    def expand(lv):
        if lv == "+":
            return [(0, 1 / math.sqrt(2)), (1, 1 / math.sqrt(2))]
        if lv == "-":
            return [(0, 1 / math.sqrt(2)), (1, -1 / math.sqrt(2))]
        return [(int(lv), 1.0)]

    d = space.atomic_dim
    at = np.zeros((d, d), dtype=complex)
    for b, cb in expand(bra):
        for k, ck in expand(ket):
            at += cb * np.conj(ck) * _atomic_collective_plain(space, b, k)
    return numerics.block_diagonal(np.broadcast_to(at, (space.photon_dim, d, d)))


def s3(space: Space) -> np.ndarray:
    """S_3 = sum_k (|+_k><+_k| - |-_k><-_k|)."""
    return collective(space, "+", "+") - collective(space, "-", "-")


def _atomic_state(space: Space, atoms) -> np.ndarray:
    """Atomic-factor state vector for ``atoms``: per-atom level labels, or
    an occupation when it is a sequence of integers."""
    v = np.zeros(space.atomic_dim, dtype=complex)
    if isinstance(atoms, (tuple, list)) and all(
            isinstance(m, numbers.Integral) for m in atoms):
        for m in atoms:
            require_integer(m, 0, "an occupation number")
        values = [int(m) for m in atoms]
    else:
        values = [_as_level(c) for c in atoms]
        if len(values) != space.n_atoms:
            raise ValidationError(
                f"need {space.n_atoms} atomic labels, got {len(values)}")
        if len(set(values)) != 1:
            raise ValidationError(
                "the atomic space only holds permutation-symmetric states; "
                f"per-atom labels {atoms!r} are not uniform")
        lv = values[0]
        if lv == "2" and space.levels < 3:
            raise ValidationError("level 2 requested on a two-level space")
        if lv in _PM:
            # (c0|0> + c1|1>)^{(x) N} over occupations:
            # sqrt(C(N, m1)) c0^m0 c1^m1.  With c0, c1 spelled as below the
            # one-atom state is (c0, c1) bit for bit; the equal closed form
            # sign^m1 sqrt(C(N, m1)) / 2^(N/2) rounds differently and moves
            # one-atom outputs in their last bits.  Past N = 1000 it is taken
            # in log space (C(N, N/2) overflows a float from N ~ 1030).
            N, sign = space.n_atoms, (1 if lv == "+" else -1)
            c0, c1 = 1 / math.sqrt(2), sign * 0.5**0.5
            for i, (m0, m1, *_) in enumerate(space.atomic_basis):
                if m0 + m1 == N:
                    v[i] = (math.sqrt(math.comb(N, m1)) * c0**m0 * c1**m1
                            if N <= 1000 else sign**m1 * math.exp(0.5 * (
                                math.lgamma(N + 1) - math.lgamma(m0 + 1)
                                - math.lgamma(m1 + 1) - N * math.log(2))))
            return v
        values = [0] * space.levels
        values[int(lv)] = space.n_atoms

    occ = tuple(values)
    if len(occ) != space.levels or sum(occ) != space.n_atoms:
        raise ValidationError(f"occupation {occ} invalid for this space")
    v[space.atomic_basis.index(occ)] = 1.0
    return v


def basis_state(space: Space, photons, atoms) -> np.ndarray:
    """Unit-norm basis (or +/- superposition) state vector.

    ``photons``: int or per-mode sequence.  ``atoms``: a uniform level
    string such as ``"--"`` (every atom in that level or superposition),
    or an occupation per level such as ``(1, 1, 0)``; a sequence of
    integers always means an occupation.
    """
    ns = _photon_tuple(space, photons)
    at = _atomic_state(space, atoms)
    ph = np.zeros(space.photon_dim, dtype=complex)
    idx = 0
    for n in ns:
        idx = idx * (space.n_max + 1) + n
    ph[idx] = 1.0
    v = np.outer(ph, at).ravel()
    return v / np.linalg.norm(v)
