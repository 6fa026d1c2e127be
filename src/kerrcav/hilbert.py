"""Truncated Fock (x) collective-atom Hilbert spaces and their operators.

Two atomic representations share one interface:

* ``product``   -- every atom gets its own tensor factor (dim levels**N),
* ``symmetric`` -- only the permutation-symmetric sector is kept, enumerated
  by occupation numbers per level (dim C(N + levels - 1, levels - 1)).

Every Hamiltonian in this package is permutation symmetric, so dynamics
started in a symmetric state never leaves that sector and both
representations give identical observables.

Basis ordering is frozen as part of the output contract: photon indices vary
slowest (mode a slower than mode b), the atomic configuration fastest.  For
the product representation atomic configurations are tuples (l_1, ..., l_N)
in lexicographic order with the last atom fastest; for the symmetric
representation occupations are ordered by decreasing m_0, then decreasing
m_1.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

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
    representation: str
    atomic_basis: tuple = field(repr=False)
    # read-only operators and states built on this space, by normalized key
    _built: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

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
    if np.isscalar(photons):
        ns = (int(photons),)
    else:
        ns = tuple(int(n) for n in photons)
    if len(ns) != space.n_modes:
        raise ValidationError(
            f"expected {space.n_modes} photon number(s), got {len(ns)}"
        )
    for n in ns:
        if not 0 <= n <= space.n_max:
            raise ValidationError(f"photon number {n} outside 0..{space.n_max}")
    return ns


def _product_basis(n_atoms: int, levels: int) -> tuple:
    return tuple(itertools.product(range(levels), repeat=n_atoms))


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
    representation: str = "auto",
) -> Space:
    """Validate and construct a Space with its basis enumeration fixed.

    ``representation="auto"`` picks product for N <= 3 and symmetric above,
    where the collective enumeration pays off.
    """
    if n_max < 0:
        raise ValidationError(f"n_max must be >= 0, got {n_max}")
    if n_modes not in (1, 2):
        raise ValidationError(f"n_modes must be 1 or 2, got {n_modes}")
    if n_atoms < 1:
        raise ValidationError(f"n_atoms must be >= 1, got {n_atoms}")
    if levels not in (2, 3):
        raise ValidationError(f"levels_per_atom must be 2 or 3, got {levels}")
    if representation == "auto":
        representation = "product" if n_atoms <= 3 else "symmetric"
    if representation not in ("product", "symmetric"):
        raise ValidationError(f"unknown representation {representation!r}")

    if representation == "product":
        atomic = _product_basis(n_atoms, levels)
    else:
        atomic = _symmetric_basis(n_atoms, levels)
    dim = (n_max + 1) ** n_modes * len(atomic)
    if dim > DIMENSION_GUARD:
        raise ValidationError(
            f"space dimension {dim} exceeds the guard {DIMENSION_GUARD}; "
            "use the symmetric representation or a smaller truncation"
        )
    return Space(n_max, n_modes, n_atoms, levels, representation, atomic)


def _memo(space: Space, key: tuple, build) -> np.ndarray:
    """``build()`` on the first call for ``key`` on ``space``, made
    read-only; the same array on every later call.  ``key`` must name the
    result completely, and a build that raises stores nothing."""
    out = space._built.get(key)
    if out is None:
        out = build()
        out.flags.writeable = False
        space._built[key] = out
    return out


def _check_mode(space: Space, mode: int) -> None:
    if not 0 <= mode < space.n_modes:
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
    """Truncated lowering operator for the given photon mode (read-only,
    built once per space)."""
    _check_mode(space, mode)
    return _memo(space, ("a", mode), lambda: _photon_only(space, np.diag(
        np.sqrt(np.arange(1, space.n_max + 1)), 1).astype(complex), mode))


def number_op(space: Space, mode: int = 0) -> np.ndarray:
    """Photon number of the given mode (read-only, built once per space)."""
    _check_mode(space, mode)
    return _memo(space, ("n", mode), lambda: _photon_only(
        space, np.diag(np.arange(space.n_max + 1)).astype(complex), mode))


def _atomic_collective_plain(space: Space, bra: int, ket: int) -> np.ndarray:
    """sum_k |bra_k><ket_k| on the atomic factor, for plain levels 0/1/2."""
    d = space.atomic_dim
    out = np.zeros((d, d), dtype=complex)
    if space.representation == "product":
        index = {conf: i for i, conf in enumerate(space.atomic_basis)}
        for j, conf in enumerate(space.atomic_basis):
            for k in range(space.n_atoms):
                if conf[k] == ket:
                    new = list(conf)
                    new[k] = bra
                    out[index[tuple(new)], j] += 1.0
    else:
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
    |+-> = (|0> +- |1>)/sqrt(2); the latter require level 1 to exist.
    Identity on all photon factors.  Read-only, built once per space.
    """
    bra, ket = _as_level(bra), _as_level(ket)
    return _memo(space, ("S", bra, ket),
                 lambda: _build_collective(space, bra, ket))


def _build_collective(space: Space, bra: str, ket: str) -> np.ndarray:
    for lv in (bra, ket):
        if lv in _PM and space.levels < 2:
            raise ValidationError("'+'/'-' levels need levels 0 and 1")
        if lv == "2" and space.levels < 3:
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
    return np.kron(np.eye(space.photon_dim), at)


def s3(space: Space) -> np.ndarray:
    """S_3 = sum_k (|+_k><+_k| - |-_k><-_k|)."""
    return collective(space, "+", "+") - collective(space, "-", "-")


def _atoms_key(space: Space, atoms) -> tuple:
    """("occ", occupation) or ("labels", per-atom levels): what ``atoms``
    names, as a hashable key."""
    if isinstance(atoms, (tuple, list)) and space.representation == "symmetric" \
            and all(isinstance(x, (int, np.integer)) for x in atoms):
        return "occ", tuple(int(x) for x in atoms)
    return "labels", tuple(_as_level(c) for c in atoms)


def _atomic_state(space: Space, key: tuple, atoms) -> np.ndarray:
    """Atomic-factor state vector for ``key = _atoms_key(space, atoms)``."""
    kind, values = key
    if kind == "occ":
        occ = values
        if len(occ) != space.levels or sum(occ) != space.n_atoms or min(occ) < 0:
            raise ValidationError(f"occupation {occ} invalid for this space")
        v = np.zeros(space.atomic_dim, dtype=complex)
        v[space.atomic_basis.index(occ)] = 1.0
        return v

    labels = values
    if len(labels) != space.n_atoms:
        raise ValidationError(
            f"need {space.n_atoms} atomic labels, got {len(labels)}"
        )
    for lv in labels:
        if lv == "2" and space.levels < 3:
            raise ValidationError("level 2 requested on a two-level space")

    def single(lv):
        v = np.zeros(space.levels, dtype=complex)
        if lv in _PM:
            v[0] = 1 / math.sqrt(2)
            v[1] = 0.5**0.5 if lv == "+" else -(0.5**0.5)
        else:
            v[int(lv)] = 1.0
        return v

    if space.representation == "product":
        out = np.array([1.0], dtype=complex)
        for lv in labels:
            out = np.kron(out, single(lv))
        return out

    # symmetric representation: all atoms must carry the same label
    if len(set(labels)) != 1:
        raise ValidationError(
            "symmetric representation only holds permutation-symmetric "
            f"product states; per-atom labels {atoms!r} are not uniform"
        )
    lv = labels[0]
    v = np.zeros(space.atomic_dim, dtype=complex)
    if lv not in _PM:
        occ = [0] * space.levels
        occ[int(lv)] = space.n_atoms
        v[space.atomic_basis.index(tuple(occ))] = 1.0
        return v
    # (|0> +- |1>)^{(x) N} expanded over symmetric occupations
    sign = 1.0 if lv == "+" else -1.0
    n = space.n_atoms
    for i, occ in enumerate(space.atomic_basis):
        if space.levels == 3 and occ[2] != 0:
            continue
        m1 = occ[1]
        v[i] = sign**m1 * math.sqrt(math.comb(n, m1)) / 2 ** (n / 2)
    return v


def basis_state(space: Space, photons, atoms) -> np.ndarray:
    """Unit-norm basis (or +/- superposition) state vector.

    ``photons``: int or per-mode sequence. ``atoms``: per-atom label string
    like ``"0-+"`` (product), or in the symmetric representation either a
    uniform label string or an occupation tuple like ``(1, 1, 0)``.
    Read-only, built once per space.
    """
    ns = _photon_tuple(space, photons)
    key = _atoms_key(space, atoms)
    return _memo(space, ("psi", ns, key),
                 lambda: _build_basis_state(space, ns, key, atoms))


def _build_basis_state(space: Space, ns: tuple, key: tuple, atoms):
    at = _atomic_state(space, key, atoms)
    ph = np.zeros(space.photon_dim, dtype=complex)
    idx = 0
    for n in ns:
        idx = idx * (space.n_max + 1) + n
    ph[idx] = 1.0
    v = np.kron(ph, at)
    return v / np.linalg.norm(v)

