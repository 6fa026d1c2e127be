"""Reference implementations that only the tests use: criterion 7's
midpoint integrator, the pulse sandwich at any first phase, the ideal pi/2
pulse, readers of an overlap series and of a basis position, and the
Kronecker-product space of distinguishable atoms that the symmetric
(occupation-number) space is checked against."""
from __future__ import annotations

import itertools
import math
from functools import reduce

import numpy as np

from kerrcav import numerics
from kerrcav.errors import GuardError, ValidationError
from kerrcav.evolve import SegmentPropagators
from kerrcav.hilbert import Space, _photon_tuple, basis_state, collective
from kerrcav.models import (SchemeParams, _raman_pair, effective_hamiltonian,
                            full_hamiltonian)
from kerrcav.pulses import (VProtocol, _ideal_rotation, _sandwich,
                            check_pulse_guard, default_forward_phase)

STEP_GUARD = 0.05  # max physical rate * dt must stay below this


def required_steps(t0: float, t1: float, rate_scale: float) -> int:
    """Smallest step count satisfying rate_scale * dt <= STEP_GUARD."""
    if rate_scale <= 0:
        return 1
    return max(1, math.ceil(abs(t1 - t0) * rate_scale / STEP_GUARD))


def propagate_timedep(
    h_of_t,
    t0: float,
    t1: float,
    steps: int,
    rate_scale: float | None = None,
) -> np.ndarray:
    """Second-order midpoint-exponential product integrator.

    U = prod_k exp(-i H(t_k + dt/2) dt) with each factor exponentiated
    exactly; halving dt shrinks the error by ~4x.  When ``rate_scale`` (the
    fastest rate in H) is given, the step guard rate*dt <= 0.05 is enforced.
    """
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    if rate_scale is not None:
        needed = required_steps(t0, t1, rate_scale)
        if steps < needed:
            raise GuardError(
                f"step guard violated: {steps} steps give rate*dt = "
                f"{abs(t1 - t0) * rate_scale / steps:.3g} > {STEP_GUARD}; "
                f"need at least {needed} steps"
            )
    dt = (t1 - t0) / steps
    u = None
    for k in range(steps):
        tk = t0 + (k + 0.5) * dt
        uk = numerics.expm_hermitian(h_of_t(tk), dt)
        u = uk if u is None else uk @ u
    return u


def full_hamiltonian_func(space, p, raman=False, *, pulse_phase=None):
    """(callable t -> ndarray, fastest rate) for the time-stepped integrator."""
    rates = [abs(p.delta1), 0.0 if pulse_phase is None else abs(p.omega),
             np.sqrt(space.n_max) * abs(p.g)]
    if raman:
        rates += [abs(rate) for rate in _raman_pair(p)]

    def h_of_t(t):
        return full_hamiltonian(space, p, t, raman, pulse_phase=pulse_phase)

    return h_of_t, max(rates)


def max_abs_diff(a, b) -> float:
    """Max entrywise |a - b| for matrices or vectors."""
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def ideal_pulse(space: Space, phase: float) -> np.ndarray:
    """One ideal pi/2 pulse: the bare collective rotation exp(-i (pi/4) X_phi)
    with X_phi = e^{i phi} S01 + h.c., photon factors untouched."""
    s01 = collective(space, 0, 1)
    x_phi = np.exp(1j * phase) * s01 + np.exp(-1j * phase) * s01.conj().T
    return numerics.expm_hermitian(x_phi, math.pi / 4)


def u_physical(
    space: Space,
    p: SchemeParams,
    *,
    first_phase: float | None = None,
) -> np.ndarray:
    """Composed realization [pulse][cavity-only, 1/theta][conjugate pulse].

    The first pulse phase defaults to ``default_forward_phase``; shifting it
    by pi flips the sign of the effective generator, which up to the shared
    photon-diagonal phase realizes the inverse rotation.
    """
    check_pulse_guard(space, p)
    if first_phase is None:
        first_phase = default_forward_phase(p)
    return numerics.block_diagonal(
        _sandwich(SegmentPropagators(space, p), first_phase)[0])


def dense_ideal_rotation(space: Space, p: SchemeParams) -> np.ndarray:
    """The ideal rotation as one dense matrix, assembled from its blocks."""
    return numerics.block_diagonal(_ideal_rotation(space, p))


def amplitude_series(protocol: VProtocol, times, n_photons: int) -> np.ndarray:
    """<n, -...-| V(t) |n, -...-> over the time grid."""
    psi0 = basis_state(protocol.space, n_photons, "-" * protocol.space.n_atoms)
    return protocol.states(times, psi0) @ psi0.conj()


def index(space: Space, photons, atomic_index: int) -> int:
    """Basis position of photon number(s) ``photons`` and atomic state
    ``atomic_index`` (the photon index varies slowest)."""
    ns = _photon_tuple(space, photons)
    ph = 0
    for n in ns:
        ph = ph * (space.n_max + 1) + n
    return ph * space.atomic_dim + atomic_index


# -- N distinguishable atoms as explicit Kronecker products -----------------
# The product space (dim levels**N, first atom slowest) is built here from
# one-atom vectors with numpy alone; the package keeps only its symmetric
# sector, and W below maps that sector's occupation basis into it.

def atom_vector(levels: int, level) -> np.ndarray:
    """One atom in level 0/1/2, or in (|0> +- |1>)/sqrt(2) for '+'/'-'."""
    v = np.zeros(levels, dtype=complex)
    if level in ("+", "-"):
        v[0], v[1] = 1, (1 if level == "+" else -1)
        return v / np.sqrt(2)
    v[int(level)] = 1
    return v


def product_collective(n_atoms: int, levels: int, bra, ket) -> np.ndarray:
    """sum_k 1 (x) ... (x) |bra><ket|_k (x) ... (x) 1: S_{bra,ket} on N
    distinguishable atoms."""
    flip = np.outer(atom_vector(levels, bra), atom_vector(levels, ket).conj())
    one = np.eye(levels)
    return sum(reduce(np.kron, [flip if j == k else one
                                for j in range(n_atoms)])
               for k in range(n_atoms))


def product_state(levels: int, labels) -> np.ndarray:
    """|l_1> (x) ... (x) |l_N> for per-atom labels such as "+-" or "0-"."""
    return reduce(np.kron, [atom_vector(levels, lv) for lv in labels])


def occupation_isometry(space: Space) -> np.ndarray:
    """W, (levels**N, atomic_dim): column j is the normalized sum of the
    product configurations whose level counts are ``atomic_basis[j]``."""
    column = {occ: j for j, occ in enumerate(space.atomic_basis)}
    configs = list(itertools.product(range(space.levels),
                                     repeat=space.n_atoms))
    w = np.zeros((len(configs), space.atomic_dim))
    for i, conf in enumerate(configs):
        w[i, column[tuple(conf.count(lv) for lv in range(space.levels))]] = 1
    return w / np.linalg.norm(w, axis=0)


def h1int_representation_gap(space: Space, p: SchemeParams, times) -> float:
    """Max |difference| over ``times`` of <1,-..-| exp(-i h1int t) |1,-..->
    between the package's ``h1int`` on ``space`` (one mode, two levels) and
    (g^2/2D1) n (S+- + S-+) + (theta/2) S3 built on the product space."""
    n, one = np.diag(np.arange(space.n_max + 1.0)), np.eye(space.n_max + 1)
    spm = product_collective(space.n_atoms, 2, "+", "-")
    s3 = (product_collective(space.n_atoms, 2, "+", "+")
          - product_collective(space.n_atoms, 2, "-", "-"))
    minus = "-" * space.n_atoms
    series = []
    for h, psi in (
            (effective_hamiltonian(space, p, "h1int"),
             basis_state(space, 1, minus)),
            (p.stark * np.kron(n, spm + spm.conj().T)
             + (p.theta / 2) * np.kron(one, s3),
             np.kron(one[1], product_state(2, minus)))):
        eig = numerics.HermitianEigensystem(h)
        series.append(np.array(
            [psi.conj() @ (eig.propagator(t) @ psi) for t in times]))
    return float(np.abs(series[0] - series[1]).max())
