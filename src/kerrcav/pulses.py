"""The pulse protocol: fast pi/2 pulses, the photon-conditioned atomic
rotation they realize, and the composed V(t) sequence.

The rotation U = exp(-(mu/2) n (S+- - S-+)) is produced physically by the
sandwich [pulse(phi)] [cavity-only evolution, duration 1/theta]
[pulse(phi+pi)]: conjugating the dispersive shift n S00 by a pi/2 rotation
turns it into a projector onto an equatorial superposition, whose
traceless part is the wanted flip generator and whose identity part is a
photon-diagonal by-product phase exp(-i beta n) with beta = mu N / 2.  The
pulse phase selects the rotation orientation.

The phase is a diagonal conjugation, U_phys(phi) = R U_phys(0) R^dag with
R = exp(i phi (S00 + S22)).  The fidelity to the ideal rotation, modulo the
photon-diagonal phase, is symmetric about and maximal at the closed-form
forward phase: pi for positive theta, 0 for negative theta.  The phase pi is
also the one whose ideal pulse reproduces the canonical map
|0> -> (|0> + i|1>)/sqrt(2).  The calibration therefore composes one
realization at that phase and checks its fidelity.

V(t) = [sandwich] e^{-i H t} [sandwich] changes only through the Kerr time,
so it is one closed form over the whole time grid (see VProtocol).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models, numerics
from .errors import CalibrationError, GuardError, ValidationError
from .evolve import SegmentPropagators, sector_blocks
from .hilbert import Space, basis_state, collective
from .models import SchemeParams, derive_params

M_PULSE_PHASE = math.pi
PULSE_SPEED_FACTOR = 20.0  # omega must beat both g sqrt(n_max) and theta by this


@dataclass(frozen=True)
class PulseCalibration:
    """Calibrated pulse phases and the photon-diagonal by-product phase."""

    phi_forward: float
    phi_inverse: float
    beta: float          # radians per photon across one realization window
    fidelity: float


def check_pulse_guard(space: Space, p: SchemeParams):
    p = derive_params(p)
    floor = PULSE_SPEED_FACTOR * max(
        abs(p.g) * math.sqrt(max(space.n_max, 1)), abs(p.theta))
    if p.omega < floor:
        raise GuardError(
            f"pulse too slow: omega = {p.omega:.3g} < {floor:.3g} "
            f"(need >= {PULSE_SPEED_FACTOR} * max(g sqrt(n_max), theta))"
        )


def default_forward_phase(p: SchemeParams) -> float:
    """Pulse phase whose realization cancels the linear flip term."""
    p = derive_params(p)
    return M_PULSE_PHASE if p.theta > 0 else 0.0


def m_pulse(
    space: Space,
    p: SchemeParams,
    phase: float = M_PULSE_PHASE,
    mode: str = "physical",
) -> np.ndarray:
    """One pi/2 pulse propagator.

    Ideal mode: the bare collective rotation exp(-i (pi/4) X_phi) with
    X_phi = e^{i phi} S01 + h.c., photon factors untouched.  Physical mode:
    the eliminated-tier Hamiltonian with the pulse term on for
    t = pi/(2 omega); the cavity coupling stays on throughout.
    """
    if mode == "ideal":
        s01 = collective(space, 0, 1)
        x_phi = np.exp(1j * phase) * s01 + np.exp(-1j * phase) * s01.conj().T
        return numerics.expm_hermitian(x_phi, math.pi / 4)
    if mode != "physical":
        raise ValidationError(f"unknown pulse mode {mode!r}")
    check_pulse_guard(space, p)
    p = derive_params(p)
    props = SegmentPropagators(space, p, "eliminated")
    return numerics.block_diagonal(
        props.propagator(False, phase, 0.0, math.pi / (2 * p.omega)))


def _photon_sectors(space: Space, h: np.ndarray):
    """(S, d, d) photon-number blocks of a photon-diagonal operator, and the
    zero frame in the matching (S, d) shape."""
    return sector_blocks(space, "eliminated", h, np.zeros(space.dim))


def _ideal_rotation(space: Space, p: SchemeParams) -> np.ndarray:
    """The canonical rotation, exponentiated per photon-number block."""
    gen, _ = _photon_sectors(space, models.rotation_generator(space, p))
    return numerics.expm_antihermitian(gen)


def u_ideal(space: Space, p: SchemeParams) -> np.ndarray:
    """Exact exponential of the canonical rotation generator."""
    return numerics.block_diagonal(_ideal_rotation(space, p))


def _sandwich(props: SegmentPropagators, first_phase: float):
    """(stack, per-segment unitarity defects) of the realization from clock 0."""
    p = props.params
    tau = 1.0 / abs(p.theta)
    tp = math.pi / (2 * p.omega)
    u1 = props.propagator(False, first_phase, 0.0, tp)
    u2 = props.propagator(False, None, tp, tau)
    u3 = props.propagator(False, first_phase + math.pi, tp + tau, tp)
    return u3 @ (u2 @ u1), [numerics.unitarity_defect(u) for u in (u1, u2, u3)]


def u_physical(
    space: Space,
    p: SchemeParams,
    tier: str = "eliminated",
    first_phase: float | None = None,
) -> np.ndarray:
    """Composed realization [pulse][cavity-only, 1/theta][conjugate pulse].

    The first pulse phase defaults to ``default_forward_phase``; shifting it
    by pi flips the sign of the effective generator, which up to the shared
    photon-diagonal phase realizes the inverse rotation.
    """
    check_pulse_guard(space, p)
    p = derive_params(p)
    if first_phase is None:
        first_phase = default_forward_phase(p)
    return numerics.block_diagonal(
        _sandwich(SegmentPropagators(space, p, tier), first_phase)[0])


def sector_traces(space: Space, d: np.ndarray) -> np.ndarray:
    """Traces of a matrix's diagonal blocks, one per mode-a photon number
    (mode a's photon index varies slowest)."""
    s = space.n_max + 1
    return np.einsum("iaia->i", np.reshape(d, (s, space.dim // s) * 2))


def _beta_and_fidelity(space: Space, target: np.ndarray, u: np.ndarray):
    """Best photon-diagonal phase and the resulting match quality.

    Writes U = e^{-i beta n} * target (x) small error; fits beta from the
    per-sector phases of D = target^dag U and returns
    |sum_n tr_n(D) e^{i beta n}| / dim.
    """
    d = target.conj().T @ u
    tr = sector_traces(space, d)
    ns = np.arange(space.n_max + 1)
    w = np.abs(tr)
    chi = np.unwrap(np.angle(tr))
    denom = float((w * ns * ns).sum())
    beta = 0.0 if denom == 0 else -float((w * ns * chi).sum()) / denom
    fidelity = abs((tr * np.exp(1j * beta * ns)).sum()) / space.dim
    return beta, float(fidelity)


def calibrate_pulse_phase(space: Space, p: SchemeParams) -> PulseCalibration:
    """Closed-form forward pulse phase, checked against the ideal rotation.

    Composes the eliminated-tier realization once, at
    ``default_forward_phase(p)``, and scores it against the ideal rotation
    modulo a photon-diagonal phase e^{-i beta n}.  A fidelity below 0.95 is
    reported as a failure.
    """
    if space.n_atoms != 1 or space.n_max < 2:
        raise ValidationError(
            "pulse-phase calibration uses a single-atom space with n_max >= 2"
        )
    p = derive_params(p)
    phi_forward = default_forward_phase(p)
    beta, fidelity = _beta_and_fidelity(
        space, u_ideal(space, p),
        u_physical(space, p, first_phase=phi_forward))
    if fidelity < 0.95:
        raise CalibrationError(
            f"pulse-phase calibration failed: fidelity {fidelity:.4f} "
            f"(< 0.95) at phi = {phi_forward:.4f}"
        )
    phi_inverse = (phi_forward + math.pi) % (2 * math.pi)
    return PulseCalibration(phi_forward, phi_inverse, beta, fidelity)


class VProtocol:
    """Builder for V(t), the full sequence around a Kerr segment of length t.

    Physical mode runs
    [pulse][free 1/theta][conj pulse] [Raman on, t] [pulse][free][conj pulse]
    under one global clock; with the sandwiches U_pre, U_post composed from
    clock 0, the Raman-on eigensystem (E, lam), s = 2 t_pulse + 1/theta and
    T = s + t it is the closed form

        V(t) = e^{-i g_off T} U_post e^{i (g_off - g_on) T}
               E e^{-i lam t} E^dag e^{i g_on s} U_pre,

    where g_on / g_off are the diagonal rotating-frame generators of the
    Raman-on / Raman-off segments (``models.segment_hamiltonian``; zero on
    the eliminated tier and in the reference modes).  Ideal mode
    uses U_pre = U, U_post = U^dag around exp(-i H1_int t); the
    ``rotated_reference`` exponentiates the photon-diagonal part of the
    rotated Hamiltonian between identities (the analytic pipeline check,
    for which X(t) = 1 and Y(t) = cos(kappa n^2 t) exactly).

    Every factor is kept as a stack of photon-number blocks
    (``evolve.sector_blocks``; one block on the full tier), and V(t) x is
    evaluated only in the sectors where x is nonzero.
    """

    MODES = ("physical", "ideal", "rotated_reference")

    def __init__(
        self,
        space: Space,
        params: SchemeParams,
        mode: str = "physical",
        tier: str = "eliminated",
    ):
        if mode not in self.MODES:
            raise ValidationError(f"unknown V mode {mode!r}")
        p = derive_params(params)
        self.space = space
        self.params = p
        self.mode = mode
        self.tier = tier
        self.tau = 1.0 / abs(p.theta)
        self.t_pulse = math.pi / (2 * p.omega) if p.omega else 0.0
        self._s = 2 * self.t_pulse + self.tau

        if mode == "physical":
            check_pulse_guard(space, p)
            phi_f = default_forward_phase(p)
            props = SegmentPropagators(space, p, tier)
            self._pre, pre_defects = _sandwich(props, phi_f)
            self._post, post_defects = _sandwich(props, phi_f + math.pi)
            self._edge_defects = (pre_defects, post_defects)
            self._eig, g_on = props.eigensystem(True)
            g_off = props.eigensystem(False)[1]
            self._pre = np.exp(1j * g_on * self._s)[..., None] * self._pre
        elif mode == "ideal":
            self._pre = _ideal_rotation(space, p)
            self._post = numerics.dagger(self._pre)
            h, g_on = _photon_sectors(
                space, models.effective_hamiltonian(space, p, "h1int"))
            self._eig = numerics.HermitianEigensystem(h)
            g_off = g_on
        else:
            h, g_on = _photon_sectors(space, models.effective_hamiltonian(
                space, p, "hrot", drop_rot_leakage=True))
            self._eig = numerics.HermitianEigensystem(h)
            self._pre = self._post = np.broadcast_to(
                np.eye(self._eig.dim, dtype=complex), h.shape)
            g_off = g_on
        self._g = (g_on, g_off)

    def elapsed(self, t: float) -> float:
        """Total wall-clock duration of V(t) (frame phases accrue over it)."""
        if self.mode == "physical":
            return t + 2 * self.tau + 4 * self.t_pulse
        return t

    # -- propagators and series ----------------------------------------------

    def _sectors(self, times, x: np.ndarray, live: np.ndarray) -> np.ndarray:
        """V(t) x in the sector blocks ``live`` for x of shape (L, d, k):
        (L, d, len(times), k)."""
        t = np.asarray(times, dtype=float)
        n_live, d, k = x.shape
        vecs = self._eig.eigenvectors[live]
        y = numerics.dagger(vecs) @ (self._pre[live] @ x)
        y = np.exp(-1j * np.multiply.outer(self._eig.eigenvalues[live], t))[
            ..., None] * y[:, :, None, :]
        shape = y.shape
        y = (vecs @ y.reshape(n_live, d, -1)).reshape(shape)
        clock = self._s + t
        g_on, g_off = self._g[0][live], self._g[1][live]
        y *= np.exp(1j * np.multiply.outer(g_off - g_on, clock))[..., None]
        y = (self._post[live] @ y.reshape(n_live, d, -1)).reshape(shape)
        y *= np.exp(-1j * np.multiply.outer(g_off, clock))[..., None]
        return y

    def _blocks(self, t: float) -> np.ndarray:
        """V(t) as its stack of sector blocks."""
        n_sectors, d = self._g[0].shape
        eye = np.broadcast_to(np.eye(d, dtype=complex), (n_sectors, d, d))
        return self._sectors([t], eye, np.arange(n_sectors))[:, :, 0]

    def matrix(self, t: float) -> np.ndarray:
        """V(t) as a dense matrix."""
        return numerics.block_diagonal(self._blocks(t))

    def compose_diagnostics(self, t: float) -> dict:
        """Per-segment unitarity defects at Kerr time t.

        The frame conjugation that moves a sandwich to its clock time leaves
        its defects unchanged.
        """
        if self.mode != "physical":
            return {"segment_unitarity_defects": [],
                    "total_unitarity_defect": 0.0}
        pre, post = self._edge_defects
        defects = pre + [numerics.unitarity_defect(self._eig.propagator(t))] + post
        return {"segment_unitarity_defects": defects,
                "total_unitarity_defect": numerics.unitarity_defect(self._blocks(t))}

    def states(self, times, psi0: np.ndarray) -> np.ndarray:
        """V(t) psi0 for each t; shape (len(times), dim)."""
        x = psi0.reshape(*self._g[0].shape, 1)
        live = np.flatnonzero(x.any(axis=(1, 2)))
        y = self._sectors(times, x[live], live)[..., 0]
        out = np.zeros((y.shape[2], *x.shape[:2]), dtype=complex)
        out[:, live] = y.transpose(2, 0, 1)
        return out.reshape(len(out), -1)

    def amplitude_series(self, times, n_photons: int) -> np.ndarray:
        """<n, -...-| V(t) |n, -...-> over the time grid."""
        psi0 = basis_state(self.space, n_photons, "-" * self.space.n_atoms)
        return self.states(times, psi0) @ psi0.conj()
