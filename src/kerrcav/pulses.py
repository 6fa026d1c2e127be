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
|0> -> (|0> + i|1>)/sqrt(2).  The pulse check therefore scores the
realization a physical protocol composes at that phase, its ``forward``
sandwich, against the ideal rotation.

V(t) = [sandwich] e^{-i H t} [sandwich] changes only through the Kerr time,
so it is one closed form over the whole time grid (see VProtocol).  The
tier is the space's level count (two levels: eliminated, three: full), and
a segment's pulse is its phase (None: no pulse).
"""
from __future__ import annotations

import math

import numpy as np

from . import models, numerics
from .errors import CalibrationError, GuardError, ValidationError
from .evolve import SegmentPropagators, sector_blocks
from .hilbert import Space
from .models import SchemeParams

M_PULSE_PHASE = math.pi
PULSE_SPEED_FACTOR = 20.0  # omega must beat both g sqrt(n_max) and theta by this


def check_pulse_guard(space: Space, p: SchemeParams):
    floor = PULSE_SPEED_FACTOR * max(
        abs(p.g) * math.sqrt(max(space.n_max, 1)), abs(p.theta))
    if p.omega < floor:
        raise GuardError(
            f"pulse too slow: omega = {p.omega:.3g} < {floor:.3g} "
            f"(need >= {PULSE_SPEED_FACTOR} * max(g sqrt(n_max), theta))"
        )


def default_forward_phase(p: SchemeParams) -> float:
    """Pulse phase whose realization cancels the linear flip term."""
    return M_PULSE_PHASE if p.theta > 0 else 0.0


def _ideal_rotation(space: Space, p: SchemeParams) -> np.ndarray:
    """The canonical rotation, exponentiated per photon-number block."""
    gen, _ = sector_blocks(space, models.rotation_generator(space, p))
    return numerics.expm_hermitian(1j * gen, 1.0)


def _sandwich(props: SegmentPropagators, first_phase: float):
    """(stack, per-segment unitarity defects) of the realization from clock 0."""
    p = props.params
    tau = 1.0 / abs(p.theta)
    tp = math.pi / (2 * p.omega)
    u1 = props.propagator(False, first_phase, 0.0, tp)
    u2 = props.propagator(False, None, tp, tau)
    u3 = props.propagator(False, first_phase + math.pi, tp + tau, tp)
    return u3 @ (u2 @ u1), [numerics.unitarity_defect(u) for u in (u1, u2, u3)]


def sector_traces(space: Space, d: np.ndarray) -> np.ndarray:
    """Traces of D's blocks, one per mode-a photon number, for D a matrix or
    a ``sector_blocks`` stack: mode a's photon index varies slowest."""
    return np.einsum("...ii->...i", d).reshape(space.n_max + 1, -1).sum(1)


def _beta_and_fidelity(space: Space, target: np.ndarray, u: np.ndarray):
    """Best photon-diagonal phase and the resulting match quality.

    Writes U = e^{-i beta n} * target (x) small error; fits beta from the
    per-sector phases of D = target^dag U and returns
    |sum_n tr_n(D) e^{i beta n}| / dim; target and U are both stacks or
    both matrices.
    """
    d = numerics.dagger(target) @ u
    tr = sector_traces(space, d)
    ns = np.arange(space.n_max + 1)
    w = np.abs(tr)
    chi = np.unwrap(np.angle(tr))
    denom = float((w * ns * ns).sum())
    beta = 0.0 if denom == 0 else -float((w * ns * chi).sum()) / denom
    fidelity = abs((tr * np.exp(1j * beta * ns)).sum()) / space.dim
    return beta, float(fidelity)


def calibrate_pulse_phase(protocol: VProtocol) -> dict:
    """Closed-form forward pulse phase, checked against the ideal rotation.

    Scores the forward sandwich of the protocol it is given, the
    realization a physical ``VProtocol`` composes at
    ``default_forward_phase``, against the ideal rotation modulo a
    photon-diagonal phase e^{-i beta n}, both as photon-number stacks.
    The protocol must be physical and run one atom on n_max >= 2.  A
    fidelity below 0.95 is reported as a failure.

    Returns the dict a report's ``calibration.pulse`` holds, of Python
    floats: the forward and inverse pulse phases ``phi_forward`` and
    ``phi_inverse``, the by-product phase ``beta`` (radians per photon
    across one realization window) and the ``fidelity``.
    """
    space, p = protocol.space, protocol.params
    if protocol.mode != "physical":
        raise ValidationError(
            f"pulse-phase calibration scores a physical protocol's forward "
            f"sandwich; a {protocol.mode!r} protocol has none")
    if space.n_atoms != 1 or space.n_max < 2:
        raise ValidationError(
            "pulse-phase calibration uses a single-atom space with n_max >= 2"
        )
    phi_forward = default_forward_phase(p)
    beta, fidelity = _beta_and_fidelity(
        space, _ideal_rotation(space, p), protocol.forward)
    if fidelity < 0.95:
        raise CalibrationError(
            f"pulse-phase calibration failed: fidelity {fidelity:.4f} "
            f"(< 0.95) at phi = {phi_forward:.4f}"
        )
    phi_inverse = (phi_forward + math.pi) % (2 * math.pi)
    return {"phi_forward": phi_forward, "phi_inverse": phi_inverse,
            "beta": beta, "fidelity": fidelity}


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

    Physical mode runs on the space's tier: the eliminated one on a
    two-level space, the full one on a three-level space.  Every factor is
    kept as a stack of photon-number blocks (``evolve.sector_blocks``; one
    block on a three-level space), and V(t) x is evaluated only in the
    sectors where x is nonzero; ``blocks(t)`` is V(t) as that stack.  In
    physical mode ``forward`` is the first sandwich as composed, before its
    frame factor (the stack ``calibrate_pulse_phase`` scores).
    """

    MODES = ("physical", "ideal", "rotated_reference")
    forward = None

    def __init__(
        self,
        space: Space,
        params: SchemeParams,
        mode: str = "physical",
    ):
        if mode not in self.MODES:
            raise ValidationError(f"unknown V mode {mode!r}")
        self.space = space
        self.params = p = params
        self.mode = mode
        self.tau = 1.0 / abs(p.theta)
        self.t_pulse = math.pi / (2 * p.omega) if p.omega else 0.0
        self._s = 2 * self.t_pulse + self.tau

        if mode == "physical":
            check_pulse_guard(space, p)
            phi_f = default_forward_phase(p)
            props = SegmentPropagators(space, p)
            self.forward, pre_defects = _sandwich(props, phi_f)
            self._post, post_defects = _sandwich(props, phi_f + math.pi)
            self._edge_defects = (pre_defects, post_defects)
            self._eig, g_on = props.eigensystem(True)
            g_off = props.eigensystem(False)[1]
            self._pre = np.exp(1j * g_on * self._s)[..., None] * self.forward
        elif mode == "ideal":
            self._pre = _ideal_rotation(space, p)
            self._post = numerics.dagger(self._pre)
            h, g_on = sector_blocks(
                space, models.effective_hamiltonian(space, p, "h1int"))
            self._eig = numerics.HermitianEigensystem(h)
            g_off = g_on
        else:
            h, g_on = sector_blocks(space, models.effective_hamiltonian(
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

    def blocks(self, t: float) -> np.ndarray:
        """V(t) as its stack of sector blocks, its one operator view."""
        n_sectors, d = self._g[0].shape
        eye = np.broadcast_to(np.eye(d, dtype=complex), (n_sectors, d, d))
        return self._sectors([t], eye, np.arange(n_sectors))[:, :, 0]

    def compose_diagnostics(self, t: float) -> dict:
        """Per-segment unitarity defects at Kerr time t, and V(t)'s over its blocks.

        The frame conjugation that moves a sandwich to its clock time leaves
        its defects unchanged.  A reference mode has no segments.
        """
        defects = []
        if self.mode == "physical":
            pre, post = self._edge_defects
            defects = pre + [numerics.unitarity_defect(self._eig.propagator(t))] + post
        return {"segment_unitarity_defects": defects,
                "total_unitarity_defect": numerics.unitarity_defect(self.blocks(t))}

    def states(self, times, psi0: np.ndarray) -> np.ndarray:
        """V(t) psi0 for each t; shape (len(times), dim)."""
        x = psi0.reshape(*self._g[0].shape, 1)
        live = np.flatnonzero(x.any(axis=(1, 2)))
        y = self._sectors(times, x[live], live)[..., 0]
        out = np.zeros((y.shape[2], *x.shape[:2]), dtype=complex)
        out[:, live] = y.transpose(2, 0, 1)
        return out.reshape(len(out), -1)
