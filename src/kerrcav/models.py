"""Hamiltonian builders for the light-shift Kerr scheme.

The model chain, from exact to effective:

* ``full``        three-level interaction-picture Hamiltonian with explicit
                  oscillating phases (cavity to 2, Raman lasers to +<->2),
* ``framed``      its exact time-independent rotating-frame equivalent,
* ``eliminated``  two-level model after adiabatic elimination of level 2:
                  H1 = (g^2/D1) n S00 + (Theta/2)(S10 + S01),
* ``h1int``       H1 in the second interaction picture (photon-linear phase
                  split off): (g^2/2D1) n (S+- + S-+) + (Theta/2) S3,
* ``hrot``        h1int conjugated by the photon-conditioned atomic rotation;
                  kept through third order in (g^2/2D1)/Theta,
* ``kerr``        the pure Kerr limit (g^4/4 D1^2 Theta) n^2 S3,

plus the two warm-up models (``dispersive_two_level``, ``resonant_driven``).

There is one builder per tier, and ``full``, ``eliminated`` and ``kerr``
sum their cavity term over the space's modes: one for self-Kerr, two for
cross-Kerr.  ``mode_couplings`` is the one place a mode is defined.  The
other builders and the static frame take one mode.

Every builder returns a plain complex (dim, dim) ndarray.  The rotating
frame is diagonal, so it is carried as the real vector g of its generator's
diagonal: ``static_frame_hamiltonian`` returns (H', g), and a
pulse-protocol segment is the same pair from ``segment_hamiltonian``.  The
tier is the space's level count (three levels: ``full``, two:
``eliminated``, static with g = 0), and the pulse is its ``pulse_phase``
(None: no pulse).

Sign conventions: propagators are exp(-i H t) everywhere.  The rotation
generator used for ``hrot`` and by the pulse protocol is
exp(-(mu/2) n (S+- - S-+)) with mu = g^2/(D1 Theta); with that orientation
the photon-linear atom-flip term cancels exactly at first order, the n^2 S3
coefficient comes out +g^4/(4 D1^2 Theta) (matching the ``kerr`` tier), and
the third-order remainder is -(4/3)(g^2/2D1)^3/Theta^2 n^3 (S+- + S-+).
All three statements are verified numerically in the test suite.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np

from . import hilbert
from .errors import ValidationError, require_integer
from .hilbert import Space, collective, number_op, s3

THETA_CONSISTENCY_RTOL = 1e-9

EFFECTIVE_KINDS = ("h1int", "hrot", "kerr", "dispersive_two_level", "resonant_driven")


@dataclass(frozen=True)
class SchemeParams:
    """Physical rates (s^-1), detunings (s^-1) and system sizes for a run.

    Either ``theta`` or the pair (``lam``, ``delta2``) must be supplied; when
    both are present they must satisfy theta = 2 lam^2 / delta2.  ``omega``
    is the pulse Rabi frequency.

    A set is validated and derived when it is built, ``dataclasses.replace``
    included: theta = 2 lam^2 / delta2 when only the Raman pair is given,
    and ``mu`` = g^2/(D1 theta) and ``kappa`` = N g^4 / (4 D1^2 theta) are
    computed, never passed.  An invalid set, or one whose mu or kappa
    overflows or vanishes in floating point, is a ``ValidationError``.  A
    derived theta is stored, so a replacement Raman pair passes
    ``theta=None`` to derive it again.
    """

    g: float
    delta1: float
    n_atoms: int = 1
    theta: float | None = None
    lam: float | None = None
    delta2: float | None = None
    omega: float = 0.0
    # cross-Kerr extension: mode b coupling and its detuning (polarization
    # variant) or the tunneling splitting (toroidal variant, detunings D1 -+ d)
    g_b: float | None = None
    delta1_b: float | None = None
    mode_split: float | None = None
    mu: float = field(init=False)
    kappa: float = field(init=False)

    def __post_init__(self):
        if not np.isfinite(self.g) or self.g == 0:
            raise ValidationError(f"g must be finite and nonzero, got {self.g}")
        if not np.isfinite(self.delta1) or self.delta1 == 0:
            raise ValidationError(
                f"delta1 must be finite and nonzero, got {self.delta1}")
        require_integer(self.n_atoms, 1, "n_atoms")
        for name in ("omega", "lam", "delta2", "g_b", "delta1_b", "mode_split"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")

        raman_given = self.lam is not None or self.delta2 is not None
        if raman_given and (self.lam is None or self.delta2 is None):
            raise ValidationError("lam and delta2 must be given together")
        if raman_given and self.delta2 == 0:
            raise ValidationError("delta2 must be nonzero")

        theta = self.theta
        if raman_given:
            theta_raman = 2 * self.lam**2 / self.delta2
            if theta is None:
                theta = theta_raman
            elif abs(theta - theta_raman) > THETA_CONSISTENCY_RTOL * abs(theta):
                raise ValidationError(
                    f"inconsistent parameters: theta={theta:g} but "
                    f"2 lam^2/delta2 = {theta_raman:g}"
                )
        if theta is None:
            raise ValidationError("either theta or (lam, delta2) must be given")
        if theta == 0 or not np.isfinite(theta):
            raise ValidationError(f"theta must be finite and nonzero, got {theta}")

        # a power that overflows or a divisor that underflows to 0 leaves inf
        mu = kappa = math.inf
        try:
            mu = self.g**2 / (self.delta1 * theta)
            kappa = self.n_atoms * self.g**4 / (4 * self.delta1**2 * theta)
        except (OverflowError, ZeroDivisionError):
            pass
        for name, value in (("mu = g^2/(delta1 theta)", mu),
                            ("kappa = N g^4/(4 delta1^2 theta)", kappa)):
            if not math.isfinite(value) or value == 0:
                raise ValidationError(
                    f"derived {name} must be finite and nonzero, got {value} "
                    f"(g = {self.g}, delta1 = {self.delta1}, theta = {theta}, "
                    f"n_atoms = {self.n_atoms})")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "kappa", kappa)

    @property
    def stark(self) -> float:
        """Per-photon Stark rate x = g^2 / (2 delta1)."""
        return self.g**2 / (2 * self.delta1)


def synthesize_raman(p: SchemeParams, ratio: float = 9.0) -> SchemeParams:
    """Fill (lam, delta2) for full-model runs when only theta was given.

    delta2 = -ratio * delta1 (opposite sign to delta1, |delta2 - delta1| =
    (ratio+1)|delta1|, keeping the cavity and laser processes spectrally
    separated), lam = sqrt(|theta * delta2| / 2).  With delta2 opposite in
    sign to a positive requested theta the realizable Raman rate is
    2 lam^2/delta2 = -theta; the returned parameter set carries that
    realized (sign-flipped) theta so it stays self-consistent.  Overlap
    figures of merit are insensitive to the sign.
    """
    if p.lam is not None:
        return p
    delta2 = -ratio * p.delta1
    lam = float(np.sqrt(abs(p.theta * delta2) / 2))
    theta_realized = 2 * lam**2 / delta2
    return replace(p, lam=lam, delta2=delta2, theta=theta_realized)


def mode_couplings(p: SchemeParams) -> tuple:
    """((g, detuning, lower level, sign), ...) of each cavity mode of ``p``.

    Mode a couples 0<->2 at (g, delta1).  Naming any of g_b, delta1_b and
    mode_split adds a mode b at g_b: polarization (``delta1_b``) couples
    1<->2 at delta1_b, with sign -1 in the Kerr square; toroidal
    (``mode_split`` d) couples both modes 0<->2, at delta1 -+ d, sign +1.
    A mode b that names neither variant or both, or lacks g_b, is a
    ``ValidationError``; so is a zero detuning, or a coupling
    A = g^2/(2 delta_a) or B = g_b^2/(2 delta_b) that is not finite.
    """
    if p.g_b is None and p.delta1_b is None and p.mode_split is None:
        return ((p.g, p.delta1, 0, 1.0),)
    if (p.delta1_b is None) == (p.mode_split is None):
        raise ValidationError(
            "mode b needs exactly one of delta1_b (polarization) and "
            "mode_split (toroidal)")
    if p.delta1_b is not None:
        variant, detunings = "polarization", ("delta1", "delta1_b")
        modes = ((p.g, p.delta1, 0, 1.0), (p.g_b, p.delta1_b, 1, -1.0))
    else:
        variant = "toroidal"
        detunings = "(delta1 - mode_split)", "(delta1 + mode_split)"
        modes = ((p.g, p.delta1 - p.mode_split, 0, 1.0),
                 (p.g_b, p.delta1 + p.mode_split, 0, 1.0))
    if p.g_b is None:
        raise ValidationError(f"the {variant} mode b needs g_b")
    for coupling, g_name, (g, delta, _, _), d_name in zip(
            "AB", ("g", "g_b"), modes, detunings):
        if delta == 0:
            raise ValidationError(
                f"{variant} cross-Kerr detuning {d_name} is zero; coupling "
                f"{coupling} = {g_name}^2/(2 {d_name}) divides by it")
        if not math.isfinite(float(g) * float(g) / (2 * float(delta))):
            raise ValidationError(
                f"{variant} cross-Kerr coupling {coupling} = "
                f"{g_name}^2/(2 {d_name}) is not finite ({g_name} = {g}, "
                f"{d_name} = {delta})")
    return modes


def _mode_sum(space: Space, p: SchemeParams, term) -> np.ndarray:
    """term(mode, g, detuning, lower, sign) summed in order over the modes
    of ``mode_couplings(p)``, which must be as many as ``space`` has."""
    modes = mode_couplings(p)
    if len(modes) != space.n_modes:
        raise ValidationError(
            f"the parameters name {len(modes)} cavity mode(s) but the space "
            f"has {space.n_modes}")
    return reduce(operator.add, (term(m, *mode) for m, mode in enumerate(modes)))


def _require_levels(space: Space, levels: int, what: str):
    if space.levels != levels:
        raise ValidationError(
            f"{what} needs a {levels}-level space, got {space.levels} levels"
        )


def _require_one_mode(space: Space, what: str):
    if space.n_modes != 1:
        raise ValidationError(
            f"{what} needs a one-mode space, got {space.n_modes} modes")


def _raman_pair(p: SchemeParams) -> tuple[float, float]:
    """(lam, delta2), which the three-level Raman drive needs."""
    if p.lam is None:
        raise ValidationError(
            "a Raman-on three-level segment needs lam and delta2 "
            "(use synthesize_raman)")
    return p.lam, p.delta2


def _add_drives(h: np.ndarray, space: Space, p: SchemeParams, t: float,
                raman: bool, pulse_phase: float | None) -> np.ndarray:
    """``h`` plus the drives at time t, each term written once here.

    The Raman drive, when ``raman``: sqrt(2) lam (e^{-i D2 t} S2+ + h.c.) on
    a three-level space, its eliminated form (theta/2)(S01 + S10) on a
    two-level one.  The pulse at phase phi (unless ``pulse_phase`` is
    None): (omega/2)(e^{i phi} S01 + h.c.), so its pi/2 rotation takes
    t = pi/(2 omega).
    """
    if raman and space.levels == 3:
        lam, delta2 = _raman_pair(p)
        s2p = collective(space, 2, "+")
        term = np.sqrt(2) * lam * np.exp(-1j * delta2 * t) * s2p
        h = h + term + term.conj().T
    elif raman:
        s01 = collective(space, 0, 1)
        h = h + (p.theta / 2) * (s01 + s01.conj().T)
    if pulse_phase is not None:
        s01 = collective(space, 0, 1)
        h = h + (p.omega / 2) * (np.exp(1j * pulse_phase) * s01
                                 + np.exp(-1j * pulse_phase) * s01.conj().T)
    return h


def full_hamiltonian(
    space: Space,
    p: SchemeParams,
    t: float,
    raman: bool = False,
    *,
    pulse_phase: float | None = None,
) -> np.ndarray:
    """Three-level interaction-picture Hamiltonian at time ``t``.

    H(t) = sum_m g_m (e^{-i D_m t} a_m S2l_m + h.c.)
    + sqrt(2) lam (e^{-i D2 t} S2+ + h.c.) over the modes m of
    ``mode_couplings`` (one mode: g a S20 at D1), with the Raman term gated
    by ``raman``, plus the resonant 0<->1 drive at ``pulse_phase`` (None: no
    pulse).
    """
    _require_levels(space, 3, "the full model")

    def coupling(mode, g, detuning, lower, _sign):
        term = g * np.exp(-1j * detuning * t) * (
            hilbert.annihilation(space, mode) @ collective(space, 2, lower))
        return term + term.conj().T

    return _add_drives(_mode_sum(space, p, coupling), space, p, t, raman,
                       pulse_phase)


def static_frame_hamiltonian(
    space: Space,
    p: SchemeParams,
    raman: bool = False,
    *,
    pulse_phase: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(H', g): time-independent rotating-frame equivalent of the full
    Hamiltonian and the real diagonal g of its frame generator.

    The generator g = (D2 - D1) n + D2 S22 cancels every oscillating phase
    (with Raman off the convention D2 := D1 is used, i.e. g = D1 S22); the
    framed Hamiltonian is H' = H(0) - diag(g), and the interaction-picture
    propagator over [t0, t1] is e^{-i g t1} exp(-i H' (t1 - t0)) e^{i g t0}.
    Exactness against the time-stepped integrator is validated in the tests
    rather than assumed.  The generator frames mode a only, so the space
    has one mode.
    """
    _require_one_mode(space, "the static frame")
    h0 = full_hamiltonian(space, p, 0.0, raman, pulse_phase=pulse_phase)
    delta2 = p.delta2 if raman else p.delta1
    g = ((delta2 - p.delta1) * np.diag(number_op(space)).real
         + delta2 * np.diag(collective(space, 2, 2)).real)
    return h0 - np.diag(g), g


def tier_b_hamiltonian(
    space: Space,
    p: SchemeParams,
    raman: bool = True,
    *,
    pulse_phase: float | None = None,
) -> np.ndarray:
    """Two-level model after eliminating the excited level.

    H1 = sum_m (g_m^2/D_m) n_m Sll_m + (theta/2)(S10 + S01) over the modes
    m of ``mode_couplings`` (one mode: (g^2/delta1) n S00), the theta term
    gated by ``raman``, plus the resonant 0<->1 drive at ``pulse_phase``
    (None: no pulse).
    """
    _require_levels(space, 2, "the eliminated model")
    # n_m @ Sll, n_m diagonal
    h = _mode_sum(space, p, lambda mode, g, detuning, lower, _sign: (
        (g**2 / detuning) * (np.diag(number_op(space, mode))[:, None]
                             * collective(space, lower, lower))))
    return _add_drives(h, space, p, 0.0, raman, pulse_phase)


def rotation_generator(space: Space, p: SchemeParams) -> np.ndarray:
    """Anti-Hermitian generator -(mu/2) n (S+- - S-+) of the canonical rotation.

    exp of this generator removes the photon-linear atom-flip term of
    ``h1int`` at first order; mu/2 = g^2/(2 delta1 theta) is the angle per
    photon.
    """
    _require_one_mode(space, "the rotation generator")
    n = np.diag(number_op(space))
    spm = collective(space, "+", "-")
    return -(p.mu / 2) * (n[:, None] * (spm - spm.conj().T))


def effective_hamiltonian(
    space: Space,
    p: SchemeParams,
    kind: str,
    drop_rot_leakage: bool = False,
) -> np.ndarray:
    """Literal effective Hamiltonians of the derivation chain; see module doc.

    ``kerr`` is (1/theta)(sum_m +-A_m n_m)^2 S3 with A_m = g_m^2/(2 D_m)
    over the modes of ``mode_couplings``; every other kind takes one mode.
    ``drop_rot_leakage`` removes the third-order n^3 (S+- + S-+) remainder
    from ``hrot``, leaving the exactly photon-diagonal part.
    """
    if kind not in EFFECTIVE_KINDS:
        raise ValidationError(f"unknown effective Hamiltonian kind {kind!r}")
    _require_levels(space, 2, kind)
    if kind == "kerr":
        quad = _mode_sum(space, p, lambda mode, g, detuning, _lower, sign: (
            (sign * g**2 / (2 * detuning)) * number_op(space, mode)))
        return (1 / p.theta) * (quad @ quad @ s3(space))

    _require_one_mode(space, kind)
    n = number_op(space)
    x = p.stark

    if kind == "h1int":
        sx = collective(space, "+", "-")
        sx = sx + sx.conj().T
        return x * (n @ sx) + (p.theta / 2) * s3(space)

    if kind == "hrot":
        n2 = n @ n
        h = (p.theta / 2) * s3(space) + (x**2 / p.theta) * (n2 @ s3(space))
        if not drop_rot_leakage:
            sx = collective(space, "+", "-")
            sx = sx + sx.conj().T
            h = h - (4 / 3) * (x**3 / p.theta**2) * (n2 @ n @ sx)
        return h

    if kind == "dispersive_two_level":
        pop = collective(space, 0, 0) - collective(space, 1, 1)
        nn = p.n_atoms
        return ((nn * p.g**2 / p.delta1) * (n @ pop)
                + (nn * p.g**4 / p.delta1**3) * (n @ n @ pop))

    # resonant_driven: dispersive JC plus a resonant 0<->1 drive of Rabi
    # frequency omega; quartic coefficient N g^4/(D1^2 omega), the
    # unit-consistent reading of the two stated smallness factors.
    if p.omega == 0:
        raise ValidationError("resonant_driven needs a nonzero omega")
    nn = p.n_atoms
    return ((nn * p.g**2 / p.delta1) * (n @ s3(space))
            + (nn * p.g**4 / (p.delta1**2 * p.omega)) * (n @ n @ s3(space)))


# ---------------------------------------------------------------------------
# protocol segments
# ---------------------------------------------------------------------------

def segment_hamiltonian(
    space: Space,
    p: SchemeParams,
    raman: bool,
    *,
    pulse_phase: float | None = None,
):
    """(H', g) of one protocol segment; ``pulse_phase=None`` is pulse-free.

    H' is time independent and g is the diagonal of the rotating-frame
    generator, so the segment's propagator over [t0, t0 + dt] is
    e^{-i g (t0 + dt)} exp(-i H' dt) e^{i g t0}.  The space's level count
    names the tier: a two-level space runs the eliminated model, already
    static (g = 0); a three-level space runs the full model in its exact
    static frame.
    """
    if space.levels == 2:
        h = tier_b_hamiltonian(space, p, raman, pulse_phase=pulse_phase)
        return h, np.zeros(space.dim)
    return static_frame_hamiltonian(space, p, raman, pulse_phase=pulse_phase)
