"""Hamiltonian builders for the light-shift Kerr scheme.

The model chain, from exact to effective:

* ``full``        three-level interaction-picture Hamiltonian with explicit
                  oscillating phases (cavity to 0<->2, Raman lasers to +<->2),
* ``framed``      its exact time-independent rotating-frame equivalent,
* ``eliminated``  two-level model after adiabatic elimination of level 2:
                  H1 = (g^2/D1) n S00 + (Theta/2)(S10 + S01),
* ``h1int``       H1 in the second interaction picture (photon-linear phase
                  split off): (g^2/2D1) n (S+- + S-+) + (Theta/2) S3,
* ``hrot``        h1int conjugated by the photon-conditioned atomic rotation;
                  kept through third order in (g^2/2D1)/Theta,
* ``kerr``        the pure Kerr limit (g^4/4 D1^2 Theta) n^2 S3,

plus the two warm-up models (``dispersive_two_level``, ``resonant_driven``)
and the two-mode cross-Kerr configurations.

A pulse-protocol segment runs on the ``eliminated`` or the ``full`` tier;
``segment_hamiltonian`` gives it as a static generator plus the diagonal of
its rotating frame, so the static tier is the full tier's form with a zero
frame.

Sign conventions: propagators are exp(-i H t) everywhere.  The rotation
generator used for ``hrot`` and by the pulse protocol is
exp(-(mu/2) n (S+- - S-+)) with mu = g^2/(D1 Theta); with that orientation
the photon-linear atom-flip term cancels exactly at first order, the n^2 S3
coefficient comes out +g^4/(4 D1^2 Theta) (matching the ``kerr`` tier), and
the third-order remainder is -(4/3)(g^2/2D1)^3/Theta^2 n^3 (S+- + S-+).
All three statements are verified numerically in the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import hilbert
from .errors import ValidationError
from .hilbert import Operator, Space, collective, number_op, s3

THETA_CONSISTENCY_RTOL = 1e-9

EFFECTIVE_KINDS = ("h1int", "hrot", "kerr", "dispersive_two_level", "resonant_driven")


@dataclass(frozen=True)
class SchemeParams:
    """Physical rates (s^-1), detunings (s^-1) and system sizes for a run.

    Either ``theta`` or the pair (``lam``, ``delta2``) must be supplied; when
    both are present they must satisfy theta = 2 lam^2 / delta2.  ``omega``
    is the pulse Rabi frequency.  ``mu`` and ``kappa`` are derived.
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
    # derived
    mu: float | None = None
    kappa: float | None = None

    @property
    def stark(self) -> float:
        """Per-photon Stark rate x = g^2 / (2 delta1)."""
        return self.g**2 / (2 * self.delta1)


def derive_params(p: SchemeParams) -> SchemeParams:
    """Validate a parameter set and fill the derived quantities.

    theta = 2 lam^2 / delta2 when the Raman pair is given, mu = g^2/(D1 theta),
    kappa = N g^4 / (4 D1^2 theta).
    """
    if not np.isfinite(p.g) or p.g == 0:
        raise ValidationError(f"g must be finite and nonzero, got {p.g}")
    if not np.isfinite(p.delta1) or p.delta1 == 0:
        raise ValidationError(f"delta1 must be finite and nonzero, got {p.delta1}")
    if p.n_atoms < 1:
        raise ValidationError(f"n_atoms must be >= 1, got {p.n_atoms}")

    raman_given = p.lam is not None or p.delta2 is not None
    if raman_given and (p.lam is None or p.delta2 is None):
        raise ValidationError("lam and delta2 must be given together")
    if raman_given and p.delta2 == 0:
        raise ValidationError("delta2 must be nonzero")

    theta = p.theta
    if raman_given:
        theta_raman = 2 * p.lam**2 / p.delta2
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

    mu = p.g**2 / (p.delta1 * theta)
    kappa = p.n_atoms * p.g**4 / (4 * p.delta1**2 * theta)
    return replace(p, theta=theta, mu=mu, kappa=kappa)


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
    p = derive_params(p)
    if p.lam is not None:
        return p
    delta2 = -ratio * p.delta1
    lam = float(np.sqrt(abs(p.theta * delta2) / 2))
    theta_realized = 2 * lam**2 / delta2
    return derive_params(replace(p, lam=lam, delta2=delta2, theta=theta_realized))


@dataclass(frozen=True)
class FrameSpec:
    """Diagonal frame data: photon rates per mode, atomic rates per level.

    The frame unitary is W(t) = exp(+i G t) with
    G = sum_m photon_rates[m] * n_m + sum_l level_rates[l] * S_ll; the
    interaction-picture propagator over [t0, t1] of a framed Hamiltonian H'
    is W(t1)^dag exp(-i H' (t1-t0)) W(t0).
    """

    photon_rates: tuple = (0.0,)
    level_rates: tuple = (0.0, 0.0, 0.0)

    def generator(self, space: Space) -> np.ndarray:
        g = np.zeros((space.dim, space.dim), dtype=complex)
        for m, rate in enumerate(self.photon_rates[: space.n_modes]):
            if rate:
                g += rate * number_op(space, m).matrix
        for l, rate in enumerate(self.level_rates[: space.levels]):
            if rate:
                g += rate * collective(space, l, l).matrix
        return g

    def unitary(self, space: Space, t: float) -> np.ndarray:
        # G is diagonal in every supported space, multiply phases directly
        return np.diag(np.exp(1j * np.diag(self.generator(space)) * t))


def _require_levels(space: Space, levels: int, what: str):
    if space.levels != levels:
        raise ValidationError(
            f"{what} needs a {levels}-level space, got {space.levels} levels"
        )


def _pulse_term(space: Space, omega: float, phase: float) -> np.ndarray:
    """(omega/2)(e^{i phi} S01 + e^{-i phi} S10).

    A resonant drive of Rabi frequency omega: the pi/2 rotation takes
    t = pi/(2 omega), so the stated pulse durations come out right.
    """
    s01 = collective(space, 0, 1).matrix
    return (omega / 2) * (np.exp(1j * phase) * s01 + np.exp(-1j * phase) * s01.conj().T)


def full_hamiltonian(
    space: Space,
    p: SchemeParams,
    t: float,
    raman: bool = False,
    pulse: bool = False,
    pulse_phase: float = 0.0,
) -> Operator:
    """Three-level interaction-picture Hamiltonian at time ``t``.

    H(t) = g (e^{-i D1 t} a S20 + h.c.) + sqrt(2) lam (e^{-i D2 t} S2+ + h.c.)
    with the Raman term gated by ``raman`` and the resonant 0<->1 drive by
    ``pulse``.
    """
    _require_levels(space, 3, "the full model")
    p = derive_params(p)
    annih = hilbert.annihilation(space, 0).matrix
    s20 = collective(space, 2, 0).matrix
    term = p.g * np.exp(-1j * p.delta1 * t) * (annih @ s20)
    h = term + term.conj().T
    if raman:
        if p.lam is None:
            raise ValidationError(
                "raman_on requires lam and delta2 (use synthesize_raman)"
            )
        s2p = collective(space, 2, "+").matrix
        term = np.sqrt(2) * p.lam * np.exp(-1j * p.delta2 * t) * s2p
        h = h + term + term.conj().T
    if pulse:
        h = h + _pulse_term(space, p.omega, pulse_phase)
    return Operator(h, space, "H_full(t)")


def full_hamiltonian_func(space, p, raman=False, pulse=False, pulse_phase=0.0):
    """(callable t -> ndarray, fastest rate) for the time-stepped integrator."""
    p = derive_params(p)
    if raman and p.lam is None:
        raise ValidationError("raman_on requires lam and delta2 (use synthesize_raman)")
    rates = [abs(p.delta1), p.omega if pulse else 0.0,
             np.sqrt(space.n_max) * abs(p.g)]
    if raman:
        rates += [abs(p.delta2), abs(p.lam)]

    def h_of_t(t):
        return full_hamiltonian(space, p, t, raman, pulse, pulse_phase).matrix

    return h_of_t, max(rates)


def static_frame_hamiltonian(
    space: Space,
    p: SchemeParams,
    raman: bool = False,
    pulse: bool = False,
    pulse_phase: float = 0.0,
) -> tuple[Operator, FrameSpec]:
    """Time-independent rotating-frame equivalent of the full Hamiltonian.

    Frame generator G = (D2 - D1) n + D2 S22 cancels every oscillating phase
    (with Raman off the convention D2 := D1 is used, i.e. G = D1 S22); the
    framed Hamiltonian is H' = H(0) - G.  Exactness against the time-stepped
    integrator is validated in the tests rather than assumed.
    """
    _require_levels(space, 3, "the full model")
    p = derive_params(p)
    delta2 = p.delta2 if (raman and p.delta2 is not None) else p.delta1
    frame = FrameSpec(
        photon_rates=(delta2 - p.delta1,) * space.n_modes,
        level_rates=(0.0, 0.0, delta2),
    )
    h0 = full_hamiltonian(space, p, 0.0, raman, pulse, pulse_phase).matrix
    h = h0 - frame.generator(space)
    return Operator(h, space, "H_framed"), frame


def tier_b_hamiltonian(
    space: Space,
    p: SchemeParams,
    raman: bool = True,
    pulse: bool = False,
    pulse_phase: float = 0.0,
) -> Operator:
    """Two-level model after eliminating the excited level.

    H1 = (g^2/delta1) n S00 + (theta/2)(S10 + S01), the theta term gated by
    ``raman``; the pulse flag adds the resonant 0<->1 drive.
    """
    _require_levels(space, 2, "the eliminated model")
    p = derive_params(p)
    n = number_op(space).matrix
    s00 = collective(space, 0, 0).matrix
    h = (p.g**2 / p.delta1) * (n @ s00)
    if raman:
        s01 = collective(space, 0, 1).matrix
        h = h + (p.theta / 2) * (s01 + s01.conj().T)
    if pulse:
        h = h + _pulse_term(space, p.omega, pulse_phase)
    return Operator(h, space, "H_eliminated")


def rotation_generator(space: Space, p: SchemeParams) -> Operator:
    """Anti-Hermitian generator -(mu/2) n (S+- - S-+) of the canonical rotation.

    exp of this generator removes the photon-linear atom-flip term of
    ``h1int`` at first order; mu/2 = g^2/(2 delta1 theta) is the angle per
    photon.
    """
    p = derive_params(p)
    n = number_op(space).matrix
    spm = collective(space, "+", "-").matrix
    gen = -(p.mu / 2) * (n @ (spm - spm.conj().T))
    return Operator(gen, space, "log U")


def effective_hamiltonian(
    space: Space,
    p: SchemeParams,
    kind: str,
    drop_rot_leakage: bool = False,
) -> Operator:
    """Literal effective Hamiltonians of the derivation chain; see module doc.

    ``drop_rot_leakage`` removes the third-order n^3 (S+- + S-+) remainder
    from ``hrot``, leaving the exactly photon-diagonal part.
    """
    if kind not in EFFECTIVE_KINDS:
        raise ValidationError(f"unknown effective Hamiltonian kind {kind!r}")
    p = derive_params(p)
    n = number_op(space).matrix
    x = p.stark

    if kind == "h1int":
        _require_levels(space, 2, "h1int")
        sx = collective(space, "+", "-").matrix
        sx = sx + sx.conj().T
        h = x * (n @ sx) + (p.theta / 2) * s3(space).matrix
        return Operator(h, space, "H1_int")

    if kind == "hrot":
        _require_levels(space, 2, "hrot")
        n2 = n @ n
        h = (p.theta / 2) * s3(space).matrix + (x**2 / p.theta) * (n2 @ s3(space).matrix)
        if not drop_rot_leakage:
            sx = collective(space, "+", "-").matrix
            sx = sx + sx.conj().T
            h = h - (4 / 3) * (x**3 / p.theta**2) * (n2 @ n @ sx)
        return Operator(h, space, "H_rot")

    if kind == "kerr":
        _require_levels(space, 2, "the Kerr limit")
        coeff = p.g**4 / (4 * p.delta1**2 * p.theta)  # kappa / N
        h = coeff * (n @ n @ s3(space).matrix)
        return Operator(h, space, "H_kerr")

    if kind == "dispersive_two_level":
        _require_levels(space, 2, "the dispersive two-level model")
        pop = collective(space, 0, 0).matrix - collective(space, 1, 1).matrix
        nn = p.n_atoms
        h = (nn * p.g**2 / p.delta1) * (n @ pop) \
            + (nn * p.g**4 / p.delta1**3) * (n @ n @ pop)
        return Operator(h, space, "H_dispersive")

    # resonant_driven: dispersive JC plus a resonant 0<->1 drive of Rabi
    # frequency omega; quartic coefficient N g^4/(D1^2 omega), the
    # unit-consistent reading of the two stated smallness factors.
    _require_levels(space, 2, "the resonant-driven model")
    if p.omega == 0:
        raise ValidationError("resonant_driven needs a nonzero omega")
    nn = p.n_atoms
    h = (nn * p.g**2 / p.delta1) * (n @ s3(space).matrix) \
        + (nn * p.g**4 / (p.delta1**2 * p.omega)) * (n @ n @ s3(space).matrix)
    return Operator(h, space, "H_resonant_driven")


# ---------------------------------------------------------------------------
# cross-Kerr configurations (two photon modes)
# ---------------------------------------------------------------------------

def _cross_couplings(p: SchemeParams, variant: str) -> tuple[float, float, float, float]:
    """(g_a, delta_a, g_b, delta_b) for the requested variant."""
    p = derive_params(p)
    if variant == "polarization":
        if p.g_b is None or p.delta1_b is None:
            raise ValidationError("polarization variant needs g_b and delta1_b")
        return p.g, p.delta1, p.g_b, p.delta1_b
    if variant == "toroidal":
        if p.g_b is None or p.mode_split is None:
            raise ValidationError("toroidal variant needs g_b and mode_split")
        return p.g, p.delta1 - p.mode_split, p.g_b, p.delta1 + p.mode_split
    raise ValidationError(f"unknown cross-Kerr variant {variant!r}")


def cross_kerr_hamiltonian(
    space: Space,
    p: SchemeParams,
    variant: str,
    form: str = "effective",
    t: float = 0.0,
    raman: bool = True,
    pulse: bool = False,
    pulse_phase: float = 0.0,
) -> Operator:
    """Two-mode Hamiltonians for the cross-Kerr configurations.

    ``form="effective"``: the fully eliminated photon-diagonal operator,
    (1/theta)(A n_a -+ B n_b)^2 S3 with A = g_a^2/(2 delta_a),
    B = g_b^2/(2 delta_b); the minus sign belongs to the polarization
    variant (mode b couples 1<->2), the plus to the toroidal one (both
    modes couple 0<->2).

    ``form="eliminated"``: the two-level model before the second
    elimination; ``form="full"``: the three-level interaction-picture
    Hamiltonian at time ``t``.
    """
    if space.n_modes != 2:
        raise ValidationError("cross-Kerr models need a two-mode space")
    p = derive_params(p)
    ga, da, gb, db = _cross_couplings(p, variant)
    n_a = number_op(space, 0).matrix
    n_b = number_op(space, 1).matrix
    A = ga**2 / (2 * da)
    B = gb**2 / (2 * db)
    sign = -1.0 if variant == "polarization" else +1.0

    if form == "effective":
        _require_levels(space, 2, "the effective cross-Kerr model")
        quad = A * n_a + sign * B * n_b
        h = (1 / p.theta) * (quad @ quad @ s3(space).matrix)
        return Operator(h, space, f"H_cross_{variant}")

    if form == "eliminated":
        _require_levels(space, 2, "the eliminated cross-Kerr model")
        s00 = collective(space, 0, 0).matrix
        if variant == "polarization":
            s11 = collective(space, 1, 1).matrix
            h = 2 * A * (n_a @ s00) + 2 * B * (n_b @ s11)
        else:
            h = 2 * (A * n_a + B * n_b) @ s00
        if raman:
            s01 = collective(space, 0, 1).matrix
            h = h + (p.theta / 2) * (s01 + s01.conj().T)
        if pulse:
            h = h + _pulse_term(space, p.omega, pulse_phase)
        return Operator(h, space, f"H_cross_{variant}_eliminated")

    if form == "full":
        _require_levels(space, 3, "the full cross-Kerr model")
        a = hilbert.annihilation(space, 0).matrix
        b = hilbert.annihilation(space, 1).matrix
        s20 = collective(space, 2, 0).matrix
        term = ga * np.exp(-1j * da * t) * (a @ s20)
        h = term + term.conj().T
        target_b = s20 if variant == "toroidal" else collective(space, 2, 1).matrix
        term = gb * np.exp(-1j * db * t) * (b @ target_b)
        h = h + term + term.conj().T
        if raman:
            if p.lam is None:
                raise ValidationError("full cross-Kerr with raman needs lam, delta2")
            s2p = collective(space, 2, "+").matrix
            term = np.sqrt(2) * p.lam * np.exp(-1j * p.delta2 * t) * s2p
            h = h + term + term.conj().T
        if pulse:
            h = h + _pulse_term(space, p.omega, pulse_phase)
        return Operator(h, space, f"H_cross_{variant}_full")

    raise ValidationError(f"unknown cross-Kerr form {form!r}")


# ---------------------------------------------------------------------------
# protocol segments
# ---------------------------------------------------------------------------

def segment_hamiltonian(
    space: Space,
    p: SchemeParams,
    tier: str,
    raman: bool,
    pulse_phase: float | None = None,
):
    """(H', g) of one protocol segment; ``pulse_phase=None`` is pulse-free.

    H' is time independent and g is the diagonal of the rotating-frame
    generator, so the segment's propagator over [t0, t0 + dt] is
    e^{-i g (t0 + dt)} exp(-i H' dt) e^{i g t0}.  The ``full`` tier takes
    its exact static frame; the ``eliminated`` tier is already static, g = 0.
    """
    pulse = pulse_phase is not None
    phase = pulse_phase if pulse else 0.0
    if tier == "eliminated":
        h = tier_b_hamiltonian(space, p, raman, pulse, phase)
        return h.matrix, np.zeros(space.dim)
    if tier == "full":
        h, frame = static_frame_hamiltonian(space, p, raman, pulse, phase)
        return h.matrix, np.diag(frame.generator(space)).real
    raise ValidationError(
        f"unknown tier {tier!r}; protocol segments run on 'eliminated' or 'full'")
