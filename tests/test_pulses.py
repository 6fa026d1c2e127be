import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kerrcav as kc
from kerrcav import experiments as ex
from kerrcav import models, numerics, pulses
from kerrcav.errors import CalibrationError, GuardError, ValidationError
from kerrcav.evolve import SegmentPropagators

from oracles import (amplitude_series, dense_ideal_rotation, ideal_pulse,
                     max_abs_diff, u_physical)

G = 1e8


def test_ideal_pulse_is_canonical_map():
    # phase pi: |0> -> (|0> + i|1>)/sqrt(2)
    space = kc.build_space(n_max=0, n_atoms=1, levels=2)
    m = ideal_pulse(space, phase=math.pi)
    ket0 = kc.basis_state(space, 0, "0")
    ket1 = kc.basis_state(space, 0, "1")
    out = m @ ket0
    expected = (ket0 + 1j * ket1) / math.sqrt(2)
    assert max_abs_diff(out, expected) < 1e-12


def test_ideal_pulse_pair_is_identity():
    space = kc.build_space(n_max=1, n_atoms=2, levels=2)
    for phi in (0.0, 1.1, math.pi):
        m = ideal_pulse(space, phase=phi)
        minv = ideal_pulse(space, phase=phi + math.pi)
        assert numerics.unitarity_defect(m) < 1e-12
        assert max_abs_diff(minv @ m, np.eye(space.dim)) < 1e-12


def test_physical_pulse_close_to_ideal(fig3b_p1):
    # || U_phys - U_ideal || <= 5 g sqrt(n_max) / omega at the benchmark rates
    space = kc.build_space(n_max=2, n_atoms=1, levels=2)
    p = fig3b_p1
    u_phys = numerics.block_diagonal(SegmentPropagators(space, p).propagator(
        False, math.pi, 0.0, math.pi / (2 * p.omega)))
    u_ideal = ideal_pulse(space, phase=math.pi)
    bound = 5 * p.g * math.sqrt(space.n_max) / p.omega
    assert max_abs_diff(u_phys, u_ideal) <= bound


def test_pulse_guard(fig3b_p1):
    import dataclasses
    space = kc.build_space(n_max=2, n_atoms=1, levels=2)
    slow = dataclasses.replace(fig3b_p1, omega=10 * G)
    with pytest.raises(GuardError, match="pulse too slow"):
        kc.VProtocol(space, slow)


def test_u_ideal_rotation_elements(fig3b_p1):
    # angle per photon is mu/2; the orientation cancels the linear flip term
    space = kc.build_space(n_max=2, n_atoms=1, levels=2)
    u = dense_ideal_rotation(space, fig3b_p1)
    half = fig3b_p1.mu / 2
    minus1 = kc.basis_state(space, 1, "-")
    plus1 = kc.basis_state(space, 1, "+")
    assert abs(minus1.conj() @ u @ minus1 - math.cos(half)) < 1e-12
    assert abs(plus1.conj() @ u @ minus1 - (-math.sin(half))) < 1e-12
    # vacuum sector untouched
    minus0 = kc.basis_state(space, 0, "-")
    assert abs(minus0.conj() @ u @ minus0 - 1) < 1e-14


def test_u_ideal_small_angle_limit(fig3b_p1):
    import dataclasses
    p = dataclasses.replace(fig3b_p1, theta=1e6 * G)
    space = kc.build_space(n_max=2, n_atoms=1, levels=2)
    assert max_abs_diff(
        dense_ideal_rotation(space, p), np.eye(space.dim)) < 1e-5


def test_u_physical_fidelity_to_ideal(fig3b_p1):
    space = kc.build_space(n_max=2, n_atoms=1, levels=2)
    u_phys = u_physical(space, fig3b_p1)
    u_id = dense_ideal_rotation(space, fig3b_p1)
    assert numerics.unitarity_defect(u_phys) < 1e-8
    beta, _ = pulses._beta_and_fidelity(space, u_id, u_phys)
    d = u_id.conj().T @ u_phys
    traces = pulses.sector_traces(space, d)
    for n in range(3):
        sector_fid = abs(traces[n] * np.exp(1j * beta * n)) / space.atomic_dim
        assert sector_fid >= 0.99


@pytest.mark.parametrize("n_max, n_modes, n_atoms, levels", [
    (2, 1, 1, 2), (4, 1, 1, 2), (2, 2, 1, 2), (2, 1, 2, 3),
], ids=["two_level_n_max_2", "two_level_n_max_4", "two_mode", "three_level"])
def test_sector_traces_of_a_stack_equal_those_of_its_matrix(
        rng, n_max, n_modes, n_atoms, levels):
    # the stack's diagonal is the matrix's, in basis order
    space = kc.build_space(n_max=n_max, n_atoms=n_atoms, levels=levels,
                           n_modes=n_modes)
    sectors = space.photon_dim if levels == 2 else 1
    d = space.dim // sectors
    stack = (rng.standard_normal((sectors, d, d))
             + 1j * rng.standard_normal((sectors, d, d)))
    dense = numerics.block_diagonal(stack)
    traces = pulses.sector_traces(space, stack)
    assert np.array_equal(traces, pulses.sector_traces(space, dense))
    k = space.dim // (n_max + 1)          # one mode-a photon number's block
    assert max_abs_diff(traces, [np.trace(dense[i:i + k, i:i + k])
                                 for i in range(0, space.dim, k)]) < 1e-12


@pytest.mark.parametrize("theta", [-2e7, 5e7, 1e8, 1.6369e8, 3.1e8, 4e8])
@pytest.mark.parametrize("family", ["fig3a", "fig3b", "raman"])
def test_the_stack_pulse_check_matches_dense_scoring(family, theta):
    # beta and the fidelity from the stacks, against the same score of the
    # assembled dense matrices; the full tier at theta = -2e7 is below the
    # 0.95 floor, and the check reports the fidelity it scored
    p = dataclasses.replace(
        ex.fig3a_params(1) if family == "fig3a" else ex.fig3b_params(1),
        theta=theta)
    levels = 2
    if family == "raman":
        p, levels = kc.synthesize_raman(p), 3
    space = kc.build_space(n_max=2, n_atoms=1, levels=levels)
    protocol = kc.VProtocol(space, p)
    beta, fidelity = pulses._beta_and_fidelity(
        space, dense_ideal_rotation(space, p),
        numerics.block_diagonal(protocol.forward))
    if fidelity < 0.95:
        with pytest.raises(CalibrationError, match=f"{fidelity:.4f}"):
            kc.calibrate_pulse_phase(protocol)
        return
    cal = kc.calibrate_pulse_phase(protocol)
    assert abs(cal["beta"] - beta) <= 1e-15
    assert abs(cal["fidelity"] - fidelity) <= 1e-15


def test_u_physical_zero_window_limit():
    # theta -> infinity: the middle window vanishes, pulses cancel exactly
    p = kc.SchemeParams(
        g=G, delta1=10 * G, theta=1e6 * G, omega=2.5e7 * G)
    space = kc.build_space(n_max=2, n_atoms=1, levels=2)
    u = u_physical(space, p)
    assert max_abs_diff(u, np.eye(space.dim)) < 1e-6


def test_calibration_finds_pi_and_is_idempotent(pulse_calibration, fig3b_p1):
    cal = pulse_calibration
    assert cal["phi_forward"] == math.pi
    assert cal["fidelity"] > 0.999
    # beta = mu N / 2 plus the small pulse-window linear phase
    assert abs(cal["beta"] - fig3b_p1.mu / 2) < 0.1 * fig3b_p1.mu / 2
    space = kc.build_space(n_max=2, n_atoms=1, levels=2)
    again = kc.calibrate_pulse_phase(kc.VProtocol(space, fig3b_p1))
    assert again == cal


def test_calibration_requires_single_atom_probe(fig3b_p1):
    # one atom on n_max >= 2, and a physical protocol: the others compose no
    # forward sandwich
    for n_max, n_atoms in ((2, 2), (1, 1)):
        space = kc.build_space(n_max=n_max, n_atoms=n_atoms, levels=2)
        with pytest.raises(ValidationError, match="single-atom space with "
                                                  "n_max >= 2"):
            kc.calibrate_pulse_phase(kc.VProtocol(space, fig3b_p1))
    space = kc.build_space(n_max=2, n_atoms=1, levels=2)
    for mode in ("ideal", "rotated_reference"):
        with pytest.raises(ValidationError,
                           match=f"a '{mode}' protocol has none"):
            kc.calibrate_pulse_phase(kc.VProtocol(space, fig3b_p1, mode=mode))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(tier=st.sampled_from(("eliminated", "full")),
       theta=st.floats(0.3, 4.0), theta_sign=st.sampled_from((-1, 1)),
       delta1=st.floats(5.0, 20.0), delta1_sign=st.sampled_from((-1, 1)))
def test_closed_form_phase_maximizes_fidelity(tier, theta, theta_sign,
                                              delta1, delta1_sign):
    # the fidelity modulo a photon-diagonal phase, F(phi), peaks on the 1
    # degree grid at default_forward_phase and is mirror-symmetric about it
    p = kc.SchemeParams(
        g=G, delta1=delta1_sign * delta1 * G, theta=theta_sign * theta * G,
        omega=100 * G)
    levels = 2
    if tier == "full":
        p, levels = kc.synthesize_raman(p), 3
    space = kc.build_space(n_max=2, n_atoms=1, levels=levels)
    target = dense_ideal_rotation(space, p)
    u0 = u_physical(space, p, first_phase=0.0)
    gen = np.diag(kc.collective(space, 0, 0)).real
    if levels == 3:
        gen = gen + np.diag(kc.collective(space, 2, 2)).real

    def fidelity(phi):
        r = np.exp(1j * phi * gen)
        return pulses._beta_and_fidelity(
            space, target, r[:, None] * u0 * r.conj())[1]

    phi0 = pulses.default_forward_phase(p)
    fids = [fidelity(phi) for phi in np.radians(np.arange(360))]
    assert int(np.argmax(fids)) == round(math.degrees(phi0))
    for delta in (0.3, 1.1, 2.0, 3.0):
        assert abs(fidelity(phi0 + delta) - fidelity(phi0 - delta)) < 1e-12


def test_calibration_fidelity_floor(fig3b_p1, monkeypatch):
    monkeypatch.setattr(pulses, "_beta_and_fidelity", lambda *_: (0.0, 0.9))
    space = kc.build_space(n_max=2, n_atoms=1, levels=2)
    with pytest.raises(CalibrationError, match="0.9000"):
        kc.calibrate_pulse_phase(kc.VProtocol(space, fig3b_p1))


def test_inverse_realization_conjugacy(fig3b_p1, pulse_calibration):
    # U_phys(phi_inverse) equals U_phys(phi_forward)^dag up to the shared
    # photon-diagonal phase e^{-2 i beta n}
    space = kc.build_space(n_max=2, n_atoms=1, levels=2)
    cal = pulse_calibration
    u_f = u_physical(space, fig3b_p1, first_phase=cal["phi_forward"])
    u_i = u_physical(space, fig3b_p1, first_phase=cal["phi_inverse"])
    ns = np.diag(kc.number_op(space)).real
    phase = np.exp(-2j * cal["beta"] * ns)
    assert max_abs_diff(u_i, phase[:, None] * u_f.conj().T) < 1e-2


def test_v_at_zero_is_identity(fig3b_p1):
    space = kc.build_space(n_max=2, n_atoms=1, levels=2)
    v = numerics.block_diagonal(
        kc.VProtocol(space, fig3b_p1, mode="ideal").blocks(0.0))
    assert max_abs_diff(v, np.eye(space.dim)) < 1e-12


def test_v_vacuum_amplitude_unit_modulus(fig3b_p1):
    space = kc.build_space(n_max=2, n_atoms=1, levels=2)
    for mode in ("ideal", "physical"):
        proto = kc.VProtocol(space, fig3b_p1, mode=mode)
        times = np.linspace(0, 100 / G, 9)
        amps = amplitude_series(proto, times, 0)
        assert np.abs(np.abs(amps) - 1).max() < 1e-9


def test_v_unitarity(fig3b_p1):
    space = kc.build_space(n_max=3, n_atoms=1, levels=2)
    proto = kc.VProtocol(space, fig3b_p1, mode="physical")
    for t in (0.0, 13.0 / G, 997.0 / G):
        assert numerics.unitarity_defect(
            numerics.block_diagonal(proto.blocks(t))) < 1e-8


def test_v_kerr_phase_n2(fig3b_p1):
    # <2,-|V(t)|2,->: modulus ~ 1, frame-removed phase rate ~ 4 kappa
    p = fig3b_p1
    space = kc.build_space(n_max=3, n_atoms=1, levels=2)
    proto = kc.VProtocol(space, p, mode="physical")
    times = np.linspace(0, 2 * math.pi / p.kappa / 4, 128)
    amps = amplitude_series(proto, times, 2)
    assert np.abs(amps).min() > 0.999
    z = amps * np.exp(1j * (p.stark * 2 * proto.elapsed(times)
                            - p.theta / 2 * times))
    slope = np.polyfit(times, np.unwrap(np.angle(z)), 1)[0]
    assert abs(slope) == pytest.approx(4 * p.kappa, rel=0.02)


def test_v_physical_close_to_ideal(fig3b_p1):
    space = kc.build_space(n_max=3, n_atoms=1, levels=2)
    phys = kc.VProtocol(space, fig3b_p1, mode="physical")
    ideal = kc.VProtocol(space, fig3b_p1, mode="ideal")
    times = np.linspace(0, 2 * math.pi / fig3b_p1.kappa, 33)
    for n in (1, 2):
        a_p = amplitude_series(phys, times, n)
        a_i = amplitude_series(ideal, times, n)
        assert np.abs(np.abs(a_p) - np.abs(a_i)).max() < 0.05


def test_v_leakage_bound(fig3b_result):
    # all-minus start, rotation condition << 1: |+> population stays tiny
    for b in fig3b_result.branches:
        assert b.max_plus_population <= 0.05


def test_rotated_reference_mode(fig3b_p1):
    space = kc.build_space(n_max=3, n_atoms=1, levels=2)
    proto = kc.VProtocol(space, fig3b_p1, mode="rotated_reference")
    p = fig3b_p1
    times = np.linspace(0, 2 * math.pi / p.kappa, 65)
    for n in (1, 2):
        amps = amplitude_series(proto, times, n)
        y = (amps * np.exp(-1j * p.theta / 2 * times)).real
        assert np.abs(np.abs(amps) - 1).max() < 1e-10
        assert np.abs(y - np.cos(p.kappa * n**2 * times)).max() < 1e-10


def _tier_setup(tier, n_atoms, fig3b_p1):
    if tier == "full":
        return (kc.build_space(n_max=2, n_atoms=n_atoms, levels=3),
                kc.synthesize_raman(fig3b_p1))
    return (kc.build_space(n_max=3, n_atoms=n_atoms, levels=2),
            dataclasses.replace(fig3b_p1, n_atoms=n_atoms))


@pytest.mark.parametrize("tier, n_atoms",
                         [("eliminated", 1), ("eliminated", 2), ("full", 1)])
def test_v_closed_form_matches_seven_segment_schedule(fig3b_p1, tier, n_atoms):
    space, p = _tier_setup(tier, n_atoms, fig3b_p1)
    proto = kc.VProtocol(space, p, mode="physical")
    phi_f = pulses.default_forward_phase(p)
    phi_i = phi_f + math.pi
    tp, tau = math.pi / (2 * p.omega), 1 / abs(p.theta)
    props = SegmentPropagators(space, p)
    times = (0.0, 31.0 / G, 2511.0 / G)
    psi0 = kc.basis_state(space, 1, "-" * n_atoms)
    states = proto.states(times, psi0)
    for k, t in enumerate(times):
        # (raman, pulse phase, duration), each factor on the global clock
        segments = [(False, phi_f, tp), (False, None, tau),
                    (False, phi_f + math.pi, tp), (True, None, t),
                    (False, phi_i, tp), (False, None, tau),
                    (False, phi_i + math.pi, tp)]
        ref, clock = np.eye(space.dim), 0.0
        for raman, phase, dt in segments:
            ref = numerics.block_diagonal(
                props.propagator(raman, phase, clock, dt)) @ ref
            clock += dt
        assert max_abs_diff(numerics.block_diagonal(proto.blocks(t)),
                            ref) < 1e-10
        assert max_abs_diff(states[k], ref @ psi0) < 1e-10


@pytest.mark.parametrize("tier", ["eliminated", "full"])
def test_pulse_phase_is_a_diagonal_conjugation(fig3b_p1, tier):
    # U_phys(phi) = R(phi) U_phys(0) R(phi)^dag, R = exp(i phi (S00 + S22))
    space, p = _tier_setup(tier, 1, fig3b_p1)
    gen = kc.collective(space, 0, 0)
    if tier == "full":
        gen = gen + kc.collective(space, 2, 2)
    u0 = u_physical(space, p, first_phase=0.0)
    for phi in (0.4, math.pi, 4.9):
        r = numerics.expm_hermitian(gen, -phi)
        u = u_physical(space, p, first_phase=phi)
        assert max_abs_diff(u, r @ u0 @ r.conj().T) < 1e-12


def test_unknown_v_mode_rejected(fig3b_p1):
    space = kc.build_space(n_max=2, n_atoms=1, levels=2)
    with pytest.raises(ValidationError):
        kc.VProtocol(space, fig3b_p1, mode="nonsense")


def _dense_seven_segment_oracle(space, p, t):
    """V(t) as the product of the seven full-space segment exponentials."""
    phi_f = pulses.default_forward_phase(p)
    phi_i = phi_f + math.pi
    tp, tau = math.pi / (2 * p.omega), 1 / abs(p.theta)
    segments = [(False, phi_f, tp), (False, None, tau),
                (False, phi_f + math.pi, tp), (True, None, t),
                (False, phi_i, tp), (False, None, tau),
                (False, phi_i + math.pi, tp)]
    u = np.eye(space.dim)
    for raman, phase, dt in segments:
        h, _ = models.segment_hamiltonian(space, p, raman, pulse_phase=phase)
        u = numerics.expm_hermitian(h, dt) @ u
    return u


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n_atoms=st.integers(1, 5),
       n=st.integers(0, 2), theta=st.floats(0.5, 4.0),
       theta_sign=st.sampled_from((-1, 1)), t_frac=st.floats(0.0, 1.0))
def test_sector_states_match_dense_oracle(n_atoms, n, theta, theta_sign,
                                          t_frac):
    # V(t) evaluated in one photon-number block, or in the two blocks of a
    # superposition of n = 0 and 2, equals the dense product
    p = kc.SchemeParams(
        g=G, delta1=10 * G, theta=theta_sign * theta * G, omega=100 * G,
        n_atoms=n_atoms)
    space = kc.build_space(n_max=2, n_atoms=n_atoms, levels=2)
    minus = "-" * n_atoms
    mixed = (kc.basis_state(space, 0, minus)
             + kc.basis_state(space, 2, minus)) / math.sqrt(2)
    times = (0.0, t_frac * 2 * math.pi / abs(p.kappa))
    proto = kc.VProtocol(space, p)
    for psi0 in (kc.basis_state(space, n, minus), mixed):
        states = proto.states(times, psi0)
        for k, t in enumerate(times):
            ref = _dense_seven_segment_oracle(space, p, t) @ psi0
            assert max_abs_diff(states[k], ref) < 1e-10


@settings(max_examples=40, deadline=None, derandomize=True)
@given(g=st.floats(1e7, 1e9), delta1=st.floats(5.0, 30.0),
       delta1_sign=st.sampled_from((-1, 1)), theta=st.floats(0.3, 4.0),
       theta_sign=st.sampled_from((-1, 1)), n_atoms=st.integers(1, 5),
       t_frac=st.floats(0.0, 1.0))
def test_v_is_unitary_over_the_kerr_period(g, delta1, delta1_sign, theta,
                                           theta_sign, n_atoms, t_frac):
    p = kc.SchemeParams(
        g=g, delta1=delta1_sign * delta1 * g, theta=theta_sign * theta * g,
        omega=100 * g, n_atoms=n_atoms)
    space = kc.build_space(n_max=2, n_atoms=n_atoms, levels=2)
    t = t_frac * 2 * math.pi / abs(p.kappa)
    diag = kc.VProtocol(space, p).compose_diagnostics(t)
    assert diag["total_unitarity_defect"] < 1e-12


@pytest.mark.parametrize("tier", ["eliminated", "full"])
def test_physical_protocol_makes_three_eigendecompositions(
        fig3b_p1, tier, monkeypatch):
    # pulse (every phase from phase 0), free and Raman-on, each one stack
    space, p = _tier_setup(tier, 2, fig3b_p1)
    shapes = []
    init = numerics.HermitianEigensystem.__init__

    def counting(self, h, *args, **kwargs):
        shapes.append(np.shape(h))
        init(self, h, *args, **kwargs)

    monkeypatch.setattr(numerics.HermitianEigensystem, "__init__", counting)
    kc.VProtocol(space, p)
    sectors = space.photon_dim if tier == "eliminated" else 1
    block = space.dim // sectors
    assert shapes == [(sectors, block, block)] * 3
