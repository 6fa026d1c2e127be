import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kerrcav as kc
from kerrcav import models, numerics
from kerrcav import experiments as ex
from kerrcav.errors import ValidationError

from oracles import (amplitude_series, dense_ideal_rotation,
                     full_hamiltonian_func, index, max_abs_diff,
                     propagate_timedep)

G = 1e8


def test_theta_from_raman_pair():
    p = kc.SchemeParams(g=G, delta1=1e9, lam=1e7, delta2=1e9)
    assert abs(p.theta - 2e5) < 1e-6


def test_fig3b_derived_values(fig3b_p1):
    assert abs(fig3b_p1.kappa - 2.5e5) < 1e-6
    assert abs(fig3b_p1.mu - 0.1) < 1e-15
    assert abs(fig3b_p1.stark - 5e6) < 1e-6


def test_inconsistent_theta_rejected():
    with pytest.raises(ValidationError, match="inconsistent"):
        kc.SchemeParams(
            g=G, delta1=1e9, theta=3e5, lam=1e7, delta2=1e9)


def test_consistent_both_accepted():
    p = kc.SchemeParams(
        g=G, delta1=1e9, theta=2e5, lam=1e7, delta2=1e9)
    assert p.theta == 2e5


def test_zero_rates_rejected():
    with pytest.raises(ValidationError):
        kc.SchemeParams(g=G, delta1=0.0, theta=G)
    with pytest.raises(ValidationError):
        kc.SchemeParams(g=G, delta1=1e9, lam=1e7, delta2=0.0)
    with pytest.raises(ValidationError):
        kc.SchemeParams(g=G, delta1=1e9)


@pytest.mark.parametrize("value", [1e8 + 0j, "1e8", True])
@pytest.mark.parametrize("name", ["g", "delta1", "theta", "lam", "delta2",
                                  "omega", "g_b", "delta1_b", "mode_split"])
def test_a_rate_that_is_not_a_real_number_is_rejected_by_name(name, value):
    with pytest.raises(ValidationError, match=f"^{name} must be a real number"):
        kc.SchemeParams(**{"g": G, "delta1": 10 * G, "theta": G, name: value})


def test_a_complex_sweep_value_is_a_failed_point():
    [point] = ex.sweep("theta", [1e8 + 0j], "fig3b")
    assert point["ok"] is False
    assert point["error"].startswith("theta must be a real number")


RATE = st.builds(lambda m, sign: sign * m, st.floats(1e6, 1e10),
                 st.sampled_from((-1.0, 1.0)))
ATOMS = st.integers(1, 10**6)
# one replacement per settable input of mu and kappa, valid or not
CHANGES = {
    "theta": (st.fixed_dictionaries({"theta": RATE}),
              [{"theta": 0.0}, {"theta": math.inf}, {"theta": math.nan}]),
    "g": (st.fixed_dictionaries({"g": RATE}),
          [{"g": 0.0}, {"g": -math.inf}, {"g": math.nan}]),
    "delta1": (st.fixed_dictionaries({"delta1": RATE}),
               [{"delta1": 0.0}, {"delta1": math.inf}, {"delta1": 1e-300}]),
    "n_atoms": (st.fixed_dictionaries({"n_atoms": ATOMS}),
                [{"n_atoms": 0}, {"n_atoms": 2.0}, {"n_atoms": True}]),
    # the stored theta was derived from the old pair: re-derive it
    "raman": (st.fixed_dictionaries({"lam": RATE, "delta2": RATE,
                                     "theta": st.none()}),
              [{"lam": 1e7, "delta2": 0.0, "theta": None},
               {"lam": math.nan, "delta2": 1e9, "theta": None},
               {"lam": 1e7, "delta2": None}]),
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(g=RATE, delta1=RATE, theta=RATE, n_atoms=ATOMS,
       changed=st.sampled_from(sorted(CHANGES)), data=st.data())
def test_derived_fields_are_never_stale(g, delta1, theta, n_atoms, changed,
                                        data):
    p = kc.SchemeParams(g=g, delta1=delta1, theta=theta, n_atoms=n_atoms)
    valid, invalid = CHANGES[changed]
    q = dataclasses.replace(p, **data.draw(valid, label="change"))
    if changed == "raman":
        assert q.theta == 2 * q.lam**2 / q.delta2
    assert q.mu == q.g**2 / (q.delta1 * q.theta)
    assert q.kappa == q.n_atoms * q.g**4 / (4 * q.delta1**2 * q.theta)
    with pytest.raises(ValidationError):
        dataclasses.replace(p, **data.draw(st.sampled_from(invalid),
                                           label="invalid change"))


def test_derived_fields_cannot_be_passed(fig3b_p1):
    with pytest.raises(TypeError):
        kc.SchemeParams(g=G, delta1=10 * G, theta=G, kappa=1.0)
    with pytest.raises(ValueError):
        dataclasses.replace(fig3b_p1, mu=1.0)


def test_synthesize_raman(fig3b_p1):
    p = kc.synthesize_raman(fig3b_p1)
    assert abs(p.delta2 + 9 * p.delta1) < 1e-3
    assert abs(p.delta2 - p.delta1) == pytest.approx(10 * p.delta1)
    # realized theta flips sign (lam is real, delta2 opposite to delta1)
    assert abs(2 * p.lam**2 / p.delta2 - p.theta) < 1e-3 * abs(p.theta)
    assert p.theta == pytest.approx(-fig3b_p1.theta)


def test_full_hamiltonian_phases_off_at_t0(fig3b_p1):
    space = kc.build_space(n_max=2, n_atoms=1, levels=3)
    h = models.full_hamiltonian(space, fig3b_p1, 0.0)
    a = kc.annihilation(space)
    s20 = kc.collective(space, 2, 0)
    expected = fig3b_p1.g * (a @ s20 + (a @ s20).conj().T)
    assert max_abs_diff(h, expected) < 1e-9


def test_full_hamiltonian_matrix_element(fig3b_p1):
    space = kc.build_space(n_max=1, n_atoms=1, levels=3)
    p = kc.synthesize_raman(fig3b_p1)
    for t in (0.0, 1.3e-8, 4.1e-8):
        h = models.full_hamiltonian(space, p, t, raman=True)
        i = index(space, 0, space.atomic_basis.index((0, 0, 1)))
        j = index(space, 1, space.atomic_basis.index((1, 0, 0)))
        assert abs(h[i, j] - p.g * np.exp(-1j * p.delta1 * t)) < 1e-6
        assert numerics.hermiticity_defect(h) < 1e-12 * np.abs(h).max()



def test_integrator_rate_counts_a_pulse_of_either_sign(fig3b_p1):
    # a drive of Rabi frequency -omega is as fast as one of +omega, so the
    # step guard must resolve both
    p = kc.synthesize_raman(dataclasses.replace(fig3b_p1, omega=1e4 * G))
    space = kc.build_space(n_max=1, n_atoms=1, levels=3)
    rates = [full_hamiltonian_func(
        space, dataclasses.replace(p, omega=omega), pulse_phase=0.0)[1]
        for omega in (p.omega, -p.omega)]
    assert rates == [1e4 * G] * 2

def test_static_frame_eigenvalues_real_and_raman_off_form(fig3b_p1):
    space = kc.build_space(n_max=2, n_atoms=1, levels=3)
    hop, _ = models.static_frame_hamiltonian(space, fig3b_p1, raman=False)
    w = np.linalg.eigvalsh(hop)
    assert np.all(np.isfinite(w))
    # raman-off convention: G = delta1 * S22, H' = g(a S20 + h.c.) - delta1 S22
    a = kc.annihilation(space)
    s20 = kc.collective(space, 2, 0)
    s22 = kc.collective(space, 2, 2)
    expected = fig3b_p1.g * (a @ s20 + (a @ s20).conj().T) \
        - fig3b_p1.delta1 * s22
    assert max_abs_diff(hop, expected) < 1e-6


def test_static_frame_matches_time_stepped_oracle(fig3b_p1):
    # the frame construction is validated against direct integration
    p = kc.synthesize_raman(fig3b_p1)
    space = kc.build_space(n_max=2, n_atoms=1, levels=3)
    hop, g = models.static_frame_hamiltonian(space, p, raman=True)
    h_func, rate = full_hamiltonian_func(space, p, raman=True)
    t1 = 0.05 / G
    eig = numerics.HermitianEigensystem(hop)
    u_exact = np.exp(-1j * g * t1)[:, None] * eig.propagator(t1)
    u_step = propagate_timedep(h_func, 0.0, t1, 2000, rate)
    assert max_abs_diff(u_exact, u_step) < 1e-6


def test_static_frame_stark_sign_matches_eliminated_tier(fig3b_p1):
    # second-order shift of |0, n=1> in the framed model is +g^2/delta1
    space = kc.build_space(n_max=1, n_atoms=1, levels=3)
    hop, _ = models.static_frame_hamiltonian(space, fig3b_p1, raman=False)
    w, v = np.linalg.eigh(hop)
    i = index(space, 1, space.atomic_basis.index((1, 0, 0)))
    overlaps = np.abs(v[i, :]) ** 2
    shift = w[np.argmax(overlaps)]
    expected = fig3b_p1.g**2 / fig3b_p1.delta1
    assert abs(shift - expected) < 0.02 * expected


def test_tier_b_raman_off_form(fig3b_p1):
    space = kc.build_space(n_max=3, n_atoms=2, levels=2)
    h = models.tier_b_hamiltonian(space, fig3b_p1, raman=False)
    n = kc.number_op(space)
    s00 = kc.collective(space, 0, 0)
    expected = (fig3b_p1.g**2 / fig3b_p1.delta1) * (n @ s00)
    assert max_abs_diff(h, expected) < 1e-6
    assert numerics.hermiticity_defect(h) < 1e-12 * np.abs(h).max()


def test_tier_b_sector_eigenvalues(fig3b_p1):
    # per photon sector (N=1): eigenvalues of [[2xn, Th/2], [Th/2, 0]]
    p = fig3b_p1
    space = kc.build_space(n_max=1, n_atoms=1, levels=2)
    h = models.tier_b_hamiltonian(space, p)
    x, th = p.stark, p.theta
    got = np.sort(np.linalg.eigvalsh(h))
    expected = []
    for n in range(2):
        root = math.sqrt((x * n) ** 2 + th**2 / 4)
        expected += [x * n - root, x * n + root]
    assert max_abs_diff(got, np.sort(expected)) < 1e-3


def test_tier_b_rejects_three_level_space(fig3b_p1):
    space = kc.build_space(n_max=1, n_atoms=1, levels=3)
    with pytest.raises(ValidationError):
        models.tier_b_hamiltonian(space, fig3b_p1)


def test_h1int_vacuum_sector(fig3b_p1):
    space = kc.build_space(n_max=2, n_atoms=2, levels=2)
    h = models.effective_hamiltonian(space, fig3b_p1, "h1int")
    s3 = kc.s3(space)
    d = space.atomic_dim
    assert max_abs_diff(
        h[:d, :d], (fig3b_p1.theta / 2) * s3[:d, :d]) < 1e-9


def test_hrot_second_term_magnitude(fig3b_p1):
    # |<1,-|H_rot|1,-> + theta/2| = kappa = 2.5e5 at the benchmark rates
    space = kc.build_space(n_max=2, n_atoms=1, levels=2)
    h = models.effective_hamiltonian(space, fig3b_p1, "hrot")
    minus = kc.basis_state(space, 1, "-")
    diag = (minus.conj() @ h @ minus).real
    assert abs(abs(diag + fig3b_p1.theta / 2) - 2.5e5) < 1e-3


def test_kerr_diagonal(fig3b_p1):
    space = kc.build_space(n_max=3, n_atoms=1, levels=2)
    h = models.effective_hamiltonian(space, fig3b_p1, "kerr")
    coeff = fig3b_p1.g**4 / (4 * fig3b_p1.delta1**2 * fig3b_p1.theta)
    for n in range(4):
        minus = kc.basis_state(space, n, "-")
        val = (minus.conj() @ h @ minus).real
        assert abs(val - (-coeff * n**2)) < 1e-6


def test_hausdorff_residual_scaling():
    # || U^dag H1int U - H_rot || ~ r^4 over r in [0.01, 0.1]
    space = kc.build_space(n_max=3, n_atoms=1, levels=2)
    theta, delta1 = 1e8, 1e9
    rs = np.geomspace(0.01, 0.1, 6)
    resid = []
    for r in rs:
        g = math.sqrt(2 * delta1 * r * theta)
        p = kc.SchemeParams(g=g, delta1=delta1, theta=theta,
                            omega=1e12)
        u = dense_ideal_rotation(space, p)
        h = models.effective_hamiltonian(space, p, "h1int")
        hrot = models.effective_hamiltonian(space, p, "hrot")
        resid.append(np.abs(u.conj().T @ h @ u - hrot).max())
    slope = np.polyfit(np.log(rs), np.log(resid), 1)[0]
    assert slope >= 3.5


def test_rotation_cancels_linear_flip_term(fig3b_p1):
    # the defining property of the canonical rotation
    space = kc.build_space(n_max=2, n_atoms=1, levels=2)
    u = dense_ideal_rotation(space, fig3b_p1)
    h = models.effective_hamiltonian(space, fig3b_p1, "h1int")
    hr = u.conj().T @ h @ u
    plus1 = kc.basis_state(space, 1, "+")
    minus1 = kc.basis_state(space, 1, "-")
    flip_rotated = abs(plus1.conj() @ hr @ minus1)
    flip_raw = abs(plus1.conj() @ h @ minus1)
    assert flip_raw == pytest.approx(fig3b_p1.stark, rel=1e-9)
    assert flip_rotated < 5e-3 * flip_raw


def test_dispersive_two_level_form(fig3b_p1):
    space = kc.build_space(n_max=2, n_atoms=2, levels=2)
    h = models.effective_hamiltonian(space, fig3b_p1, "dispersive_two_level")
    p = fig3b_p1
    ket = kc.basis_state(space, 2, "00")
    val = (ket.conj() @ h @ ket).real
    nn = p.n_atoms
    expected = (nn * p.g**2 / p.delta1) * 2 * 2 \
        + (nn * p.g**4 / p.delta1**3) * 4 * 2
    assert abs(val - expected) < 1e-6


def test_resonant_driven_form(fig3b_p1):
    space = kc.build_space(n_max=2, n_atoms=1, levels=2)
    h = models.effective_hamiltonian(space, fig3b_p1, "resonant_driven")
    p = fig3b_p1
    minus = kc.basis_state(space, 1, "-")
    val = (minus.conj() @ h @ minus).real
    expected = -(p.n_atoms * p.g**2 / p.delta1) \
        - (p.n_atoms * p.g**4 / (p.delta1**2 * p.omega))
    assert abs(val - expected) < 1e-6
    n = kc.number_op(space)
    assert max_abs_diff(h @ n, n @ h) < 1e-9


def test_tier_consistency_eigenphases(fig3b_p1):
    # per-sector reduced Tier B energies match the Kerr prediction -kappa n^2
    # within 3 xi_n^2, xi_n = sqrt(N) x n / theta (the sector's own small
    # parameter; at n photons the flip coupling is x n)
    p = fig3b_p1
    space = kc.build_space(n_max=3, n_atoms=1, levels=2)
    h = models.tier_b_hamiltonian(space, p)
    x, th = p.stark, p.theta
    for n in range(1, 4):
        idx = [index(space, n, k) for k in range(space.atomic_dim)]
        block = h[np.ix_(idx, idx)]
        w = np.linalg.eigvalsh(block)
        e_minus = w.min()
        reduced = e_minus - x * n + th / 2
        xi = x * n / th
        assert abs(reduced + p.kappa * n**2) <= 3 * xi**2 * (p.kappa * n**2)


def test_full_vs_eliminated_overlap_agreement():
    # X series of the two tiers agree within 0.05 once every ratio <= 0.05
    p = kc.synthesize_raman(kc.SchemeParams(
        g=G, delta1=20 * G, theta=G, omega=100 * G, n_atoms=1))
    report = kc.check(p, {"default": 0.06, "separation": 0.08})
    for name in ("dispersive_cavity", "dispersive_laser", "separation",
                 "second_dispersive", "rot_condition"):
        assert report["ratios"][name]["status"] == "pass"
    space_a = kc.build_space(n_max=3, n_atoms=1, levels=3)
    space_b = kc.build_space(n_max=3, n_atoms=1, levels=2)
    proto_a = kc.VProtocol(space_a, p, mode="physical")
    proto_b = kc.VProtocol(space_b, p, mode="physical")
    times = np.linspace(0, 2 * math.pi / abs(p.kappa), 33)
    for n in (1, 2):
        xa = np.abs(amplitude_series(proto_a, times, n))
        xb = np.abs(amplitude_series(proto_b, times, n))
        assert np.abs(xa - xb).max() < 0.05


def test_cross_effective_polarization_coefficient():
    # cross term +2 (g/20)^2 / g = 5e5 on the all-minus sector
    p = ex.cross_params("polarization")
    space = kc.build_space(n_max=1, n_atoms=1, levels=2, n_modes=2)
    h = models.effective_hamiltonian(space, p, "kerr")
    vals = {}
    for occ in ((0, 0), (0, 1), (1, 0), (1, 1)):
        ket = kc.basis_state(space, occ, "-")
        vals[occ] = (ket.conj() @ h @ ket).real
    cross = vals[(1, 1)] - vals[(1, 0)] - vals[(0, 1)] + vals[(0, 0)]
    assert abs(cross - 5e5) < 1e-3


def test_cross_toroidal_degenerate_limit():
    p = ex.cross_params("toroidal")  # mode_split = 0
    space = kc.build_space(n_max=1, n_atoms=1, levels=2, n_modes=2)
    h = models.effective_hamiltonian(space, p, "kerr")
    a_coeff = p.g**2 / (2 * p.delta1)
    quad = a_coeff * (kc.number_op(space, 0)
                      + kc.number_op(space, 1))
    expected = (quad @ quad @ kc.s3(space)) / p.theta
    assert max_abs_diff(h, expected) < 1e-6


def test_cross_effective_commutes_with_photon_numbers():
    p = ex.cross_params("polarization")
    space = kc.build_space(n_max=1, n_atoms=1, levels=2, n_modes=2)
    h = models.effective_hamiltonian(space, p, "kerr")
    for mode in (0, 1):
        n = kc.number_op(space, mode)
        assert max_abs_diff(h @ n, n @ h) < 1e-9


def test_cross_full_hermitian_and_couplings():
    p = kc.synthesize_raman(ex.cross_params("polarization"))
    space = kc.build_space(n_max=1, n_atoms=1, levels=3, n_modes=2)
    h = models.full_hamiltonian(space, p, 2.0e-9, raman=True)
    assert numerics.hermiticity_defect(h) < 1e-12 * np.abs(h).max()
    # mode b couples 1 <-> 2: <(0,0), 2| H |(0,1), 1> = g_b e^{-i delta1_b t}
    i = index(space, (0, 0), space.atomic_basis.index((0, 0, 1)))
    j = index(space, (0, 1), space.atomic_basis.index((0, 1, 0)))
    assert abs(h[i, j] - p.g_b * np.exp(-1j * p.delta1_b * 2.0e-9)) < 1e-3


def test_cross_missing_parameters_rejected(fig3b_p1):
    space = kc.build_space(n_max=1, n_atoms=1, levels=2, n_modes=2)
    with pytest.raises(ValidationError):
        models.effective_hamiltonian(space, fig3b_p1, "kerr")


def test_every_builder_is_hermitian(fig3b_p1):
    p = kc.synthesize_raman(fig3b_p1)
    space3 = kc.build_space(n_max=2, n_atoms=2, levels=3)
    space2 = kc.build_space(n_max=2, n_atoms=2, levels=2)
    mats = [
        models.full_hamiltonian(space3, p, 0.7e-8, raman=True, pulse_phase=0.0),
        models.static_frame_hamiltonian(space3, p, raman=True)[0],
        models.tier_b_hamiltonian(space2, p, pulse_phase=0.0),
        models.effective_hamiltonian(space2, p, "h1int"),
        models.effective_hamiltonian(space2, p, "hrot"),
        models.effective_hamiltonian(space2, p, "kerr"),
    ]
    two2 = kc.build_space(n_max=1, n_atoms=2, levels=2, n_modes=2)
    two3 = kc.build_space(n_max=1, n_atoms=2, levels=3, n_modes=2)
    for variant in ("polarization", "toroidal"):
        pc = kc.synthesize_raman(ex.cross_params(variant))
        mats += [
            models.full_hamiltonian(two3, pc, 0.7e-8, raman=True,
                                    pulse_phase=0.0),
            models.tier_b_hamiltonian(two2, pc, pulse_phase=0.0),
            models.effective_hamiltonian(two2, pc, "kerr"),
        ]
    for m in mats:
        assert numerics.hermiticity_defect(m) <= 1e-12 * max(np.abs(m).max(), 1)


def test_every_builder_returns_a_complex128_square_ndarray(fig3b_p1):
    # operators are plain ndarrays; complex128 throughout keeps every
    # downstream product, and so the emitted numbers, bit-for-bit stable
    p = kc.synthesize_raman(fig3b_p1)
    space2 = kc.build_space(n_max=2, n_atoms=2, levels=2)
    space3 = kc.build_space(n_max=1, n_atoms=2, levels=3)
    built = [
        (space2, kc.annihilation(space2)), (space2, kc.number_op(space2)),
        (space3, kc.collective(space3, 2, "+")), (space2, kc.s3(space2)),
        (space3, models.full_hamiltonian(space3, p, 0.3e-8, raman=True,
                                         pulse_phase=0.0)),
        (space3, models.static_frame_hamiltonian(space3, p, raman=True)[0]),
        (space3, models.segment_hamiltonian(space3, p, True)[0]),
        (space2, models.segment_hamiltonian(space2, p, False,
                                            pulse_phase=0.4)[0]),
        (space2, models.tier_b_hamiltonian(space2, p, pulse_phase=0.0)),
        (space2, models.rotation_generator(space2, p)),
    ]
    built += [(space2, models.effective_hamiltonian(space2, p, kind))
              for kind in models.EFFECTIVE_KINDS]
    two2 = kc.build_space(n_max=1, n_atoms=1, levels=2, n_modes=2)
    two3 = kc.build_space(n_max=1, n_atoms=1, levels=3, n_modes=2)
    for variant in ("polarization", "toroidal"):
        pc = kc.synthesize_raman(ex.cross_params(variant))
        built += [
            (two3, models.full_hamiltonian(two3, pc, 0.0, raman=True,
                                           pulse_phase=0.0)),
            (two2, models.tier_b_hamiltonian(two2, pc, pulse_phase=0.0)),
            (two2, models.segment_hamiltonian(two2, pc, True)[0]),
            (two2, models.effective_hamiltonian(two2, pc, "kerr")),
        ]
    for space, m in built:
        assert type(m) is np.ndarray
        assert m.dtype == np.complex128
        assert m.shape == (space.dim, space.dim)


def test_spec_flag_validation(fig3b_p1):
    # a two-level space runs the eliminated tier, which is static, so its
    # frame is zero
    space = kc.build_space(n_max=1, n_atoms=1, levels=2)
    h, g = models.segment_hamiltonian(space, fig3b_p1, True)
    assert max_abs_diff(
        h, models.tier_b_hamiltonian(space, fig3b_p1)) == 0
    assert not g.any()
    # a three-level space runs the full tier: g = (D2 - D1) n + D2 S22, with
    # D2 := D1 when the Raman pair is off, and H' = H(0) - diag(g)
    p = kc.synthesize_raman(fig3b_p1)
    space3 = kc.build_space(n_max=1, n_atoms=2, levels=3)
    n = np.diag(kc.number_op(space3))
    s22 = np.diag(kc.collective(space3, 2, 2))
    for raman, d2 in ((False, p.delta1), (True, p.delta2)):
        h, g = models.segment_hamiltonian(space3, p, raman, pulse_phase=0.4)
        hop, g_frame = models.static_frame_hamiltonian(
            space3, p, raman, pulse_phase=0.4)
        assert max_abs_diff(h, hop) == 0
        assert max_abs_diff(g, g_frame) == 0
        assert g.dtype == np.float64 and g.shape == (space3.dim,)
        assert max_abs_diff(g, (d2 - p.delta1) * n + d2 * s22) == 0
        h0 = models.full_hamiltonian(space3, p, 0.0, raman, pulse_phase=0.4)
        assert max_abs_diff(hop, h0 - np.diag(g)) == 0


@pytest.mark.parametrize("n_modes, build", [
    (1, lambda sp, p: models.full_hamiltonian(sp, p, 0.0, raman=True)),
    (1, lambda sp, p: full_hamiltonian_func(sp, p, raman=True)),
    (1, lambda sp, p: models.static_frame_hamiltonian(sp, p, raman=True)),
    (1, lambda sp, p: models.segment_hamiltonian(sp, p, True)),
    (2, lambda sp, p: models.full_hamiltonian(
        sp, dataclasses.replace(p, g_b=p.g, delta1_b=p.delta1 / 2), 0.0,
        raman=True)),
], ids=["full", "full_func", "static_frame", "segment", "cross_full"])
def test_raman_on_without_a_raman_pair_is_rejected_by_name(fig3b_p1, n_modes,
                                                           build):
    # fig3b_p1 gives theta alone; a three-level Raman drive needs the pair
    space = kc.build_space(n_max=1, n_atoms=1, levels=3, n_modes=n_modes)
    assert fig3b_p1.lam is None
    with pytest.raises(ValidationError, match=re.escape(
            "a Raman-on three-level segment needs lam and delta2 "
            "(use synthesize_raman)")):
        build(space, fig3b_p1)


@pytest.mark.parametrize("call", [
    lambda sp2, sp3, p: models.segment_hamiltonian(sp2, p, "eliminated", True),
    lambda sp2, sp3, p: models.tier_b_hamiltonian(sp2, p, True, True),
    lambda sp2, sp3, p: kc.VProtocol(sp3, p, "physical", "full"),
], ids=["segment_hamiltonian", "tier_b_hamiltonian", "VProtocol"])
def test_a_tier_or_pulse_flag_is_no_positional_argument(fig3b_p1, call):
    # the space names the tier and the phase names the pulse: a positional
    # True is not taken as a 1 rad phase, nor a tier name as a flag
    space2 = kc.build_space(n_max=1, n_atoms=1, levels=2)
    space3 = kc.build_space(n_max=1, n_atoms=1, levels=3)
    with pytest.raises(TypeError):
        call(space2, space3, kc.synthesize_raman(fig3b_p1))


@pytest.mark.parametrize("overrides, message", [
    ({"mode_split": 0.0}, "exactly one of delta1_b"),
    ({"delta1_b": None}, "exactly one of delta1_b"),
    ({"g_b": None}, "the polarization mode b needs g_b"),
    ({"g_b": None, "delta1_b": None, "mode_split": 1e8},
     "the toroidal mode b needs g_b"),
])
def test_mode_couplings_reject_an_ill_named_mode_b(overrides, message):
    p = dataclasses.replace(ex.cross_params("polarization"), **overrides)
    with pytest.raises(ValidationError, match=message):
        models.mode_couplings(p)


def test_mode_couplings_name_each_mode(fig3b_p1):
    assert models.mode_couplings(fig3b_p1) == ((G, 10 * G, 0, 1.0),)
    pol = ex.cross_params("polarization")
    assert models.mode_couplings(pol) == ((G, 10 * G, 0, 1.0),
                                          (G, 10 * G, 1, -1.0))
    tor = dataclasses.replace(ex.cross_params("toroidal"), mode_split=3e8)
    assert models.mode_couplings(tor) == ((G, 7e8, 0, 1.0),
                                          (G, 1.3e9, 0, 1.0))


@pytest.mark.parametrize("variant", ["polarization", "toroidal"])
def test_the_eliminated_tier_sums_the_modes(variant):
    # H1 = sum_m (g_m^2/D_m) n_m Sll_m + (theta/2)(S01 + S10)
    p = dataclasses.replace(ex.cross_params(variant), g_b=2 * G,
                            **({"delta1_b": 7e8} if variant == "polarization"
                               else {"mode_split": 3e8}))
    space = kc.build_space(n_max=1, n_atoms=2, levels=2, n_modes=2)
    s01 = kc.collective(space, 0, 1)
    want = (p.theta / 2) * (s01 + s01.conj().T)
    for mode, (g, d, lower, _) in enumerate(models.mode_couplings(p)):
        want = want + (g**2 / d) * (kc.number_op(space, mode)
                                    @ kc.collective(space, lower, lower))
    h, frame = models.segment_hamiltonian(space, p, True)
    assert max_abs_diff(h, want) <= 1e-9 * np.abs(want).max()
    assert not frame.any()


def _two_mode_spaces():
    return (kc.build_space(n_max=1, n_atoms=1, levels=2, n_modes=2),
            kc.build_space(n_max=1, n_atoms=1, levels=3, n_modes=2))


@pytest.mark.parametrize("build", [
    lambda sp2, sp3, p: models.effective_hamiltonian(sp2, p, "h1int"),
    lambda sp2, sp3, p: models.effective_hamiltonian(sp2, p, "hrot"),
    lambda sp2, sp3, p: models.effective_hamiltonian(
        sp2, p, "dispersive_two_level"),
    lambda sp2, sp3, p: models.effective_hamiltonian(
        sp2, p, "resonant_driven"),
    lambda sp2, sp3, p: models.rotation_generator(sp2, p),
    lambda sp2, sp3, p: models.static_frame_hamiltonian(sp3, p),
    lambda sp2, sp3, p: models.segment_hamiltonian(sp3, p, False),
], ids=["h1int", "hrot", "dispersive_two_level", "resonant_driven",
        "rotation_generator", "static_frame", "segment_three_level"])
def test_single_mode_builders_reject_a_two_mode_space_by_name(build):
    # they would build mode a alone and drop mode b without a word
    with pytest.raises(ValidationError, match="one-mode space, got 2 modes"):
        build(*_two_mode_spaces(), ex.cross_params("polarization"))


def test_a_tier_builder_rejects_a_space_with_other_modes(fig3b_p1):
    one = kc.build_space(n_max=1, n_atoms=1, levels=2)
    for space, p in ((_two_mode_spaces()[0], fig3b_p1),
                     (one, ex.cross_params("toroidal"))):
        with pytest.raises(ValidationError, match="cavity mode"):
            models.tier_b_hamiltonian(space, p)
