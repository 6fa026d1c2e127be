import itertools
import math

import numpy as np
import pytest

import kerrcav as kc
from kerrcav import evolve, models, numerics
from kerrcav.errors import GuardError, ValidationError
from kerrcav.evolve import SegmentPropagators

from conftest import random_hermitian

G = 1e8


def test_number_phase():
    space = kc.build_space(n_max=2, n_atoms=1, levels=2)
    w = 3e7
    h = w * kc.number_op(space)
    t = 2.1e-8
    u = numerics.expm_hermitian(h, t)
    ket1 = kc.basis_state(space, 1, "0")
    amp = ket1.conj() @ (u @ ket1)
    assert abs(amp - np.exp(-1j * w * t)) < 1e-12


def test_zero_time_identity(fig3b_p1):
    space = kc.build_space(n_max=1, n_atoms=1, levels=2)
    h = models.tier_b_hamiltonian(space, fig3b_p1)
    assert numerics.max_abs_diff(
        numerics.expm_hermitian(h, 0.0), np.eye(space.dim)) < 1e-14


def test_tier_b_segment_matches_sector_rabi_formula(fig3b_p1):
    # closed-form 2x2: e^{-i(aI + b sx + c sz)t}
    # = e^{-iat}(cos(wt) I - i sin(wt)(b sx + c sz)/w), w = sqrt(b^2+c^2)
    p = fig3b_p1
    space = kc.build_space(n_max=2, n_atoms=1, levels=2)
    h = models.tier_b_hamiltonian(space, p)
    t = 17.3 / G
    u = numerics.expm_hermitian(h, t)
    x, th = p.stark, p.theta
    sx = np.array([[0, 1], [1, 0]], complex)
    sz = np.array([[1, 0], [0, -1]], complex)
    for n in range(3):
        aa, b, c = x * n, x * n, th / 2
        w = math.hypot(b, c)
        block = np.exp(-1j * aa * t) * (
            math.cos(w * t) * np.eye(2)
            - 1j * math.sin(w * t) * (b * sx + c * sz) / w)
        # convert the +/- block to the 0/1 basis used by the space
        tpm = np.array([[1, 1], [1, -1]], complex) / math.sqrt(2)
        block01 = tpm @ block @ tpm.conj().T
        idx = [space.index(n, k) for k in range(2)]
        assert numerics.max_abs_diff(u[np.ix_(idx, idx)], block01) < 1e-10


def test_timedep_reduces_to_static(fig3b_p1):
    space = kc.build_space(n_max=1, n_atoms=1, levels=3)
    h = models.full_hamiltonian(space, fig3b_p1, 0.0)

    u1 = evolve.propagate_timedep(lambda t: h, 0.0, 3.0 / G, steps=16)
    u2 = numerics.expm_hermitian(h, 3.0 / G)
    assert numerics.max_abs_diff(u1, u2) < 1e-10


def test_step_guard_enforced(fig3b_p1):
    space = kc.build_space(n_max=1, n_atoms=1, levels=3)
    h_func, rate = models.full_hamiltonian_func(space, fig3b_p1)
    with pytest.raises(GuardError, match="need at least"):
        evolve.propagate_timedep(h_func, 0.0, 1.0 / G, steps=3, rate_scale=rate)


def test_midpoint_second_order_convergence(rng):
    # Richardson: error(dt)/error(dt/2) in [3.5, 4.5]
    dim = 4
    h0 = random_hermitian(rng, dim)
    h1 = random_hermitian(rng, dim)
    nu = 2.0

    def h_of_t(t):
        return h0 + math.sin(nu * t) * h1

    t1 = 1.0
    ref = evolve.propagate_timedep(h_of_t, 0.0, t1, 4096)
    err = []
    for steps in (32, 64):
        u = evolve.propagate_timedep(h_of_t, 0.0, t1, steps)
        err.append(numerics.max_abs_diff(u, ref))
    ratio = err[0] / err[1]
    assert 3.5 <= ratio <= 4.5


def _tier_setup(tier, p):
    if tier == "full":
        return kc.build_space(n_max=1, n_atoms=1, levels=3), kc.synthesize_raman(p)
    return kc.build_space(n_max=2, n_atoms=1, levels=2), p


def test_compose_merges_static_segments(fig3b_p1):
    space = kc.build_space(n_max=2, n_atoms=1, levels=2)
    props = SegmentPropagators(space, fig3b_p1, "eliminated")
    t1, t2 = 3.0 / G, 7.0 / G
    u = numerics.block_diagonal(
        props.propagator(True, None, t1, t2) @ props.propagator(True, None, 0.0, t1))
    h = models.tier_b_hamiltonian(space, fig3b_p1)
    assert numerics.max_abs_diff(
        u, numerics.expm_hermitian(h, t1 + t2)) < 1e-10


def test_adjacent_pulse_pair_composes_to_identity():
    # a pulse followed by its phase-conjugate undoes itself; with a fast
    # enough drive the cavity term during the windows is negligible
    p = kc.derive_params(kc.SchemeParams(
        g=G, delta1=10 * G, theta=G, omega=2.5e7 * G))
    space = kc.build_space(n_max=2, n_atoms=1, levels=2)
    props = SegmentPropagators(space, p, "eliminated")
    tp = math.pi / (2 * p.omega)
    phi = 0.7
    u = numerics.block_diagonal(props.propagator(False, phi + math.pi, tp, tp)
                                @ props.propagator(False, phi, 0.0, tp))
    assert numerics.max_abs_diff(u, np.eye(space.dim)) < 1e-6


def test_time_reversal(fig3b_p1):
    space = kc.build_space(n_max=2, n_atoms=1, levels=2)
    props = SegmentPropagators(space, fig3b_p1, "eliminated")
    mats = [numerics.block_diagonal(props.propagator(False, None, 0.0, 4.0 / G)),
            numerics.block_diagonal(props.propagator(True, None, 4.0 / G, 9.0 / G))]
    forward = mats[1] @ mats[0]
    inverse = mats[0].conj().T @ mats[1].conj().T
    assert numerics.max_abs_diff(forward @ inverse, np.eye(space.dim)) < 1e-8


def test_schedule_global_clock(fig3b_p1):
    # a full-tier segment that starts at t0 > 0 matches the time-stepped
    # oscillatory Hamiltonian over [t0, t0 + dt]: the frame runs on the
    # global clock, not on the segment's own
    p = kc.synthesize_raman(fig3b_p1)
    space = kc.build_space(n_max=1, n_atoms=1, levels=3)
    t0, dt = 0.37 / G, 0.05 / G
    u = SegmentPropagators(space, p, "full").propagator(True, None, t0, dt)
    h_func, rate = models.full_hamiltonian_func(space, p, raman=True)
    ref = evolve.propagate_timedep(h_func, t0, t0 + dt, 2000, rate)
    assert numerics.max_abs_diff(u, ref) < 1e-6


def test_framed_segments_respect_global_clock(fig3b_p1):
    # splitting a segment at an interior time changes nothing, on both tiers
    for tier, (raman, phase) in itertools.product(
            ("eliminated", "full"), ((True, None), (False, 0.4))):
        space, p = _tier_setup(tier, fig3b_p1)
        props = SegmentPropagators(space, p, tier)
        t_tot = 0.11 / G
        one = props.propagator(raman, phase, 0.0, t_tot)
        two = props.propagator(raman, phase, 0.3 * t_tot, 0.7 * t_tot) \
            @ props.propagator(raman, phase, 0.0, 0.3 * t_tot)
        assert numerics.max_abs_diff(one, two) < 1e-10


def test_compose_diagnostics(fig3b_p1):
    space = kc.build_space(n_max=2, n_atoms=1, levels=2)
    diag = kc.VProtocol(space, fig3b_p1).compose_diagnostics(31.0 / G)
    assert len(diag["segment_unitarity_defects"]) == 7
    assert max(diag["segment_unitarity_defects"]) < 1e-12
    assert set(diag) == {"segment_unitarity_defects", "total_unitarity_defect"}
    assert diag["total_unitarity_defect"] < 1e-12


def test_norm_preservation_full_benchmark_schedule(fig3b_result):
    for b in fig3b_result.branches:
        norms = np.abs(b.amplitudes)
        assert norms.max() <= 1 + 1e-8
    assert fig3b_result.diagnostics["unitarity_defect"] < 1e-8


def test_sector_blocks_rejects_photon_changing_operator():
    space = kc.build_space(n_max=2, n_atoms=1, levels=2)
    a = kc.annihilation(space)
    with pytest.raises(ValidationError, match="photon-number sectors"):
        evolve.sector_blocks(space, "eliminated", a + a.conj().T,
                             np.zeros(space.dim))


def test_sector_blocks_are_the_diagonal_blocks(fig3b_p1):
    space = kc.build_space(n_max=2, n_atoms=2, levels=2)
    h = models.tier_b_hamiltonian(space, fig3b_p1)
    blocks, g = evolve.sector_blocks(space, "eliminated", h, np.zeros(space.dim))
    assert blocks.shape == (3, 4, 4) and g.shape == (3, 4)
    assert np.array_equal(numerics.block_diagonal(blocks), h)
