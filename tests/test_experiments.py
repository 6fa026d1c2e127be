import dataclasses
import faulthandler
import functools
import json
import math
import os
import pathlib
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kerrcav as kc
from kerrcav import cli, experiments as ex, models, numerics, pulses
from kerrcav.errors import KerrcavError, ValidationError, WorkerError

from test_golden import ATOL, GOLDEN

G = 1e8


def test_fig3b_headline_branch(fig3b_result):
    b = fig3b_result.branch(1, 1)
    assert b.max_abs_error <= 0.15
    # t = 0: exact identity up to residual pulse-window effects
    assert abs(b.y[0] - 1.0) < 1e-4
    assert abs(b.reference[0] - 1.0) == 0


def test_fig3b_all_branches_tight(fig3b_result):
    for b in fig3b_result.branches:
        assert b.max_abs_error <= 0.15
        assert b.x.max() <= 1 + 1e-8
        assert np.all(np.abs(b.y) <= 1 + 1e-8)


def test_fig3b_branch_count_and_grid(fig3b_result):
    assert len(fig3b_result.branches) == 4
    for b in fig3b_result.branches:
        assert len(b.times) == 512
        p = kc.SchemeParams(
            g=G, delta1=10 * G, theta=G, n_atoms=b.n_atoms)
        assert b.times[-1] == pytest.approx(2 * math.pi / p.kappa)


def test_fig3b_frequency_ratio(fig3b_result):
    b1 = fig3b_result.branch(1, 1)
    b2 = fig3b_result.branch(1, 2)
    ratio = b2.freq_fit / b1.freq_fit
    assert 3.8 <= ratio <= 4.2


def test_fig3b_shared_calibration_still_reasonable(fig3b_result_shared):
    # with one n=1-calibrated rate per N, the intrinsic dressed-frequency
    # drift of the n=2 branches remains visible (~0.2 over the full window)
    for b in fig3b_result_shared.branches:
        if b.n_photons == 1:
            assert b.max_abs_error <= 0.05
        else:
            assert b.max_abs_error <= 0.30
    b2 = fig3b_result_shared.branch(1, 2)
    assert b2.max_abs_error > 0.1     # documents why per_branch is the default


def test_fig3b_calibrated_rates_near_expected(fig3b_result):
    for b in fig3b_result.branches:
        assert b.r_lin_expected == pytest.approx(
            b.n_atoms * 5e6, rel=1e-12)
        assert abs(b.r_lin - b.r_lin_expected) <= 0.01 * b.r_lin_expected


def test_probe_branch_rate_is_the_shared_rate(fig3b_result, monkeypatch):
    # per_branch calibration takes the probe branch's rate from the shared
    # scan instead of repeating it: one rate scan fewer per atom number
    cal = fig3b_result.calibration
    for N in (1, 2):
        assert cal["r_lin"][f"N={N},n=1"] == cal["r_lin_shared"][str(N)]
    best_rate, calls = ex._best_rate, []
    monkeypatch.setattr(
        ex, "_best_rate", lambda *a: calls.append(a[3]) or best_rate(*a))
    ex.run_fig3b(grid_points=64)
    assert sorted(calls) == [1, 1, 2, 2]
    calls.clear()
    ex.run_fig3a(grid_points=64)
    assert calls == [2, 2]


def _unpruned_best_rate(amps, times, elapsed, n, theta_rate, reference, r0):
    """The rate fit with every objective value taken on the whole grid."""

    def objective(r):
        return float(np.abs(ex._frame_removed(
            amps, elapsed, n, theta_rate * times, r).real - reference).max())

    if n == 0 or r0 == 0:
        return r0, objective(r0), False
    half = ex.RATE_BRACKET * abs(r0)
    grid = np.linspace(r0 - half, r0 + half, ex.RATE_COARSE_POINTS)
    devs = np.array([objective(r) for r in grid])
    slack = devs.min() + max(0.01, 0.5 * devs.min())
    candidates = np.flatnonzero(devs <= slack)
    i = int(candidates[np.argmin(np.abs(grid[candidates] - r0))])
    flagged = i in (0, len(grid) - 1)
    lo = grid[max(0, i - 1)]
    hi = grid[min(len(grid) - 1, i + 1)]
    for _ in range(ex.RATE_REFINE_ITERS):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if objective(m1) <= objective(m2):
            hi = m2
        else:
            lo = m1
    r = 0.5 * (lo + hi)
    return float(r), objective(r), flagged


@settings(max_examples=100, deadline=None, derandomize=True)
@given(points=st.sampled_from((2, 3, 64, 512)), n=st.integers(1, 3),
       log_phase=st.floats(0.0, 5.0), sign=st.sampled_from((-1, 1)),
       rate_ratio=st.floats(0.05, 1.0), offset=st.floats(-0.15, 0.15),
       kerr=st.floats(0.0, 20.0), noise=st.floats(0.0, 0.3),
       seed=st.integers(0, 2**32 - 1))
def test_best_rate_matches_unpruned_scan(points, n, log_phase, sign,
                                         rate_ratio, offset, kerr, noise,
                                         seed):
    # theta_rate T spans 1 to 1e5 rad; the amplitudes carry a photon-linear
    # phase near (sometimes outside) the bracket, a Kerr phase and noise
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 1.0, points)
    elapsed = times + rng.uniform(0.0, 0.1)
    theta_rate = sign * 10**log_phase
    r0 = rate_ratio * theta_rate
    r_true = r0 * (1 + offset)
    amps = (1 + noise * rng.uniform(-1, 1, points)) * np.exp(1j * (
        theta_rate * times - r_true * n * elapsed + kerr * n**2 * times
        + noise * rng.uniform(-1, 1, points)))
    reference = np.cos(kerr * n**2 * times)
    args = (amps, times, elapsed, n, theta_rate, reference, r0)
    assert ex._best_rate(*args) == _unpruned_best_rate(*args)


def test_best_rate_matches_unpruned_scan_on_branch_series(monkeypatch):
    # every fit of fig3b, fig3a and fig3a at theta = 4e8, where the phases
    # reach ~4e4 rad, gives the same rate, objective and flag bit for bit
    best_rate, calls = ex._best_rate, []
    monkeypatch.setattr(
        ex, "_best_rate", lambda *a: calls.append(a) or best_rate(*a))
    ex.run_fig3b()
    ex.run_fig3a()
    ex.run_fig3a({"theta": 4e8})
    assert len(calls) == 8
    for args in calls:
        assert best_rate(*args) == _unpruned_best_rate(*args)


def test_rate_fit_exits_once_its_bracket_is_fixed(monkeypatch):
    # with no cap on the refinement, each of fig3b's fits still returns
    # what it returns at the default cap: the loop ends once lo and hi stop
    # moving, and the fit still equals the whole-grid oracle
    best_rate, calls = ex._best_rate, []
    monkeypatch.setattr(
        ex, "_best_rate", lambda *a: calls.append(a) or best_rate(*a))
    ex.run_fig3b()
    assert len(calls) == 4 and ex.RATE_REFINE_ITERS == 80
    capped = [best_rate(*args) for args in calls]
    for args, fit in zip(calls, capped):
        assert fit == _unpruned_best_rate(*args)
    monkeypatch.setattr(ex, "RATE_REFINE_ITERS", 10**6)
    faulthandler.dump_traceback_later(60, exit=True)    # a hang ends the run
    try:
        assert [best_rate(*args) for args in calls] == capped
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.mark.parametrize("name, value", [
    ("RATE_BOUND_STRIDE", 8), ("RATE_BOUND_STRIDE", 64),
    ("RATE_BATCH_LIVE", 16), ("RATE_BATCH_LIVE", 64),
    ("RATE_BATCH_DEPTH", 1), ("RATE_BATCH_DEPTH", 4)])
def test_rate_fit_does_not_depend_on_its_schedule(monkeypatch, name, value):
    # the stride, the batching threshold and the batch depth only decide
    # which points and probes are scored when: every deviation is bit-equal
    # to its whole-grid value and every maximum is exact, so the fits of
    # fig3b, fig3a, the scaling call and n1_shared return the same bits
    best_rate, calls = ex._best_rate, []
    monkeypatch.setattr(
        ex, "_best_rate", lambda *a: calls.append(a) or best_rate(*a))
    ex.run_fig3b()
    ex.run_fig3a()
    ex.run_fig3b(branches=((8, 1), (16, 1), (32, 1), (48, 1)))
    ex.run_fig3b(frame_calibration="n1_shared")
    assert len(calls) == 12

    def bits(fits):
        return [(r.hex(), dev.hex(), flagged) for r, dev, flagged in fits]

    default = bits(best_rate(*args) for args in calls)
    monkeypatch.setattr(ex, name, value)
    assert bits(best_rate(*args) for args in calls) == default


def _synthetic_fit(points, r0=-40.0, offset=0.03, noise=0.0, n=1, seed=7):
    """Fit inputs drawn like the hypothesis test's: a photon-linear phase at
    r0 (1 + offset), a Kerr phase and ``noise`` on modulus and phase."""
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 1.0, points)
    elapsed = times + 0.05
    theta_rate = 3 * abs(r0)
    amps = (1 + noise * rng.uniform(-1, 1, points)) * np.exp(1j * (
        theta_rate * times - r0 * (1 + offset) * n * elapsed
        + 4 * n**2 * times + noise * rng.uniform(-1, 1, points)))
    return amps, times, elapsed, n, theta_rate, np.cos(4 * n**2 * times), r0


@pytest.mark.parametrize("points", [6, 40, 512])
@pytest.mark.parametrize("iters", range(1, 10))
def test_best_rate_matches_unpruned_scan_at_every_refinement_cap(
        monkeypatch, iters, points):
    # caps that end the refinement inside a batch of ternary steps (6 and
    # 40 points are batched from the first steps on, 512 are pruned first)
    monkeypatch.setattr(ex, "RATE_REFINE_ITERS", iters)
    args = _synthetic_fit(points)
    assert ex._best_rate(*args) == _unpruned_best_rate(*args)


@pytest.mark.parametrize("kind", ["zero", "noise"])
def test_best_rate_matches_unpruned_scan_on_flat_objectives(kind):
    # no rate stands out, so most scan rates fall within the slack cut and
    # the coarse scan evaluates them all on the whole grid
    args = list(_synthetic_fit(512))
    if kind == "zero":
        args[0] = np.zeros(512, dtype=complex)
    else:
        args[0] = np.random.default_rng(3).standard_normal((512, 2)) @ [1, 1j]
    amps, times, elapsed, n, theta_rate, reference, r0 = args
    half = ex.RATE_BRACKET * abs(r0)
    devs = np.array([
        np.abs(ex._frame_removed(amps, elapsed, n, theta_rate * times, r).real
               - reference).max()
        for r in np.linspace(r0 - half, r0 + half, ex.RATE_COARSE_POINTS)])
    assert (devs <= devs.min() + max(0.01, 0.5 * devs.min())).sum() > 100
    assert ex._best_rate(*args) == _unpruned_best_rate(*args)


@pytest.mark.parametrize("points", [2, 3])
@pytest.mark.parametrize("r0", [-40.0, 40.0])
@pytest.mark.parametrize("seed", range(5))
def test_best_rate_matches_unpruned_scan_on_tiny_grids(points, r0, seed):
    # the coarse scan's bound then reads the last time point only
    args = _synthetic_fit(points, r0=r0, noise=0.2, seed=seed)
    assert ex._best_rate(*args) == _unpruned_best_rate(*args)


@pytest.mark.parametrize("r0", [-40.0, 40.0])
@pytest.mark.parametrize("offset", [-0.101, 0.101])
def test_best_rate_matches_unpruned_scan_at_a_bracket_edge(r0, offset):
    # the true rate lies just outside the bracket: the fit is flagged
    args = _synthetic_fit(512, r0=r0, offset=offset, n=2)
    fit = ex._best_rate(*args)
    assert fit[2] is True
    assert fit == _unpruned_best_rate(*args)


def test_rate_fit_peak_memory_stays_below_one_scan_block():
    # the coarse scan never holds all 161 rates on all 512 points at once
    args = _synthetic_fit(512)
    ex._best_rate(*args)
    tracemalloc.start()
    try:
        ex._best_rate(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = ex.RATE_COARSE_POINTS * 512 * np.dtype(complex).itemsize
    assert peak < block / 2


def test_pulse_check_reuses_the_protocols_forward_sandwich(monkeypatch,
                                                           fig3b_result):
    # the physical protocol composes its two sandwiches and the pulse check
    # scores the forward one; a direct calibration gives the same block
    sandwich, phases = pulses._sandwich, []
    monkeypatch.setattr(pulses, "_sandwich",
                        lambda props, phase: phases.append(phase)
                        or sandwich(props, phase))
    result = ex.run_fig3b(grid_points=16)
    assert phases == [math.pi, 2 * math.pi]
    space = kc.build_space(n_max=ex.N_MAX, n_atoms=1, levels=2)
    direct = kc.calibrate_pulse_phase(kc.VProtocol(space, ex.fig3b_params()))
    assert result.calibration["pulse"] == direct
    assert fig3b_result.calibration["pulse"] == direct


@settings(max_examples=40, deadline=None, derandomize=True)
@given(g=st.floats(1e7, 1e9), delta1=st.floats(5.0, 20.0),
       delta1_sign=st.sampled_from((-1, 1)), theta=st.floats(0.3, 2.0),
       theta_sign=st.sampled_from((-1, 1)), speed=st.floats(1.0, 5.0),
       n_atoms=st.integers(1, 6), n_max=st.integers(0, 4),
       mode=st.sampled_from(kc.VProtocol.MODES),
       t_fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
       data=st.data())
def test_lift_matches_dense_protocol(g, delta1, delta1_sign, theta,
                                     theta_sign, speed, n_atoms, n_max, mode,
                                     t_fracs, data):
    # A_N = a_1^N and <S++> = N |<n,+|u_n|n,->|^2 from the amplitude table
    # against the dense N-atom protocol; the worst of 2000 random draws was
    # 9e-12.  The table's one-atom space keeps the pulse check's n_max >= 2.
    n = data.draw(st.integers(0, n_max), label="n")
    one_space = kc.build_space(n_max=max(n_max, 2), n_atoms=1, levels=2)
    floor = pulses.PULSE_SPEED_FACTOR * max(g * math.sqrt(one_space.n_max),
                                        theta * g)
    p = kc.SchemeParams(
        g=g, delta1=delta1_sign * delta1 * g, theta=theta_sign * theta * g,
        omega=speed * floor, n_atoms=n_atoms)
    times = np.array(t_fracs) * 2 * math.pi / abs(p.kappa)
    space = kc.build_space(n_max=n_max, n_atoms=n_atoms, levels=2)
    psi0 = kc.basis_state(space, n, "-" * n_atoms)
    states = kc.VProtocol(space, p, mode=mode).states(times, psi0)
    spp = kc.collective(space, "+", "+")
    plus = np.einsum("ij,ij->i", states.conj(), states @ spp.T).real
    minus = kc.basis_state(one_space, n, "-")
    _, [(_, one, _, _)] = ex.amplitude_table(
        one_space, [(p, times, {n: minus})], mode, False)
    a_1 = one @ minus.conj()
    plus_1 = one @ kc.basis_state(one_space, n, "+").conj()
    assert np.abs(a_1 ** n_atoms - states @ psi0.conj()).max() < 1e-10
    assert np.abs(n_atoms * np.abs(plus_1) ** 2 - plus).max() < 1e-10


@settings(max_examples=40, deadline=None, derandomize=True)
@given(g=st.floats(1e7, 1e9), delta1=st.floats(5.0, 20.0),
       theta=st.floats(0.3, 2.0), theta_sign=st.sampled_from((-1, 1)),
       n_max=st.integers(0, 4), mode=st.sampled_from(kc.VProtocol.MODES),
       n_atoms=st.integers(1, 10**6),
       t_fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64),
       data=st.data())
def test_batched_lift_equals_the_per_n_evaluation_bit_for_bit(
        g, delta1, theta, theta_sign, n_max, mode, n_atoms, t_fracs, data):
    ns = data.draw(st.lists(st.integers(0, n_max), min_size=1, unique=True),
                   label="ns")
    p = kc.SchemeParams(
        g=g, delta1=delta1 * g, theta=theta_sign * theta * g,
        omega=pulses.PULSE_SPEED_FACTOR * 2 * max(g * math.sqrt(max(n_max, 1)),
                                                  theta * g),
        n_atoms=n_atoms)
    # the pulse check needs n_max >= 2, which the omega above passes
    space = kc.build_space(n_max=max(n_max, 2), n_atoms=1, levels=2)
    protocol = kc.VProtocol(space, dataclasses.replace(p, n_atoms=1),
                            mode=mode)
    times = np.array(t_fracs) * 2 * math.pi / abs(p.kappa)
    _, [(elapsed, batched, _, _)] = ex.amplitude_table(
        space, [(p, times, {n: kc.basis_state(space, n, "-") for n in ns})],
        mode, False)
    assert np.array_equal(elapsed, protocol.elapsed(times))
    for n in ns:
        # each branch's own evaluation, which the one call replaces
        minus = kc.basis_state(space, n, "-")
        states = protocol.states(times, minus)
        plus = states @ kc.basis_state(space, n, "+").conj()
        plus_batched = batched @ kc.basis_state(space, n, "+").conj()
        assert np.array_equal((batched @ minus.conj()) ** n_atoms,
                              (states @ minus.conj()) ** n_atoms)
        assert np.array_equal(n_atoms * np.abs(plus_batched) ** 2,
                              n_atoms * np.abs(plus) ** 2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(g=st.floats(1e7, 1e9), delta1=st.floats(5.0, 20.0),
       theta=st.floats(0.3, 2.0), theta_sign=st.sampled_from((-1, 1)),
       mode=st.sampled_from(kc.VProtocol.MODES),
       n_atoms=st.lists(st.integers(1, 10**6), min_size=2, max_size=2,
                        unique=True),
       spans=st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 1.0)),
       ideal_oracle=st.booleans(), data=st.data())
def test_atom_counts_sharing_a_protocol_take_one_states_call_per_grid(
        g, delta1, theta, theta_sign, mode, n_atoms, spans, ideal_oracle,
        data):
    # fig3b's atom counts share one protocol on grids of their own: one
    # states call on the joined grids rounds some states differently
    p = ex.fig3b_params(g=g)
    p = dataclasses.replace(p, delta1=delta1 * g,
                            theta=theta_sign * theta * g)
    space = kc.build_space(n_max=ex.N_MAX, n_atoms=1, levels=2)
    runs = []
    for N, points, span in zip(n_atoms, (17, 23), spans):
        ns = data.draw(st.lists(st.integers(0, ex.N_MAX), min_size=1,
                                unique=True), label=f"ns (N={N})")
        pN = dataclasses.replace(p, n_atoms=N)
        runs.append((pN, np.linspace(0.0, span * 2 * math.pi / abs(pN.kappa),
                                     points),
                     {n: kc.basis_state(space, n, "-") for n in ns}))
    _, table = ex.amplitude_table(space, runs, mode, ideal_oracle)
    protocol = kc.VProtocol(space, p, mode=mode)
    oracle = kc.VProtocol(space, p, mode="ideal")
    for (_, times, kets), (elapsed, states, ideal, _) in zip(runs, table):
        psi0 = sum(kets.values())
        assert np.array_equal(states, protocol.states(times, psi0))
        assert np.array_equal(elapsed, protocol.elapsed(times))
        if ideal_oracle:
            assert np.array_equal(ideal, oracle.states(times, psi0))
        else:
            assert ideal is None


@pytest.mark.parametrize("run, built, calls, kets", [
    (functools.partial(ex.run_fig3b, grid_points=16), {"physical": 1}, 2, 4),
    (functools.partial(ex.run_fig3a, grid_points=16),
     {"physical": 2, "ideal": 2}, 4, 4),
    (functools.partial(ex.run_fig3b, grid_points=16,
                       branches=((8, 1), (16, 1), (32, 1), (48, 1))),
     {"physical": 1}, 4, 2),
    (functools.partial(ex.run_cross_kerr, "polarization", grid_points=16),
     {"physical": 1}, 1, 4),
], ids=["fig3b", "fig3a", "scaling", "cross_polarization"])
def test_a_run_builds_each_protocol_once_and_one_states_call_per_count(
        monkeypatch, run, built, calls, kets):
    # and each one-atom |n,+-> once, in the runner, which passes the |n,->
    # to the table and projects on the same kets: they do not depend on N
    seen, evaluated, labels = {}, [], []
    init, states = kc.VProtocol.__init__, kc.VProtocol.states
    basis_state = ex.basis_state

    def counting_init(self, space, params, mode="physical"):
        seen[mode] = seen.get(mode, 0) + 1
        init(self, space, params, mode)

    def counting_states(self, times, psi0):
        evaluated.append(len(times))
        return states(self, times, psi0)

    monkeypatch.setattr(kc.VProtocol, "__init__", counting_init)
    monkeypatch.setattr(kc.VProtocol, "states", counting_states)
    monkeypatch.setattr(ex, "basis_state", lambda space, n, atoms: labels.append(
        (n, atoms)) or basis_state(space, n, atoms))
    run()
    assert seen == built
    assert evaluated == [16] * calls
    assert len(labels) == kets


@pytest.mark.parametrize("run", [
    ex.run_fig3b, ex.run_fig3a,
    functools.partial(ex.run_cross_kerr, "polarization"),
], ids=["fig3b", "fig3a", "cross_polarization"])
def test_an_invalid_raman_pair_fails_before_any_protocol_is_built(
        monkeypatch, run):
    # delta2 = delta1 = 1e9 (fig3a's N = 1 set and both others): the regime
    # check names it before a protocol is built
    built, init = [], kc.VProtocol.__init__
    monkeypatch.setattr(kc.VProtocol, "__init__", lambda self, *a, **k:
                        built.append(1) or init(self, *a, **k))
    with pytest.raises(ValidationError, match="delta2 = delta1"):
        run({"lam": math.sqrt(1e8 * 1e9 / 2), "delta2": 1e9})
    assert built == []


@pytest.mark.parametrize("scenario", ["fig3a", "fig3b"])
def test_two_runs_in_one_process_write_the_same_bytes(scenario, tmp_path,
                                                      fig3a_result,
                                                      fig3b_result):
    # the session fixture ran first, on its own spaces and caches
    first = {"fig3a": fig3a_result, "fig3b": fig3b_result}[scenario]
    again = ex.SCENARIOS[scenario]()
    paths = [ex.write_outputs(r, tmp_path / k)
             for k, r in (("first", first), ("again", again))]
    for kind in ("csv", "json"):
        assert pathlib.Path(paths[0][kind]).read_bytes() == \
            pathlib.Path(paths[1][kind]).read_bytes()


def test_overlap_scenarios_build_only_one_atom_spaces(monkeypatch):
    build, sizes = kc.hilbert.build_space, []

    def recording(*args, **kwargs):
        space = build(*args, **kwargs)
        sizes.append(space.n_atoms)
        return space

    monkeypatch.setattr(ex, "build_space", recording)
    monkeypatch.setattr(kc.hilbert, "build_space", recording)
    ex.run_fig3b(grid_points=16, branches=((1, 1), (2, 2), (48, 1)))
    ex.run_fig3b(grid_points=16, mode="ideal")
    ex.run_fig3a(grid_points=16)
    # what `kerrcav calibrate` runs for a config with N = 5
    ex.run_fig3b({"n_atoms": 5}, grid_points=16, branches=((5, 1),))
    assert sizes and set(sizes) == {1}


@pytest.fixture
def protocol_builds(monkeypatch):
    """The mode of every VProtocol the scenarios build, in order."""
    modes = []

    class Counting(pulses.VProtocol):
        def __init__(self, space, params, mode="physical", **kwargs):
            modes.append(mode)
            super().__init__(space, params, mode=mode, **kwargs)

    monkeypatch.setattr(ex, "VProtocol", Counting)
    return modes


@pytest.mark.parametrize("run, built", [
    (lambda: ex.run_fig3b(), ["physical"]),
    (lambda: ex.run_fig3b(branches=((8, 1), (16, 1), (32, 1), (48, 1))),
     ["physical"]),
    (lambda: ex.run_fig3a(), ["physical", "ideal"] * 2),
    (lambda: ex.run_fig3b({"n_atoms": 5}, branches=((5, 1),)), ["physical"]),
], ids=["fig3b", "scaling", "fig3a", "calibrate_n5"])
def test_one_protocol_per_distinct_one_atom_parameter_set(protocol_builds,
                                                          run, built):
    # fig3b's one-atom parameters do not depend on N; fig3a's delta1 and
    # theta do, so it builds a protocol and an ideal oracle per N
    run()
    assert protocol_builds == built


def test_shared_protocol_matches_one_protocol_per_atom_count(fig3b_result):
    # one run per atom count builds one protocol for each
    for N in (1, 2):
        alone = ex.run_fig3b(branches=((N, 1), (N, 2)))
        for n in (1, 2):
            a, b = alone.branch(N, n), fig3b_result.branch(N, n)
            assert np.array_equal(a.amplitudes, b.amplitudes)
            assert np.array_equal(a.y, b.y)
            assert a.summary() == b.summary()
        assert alone.calibration["r_lin_shared"][str(N)] == \
            fig3b_result.calibration["r_lin_shared"][str(N)]
        assert alone.diagnostics[f"segments_N={N}"] == \
            fig3b_result.diagnostics[f"segments_N={N}"]


@pytest.mark.parametrize("n_atoms", [2.5, 2.0, True, "2"])
def test_non_integral_atom_count_is_rejected_by_name(n_atoms):
    with pytest.raises(ValidationError, match="n_atoms must be an integer"):
        kc.SchemeParams(g=G, delta1=10 * G, theta=G,
                        n_atoms=n_atoms)
    with pytest.raises(ValidationError, match="n_atoms must be an integer"):
        ex.run_fig3b(branches=((n_atoms, 1),))


def test_fig3a_overlap_floor(fig3a_result):
    for b in fig3a_result.branches:
        if b.n_photons == 0:
            assert np.abs(b.x - 1).max() < 1e-6   # vacuum control
        else:
            assert b.min_x >= 0.9
            assert b.ideal_deviation <= 0.1


def test_fig3a_parameters_scale_with_n():
    cfg = ex.run_fig3a(grid_points=16).config
    p = cfg["params"]
    assert p["delta1"] == pytest.approx(10 * G)
    assert p["theta"] == pytest.approx(G / 5)
    p2 = ex.fig3a_params(2)
    assert p2.delta1 == pytest.approx(10 * math.sqrt(2) * G)
    assert p2.theta == pytest.approx(G * 2 ** (1 / 3) / 5)


def test_ideal_mode_reference_is_exact_cosine(fig3b_p1):
    res = ex.run_fig3b(mode="rotated_reference", grid_points=64,
                       branches=((1, 1), (1, 2)))
    for b in res.branches:
        assert b.max_abs_error < 1e-10
        assert np.abs(b.x - 1).max() < 1e-10


def test_calibrate_frame_physical():
    # the frame fit `kerrcav calibrate` reports: fig3b's (1, 1) branch
    res = ex.run_fig3b(branches=((1, 1),))
    branch = res.branch(1, 1)
    r_lin = res.calibration["r_lin_shared"]["1"]
    assert branch.r_lin_expected == pytest.approx(5e6, rel=1e-12)
    assert abs(r_lin - branch.r_lin_expected) < 0.01 * branch.r_lin_expected
    assert "flags" not in res.calibration
    assert branch.max_abs_error < 0.05


@pytest.mark.parametrize("points", [1, 0, 2.5])
@pytest.mark.parametrize("run", [
    lambda k: ex.run_fig3b(grid_points=k),
    lambda k: ex.run_fig3a(grid_points=k),
    lambda k: ex.run_cross_kerr(grid_points=k),
], ids=["fig3b", "fig3a", "cross_kerr"])
def test_python_api_rejects_fewer_than_two_grid_points(run, points):
    with pytest.raises(ValidationError, match="grid points"):
        run(points)


def test_calibrate_frame_bare_recovers_analytic_rate(fig3b_p1):
    # the eliminated-model Hamiltonian alone, no pulse protocol: its
    # photon-linear rate is analytically N g^2/(2 delta1)
    p = fig3b_p1
    space = kc.build_space(n_max=4, n_atoms=1, levels=2)
    eig = numerics.HermitianEigensystem(models.tier_b_hamiltonian(space, p))
    psi0 = kc.basis_state(space, 1, "-")
    weights = ((psi0.conj() @ eig.eigenvectors)
               * (eig.eigenvectors.conj().T @ psi0))
    t = np.linspace(0.0, 2 * math.pi / abs(p.kappa), ex.DEFAULT_GRID_POINTS)
    amps = np.exp(-1j * np.multiply.outer(t, eig.eigenvalues)) @ weights
    r_lin, _, _ = ex._best_rate(amps, t, t, 1, p.theta / 2,
                                np.cos(p.kappa * t), p.stark)
    assert abs(r_lin - 5e6) < 1e-3 * 5e6


def test_calibrate_frame_is_the_shared_scenario_rate(fig3b_result, capsys,
                                                   tmp_path):
    # `kerrcav run fig3b` writes the shared n = 1 rate and the (1, 1)
    # branch of the same run, unflagged
    assert cli.main(["run", "fig3b", "--out", str(tmp_path)]) == 0
    report = json.loads(pathlib.Path(
        json.loads(capsys.readouterr().out)["outputs"]["json"]).read_text())
    b11 = fig3b_result.branch(1, 1)
    assert report["calibration"]["r_lin_shared"]["1"] == \
        fig3b_result.calibration["r_lin_shared"]["1"]
    assert "flags" not in report["calibration"]
    [summary] = [b for b in report["branches"] if (b["N"], b["n"]) == (1, 1)]
    assert (summary["r_lin_expected"], summary["max_abs_error"]) == (
        b11.r_lin_expected, b11.max_abs_error)


def test_calibrate_frame_doubles_with_n(fig3b_result):
    shared = fig3b_result.calibration["r_lin_shared"]
    assert shared["2"] == pytest.approx(2 * shared["1"], rel=0.1)


def test_cross_kerr_polarization(cross_result):
    assert cross_result.nu_effective == pytest.approx(5e5, rel=1e-9)
    assert cross_result.relative_error <= 0.15
    assert cross_result.nu_hat == pytest.approx(5e5, rel=0.15)


def test_cross_kerr_decoupled_control(cross_result):
    res = ex.run_cross_kerr("polarization", {"g_b": 0.0})
    assert abs(res.nu_hat) <= 1e-3 * abs(cross_result.nu_hat)


def test_cross_kerr_toroidal_degenerate(cross_result):
    res = ex.run_cross_kerr("toroidal")   # mode_split = 0
    # both modes shift the same level: same magnitude, opposite sign
    assert res.nu_hat == pytest.approx(-cross_result.nu_hat, rel=0.02)
    assert res.relative_error <= 0.15


@pytest.mark.parametrize("n_atoms", [1, 4, 16, 64])
def test_cross_kerr_holds_its_accuracy_at_every_atom_number(n_atoms):
    # the eliminated tier's atoms are independent, so nu_N = N nu_1 exactly
    res = ex.run_cross_kerr("polarization", {"n_atoms": n_atoms})
    assert res.nu_effective == pytest.approx(n_atoms * 5e5, rel=1e-9)
    assert res.relative_error <= 5e-3


def test_no_scenario_builds_a_many_atom_two_level_space(monkeypatch):
    built = []

    def recording(**kw):
        space = kc.build_space(**kw)
        built.append(space)
        return space

    monkeypatch.setattr(ex, "build_space", recording)
    for runner in ex.SCENARIOS.values():
        runner()
    for variant in ("polarization", "toroidal"):
        for n_atoms in (4, 16):
            ex.run_cross_kerr(variant, {"n_atoms": n_atoms})
    assert {s.n_modes for s in built} == {1, 2}
    assert all(s.n_atoms == 1 for s in built if s.levels == 2)


def test_cross_kerr_nmax_guard():
    # the four occupations need one photon per mode, the truncation every
    # cross-Kerr run has; no option is left to set another
    assert ex.run_cross_kerr("polarization", grid_points=16).config[
        "n_max"] == 1
    with pytest.raises(ValidationError, match="takes no option 'n_max'"):
        ex.sweep("theta", [G], "cross_polarization", n_max=3)


def test_sweep_theta_halves_kappa_and_frequency():
    points = ex.sweep("theta", [G, 2 * G], "fig3b",
                      grid_points=96, branches=((1, 1),))
    assert all(pt["ok"] for pt in points)
    f = [pt["result"].branch(1, 1).freq_fit for pt in points]
    assert f[0] / f[1] == pytest.approx(2.0, rel=0.05)


def test_sweep_empty_values():
    assert ex.sweep("theta", [], "fig3b") == []


def test_a_pulse_check_and_a_sweep_point_are_plain_dicts(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    space = kc.build_space(n_max=ex.N_MAX, n_atoms=1, levels=2)
    for name, params in (("fig3b", ex.fig3b_params), ("fig3a", ex.fig3a_params)):
        pulse = kc.calibrate_pulse_phase(kc.VProtocol(space, params(1)))
        want = golden[name]["calibration"]["pulse"]
        assert sorted(pulse) == sorted(want) == [
            "beta", "fidelity", "phi_forward", "phi_inverse"]
        for key, value in pulse.items():
            assert type(value) is float and abs(value - want[key]) <= ATOL
    ok, failed = ex.sweep("delta1", [10 * G, 0.0], "regime_check")
    [written] = ex.sweep("delta1", [10 * G], "regime_check", outdir=tmp_path)
    for point, ok_, key in ((ok, True, "result"), (failed, False, "error"),
                            (written, True, "outputs")):
        assert point == {"param": "delta1", "value": point["value"],
                         "ok": ok_, key: point[key]}


def test_sweep_records_failures():
    points = ex.sweep("delta1", [10 * G, 0.0], "regime_check")
    assert points[0]["ok"]
    assert not points[1]["ok"] and "delta1" in points[1]["error"]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("scenario, option", [
    ("regime_check", "grid_points"),
    ("cross_polarization", "mode"),
    ("cross_toroidal", "frame_calibration"),
    ("fig3a", "branches"),
    ("fig3b", "tier"),
])
def test_sweep_option_the_scenario_does_not_take_is_rejected(
        monkeypatch, scenario, option, jobs):
    calls = []
    monkeypatch.setattr(ex, "_run_point", lambda *a, **k: calls.append(a))
    with pytest.raises(ValidationError,
                       match=f"{scenario}' takes no option '{option}'"):
        ex.sweep("theta", [G, 2 * G], scenario, jobs=jobs, **{option: None})
    assert calls == []


def test_scenario_options_read_through_functools_wraps(monkeypatch):
    assert ex.scenario_options("fig3a") == {"grid_points", "mode"}
    assert ex.scenario_options("cross_toroidal") == {"grid_points"}
    assert ex.scenario_options("regime_check") == frozenset()
    # bench/tracer.py swaps scenario runners for functools.wraps wrappers
    original = ex.SCENARIOS["fig3b"]

    @functools.wraps(original)
    def traced(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setitem(ex.SCENARIOS, "fig3b", traced)
    assert ex.scenario_options("fig3b") == {
        "grid_points", "mode", "frame_calibration", "branches"}
    [point] = ex.sweep("theta", [G], "fig3b", grid_points=16,
                       branches=((1, 1),))
    assert point["ok"]
    with pytest.raises(ValidationError, match="takes no option 'tier'"):
        ex.sweep("theta", [G], "fig3b", tier="full")


# two values of each scenario option, which must give different CSVs
OPTION_VALUES = {"grid_points": (16, 17), "mode": ("physical", "ideal"),
                 "frame_calibration": ("per_branch", "n1_shared"),
                 "branches": (((1, 1),), ((1, 2),))}


def test_every_scenario_option_changes_the_csv():
    # an option that leaves the output as it is changes nothing the
    # scenario computes; options other than the grid run on 16 points
    inert, failed = [], []
    for name in ex.SCENARIOS:
        takes = ex.scenario_options(name)
        for option in sorted(takes):
            assert option in OPTION_VALUES, f"{name}: no values for {option!r}"
            base = ({"grid_points": 16} if "grid_points" in takes
                    and option != "grid_points" else {})
            try:
                a, b = (ex.csv_text(ex.SCENARIOS[name](**base, **{option: v}))
                        for v in OPTION_VALUES[option])
            except KerrcavError as exc:
                failed.append(f"{name}.{option}: {exc}")
                continue
            if a == b:
                inert.append(f"{name}.{option}")
    assert not inert and not failed, f"inert: {inert}; failed: {failed}"


@pytest.mark.parametrize("branches, message", [
    ((), r"fig3b needs distinct \(N, n\) branches, got \[\]"),
    (((1, 1), (1, 1)), r"fig3b needs distinct \(N, n\) branches, "
                       r"got \[\(1, 1\), \(1, 1\)\]"),
    (((1, True),), "fig3b branch photon number n must be an integer >= 0, "
                   "got True"),
    (((0, 1),), "fig3b branch n_atoms must be an integer >= 1, got 0"),
    (((1, -1),), "fig3b branch photon number n must be an integer >= 0"),
    (((1, 1, 1),), r"fig3b branch \(1, 1, 1\) is not an \(N, n\) pair"),
    ((1,), r"fig3b branch 1 is not an \(N, n\) pair"),
], ids=["empty", "duplicate", "bool", "no-atoms", "negative-n", "triple",
        "not-a-pair"])
def test_overlap_branches_are_checked_by_name(branches, message):
    with pytest.raises(ValidationError, match=message):
        ex.run_fig3b(branches=branches)
    with pytest.raises(ValidationError, match=message):
        dataclasses.replace(ex.FIG3B, branches=branches)


def test_sweep_over_n_atoms_matches_direct_run(fig3b_result):
    points = ex.sweep("n_atoms", [1, 2], "fig3b",
                      grid_points=512, branches=((1, 1), (2, 1)))
    for pt, n in zip(points, (1, 2)):
        assert pt["ok"]
        direct = fig3b_result.branch(n, 1)
        swept = pt["result"].branch(n, 1)
        assert swept.max_abs_error == pytest.approx(direct.max_abs_error,
                                                    abs=1e-12)


def test_n_atoms_override_selects_its_branches():
    result = ex.run_fig3b({"n_atoms": 2}, grid_points=64)
    assert [(b.n_atoms, b.n_photons) for b in result.branches] == [(2, 1), (2, 2)]
    assert result.config["branches"] == [[2, 1], [2, 2]]
    with pytest.raises(ValidationError, match=r"available N: \[1, 2\]"):
        ex.run_fig3b({"n_atoms": 3}, grid_points=64)


def test_sweep_parallel_matches_serial():
    serial = ex.sweep("theta", [G, 2 * G], "regime_check")
    parallel = ex.sweep("theta", [G, 2 * G], "regime_check", jobs=2)
    for a, b in zip(serial, parallel):
        assert a["value"] == b["value"] and a["ok"] == b["ok"]
        assert a["result"].regime == b["result"].regime


def test_sweep_processes_match_serial_on_fig3a(tmp_path):
    # the worker results come back pickled, and a worker writes the same bytes
    values, kw = [5e7, 1.6369e8, 4e8], dict(grid_points=48)
    serial = ex.sweep("theta", values, "fig3a", **kw)
    parallel = ex.sweep("theta", values, "fig3a", jobs=2, **kw)
    written = ex.sweep("theta", values, "fig3a", jobs=2, outdir=tmp_path, **kw)
    for a, b, w in zip(serial, parallel, written):
        assert a["ok"] and b["ok"] and w["ok"] and "result" not in w
        assert ex.csv_text(a["result"]) == ex.csv_text(b["result"])
        assert ex.json_report(a["result"]) == ex.json_report(b["result"])
        expected = ex.write_outputs(a["result"], tmp_path / "serial")
        for kind, path in w["outputs"].items():
            assert pathlib.Path(path).read_bytes() == \
                pathlib.Path(expected[kind]).read_bytes()


@pytest.mark.parametrize("jobs", [0, -2, 1.5, True])
def test_sweep_rejects_jobs_below_one(jobs):
    with pytest.raises(ValidationError, match="jobs must be an integer >= 1"):
        ex.sweep("theta", [G], "regime_check", jobs=jobs)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("jobs, n_values, cpus, size", [
    (8, 3, 16, 3), (8, 5, 2, 2), (3, 5, 16, 3), (2, 5, 1, None),
    (4, 1, 16, None),
])
def test_sweep_caps_workers(monkeypatch, jobs, n_values, cpus, size):
    # every fork is recorded, then made for real: one per worker
    forks, real_fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(cpus)))
    values = [G * (1 + k) for k in range(n_values)]
    points = ex.sweep("theta", values, "regime_check", jobs=jobs)
    assert [pt["value"] for pt in points] == values and all(pt["ok"] for pt in points)
    assert [pt["result"].regime for pt in points] == [
        ex.run_regime_check({"theta": v}).regime for v in values]
    assert len(forks) == (size or 0)
    _no_child_left()


def test_sweep_without_fork_is_a_validation_error(monkeypatch):
    monkeypatch.delattr(os, "fork")
    with pytest.raises(ValidationError, match="needs os.fork"):
        ex.sweep("theta", [G, 2 * G], "regime_check", jobs=2)
    assert ex.sweep("theta", [G], "regime_check", jobs=1)[0]["ok"]


def test_sweep_flushes_before_forking(monkeypatch, tmp_path):
    # a worker that prints would otherwise repeat the parent's unflushed text
    def scenario(overrides=None, **kw):
        print("worker", flush=True)
        return ex.run_regime_check(overrides)

    monkeypatch.setitem(ex.SCENARIOS, "regime_check", scenario)
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1})
    with open(tmp_path / "stdout.txt", "w") as stdout:     # a buffered stream
        monkeypatch.setattr(sys, "stdout", stdout)
        stdout.write("pending;")
        points = ex.sweep("theta", [G, 2 * G], "regime_check", jobs=2)
    assert all(pt["ok"] for pt in points)
    out = (tmp_path / "stdout.txt").read_text()
    assert out.count("pending;") == 1 and out.count("worker") == 2


def _sweep_with_failing_first_worker(monkeypatch, fail):
    """Sweep two points at jobs = 2: the first worker's point runs ``fail``,
    the second worker's would sleep twice as long as the test allows."""
    def scenario(overrides=None, **kw):
        if overrides["theta"] == G:
            fail()
        time.sleep(40)

    monkeypatch.setitem(ex.SCENARIOS, "regime_check", scenario)
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1})
    faulthandler.dump_traceback_later(60, exit=True)    # a hang ends the run
    start = time.monotonic()
    try:
        ex.sweep("theta", [G, 2 * G], "regime_check", jobs=2)
    finally:
        faulthandler.cancel_dump_traceback_later()
        # the sleeping worker was killed, not waited for, and then reaped
        assert time.monotonic() - start < 20
        _no_child_left()


def test_sweep_worker_death_raises_worker_error(monkeypatch):
    with pytest.raises(WorkerError, match="worker process ended abruptly"):
        _sweep_with_failing_first_worker(monkeypatch, lambda: os._exit(1))


def test_sweep_worker_exception_is_reraised(monkeypatch):
    def boom():
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="^boom$") as info:
        _sweep_with_failing_first_worker(monkeypatch, boom)
    assert type(info.value) is RuntimeError


def test_scenario_params_cover_every_atom_count():
    assert [p.n_atoms for p in ex.scenario_params("fig3a")] == [1, 2]
    [p] = ex.scenario_params("fig3a", {"n_atoms": 2, "theta": G})
    assert (p.n_atoms, p.theta, p.delta1) == (2, G, ex.fig3a_params(2).delta1)
    assert ex.scenario_params("regime_check") == [ex.fig3b_params()]
    [p] = ex.scenario_params("cross_toroidal")
    assert p == ex.cross_params("toroidal")
    with pytest.raises(ValidationError, match="available N"):
        ex.scenario_params("fig3b", {"n_atoms": 3})
    with pytest.raises(ValidationError, match="unknown scenario"):
        ex.scenario_params("fig9")


def test_scenarios_hold_the_named_runners_in_order():
    # the benchmark tracer rebinds exactly the SCENARIOS entries that are
    # these functions, and `run --help` joins the names in this order
    assert ex.SCENARIOS["fig3a"] is ex.run_fig3a
    assert ex.SCENARIOS["fig3b"] is ex.run_fig3b
    assert list(ex.SCENARIOS) == ["fig3a", "fig3b", "cross_polarization",
                                  "cross_toroidal", "regime_check"]


def test_a_new_overlap_record_runs_with_the_standard_options(monkeypatch):
    # the module docstring's recipe: a record plus a partial of the runner
    record = ex.OverlapScenario("fig3b_n1", ex.fig3b_params, ((1, 1),))
    monkeypatch.setitem(ex.OVERLAP_SCENARIOS, record.name, record)
    monkeypatch.setitem(ex.SCENARIOS, record.name,
                        functools.partial(ex._run_overlap_scenario, record))
    # the runner's own options: fig3b's, less the branches a record fixes
    assert ex.scenario_options(record.name) == \
        ex.scenario_options("fig3b") - {"branches"}
    assert ex.scenario_params(record.name) == [ex.fig3b_params(1)]
    [point] = ex.sweep("theta", [2 * G], record.name, grid_points=16)
    expected = ex.run_fig3b({"theta": 2 * G}, grid_points=16,
                            branches=((1, 1),))
    assert point["result"].config == {**expected.config, "scenario": "fig3b_n1"}
    assert ex.csv_text(point["result"]) == ex.csv_text(expected)


def test_unknown_override_rejected():
    with pytest.raises(ValidationError, match="unknown parameter"):
        ex.run_fig3b({"not_a_param": 1.0})


def test_determinism_byte_identical():
    kw = dict(grid_points=48, branches=((1, 1),))
    r1 = ex.run_fig3b(**kw)
    r2 = ex.run_fig3b(**kw)
    assert ex.csv_text(r1) == ex.csv_text(r2)
    assert json.dumps(ex.json_report(r1), sort_keys=True) \
        == json.dumps(ex.json_report(r2), sort_keys=True)


def test_monotone_accuracy_under_ratio_scaling():
    # halving every small ratio (delta1 -> 2 delta1) improves the benchmark
    kw = dict(grid_points=128, branches=((1, 1),),
              frame_calibration="n1_shared")
    base = ex.run_fig3b(**kw).branch(1, 1).max_abs_error
    better = ex.run_fig3b({"delta1": 20 * G}, **kw).branch(1, 1).max_abs_error
    assert better < base


def test_csv_format(fig3b_result):
    text = ex.csv_text(fig3b_result)
    lines = text.strip().split("\n")
    assert lines[0] == "t_seconds,N,n,X,Y,reference,abs_error"
    assert len(lines) == 1 + 4 * 512
    first = lines[1].split(",")
    assert first[0] == "0.0" and first[1] == "1" and first[2] == "1"
    assert float(first[3]) == pytest.approx(1.0, abs=1e-4)


def _fmt(x):
    return repr(float(x))


def _per_element_csv(result):
    """The CSV a result should give, one ``repr`` per cell."""
    if isinstance(result, ex.CrossKerrResult):
        rows = ["t_seconds,n_a,n_b,modulus,phase"]
        for occ in sorted(result.amplitudes):
            amp = result.amplitudes[occ]
            for t, a, ph in zip(result.times, amp, np.angle(amp)):
                rows.append(f"{_fmt(t)},{occ[0]},{occ[1]},{_fmt(abs(a))},"
                            f"{_fmt(ph)}")
        return "\n".join(rows) + "\n"
    rows = ["t_seconds,N,n,X,Y,reference,abs_error"]
    for b in sorted(result.branches,
                    key=lambda b: (b.n_atoms, b.n_photons)):
        for k, t in enumerate(b.times):
            rows.append(
                f"{_fmt(t)},{b.n_atoms},{b.n_photons},{_fmt(b.x[k])},"
                f"{_fmt(b.y[k])},{_fmt(b.reference[k])},"
                f"{_fmt(b.abs_error[k])}")
    return "\n".join(rows) + "\n"


def test_csv_text_matches_per_element_repr(fig3b_result, cross_result):
    assert ex.csv_text(fig3b_result) == _per_element_csv(fig3b_result)
    assert ex.csv_text(cross_result) == _per_element_csv(cross_result)


# values whose strings a table keyed on float equality would merge
# (0.0 and -0.0) or whose bit patterns differ but print alike (the NaNs)
AWKWARD = np.array([
    0.0, -0.0, np.nan, np.copysign(np.nan, -1.0),
    np.int64(0x7FF8000000000001).view(np.float64), np.inf, -np.inf,
    5e-324, 1e-5, 1e16, 1e22, 0.1 + 0.2, 1.0])


def test_csv_text_writes_every_bit_pattern_as_its_own_repr():
    rng = np.random.default_rng(28)

    def pick(*shape):
        return rng.choice(AWKWARD, size=shape)

    def branch(n_atoms, n_photons, times):
        x, y, ref, err = pick(4, len(times))
        return ex.BranchResult(
            n_atoms=n_atoms, n_photons=n_photons, times=times,
            amplitudes=None, x=x, y=y, reference=ref, abs_error=err,
            basis_label="", **dict.fromkeys((
                "r_lin", "r_lin_expected", "freq_fit", "max_abs_error",
                "rms_error", "min_x", "max_x", "max_plus_population"), 0.0))

    two, long = np.array([-0.0, 1e-5]), AWKWARD.copy()
    # unsorted, a grid shared by two atom counts, repeats within and
    # across branches
    branches = [branch(3, 1, long), branch(1, 0, two), branch(1, 2, two),
                branch(3, 0, long), branch(2, 1, two)]
    overlap = ex.ScenarioResult(config={}, branches=branches, regime=None,
                                calibration={}, diagnostics={})
    assert ex.csv_text(overlap) == _per_element_csv(overlap)

    def amplitude(n):
        a = np.empty(n, dtype=complex)
        a.real, a.imag = pick(2, n)
        return a

    for times in (two, long):
        cross = ex.CrossKerrResult(
            config={}, times=times,
            amplitudes={occ: amplitude(len(times))
                        for occ in ((1, 1), (0, 1), (0, 0), (1, 0))},
            nu_hat=0.0, nu_effective=0.0, relative_error=None, regime=None)
        assert ex.csv_text(cross) == _per_element_csv(cross)


def test_write_outputs_hash_stable(tmp_path, cross_result):
    paths1 = ex.write_outputs(cross_result, tmp_path / "a")
    paths2 = ex.write_outputs(cross_result, tmp_path / "b")
    name1 = paths1["json"].split("/")[-1]
    name2 = paths2["json"].split("/")[-1]
    assert name1 == name2
    assert name1.startswith("cross_polarization_")
    body1 = pathlib.Path(paths1["json"]).read_text()
    body2 = pathlib.Path(paths2["json"]).read_text()
    assert body1 == body2


def test_json_report_contents(fig3b_result):
    rep = ex.json_report(fig3b_result)
    assert rep["config"]["scenario"] == "fig3b"
    assert rep["config"]["params"]["g"] == G
    assert "pulse" in rep["calibration"]
    assert list(rep["regime"]) == ["N=1", "N=2"]
    assert rep["regime"]["N=1"]["ratios"]["dispersive_cavity"]["value"] == 0.1
    assert len(rep["branches"]) == 4
    for entry in rep["branches"]:
        assert set(entry) >= {"N", "n", "r_lin", "max_abs_error",
                              "max_plus_population"}


def test_branch_lookup_raises(fig3b_result):
    with pytest.raises(KeyError):
        fig3b_result.branch(7, 7)
