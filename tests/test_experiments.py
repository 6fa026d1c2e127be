import dataclasses
import faulthandler
import functools
import json
import math
import os
import pathlib
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kerrcav as kc
from kerrcav import cli, experiments as ex, models, numerics, pulses
from kerrcav.errors import ValidationError, WorkerError

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
        p = kc.derive_params(kc.SchemeParams(
            g=G, delta1=10 * G, theta=G, n_atoms=b.n_atoms))
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
        return float(np.abs(ex._y_series(
            amps, times, elapsed, n, theta_rate, r) - reference).max())

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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(g=st.floats(1e7, 1e9), delta1=st.floats(5.0, 20.0),
       delta1_sign=st.sampled_from((-1, 1)), theta=st.floats(0.3, 2.0),
       theta_sign=st.sampled_from((-1, 1)), speed=st.floats(1.0, 5.0),
       n_atoms=st.integers(1, 6), n_max=st.integers(0, 4),
       mode=st.sampled_from(kc.VProtocol.MODES),
       representation=st.sampled_from(("product", "symmetric")),
       t_fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
       data=st.data())
def test_lift_matches_dense_protocol(g, delta1, delta1_sign, theta,
                                     theta_sign, speed, n_atoms, n_max, mode,
                                     representation, t_fracs, data):
    # A_N = a_1^N and <S++> = N |<n,+|u_n|n,->|^2 against the dense N-atom
    # protocol; the worst of 2000 random draws was 9e-12
    n = data.draw(st.integers(0, n_max), label="n")
    floor = pulses.PULSE_SPEED_FACTOR * max(g * math.sqrt(max(n_max, 1)),
                                        theta * g)
    p = kc.derive_params(kc.SchemeParams(
        g=g, delta1=delta1_sign * delta1 * g, theta=theta_sign * theta * g,
        omega=speed * floor, n_atoms=n_atoms))
    times = np.array(t_fracs) * 2 * math.pi / abs(p.kappa)
    space = kc.build_space(n_max=n_max, n_atoms=n_atoms, levels=2,
                           representation=representation)
    psi0 = kc.basis_state(space, n, "-" * n_atoms)
    states = kc.VProtocol(space, p, mode=mode).states(times, psi0)
    spp = kc.collective(space, "+", "+")
    plus = np.einsum("ij,ij->i", states.conj(), states @ spp.T).real
    one = kc.VProtocol(kc.build_space(n_max=n_max, n_atoms=1, levels=2),
                       dataclasses.replace(p, n_atoms=1), mode=mode)
    amps, plus_lift = ex.lifted_series(one, times, n, n_atoms)
    assert np.abs(amps - states @ psi0.conj()).max() < 1e-10
    assert np.abs(plus_lift - plus).max() < 1e-10


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


@pytest.mark.parametrize("n_atoms", [2.5, 2.0, True, "2"])
def test_non_integral_atom_count_is_rejected_by_name(n_atoms):
    with pytest.raises(ValidationError, match="n_atoms must be an integer"):
        kc.derive_params(kc.SchemeParams(g=G, delta1=10 * G, theta=G,
                                         n_atoms=n_atoms))
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
    r_lin, _, _ = ex._best_rate(eig.phases(t) @ weights, t, t, 1, p.theta / 2,
                                np.cos(p.kappa * t), p.stark)
    assert abs(r_lin - 5e6) < 1e-3 * 5e6


def test_calibrate_frame_is_the_shared_scenario_rate(fig3b_result, capsys):
    assert cli.main(["calibrate"]) == 0
    frame = json.loads(capsys.readouterr().out)["frame"]
    b11 = fig3b_result.branch(1, 1)
    assert frame == {"r_lin": fig3b_result.calibration["r_lin_shared"]["1"],
                     "expected": b11.r_lin_expected,
                     "objective": b11.max_abs_error, "flagged": False}


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


def test_cross_kerr_nmax_guard():
    with pytest.raises(ValidationError):
        ex.run_cross_kerr("polarization", n_max=3)


def test_sweep_theta_halves_kappa_and_frequency():
    points = ex.sweep("theta", [G, 2 * G], "fig3b",
                      grid_points=96, branches=((1, 1),))
    assert all(pt.ok for pt in points)
    f = [pt.result.branch(1, 1).freq_fit for pt in points]
    assert f[0] / f[1] == pytest.approx(2.0, rel=0.05)


def test_sweep_empty_values():
    assert ex.sweep("theta", [], "fig3b") == []


def test_sweep_records_failures():
    points = ex.sweep("delta1", [10 * G, 0.0], "regime_check")
    assert points[0].ok
    assert not points[1].ok and "delta1" in points[1].error


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
    assert ex.scenario_options("fig3a") == {
        "grid_points", "mode", "frame_calibration", "n_max"}
    assert ex.scenario_options("cross_toroidal") == {"grid_points", "n_max"}
    assert ex.scenario_options("regime_check") == frozenset()
    # bench/tracer.py swaps scenario runners for functools.wraps wrappers
    original = ex.SCENARIOS["fig3b"]

    @functools.wraps(original)
    def traced(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setitem(ex.SCENARIOS, "fig3b", traced)
    assert ex.scenario_options("fig3b") == {
        "grid_points", "mode", "frame_calibration", "n_max", "branches"}
    [point] = ex.sweep("theta", [G], "fig3b", grid_points=16,
                       branches=((1, 1),))
    assert point.ok
    with pytest.raises(ValidationError, match="takes no option 'tier'"):
        ex.sweep("theta", [G], "fig3b", tier="full")


def test_sweep_over_n_atoms_matches_direct_run(fig3b_result):
    points = ex.sweep("n_atoms", [1, 2], "fig3b",
                      grid_points=512, branches=((1, 1), (2, 1)))
    for pt, n in zip(points, (1, 2)):
        assert pt.ok
        direct = fig3b_result.branch(n, 1)
        swept = pt.result.branch(n, 1)
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
        assert a.value == b.value and a.ok == b.ok
        assert a.result.regime.to_dict() == b.result.regime.to_dict()


def test_sweep_processes_match_serial_on_fig3a(tmp_path):
    # the worker results come back pickled, and a worker writes the same bytes
    values, kw = [5e7, 1.6369e8, 4e8], dict(grid_points=48)
    serial = ex.sweep("theta", values, "fig3a", **kw)
    parallel = ex.sweep("theta", values, "fig3a", jobs=2, **kw)
    written = ex.sweep("theta", values, "fig3a", jobs=2, outdir=tmp_path, **kw)
    for a, b, w in zip(serial, parallel, written):
        assert a.ok and b.ok and w.ok and w.result is None
        assert ex.csv_text(a.result) == ex.csv_text(b.result)
        assert ex.json_report(a.result) == ex.json_report(b.result)
        expected = ex.write_outputs(a.result, tmp_path / "serial")
        for kind, path in w.outputs.items():
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
    assert [pt.value for pt in points] == values and all(pt.ok for pt in points)
    assert [pt.result.regime.to_dict() for pt in points] == [
        ex.run_regime_check({"theta": v}).regime.to_dict() for v in values]
    assert len(forks) == (size or 0)
    _no_child_left()


def test_sweep_without_fork_is_a_validation_error(monkeypatch):
    monkeypatch.delattr(os, "fork")
    with pytest.raises(ValidationError, match="needs os.fork"):
        ex.sweep("theta", [G, 2 * G], "regime_check", jobs=2)
    assert ex.sweep("theta", [G], "regime_check", jobs=1)[0].ok


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
    assert all(pt.ok for pt in points)
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


def test_csv_text_matches_per_element_repr(fig3b_result, cross_result):
    rows = ["t_seconds,N,n,X,Y,reference,abs_error"]
    for b in sorted(fig3b_result.branches,
                    key=lambda b: (b.n_atoms, b.n_photons)):
        for k, t in enumerate(b.times):
            rows.append(
                f"{_fmt(t)},{b.n_atoms},{b.n_photons},{_fmt(b.x[k])},"
                f"{_fmt(b.y[k])},{_fmt(b.reference[k])},"
                f"{_fmt(b.abs_error[k])}")
    assert ex.csv_text(fig3b_result) == "\n".join(rows) + "\n"
    rows = ["t_seconds,n_a,n_b,modulus,phase"]
    for occ in sorted(cross_result.amplitudes):
        amp = cross_result.amplitudes[occ]
        phase = np.unwrap(np.angle(amp))
        for t, a, ph in zip(cross_result.times, amp, phase):
            rows.append(
                f"{_fmt(t)},{occ[0]},{occ[1]},{_fmt(abs(a))},{_fmt(ph)}")
    assert ex.csv_text(cross_result) == "\n".join(rows) + "\n"


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
    assert rep["regime"]["ratios"]["dispersive_cavity"]["value"] == 0.1
    assert len(rep["branches"]) == 4
    for entry in rep["branches"]:
        assert set(entry) >= {"N", "n", "r_lin", "max_abs_error",
                              "max_plus_population"}


def test_branch_lookup_raises(fig3b_result):
    with pytest.raises(KeyError):
        fig3b_result.branch(7, 7)
