"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""
import dataclasses
import math
import pathlib
import time

import numpy as np

import kerrcav as kc
from kerrcav import models, numerics
from kerrcav import experiments as ex

from oracles import (dense_ideal_rotation, full_hamiltonian_func,
                     h1int_representation_gap, index, max_abs_diff,
                     occupation_isometry, product_collective,
                     propagate_timedep)

G = 1e8


def report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, detail


def test_criterion_1_fig3b_reproduction():
    t0 = time.perf_counter()
    result = ex.run_fig3b()
    elapsed = time.perf_counter() - t0
    per_branch = elapsed / len(result.branches)
    devs = {(b.n_atoms, b.n_photons): b.max_abs_error
            for b in result.branches}
    ok = (set(devs) == {(1, 1), (1, 2), (2, 1), (2, 2)}
          and all(v <= 0.15 for v in devs.values())
          and per_branch <= 120.0)
    detail = ("max|Y - cos(kappa n^2 t)| = "
              + ", ".join(f"{k}: {v:.4f}" for k, v in sorted(devs.items()))
              + f" (tol 0.15); {per_branch:.2f} s/branch (tol 120 s)")
    report(1, ok, detail)


def test_criterion_2_fig3a_reproduction():
    result = ex.run_fig3a()
    floors = {}
    ideal_devs = {}
    for (n_atoms, n) in ((1, 2), (2, 2)):
        b = result.branch(n_atoms, n)
        floors[(n_atoms, n)] = b.min_x
        ideal_devs[(n_atoms, n)] = b.ideal_deviation
    ok = (all(v >= 0.9 for v in floors.values())
          and all(v <= 0.1 for v in ideal_devs.values()))
    detail = ("min X = "
              + ", ".join(f"{k}: {v:.4f}" for k, v in sorted(floors.items()))
              + " (floor 0.9); ideal-oracle deviation = "
              + ", ".join(f"{k}: {v:.4f}" for k, v in sorted(ideal_devs.items()))
              + " (tol 0.1)")
    report(2, ok, detail)


def test_criterion_3_kerr_frequency_law(fig3b_result):
    f1 = fig3b_result.branch(1, 1).freq_fit
    f2 = fig3b_result.branch(1, 2).freq_fit
    ratio = f2 / f1
    ok = 3.8 <= ratio <= 4.2
    report(3, ok, f"fitted frequency ratio n=2 / n=1 = {ratio:.4f} "
                  f"(band [3.8, 4.2])")


def test_criterion_4_regime_arithmetic(fig3b_p1):
    rep = kc.check(fig3b_p1)
    r = {k: rep["ratios"][k]["value"] for k in
         ("dispersive_cavity", "second_dispersive", "rot_condition")}
    exact = (abs(r["dispersive_cavity"] - 0.1) <= 1e-12
             and abs(r["second_dispersive"] - 0.05) <= 1e-12
             and abs(r["rot_condition"] - 1.25e-4) <= 1e-12)
    n = 10**4
    p_enh = kc.SchemeParams(
        g=G, delta1=math.sqrt(n) * G / 0.1, theta=G, n_atoms=n)
    enh = kc.enhanced_strength(p_enh)
    rep_enh = kc.check(p_enh)
    both_present = ("enhanced_exact" in rep_enh["strengths"]
                    and "enhanced_simple_estimate" in rep_enh["strengths"])
    enh_ok = (abs(enh["enhanced_exact"] - 0.5 * G) <= 1e-12 * G
              and abs(enh["enhanced_simple_estimate"] - 1.0 * G) <= 1e-12 * G
              and both_present)
    ok = exact and enh_ok
    report(4, ok,
           f"ratios = ({r['dispersive_cavity']:.6g}, "
           f"{r['second_dispersive']:.6g}, {r['rot_condition']:.6g}) "
           f"vs (0.1, 0.05, 1.25e-4) tol 1e-12; enhanced strength "
           f"exact {enh['enhanced_exact'] / G:.6g} g / simple estimate "
           f"{enh['enhanced_simple_estimate'] / G:.6g} g, both in report: {both_present}")


def test_criterion_5_operator_algebra():
    su2_defect = 0.0
    adjoint_exact = True
    restriction_defect = 0.0
    for n_atoms in (1, 2, 3, 4):
        # the symmetric space, and the Kronecker-product oracle of N
        # distinguishable atoms that it must be the restriction of
        space = kc.build_space(n_max=1, n_atoms=n_atoms, levels=2)
        prod = {(b, k): np.kron(np.eye(2), product_collective(n_atoms, 2, b, k))
                for b in "+-" for k in "+-"}
        lift = np.kron(np.eye(2), occupation_isometry(space))
        for spm, smp, s3 in (
                (kc.collective(space, "+", "-"),
                 kc.collective(space, "-", "+"), kc.s3(space)),
                (prod["+", "-"], prod["-", "+"],
                 prod["+", "+"] - prod["-", "-"])):
            su2_defect = max(su2_defect, max_abs_diff(
                spm @ smp - smp @ spm, s3))
            adjoint_exact &= np.array_equal(spm.conj().T, smp)
        for (b, k), s_prod in prod.items():
            restriction_defect = max(restriction_defect, max_abs_diff(
                kc.collective(space, b, k), lift.T @ s_prod @ lift))
    space = kc.build_space(n_max=5, n_atoms=1, levels=2)
    a = kc.annihilation(space)
    comm = a @ a.conj().T - a.conj().T @ a
    trunc_defect = max(
        abs(comm[index(space, n, 0), index(space, n, 0)] - 1)
        for n in range(space.n_max))
    rep_dev = 0.0
    p = ex.fig3b_params(1)
    times = np.linspace(0, 30 / G, 5)
    for n_atoms in (1, 2, 3):
        space = kc.build_space(n_max=2, n_atoms=n_atoms, levels=2)
        rep_dev = max(rep_dev, h1int_representation_gap(
            space, dataclasses.replace(p, n_atoms=n_atoms), times))
    ok = (su2_defect <= 1e-12 and adjoint_exact
          and restriction_defect <= 1e-12
          and trunc_defect <= 1e-12 and rep_dev <= 1e-8)
    report(5, ok,
           f"su(2) defect {su2_defect:.2e} (tol 1e-12); adjoint exact: "
           f"{adjoint_exact}; symmetric = W^dag S_prod W to "
           f"{restriction_defect:.2e} (tol 1e-12); [a,a^dag] sector defect "
           f"{trunc_defect:.2e}; representation agreement {rep_dev:.2e} "
           f"(tol 1e-8)")


def test_criterion_6_hausdorff_residual_scaling():
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
    slope = float(np.polyfit(np.log(rs), np.log(resid), 1)[0])
    ok = slope >= 3.5
    report(6, ok, f"log-log slope of ||U^dag H1int U - H_rot|| vs r = "
                  f"{slope:.3f} (floor 3.5)")


def test_criterion_7_integrator_cross_oracle(fig3b_p1):
    p = kc.synthesize_raman(fig3b_p1)
    space = kc.build_space(n_max=2, n_atoms=1, levels=3)
    hop, g = models.static_frame_hamiltonian(space, p, raman=True)
    h_func, rate = full_hamiltonian_func(space, p, raman=True)
    t1 = 0.1 / G
    eig = numerics.HermitianEigensystem(hop)
    u_exact = np.exp(-1j * g * t1)[:, None] * eig.propagator(t1)
    u_step = propagate_timedep(h_func, 0.0, t1, 4000, rate)
    diff = max_abs_diff(u_exact, u_step)

    space_b = kc.build_space(n_max=3, n_atoms=1, levels=2)
    proto_b = kc.VProtocol(space_b, fig3b_p1, mode="physical")
    proto_a = kc.VProtocol(space, p, mode="physical")
    defect = 0.0
    for t in (0.0, 31.0 / G, 503.0 / G, 2511.0 / G):
        defect = max(defect, numerics.unitarity_defect(
            numerics.block_diagonal(proto_b.blocks(t))))
        defect = max(defect, numerics.unitarity_defect(
            numerics.block_diagonal(proto_a.blocks(t))))
    ok = diff <= 1e-6 and defect <= 1e-8
    report(7, ok, f"static-frame vs midpoint max-entry diff = {diff:.2e} "
                  f"(tol 1e-6); composed V(t) unitarity defect = "
                  f"{defect:.2e} (tol 1e-8)")


def test_criterion_8_cross_kerr(cross_result):
    res = cross_result
    coeff_ok = abs(res.nu_effective - 5e5) <= 1e-6 * 5e5
    within = res.relative_error <= 0.15
    control = ex.run_cross_kerr("polarization", {"g_b": 0.0})
    control_ok = abs(control.nu_hat) <= 1e-3 * abs(res.nu_hat)
    ok = coeff_ok and within and control_ok
    report(8, ok,
           f"nu_hat = {res.nu_hat:.6g} vs effective coefficient "
           f"{res.nu_effective:.6g} s^-1 (= 5e5), relative error "
           f"{res.relative_error:.3%} (tol 15%); g_b=0 control "
           f"nu_hat = {control.nu_hat:.3g}")


def test_criterion_9_leakage_bound(fig3b_result, fig3b_p1):
    rot = kc.check(fig3b_p1)["ratios"]["rot_condition"]["value"]
    pops = {(b.n_atoms, b.n_photons): b.max_plus_population
            for b in fig3b_result.branches}
    ok = rot <= 0.1 and all(v <= 0.05 for v in pops.values())
    detail = (f"rotation-condition ratio {rot:.3g} <= 0.1; max |+> population "
              + ", ".join(f"{k}: {v:.2e}" for k, v in sorted(pops.items()))
              + " (tol 0.05)")
    report(9, ok, detail)


def test_criterion_10_determinism(tmp_path):
    kw = dict(grid_points=512)
    r1 = ex.run_fig3b(**kw)
    r2 = ex.run_fig3b(**kw)
    p1 = ex.write_outputs(r1, tmp_path / "run1")
    p2 = ex.write_outputs(r2, tmp_path / "run2")
    csv_same = (pathlib.Path(p1["csv"]).read_bytes()
                == pathlib.Path(p2["csv"]).read_bytes())
    json_same = (pathlib.Path(p1["json"]).read_bytes()
                 == pathlib.Path(p2["json"]).read_bytes())
    names_same = (p1["csv"].split("/")[-1] == p2["csv"].split("/")[-1])
    ok = csv_same and json_same and names_same
    report(10, ok, f"byte-identical outputs across two runs: CSV {csv_same}, "
                   f"JSON {json_same}, hash-stable names {names_same}")
