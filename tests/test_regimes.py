import dataclasses
import json
import math

import numpy as np
import pytest

import kerrcav as kc
from kerrcav import experiments as ex, regimes
from kerrcav.errors import ValidationError

G = 1e8


def test_fig3b_ratio_arithmetic(fig3b_p1):
    report = kc.check(fig3b_p1)
    assert abs(report["ratios"]["dispersive_cavity"]["value"] - 0.1) < 1e-12
    assert abs(report["ratios"]["second_dispersive"]["value"] - 0.05) < 1e-12
    assert abs(report["ratios"]["rot_condition"]["value"] - 1.25e-4) < 1e-12
    for name in ("dispersive_cavity", "second_dispersive", "rot_condition"):
        assert report["ratios"][name]["status"] == "pass"
    for name in ("dispersive_laser", "separation", "footnote_ratio"):
        assert report["ratios"][name]["status"] == "not_evaluated"
        assert report["ratios"][name]["value"] is None


def test_sqrtn_scaling(fig3b_p1):
    r1 = kc.check(fig3b_p1)["ratios"]["dispersive_cavity"]["value"]
    p4 = dataclasses.replace(fig3b_p1, n_atoms=4)
    r4 = kc.check(p4)["ratios"]["dispersive_cavity"]["value"]
    assert r4 == pytest.approx(2 * r1, rel=1e-12)


def test_fig3a_warn_at_default_threshold():
    p = ex.fig3a_params(1)   # theta = 0.2 g
    report = kc.check(p)
    entry = report["ratios"]["second_dispersive"]
    assert entry["value"] == pytest.approx(0.25, rel=1e-12)
    assert entry["status"] == "warn"


def test_thresholds_configurable():
    p = ex.fig3a_params(1)
    report = kc.check(p, {"default": 0.3})
    assert report["ratios"]["second_dispersive"]["status"] == "pass"


def test_laser_ratios_with_synthesized_pair(fig3b_p1):
    p = kc.synthesize_raman(fig3b_p1)
    report = kc.check(p)
    lam = abs(p.lam)
    assert report["ratios"]["dispersive_laser"]["value"] == pytest.approx(
        lam / abs(p.delta2), rel=1e-12)
    assert report["ratios"]["separation"]["value"] == pytest.approx(
        lam / abs(p.delta2 - p.delta1), rel=1e-12)
    assert report["ratios"]["footnote_ratio"]["value"] == pytest.approx(
        (lam**3 / p.delta2**2) / (p.g**2 / p.delta1), rel=1e-12)


def test_kerr_strength_values(fig3b_p1):
    assert fig3b_p1.kappa == pytest.approx(2.5e5, rel=1e-12)
    # theta -> 2 theta halves kappa
    p2 = dataclasses.replace(fig3b_p1, theta=2 * G)
    assert p2.kappa == pytest.approx(1.25e5, rel=1e-12)


def test_kerr_strength_n_invariance_with_scaled_detuning():
    # kappa is N-independent when delta1 ~ sqrt(N) at fixed theta
    p1 = kc.SchemeParams(g=G, delta1=10 * G, theta=G,
                         n_atoms=1)
    p2 = kc.SchemeParams(
        g=G, delta1=10 * math.sqrt(2) * G, theta=G, n_atoms=2)
    assert p2.kappa == pytest.approx(p1.kappa,
                                     rel=1e-12)


def test_enhanced_strength_headline_case():
    # N = 1e4 with sqrt(N) g / delta1 = 0.1: exact 0.5 g, estimate 1.0 g
    n = 10**4
    p = kc.SchemeParams(
        g=G, delta1=math.sqrt(n) * G / 0.1, theta=G, n_atoms=n)
    enh = kc.enhanced_strength(p)
    assert enh["enhanced_exact"] == pytest.approx(0.5 * G, rel=1e-12)
    assert enh["enhanced_simple_estimate"] == pytest.approx(1.0 * G, rel=1e-12)
    assert enh["theta_choice"] == pytest.approx(
        n**0.25 * p.g**2 / (2 * p.delta1), rel=1e-12)


def test_enhanced_strength_consistency_with_kappa(fig3b_p1):
    # at theta = theta_choice the rotated strength equals N x^2 / theta_choice
    enh = kc.enhanced_strength(fig3b_p1)
    p_choice = dataclasses.replace(
        fig3b_p1, theta=enh["theta_choice"])
    assert enh["enhanced_exact"] == pytest.approx(
        p_choice.n_atoms * p_choice.stark**2 / p_choice.theta, rel=1e-12)


def test_enhanced_strength_n_scaling(fig3b_p1):
    e1 = kc.enhanced_strength(fig3b_p1)
    p16 = dataclasses.replace(fig3b_p1, n_atoms=16)
    e16 = kc.enhanced_strength(p16)
    assert e16["enhanced_exact"] == pytest.approx(8 * e1["enhanced_exact"],
                                            rel=1e-12)


def test_theta_choice_satisfies_rotation_condition_for_large_n():
    for n, expected_pass in ((1500, False), (2500, True)):
        p = kc.SchemeParams(g=G, delta1=10 * G, theta=G,
                            n_atoms=n)
        enh = kc.enhanced_strength(p)
        p_choice = dataclasses.replace(p, theta=enh["theta_choice"])
        entry = kc.check(p_choice)["ratios"]["rot_condition"]
        assert entry["value"] == pytest.approx(n**-0.25, rel=1e-9)
        assert (entry["status"] == "pass") is expected_pass


def test_ratio_monotonicity_in_n(fig3b_p1):
    values = []
    for n in (1, 2, 4, 8):
        p = dataclasses.replace(fig3b_p1, n_atoms=n)
        rep = kc.check(p)
        values.append([rep["ratios"][k]["value"] for k in
                       ("dispersive_cavity", "second_dispersive",
                        "rot_condition")])
    for a, b in zip(values, values[1:]):
        assert all(x < y for x, y in zip(a, b))


def test_check_is_pure(fig3b_p1):
    a = kc.check(fig3b_p1)
    b = kc.check(fig3b_p1)
    assert a == b
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_report_schema(fig3b_p1):
    d = kc.check(fig3b_p1)
    assert set(d) == {"ratios", "strengths", "notes"}
    for entry in d["ratios"].values():
        assert set(entry) == {"value", "threshold", "status"}
    for key in ("kappa", "rot_strength", "theta_choice", "enhanced_exact",
                "enhanced_simple_estimate"):
        assert key in d["strengths"]


NOTES = [
    "enhanced_exact is N (g^2/2 delta1)^2 / theta_choice; "
    "enhanced_simple_estimate is (sqrt(N) g/delta1) N^(1/4) g, "
    "a factor 2 larger -- both reported on purpose.",
    "laser ratios not evaluated: no (lam, delta2) supplied.",
]


def pinned_report(evaluated: dict, strengths: dict) -> dict:
    """The report of a set without a Raman pair: ``evaluated`` maps each
    cavity ratio to its (value, status)."""
    ratios = {name: {"value": None,
                     "threshold": 0.1 if name == "separation" else 0.15,
                     "status": "not_evaluated"}
              for name in regimes.RATIO_NAMES}
    for name, (value, status) in evaluated.items():
        ratios[name].update(value=value, status=status)
    return {"ratios": ratios, "strengths": strengths, "notes": NOTES}


FIG3B_N1_REPORT = pinned_report(
    {"dispersive_cavity": (0.1, "pass"), "second_dispersive": (0.05, "pass"),
     "rot_condition": (0.00012500000000000003, "pass")},
    {"kappa": 250000.0, "rot_strength": 250000.0, "theta_choice": 5e6,
     "enhanced_exact": 5e6, "enhanced_simple_estimate": 1e7})
FIG3A_N1_REPORT = pinned_report(
    {"dispersive_cavity": (0.1, "pass"), "second_dispersive": (0.25, "warn"),
     "rot_condition": (0.015625, "pass")},
    {"kappa": 1250000.0, "rot_strength": 1250000.0, "theta_choice": 5e6,
     "enhanced_exact": 5e6, "enhanced_simple_estimate": 1e7})


def test_a_report_is_the_dict_its_json_holds():
    # the cross-Kerr sets judge their worse mode, which is fig3b's
    for p, pinned, warned in (
            (ex.fig3b_params(1), FIG3B_N1_REPORT, []),
            (ex.fig3a_params(1), FIG3A_N1_REPORT, ["second_dispersive"]),
            (ex.cross_params("polarization"), FIG3B_N1_REPORT, []),
            (ex.cross_params("toroidal"), FIG3B_N1_REPORT, [])):
        report = kc.check(p)
        assert report == pinned
        assert list(report["ratios"]) == list(regimes.RATIO_NAMES)
        assert json.loads(json.dumps(report, allow_nan=False)) == report
        assert regimes.warned(report) == warned


@pytest.mark.parametrize("thresholds, message", [
    ({"second_dispersive": [0.01, 0.02]}, "thresholds.second_dispersive"),
    ({"default": -1.0}, "thresholds.default"),
    ({"footnote": 0.1}, "unknown ratio 'footnote'"),
    ("0.1", "expected an object"),
])
def test_bad_thresholds_are_rejected_by_name(fig3b_p1, thresholds, message):
    with pytest.raises(ValidationError, match=message):
        kc.check(fig3b_p1, thresholds)
    with pytest.raises(ValidationError, match=message):
        ex.run_regime_check(thresholds=thresholds)


def test_every_ratio_and_default_take_a_threshold(fig3b_p1):
    thresholds = {name: 0.5 for name in (*regimes.RATIO_NAMES, "default")}
    report = kc.check(fig3b_p1, thresholds)
    assert [r["threshold"] for r in report["ratios"].values()] == [0.5] * 6
    assert kc.check(fig3b_p1, {"separation": np.float64(0.0)})["ratios"][
        "separation"]["threshold"] == 0.0


@pytest.mark.parametrize("variant, overrides, detunings, cavity, second", [
    # polarization with delta1_b = g: mode b is the worse mode
    ("polarization", {"delta1_b": 1e8}, (1e9, 1e8), 1.0, 0.5),
    # toroidal with d = 6e8: mode a sits at delta1 - d = 4e8
    ("toroidal", {"mode_split": 6e8}, (4e8, 1.6e9), 0.25, 0.125),
])
def test_cavity_ratios_take_the_worst_mode(variant, overrides, detunings,
                                           cavity, second):
    p = ex.apply_overrides(ex.cross_params(variant), overrides)
    report = kc.check(p)
    assert report["ratios"]["dispersive_cavity"]["value"] == cavity
    assert report["ratios"]["second_dispersive"]["value"] == second
    assert report["ratios"]["rot_condition"]["value"] == pytest.approx(second**3)
    assert "dispersive_cavity" in regimes.warned(report)
    # with a Raman pair, the laser-cavity ratios judge the worst mode too
    raman = dataclasses.replace(p, lam=2e9, delta2=4e10, theta=None)
    lam, d2 = raman.lam, raman.delta2
    ratios = kc.check(raman)["ratios"]
    assert ratios["separation"]["value"] == max(
        max(G, lam) / abs(d2 - d) for d in detunings)
    assert ratios["footnote_ratio"]["value"] == max(
        (lam**3 / d2**2) / (G**2 / d) for d in detunings)


def test_a_raman_detuning_on_a_cavity_mode_is_rejected_by_name():
    p = dataclasses.replace(ex.cross_params("polarization"), delta1_b=4e10,
                            lam=2e9, delta2=4e10, theta=None)
    with pytest.raises(ValidationError, match="cavity mode's detuning"):
        kc.check(p)
