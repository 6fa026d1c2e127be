import dataclasses
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import kerrcav as kc
from kerrcav import cli, experiments, pulses, regimes
from kerrcav.errors import ValidationError
from kerrcav.models import SchemeParams

from capture_outputs import BAD_CONFIGS
from conftest import strict_json

G = 1e8
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_check_regime_defaults(capsys):
    code, out, _ = run_cli(capsys, "check-regime")
    assert code == 0
    report = json.loads(out)
    assert report["ratios"]["dispersive_cavity"]["value"] == 0.1
    assert report["ratios"]["second_dispersive"]["value"] == 0.05


def test_check_regime_strict_warn(capsys, tmp_path):
    cfg = write_config(tmp_path, {"params": {"g": G, "theta": "0.2g"}})
    code, out, _ = run_cli(capsys, "check-regime", "--config", cfg, "--strict")
    assert code == 3
    assert json.loads(out)["ratios"]["second_dispersive"]["status"] == "warn"


@pytest.mark.parametrize("scenario, counts", [
    ("fig3a", [1, 2]), ("fig3b", [1, 2]), ("cross_toroidal", [1]),
    ("regime_check", [1])])
def test_check_regime_judges_the_config_scenario(capsys, tmp_path, scenario,
                                                 counts):
    # one report per atom count the named scenario runs, and the strict
    # verdict of `run --strict` on the same scenario
    code, out, _ = run_cli(capsys, "check-regime", scenario, "--strict")
    reports = json.loads(out)
    assert list(reports) == [f"N={N}" for N in counts]
    for p, report in zip(experiments.scenario_params(scenario),
                         reports.values()):
        assert report == regimes.check(p)
    grid = [] if scenario == "regime_check" else ["--grid-points", "16"]
    run_code, _, _ = run_cli(capsys, "run", scenario, "--strict", *grid,
                             "--out", str(tmp_path / "run"))
    assert code == run_code == (3 if scenario == "fig3a" else 0)


def test_run_fig3b_default_csv(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "run", "fig3b", "--out", str(tmp_path))
    assert code == 0
    paths = json.loads(out)["outputs"]
    lines = pathlib.Path(paths["csv"]).read_text().strip().split("\n")
    assert lines[0] == "t_seconds,N,n,X,Y,reference,abs_error"
    assert len(lines) == 1 + 4 * 512
    report = strict_json(pathlib.Path(paths["json"]).read_text())
    assert report["config"]["scenario"] == "fig3b"


def test_run_outputs_hash_stable(capsys, tmp_path):
    code1, out1, _ = run_cli(capsys, "run", "fig3b", "--grid-points", "32",
                             "--out", str(tmp_path / "r1"))
    code2, out2, _ = run_cli(capsys, "run", "fig3b", "--grid-points", "32",
                             "--out", str(tmp_path / "r2"))
    assert code1 == code2 == 0
    p1 = json.loads(out1)["outputs"]
    p2 = json.loads(out2)["outputs"]
    assert p1["csv"].split("/")[-1] == p2["csv"].split("/")[-1]
    assert (pathlib.Path(p1["csv"]).read_text()
            == pathlib.Path(p2["csv"]).read_text())
    assert (pathlib.Path(p1["json"]).read_text()
            == pathlib.Path(p2["json"]).read_text())


def test_unknown_config_key(capsys, tmp_path):
    cfg = write_config(tmp_path, {"params": {"g": G}, "bogus": 1})
    code, _, err = run_cli(capsys, "check-regime", "--config", cfg)
    assert code == 2
    assert "bogus" in err


def test_unknown_param_key(capsys, tmp_path):
    cfg = write_config(tmp_path, {"params": {"g": G, "gamma": 1.0}})
    code, _, err = run_cli(capsys, "check-regime", "--config", cfg)
    assert code == 2
    assert "gamma" in err


def test_invalid_json_reports_line(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"params": {,}}')
    code, _, err = run_cli(capsys, "check-regime", "--config", str(path))
    assert code == 2
    assert "line" in err


def test_rate_suffix_parsing(capsys, tmp_path):
    cfg = write_config(tmp_path, {
        "params": {"g": G, "delta1": "20g", "theta": "1g"}})
    code, out, _ = run_cli(capsys, "check-regime", "--config", cfg)
    assert code == 0
    assert json.loads(out)["ratios"]["dispersive_cavity"]["value"] == 0.05


def test_rate_suffix_without_g(capsys, tmp_path):
    cfg = write_config(tmp_path, {"params": {"delta1": "10g"}})
    code, _, err = run_cli(capsys, "check-regime", "--config", cfg)
    assert code == 2
    assert "delta1" in err


def test_bad_rate_string(capsys, tmp_path):
    cfg = write_config(tmp_path, {"params": {"g": G, "theta": "fast"}})
    code, _, err = run_cli(capsys, "check-regime", "--config", cfg)
    assert code == 2 and "theta" in err


def test_unknown_scenario(capsys):
    code, _, err = run_cli(capsys, "run", "fig9")
    assert code == 2
    assert "fig9" in err


def test_list_scenarios(capsys):
    code, out, _ = run_cli(capsys, "list-scenarios")
    assert code == 0
    names = out.strip().split("\n")
    assert names == sorted(names)
    for expected in ("fig3a", "fig3b", "cross_polarization",
                     "cross_toroidal", "regime_check"):
        assert expected in names


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for sub in ("run", "check-regime", "sweep", "list-scenarios"):
        assert sub in out
    assert "calibrate" not in out


def test_run_help_lists_flags(capsys):
    with pytest.raises(SystemExit):
        cli.main(["run", "--help"])
    out = capsys.readouterr().out
    for flag in ("--config", "--out", "--mode",
                 "--strict", "--frame-calibration"):
        assert flag in out


def test_config_echo_round_trip(capsys, tmp_path):
    cfg = write_config(tmp_path, {
        "params": {"g": G, "delta1": "10g", "theta": "1g", "omega": "100g"}})
    code, out, _ = run_cli(capsys, "run", "fig3b", "--config", cfg,
                           "--grid-points", "24",
                           "--frame-calibration", "n1_shared",
                           "--out", str(tmp_path / "out"))
    assert code == 0
    paths = json.loads(out)["outputs"]
    report = strict_json(pathlib.Path(paths["json"]).read_text())
    echoed = report["config"]
    assert echoed["grid_points"] == 24
    assert echoed["frame_calibration"] == "n1_shared"
    assert echoed["params"]["delta1"] == 10 * G
    assert echoed["params"]["omega"] == 100 * G


def test_run_cross_is_an_unknown_scenario(capsys, tmp_path):
    # the cross-Kerr scenarios are named in full; there is no 'cross' alias
    out_dir = ["--out", str(tmp_path / "out")]
    for argv in (["run", "cross", *out_dir], ["check-regime", "cross"],
                 ["sweep", "--scenario", "cross", "--param", "theta",
                  "--values", str(G), *out_dir]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "unknown scenario 'cross'" in err
    assert not (tmp_path / "out").exists()


def test_run_strict_regime_failure(capsys, tmp_path):
    cfg = write_config(tmp_path, {"params": {"g": G, "theta": "0.2g"}})
    code, _, err = run_cli(capsys, "run", "regime_check", "--config", cfg,
                           "--strict")
    assert code == 3
    assert "regime" in err


def _report(out):
    """The JSON report a ``run`` wrote, from its printed paths."""
    return strict_json(pathlib.Path(
        json.loads(out)["outputs"]["json"]).read_text())


def test_calibrate_applies_grid_n_max(capsys, tmp_path):
    # the pulse check of `run fig3b` averages over the overlap scenarios'
    # fixed photon truncation, n = 0..N_MAX, and a smaller one scores
    # differently
    code, out, _ = run_cli(capsys, "run", "fig3b", "--grid-points", "16",
                           "--out", str(tmp_path))
    assert code == 0
    pulse = _report(out)["calibration"]["pulse"]

    def check(n_max):
        space = kc.build_space(n_max=n_max, n_atoms=1, levels=2)
        return dataclasses.asdict(kc.calibrate_pulse_phase(
            kc.VProtocol(space, experiments.fig3b_params())))
    assert pulse == check(experiments.N_MAX) != check(2)


def test_calibrate_low_fidelity_exits_3(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(pulses, "_beta_and_fidelity", lambda *_: (0.0, 0.9))
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "run", "fig3b", "--grid-points", "16",
                                "--out", str(out))
    assert (code, stdout) == (3, "")
    assert "pulse-phase calibration failed" in err
    assert not out.exists()


def test_sweep_config_grid_is_applied(capsys, tmp_path):
    # --grid-points reaches every point of a sweep
    code, out, _ = run_cli(capsys, "sweep", "--grid-points", "16",
                           "--param", "theta", "--values", f"{G},{2 * G}",
                           "--scenario", "fig3b", "--out", str(tmp_path))
    assert code == 0
    for entry in json.loads(out):
        report = strict_json(
            pathlib.Path(entry["outputs"]["json"]).read_text())
        assert report["config"]["grid_points"] == 16


def test_sweep_subcommand(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "sweep", "--param", "theta",
        "--values", f"{G},{2 * G}", "--scenario", "regime_check",
        "--out", str(tmp_path))
    assert code == 0
    entries = json.loads(out)
    assert [e["value"] for e in entries] == [G, 2 * G]
    assert all(e["ok"] for e in entries)


def test_sweep_config_strict_checks_every_point_first(capsys, tmp_path):
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "sweep", "--strict", "--param",
                           "theta", "--values", f"{G},2e7,1e7",
                           "--scenario", "fig3b", "--out", str(out))
    assert code == 3
    assert "regime check failed under --strict" in err
    assert "theta=20000000.0" in err and "theta=10000000.0" in err
    assert "theta=100000000.0" not in err
    assert not out.exists()
    # every point in the regime: the sweep runs as without strict
    code, stdout, _ = run_cli(capsys, "sweep", "--strict", "--param",
                              "theta", "--values", str(G), "--scenario",
                              "regime_check", "--out", str(out))
    assert code == 0 and json.loads(stdout)[0]["ok"]
    # a point with invalid parameters is left to fail in the sweep
    code, stdout, _ = run_cli(capsys, "sweep", "--strict", "--param",
                              "delta1", "--values", f"{10 * G},0",
                              "--scenario", "regime_check", "--out", str(out))
    assert code == 3
    ok, failed = json.loads(stdout)
    assert ok["ok"] and "outputs" in ok
    assert not failed["ok"] and "delta1" in failed["error"]


def test_sweep_missing_param(capsys):
    for argv, missing in ((["--values", "1.0"], "--param"),
                          (["--param", "theta"], "--values")):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", *argv])
        assert exc.value.code == 2
        assert f"required: {missing}" in capsys.readouterr().err


@pytest.mark.parametrize("points", ["0", "1", "-5"])
def test_run_rejects_fewer_than_two_grid_points(capsys, tmp_path, points):
    code, _, err = run_cli(capsys, "run", "fig3b", "--grid-points", points,
                           "--out", str(tmp_path))
    assert code == 2
    assert "grid points" in err


def test_sweep_over_n_atoms_reports_only_that_n(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "sweep", "--param", "n_atoms",
                           "--values", "2", "--scenario", "fig3b",
                           "--out", str(tmp_path))
    assert code == 0
    [entry] = json.loads(out)
    assert entry["value"] == 2 and isinstance(entry["value"], int)
    report = strict_json(pathlib.Path(entry["outputs"]["json"]).read_text())
    assert {b["N"] for b in report["branches"]} == {2}


def test_sweep_rejects_non_integral_n_atoms(capsys, tmp_path):
    code, _, err = run_cli(capsys, "sweep", "--param", "n_atoms",
                           "--values", "1.5", "--scenario", "fig3b",
                           "--out", str(tmp_path))
    assert code == 2
    assert "n_atoms" in err


def test_sweep_resolves_g_relative_values_against_config_g(capsys,
                                                           tmp_path):
    cfg = write_config(tmp_path, {"params": {"g": G}})
    code, out, _ = run_cli(capsys, "sweep", "--config", cfg, "--param",
                           "theta", "--values", "2g", "--scenario",
                           "regime_check", "--out", str(tmp_path / "out"))
    assert code == 0
    [entry] = json.loads(out)
    assert entry["value"] == 2 * G
    report = strict_json(pathlib.Path(entry["outputs"]["json"]).read_text())
    assert report["config"]["params"]["theta"] == 2 * G


@pytest.mark.parametrize("cfg, flags, where", [
    ({}, ["--param", "theta", "--values", "2g"], "--values"),
])
def test_sweep_g_relative_value_without_g_names_its_source(
        capsys, tmp_path, cfg, flags, where):
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "sweep", "--config",
                           write_config(tmp_path, cfg), *flags, "--scenario",
                           "regime_check", "--out", str(out))
    assert code == 2
    assert f"{where}: '2g' needs an absolute g" in err
    assert "params.theta" not in err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_unknown_param_exits_2_before_any_point(capsys, tmp_path, jobs):
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "sweep", "--param", "bogus",
                                "--values", "1,2", "--scenario",
                                "regime_check", "--jobs", jobs,
                                "--out", str(out))
    assert code == 2
    assert "unknown sweep parameter 'bogus'" in err
    assert stdout == ""
    assert not out.exists()


def test_run_rejects_non_integral_n_atoms_config(capsys, tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"params": {"n_atoms": 2.5}})
    code, _, err = run_cli(capsys, "run", "fig3b", "--config", cfg,
                           "--out", str(out))
    assert code == 2
    assert "n_atoms" in err
    assert not out.exists()


@pytest.mark.parametrize("scenario", ["regime_check", "fig3b"])
@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("field", ["omega", "lam", "delta2", "g_b",
                                   "delta1_b", "mode_split"])
def test_run_rejects_a_non_finite_rate_by_name(capsys, tmp_path, scenario,
                                               value, field):
    # no report may carry Infinity or NaN, which are not JSON
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"params": {field: value}})
    code, stdout, err = run_cli(capsys, "run", scenario, "--config", cfg,
                                "--out", str(out))
    assert code == 2
    assert f"{field} must be finite" in err
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("values", ["nan,inf", "2e8,1e301g", "3e8,-inf"])
def test_sweep_rejects_a_non_finite_value_before_any_point(
        capsys, tmp_path, monkeypatch, jobs, values):
    # "1e301g" overflows only once scaled by g; no point may run, and no
    # summary may print NaN or Infinity, which are not JSON
    monkeypatch.setattr(cli, "sweep", None)     # calling it would fail
    out = tmp_path / "out"
    code, stdout, err = run_cli(
        capsys, "sweep", "--config", write_config(tmp_path, {
            "params": {"g": G}}), "--scenario", "fig3b", "--param", "theta",
        "--values", values, "--jobs", jobs, "--out", str(out))
    assert code == 2
    assert "--values must be finite, got '" in err
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("text", ['"1e301g"', "1e400", "-Infinity", "NaN"])
def test_config_rejects_a_rate_that_is_not_finite_once_parsed(
        capsys, tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text('{"params": {"g": 1e8, "theta": %s}}' % text)
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "run", "regime_check", "--config",
                                str(path), "--out", str(out))
    assert code == 2
    assert "config key params.theta must be finite" in err
    assert stdout == ""
    assert not out.exists()


class ToyResult:
    """A scenario result that knows its own report and CSV columns."""

    def __init__(self, config, blocks):
        self.config, self.blocks = config, blocks

    def report(self):
        return {"config": self.config, "blocks": len(self.blocks or ())}

    def columns(self):
        if self.blocks is None:
            return None
        return ("t", "k1", "k2", "a", "b"), self.blocks


def toy_runner(with_columns):
    """A scenario with one option, ``grid_points``: two blocks on one grid
    (or none), with the awkward floats 0.1 + 0.2 and -0.0."""
    def run_toy(overrides=None, grid_points=3, thresholds=None):
        theta = (overrides or {}).get("theta", 1.0)
        t = np.linspace(0.0, 1.0, grid_points)
        blocks = [(t, (1, 2), (theta * t, np.cos(theta * t))),
                  (t, (3, 0), (-t, np.full(grid_points, 0.1 + 0.2)))]
        return ToyResult({"scenario": "toy", "grid_points": grid_points,
                          "params": dict(overrides or {})},
                         blocks if with_columns else None)
    return run_toy


def _toy_csv(result):
    """The CSV a toy result should give, one ``repr`` per cell."""
    rows = ["t,k1,k2,a,b"]
    for times, keys, columns in result.blocks:
        for i, t in enumerate(times):
            rows.append(",".join([repr(float(t)), *map(str, keys),
                                  *(repr(float(c[i])) for c in columns)]))
    return "\n".join(rows) + "\n"


def _check_toy_outputs(outputs, expected):
    assert strict_json(pathlib.Path(outputs["json"]).read_text()) == \
        expected.report()
    if expected.blocks is None:
        assert set(outputs) == {"json"}
    else:
        assert pathlib.Path(outputs["csv"]).read_text() == _toy_csv(expected)


@pytest.mark.parametrize("with_columns", [True, False])
def test_a_toy_scenario_needs_no_emission_code(capsys, tmp_path, monkeypatch,
                                               with_columns):
    run_toy = toy_runner(with_columns)
    monkeypatch.setitem(experiments.SCENARIOS, "toy", run_toy)
    code, out, _ = run_cli(capsys, "run", "toy", "--grid-points", "5",
                           "--out", str(tmp_path / "run"))
    assert code == 0
    _check_toy_outputs(json.loads(out)["outputs"], run_toy({}, grid_points=5))
    assert len(list((tmp_path / "run").iterdir())) == 1 + with_columns

    code, out, _ = run_cli(capsys, "sweep", "--scenario", "toy", "--param",
                           "theta", "--values", "0.5,2", "--jobs", "2",
                           "--grid-points", "4", "--out", str(tmp_path / "sw"))
    assert code == 0
    for entry, theta in zip(json.loads(out), (0.5, 2.0)):
        _check_toy_outputs(entry["outputs"],
                           run_toy({"theta": theta}, grid_points=4))
    # an option the toy does not take is still rejected by name
    code, _, err = run_cli(capsys, "run", "toy", "--mode", "ideal",
                           "--out", str(tmp_path / "bad"))
    assert code == 2 and "takes no option 'mode'" in err


@pytest.mark.parametrize("command", [
    ["check-regime"], ["run", "regime_check"], ["run", "fig3b"]])
def test_equal_cavity_and_raman_detunings_exit_2(capsys, tmp_path, command):
    # a consistent Raman pair (2 lam^2/delta2 = theta = g) with delta2 =
    # delta1: the separation ratio divides by |delta2 - delta1|
    cfg = write_config(tmp_path, {
        "params": {"lam": 223606797.74997896, "delta2": 1e9}})
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, *command, "--config", cfg,
                                *(["--out", str(out)] if command[0] == "run"
                                  else []))
    assert code == 2
    assert "delta2 = delta1 = 1e+09" in err
    assert stdout == ""
    assert not out.exists()


def _echoed_params(paths):
    return strict_json(pathlib.Path(paths["json"]).read_text())[
        "config"]["params"]


def test_a_raman_pair_override_derives_theta(capsys, tmp_path):
    # the family's theta = g gives way to 2 lam^2/delta2 = 2e8 when the
    # overrides name the Raman pair but not theta
    cfg = write_config(tmp_path, {"params": {"lam": 2e9, "delta2": 4e10}})
    code, out, err = run_cli(capsys, "run", "regime_check", "--config", cfg,
                             "--out", str(tmp_path / "out"))
    assert code == 0, err
    assert _echoed_params(json.loads(out)["outputs"])["theta"] == 2e8
    code, _, err = run_cli(capsys, "check-regime", "--config", cfg)
    assert code == 0, err


@pytest.mark.parametrize("params, message", [
    ({"lam": 2e9}, "lam and delta2 must be given together"),
    ({"lam": 2e9, "delta2": 4e10, "theta": G},
     "inconsistent parameters: theta=1e+08 but 2 lam^2/delta2 = 2e+08")])
@pytest.mark.parametrize("command", [["check-regime"], ["run", "regime_check"]])
def test_a_raman_override_is_still_validated(capsys, tmp_path, params,
                                             message, command):
    cfg = write_config(tmp_path, {"params": params})
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, *command, "--config", cfg,
                                *(["--out", str(out)] if command[0] == "run"
                                  else []))
    assert code == 2
    assert message in err
    assert stdout == ""
    assert not out.exists()


def test_sweep_over_lam_derives_theta_at_every_point(capsys, tmp_path):
    cfg = write_config(tmp_path, {"params": {"delta2": 2e10}})
    code, out, _ = run_cli(capsys, "sweep", "--config", cfg, "--param", "lam",
                           "--values", "1e9,2e9", "--scenario", "regime_check",
                           "--out", str(tmp_path / "out"))
    assert code == 0
    entries = json.loads(out)
    assert all(e["ok"] for e in entries)
    assert [_echoed_params(e["outputs"])["theta"] for e in entries] == [
        1e8, 4e8]


@pytest.mark.parametrize("scenario, params, message", [
    # mode_split = +-delta1 zeroes one toroidal detuning
    ("cross_toroidal", {"mode_split": 1e9},
     "detuning (delta1 - mode_split) is zero"),
    ("cross_toroidal", {"mode_split": -1e9},
     "detuning (delta1 + mode_split) is zero"),
    ("cross_polarization", {"delta1_b": 0}, "detuning delta1_b is zero"),
    # B = g_b^2/(2 delta1_b) overflows to inf
    ("cross_polarization", {"delta1_b": 1e-300},
     "coupling B = g_b^2/(2 delta1_b) is not finite"),
    ("cross_polarization", {"g_b": 1e200},
     "coupling B = g_b^2/(2 delta1_b) is not finite"),
])
def test_degenerate_cross_kerr_detunings_exit_2(capsys, tmp_path, scenario,
                                                params, message):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"params": params})
    code, stdout, err = run_cli(capsys, "run", scenario, "--config", cfg,
                                "--out", str(out))
    assert code == 2
    assert message in err
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("scenario", ["regime_check", "fig3b"])
@pytest.mark.parametrize("params, message", [
    ({"delta1": 1e-300}, "kappa = N g^4/(4 delta1^2 theta) must be finite "
                         "and nonzero, got inf"),
    ({"g": 1e200}, "mu = g^2/(delta1 theta) must be finite and nonzero, "
                   "got inf"),
    ({"g": 1e-300}, "mu = g^2/(delta1 theta) must be finite and nonzero, "
                    "got 0.0"),
])
def test_derived_rates_that_overflow_or_vanish_exit_2(capsys, tmp_path,
                                                      scenario, params,
                                                      message):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"params": params})
    code, stdout, err = run_cli(capsys, "run", scenario, "--config", cfg,
                                "--out", str(out))
    assert code == 2
    assert message in err
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["run", "fig3b"],
    ["sweep", "--param", "theta", "--values", str(G), "--scenario", "fig3b"],
])
def test_config_unknown_tier_exits_2(capsys, tmp_path, command):
    # the sweep must refuse the config before it runs any point; the mode
    # is the --mode flag, not a config key
    cfg = write_config(tmp_path, {"mode": "ideal"})
    code, _, err = run_cli(capsys, *command, "--config", cfg,
                           "--out", str(tmp_path / "out"))
    assert code == 2
    assert "unknown config key 'mode'" in err
    # the scenarios run on the eliminated tier only; "tier" is no config key
    for tier in ("full", "eliminated"):
        cfg = write_config(tmp_path, {"tier": tier})
        code, _, err = run_cli(capsys, *command, "--config", cfg,
                               "--out", str(tmp_path / "out"))
        assert code == 2
        assert "unknown config key 'tier'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", ["ideal", "physical"])
def test_run_full_tier_is_rejected_not_mislabelled(capsys, tmp_path, mode):
    # the overlap scenarios run on the eliminated tier only, so there is no
    # --tier flag that could echo a full-tier request over their data
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "fig3b", "--mode", mode, "--tier", "full",
                  "--out", str(out)])
    assert exc.value.code == 2
    assert "--tier" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_config_applies_overlap_keys(capsys, tmp_path):
    # the flags that set a run's protocol reach a sweep's points
    code, out, _ = run_cli(capsys, "sweep", "--grid-points", "16",
                           "--mode", "ideal", "--frame-calibration",
                           "n1_shared", "--param", "theta", "--values", str(G),
                           "--scenario", "fig3b", "--out", str(tmp_path))
    assert code == 0
    [entry] = json.loads(out)
    config = strict_json(
        pathlib.Path(entry["outputs"]["json"]).read_text())["config"]
    assert (config["mode"], config["frame_calibration"]) == ("ideal", "n1_shared")


@pytest.mark.parametrize("jobs", ["abc", 2.5, True])
def test_sweep_rejects_non_integral_jobs(capsys, tmp_path, jobs):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--jobs", str(jobs), "--param", "theta",
                  "--values", str(G), "--scenario", "regime_check",
                  "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "argument --jobs: invalid int value" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _tree(root):
    return {str(f.relative_to(root)): f.read_bytes()
            for f in sorted(root.rglob("*")) if f.is_file()}


def test_sweep_jobs_2_matches_jobs_1(capsys, tmp_path, monkeypatch):
    # 1.6e9 fails the pulse guard; 4e8 is repeated, so two workers may write
    # the same files
    values = "5e7,1.6369e8,4e8,1.6e9,4e8"
    runs = {}
    for jobs in ("1", "2"):
        # a relative --out keeps the printed paths comparable
        (tmp_path / jobs).mkdir()
        monkeypatch.chdir(tmp_path / jobs)
        code, out, _ = run_cli(capsys, "sweep", "--scenario", "fig3a",
                               "--param", "theta", "--values", values,
                               "--jobs", jobs, "--out", "out")
        runs[jobs] = (code, out, _tree(tmp_path / jobs))
    assert runs["1"] == runs["2"]
    code, out, files = runs["2"]
    assert code == 3 and len(files) == 6
    entries = json.loads(out)
    assert [e["ok"] for e in entries] == [True, True, True, False, True]
    assert "pulse too slow" in entries[3]["error"]
    assert entries[2]["outputs"] == entries[4]["outputs"]


@pytest.mark.parametrize("jobs", ["-5", "0"], ids=["flag-5", "flag0"])
def test_sweep_rejects_jobs_below_one(capsys, tmp_path, jobs):
    code, out, err = run_cli(capsys, "sweep", "--param", "theta",
                             "--values", str(G), "--scenario", "regime_check",
                             "--out", str(tmp_path / "out"), "--jobs", jobs)
    assert code == 2 and out == ""
    assert f"jobs must be an integer >= 1, got {jobs}" in err
    assert not (tmp_path / "out").exists()


def test_strict_judges_the_parameters_the_scenario_runs(capsys, tmp_path):
    # fig3a runs theta = g N^(1/3)/5, whose second_dispersive ratio warns at
    # N = 1 and 2; fig3b's parameters (which strict used to judge) pass
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "run", "fig3a", "--strict",
                           "--out", str(out))
    assert code == 3
    assert "N=1: ['second_dispersive'], N=2: ['second_dispersive']" in err
    assert not out.exists()
    code, _, _ = run_cli(capsys, "run", "fig3b", "--strict",
                         "--grid-points", "16", "--out", str(out))
    assert code == 0
    cfg = write_config(tmp_path, {"params": {"n_atoms": 2}})
    code, _, err = run_cli(capsys, "sweep", "--strict", "--config", cfg,
                           "--param", "delta1", "--values", f"{10 * G}",
                           "--scenario", "fig3a", "--out", str(out / "sw"))
    assert code == 3
    assert "delta1=1000000000.0 at N=2: ['second_dispersive']" in err
    assert "N=1" not in err
    assert not (out / "sw").exists()


def test_calibrate_fails_a_slow_pulse_on_the_n_max_4_floor(capsys, tmp_path):
    # the pulse guard's floor is 20 g sqrt(n_max) at the fixed n_max = 4
    cfg = write_config(tmp_path, {"params": {"g": G, "omega": "5g"}})
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "run", "fig3b", "--config", cfg,
                                "--out", str(out))
    assert code == 3 and stdout == ""
    assert "pulse too slow: omega = 5e+08 < 4e+09" in err
    assert not out.exists()


def test_unknown_scheme_exits_2(capsys, tmp_path):
    # no output read the scheme, so 'scheme' is no config key
    for scheme in ("self_kerr", "cross_polarization", "cross_bogus"):
        cfg = write_config(tmp_path, {"scheme": scheme})
        for command in (["run", "fig3b", "--out", str(tmp_path / "out")],
                        ["check-regime"]):
            code, out, err = run_cli(capsys, *command, "--config", cfg)
            assert code == 2 and out == ""
            assert "unknown config key 'scheme'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, option", [
    (["run", "cross_polarization", "--mode", "ideal"], "mode"),
    (["run", "cross_toroidal", "--frame-calibration", "n1_shared"],
     "frame_calibration"),
    (["run", "regime_check", "--grid-points", "1"], "grid_points"),
    (["run", "regime_check", "--mode", "physical"], "mode"),
    (["run", "fig3a", "--frame-calibration", "n1_shared"],
     "frame_calibration"),
    (["sweep", "--scenario", "cross_polarization", "--mode", "ideal",
      "--param", "theta", "--values", f"{G},{2 * G}"], "mode"),
], ids=["cross-mode", "cross-frame", "regime-grid", "regime-mode",
        "fig3a-frame", "sweep-cross-mode"])
def test_run_flag_the_scenario_does_not_take_exits_2(capsys, tmp_path, argv,
                                                     option):
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 2 and stdout == ""
    assert f"takes no option '{option}'" in err
    assert not out.exists()


def test_run_mode_flag_takes_every_protocol_mode(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "run", "fig3b", "--mode",
                           "rotated_reference", "--grid-points", "16",
                           "--out", str(tmp_path))
    assert code == 0
    report = strict_json(pathlib.Path(
        json.loads(out)["outputs"]["json"]).read_text())
    assert report["config"]["mode"] == "rotated_reference"


def test_run_help_lists_every_scenario(capsys):
    with pytest.raises(SystemExit):
        cli.main(["run", "--help"])
    out = capsys.readouterr().out
    assert " | ".join(experiments.SCENARIOS) in " ".join(out.split())


def test_python_dash_m_runs_the_cli():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    path = [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    proc = subprocess.run(
        [sys.executable, "-m", "kerrcav", "list-scenarios"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "fig3b" in proc.stdout.split()


def test_sweep_jobs_imports_no_process_pool(tmp_path):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    path = [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    argv = ["sweep", "--param", "theta", "--values", "1e8,2e8", "--scenario",
            "fig3a", "--jobs", "2", "--out", str(tmp_path)]
    script = (
        "import sys\n"
        "from kerrcav import cli\n"
        f"code = cli.main({argv!r})\n"
        "pools = sorted(m for m in sys.modules\n"
        "               if m.split('.')[0] in ('multiprocessing', 'concurrent'))\n"
        "print(code, pools)\n")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
    assert len(list(tmp_path.glob("fig3a_*.json"))) == 2


@pytest.mark.parametrize("argv, loads", [
    (["list-scenarios"], False), (["check-regime"], False),
    (["run", "fig3b", "--grid-points", "16"], True)],
    ids=["list-scenarios", "check-regime", "run"])
def test_only_a_command_that_writes_files_imports_hashlib(tmp_path, argv,
                                                         loads):
    # hashlib loads OpenSSL; only the file-name hash of written outputs
    # needs it, and ``run`` shows that the check sees the import
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    path = [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    if argv[0] == "run":
        argv = argv + ["--out", str(tmp_path)]
    script = ("import sys\n"
              "from kerrcav import cli\n"
              f"code = cli.main({argv!r})\n"
              "print(code, 'hashlib' in sys.modules)\n")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {loads}"


@pytest.mark.parametrize("scenario", [
    "regime_check", "fig3b", "fig3a", "cross_polarization", "cross_toroidal"])
def test_config_thresholds_reach_the_written_report(capsys, tmp_path,
                                                    scenario):
    # the JSON regime block applies the thresholds check-regime applies;
    # an overlap report keys it by atom count, as check-regime does
    thresholds = {"second_dispersive": 0.01, "default": 0.2}
    cfg = write_config(tmp_path, {"thresholds": thresholds})
    grid = [] if scenario == "regime_check" else ["--grid-points", "16"]
    code, out, _ = run_cli(capsys, "run", scenario, "--config", cfg, *grid,
                           "--out", str(tmp_path / "run"))
    assert code == 0
    report = _report(out)
    assert report["config"]["thresholds"] == thresholds
    overlap = scenario in experiments.OVERLAP_SCENARIOS
    for block in (report["regime"].values() if overlap
                  else [report["regime"]]):
        ratios = block["ratios"]
        assert ratios["second_dispersive"]["threshold"] == 0.01
        assert ratios["second_dispersive"]["status"] == "warn"
        assert ratios["dispersive_cavity"]["threshold"] == 0.2
    code, out, _ = run_cli(capsys, "check-regime", scenario, "--config", cfg)
    shown = json.loads(out)
    assert report["regime"] == (shown if overlap else shown["N=1"])


def test_an_overlap_report_judges_every_atom_count(capsys, tmp_path):
    # at delta1 = 8g, fig3a's dispersive_cavity ratio sqrt(N) g/delta1 is
    # 0.125 (pass) at N = 1 and 0.177 (warn) at N = 2
    cfg = write_config(tmp_path, {"params": {"g": G, "delta1": "8g"}})
    code, out, _ = run_cli(capsys, "run", "fig3a", "--config", cfg,
                           "--grid-points", "16", "--out", str(tmp_path))
    assert code == 0
    regime = _report(out)["regime"]
    assert list(regime) == ["N=1", "N=2"]
    assert [regime[key]["ratios"]["dispersive_cavity"]["status"]
            for key in regime] == ["pass", "warn"]
    code, out, _ = run_cli(capsys, "check-regime", "fig3a", "--config", cfg)
    assert code == 0 and json.loads(out) == regime
    code, _, err = run_cli(capsys, "run", "fig3a", "--strict", "--config",
                           cfg, "--out", str(tmp_path))
    assert code == 3 and "N=2: ['dispersive_cavity'" in err


@pytest.mark.parametrize("argv", [
    ["run", "fig3b"],
    ["sweep", "--scenario", "fig3a", "--param", "theta", "--values",
     "1e8,2e8", "--jobs", "1"],
    ["sweep", "--scenario", "fig3a", "--param", "theta", "--values",
     "1e8,2e8", "--jobs", "2"],
], ids=["run", "sweep-jobs1", "sweep-jobs2"])
def test_out_that_cannot_be_a_directory_exits_2_by_name(capsys, tmp_path,
                                                        argv):
    # checked once, before any scenario runs
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    for out in (blocker, blocker / "sub"):
        code, stdout, err = run_cli(capsys, *argv, "--grid-points", "16",
                                    "--out", str(out))
        assert (code, stdout) == (2, "")
        assert (f"error: --out {out}: {blocker} exists and is not a "
                "directory\n") == err
    assert blocker.read_text() == "kept"


def test_config_thresholds_reach_every_sweep_point(capsys, tmp_path):
    cfg = write_config(tmp_path, {"thresholds": {"second_dispersive": 0.01}})
    code, out, _ = run_cli(capsys, "sweep", "--scenario", "regime_check",
                           "--param", "theta", "--values", "1e8,2e8",
                           "--jobs", "2", "--config", cfg,
                           "--out", str(tmp_path / "sweep"))
    assert code == 0
    for point in json.loads(out):
        ratio = strict_json(pathlib.Path(point["outputs"]["json"]).read_text())[
            "regime"]["ratios"]["second_dispersive"]
        assert (ratio["threshold"], ratio["status"]) == (0.01, "warn")


def test_empty_thresholds_leave_report_and_file_name_unchanged(capsys,
                                                               tmp_path):
    written = []
    for name, cfg in (("none", {}), ("empty", {"thresholds": {}})):
        path = write_config(tmp_path, cfg, f"{name}.json")
        code, out, _ = run_cli(capsys, "run", "regime_check", "--config", path,
                               "--out", str(tmp_path / name))
        assert code == 0
        written.append(pathlib.Path(json.loads(out)["outputs"]["json"]))
    assert written[0].name == written[1].name
    assert written[0].read_bytes() == written[1].read_bytes()
    assert "thresholds" not in strict_json(written[0].read_text())["config"]


@pytest.mark.parametrize("thresholds, message", [
    ({"second_dispersive": [0.01, 0.02]}, "thresholds.second_dispersive"),
    ({"default": "0.1"}, "thresholds.default"),
    ({"rot_condition": True}, "thresholds.rot_condition"),
    ({"separation": -0.1}, "thresholds.separation"),
    ({"default": float("nan")}, "thresholds.default"),
    ({"second_dispersive": float("inf")}, "thresholds.second_dispersive"),
    ({"second_dispersiv": 0.01}, "unknown ratio 'second_dispersiv'"),
    ({"kappa": 0.01}, "unknown ratio 'kappa'"),
    ([0.1], "config key thresholds: expected an object"),
])
def test_bad_thresholds_exit_2_by_name(capsys, tmp_path, thresholds,
                                       message):
    # every subcommand resolves the config before it runs or writes anything
    cfg = write_config(tmp_path, {"thresholds": thresholds})
    out_dir = ["--out", str(tmp_path / "out")]
    for argv in (["check-regime"], ["run", "regime_check", *out_dir],
                 ["sweep", "--param", "theta", "--values", "1e8", *out_dir]):
        code, out, err = run_cli(capsys, *argv, "--config", cfg)
        assert code == 2 and out == ""
        assert message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("param", ["kappa", "mu"])
def test_derived_parameters_cannot_be_swept_or_overridden(capsys, tmp_path,
                                                         param):
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "sweep", "--param", param,
                                "--values", "1,2", "--scenario", "fig3b",
                                "--out", str(out))
    assert code == 2 and stdout == ""
    assert f"unknown sweep parameter {param!r}" in err
    assert not out.exists()
    with pytest.raises(ValidationError, match="unknown parameter override"):
        experiments.run_fig3b({param: 1.0})


def test_config_params_are_the_settable_parameters():
    settable = {f.name for f in dataclasses.fields(SchemeParams)} - {
        "mu", "kappa"}
    assert experiments.PARAM_NAMES == settable
    # n_atoms is an integer; every other parameter is a rate in the "10g" form
    for name in settable - {"g", "n_atoms"}:
        cfg = cli.resolve_config({"params": {"g": G, name: "3g"}})
        assert cfg["params"][name] == 3 * G
    assert cli.resolve_config({"params": {"n_atoms": "2"}})["params"] == {
        "n_atoms": 2}
    for name in ("mu", "kappa", "stark"):
        with pytest.raises(ValidationError,
                           match=f"unknown config key params.{name!r}"):
            cli.resolve_config({"params": {name: 1.0}})


@pytest.mark.parametrize("cfg, message", [
    ({"params": [1, 2]}, "key params must be an object, got [1, 2]"),
    ({"params": "x"}, "key params must be an object, got 'x'"),
])
def test_malformed_config_block_exits_2_by_name(capsys, tmp_path,
                                                monkeypatch, cfg, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "run", "fig3b", "--config",
                             write_config(tmp_path, cfg))
    assert code == 2 and out == ""
    assert message in err
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


@pytest.mark.parametrize("text", BAD_CONFIGS.values(), ids=BAD_CONFIGS)
@pytest.mark.parametrize("argv", [
    ["run", "fig3b"], ["check-regime"],
    ["sweep", "--scenario", "fig3a", "--param", "theta", "--values", str(G)],
], ids=["run", "check-regime", "sweep"])
def test_a_config_json_cannot_parse_exits_2_by_name(capsys, tmp_path, text,
                                                     argv):
    config = tmp_path / "config.json"
    config.write_bytes(text)
    out = tmp_path / "out"
    extra = ["--out", str(out)] if argv[0] != "check-regime" else []
    code, stdout, err = run_cli(capsys, *argv, "--config", str(config), *extra)
    assert (code, stdout) == (2, "")
    assert f"config {config}: invalid JSON" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("cfg, message", [
    # g scales the "10g" rates, so a g of True must not pass as 1
    ({"params": {"g": True, "delta1": "10g"}},
     "config key params.g: expected a rate, got True"),
    ({"thresholds": {"default": True}},
     "config key thresholds.default: expected a finite number >= 0, "
     "got True"),
    ({"params": {"n_atoms": True}},
     "config key params.n_atoms: expected an integer, got True"),
    ({"params": {"theta": True}},
     "config key params.theta: expected a rate, got True"),
])
def test_a_json_boolean_is_not_a_number(capsys, tmp_path, cfg, message):
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "run", "fig3b", "--config",
                                write_config(tmp_path, cfg), "--out", str(out))
    assert code == 2 and stdout == ""
    assert message in err
    assert not out.exists()


SUBCOMMANDS = (["run", "regime_check"], ["check-regime"],
               ["sweep", "--param", "theta", "--values", str(G),
                "--scenario", "regime_check"])


@pytest.mark.parametrize("cfg, key", [
    ({"grid": {"points": True}}, "grid"),
    ({"jobs": 0}, "jobs"),
    ({"grid": {"points": 1}, "scenario": "regime_check"}, "grid"),
    ({"grid": {"n_max": -1}, "scenario": "cross_polarization"}, "grid"),
    ({"grid": {"n_max": 4}}, "grid"),
    ({"sweep": {"param": "bogus"}}, "sweep"),
    ({"scenario": "fig9"}, "scenario"),
    ({"scenario": "fig3b"}, "scenario"),
    ({"mode": "ideal"}, "mode"),
    ({"frame_calibration": "n1_shared"}, "frame_calibration"),
    ({"grid": {"points": 16}}, "grid"),
    ({"sweep": {"param": "theta", "values": [G]}}, "sweep"),
    ({"output": {"dir": "out"}}, "output"),
    ({"jobs": 2}, "jobs"),
    ({"strict": True}, "strict"),
], ids=["points-true", "jobs-0", "points-1", "n_max-neg", "n_max-4",
        "param-bogus", "scenario-fig9", "scenario", "mode",
        "frame_calibration", "grid.points", "sweep", "output.dir", "jobs",
        "strict"])
def test_every_subcommand_judges_a_config_the_same_way(capsys, tmp_path, cfg,
                                                       key):
    # a config holds params and thresholds only: every run setting is a
    # flag, and each subcommand rejects a config that names one, whatever
    # its value, by name and before it runs or writes anything
    message = f"unknown config key {key!r}"
    config = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    for argv in SUBCOMMANDS:
        extra = ["--out", str(out)] if argv[0] in ("run", "sweep") else []
        code, stdout, err = run_cli(capsys, *argv, "--config", config, *extra)
        assert (code, stdout) == (2, ""), argv
        assert message in err, argv
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("g_b", G), ("delta1_b", 3 * G), ("mode_split", 3 * G)])
def test_one_mode_scenarios_reject_mode_b_parameters_by_name(
        capsys, tmp_path, field, value):
    message = f"fig3b runs one cavity mode and takes no mode-b parameter {field!r}"
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"params": {field: value}})
    for argv in (["run", "fig3b", "--config", cfg, "--out", str(out)],
                 ["run", "fig3b", "--config", cfg, "--out", str(out),
                  "--strict"],
                 ["check-regime", "fig3b", "--config", cfg]):
        code, stdout, err = run_cli(capsys, *argv)
        assert (code, stdout) == (2, ""), argv
        assert message in err, argv
    assert not out.exists()
    # in a sweep the point fails and is recorded
    code, stdout, _ = run_cli(capsys, "sweep", "--scenario", "fig3b",
                              "--config", cfg, "--param", "theta",
                              "--values", str(G), "--out", str(out))
    assert code == 3
    [point] = json.loads(stdout)
    assert not point["ok"] and point["error"] == message
    # the regime_check family takes a complete mode b and judges its worst
    # mode: delta1_b = 3g is 3x closer than delta1
    code, stdout, _ = run_cli(capsys, "check-regime", "--config", write_config(
        tmp_path, {"params": {"g_b": G, "delta1_b": 3 * G}}, "rc.json"))
    assert code == 0
    assert json.loads(stdout)["ratios"]["dispersive_cavity"]["value"] == 1 / 3


def test_cross_kerr_runs_the_pulse_protocol_under_its_guard(capsys, tmp_path):
    # omega sets the pulses of the protocol the cross-Kerr run drives, so a
    # pulse slower than the guard stops the run
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"params": {"g": G, "omega": "10g"}})
    code, stdout, err = run_cli(capsys, "run", "cross_polarization",
                                "--config", cfg, "--out", str(out))
    assert (code, stdout) == (3, "")
    assert "pulse too slow" in err
    assert not out.exists()


def test_cross_kerr_control_writes_strict_json(capsys, tmp_path):
    # criterion 8's g_b = 0 control has no cross-Kerr coefficient, so its
    # relative error is undefined: null, not Infinity
    cfg = write_config(tmp_path, {"params": {"g_b": 0}})
    code, out, _ = run_cli(capsys, "run", "cross_polarization", "--config",
                           cfg, "--out", str(tmp_path / "out"))
    assert code == 0
    report = strict_json(
        pathlib.Path(json.loads(out)["outputs"]["json"]).read_text())
    assert (report["nu_effective"], report["relative_error"]) == (0.0, None)


@pytest.mark.parametrize("scenario", ["cross_polarization", "cross_toroidal"])
def test_a_mode_b_with_both_variants_exits_2(capsys, tmp_path, scenario):
    # each scenario names one variant of mode b; naming the other as well
    # is an error, not an override that is ignored
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"params": {"delta1_b": 1e9,
                                             "mode_split": 1e8}})
    code, stdout, err = run_cli(capsys, "run", scenario, "--config", cfg,
                                "--out", str(out))
    assert (code, stdout) == (2, "")
    assert ("mode b needs exactly one of delta1_b (polarization) and "
            "mode_split (toroidal)") in err
    assert not out.exists()


def _readme_blocks(lang):
    """The bodies of README's fenced code blocks in ``lang``."""
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(),
                      re.M | re.S)


def test_readme_commands_and_configs_are_current():
    # every `kerrcav` line of README's shell blocks parses, naming a known
    # scenario, and every JSON block is a config resolve_config accepts, so
    # the docs cannot name a removed subcommand, flag or config key
    parser = cli.build_parser()
    lines = [line.split("#")[0] for block in _readme_blocks("sh")
             for line in block.splitlines() if line.startswith("kerrcav ")]
    assert len(lines) >= 5
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert getattr(args, "scenario", None) in (None, *experiments.SCENARIOS)
    configs = _readme_blocks("json")
    assert configs
    for block in configs:
        cli.resolve_config(json.loads(block))


def test_every_capture_command_parses():
    # tests/capture_outputs.py's byte-identity matrix names only current
    # subcommands, scenarios and flags, and covers every subcommand that
    # writes outputs
    import capture_outputs

    parser = cli.build_parser()
    commands = set()
    for case in capture_outputs.CASES:
        args = parser.parse_args(capture_outputs.argv_for(case))
        assert getattr(args, "scenario", None) in (None, *experiments.SCENARIOS)
        commands.add(capture_outputs.CASES[case][0])
    assert commands == {"run", "check-regime", "sweep"}
