import json
import os
import pathlib
import subprocess
import sys

import pytest

from kerrcav import cli, experiments, pulses

G = 1e8


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


def test_run_fig3b_default_csv(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "run", "fig3b", "--out", str(tmp_path))
    assert code == 0
    paths = json.loads(out)["outputs"]
    lines = pathlib.Path(paths["csv"]).read_text().strip().split("\n")
    assert lines[0] == "t_seconds,N,n,X,Y,reference,abs_error"
    assert len(lines) == 1 + 4 * 512
    report = json.loads(pathlib.Path(paths["json"]).read_text())
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
    for sub in ("run", "check-regime", "sweep", "calibrate", "list-scenarios"):
        assert sub in out


def test_run_help_lists_flags(capsys):
    with pytest.raises(SystemExit):
        cli.main(["run", "--help"])
    out = capsys.readouterr().out
    for flag in ("--config", "--out", "--mode",
                 "--strict", "--frame-calibration"):
        assert flag in out


def test_config_echo_round_trip(capsys, tmp_path):
    cfg = write_config(tmp_path, {
        "scenario": "fig3b",
        "params": {"g": G, "delta1": "10g", "theta": "1g", "omega": "100g"},
        "grid": {"points": 24},
        "frame_calibration": "n1_shared",
        "output": {"dir": str(tmp_path / "out")},
    })
    code, out, _ = run_cli(capsys, "run", "--config", cfg)
    assert code == 0
    paths = json.loads(out)["outputs"]
    report = json.loads(pathlib.Path(paths["json"]).read_text())
    echoed = report["config"]
    assert echoed["grid_points"] == 24
    assert echoed["frame_calibration"] == "n1_shared"
    assert echoed["params"]["delta1"] == 10 * G
    assert echoed["params"]["omega"] == 100 * G


def test_run_cross_is_an_unknown_scenario(capsys, tmp_path):
    # the cross-Kerr scenarios are named in full; there is no 'cross' alias
    cfg = write_config(tmp_path, {"scenario": "cross"})
    for argv in (["run", "cross"], ["run", "--config", cfg]):
        code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
        assert code == 2 and out == ""
        assert "unknown scenario 'cross'" in err
    assert not (tmp_path / "out").exists()


def test_run_strict_regime_failure(capsys, tmp_path):
    cfg = write_config(tmp_path, {"params": {"g": G, "theta": "0.2g"}})
    code, _, err = run_cli(capsys, "run", "regime_check", "--config", cfg,
                           "--strict")
    assert code == 3
    assert "regime" in err


def test_calibrate_subcommand(capsys):
    code, out, _ = run_cli(capsys, "calibrate")
    assert code == 0
    data = json.loads(out)
    assert abs(data["pulse"]["phi_forward"] - 3.141592653589793) < 1e-3
    assert data["frame"]["flagged"] is False


@pytest.mark.parametrize("grid, message", [
    ({"points": "abc"}, "grid points"),
    ({"points": 1}, "grid points"),
    ({"n_max": 1.5}, "grid.n_max"),
], ids=["points-abc", "points-1", "n_max-1.5"])
def test_calibrate_rejects_bad_grid(capsys, tmp_path, grid, message):
    cfg = write_config(tmp_path, {"grid": grid})
    code, _, err = run_cli(capsys, "calibrate", "--config", cfg)
    assert code == 2
    assert message in err


def test_calibrate_applies_grid_n_max(capsys, tmp_path):
    # the frame fit runs on the n = 1 series, as in run fig3b
    cfg = write_config(tmp_path, {"grid": {"n_max": 0}})
    code, out, err = run_cli(capsys, "calibrate", "--config", cfg)
    assert code == 2
    assert "photon number 1 outside 0..0" in err
    assert out == ""


def test_calibrate_low_fidelity_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(pulses, "_beta_and_fidelity", lambda *_: (0.0, 0.9))
    code, _, err = run_cli(capsys, "calibrate")
    assert code == 3
    assert "pulse-phase calibration failed" in err


def test_sweep_config_grid_is_applied(capsys, tmp_path):
    cfg = write_config(tmp_path, {"grid": {"points": 16}})
    code, out, _ = run_cli(capsys, "sweep", "--config", cfg,
                           "--param", "theta", "--values", str(G),
                           "--scenario", "fig3b", "--out", str(tmp_path))
    assert code == 0
    [entry] = json.loads(out)
    report = json.loads(pathlib.Path(entry["outputs"]["json"]).read_text())
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
    cfg = write_config(tmp_path, {"strict": True})
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "sweep", "--config", cfg, "--param",
                           "theta", "--values", f"{G},2e7,1e7",
                           "--scenario", "fig3b", "--out", str(out))
    assert code == 3
    assert "theta=20000000.0" in err and "theta=10000000.0" in err
    assert "theta=100000000.0" not in err
    assert not out.exists()
    # every point in the regime: the sweep runs as without strict
    code, stdout, _ = run_cli(capsys, "sweep", "--config", cfg, "--param",
                              "theta", "--values", str(G), "--scenario",
                              "regime_check", "--out", str(out))
    assert code == 0 and json.loads(stdout)[0]["ok"]
    # a point with invalid parameters is left to fail in the sweep
    code, stdout, _ = run_cli(capsys, "sweep", "--config", cfg, "--param",
                              "delta1", "--values", f"{10 * G},0",
                              "--scenario", "regime_check", "--out", str(out))
    assert code == 3
    ok, failed = json.loads(stdout)
    assert ok["ok"] and "outputs" in ok
    assert not failed["ok"] and "delta1" in failed["error"]


def test_sweep_missing_param(capsys):
    code, _, err = run_cli(capsys, "sweep", "--values", "1.0")
    assert code == 2
    assert "param" in err


@pytest.mark.parametrize("points", ["0", "1", "-5"])
def test_run_rejects_fewer_than_two_grid_points(capsys, tmp_path, points):
    code, _, err = run_cli(capsys, "run", "fig3b", "--grid-points", points,
                           "--out", str(tmp_path))
    assert code == 2
    assert "grid points" in err


@pytest.mark.parametrize("grid, message", [
    ({"points": 0}, "grid points"),
    ({"n_max": 0}, "photon number 1 outside 0..0"),
])
def test_run_zero_grid_config_is_not_ignored(capsys, tmp_path, grid, message):
    cfg = write_config(tmp_path, {"scenario": "fig3b", "grid": grid})
    code, _, err = run_cli(capsys, "run", "--config", cfg,
                           "--out", str(tmp_path / "out"))
    assert code == 2
    assert message in err


def test_sweep_over_n_atoms_reports_only_that_n(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "sweep", "--param", "n_atoms",
                           "--values", "2", "--scenario", "fig3b",
                           "--out", str(tmp_path))
    assert code == 0
    [entry] = json.loads(out)
    assert entry["value"] == 2 and isinstance(entry["value"], int)
    report = json.loads(pathlib.Path(entry["outputs"]["json"]).read_text())
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
    report = json.loads(pathlib.Path(entry["outputs"]["json"]).read_text())
    assert report["config"]["params"]["theta"] == 2 * G


@pytest.mark.parametrize("cfg, flags, where", [
    ({}, ["--param", "theta", "--values", "2g"], "--values"),
    ({"sweep": {"param": "theta", "values": ["2g"]}}, [],
     "config key sweep.values"),
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


@pytest.mark.parametrize("command", [
    ["run", "fig3b"],
    ["sweep", "--param", "theta", "--values", str(G), "--scenario", "fig3b"],
])
def test_config_unknown_tier_exits_2(capsys, tmp_path, command):
    # the sweep must refuse the config before it runs any point
    cfg = write_config(tmp_path, {"mode": "bogus"})
    code, _, err = run_cli(capsys, *command, "--config", cfg,
                           "--out", str(tmp_path / "out"))
    assert code == 2
    assert "'mode'" in err and "'bogus'" in err
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
    cfg = write_config(tmp_path, {"grid": {"points": 16}, "mode": "ideal",
                                  "frame_calibration": "n1_shared"})
    code, out, _ = run_cli(capsys, "sweep", "--config", cfg,
                           "--param", "theta", "--values", str(G),
                           "--scenario", "fig3b", "--out", str(tmp_path))
    assert code == 0
    [entry] = json.loads(out)
    config = json.loads(
        pathlib.Path(entry["outputs"]["json"]).read_text())["config"]
    assert (config["mode"], config["frame_calibration"]) == ("ideal", "n1_shared")


@pytest.mark.parametrize("jobs", ["abc", 2.5])
def test_sweep_rejects_non_integral_jobs(capsys, tmp_path, jobs):
    cfg = write_config(tmp_path, {"jobs": jobs})
    code, _, err = run_cli(capsys, "sweep", "--config", cfg,
                           "--param", "theta", "--values", str(G),
                           "--scenario", "regime_check", "--out", str(tmp_path))
    assert code == 2
    assert "jobs" in err


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


@pytest.mark.parametrize("flag, cfg", [
    (["--jobs", "-5"], None), (["--jobs", "0"], None),
    ([], {"jobs": 0}), ([], {"jobs": -2}),
], ids=["flag-5", "flag0", "key0", "key-2"])
def test_sweep_rejects_jobs_below_one(capsys, tmp_path, flag, cfg):
    config = ["--config", write_config(tmp_path, cfg)] if cfg else []
    code, out, err = run_cli(capsys, "sweep", "--param", "theta",
                             "--values", str(G), "--scenario", "regime_check",
                             "--out", str(tmp_path / "out"), *flag, *config)
    assert code == 2 and out == ""
    assert ("--jobs" if flag else "config key jobs") in err
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
    cfg = write_config(tmp_path, {"strict": True, "params": {"n_atoms": 2}})
    code, _, err = run_cli(capsys, "sweep", "--config", cfg, "--param",
                           "delta1", "--values", f"{10 * G}",
                           "--scenario", "fig3a", "--out", str(out / "sw"))
    assert code == 3
    assert "delta1=1000000000.0 at N=2: ['second_dispersive']" in err
    assert "N=1" not in err
    assert not (out / "sw").exists()


@pytest.mark.parametrize("grid", [{}, {"n_max": 2}], ids=["default", "n_max2"])
def test_calibrate_pulse_matches_fig3b_report(capsys, tmp_path, grid):
    cfg = write_config(tmp_path, {"grid": {"points": 16, **grid}})
    code, out, _ = run_cli(capsys, "calibrate", "--config", cfg)
    assert code == 0
    pulse = json.loads(out)["pulse"]
    code, out, _ = run_cli(capsys, "run", "fig3b", "--config", cfg,
                           "--out", str(tmp_path / "out"))
    assert code == 0
    report = json.loads(
        pathlib.Path(json.loads(out)["outputs"]["json"]).read_text())
    assert report["calibration"]["pulse"] == pulse


def test_unknown_scheme_exits_2(capsys, tmp_path):
    # no output read the scheme, so 'scheme' is no config key
    for scheme in ("self_kerr", "cross_polarization", "cross_bogus"):
        cfg = write_config(tmp_path, {"scheme": scheme})
        for command in (["run", "fig3b", "--out", str(tmp_path / "out")],
                        ["check-regime"], ["calibrate"]):
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
], ids=["cross-mode", "cross-frame", "regime-grid", "regime-mode"])
def test_run_flag_the_scenario_does_not_take_exits_2(capsys, tmp_path, argv,
                                                     option):
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 2 and stdout == ""
    assert f"takes no option '{option}'" in err
    assert not out.exists()


def test_config_keys_apply_only_where_the_scenario_takes_them(capsys,
                                                              tmp_path):
    # one config serves every subcommand: fig3b's keys do not stop a
    # cross-Kerr or regime run, and do reach fig3b
    cfg = write_config(tmp_path, {"mode": "ideal",
                                  "frame_calibration": "n1_shared",
                                  "grid": {"points": 16}})
    for scenario in ("cross_polarization", "regime_check", "fig3b"):
        code, out, _ = run_cli(capsys, "run", scenario, "--config", cfg,
                               "--out", str(tmp_path / scenario))
        assert code == 0
        report = json.loads(pathlib.Path(
            json.loads(out)["outputs"]["json"]).read_text())
        assert report["config"].get("grid_points") == (
            None if scenario == "regime_check" else 16)
    assert (report["config"]["mode"],
            report["config"]["frame_calibration"]) == ("ideal", "n1_shared")


def test_run_mode_flag_takes_every_protocol_mode(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "run", "fig3b", "--mode",
                           "rotated_reference", "--grid-points", "16",
                           "--out", str(tmp_path))
    assert code == 0
    report = json.loads(pathlib.Path(
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
