"""Command-line front end: config parsing, scenario dispatch, report emission.

Configs are JSON documents; any physical rate may be given either as an
absolute number in s^-1 or as a multiple of g with a suffix, e.g. "10g"
(g itself must be absolute).  Unknown keys are rejected by name.  Scenario
names and the options each takes come from ``experiments``: one config
serves every subcommand, so its grid block, ``mode`` and
``frame_calibration`` reach a scenario only where it takes them, but a
command-line flag the scenario does not take is rejected by name.  Exit
codes: 0 success, 2 validation error, 3 guard/physics failure.
"""
from __future__ import annotations

import argparse
import json
import sys

from .errors import CalibrationError, GuardError, KerrcavError, ValidationError
from . import experiments, regimes
from .experiments import (SCENARIOS, apply_overrides, fig3b_params,
                          scenario_params, sweep, write_outputs)
from .pulses import VProtocol

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_GUARD = 3

RATE_KEYS = {"g", "delta1", "theta", "lam", "delta2", "omega",
             "g_b", "delta1_b", "mode_split"}
KNOWN_TOP_KEYS = {"mode", "scenario", "params", "grid",
                  "frame_calibration", "sweep", "output", "jobs", "strict",
                  "thresholds"}
KNOWN_GRID_KEYS = {"points", "n_max"}
KNOWN_SWEEP_KEYS = {"param", "values"}
KNOWN_OUTPUT_KEYS = {"dir"}


def parse_rate(value, g: float | None, where: str) -> float:
    """A rate: a number, or a string like '10g' scaled by the absolute g;
    ``where`` names the input in error messages."""
    if isinstance(value, (int, float)):
        return float(value)
    if not isinstance(value, str):
        raise ValidationError(f"{where}: expected a rate, got {value!r}")
    txt, scale = value.strip(), 1.0
    if txt.endswith("g"):
        if g is None:
            raise ValidationError(f"{where}: '{value}' needs an absolute g")
        txt, scale = txt[:-1] or "1", g
    try:
        return float(txt) * scale
    except ValueError:
        raise ValidationError(f"{where}: cannot parse rate {value!r}")


def _as_int(value, where: str) -> int:
    """An integral number or numeric string as an int; else rejected."""
    try:
        if float(value).is_integer():
            return int(float(value))
    except (TypeError, ValueError):
        pass
    raise ValidationError(f"{where}: expected an integer, got {value!r}")


def _reject_unknown(mapping: dict, known: set, where: str):
    unknown = sorted(set(mapping) - known)
    if unknown:
        raise ValidationError(f"unknown config key {where}{unknown[0]!r}")


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"config {path}: invalid JSON at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}")
    if not isinstance(cfg, dict):
        raise ValidationError(f"config {path}: top level must be an object")
    return cfg


def resolve_config(cfg: dict) -> dict:
    """Validate keys and convert rate strings to absolute numbers."""
    _reject_unknown(cfg, KNOWN_TOP_KEYS, "")
    out = dict(cfg)
    params = dict(cfg.get("params", {}))
    if not isinstance(params, dict):
        raise ValidationError("config key 'params' must be an object")
    known_params = {f for f in RATE_KEYS} | {"n_atoms"}
    _reject_unknown(params, known_params, "params.")
    g_raw = params.get("g")
    g = float(g_raw) if isinstance(g_raw, (int, float)) else None
    resolved = {}
    for key, value in params.items():
        if key == "n_atoms":
            resolved[key] = _as_int(value, "config key params.n_atoms")
        else:
            resolved[key] = parse_rate(value, g, f"config key params.{key}")
    out["params"] = resolved
    if "grid" in cfg:
        _reject_unknown(dict(cfg["grid"]), KNOWN_GRID_KEYS, "grid.")
    if "sweep" in cfg:
        _reject_unknown(dict(cfg["sweep"]), KNOWN_SWEEP_KEYS, "sweep.")
    if "output" in cfg:
        _reject_unknown(dict(cfg["output"]), KNOWN_OUTPUT_KEYS, "output.")
    fc = cfg.get("frame_calibration", "per_branch")
    if fc not in experiments.FRAME_CALIBRATIONS:
        raise ValidationError(
            f"config key 'frame_calibration': unknown value {fc!r}")
    mode = cfg.get("mode", "physical")
    if mode not in VProtocol.MODES:
        raise ValidationError(f"config key 'mode': unknown value {mode!r}")
    return out


def _grid_kwargs(cfg: dict) -> dict:
    """The config's grid block as scenario keywords, validated."""
    grid = dict(cfg.get("grid", {}))
    kw = {}
    if grid.get("points") is not None:
        kw["grid_points"] = _as_int(grid["points"], "grid points")
    if grid.get("n_max") is not None:
        kw["n_max"] = _as_int(grid["n_max"], "config key grid.n_max")
    return kw


def _scenario_kwargs(cfg: dict, scenario: str, args=None) -> dict:
    """Scenario keyword arguments: the config's grid block, ``mode`` and
    ``frame_calibration`` where the scenario takes them, then the
    command-line flags given, which win and which the scenario must take."""
    kw = _grid_kwargs(cfg)
    kw.update({key: cfg[key] for key in ("mode", "frame_calibration")
               if cfg.get(key) is not None})
    takes = experiments.scenario_options(scenario)
    flags = {key: getattr(args, key) for key in
             ("grid_points", "mode", "frame_calibration")
             if getattr(args, key, None) is not None}
    experiments.check_options(scenario, flags)
    return {**{k: v for k, v in kw.items() if k in takes}, **flags}


def _regime_warnings(scenario: str, overrides: dict, cfg: dict) -> str:
    """The regime ratios that warn under the config's thresholds, for every
    atom count the scenario runs ('' if none does)."""
    bad = []
    for p in scenario_params(scenario, overrides):
        report = regimes.check(p, cfg.get("thresholds"))
        warns = [name for name, r in report.ratios.items()
                 if r.status == "warn"]
        if warns:
            bad.append(f"N={p.n_atoms}: {warns}")
    return ", ".join(bad)


def cmd_run(args) -> int:
    cfg = resolve_config(load_config(args.config))
    scenario = args.scenario or cfg.get("scenario")
    if scenario is None:
        raise ValidationError("no scenario given (argument or config)")
    if scenario not in SCENARIOS:
        raise ValidationError(
            f"unknown scenario {scenario!r}; try list-scenarios")
    kw = _scenario_kwargs(cfg, scenario, args)
    overrides = cfg.get("params", {})
    if args.strict or cfg.get("strict"):
        bad = _regime_warnings(scenario, overrides, cfg)
        if bad:
            raise GuardError(f"regime check failed under --strict: {bad}")

    result = SCENARIOS[scenario](overrides, **kw)
    outdir = args.out or cfg.get("output", {}).get("dir", "out")
    paths = write_outputs(result, outdir)
    print(json.dumps({"scenario": scenario, "outputs": paths},
                     sort_keys=True, indent=2))
    return EXIT_OK


def cmd_check_regime(args) -> int:
    cfg = resolve_config(load_config(args.config))
    p = apply_overrides(fig3b_params(), cfg.get("params", {}))
    report = regimes.check(p, cfg.get("thresholds"))
    print(json.dumps(experiments._jsonable(report.to_dict()),
                     sort_keys=True, indent=2))
    if (args.strict or cfg.get("strict")) and report.worst_status != "pass":
        return EXIT_GUARD
    return EXIT_OK


def cmd_calibrate(args) -> int:
    """Print the pulse check and the shared n = 1 frame rate of fig3b's
    (N, 1) branch for the config's parameters and grid."""
    cfg = resolve_config(load_config(args.config))
    overrides = cfg.get("params", {})
    n_atoms = overrides.get("n_atoms", 1)
    result = experiments.run_fig3b(overrides, branches=((n_atoms, 1),),
                                   **_grid_kwargs(cfg))
    cal, branch = result.calibration, result.branch(n_atoms, 1)
    print(json.dumps(experiments._jsonable({
        "pulse": cal["pulse"],
        "frame": {"r_lin": cal["r_lin_shared"][str(n_atoms)],
                  "expected": branch.r_lin_expected,
                  "objective": branch.max_abs_error,
                  "flagged": "flags" in cal},
    }), sort_keys=True, indent=2))
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = resolve_config(load_config(args.config))
    sweep_cfg = dict(cfg.get("sweep", {}))
    param = args.param or sweep_cfg.get("param")
    if not param:
        raise ValidationError("sweep needs --param or config sweep.param")
    raw = args.values.split(",") if args.values else sweep_cfg.get("values", [])
    source = "--values" if args.values else "config key sweep.values"
    values = [_as_int(v, "sweep value for n_atoms") if param == "n_atoms"
              else parse_rate(v, cfg["params"].get("g"), source) for v in raw]
    if not values:
        raise ValidationError("sweep needs --values or config sweep.values")
    scenario = args.scenario or cfg.get(
        "scenario", experiments.SWEEP_DEFAULT_SCENARIO)
    where = "--jobs" if args.jobs is not None else "config key jobs"
    jobs = _as_int(cfg.get("jobs", 1) if args.jobs is None else args.jobs,
                   where)
    if jobs < 1:
        raise ValidationError(f"{where}: expected an integer >= 1, got {jobs}")
    kw = _scenario_kwargs(cfg, scenario)
    overrides = cfg.get("params", {})
    if cfg.get("strict"):
        # every point's regime is checked before any runs; a point with
        # invalid parameters is left to fail in the sweep
        bad = []
        for value in values:
            try:
                warns = _regime_warnings(scenario, {**overrides, param: value},
                                         cfg)
            except KerrcavError:
                continue
            if warns:
                bad.append(f"{param}={value!r} at {warns}")
        if bad:
            raise GuardError(
                f"regime check failed under strict: {'; '.join(bad)}")
    outdir = args.out or cfg.get("output", {}).get("dir", "out")
    points = sweep(param, values, scenario, jobs=jobs, overrides=overrides,
                   outdir=outdir, **kw)
    summary = []
    for pt in points:
        entry = {"param": pt.param, "value": pt.value, "ok": pt.ok}
        if pt.ok:
            entry["outputs"] = pt.outputs
        if pt.error:
            entry["error"] = pt.error
        summary.append(entry)
    print(json.dumps(experiments._jsonable(summary), sort_keys=True, indent=2))
    return EXIT_OK if all(pt.ok for pt in points) else EXIT_GUARD


def cmd_list_scenarios(_args) -> int:
    for name in sorted(SCENARIOS):
        print(name)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerrcav",
        description="Simulate light-shift engineered Kerr nonlinearities "
                    "in a dispersive cavity-QED model.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and write CSV/JSON")
    run.add_argument("scenario", nargs="?", help=" | ".join(SCENARIOS))
    run.add_argument("--config", help="JSON config file")
    run.add_argument("--out", help="output directory (default: out)")
    run.add_argument("--mode", choices=VProtocol.MODES)
    run.add_argument("--grid-points", type=int)
    run.add_argument("--frame-calibration",
                     choices=experiments.FRAME_CALIBRATIONS)
    run.add_argument("--strict", action="store_true",
                     help="fail (exit 3) if any regime ratio warns")
    run.set_defaults(func=cmd_run)

    chk = sub.add_parser("check-regime", help="print the regime report")
    chk.add_argument("--config", help="JSON config file")
    chk.add_argument("--strict", action="store_true")
    chk.set_defaults(func=cmd_check_regime)

    cal = sub.add_parser(
        "calibrate", help="pulse phase and n = 1 frame rate of fig3b's (N, 1) "
                          "branch")
    cal.add_argument("--config", help="JSON config file")
    cal.set_defaults(func=cmd_calibrate)

    sw = sub.add_parser("sweep", help="run a scenario over parameter values")
    sw.add_argument("--param", help="SchemeParams field to sweep")
    sw.add_argument("--values", help="comma-separated values (absolute s^-1)")
    sw.add_argument("--scenario", help="scenario name (default "
                    f"{experiments.SWEEP_DEFAULT_SCENARIO})")
    sw.add_argument("--config", help="JSON config file")
    sw.add_argument("--out", help="output directory")
    sw.add_argument("--jobs", type=int,
                    help="workers, each taking every k-th point (default 1)")
    sw.set_defaults(func=cmd_sweep)

    ls = sub.add_parser("list-scenarios", help="list runnable scenarios")
    ls.set_defaults(func=cmd_list_scenarios)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (GuardError, CalibrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except KerrcavError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
