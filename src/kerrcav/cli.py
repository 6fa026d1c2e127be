"""Command-line front end: config parsing, scenario dispatch, report emission.

A config file holds the physics and nothing else: a JSON object with the
parameter overrides ``params`` and the regime ``thresholds``.  Any rate in
``params`` may be given either as an absolute number in s^-1 or as a
multiple of g with a suffix, e.g. "10g" (g itself must be absolute).  Any
other key, and a value of the wrong JSON type or range, is rejected by
name.  What a run does is set by flags alone: ``run`` and ``sweep`` share
``--config``, ``--out``, ``--mode``, ``--grid-points``,
``--frame-calibration`` and ``--strict``, and a flag the scenario does not
take is rejected by name.  Scenario names and the options each takes come
from ``experiments``.  ``check-regime``, ``--strict`` and the JSON of every
scenario judge the same parameter sets, one per atom count the scenario
runs (``experiments.regime_reports``).  Exit codes: 0 success, 2
validation error, 3 guard/physics failure.
"""
from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys

from .errors import GuardError, KerrcavError, ValidationError, require_integer
from . import experiments, regimes
from .experiments import (SCENARIOS, regime_reports, scenario_params, sweep,
                          write_outputs)
from .pulses import VProtocol

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_GUARD = 3

KNOWN_KEYS = {"params", "thresholds"}


def parse_rate(value, g: float | None, where: str) -> float:
    """A finite rate: a number, or a string like '10g' scaled by the
    absolute g; ``where`` names the input in error messages."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValidationError(f"{where}: expected a rate, got {value!r}")
    txt, scale = str(value).strip(), 1.0
    if txt.endswith("g"):
        if g is None:
            raise ValidationError(f"{where}: '{value}' needs an absolute g")
        txt, scale = txt[:-1] or "1", g
    try:
        rate = float(txt) * scale
    except ValueError:
        raise ValidationError(f"{where}: cannot parse rate {value!r}")
    if not math.isfinite(rate):
        raise ValidationError(f"{where} must be finite, got {value!r}")
    return rate


def _as_int(value, where: str) -> int:
    """An integral number or numeric string as an int; anything else, a
    bool included, is rejected."""
    try:
        if not isinstance(value, bool) and float(value).is_integer():
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
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"config {path}: invalid JSON at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}")
    except (ValueError, RecursionError) as exc:
        # bytes that are not UTF-8, an integer past Python's digit limit,
        # or nesting deeper than the parser's recursion limit
        raise ValidationError(f"config {path}: invalid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ValidationError(f"config {path}: top level must be an object")
    return cfg


def resolve_config(cfg: dict) -> dict:
    """Validate a config's keys, types and values, and convert its rate
    strings to absolute numbers.  The result has both keys (``thresholds``
    None when the config sets none).

    The settable parameters are ``experiments.PARAM_NAMES``: ``n_atoms`` is
    an integer and every other one a rate.
    """
    _reject_unknown(cfg, KNOWN_KEYS, "")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ValidationError(
            f"config key params must be an object, got {params!r}")
    _reject_unknown(params, experiments.PARAM_NAMES, "params.")
    g_raw = params.get("g")
    g = float(g_raw) if isinstance(g_raw, (int, float)) else None
    resolved = {}
    for key, value in params.items():
        if key == "n_atoms":
            resolved[key] = _as_int(value, "config key params.n_atoms")
        else:
            resolved[key] = parse_rate(value, g, f"config key params.{key}")
    regimes.check_thresholds(cfg.get("thresholds"), "config key thresholds")
    return {"params": resolved, "thresholds": cfg.get("thresholds")}


def _scenario_kwargs(args) -> dict:
    """The scenario flags given, as keyword options of ``args.scenario``,
    which must be a scenario that takes every one of them."""
    kw = {key: getattr(args, key) for key in
          ("grid_points", "mode", "frame_calibration")
          if getattr(args, key) is not None}
    experiments.check_options(args.scenario, kw)
    if "grid_points" in kw:
        require_integer(kw["grid_points"], 2, "grid points")
    return kw


def _check_outdir(path: str) -> None:
    """Reject ``--out`` before anything runs when it cannot be a directory:
    the path, or the nearest of its parents that exists, is not one."""
    existing = pathlib.Path(path).absolute()
    while not existing.exists():
        existing = existing.parent
    if not existing.is_dir():
        raise ValidationError(
            f"--out {path}: {existing} exists and is not a directory")


def _check_strict(scenario: str, cfg: dict, points: list) -> None:
    """Fail before anything runs if a regime ratio warns, under the
    config's thresholds, at any atom count the scenario runs at any point
    (a label and its overrides).  A point with invalid parameters is left
    to fail when it runs."""
    bad = []
    for label, overrides in points:
        try:
            reports = regime_reports(scenario_params(scenario, overrides),
                                     cfg["thresholds"])
        except KerrcavError:
            continue
        warns = {key: regimes.warned(rep) for key, rep in reports.items()}
        text = ", ".join(f"{key}: {names}" for key, names in warns.items()
                         if names)
        if text:
            bad.append(label + text)
    if bad:
        raise GuardError(
            f"regime check failed under --strict: {'; '.join(bad)}")


def cmd_run(args) -> int:
    cfg = resolve_config(load_config(args.config))
    kw = _scenario_kwargs(args)
    if args.strict:
        _check_strict(args.scenario, cfg, [("", cfg["params"])])
    _check_outdir(args.out)
    result = SCENARIOS[args.scenario](cfg["params"],
                                      thresholds=cfg["thresholds"], **kw)
    paths = write_outputs(result, args.out)
    print(json.dumps({"scenario": args.scenario, "outputs": paths},
                     sort_keys=True, indent=2))
    return EXIT_OK


def cmd_check_regime(args) -> int:
    """Print the regime report of fig3b's parameters; with a scenario, one
    report per atom count it runs, keyed ``N=<N>`` (the sets ``--strict``
    judges for ``run``)."""
    cfg = resolve_config(load_config(args.config))
    reports = regime_reports(
        scenario_params(args.scenario or "regime_check", cfg["params"]),
        cfg["thresholds"])
    shown = reports if args.scenario else next(iter(reports.values()))
    print(json.dumps(experiments._jsonable(shown), sort_keys=True, indent=2))
    if args.strict and any(map(regimes.warned, reports.values())):
        return EXIT_GUARD
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = resolve_config(load_config(args.config))
    values = [_as_int(v, "sweep value for n_atoms") if args.param == "n_atoms"
              else parse_rate(v, cfg["params"].get("g"), "--values")
              for v in args.values.split(",")]
    kw = _scenario_kwargs(args)
    if args.strict:
        _check_strict(args.scenario, cfg, [
            (f"{args.param}={v!r} at ", {**cfg["params"], args.param: v})
            for v in values])
    _check_outdir(args.out)
    points = sweep(args.param, values, args.scenario, jobs=args.jobs,
                   overrides=cfg["params"], outdir=args.out,
                   thresholds=cfg["thresholds"], **kw)
    print(json.dumps(experiments._jsonable(points), sort_keys=True, indent=2,
                     allow_nan=False))
    return EXIT_OK if all(pt["ok"] for pt in points) else EXIT_GUARD


def cmd_list_scenarios(_args) -> int:
    print("\n".join(sorted(SCENARIOS)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerrcav",
        description="Simulate light-shift engineered Kerr nonlinearities "
                    "in a dispersive cavity-QED model.")
    sub = parser.add_subparsers(dest="command", required=True)

    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config",
                        help="JSON config file: params and thresholds")
    config.add_argument("--strict", action="store_true",
                        help="fail (exit 3) if any regime ratio warns")
    runs = argparse.ArgumentParser(add_help=False, parents=[config])
    runs.add_argument("--out", default="out",
                      help="output directory (default: out)")
    runs.add_argument("--mode", choices=VProtocol.MODES)
    runs.add_argument("--grid-points", type=int)
    runs.add_argument("--frame-calibration",
                      choices=experiments.FRAME_CALIBRATIONS)

    run = sub.add_parser("run", parents=[runs],
                         help="run a scenario and write CSV/JSON")
    run.add_argument("scenario", help=" | ".join(SCENARIOS))
    run.set_defaults(func=cmd_run)

    chk = sub.add_parser("check-regime", parents=[config],
                         help="print the regime report")
    chk.add_argument("scenario", nargs="?",
                     help="judge the sets this scenario runs, keyed N=<N> "
                          "(default: fig3b's N = 1 set, unkeyed)")
    chk.set_defaults(func=cmd_check_regime)

    sw = sub.add_parser("sweep", parents=[runs],
                        help="run a scenario over parameter values")
    sw.add_argument("--param", required=True,
                    help="SchemeParams field to sweep")
    sw.add_argument("--values", required=True,
                    help="comma-separated values (s^-1, or '2g' with the "
                         "config's g)")
    sw.add_argument("--scenario", default="fig3b",
                    help="scenario name (default fig3b)")
    sw.add_argument("--jobs", type=int, default=1,
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
    except KerrcavError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
