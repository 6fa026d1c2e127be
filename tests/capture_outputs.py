"""Capture what every kerrcav command in a fixed matrix writes, for diffing.

Usage::

    OPENBLAS_NUM_THREADS=1 python tests/capture_outputs.py OUTDIR

runs each command of ``CASES`` in this process against the kerrcav source
tree that holds this file (``../src``).  Every case gets ``OUTDIR/<case>/``
holding the files the command wrote plus ``argv.txt``, ``stdout.txt``,
``stderr.txt`` and ``exit_code.txt``.  A command that raises instead of
exiting is recorded, not fatal: its ``exit_code.txt`` reads ``exception``
and ``stderr.txt`` ends with the exception's type and message.  Output
paths are relative to OUTDIR, so captures of two trees compare with
``diff -r OUT_A OUT_B``: a refactor that keeps the outputs byte-identical
leaves that diff empty.
"""
from __future__ import annotations

import contextlib
import io
import os
import pathlib
import shlex
import sys

SWEEP = ["sweep", "--scenario", "fig3a", "--param", "theta",
         "--values", "5e7,1.6369e8,4e8"]

# case name -> argv; a case that writes files gets "--out <case>"
CASES = {
    "fig3b": ["run", "fig3b"],
    "fig3b_ideal": ["run", "fig3b", "--mode", "ideal"],
    "fig3b_rotated_reference": ["run", "fig3b", "--mode", "rotated_reference"],
    "fig3b_n1_shared": ["run", "fig3b", "--frame-calibration", "n1_shared"],
    "fig3a": ["run", "fig3a"],
    "fig3a_ideal": ["run", "fig3a", "--mode", "ideal"],
    "cross_polarization": ["run", "cross_polarization"],
    "cross_toroidal": ["run", "cross_toroidal"],
    "regime_check": ["run", "regime_check"],
    "check_regime": ["check-regime"],
    "check_regime_fig3a": ["check-regime", "fig3a"],
    "check_regime_fig3a_strict": ["check-regime", "fig3a", "--strict"],
    "fig3a_strict": ["run", "fig3a", "--strict"],
    "sweep_fig3a_jobs1": SWEEP + ["--jobs", "1"],
    "sweep_fig3a_jobs2": SWEEP + ["--jobs", "2"],
    "sweep_fig3a_strict": ["sweep", "--scenario", "fig3a", "--param", "theta",
                           "--values", "2e7,4e8", "--strict", "--jobs", "1"],
}

# case -> bytes of a config file that is not valid JSON, written to
# <case>/config.json and passed to check-regime
BAD_CONFIGS = {
    "config_int_over_4300_digits":
        b'{"params": {"theta": ' + b"1" * 5000 + b"}}",
    "config_not_utf8": b'{"params": {"theta": "\xff"}}',
    "config_nested_100000_deep": b"[" * 100_000 + b"]" * 100_000,
}
CASES.update({case: ["check-regime", "--config", f"{case}/config.json"]
              for case in BAD_CONFIGS})


def argv_for(case: str) -> list:
    argv = CASES[case]
    return argv if argv[0] == "check-regime" else argv + ["--out", case]


def capture(outdir: pathlib.Path) -> None:
    from kerrcav import cli

    outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(outdir)
    for case in CASES:
        argv = argv_for(case)
        pathlib.Path(case).mkdir(exist_ok=True)
        if case in BAD_CONFIGS:
            pathlib.Path(case, "config.json").write_bytes(BAD_CONFIGS[case])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:
                code = "exception"
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        for name, text in (("argv", shlex.join(argv)), ("stdout", out.getvalue()),
                           ("stderr", err.getvalue()), ("exit_code", str(code))):
            pathlib.Path(case, f"{name}.txt").write_text(text + "\n")
        print(f"{case}: exit {code}", file=sys.stderr)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    capture(pathlib.Path(args[0]).resolve())
    return 0


if __name__ == "__main__":
    sys.exit(main())
