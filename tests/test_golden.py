"""The default fig3a and fig3b results, and three cross-Kerr runs, against
captured golden copies.

``data/golden_overlap.json`` holds, per scenario, the JSON branch summaries,
the calibration block and every 32nd CSV row (header included) of a
default run.  ``data/golden_cross.json`` holds, per cross-Kerr run, nu_hat,
nu_effective, the relative error and every 8th CSV row; it leaves out the
regime block, which judges the run rather than reports its numbers.  Every
number must agree to within 1e-10 absolute, and every key, label and row
count exactly: a refactor that is meant to leave the physics alone has to
reproduce these values.  A change that moves the emitted numbers on purpose
re-captures both files with

    PYTHONPATH=src python tests/test_golden.py
"""
import json
import math
import pathlib

import pytest

from kerrcav import experiments as ex

GOLDEN = pathlib.Path(__file__).with_name("data") / "golden_overlap.json"
GOLDEN_CROSS = GOLDEN.with_name("golden_cross.json")
ROW_STRIDE = 32
CROSS_ROW_STRIDE = 8
ATOL = 1e-10
# name -> (variant, overrides) of each pinned cross-Kerr run
CROSS_RUNS = {
    "polarization": ("polarization", None),
    "toroidal": ("toroidal", None),
    "toroidal_split_n4": ("toroidal", {"mode_split": 3e8, "n_atoms": 4}),
}


def csv_rows(result, stride: int) -> dict:
    rows = ex.csv_text(result).splitlines()
    return {"csv_header": rows[0],
            "csv_rows": [[float(v) for v in row.split(",")]
                         for row in rows[1::stride]],
            "csv_row_count": len(rows) - 1}


def snapshot(result) -> dict:
    report = ex.json_report(result)
    return {"branches": report["branches"],
            "calibration": report["calibration"],
            **csv_rows(result, ROW_STRIDE)}


def cross_snapshot(name: str) -> dict:
    variant, overrides = CROSS_RUNS[name]
    result = ex.run_cross_kerr(variant, overrides)
    report = ex.json_report(result)
    return {**{key: report[key] for key in
               ("nu_hat", "nu_effective", "relative_error")},
            **csv_rows(result, CROSS_ROW_STRIDE)}


def assert_agrees(got, want, where="") -> None:
    """Equal structure and text; numbers within ATOL."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_agrees(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_agrees(g, w, f"{where}[{k}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert type(got) is type(want), where
        assert math.isfinite(got) and abs(got - want) <= ATOL, (
            f"{where}: {got!r} vs golden {want!r}")
    else:
        assert got == want, where


@pytest.mark.parametrize("scenario", ["fig3a", "fig3b"])
def test_default_run_matches_the_golden_copy(scenario, fig3a_result,
                                             fig3b_result):
    result = {"fig3a": fig3a_result, "fig3b": fig3b_result}[scenario]
    golden = json.loads(GOLDEN.read_text())[scenario]
    assert_agrees(snapshot(result), golden, scenario)


@pytest.mark.parametrize("name", sorted(CROSS_RUNS))
def test_cross_kerr_run_matches_the_golden_copy(name):
    golden = json.loads(GOLDEN_CROSS.read_text())[name]
    assert_agrees(cross_snapshot(name), golden, name)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(
        {"fig3a": snapshot(ex.run_fig3a()), "fig3b": snapshot(ex.run_fig3b())},
        indent=1, sort_keys=True) + "\n")
    GOLDEN_CROSS.write_text(json.dumps(
        {name: cross_snapshot(name) for name in CROSS_RUNS},
        indent=1, sort_keys=True) + "\n")
