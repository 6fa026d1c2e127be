"""The default fig3a and fig3b results against a captured golden copy.

``data/golden_overlap.json`` holds, per scenario, the JSON branch summaries,
the calibration block and every 32nd CSV row (header included) of a
default run.  Every number must agree to within 1e-10 absolute, and every
key, label and row count exactly: a refactor that is meant to leave the
physics alone has to reproduce these values.  A change that moves the
emitted numbers on purpose re-captures the file with

    PYTHONPATH=src python tests/test_golden.py
"""
import json
import math
import pathlib

import pytest

from kerrcav import experiments as ex

GOLDEN = pathlib.Path(__file__).with_name("data") / "golden_overlap.json"
ROW_STRIDE = 32
ATOL = 1e-10


def snapshot(result) -> dict:
    report = ex.json_report(result)
    rows = ex.csv_text(result).splitlines()
    return {"branches": report["branches"],
            "calibration": report["calibration"],
            "csv_header": rows[0],
            "csv_rows": [[float(v) for v in row.split(",")]
                         for row in rows[1::ROW_STRIDE]],
            "csv_row_count": len(rows) - 1}


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


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(
        {"fig3a": snapshot(ex.run_fig3a()), "fig3b": snapshot(ex.run_fig3b())},
        indent=1, sort_keys=True) + "\n")
