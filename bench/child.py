"""One benchmark iteration of kerrcav, in a fresh interpreter.

    python3 bench/child.py '<spec JSON>'

The parent (run.py) starts one child per iteration, with ``PYTHONPATH``
pointing at the checkout's ``src``, so every iteration pays a cold start as
a ``kerrcav run`` user does.  The child imports kerrcav and builds the
workload's inputs (the set-up the parent times), then times the workload
call alone and writes what the parent needs to check and score it to
``spec["result"]``.  With ``spec["trace"]`` the layer wrappers of tracer.py
are installed after set-up and the spans go out with the result.
"""
from __future__ import annotations

import hashlib
import json
import os
import pathlib
import sys
import time

FIG3B_BRANCHES = ((1, 1), (1, 2), (2, 1), (2, 2))
SCALING_BRANCHES = ((8, 1), (16, 1), (32, 1), (48, 1))
SWEEP_BRANCHES = ((1, 0), (1, 2), (2, 0), (2, 2))   # fig3a with n = 0 controls
N_MAX = 4                       # the scenarios' default photon truncation


def _hashes(out_dir: pathlib.Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


def _report_branches(out_dir: pathlib.Path) -> list:
    """Branch summaries from every JSON report, tagged with its theta."""
    branches = []
    for path in sorted(out_dir.glob("*.json")):
        report = json.loads(path.read_text())
        theta = report["config"]["params"]["theta"]
        for b in report["branches"]:
            branches.append(dict(b, theta=theta))
    return branches


def _run_fig3b(kerrcav, spec, out_dir):
    return kerrcav.cli.main(["run", "fig3b", "--out", str(out_dir)])


def _run_scaling(kerrcav, spec, out_dir):
    return kerrcav.experiments.run_fig3b(branches=SCALING_BRANCHES)


def _run_sweep(kerrcav, spec, out_dir):
    values = ",".join(repr(v) for v in spec["thetas"])
    return kerrcav.cli.main([
        "sweep", "--param", "theta", "--values", values,
        "--scenario", "fig3a", "--jobs", str(spec["jobs"]),
        "--out", str(out_dir)])


RUNNERS = {"fig3b": _run_fig3b, "scaling": _run_scaling, "sweep": _run_sweep}
BRANCHES = {"fig3b": FIG3B_BRANCHES, "scaling": SCALING_BRANCHES,
            "sweep": SWEEP_BRANCHES}


def _peak_rss_mb() -> float:
    """This process's own peak resident memory (VmHWM).

    getrusage's ru_maxrss would also count the parent: the child starts from
    a fork or vfork of it, and Linux keeps that image's peak across exec.
    """
    for line in pathlib.Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}


def main() -> int:
    spec = json.loads(sys.argv[1])
    import kerrcav
    import kerrcav.cli
    import kerrcav.experiments
    from kerrcav.hilbert import build_space

    src = pathlib.Path(spec["src"]).resolve()
    if src not in pathlib.Path(kerrcav.__file__).resolve().parents:
        print(f"kerrcav imported from {kerrcav.__file__}, not {src}",
              file=sys.stderr)
        return 2
    workload = spec["workload"]
    runner = RUNNERS[workload]
    out_dir = pathlib.Path(spec["out_dir"])
    dims = {N: build_space(n_max=N_MAX, n_atoms=N, levels=2).dim
            for N in sorted({N for N, _ in BRANCHES[workload]})}
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    result = {"ready": ready, "dims": dims, "env": _environment()}
    if not spec["setup_only"]:
        tracer = None
        if spec["trace"]:
            import tracer as tracing
            tracer = tracing.install(spec["iteration"])
        t0 = time.perf_counter()
        out = runner(kerrcav, spec, out_dir)
        t1 = time.perf_counter()
        result.update(t0=t0, t1=t1, iter_s=t1 - t0, peak_rss_mb=_peak_rss_mb())
        if workload == "scaling":
            result["exit_code"] = 0
            result["branches"] = [b.summary() for b in out.branches]
        else:
            result["exit_code"] = out
            result["branches"] = _report_branches(out_dir)
            result["hashes"] = _hashes(out_dir)
        if tracer is not None:
            result["spans"] = tracer.spans
    pathlib.Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
