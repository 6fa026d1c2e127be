"""kerrcav benchmark: cold-process fig3b, atom-number scaling and a theta sweep.

    python3 bench/run.py --workload fig3b|scaling|sweep|all \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; kerrcav is imported from the
checkout's ``src``.  Each iteration runs in a fresh child process (child.py)
and the children run one at a time for ``--seconds``, because every
``kerrcav run`` a user starts is a new process.  Every branch of every
iteration is checked (tolerances, golden summaries, byte identity); the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of tracer.py, from children that
alternate between untraced and traced.  See DESIGN.md for the reasoning
and the predictions each metric serves.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
from child import BRANCHES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden.json"

G = 1e8
NPROC = len(os.sched_getaffinity(0))
SETUP_EVERY_S = 2.0         # at least one set-up sample per 2 s of run time
DEADLINE_S = 170.0          # a whole run ends well inside 180 s
TAIL_BEYOND = 10            # samples the tail percentile must leave above it
GOLDEN_RTOL = 1e-6          # per-branch summaries against golden.json
GOLDEN_FIELDS = ("max_abs_error", "min_X", "r_lin", "freq_fit")
Y_TOL = 0.15                # criterion 1: max |Y - cos(kappa n^2 t)|
X_FLOOR, IDEAL_TOL = 0.9, 0.1   # criterion 2: min X, ideal-oracle deviation

# blas: BLAS threads in the child; jobs: the sweep's --jobs
WORKLOADS = {
    "fig3b": {"blas": NPROC, "jobs": None},
    "scaling": {"blas": NPROC, "jobs": None},
    "sweep": {"blas": 1, "jobs": 2},
}

END_TO_END = (
    ("branches_per_s", "1/s"), ("iter_s.p50", "s"), ("iter_s.tail", "s"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("max_abs_error", "1"),
)


def sweep_thetas(seed: int) -> list:
    """Four theta values: the ends of [0.5 g, 4 g] and two seeded
    log-uniform draws between them.  Holding the ends makes the worst-case
    accuracy the same for every seed; the draws vary the rest."""
    rng = random.Random(seed)
    lo, hi = math.log(0.5 * G), math.log(4 * G)
    draws = [math.exp(rng.uniform(lo, hi)) for _ in range(2)]
    return sorted([0.5 * G, 4 * G] + draws)


def expected_keys(workload: str, thetas) -> list:
    if workload == "sweep":
        return [(theta, N, n) for theta in thetas for N, n in BRANCHES["sweep"]]
    return list(BRANCHES[workload])


def branch_key(workload: str, b: dict):
    if workload == "sweep":
        return (b["theta"], b["N"], b["n"])
    return (b["N"], b["n"])


def branch_ok(workload: str, b: dict, golden: dict) -> bool:
    if workload == "sweep":
        return (b["min_X"] >= X_FLOOR
                and b["ideal_deviation"] <= IDEAL_TOL)
    if b["max_abs_error"] > Y_TOL:
        return False
    ref = golden[workload][f"{b['N']},{b['n']}"]
    return all(abs(b[f] - ref[f]) <= GOLDEN_RTOL * abs(ref[f])
               for f in GOLDEN_FIELDS)


def child_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    return env


def child_spec(workload: str, run_dir: Path, k: int, setup_only: bool = False,
               traced: bool = False, thetas=None) -> dict:
    """Arguments of child ``k``, with a fresh output directory."""
    out_dir = run_dir / f"out{k}"
    out_dir.mkdir()
    return {"workload": workload, "src": str(SRC), "iteration": k,
            "out_dir": str(out_dir), "result": str(run_dir / f"r{k}.json"),
            "setup_only": setup_only, "trace": traced, "thetas": thetas,
            "jobs": WORKLOADS[workload]["jobs"]}


def run_child(spec: dict, env: dict, timeout: float) -> dict | None:
    """One fresh-interpreter child; its result, or None if it failed."""
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"child timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    result_path = Path(spec["result"])
    if proc.returncode != 0 or not result_path.exists():
        print(f"child exited {proc.returncode}:\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["ready"] - spawned
    return result


def tail(values: list) -> tuple:
    """(value, percentile, samples beyond) of the highest percentile that
    leaves TAIL_BEYOND samples above it.  Below 2 * TAIL_BEYOND samples that
    percentile falls under the median, so the maximum is given instead."""
    s = sorted(values)
    n = len(s)
    if n < 2 * TAIL_BEYOND:
        return s[-1], 100.0, 0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def source_identity() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "kerrcav").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 golden: dict) -> dict:
    """Run one workload; returns the result record (None on set-up failure)."""
    conf = WORKLOADS[workload]
    thetas = sweep_thetas(seed) if workload == "sweep" else None
    keys = expected_keys(workload, thetas)
    env = child_env(conf["blas"])
    start = time.monotonic()
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        def child(k, setup_only, traced):
            spec = child_spec(workload, run_dir, k, setup_only, traced, thetas)
            remaining = DEADLINE_S - (time.monotonic() - start)
            result = run_child(spec, env, max(remaining, 1.0))
            shutil.rmtree(spec["out_dir"])
            if traced and result is not None:
                result["layers"] = tracer.layer_metrics(
                    result.pop("spans"), result["t0"], result["t1"],
                    conf["jobs"] or 1)
            return result

        probes, iterations = [], []
        k = 0
        while True:
            # set-up-only children top up the set-up samples that iterations
            # give, spread over the run as the iterations are
            while len(probes) + k < 1 + (time.monotonic() - start) / SETUP_EVERY_S:
                probe = child(-1 - len(probes), True, False)
                if probe is None:
                    return None
                probes.append(probe)
            traced = trace and k % 2 == 1
            t_child = time.monotonic()
            iterations.append((traced, child(k, False, traced)))
            k += 1
            now = time.monotonic()
            enough = k >= (2 if trace else 1)
            if enough and (now - start >= seconds
                           or now - start + (now - t_child) > DEADLINE_S):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    # correctness: every expected branch of every iteration
    attempted = failed = 0
    reference_hashes = None
    worst_error = 0.0
    for _traced, r in iterations:
        attempted += len(keys)
        if r is None or r["exit_code"] != 0:
            failed += len(keys)
            continue
        if "hashes" in r:
            reference_hashes = reference_hashes or r["hashes"]
            if r["hashes"] != reference_hashes:
                failed += len(keys)
                continue
        found = {branch_key(workload, b): b for b in r["branches"]}
        for key in keys:
            b = found.get(key)
            if b is None or not branch_ok(workload, b, golden):
                failed += 1
        worst_error = max([worst_error] + [b["max_abs_error"]
                                           for b in r["branches"]])

    done = [(traced, r) for traced, r in iterations if r is not None]
    plain = [r for traced, r in done if not traced]
    traced_runs = [r for traced, r in done if traced]
    times = [r["iter_s"] for r in plain]
    if not times or (trace and not traced_runs):
        return None
    p50 = statistics.median(times)
    tail_s, tail_pct, tail_beyond = tail(times)
    setups = [r["setup_s"] for r in probes] + [r["setup_s"] for _, r in done]
    e2e = {
        "branches_per_s": len(keys) / p50,
        "iter_s.p50": p50,
        "iter_s.tail": tail_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "max_abs_error": worst_error,
    }
    units = dict(END_TO_END) | {u[0]: u[1] for u in tracer.PER_LAYER}
    if trace:
        metrics = {name: statistics.median(r["layers"][name] for r in traced_runs)
                   for name, _, _ in tracer.PER_LAYER
                   if name != "trace.overhead_ratio"}
        metrics["trace.overhead_ratio"] = statistics.median(
            r["iter_s"] for r in traced_runs) / p50
    else:
        metrics = e2e
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]}
                    for name, v in metrics.items()},
        "detail": {
            "iterations": len(plain), "traced_iterations": len(done) - len(plain),
            "iter_s": times, "setup_samples": len(setups),
            "fail_ratio": failed / attempted,
            "iter_s.tail_percentile": tail_pct,
            "iter_s.tail_samples_beyond": tail_beyond,
            "end_to_end": e2e if trace else None,
            "inputs": {"thetas": thetas, "dims": probes[0]["dims"]},
        },
        "environment": dict(
            probes[0]["env"], nproc=NPROC, blas_threads=conf["blas"],
            jobs=conf["jobs"], **source_identity()),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "kerrcav" / "__init__.py").is_file():
        print(f"error: no kerrcav sources under {SRC}", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              golden)
        if record is None:
            print(f"error: workload {name} produced no timed iteration",
                  file=sys.stderr)
            return 1
        for metric, m in record["metrics"].items():
            print(f"{name:8} {metric:40} {m['value']:.6g} {m['unit']}")
        d = record["detail"]
        print(f"{name:8} {'fail_ratio':40} {d['fail_ratio']:.6g} 1")
        print(json.dumps(record, sort_keys=True))
        records.append(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v
                   for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
