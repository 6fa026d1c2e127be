"""Write golden.json: per-branch summaries of the fixed-input workloads.

    python3 bench/capture_golden.py

Run on the commit whose results are the reference.  run.py fails any fig3b
or scaling branch whose summaries depart from these by more than
GOLDEN_RTOL.
"""
import json
import shutil
import tempfile
from pathlib import Path

import run


def main() -> None:
    golden = {}
    run.WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=run.WORK))
    try:
        for k, workload in enumerate(("fig3b", "scaling")):
            spec = run.child_spec(workload, run_dir, k)
            env = run.child_env(run.WORKLOADS[workload]["blas"])
            result = run.run_child(spec, env, timeout=600)
            if result is None or result["exit_code"] != 0:
                raise SystemExit(f"{workload} failed; golden.json not written")
            golden[workload] = {
                f"{b['N']},{b['n']}": {f: b[f] for f in run.GOLDEN_FIELDS}
                for b in result["branches"]}
    finally:
        shutil.rmtree(run_dir)
        run.WORK.rmdir()
    run.GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
