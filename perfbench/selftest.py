"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. The correctness gate: a worker report with a changed digest, a missing
   golden entry, a verdict too few, a failed verdict, a non-zero exit or an
   exception must each count as a failed job.
2. The trace: ``run.py --trace 1 --seed 1`` must be correct on every
   workload.  That run already fails when a per-layer metric that the
   workload is predicted to drive reads zero, or when its two traced
   processes count different work.

Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys

from run import HERE, ROOT, check_jobs
from workloads import WORKLOADS


def gate_selftest() -> list[str]:
    good = {"key": "w/job", "rc": 0, "error": None, "sha256": "ab" * 32,
            "verdicts": 2, "verdicts_failed": 0, "expected_verdicts": 2}
    golden = {"w/job": {"sha256": "ab" * 32}}
    cases = {
        "changed digest": {"sha256": "cd" * 32},
        "missing golden entry": {"key": "w/other"},
        "a verdict too few": {"verdicts": 1},
        "failed verdict": {"verdicts_failed": 1},
        "non-zero exit": {"rc": 1},
        "exception": {"error": "Traceback ...\nValueError: boom\n"},
    }
    errors = []
    if check_jobs({"jobs": [good]}, golden)[1] != 0:
        errors.append("gate: a matching job was counted as failed")
    for label, change in cases.items():
        job = copy.deepcopy(good)
        job.update(change)
        if check_jobs({"jobs": [job]}, golden)[1] == 0:
            errors.append(f"gate: a job with a {label} was not counted as failed")
    return errors


def trace_selftest(workload: str) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, check=False,
                          timeout=600)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{workload}: run.py exited with code {proc.returncode}"]
    result = json.loads(lines[-1])
    if result["correct"]:
        return []
    return [f"{workload}: traced run is not correct ({result['failed']} failed)"]


def main() -> int:
    errors = gate_selftest()
    print(f"gate self-test: {'FAIL' if errors else 'ok'}", flush=True)
    for workload in WORKLOADS:
        found = trace_selftest(workload)
        print(f"trace self-test {workload}: {'FAIL' if found else 'ok'}", flush=True)
        errors += found
    for error in errors:
        print("  " + error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
