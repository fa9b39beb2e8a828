"""The anrec benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Load model: a closed loop of one process and one thread running the
workload's jobs one after another, as a researcher runs a batch.  Every
repetition is a fresh interpreter (perfbench/worker.py), so memo tables
and RootData caches start cold, as they do for every CLI call.

``--trace 0`` repeats the job list for about ``--seconds`` seconds (at
least three times) and reports the medians of ``wall_s`` (the job list,
set-up excluded), ``setup_s`` (import plus RootData construction, also
sampled by extra set-up-only processes) and ``peak_rss_mb``.
``--trace 1`` runs the job list once untraced and twice traced and reports
the per-layer metrics of the first traced run, the tracing overhead, and
whether the two traced runs counted exactly the same work.

Every job's output bytes are hashed and compared with the digest recorded
in golden.json; a job also fails when it exits non-zero, raises, gives
another number of verdicts than expected, or fails a verdict.  The human
summary goes to standard output, and its last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (
    PREDICTED_NONZERO, PREDICTED_ZERO, RANKS, VARIANTS, WORKLOADS, jobs)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
GOLDEN = HERE / "golden.json"

MIN_REPS = 3
SETUP_PROBES = 8
# a run must end within 180 s; no new child starts past this point
HARD_LIMIT_S = 150.0
CHILD_TIMEOUT_S = 170.0
COUNT_UNITS = ("count", "B")


class ChildFailed(RuntimeError):
    """A worker process crashed, timed out or printed no result."""


def run_child(workload: str, variant: int, *, trace: bool = False,
              setup_only: bool = False, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run one worker process to completion and return its JSON report."""
    cmd = [sys.executable, str(WORKER), "--src", str(SRC),
           "--ranks", ",".join(map(str, RANKS[workload])),
           "--workload", workload, "--variant", str(variant)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout,
                              cwd=ROOT, check=False)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"worker timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"worker exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError as exc:
        raise ChildFailed("worker printed no JSON report") from exc


def check_jobs(report: dict, golden: dict) -> tuple[int, int, list[str]]:
    """Count the jobs and verdicts a worker report attempted and failed.

    Each job is one operation and each verdict it should carry another.
    """
    attempted = failed = 0
    problems = []
    for job in report["jobs"]:
        want = golden.get(job["key"])
        expected = job["expected_verdicts"]
        attempted += 1 + max(expected, job["verdicts"])
        failed += job["verdicts_failed"]
        why = []
        if job["error"]:
            why.append("raised: " + job["error"].strip().splitlines()[-1])
        if job["rc"] != 0:
            why.append(f"exit code {job['rc']}")
        if want is None:
            why.append("no golden digest recorded")
        elif job["sha256"] != want["sha256"]:
            why.append(f"digest {job['sha256'][:12]} != golden {want['sha256'][:12]}")
        if job["verdicts"] != expected:
            why.append(f"{job['verdicts']} verdicts, expected {expected}")
        if job["verdicts_failed"]:
            why.append(f"{job['verdicts_failed']} failed verdicts")
        if why:
            failed += 1
            problems.append(f"{job['key']}: " + "; ".join(why))
    return attempted, failed, problems


def measure(workload: str, variant: int, seconds: float, golden: dict):
    """The untraced run: set-up probes, then repetitions of the job list."""
    start = time.perf_counter()
    setups = [run_child(workload, variant, setup_only=True)["setup_s"]
              for _ in range(SETUP_PROBES)]
    reps, rep_times = [], []
    while True:
        t = time.perf_counter()
        reps.append(run_child(workload, variant,
                              timeout=CHILD_TIMEOUT_S - (t - start)))
        rep_times.append(time.perf_counter() - t)
        now = time.perf_counter()
        next_end = now + statistics.median(rep_times)
        if len(reps) >= MIN_REPS and next_end > start + seconds:
            break
        if next_end > start + HARD_LIMIT_S:
            break
    attempted = failed = 0
    problems: list[str] = []
    for rep in reps:
        a, f, p = check_jobs(rep, golden)
        attempted, failed = attempted + a, failed + f
        problems += p
    setups += [rep["setup_s"] for rep in reps]
    walls = [rep["wall_s"] for rep in reps]
    cpus = [rep["cpu_s"] for rep in reps]
    rss = [rep["peak_rss_mb"] for rep in reps]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    notes = [
        f"wall_s: median of {len(walls)} repetitions, "
        f"min {min(walls):.4f} max {max(walls):.4f}; process CPU time "
        f"median {statistics.median(cpus):.4f}",
        f"setup_s: median of {len(setups)} cold processes, "
        f"min {min(setups):.4f} max {max(setups):.4f}",
        f"peak_rss_mb: median of {len(rss)}, min {min(rss):.2f} max {max(rss):.2f}",
    ]
    return metrics, attempted, failed, problems, notes


def trace(workload: str, variant: int, golden: dict):
    """The traced run: one untraced reference, then two traced repetitions."""
    plain = run_child(workload, variant)
    traced = [run_child(workload, variant, trace=True) for _ in range(2)]
    attempted = failed = 0
    problems: list[str] = []
    for rep in [plain] + traced:
        a, f, p = check_jobs(rep, golden)
        attempted, failed = attempted + a, failed + f
        problems += p
    first, second = (rep["trace"] for rep in traced)
    metrics = {name: (value, unit) for name, (value, unit) in first.items()}
    traced_wall = statistics.median(rep["wall_s"] for rep in traced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain["wall_s"], "s")
    metrics["trace.overhead_frac"] = (traced_wall / plain["wall_s"] - 1, "ratio")
    # layer checks: each counts as one more operation
    for name, (value, unit) in first.items():
        if unit in COUNT_UNITS:
            attempted += 1
            if second[name][0] != value:
                failed += 1
                problems.append(f"{name}: {value} in the first traced run, "
                                f"{second[name][0]} in the second")
    for name in PREDICTED_NONZERO[workload]:
        attempted += 1
        if not first[name][0]:
            failed += 1
            problems.append(f"{name} is zero, but {workload} is predicted to drive it")
    for name in PREDICTED_ZERO[workload]:
        attempted += 1
        if first[name][0]:
            failed += 1
            problems.append(f"{name} is {first[name][0]}, but {workload} "
                            "is predicted to leave it at zero")
    notes = [f"untraced wall {plain['wall_s']:.4f} s, traced walls "
             + ", ".join(f"{rep['wall_s']:.4f}" for rep in traced) + " s"]
    return metrics, attempted, failed, problems, notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "anrec" / "__init__.py").is_file():
        print(f"no anrec package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if not GOLDEN.is_file():
        print(f"missing {GOLDEN}", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())["jobs"]
    variant = args.seed % VARIANTS
    seeded = [job.name for job in jobs(args.workload, variant) if job.seeded]
    try:
        if args.trace:
            metrics, attempted, failed, problems, notes = trace(
                args.workload, variant, golden)
        else:
            metrics, attempted, failed, problems, notes = measure(
                args.workload, variant, args.seconds, golden)
    except ChildFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed} -> input variant {variant}; "
          f"seeded jobs: {', '.join(seeded) if seeded else 'none (seed ignored)'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:>16.6g} {unit}")
    print(f"  {'ops_failed_frac':44s} {failed / attempted:>16.6g} "
          f"({failed} of {attempted} jobs and checks)")
    for note in notes:
        print(f"  {note}")
    for problem in dict.fromkeys(problems):
        print(f"  FAIL {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
