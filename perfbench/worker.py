"""One cold benchmark process: set up, run a workload's job list, report.

Started by run.py in a fresh interpreter for every repetition, so memo
tables and RootData caches start cold, as they do for every CLI call.
Prints one JSON object on its own standard output; the jobs' output is
captured in memory and hashed here, byte for byte.

    python3 perfbench/worker.py --src SRC --ranks 2,3 --workload NAME --variant V
                                [--trace] [--setup-only]
"""

import sys
import time


def _arg(name: str) -> str:
    return sys.argv[sys.argv.index(name) + 1]


def _verdicts(text: str) -> tuple[int, int]:
    """Count the verdicts in a CLI JSON payload, and the failed ones."""
    import json

    payload = json.loads(text)
    if "results" in payload:
        marks = [r["pass"] for r in payload["results"]]
    elif "checks" in payload:
        marks = [c["pass"] for c in payload["checks"].values()]
    else:
        marks = []
    return len(marks), sum(1 for m in marks if m is not True)


def main() -> int:
    # set-up is what a cold CLI call pays before its first job: importing the
    # package and building the RootData (with its cyclotomic context) of each
    # rank the workload uses; arguments are read by hand so that nothing else
    # is imported inside the timed span
    src = _arg("--src")
    ranks = [int(r) for r in _arg("--ranks").split(",")]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import anrec
    import anrec.cli
    from anrec.rootsys import RootData

    for n in ranks:
        RootData(n)
    setup_s = time.perf_counter() - t0
    workload, variant = _arg("--workload"), int(_arg("--variant"))

    import hashlib
    import io
    import json
    import os
    import resource
    import traceback
    from contextlib import redirect_stdout

    from workloads import golden_key, jobs, negative_control

    if not os.path.realpath(anrec.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"anrec was imported from {anrec.__file__}, not from {src}", file=sys.stderr)
        return 2
    if "--setup-only" in sys.argv:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if "--trace" in sys.argv:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install(anrec)

    job_list = jobs(workload, variant)
    outputs = []
    t_start = time.perf_counter()
    c_start = time.process_time()
    for job in job_list:
        t = time.perf_counter()
        rc, error, data, verdicts = 0, None, b"", (0, 0)
        try:
            if job.argv:
                buf = io.StringIO()
                with redirect_stdout(buf):
                    rc = anrec.cli.main(list(job.argv) + ["--format", "json"])
                data = buf.getvalue().encode()
            else:
                data, n_verdicts, n_failed = negative_control(anrec, variant)
                verdicts = (n_verdicts, n_failed)
        except Exception:
            error = traceback.format_exc()
        outputs.append((job, rc, error, data, verdicts, time.perf_counter() - t))
    wall_s = time.perf_counter() - t_start
    cpu_s = time.process_time() - c_start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    reports = []
    for job, rc, error, data, verdicts, seconds in outputs:
        if job.argv and error is None and rc == 0:
            try:
                verdicts = _verdicts(data.decode())
            except (ValueError, KeyError, TypeError, AttributeError):
                error = "output is not a JSON report:\n" + traceback.format_exc()
        reports.append({
            "name": job.name,
            "key": golden_key(workload, job, variant),
            "cli": bool(job.argv),
            "rc": rc,
            "error": error,
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
            "verdicts": verdicts[0],
            "verdicts_failed": verdicts[1],
            "expected_verdicts": job.verdicts,
            "seconds": seconds,
        })
    result = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
              "peak_rss_mb": peak_rss_kb / 1024, "jobs": reports}
    if tracer is not None:
        result["trace"] = {name: list(v) for name, v in tracer.metrics().items()}
        result["trace"]["cli.output_bytes"] = [
            sum(r["bytes"] for r in reports if r["cli"]), "B"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
