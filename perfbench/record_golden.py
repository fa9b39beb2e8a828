"""Record golden.json: the digest and verdict count of every benchmark job.

    python3 perfbench/record_golden.py

Run it only at a commit whose outputs are trusted (the benchmark's digests
were recorded at the commit that added it).  Seeded jobs are recorded for
every input variant; the other jobs are run under two variants, in separate
processes, and must agree.  Nothing is written unless every job exits 0,
raises nothing, and gives its expected number of verdicts, all passing.
"""

from __future__ import annotations

import json
import sys

from run import GOLDEN, run_child
from workloads import VARIANTS, WORKLOADS, jobs


def main() -> int:
    recorded: dict[str, dict] = {}
    bad = []
    for workload in WORKLOADS:
        seeded = any(job.seeded for job in jobs(workload, 0))
        for variant in range(VARIANTS if seeded else 2):
            report = run_child(workload, variant)
            for job in report["jobs"]:
                entry = {"sha256": job["sha256"], "bytes": job["bytes"],
                         "verdicts": job["verdicts"]}
                if job["error"] or job["rc"] or job["verdicts_failed"] \
                        or job["verdicts"] != job["expected_verdicts"]:
                    bad.append(job["key"])
                elif recorded.setdefault(job["key"], entry) != entry:
                    bad.append(job["key"] + " (differs between processes)")
            print(f"{workload} variant {variant}: {report['wall_s']:.2f} s", flush=True)
    if bad:
        print("not recorded; failing jobs:\n  " + "\n  ".join(bad), file=sys.stderr)
        return 1
    GOLDEN.write_text(json.dumps({"variants": VARIANTS, "jobs": recorded},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(recorded)} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
