"""Record the report hashes that every benchmark run checks.

    python3 perfbench/record_golden.py

Runs the first GOLDEN_JOBS jobs of each workload at the default seed,
checks each report against its known answer, and writes the SHA-256 of
each ``--report json`` output to perfbench/golden.json.  Re-record only
when a change to the report format is intended.
"""

from __future__ import annotations

import json
import sys

from worker import DEFAULT_SEED, HERE, ROOT, Runner, _load_cli
import workloads

GOLDEN_JOBS = 256


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    runner = Runner(_load_cli(), workdir, None)
    reports = {}
    try:
        for workload in sorted(workloads.ROUNDS):
            digests = []
            for i in range(GOLDEN_JOBS):
                runner.run(workloads.make_job(workload, DEFAULT_SEED, i))
                if runner.failed:
                    print("\n".join(runner.problems), file=sys.stderr)
                    return 1
                digests.append(runner.digest)
            reports[workload] = digests
    finally:
        runner.close()
    with open(HERE / "golden.json", "w") as fh:
        json.dump({"seed": DEFAULT_SEED, "reports": reports}, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
