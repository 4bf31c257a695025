r"""crystaltopo benchmark: one workload run, printed as one JSON line.

    python3 perfbench/run.py --workload vacancy-scan --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the last line holds
the end-to-end metrics; with ``--trace 1`` the per-layer metrics of a
traced run.  Each metric is printed by name with its value and unit; the
line before it records the seed, interpreter, numpy version, core count
and code version.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import COUNT_METRICS, TIME_METRICS  # noqa: E402
from workloads import ROUNDS  # noqa: E402

# Set-up is timed in this many fresh interpreters besides the run's own.
SETUP_PROBES = 4
# Every child process must end by then, so the run ends within 180 s.
BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/ref_s",
    "job_s.p50": "ref_s",
    "job_s.p90": "ref_s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
PER_LAYER_UNITS = {
    **{name: "s" for name in TIME_METRICS},
    **COUNT_METRICS,
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.passes": "count",
    "trace.jobs": "count",
}


def _source_version() -> dict:
    """Commit when the checkout is a git work tree, and always a digest of
    the package sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "crystaltopo").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def _worker(args, deadline: float, *extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(args.workdir), *extra]
    # subprocess.run kills the child on timeout and waits for it to end.
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=max(deadline - perf_counter(), 1))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker failed ({proc.returncode}):\n"
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = perf_counter() + BUDGET_S

    if not (ROOT / "src" / "crystaltopo" / "cli.py").is_file():
        print(f"error: no crystaltopo sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    args.workdir = ROOT / ".perfbench"
    args.workdir.mkdir(exist_ok=True)

    try:
        probes = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probes.append(_worker(args, deadline, "--setup-only"))
        result = _worker(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if "metrics" not in result:
        print("error: the warm-up job failed: "
              + "; ".join(result["problems"]), file=sys.stderr)
        return 1

    values = result["metrics"]
    if args.trace:
        units = PER_LAYER_UNITS
    else:
        units = END_TO_END_UNITS
        probes.append(result)
        values["setup_s"] = statistics.median(p["setup_s"] for p in probes)
        values["wall_setup_s"] = statistics.median(
            p["wall_setup_s"] for p in probes)
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)

    run_info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": result["numpy"],
        "nproc": len(os.sched_getaffinity(0)), "jobs": values.get("jobs"),
        "wall_jobs_per_s": values.get("wall_jobs_per_s"),
        "wall_setup_s": values.get("wall_setup_s"),
        "reference_s": values.get("reference_s"),
        **_source_version(),
    }
    print(json.dumps({"run": run_info}, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
