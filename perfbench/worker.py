"""One workload run in a fresh interpreter; prints its measurements as JSON.

``run.py`` starts this script once per run (and a few more times with
``--setup-only`` to time set-up), so the peak RSS it reports belongs to
this run alone.  Every job calls ``crystaltopo.cli.main`` in-process on a
generated document written under the work directory, with stdout and
stderr captured; only that call is timed, and its time is reported in
reference seconds (see ``reference_seconds``).  The report is then
checked against the answer the job's generator built in.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Whole rounds of the job mix run until --seconds have passed and at least
# MIN_JOBS are done, so job_s.p90 has ten samples beyond it.  A run that
# is slower than that stops starting jobs at HARD_CAP_S.
MIN_JOBS = 100
HARD_CAP_S = 120.0
# The traced run repeats passes over the first TRACE_JOBS jobs, rounded
# up to whole rounds; in a pass each job runs untraced, then traced.
TRACE_JOBS = 16
DEFAULT_SEED = 0
# Runs with another seed replay this many default-seed jobs and compare
# their report hashes with golden.json.
GOLDEN_REPLAY = 4
MAX_PROBLEMS = 5
# Job and set-up times are reported in reference seconds: wall time
# scaled by REF_S / (wall time of the reference kernel measured next to
# the job or the set-up).
REF_S = 0.01
_REF_RNG = random.Random(20101218)
_REF_MATRIX = [[_REF_RNG.choice((-1, 0, 0, 0, 1)) for _ in range(48)]
               for _ in range(48)]


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python kernel: fraction-free integer
    elimination of a 48 x 48 matrix, the same kind of work as the dense
    Smith reduction.  The host's CPU speed drifts by tens of percent
    within a minute; timed next to each job, this kernel tracks that
    drift, and dividing by it removes most of it from the job times."""
    start = perf_counter()
    rows = [row[:] for row in _REF_MATRIX]
    n = len(rows)
    rank = 0
    for col in range(n):
        pivot = next((i for i in range(rank, n) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, n):
            row = rows[i]
            v = row[col]
            if v:
                row = [x * top[col] - v * y for x, y in zip(row, top)]
                g = math.gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        rank += 1
    return perf_counter() - start


def invoke(cli, path: Path, job: workloads.Job):
    """Write the job's document to ``path`` and time ``cli.main`` on it.

    Returns (seconds, exit code, stdout, stderr); an exception the CLI
    lets escape becomes its traceback in place of the exit code."""
    path.write_bytes(job.doc)
    argv = job.argv + [str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = traceback.format_exc(limit=3)
        elapsed = perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


class Runner:
    """Runs jobs through ``crystaltopo.cli.main`` and checks their reports."""

    def __init__(self, cli, workdir: Path, golden: list[str] | None):
        self.cli = cli
        self.path = workdir / f"job-{os.getpid()}.json"
        self.golden = golden or []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest = ""

    def run(self, job: workloads.Job, index: int | None = None) -> float:
        """Run one job; returns its wall time.  ``index`` names a
        default-seed job whose report hash golden.json records."""
        elapsed, code, out, err = invoke(self.cli, self.path, job)
        self.attempted += 1
        problems = []
        if code != 0:
            problems.append(f"exit {code!r}: {err.strip()[:200]}")
        else:
            try:
                problems = job.check(json.loads(out))
            except Exception:
                problems = [traceback.format_exc(limit=2)]
            self.digest = hashlib.sha256(out.encode()).hexdigest()
            if index is not None and index < len(self.golden):
                if self.digest != self.golden[index]:
                    problems.append(f"report hash {self.digest[:12]} "
                                    "differs from golden.json")
        if problems:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(f"{job.kind}: {'; '.join(problems)}")
        return elapsed

    def close(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            self.path.unlink()


def _load_cli():
    """Import crystaltopo from this checkout's src, never from elsewhere."""
    from crystaltopo import cli
    expected = (ROOT / "src" / "crystaltopo").resolve()
    if Path(cli.__file__).resolve().parent != expected:
        raise SystemExit(f"crystaltopo imported from {cli.__file__}, "
                         f"not from {expected}")
    return cli


def _golden(workload: str) -> list[str]:
    with open(HERE / "golden.json") as fh:
        data = json.load(fh)
    if data["seed"] != DEFAULT_SEED:
        raise SystemExit("golden.json was recorded for another seed")
    return data["reports"][workload]


def timed_run(runner: Runner, workload: str, seed: int,
              seconds: float) -> dict:
    """End-to-end metrics of whole rounds of jobs, untraced.  Each job's
    wall time is scaled by the median of the four reference-kernel times
    around it: one before the previous job, the ones right before and
    after it, and one after the next job."""
    round_len = len(workloads.ROUNDS[workload])
    times = []
    refs = [reference_seconds()]
    start = perf_counter()
    index = 0
    while True:
        elapsed = perf_counter() - start
        if index % round_len == 0 and (
                (elapsed >= seconds and index >= MIN_JOBS)
                or elapsed >= HARD_CAP_S):
            break
        job = workloads.make_job(workload, seed, index)
        times.append(runner.run(job, index if seed == DEFAULT_SEED else None))
        refs.append(reference_seconds())
        index += 1
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if seed != DEFAULT_SEED:
        for i in range(GOLDEN_REPLAY):
            runner.run(workloads.make_job(workload, DEFAULT_SEED, i), i)
    scaled = [t * REF_S / statistics.median(refs[max(i - 1, 0):i + 3])
              for i, t in enumerate(times)]
    # A failed job counts against ok_frac; its time still counts above.
    return {
        "jobs_per_s": len(scaled) / sum(scaled),
        "job_s.p50": statistics.median(scaled),
        "job_s.p90": statistics.quantiles(scaled, n=10)[8],
        "peak_rss_mb": peak_mb,
        "ok_frac": 1.0 - runner.failed / runner.attempted,
        "jobs": len(times),
        "wall_jobs_per_s": len(times) / sum(times),
        "reference_s": statistics.median(refs),
    }


def traced_run(runner: Runner, workload: str, seed: int, seconds: float,
               spans_path: Path) -> dict:
    """Per-layer metrics: passes over a fixed job list until ``seconds``
    have passed; metrics are means per pass.  Each job runs untraced and
    then traced, back to back, so the overhead ratio compares runs made
    at the same machine speed."""
    from tracing import ROOT_SPAN, Tracer

    round_len = len(workloads.ROUNDS[workload])
    count = round_len * math.ceil(TRACE_JOBS / round_len)
    jobs = [workloads.make_job(workload, seed, i) for i in range(count)]
    sums: dict[str, float] = {}
    ratios = []
    passes = 0
    start = perf_counter()
    while True:
        tracer = Tracer()
        plain = traced = 0.0
        for i, job in enumerate(jobs):
            plain += runner.run(job)
            tracer.install()
            try:
                tracer.begin_job(i)
                traced += runner.run(job)
                tracer.end_job()
            finally:
                tracer.uninstall()
        metrics = tracer.metrics()
        _, wall = tracer.self_times()
        layers = sum(v for k, v in metrics.items() if k.endswith("_s"))
        if tracer.skipped and not passes:
            runner.problems.append(f"not traced: {', '.join(tracer.skipped)}")
        if tracer.roots() != [ROOT_SPAN] * count:
            runner.failed += 1
            runner.problems.append("traced jobs do not each have one "
                                   f"{ROOT_SPAN} root span")
        if abs(layers - wall) > 1e-6 * max(wall, 1.0):
            runner.failed += 1
            runner.problems.append(f"layer self times sum to {layers!r}, "
                                   f"traced wall time is {wall!r}")
        metrics["trace.wall_s"] = wall
        for k, v in metrics.items():
            sums[k] = sums.get(k, 0.0) + v
        ratios.append(traced / plain - 1.0)
        passes += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / passes > seconds or elapsed >= HARD_CAP_S:
            break
    tracer.write(str(spans_path))
    out = {k: v / passes for k, v in sums.items()}
    out["trace.overhead_frac"] = statistics.median(ratios)
    out["trace.passes"] = passes
    out["trace.jobs"] = count
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    golden = _golden(args.workload)
    warm = workloads.make_job(args.workload, args.seed, -1)
    refs = [reference_seconds() for _ in range(3)]
    start = perf_counter()
    cli = _load_cli()
    imported = perf_counter() - start
    runner = Runner(cli, args.workdir, golden)
    setup = imported + runner.run(warm)
    refs += [reference_seconds() for _ in range(2)]
    result = {"setup_s": setup * REF_S / statistics.median(refs),
              "wall_setup_s": setup,
              "numpy": sys.modules["numpy"].__version__}
    try:
        if not runner.failed:
            # The warm-up job is excluded from everything but set-up.
            runner.attempted = 0
            if args.trace:
                spans = args.workdir / f"spans-{args.workload}.json"
                result["metrics"] = traced_run(
                    runner, args.workload, args.seed, args.seconds, spans)
            elif not args.setup_only:
                result["metrics"] = timed_run(
                    runner, args.workload, args.seed, args.seconds)
    finally:
        runner.close()
    result.update(attempted=runner.attempted, failed=runner.failed,
                  problems=runner.problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
