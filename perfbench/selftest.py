"""Self-test of the benchmark's checkers and tracing.

    python3 perfbench/selftest.py

For the first round of default-seed jobs of each workload it shows that
the checker accepts the real report, that the report hash matches
golden.json, and that the checker rejects the report after one corruption
(a Betti number flipped, a potential shifted, a cell count or cochain
value changed).  It then traces one pass of vacancy-scan jobs and checks
that the layer self times sum to the traced wall time and that each
boundary matrix is reduced twice.  Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys

from worker import DEFAULT_SEED, HERE, ROOT, _load_cli, invoke
from tracing import Tracer
import workloads


def corrupt(report: dict) -> dict:
    """One wrong value that the job's checker must notice."""
    bad = copy.deepcopy(report)
    command = bad["command"]
    if command == "homology":
        bad["groups"][1]["betti"] += 1
    elif command == "build":
        bad["cells"][1] += 1
    elif command == "network":
        pc = bad["potential"]
        if pc["consistent"]:
            pc["potentials"][-1] += 0.5
        else:
            pc["loop_circulation"] += 0.5
    elif bad.get("cochain") and bad["cochain"]["group"] != "set":
        bad["cochain"]["values"][0][1] += 1
    elif bad.get("cochain"):
        bad["verdicts"][-1]["blocking_total"] += 1
    else:
        bad["verdicts"][-1]["ok"] = False
    return bad


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    cli = _load_cli()
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    path = workdir / "selftest.json"
    with open(HERE / "golden.json") as fh:
        golden = json.load(fh)["reports"]
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'}  {what}")
        if not ok:
            failures.append(what)

    try:
        for workload, rnd in sorted(workloads.ROUNDS.items()):
            for i in range(len(rnd)):
                job = workloads.make_job(workload, DEFAULT_SEED, i)
                _, code, out, err = invoke(cli, path, job)
                name = f"{workload}[{i}] {job.kind}"
                if code != 0:
                    expect(False, f"{name} ran: {err.strip()[:200]}")
                    continue
                report = json.loads(out)
                problems = job.check(report)
                expect(not problems, f"{name} accepted"
                       + (f": {problems[0]}" if problems else ""))
                digest = hashlib.sha256(out.encode()).hexdigest()
                expect(digest == golden[workload][i],
                       f"{name} report hash matches golden.json")
                expect(bool(job.check(corrupt(report))),
                       f"{name} corrupted report rejected")

        rnd = workloads.ROUNDS["vacancy-scan"]
        jobs = [workloads.make_job("vacancy-scan", DEFAULT_SEED, i)
                for i in range(len(rnd))]
        tracer = Tracer()
        tracer.install()
        try:
            for i, job in enumerate(jobs):
                tracer.begin_job(i)
                invoke(cli, path, job)
                tracer.end_job()
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        layers, wall = tracer.self_times()
        total = sum(layers.values())
        expect(not tracer.skipped, "every layer function traced"
               + (f"; missing {tracer.skipped}" if tracer.skipped else ""))
        expect(abs(total - wall) <= 1e-9 * wall,
               f"layer self times {total:.6f} s sum to traced wall "
               f"{wall:.6f} s")
        expect(metrics["homology.reductions_per_matrix"] == 2.0,
               "vacancy-scan reduces each boundary matrix twice "
               f"({metrics['homology.reductions_per_matrix']})")
        expect(cli.main.__module__ == "crystaltopo.cli"
               and not hasattr(cli.main, "__wrapped__"),
               "uninstall restores the original functions")
    finally:
        path.unlink(missing_ok=True)
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
