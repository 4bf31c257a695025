"""Per-layer tracing for the benchmark's traced run.

``Tracer.install`` replaces selected crystaltopo functions with timing
wrappers at every name where callers look them up (``from .snf import
smith_diagonal`` binds the function into the caller's module, so each
such binding is patched), and ``uninstall`` puts the originals back.  Each
call records a span: job, function, start, end and the span that called
it.  Spans stay in memory until the pass ends.

A span's self time is its duration minus the durations of its child
spans; a function that is not wrapped counts in its caller's self time.
Self times add up per metric (``FUNCTIONS``), so the metrics of a pass sum
to the wall time of its root spans, the ``crystaltopo.cli.main`` calls.
Counters are read from the arguments and results of the same calls.
Work a counter does lands in the caller's self time; the benchmark
reports that cost as part of the tracing overhead.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from time import perf_counter

# (module, function, metric its self time adds to).  A function missing
# from the code under test is skipped and its metric reads 0.
FUNCTIONS = [
    ("cli", "main", "cli.self_s"),
    ("cli", "load_document", "cli.load_document_s"),
    ("cli", "_emit", "cli.render_s"),
    ("lattice", "build_lattice_complex", "lattice.build_s"),
    ("lattice", "apply_periodic_boundary", "lattice.quotient_s"),
    ("lattice", "apply_constant_boundary", "lattice.quotient_s"),
    ("complexes", "build_complex", "complexes.build_complex_s"),
    ("complexes", "validate_complex", "complexes.validate_s"),
    ("complexes", "incidence_matrix", "complexes.incidence_s"),
    ("snf", "smith_diagonal", "snf.smith_diagonal_s"),
    ("snf", "smith_normal_form", "snf.smith_normal_form_s"),
    ("snf", "solve_integer", "snf.solve_integer_s"),
    ("snf", "gf2_rank", "snf.gf2_s"),
    ("snf", "gf2_solve", "snf.gf2_s"),
    ("homology", "homology", "homology.homology_s"),
    ("homology", "homology_generators", "homology.generators_s"),
    ("homology", "orientability", "homology.orientability_s"),
    ("homology", "euler_characteristic", "homology.euler_s"),
    ("orderfield", "OrderField.from_samples", "orderfield.from_samples_s"),
    ("orderfield", "boundary_class", "orderfield.boundary_class_s"),
    ("obstruction", "extend_field", "obstruction.extend_field_s"),
    ("obstruction", "obstruction_cochain", "obstruction.cochain_s"),
    ("obstruction", "verify_cocycle", "obstruction.cocycle_s"),
    ("obstruction", "obstruction_class", "obstruction.class_s"),
    ("obstruction", "pair_with_generators", "obstruction.pairing_s"),
    ("obstruction", "index_sum_check", "obstruction.index_sum_s"),
    ("network", "check_current_law", "network.current_law_s"),
    ("network", "potential_check", "network.potential_s"),
]
TIME_METRICS = list(dict.fromkeys(metric for _, _, metric in FUNCTIONS))
COUNT_METRICS = {
    "cli.doc_mb": "MB",
    "lattice.sites": "count",
    "complexes.cells": "count",
    "complexes.incidence_calls": "count",
    "complexes.incidence_nnz": "count",
    "complexes.incidence_dense_mb": "MB",
    "snf.smith_diagonal_calls": "count",
    "snf.smith_normal_form_calls": "count",
    "snf.entries_reduced": "count",
    "homology.reductions_per_matrix": "ratio",
    "orderfield.probes": "count",
    "network.edges": "count",
}
ROOT_SPAN = "cli.main"


def _shape(matrix) -> tuple[int, int]:
    rows = len(matrix)
    return rows, (len(matrix[0]) if rows else 0)


class Tracer:
    """Spans and counters of one traced pass over a list of jobs."""

    def __init__(self):
        self.spans: list = []   # [job, name, metric, start, end, parent]
        self.stack: list[int] = []
        self.job = -1
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.snf_matrices = 0   # distinct matrices per job, summed
        self._job_matrices: set = set()
        self._job_incidence: dict = {}
        self._patched: list = []
        self.skipped: list[str] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        self.skipped = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "crystaltopo" or name.startswith("crystaltopo.")]
        for mod_name, qualname, metric in FUNCTIONS:
            mod = importlib.import_module(f"crystaltopo.{mod_name}")
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name, None)
                raw = owner.__dict__.get(attr) if owner is not None else None
                if not isinstance(raw, classmethod):
                    self.skipped.append(f"{mod_name}.{qualname}")
                    continue
                wrapped = classmethod(self._wrap(
                    raw.__func__, f"{mod_name}.{qualname}", metric))
                setattr(owner, attr, wrapped)
                self._patched.append((owner, attr, raw))
                continue
            original = getattr(mod, attr, None)
            if original is None:
                self.skipped.append(f"{mod_name}.{qualname}")
                continue
            wrapper = self._wrap(original, f"{mod_name}.{attr}", metric)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)
                        self._patched.append((m, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _wrap(self, fn, name: str, metric: str):
        hook = _HOOKS.get(name)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [self.job, name, metric, 0.0, 0.0, parent]
            spans.append(span)
            stack.append(idx)
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, parent, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- jobs ----------------------------------------------------------------

    def begin_job(self, job: int) -> None:
        self.job = job
        self._job_matrices = set()
        self._job_incidence = {}

    def end_job(self) -> None:
        self.snf_matrices += len(self._job_matrices)
        dense = sum(m.size * 8 for m in self._job_incidence.values()) / 1e6
        self.counts["complexes.incidence_dense_mb"] = max(
            self.counts["complexes.incidence_dense_mb"], dense)
        self._job_incidence = {}

    # -- results -------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], float]:
        """Self time per metric and the summed duration of root spans."""
        child = [0.0] * len(self.spans)
        for job, name, metric, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = dict.fromkeys(TIME_METRICS, 0.0)
        wall = 0.0
        for own, (job, name, metric, start, end, parent) in zip(
                child, self.spans):
            totals[metric] += (end - start) - own
            if parent < 0:
                wall += end - start
        return totals, wall

    def metrics(self) -> dict[str, float]:
        out, _ = self.self_times()
        out.update(self.counts)
        calls = self.counts["snf.smith_diagonal_calls"]
        out["homology.reductions_per_matrix"] = (
            calls / self.snf_matrices if self.snf_matrices else 0.0)
        return out

    def roots(self) -> list[str]:
        """Names of the root spans; every one should be ``cli.main``."""
        return [s[1] for s in self.spans if s[5] < 0]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["job", "function", "metric", "start",
                                  "end", "parent"],
                       "spans": self.spans}, fh)

    def _parent_in_snf(self, parent: int) -> bool:
        return parent >= 0 and self.spans[parent][2].startswith("snf.")


# ---------------------------------------------------------------------------
# Counters, keyed by the wrapped function's name


def _count_document(tr: Tracer, parent, args, result) -> None:
    tr.counts["cli.doc_mb"] += os.path.getsize(args[0]) / 1e6


def _count_sites(tr, parent, args, result) -> None:
    tr.counts["lattice.sites"] += result[1]["sites"]


def _count_cells(tr, parent, args, result) -> None:
    tr.counts["complexes.cells"] += sum(result.cell_counts())


def _count_incidence(tr, parent, args, result) -> None:
    tr.counts["complexes.incidence_calls"] += 1
    if id(result) not in tr._job_incidence:
        # Keep the array so its id is not reused within the job.
        tr._job_incidence[id(result)] = result
        tr.counts["complexes.incidence_nnz"] += int((result != 0).sum())


def _count_reduced(tr, parent, args) -> None:
    if not tr._parent_in_snf(parent):
        rows, cols = _shape(args[0])
        tr.counts["snf.entries_reduced"] += rows * cols


def _count_smith_diagonal(tr, parent, args, result) -> None:
    tr.counts["snf.smith_diagonal_calls"] += 1
    matrix = args[0]
    tr._job_matrices.add((_shape(matrix), hash(tuple(map(tuple, matrix)))))
    _count_reduced(tr, parent, args)


def _count_smith_normal_form(tr, parent, args, result) -> None:
    tr.counts["snf.smith_normal_form_calls"] += 1
    _count_reduced(tr, parent, args)


def _count_solver(tr, parent, args, result) -> None:
    _count_reduced(tr, parent, args)


def _count_probe(tr, parent, args, result) -> None:
    tr.counts["orderfield.probes"] += 1


def _count_edges(tr, parent, args, result) -> None:
    tr.counts["network.edges"] += args[0].n_cells(1)


_HOOKS = {
    "cli.load_document": _count_document,
    "lattice.build_lattice_complex": _count_sites,
    "complexes.build_complex": _count_cells,
    "complexes.incidence_matrix": _count_incidence,
    "snf.smith_diagonal": _count_smith_diagonal,
    "snf.smith_normal_form": _count_smith_normal_form,
    "snf.solve_integer": _count_solver,
    "snf.gf2_rank": _count_solver,
    "snf.gf2_solve": _count_solver,
    "orderfield.boundary_class": _count_probe,
    "network.check_current_law": _count_edges,
    "network.potential_check": _count_edges,
}
