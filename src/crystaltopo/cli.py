"""Command-line interface.

Four commands over a JSON document describing a lattice sample or an
explicit cell list: ``build`` (construct and validate), ``homology``
(groups, Euler number, orientability), ``obstruct`` (field extension
analysis), ``network`` (edge-current and potential checks).  ``main``
loads the document and builds its complex once for every command; a
refusal exits 2, first from loading, then building, then the command.
Reports are deterministic; ``--report json`` emits one sorted JSON
object, and every report embeds the SHA-256 digest of the document.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import math
import sys
from typing import Any, Sequence

import numpy as np

from . import __version__
from .complexes import (
    DeltaComplex,
    RING_INT,
    RING_MOD2,
    RING_REAL,
    boundary_columns,
    validate_complex,
)
from .errors import CrystalTopoError, DocumentError
from .homology import (
    euler_characteristic,
    homology,
    homology_generators,
    orientability,
)
from .lattice import (
    BOUNDARY_FREE,
    BOUNDARY_KINDS,
    DEFECT_FIELDS,
    DefectSpec,
    LatticeSpec,
    build_lattice_complex,
)
from .network import _current_law, _potentials
from .obstruction import extend_field, index_sum_check
from .orderfield import OrderField, make_space

RING_FLAGS = {"z": RING_INT, "z2": RING_MOD2, "r": RING_REAL}

LATTICE_KEYS_REQUIRED = {"dimension", "ambient", "generators", "index_box",
                         "scheme"}
LATTICE_KEYS_OPTIONAL = {"removed_indices", "defects", "boundary_condition",
                         "field", "currents", "drops"}
EXPLICIT_KEYS_REQUIRED = {"complex"}
EXPLICIT_KEYS_OPTIONAL = {"field", "currents", "drops"}


def _fail(msg: str) -> DocumentError:
    return DocumentError(msg)


def _as_label(x: Any, where: str, index: int):
    """JSON labels: lists become tuples so they can key vertex lookups.

    Only list and object elements are walked; scalars pass through as they
    are.  A refusal names the entry ``where[index]``, formatted only then."""
    if isinstance(x, list):
        return tuple([_as_label(v, where, index)
                      if isinstance(v, (list, dict)) else v for v in x])
    if isinstance(x, dict):
        raise _fail(f"{where}[{index}]: a vertex label cannot be an object")
    return x


def _number(x: Any, cast, where: str, index: int | None = None):
    """``cast(x)`` for a finite JSON number, a whole one when ``cast`` is
    int; anything else is a DocumentError naming ``where``, or its entry
    ``where[index]`` (formatted only then)."""
    if isinstance(x, float):
        ok = x.is_integer() if cast is int else math.isfinite(x)
    else:
        ok = isinstance(x, int) and not isinstance(x, bool) and (
            cast is int or abs(x) <= sys.float_info.max)
    if not ok:
        if index is not None:
            where = f"{where}[{index}]"
        kind = "an integer" if cast is int else "a number"
        raise _fail(f"{where}: expected {kind}, got {x!r}")
    return cast(x)


def _numbers(xs: Any, cast, where: str) -> tuple:
    """``cast`` applied to every entry of a JSON list of numbers."""
    if not isinstance(xs, list):
        raise _fail(f"{where}: expected a list of numbers, got {xs!r}")
    return tuple(_number(x, cast, where, i) for i, x in enumerate(xs))


def load_document(path: str) -> tuple[dict, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise _fail(f"cannot read {path}: {exc}") from None
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise _fail(f"{path} is not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise _fail(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        # Integer literals past Python's digit limit, or nesting too deep.
        raise _fail(f"{path}: unreadable JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise _fail(f"{path}: top level must be a JSON object")
    return doc, digest


def _check_keys(doc: dict, required: set, optional: set, where: str) -> None:
    keys = set(doc)
    missing = required - keys
    if missing:
        raise _fail(f"{where}: missing keys: {', '.join(sorted(missing))}")
    unknown = keys - required - optional
    if unknown:
        raise _fail(f"{where}: unknown keys: {', '.join(sorted(unknown))}")


def _parse_defect(entry: Any, pos: int) -> DefectSpec:
    where = f"defects[{pos}]"
    if not isinstance(entry, dict) or "kind" not in entry:
        raise _fail(f"{where}: each defect is an object with a 'kind'")
    kind = entry["kind"]
    if not isinstance(kind, str) or kind not in DEFECT_FIELDS:
        raise _fail(f"{where}: unknown defect kind {kind!r}")
    fields = DEFECT_FIELDS[kind]
    unknown = set(entry) - {"kind", *fields}
    if unknown:
        raise _fail(f"{where}: unknown keys for {kind}: "
                    f"{', '.join(sorted(unknown))}")
    missing = set(fields) - set(entry)
    if missing:
        raise _fail(f"{where}: missing keys for {kind}: "
                    f"{', '.join(sorted(missing))}")
    return DefectSpec(kind, **{
        name: (_numbers if shape is tuple else _number)(
            entry[name], int, f"{where}.{name}")
        for name, shape in fields.items()})


def _parse_boundary(value: Any) -> tuple[str, tuple[int, ...]]:
    if value is None:
        return BOUNDARY_FREE, ()
    if isinstance(value, str):
        if value not in BOUNDARY_KINDS:
            raise _fail(f"boundary_condition: unknown kind {value!r}")
        return value, ()
    if isinstance(value, dict):
        _check_keys(value, set(), {"kind", "axes"}, "boundary_condition")
        kind = value.get("kind")
        if kind not in BOUNDARY_KINDS:
            raise _fail(f"boundary_condition: unknown kind {kind!r}")
        axes = _numbers(value.get("axes", []), int, "boundary_condition.axes")
        return kind, axes
    raise _fail("boundary_condition: expected a string or an object")


def build_from_document(doc: dict) -> tuple[DeltaComplex, dict]:
    """Dispatch on document form; returns the complex and a build report."""
    if "complex" in doc:
        _check_keys(doc, EXPLICIT_KEYS_REQUIRED, EXPLICIT_KEYS_OPTIONAL,
                    "document")
        body = doc["complex"]
        if not isinstance(body, dict):
            raise _fail("'complex' must be an object")
        _check_keys(body, {"cells"}, {"auto_close"}, "complex")
        cells = body["cells"]
        if (not isinstance(cells, list) or not cells
                or not all(isinstance(c, list) and c for c in cells)):
            raise _fail("complex.cells must be a nonempty list of "
                        "nonempty vertex lists")
        auto_close = body.get("auto_close", True)
        if not isinstance(auto_close, bool):
            raise _fail("complex.auto_close must be a boolean")
        simplices = [_as_label(c, "complex.cells", i)
                     for i, c in enumerate(cells)]
        try:
            cx = DeltaComplex.from_simplices(simplices, auto_close=auto_close)
        except TypeError:
            # Vertex labels are sorted; JSON values of unlike kinds are not.
            raise _fail("complex.cells: vertex labels must be mutually "
                        "comparable (all numbers, all strings, or lists "
                        "of those)") from None
        return cx, {"form": "explicit", "cells": cx.cell_counts()}

    _check_keys(doc, LATTICE_KEYS_REQUIRED, LATTICE_KEYS_OPTIONAL, "document")
    dimension = _number(doc["dimension"], int, "dimension")
    ambient = _number(doc["ambient"], int, "ambient")
    generators = doc["generators"]
    if not isinstance(generators, list):
        raise _fail("generators must be a list of coordinate lists")
    index_box = doc["index_box"]
    if (not isinstance(index_box, list)
            or not all(isinstance(r, list) and len(r) == 2 for r in index_box)):
        raise _fail("index_box must be a list of [lo, hi] pairs")
    removed = doc.get("removed_indices", [])
    if not isinstance(removed, list):
        raise _fail("removed_indices must be a list of multi-indices")
    defects = doc.get("defects", [])
    if not isinstance(defects, list):
        raise _fail("defects must be a list")
    boundary, axes = _parse_boundary(doc.get("boundary_condition"))
    spec = LatticeSpec(
        dimension=dimension,
        ambient=ambient,
        generators=tuple(_numbers(g, float, f"generators[{i}]")
                         for i, g in enumerate(generators)),
        index_box=tuple(_numbers(r, int, f"index_box[{i}]")
                        for i, r in enumerate(index_box)),
        scheme=doc["scheme"],
        removed_indices=tuple(_numbers(r, int, f"removed_indices[{i}]")
                              for i, r in enumerate(removed)),
        defects=tuple(_parse_defect(d, i) for i, d in enumerate(defects)),
        boundary=boundary,
        periodic_axes=axes,
    )
    cx, report = build_lattice_complex(spec)
    report["form"] = "lattice"
    return cx, report


def field_from_document(doc: dict, cx: DeltaComplex) -> OrderField:
    body = doc.get("field")
    if body is None:
        raise _fail("this command needs a 'field' section in the document")
    if not isinstance(body, dict):
        raise _fail("'field' must be an object")
    _check_keys(body, {"space", "samples"}, {"labels"}, "field")
    labels = body.get("labels", [])
    if not isinstance(labels, list):
        raise _fail("field.labels must be a list")
    space = make_space(body["space"], labels)
    samples = body["samples"]
    if not isinstance(samples, list):
        raise _fail("field.samples must be a list of [vertex, value] pairs")
    try:
        return OrderField.from_samples(cx, space, _sample_mapping(samples))
    except ValueError as exc:
        raise _fail(f"field: {exc}") from None


def _sample_mapping(samples: list) -> dict:
    """{vertex label: value} from the [vertex, value] entries, a list
    label as a tuple, resolved as one batch; a malformed entry, a nested
    or object label or a repeated label sends the entries through one by
    one in order, so a refusal names the first."""
    if set(map(type, samples)) <= {list} and set(map(len, samples)) <= {2}:
        try:
            mapping = {tuple(x) if type(x) is list else x: v
                       for x, v in samples}
        except TypeError:  # an object, or a list holding a list or object
            mapping = {}
        if len(mapping) == len(samples):
            return mapping
    mapping = {}
    for i, entry in enumerate(samples):
        if not isinstance(entry, list) or len(entry) != 2:
            raise _fail(f"field.samples[{i}]: expected [vertex, value]")
        label = _as_label(entry[0], "field.samples", i)
        if label in mapping:
            raise _fail(f"field.samples[{i}]: vertex {label!r} sampled twice")
        mapping[label] = entry[1]
    return mapping


def _edge_data(doc: dict, key: str, cx: DeltaComplex) -> tuple:
    """Edge ids, once each in first-entry order, and their entries' signed
    values summed in entry order, resolved as one batch; entries it cannot
    resolve are read one by one in order, so a refusal names the first."""
    body = doc.get(key)
    if body is None or body == []:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    if not isinstance(body, list):
        raise _fail(f"{key} must be a list of [edge, value] pairs")
    edges, values = zip(*[e if type(e) is list and len(e) == 2
                          else (None, None) for e in body])
    top, n_edges = sys.float_info.max, cx.n_cells(1)
    number = np.array([v if type(v) is float or type(v) is int
                       and -top <= v <= top else math.nan for v in values],
                      dtype=float)
    # An edge id, or -2 for a vertex pair, or -1 for anything else.
    ids = np.array([e if type(e) is int and 0 <= e < n_edges else -2
                    if type(e) is list and len(e) == 2 else -1 for e in edges])
    signs, pairs = np.ones(len(body)), np.flatnonzero(ids == -2)
    get = cx.label_to_id.get
    try:
        ends = [get(tuple(x) if type(x) is list else x, -1)
                for i in pairs for x in edges[i]]
    except TypeError:  # objects and nested lists: entry by entry
        ends = [-1] * (2 * len(pairs))
    ids[pairs], _, signs[pairs] = cx.find_cells(1, np.reshape(ends, (-1, 2)))
    signed = signs * number
    for i in np.flatnonzero((ids < 0) | ~np.isfinite(number)).tolist():
        entry, where = body[i], f"{key}[{i}]"
        if not isinstance(entry, list) or len(entry) != 2:
            raise _fail(f"{where}: expected [edge, value]")
        edge, value = entry[0], _number(entry[1], float, key, i)
        if isinstance(edge, int) and not isinstance(edge, bool):
            raise _fail(f"{where}: edge id {edge} out of range")
        if not (isinstance(edge, list) and len(edge) == 2):
            raise _fail(f"{where}: edge must be an id or a vertex pair")
        label = _as_label(edge, key, i)
        try:
            ids[i], sign = cx.find_cell(1, label)
        except CrystalTopoError as exc:
            raise _fail(f"{where}: {exc}") from None
        signed[i] = sign * value
    edge_ids, first = np.unique(ids, return_index=True)
    edge_ids = edge_ids[np.argsort(first)]
    return edge_ids, np.bincount(ids, signed)[edge_ids]


# ---------------------------------------------------------------------------
# Report rendering


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _emit(report: dict, mode: str) -> str:
    if mode == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    return "\n".join(_text_lines(report)) + "\n"


def _text_lines(report: dict) -> list[str]:
    cmd = report["command"]
    lines = [f"{cmd}: document sha256 {report['document_sha256'][:16]}..."]
    if cmd == "build":
        counts = report["cells"]
        names = ["vertices", "edges", "faces", "cells"]
        parts = [f"{n} {names[k] if k < 4 else f'{k}-cells'}"
                 for k, n in enumerate(counts)]
        lines.append("cells: " + ", ".join(parts))
        lines.append(f"euler characteristic (cells): "
                     f"{report['euler_characteristic_cells']}")
        lines.append(f"validation: "
                     f"{'ok' if report['validation']['ok'] else 'FAILED'}")
        for msg in report["validation"]["messages"]:
            lines.append(f"  {msg}")
        if "defects" in report and report["defects"]["removed_total"]:
            lines.append(
                f"removed sites: {report['defects']['removed_total']}")
        for key, M in sorted(report.get("matrices", {}).items()):
            lines.append(f"{key}: {M['shape'][0]} x {M['shape'][1]}")
            for i, j, v in M["entries"]:
                lines.append(f"  {i} {j} {v}")
    elif cmd == "homology":
        for g in report["groups"]:
            lines.append(f"H_{g['k']}: {g['text']}")
        lines.append(f"euler characteristic: {report['euler_characteristic']}")
        o = report["orientability"]
        lines.append(
            "orientable: " + ("yes" if o["orientable"] else "no")
            + (", closed" if o["closed"] else ", with boundary"))
        for gen in report.get("generators", []):
            kind = "free" if gen["order"] == 0 else f"order {gen['order']}"
            lines.append(f"H_{gen['k']} generator ({kind}): {gen['chain']}")
    elif cmd == "obstruct":
        lines.append(f"space: {report['space']}")
        for v in report["verdicts"]:
            status = "extends" if v["ok"] else "BLOCKED"
            extra = " (vacuous)" if v.get("vacuous") else ""
            lines.append(
                f"skeleton {v['k']}: {status}, {v['checked']} cells{extra}")
            if v.get("blocking_shown"):
                shown = ", ".join(str(b) for b in v["blocking_shown"])
                lines.append(f"  blocking cells: {shown}"
                             + (" ..." if v["blocking_total"]
                                > len(v["blocking_shown"]) else ""))
        lines.append("extends over full complex: "
                     + ("yes" if report["extends"] else "no"))
        if report.get("cocycle_ok") is not None:
            lines.append("cocycle check: "
                         + ("pass" if report["cocycle_ok"] else "fail"))
        if report.get("class_status"):
            lines.append(f"obstruction class: {report['class_status']}")
        for p in report.get("generator_pairings", []):
            kind = ("free" if p["generator_order"] == 0
                    else f"order {p['generator_order']}")
            lines.append(f"pairing with {kind} generator: "
                         f"{json.dumps(p['pairing'])}")
        for cset in report.get("component_values", []):
            lines.append(f"component {cset['component']}: values "
                         + ", ".join(cset["labels"]))
        if report.get("index_sum") and report["index_sum"]["applicable"]:
            s = report["index_sum"]
            verdict = "consistent" if s["consistent"] else "MISMATCH"
            lines.append(f"index sum {s['index_sum']} vs euler {s['euler']}: "
                         f"{verdict}")
        if report.get("note"):
            lines.append(f"note: {report['note']}")
    elif cmd == "network":
        cl = report.get("current_law")
        if cl is not None:
            lines.append("current law: " + ("pass" if cl["ok"] else "FAIL")
                         + f" (max residual {_fmt(cl['max_residual'])})")
            for v, r in sorted(cl["residuals"].items()):
                lines.append(f"  net flow at vertex {v}: {_fmt(r)}")
        pc = report.get("potential")
        if pc is not None:
            lines.append("potential check: "
                         + ("pass" if pc["consistent"] else "FAIL"))
            if pc["consistent"]:
                lines.append("  potentials: "
                             + " ".join(_fmt(p) for p in pc["potentials"]))
            else:
                lines.append(
                    f"  violating loop circulation: "
                    f"{_fmt(pc['loop_circulation'])}")
                lines.append("  loop edges: " + " ".join(
                    f"{e}:{_fmt(c)}" for e, c in
                    sorted(pc["loop"].items())))
    return lines


# ---------------------------------------------------------------------------
# Commands: each returns the keys of its own report


def cmd_build(args, doc, cx, build_report) -> dict:
    validation = validate_complex(cx)
    report = {
        "form": build_report.get("form"),
        "cells": cx.cell_counts(),
        "dimension": cx.dim,
        "euler_characteristic_cells": euler_characteristic(cx),
        "validation": {"ok": validation.ok,
                       "messages": list(validation.messages)},
    }
    if "defects" in build_report:
        report["defects"] = build_report["defects"]
    if args.dump_matrices:
        mats = {}
        for k in range(1, cx.dim + 1):
            mats[f"d{k}"] = {
                "shape": [cx.n_cells(k - 1), cx.n_cells(k)],
                "entries": sorted(
                    [i, j, v] for j, col in enumerate(boundary_columns(cx, k))
                    for i, v in col.items()),
            }
        report["matrices"] = mats
    return report


def cmd_homology(args, doc, cx, build_report) -> dict:
    ring = RING_FLAGS[args.ring]
    groups = []
    for k in range(cx.dim + 1):
        g = homology(cx, k, ring)
        groups.append({"k": k, "betti": g.betti,
                       "torsion": list(g.torsion), "text": str(g)})
    orient = orientability(cx)
    report = {
        "ring": ring,
        "groups": groups,
        "euler_characteristic": euler_characteristic(cx),
        "orientability": {"orientable": orient.orientable,
                          "closed": orient.closed,
                          "reason": orient.reason},
    }
    if args.generators:
        gens = []
        for k in range(cx.dim + 1):
            for order, chain in homology_generators(cx, k):
                gens.append({
                    "k": k, "order": order,
                    "chain": " ".join(
                        f"{cid}:{v}" for cid, v in
                        sorted(chain.coeffs.items()))})
        report["generators"] = gens
    return report


def cmd_obstruct(args, doc, cx, build_report) -> dict:
    field_ = field_from_document(doc, cx)
    result = extend_field(field_)
    verdicts = []
    for v in result.verdicts:
        entry = {"k": v.k, "ok": v.ok, "checked": v.checked,
                 "vacuous": v.vacuous}
        if v.blocking:
            entry["blocking_shown"] = v.blocking[:10]
            entry["blocking_total"] = len(v.blocking)
        verdicts.append(entry)
    report = {
        "space": result.space,
        "extends": result.extends,
        "reached": result.reached,
        "blocked_at": result.blocked_at,
        "verdicts": verdicts,
        "cocycle_ok": result.cocycle_ok,
        "class_status": result.class_status,
        "note": result.note,
    }
    if result.generator_pairings is not None:
        report["generator_pairings"] = result.generator_pairings
    if result.component_values is not None:
        report["component_values"] = result.component_values
    if result.cochain is not None:
        report["cochain"] = {
            "k": result.cochain.k,
            "group": result.cochain.group.name,
            "values": sorted(result.cochain.values.items()),
        }
    if (field_.space.name == "circle" and cx.dim == 2):
        s = index_sum_check(field_, result.probed.get(2))
        report["index_sum"] = {
            "applicable": s.applicable, "index_sum": s.index_sum,
            "euler": s.euler, "consistent": s.consistent,
            "reason": s.reason}
    return report


def cmd_network(args, doc, cx, build_report) -> dict:
    currents = _edge_data(doc, "currents", cx)
    drops = _edge_data(doc, "drops", cx)
    if "currents" not in doc and "drops" not in doc:
        raise _fail("network needs 'currents' or 'drops' in the document")
    for ids, sums in (currents, drops):
        bad = ~np.isfinite(sums)  # entries may sum past the float range
        if bad.any():
            i = int(bad.argmax())
            raise _fail(f"edge data: edge {ids[i]}: value {sums[i]} is not "
                        "a finite number")
    cl = _current_law(cx, *currents) if "currents" in doc else None
    pc = _potentials(cx, *drops) if "drops" in doc else None
    report: dict = {}
    if cl is not None:
        report["current_law"] = {
            "ok": cl.ok, "max_residual": cl.max_residual,
            "residuals": {str(k): v for k, v in sorted(cl.residuals.items())},
            "tol": cl.tol}
    if pc is not None:
        entry: dict = {"consistent": pc.consistent, "tol": pc.tol}
        if pc.consistent:
            entry["potentials"] = pc.potentials
        else:
            entry["loop"] = {str(e): c
                             for e, c in sorted(pc.violating_loop.coeffs.items())}
            entry["loop_circulation"] = pc.loop_circulation
        report["potential"] = entry
    return report


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crystaltopo",
        description="Topological analysis of defective crystal lattices")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("document", help="JSON document path")
        p.add_argument("--report", choices=("text", "json"), default="text")

    p_build = sub.add_parser("build", help="construct and validate a complex")
    common(p_build)
    p_build.add_argument("--dump-matrices", action="store_true",
                         help="include the boundary matrices in the report")

    p_hom = sub.add_parser("homology", help="homology groups and Euler number")
    common(p_hom)
    p_hom.add_argument("--ring", choices=sorted(RING_FLAGS), default="z")
    p_hom.add_argument("--generators", action="store_true",
                       help="include explicit generator chains")

    p_obs = sub.add_parser("obstruct",
                           help="field extension / obstruction analysis")
    common(p_obs)

    p_net = sub.add_parser("network", help="edge current and potential checks")
    common(p_net)
    return parser


COMMANDS = {
    "build": cmd_build,
    "homology": cmd_homology,
    "obstruct": cmd_obstruct,
    "network": cmd_network,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses, built on its first call."""
    return make_parser()


def main(argv: Sequence[str] | None = None) -> int:
    # A command keeps nearly all it allocates (the decoded document above
    # all) until it returns, so cyclic-collector passes would only re-scan
    # live objects: the collector is paused, and the caller's setting kept.
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _parser().parse_args(argv)
        try:
            doc, digest = load_document(args.document)
            cx, build_report = build_from_document(doc)
            report = COMMANDS[args.command](args, doc, cx, build_report)
        except CrystalTopoError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report.update(command=args.command, document_sha256=digest)
        sys.stdout.write(_emit(report, args.report))
        return 0
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
