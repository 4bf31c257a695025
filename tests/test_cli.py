import gc
import hashlib
import itertools
import json
import math
import time
import warnings
from pathlib import Path

import pytest

from crystaltopo import cli
from crystaltopo.cli import main

SAMPLES = Path(__file__).resolve().parents[1] / "docs" / "samples"

TORUS_DOC = {
    "dimension": 2,
    "ambient": 2,
    "generators": [[1.0, 0.0], [0.0, 1.0]],
    "index_box": [[0, 3], [0, 3]],
    "scheme": "triangular",
    "boundary_condition": {"kind": "periodic", "axes": [1, 2]},
}


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_doc(tmp_path, payload, name="doc.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def test_build_reports_counts(capsys, tmp_path):
    rc, out, _ = run(capsys, "build", write_doc(tmp_path, TORUS_DOC))
    assert rc == 0
    assert "9 vertices, 27 edges, 18 faces" in out
    assert "euler characteristic (cells): 0" in out
    assert "validation: ok" in out


def test_build_json_report_is_machine_readable(capsys, tmp_path):
    rc, out, _ = run(capsys, "build", write_doc(tmp_path, TORUS_DOC),
                     "--report", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["cells"] == [9, 27, 18]
    assert doc["euler_characteristic_cells"] == 0
    assert len(doc["document_sha256"]) == 64
    # serialization is deterministic: sorted keys, stable indentation
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_build_dump_matrices(capsys):
    rc, out, _ = run(capsys, "build", str(SAMPLES / "disc.json"),
                     "--dump-matrices")
    assert rc == 0
    assert "d1: 4 x 6" in out
    assert "d2: 6 x 3" in out


def test_explicit_complex_document(capsys):
    rc, out, _ = run(capsys, "build", str(SAMPLES / "tetrahedron.json"))
    assert rc == 0
    assert "4 vertices, 6 edges, 4 faces" in out
    assert "euler characteristic (cells): 2" in out


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------

def test_homology_table(capsys, tmp_path):
    rc, out, _ = run(capsys, "homology", write_doc(tmp_path, TORUS_DOC))
    assert rc == 0
    assert "H_1: Z + Z" in out
    assert "euler characteristic: 0" in out
    assert "orientable: yes, closed" in out


def test_homology_of_nonorientable_sample(capsys):
    rc, out, _ = run(capsys, "homology", str(SAMPLES / "mobius.json"))
    assert rc == 0
    assert "H_1: Z" in out
    assert "orientable: no, with boundary" in out


def test_homology_mod2_ring(capsys, tmp_path):
    rc, out, _ = run(capsys, "homology", write_doc(tmp_path, TORUS_DOC),
                     "--ring", "z2")
    assert rc == 0
    assert "H_1: (Z/2)^2" in out
    assert "H_2: (Z/2)" in out


def test_homology_generators_flag(capsys, tmp_path):
    rc, out, _ = run(capsys, "homology", write_doc(tmp_path, TORUS_DOC),
                     "--generators")
    assert rc == 0
    assert out.count("H_1 generator (free)") == 2
    assert "H_2 generator (free)" in out


def test_homology_generators_when_a_boundary_matrix_has_no_rows(
        capsys, tmp_path):
    # a triangle without its edges: d_2 has no rows, so it is the zero map
    doc = {"complex": {"cells": [["A", "B", "C"]], "auto_close": False}}
    rc, out, _ = run(capsys, "homology", write_doc(tmp_path, doc),
                     "--generators")
    assert rc == 0
    assert "H_2: Z" in out
    assert "H_2 generator (free): 0:1" in out


def test_homology_torsion_generator_listing(capsys, tmp_path):
    doc = {"complex": {"cells": [
        [1, 2, 5], [1, 2, 6], [1, 3, 4], [1, 3, 6], [1, 4, 5],
        [2, 3, 4], [2, 3, 5], [2, 4, 6], [3, 5, 6], [4, 5, 6]]}}
    rc, out, _ = run(capsys, "homology", write_doc(tmp_path, doc),
                     "--generators")
    assert rc == 0
    assert "H_1: Z/2" in out
    assert "H_1 generator (order 2)" in out


# ---------------------------------------------------------------------------
# obstruct
# ---------------------------------------------------------------------------

def test_obstruct_vortex_pair_sample(capsys):
    rc, out, _ = run(capsys, "obstruct", str(SAMPLES / "sphere_vortex_pair.json"))
    assert rc == 0
    assert "skeleton 2: BLOCKED" in out
    assert "extends over full complex: no" in out
    assert "cocycle check: pass" in out
    assert "obstruction class: trivial" in out


def test_obstruct_json_shape(capsys):
    rc, out, _ = run(capsys, "obstruct", str(SAMPLES / "sphere_vortex_pair.json"),
                     "--report", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["extends"] is False
    assert doc["blocked_at"] == 2
    values = dict((int(k), v) for k, v in doc["cochain"]["values"])
    assert sorted(values.values()) == [-1, 1]
    assert doc["index_sum"]["index_sum"] == 0


def _vortex_pair_angle(x, y, plus, minus):
    return (math.atan2(y - plus[1], x - plus[0])
            - math.atan2(y - minus[1], x - minus[0]))


# A torus-valued field whose two factors each carry a vortex pair on the
# periodic triangular 6x6 torus; its report, json then text.
TORUS_PAIR_SHA256 = (
    "f9b66393e88fed272f7999d29e983a44c13a2a881c4dd515a5a0d15f9437dcdb",
    "d608ea5f88b8adb0d0c5ef46e1d2cdcb2027422308bdffd1bfc4e9d349d6185e")


def test_torus_valued_vortex_pairs_pair_to_zero(capsys, tmp_path):
    # The Z^2 class is trivial, so it pairs to (0, 0) with the one
    # generator of H_2; the report is pinned byte for byte.
    doc = dict(TORUS_DOC, index_box=[[0, 6], [0, 6]], field={
        "space": "torus",
        "samples": [[[x, y], [_vortex_pair_angle(x, y, (1.3, 1.6), (4.2, 3.7)),
                              _vortex_pair_angle(x, y, (3.4, 0.7), (1.8, 4.4))]]
                    for x in range(6) for y in range(6)]})
    path = write_doc(tmp_path, doc)
    digests = []
    for mode in ("json", "text"):
        rc, out, _ = run(capsys, "obstruct", path, "--report", mode)
        assert rc == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == TORUS_PAIR_SHA256
    report = json.loads(run(capsys, "obstruct", path, "--report", "json")[1])
    assert report["blocked_at"] == 2 and report["class_status"] == "trivial"
    assert report["generator_pairings"] == [
        {"generator_order": 0, "pairing": [0, 0]}]


def test_obstruct_spin_interface_sample(capsys):
    rc, out, _ = run(capsys, "obstruct", str(SAMPLES / "spin_interface.json"))
    assert rc == 0
    assert "skeleton 1: BLOCKED" in out
    assert "constant" in out


def test_obstruct_prints_torus_pairings_as_lists(capsys, tmp_path):
    # Z^2 values are integer pairs; both report modes write them as lists
    doc = dict(TORUS_DOC, field={
        "space": "torus",
        "samples": [[[x, y], [1.3 * x * y, 2.1 * x - 0.7 * y]]
                    for x in range(3) for y in range(3)]})
    path = write_doc(tmp_path, doc)
    rc, out, _ = run(capsys, "obstruct", path, "--report", "json")
    assert rc == 0
    report = json.loads(out)
    assert report["cochain"]["group"] == "Z^2"
    assert all(isinstance(v, list) for _, v in report["cochain"]["values"])
    assert report["generator_pairings"] == [
        {"generator_order": 0, "pairing": [0, 0]}]
    rc, out, _ = run(capsys, "obstruct", path)
    assert rc == 0
    assert "pairing with free generator: [0, 0]\n" in out


@pytest.mark.parametrize("labels", [[[1], [2]], [{"a": 1}, 2]])
def test_obstruct_finite_set_with_list_and_object_labels(capsys, tmp_path,
                                                         labels):
    # JSON lists and objects compare equal but do not hash; the interface
    # is reported with the samples as written, not a traceback
    doc = {"complex": {"cells": [["A", "B"], ["B", "C"], ["C", "D"]]},
           "field": {"space": "finite_set", "labels": labels,
                     "samples": [[v, labels[v > "B"]] for v in "ABCD"]}}
    path = write_doc(tmp_path, doc)
    rc, out, err = run(capsys, "obstruct", path, "--report", "json")
    assert (rc, err) == (0, "")
    report = json.loads(out)
    assert report["blocked_at"] == 1 and report["extends"] is False
    assert report["component_values"] == [
        {"component": 0, "labels": sorted(map(str, labels))}]
    rc, out, _ = run(capsys, "obstruct", path)
    assert rc == 0
    assert f"component 0: values {', '.join(sorted(map(str, labels)))}\n" in out


def test_obstruct_requires_field(capsys, tmp_path):
    rc, out, err = run(capsys, "obstruct", write_doc(tmp_path, TORUS_DOC))
    assert rc == 2
    assert "field" in err


# ---------------------------------------------------------------------------
# network
# ---------------------------------------------------------------------------

def test_network_sample_document(capsys):
    rc, out, _ = run(capsys, "network", str(SAMPLES / "circle_network.json"))
    assert rc == 0
    assert "current law: pass" in out
    assert "potential check: FAIL" in out
    assert "violating loop circulation: 3" in out


def test_network_json(capsys):
    rc, out, _ = run(capsys, "network", str(SAMPLES / "circle_network.json"),
                     "--report", "json")
    doc = json.loads(out)
    assert doc["current_law"]["ok"] is True
    assert doc["potential"]["consistent"] is False
    assert abs(doc["potential"]["loop_circulation"]) == pytest.approx(3.0)


def test_network_reversed_cubic_edge_is_negated(capsys, tmp_path):
    # naming a cubic edge by its reversed pair books the value negated
    line = {"dimension": 1, "ambient": 1, "generators": [[1.0]],
            "index_box": [[0, 2]], "scheme": "cubic"}
    reports = []
    for ends in ([[0], [1]], [[1], [0]]):
        doc = dict(line, currents=[[ends, 1.0]], drops=[[ends, 1.0]])
        rc, out, _ = run(capsys, "network", write_doc(tmp_path, doc),
                         "--report", "json")
        assert rc == 0
        reports.append(json.loads(out))
    stored, reversed_ = reports
    assert stored["current_law"]["residuals"] == {"0": -1.0, "1": 1.0}
    assert reversed_["current_law"]["residuals"] == {
        v: -r for v, r in stored["current_law"]["residuals"].items()}
    assert stored["potential"]["potentials"] == [0.0, 1.0, 1.0]
    assert reversed_["potential"]["potentials"] == [
        -p for p in stored["potential"]["potentials"]]

def lattice_network_doc(scheme, period, faulty):
    """A periodic lattice with currents named by vertex pairs, in both
    orders and some split over two entries, and drops named by id.

    Edges are numbered as the builder stores them, by tail site and then
    by offset; the currents are constant along each closed line of edges
    and the drops are differences of vertex potentials.  The faulty
    variant leaks a current and breaks a drop."""
    dim = 2 if scheme == "triangular" else 3
    units = [tuple(int(i == a) for i in range(dim)) for a in range(dim)]
    offsets = sorted(units + ([(1,) * dim] if scheme == "triangular"
                              else []))
    sites = sorted(itertools.product(range(period), repeat=dim))
    edges = [(t, tuple((x + o) % period for x, o in zip(t, off)), off)
             for t in sites for off in offsets]

    def volts(site):
        return sum((a + 1) * x for a, x in enumerate(site)) / 8

    def flow(t, off):
        if sum(off) > 1:
            return (1 + (t[0] - t[1]) % period) / 16
        a = off.index(1)
        return (1 + sum(x for b, x in enumerate(t) if b != a)) / 4

    currents, drops = [], []
    for e, (t, h, off) in enumerate(edges):
        c, t, h = flow(t, off), list(t), list(h)
        drops.append([e, volts(h) - volts(t)])
        if e % 3 == 2:
            currents += [[[t, h], c / 2], [[h, t], -c / 2]]
        elif e % 2:
            currents.append([[h, t], -c])
        else:
            currents.append([[t, h], c])
    if faulty:
        currents.append([[list(edges[5][1]), list(edges[5][0])], 0.25])
        drops[7][1] += 0.75
    return {"dimension": dim, "ambient": dim,
            "generators": [list(u) for u in units],
            "index_box": [[0, period]] * dim, "scheme": scheme,
            "boundary_condition": "periodic",
            "currents": currents, "drops": drops}


# SHA-256 of the ``network`` report, json then text, for each lattice
# document: (scheme, period, faulty) -> (json digest, text digest).
LATTICE_NETWORK_SHA256 = {
    ("triangular", 4, False): (
        "a88bf3ce387b025483b84493af559f11450a85bcd615a787b000464aba15e1b9",
        "039226d3eeaa68b66fc2e2f0918c5929af2143bbe3955db6c5bfdce7ab460707"),
    ("triangular", 4, True): (
        "bd44a5b865f924840678fa25e7276bb4cb35237687e7f10eae3cdb994b4a3458",
        "b6fc65a0100c1d96d3e882aa63eebf8e7af9165ab1d9e57d073c52642ff42996"),
    ("cubic", 3, False): (
        "d310131cb34a03d4c60b3999f764962e1d7aef82068c54322d1336bf227738b4",
        "43f1e3c5f7d920270ab6376e8e6dfc16563ac4e8f90d4c88d74b080c2567867e"),
    ("cubic", 3, True): (
        "2e25ccbc80b9a645aad5dcccc4c130d9aeeea7a4826b9e335927e9c6c02a8120",
        "ca558b3ab977e962c600676848aaa17139d602929f1755279b9b792197ea8991"),
}


@pytest.mark.parametrize("key", sorted(LATTICE_NETWORK_SHA256))
def test_lattice_network_reports_are_byte_identical(capsys, tmp_path, key):
    path = write_doc(tmp_path, lattice_network_doc(*key))
    digests = []
    for mode in ("json", "text"):
        rc, out, _ = run(capsys, "network", path, "--report", mode)
        assert rc == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == LATTICE_NETWORK_SHA256[key]
    ok = not key[2]
    report = json.loads(run(capsys, "network", path, "--report", "json")[1])
    assert report["current_law"]["ok"] is ok
    assert report["potential"]["consistent"] is ok

# ---------------------------------------------------------------------------
# validation and exit codes
# ---------------------------------------------------------------------------

def test_missing_file(capsys):
    rc, _, err = run(capsys, "build", "/no/such/file.json")
    assert rc == 2
    assert "error:" in err


def test_malformed_json(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"dimension": [,]}')
    rc, _, err = run(capsys, "build", str(p))
    assert rc == 2
    assert "line" in err


def test_unknown_keys_are_rejected(capsys, tmp_path):
    doc = dict(TORUS_DOC, flavor="strange")
    rc, _, err = run(capsys, "build", write_doc(tmp_path, doc))
    assert rc == 2
    assert "flavor" in err


def test_misaddressed_defect_exits_2(capsys, tmp_path):
    doc = dict(TORUS_DOC, defects=[{"kind": "vacancy", "index": [9, 9]}])
    rc, _, err = run(capsys, "build", write_doc(tmp_path, doc))
    assert rc == 2
    assert "vacancy" in err


def test_hostile_index_box_exits_2_quickly(capsys, tmp_path):
    doc = dict(TORUS_DOC, index_box=[[0, 1000000], [0, 1000000]])
    start = time.perf_counter()
    rc, _, err = run(capsys, "build", write_doc(tmp_path, doc))
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert "sites" in err and "limit" in err


def test_closing_a_large_explicit_simplex_exits_2(capsys, tmp_path):
    # one 30-vertex simplex closes to 2^30 - 1 cells
    doc = {"complex": {"cells": [list(range(30))]}}
    rc, _, err = run(capsys, "build", write_doc(tmp_path, doc))
    assert rc == 2
    assert "limit of 200000 cells" in err


CUBE_DOC = dict(TORUS_DOC, dimension=3, ambient=3, scheme="cubic",
                generators=[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                index_box=[[0, 2], [0, 2], [0, 2]], boundary_condition="free")

FINE_SAMPLE = {"sphere_2": [0.0, 0.0, 1.0], "circle": 0.0, "torus": [0.0, 0.1],
               "projective_plane": [0.0, 0.0, 1.0]}

RING = {"cells": [["A", "B"], ["B", "C"], ["A", "C"]]}

# name -> (document, raw JSON text or raw bytes, text the error line must
# name[, subcommand if not build])
HOSTILE_DOCS = {
    "not-utf8": (b'{"scheme": "\xff"}', "is not UTF-8"),
    "top-level-list": ("[1, 2]", "top level must be a JSON object"),
    "missing-keys": ({"dimension": 2, "ambient": 2},
                     "document: missing keys: generators, index_box, scheme"),
    "defect-not-object": (dict(TORUS_DOC, defects=[[1, 1]]),
                          "defects[0]: each defect is an object with a 'kind'"),
    "defect-unknown-kind": (dict(TORUS_DOC, defects=[{"kind": "dislocation"}]),
                            "defects[0]: unknown defect kind 'dislocation'"),
    "defect-unknown-key": (dict(TORUS_DOC, defects=[
        {"kind": "vacancy", "index": [1, 1], "axis": 1}]),
        "defects[0]: unknown keys for vacancy: axis"),
    "defect-missing-key": (dict(CUBE_DOC, defects=[
        {"kind": "line_defect", "axis": 1}]),
        "defects[0]: missing keys for line_defect: transverse"),
    "boundary-unknown-name": (dict(TORUS_DOC, boundary_condition="twisted"),
                              "boundary_condition: unknown kind 'twisted'"),
    "boundary-object-without-kind": (
        dict(TORUS_DOC, boundary_condition={"axes": [1]}),
        "boundary_condition: unknown kind None"),
    "boundary-number": (dict(TORUS_DOC, boundary_condition=1),
                        "boundary_condition: expected a string or an object"),
    "complex-list": ({"complex": RING["cells"]},
                     "'complex' must be an object"),
    "complex-empty-cell": ({"complex": {"cells": [["A", "B"], []]}},
                           "complex.cells must be a nonempty list of "
                           "nonempty vertex lists"),
    "auto-close-string": ({"complex": dict(RING, auto_close="yes")},
                          "complex.auto_close must be a boolean"),
    "generators-object": (dict(TORUS_DOC, generators={"a": [1.0, 0.0]}),
                          "generators must be a list of coordinate lists"),
    "index-box-triple": (dict(TORUS_DOC, index_box=[[0, 1, 3], [0, 3]]),
                         "index_box must be a list of [lo, hi] pairs"),
    "removed-object": (dict(TORUS_DOC, removed_indices={"0": [1, 1]}),
                       "removed_indices must be a list of multi-indices"),
    "defects-object": (dict(TORUS_DOC, defects={"kind": "vacancy"}),
                       "defects must be a list"),
    "field-list": ({"complex": RING, "field": [["A", 0.0]]},
                   "'field' must be an object", "obstruct"),
    "field-labels-string": (
        {"complex": RING, "field": {"space": "finite_set", "labels": "ab",
                                    "samples": []}},
        "field.labels must be a list", "obstruct"),
    "field-samples-object": (
        {"complex": RING, "field": {"space": "circle", "samples": {"A": 0.0}}},
        "field.samples must be a list of [vertex, value] pairs", "obstruct"),
    "sample-triple": (
        {"complex": RING, "field": {"space": "circle",
                                    "samples": [["A", 0.0, 1.0]]}},
        "field.samples[0]: expected [vertex, value]", "obstruct"),
    "sample-twice": (
        {"complex": RING, "field": {"space": "circle", "samples": [
            ["A", 0.0], ["B", 0.0], ["A", 1.0]]}},
        "field.samples[2]: vertex 'A' sampled twice", "obstruct"),
    "network-without-data": ({"complex": RING},
                             "network needs 'currents' or 'drops' in the "
                             "document", "network"),
    "axes-string": (dict(TORUS_DOC, boundary_condition={
        "kind": "periodic", "axes": ["x"]}), "boundary_condition.axes[0]"),
    "axes-scalar": (dict(TORUS_DOC, boundary_condition={
        "kind": "periodic", "axes": 3}), "boundary_condition.axes"),
    "generator-string": (dict(TORUS_DOC, generators=[[1.0, "a"], [0.0, 1.0]]),
                         "generators[0][1]"),
    "generator-zero": (dict(TORUS_DOC, generators=[[1.0, 0.0], [0.0, 0.0]]),
                       "error: generator 2 is the zero vector\n"),
    "dimension-four": (dict(TORUS_DOC, dimension=4, ambient=4),
                       "error: lattice dimension must be 1, 2 or 3\n"),
    "ambient-below-dimension": (
        dict(CUBE_DOC, ambient=2),
        "error: ambient dimension 2 cannot hold 3 independent generators\n"),
    "index-box-short": (dict(TORUS_DOC, index_box=[[0, 3]]),
                        "error: index box needs 2 ranges, got 1\n"),
    "removed-index-short": (
        dict(TORUS_DOC, removed_indices=[[1, 1], [2]]),
        "error: removed index (2,) has wrong length\n"),
    "scheme-unknown": (dict(TORUS_DOC, scheme="hexagonal"),
                       "error: unknown cell scheme 'hexagonal'\n"),
    "line-defect-transverse-count": (dict(CUBE_DOC, defects=[
        {"kind": "line_defect", "axis": 1, "transverse": [1]}]),
        "error: line_defect needs 2 transverse coordinates\n"),
    "index-box-null": (dict(TORUS_DOC, index_box=[[0, None], [0, 3]]),
                       "index_box[0][1]"),
    "index-box-fraction": (dict(TORUS_DOC, index_box=[[0, 2.5], [0, 3]]),
                           "index_box[0][1]"),
    "removed-scalar": (dict(TORUS_DOC, removed_indices=[3]),
                       "removed_indices[0]"),
    "vacancy-index-scalar": (dict(TORUS_DOC, defects=[
        {"kind": "vacancy", "index": 3}]), "defects[0].index"),
    "line-axis-string": (dict(CUBE_DOC, defects=[
        {"kind": "line_defect", "axis": "3", "transverse": [1, 1]}]),
        "defects[0].axis"),
    "surface-coordinate-boolean": (dict(CUBE_DOC, defects=[
        {"kind": "surface_defect", "axis": 1, "coordinate": True}]),
        "defects[0].coordinate"),
    "surface-coordinate-string": (dict(CUBE_DOC, defects=[
        {"kind": "surface_defect", "axis": 1, "coordinate": "1"}]),
        "defects[0].coordinate"),
    "labels-nested-and-flat": ({"complex": {"cells": [[[1], 2]]}},
                               "complex.cells"),
    "labels-numbers-and-strings": (
        {"complex": {"cells": [[1, 2], ["a", "b"]]}}, "complex.cells"),
    "label-object": ({"complex": {"cells": [[{"a": 1}, 2]]}},
                     "complex.cells[0]"),
    "integer-past-digit-limit": ('{"dimension": ' + "1" * 5000 + "}",
                                 "unreadable JSON"),
    "nesting-too-deep": ("[" * 100_000 + "]" * 100_000, "unreadable JSON"),
    "sample-object": ({"complex": {"cells": [["A", "B"], ["B", "C"],
                                             ["A", "C"]]},
                       "field": {"space": "circle",
                                 "samples": [["A", {"x": 1}], ["B", 0.0],
                                             ["C", 1.0]]}},
                      "field", "obstruct"),
    "sample-boolean-angle": (
        {"complex": {"cells": [["A", "B"], ["B", "C"], ["A", "C"]]},
         "field": {"space": "circle",
                   "samples": [["A", True], ["B", 0.0], ["C", 1.0]]}},
        "field", "obstruct"),
    "sample-boolean-vector": (
        {"complex": {"cells": [["A", "B", "C"]]},
         "field": {"space": "sphere_2",
                   "samples": [["A", [True, False, False]],
                               ["B", [1.0, 0.0, 0.0]],
                               ["C", [1.0, 0.0, 0.0]]]}},
        "field", "obstruct"),
    **{f"current-{name}": (
        {"complex": {"cells": [["A", "B"], ["B", "C"], ["A", "C"]]},
         "currents": [[["A", "B"], 1.0], [["B", "C"], value]]},
        "currents[1]", "network")
       for name, value in [("nan-string", "nan"),
                           ("infinity-string", "Infinity"),
                           ("numeric-string", "0.5"), ("boolean", True)]},
    "drop-boolean": (
        {"complex": {"cells": [["A", "B"], ["B", "C"], ["A", "C"]]},
         "drops": [[0, False]]}, "drops[0]", "network"),
    "current-edge-boolean": (
        {"complex": {"cells": [["A", "B"], ["B", "C"], ["A", "C"]]},
         "currents": [[0, 1.0], [True, 1.0]]},
        "currents[1]: edge must be an id or a vertex pair", "network"),
    "drop-edge-boolean": (
        {"complex": {"cells": [["A", "B"], ["B", "C"], ["A", "C"]]},
         "drops": [[False, 1.0]]},
        "drops[0]: edge must be an id or a vertex pair", "network"),
    # two finite entries of one edge whose sum overflows to infinity
    **{f"{key}-summed-past-float-range": (
        {"complex": {"cells": [["A", "B"], ["B", "C"], ["A", "C"]]},
         key: [[1, 1.5e308], [["A", "C"], 1.5e308]]},
        "edge data: edge 1: value inf is not a finite number", "network")
       for key in ("currents", "drops")},
    # JSON's NaN and Infinity are numbers to the parser, not to a field
    **{f"sample-{space}-{name}": (
        dict(TORUS_DOC, field={"space": space, "samples": [
            [[i, j], value if (i, j) == (1, 1) else FINE_SAMPLE[space]]
            for i in range(3) for j in range(3)]}),
        "field: vertex (1, 1)", "obstruct")
       for space, name, value in [
           ("sphere_2", "nan", [math.nan, 0.0, 0.0]),
           ("circle", "nan-angle", math.nan),
           ("circle", "nan-vector", [math.nan, 0.0]),
           ("circle", "infinite-angle", math.inf),
           ("torus", "nan", [math.nan, 0.1]),
           ("projective_plane", "nan", [math.nan, 0.0, 0.0]),
           # numpy reads text as a number, and overflows on huge entries
           ("sphere_2", "text", ["1", "0", "0"]),
           ("sphere_2", "huge", [1e200, 0.0, 0.0])]},
}


@pytest.mark.parametrize("name", sorted(HOSTILE_DOCS))
def test_hostile_document_exits_2_with_reason(capsys, tmp_path, name):
    doc, field_name, *command = HOSTILE_DOCS[name]
    path = tmp_path / "doc.json"
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    rc, out, err = run(capsys, *(command or ["build"]), str(path))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and field_name in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name, reason", [
    ("sample-sphere_2-text", "expected numbers"),
    ("sample-sphere_2-huge", "vector norm inf is not 1")])
def test_refused_sample_prints_one_error_line(capsys, tmp_path, name,
                                              reason):
    doc, _, command = HOSTILE_DOCS[name]
    path = write_doc(tmp_path, doc)
    expected = f"error: field: vertex (1, 1): {reason}\n"
    # once with warnings as errors, once with every warning printed
    assert run(capsys, command, path) == (2, "", expected)
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        assert run(capsys, command, path) == (2, "", expected)


@pytest.fixture
def collector():
    """Restores the cyclic collector's setting after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def test_command_runs_with_the_collector_paused(capsys, monkeypatch,
                                                collector):
    seen = []

    def record(args, doc, cx, build_report):
        seen.append(gc.isenabled())
        return {}

    monkeypatch.setitem(cli.COMMANDS, "build", record)
    gc.enable()
    rc, out, _ = run(capsys, "build", "--report", "json",
                     str(SAMPLES / "mobius.json"))
    assert rc == 0 and json.loads(out)["command"] == "build"
    assert seen == [False]
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("outcome", ["exit-0", "exit-2", "raises",
                                     "parser-exit"])
def test_collector_setting_is_restored_on_every_exit(capsys, monkeypatch,
                                                     tmp_path, collector,
                                                     enabled, outcome):
    def crash(args, doc, cx, build_report):
        raise RuntimeError("unexpected")

    monkeypatch.setitem(cli.COMMANDS, "build", crash)
    doc, _, command = HOSTILE_DOCS["sample-sphere_2-text"]
    path = write_doc(tmp_path, doc)
    (gc.enable if enabled else gc.disable)()
    if outcome == "exit-0":
        assert run(capsys, "homology", str(SAMPLES / "mobius.json"))[0] == 0
    elif outcome == "exit-2":
        assert run(capsys, command, path)[0] == 2
    elif outcome == "raises":
        with pytest.raises(RuntimeError, match="unexpected"):
            main(["build", path])
    else:
        with pytest.raises(SystemExit):
            main(["--version"])
    assert gc.isenabled() is enabled


def test_negative_math_results_still_exit_zero(capsys):
    # a violated exactness check is a finding, not a tool failure
    rc, _, _ = run(capsys, "network", str(SAMPLES / "circle_network.json"))
    assert rc == 0


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# byte-identical sample reports
# ---------------------------------------------------------------------------

REPORT_ARGS = {
    "build": ["build"],
    "dump": ["build", "--dump-matrices"],
    "z": ["homology", "--ring", "z"],
    "z2": ["homology", "--ring", "z2"],
    "r": ["homology", "--ring", "r"],
    "generators": ["homology", "--generators"],
    "obstruct": ["obstruct"],
    "network": ["network"],
}

# SHA-256 of the ``--report json`` output for every sample document; a
# change to any of these is a change of the report contract.
SAMPLE_REPORT_SHA256 = {
    ("circle_network", "build"):
        "d8ba98fa5511b9dcaa1ef11b9fa9377f33d182b7bb99dadc0a8d6abf22d7cb01",
    ("circle_network", "dump"):
        "1b6ae1175ff837cc4dfd80fa7924339f609ed34cc648e6fa3054d7a004de8bb1",
    ("circle_network", "z"):
        "5d51deed7f7fba0e80ceaa4f976f421443223166334d0a6089ca2a320391f6dd",
    ("circle_network", "z2"):
        "99ef88c1b6fd1624db3448a5dfb5d32a04e90f0bce5a5668ff1d353c6df62363",
    ("circle_network", "r"):
        "5a53314fd4f99eae83ee150b17fe91a5b8e7f3247cbd6660ccf50a8d70b87fd9",
    ("circle_network", "generators"):
        "2a5888e48e6e3b14f5cc0c75d034d91c4431ed6a9faf3226b8f361a405631626",
    ("circle_network", "network"):
        "2eb16054bcdd22303216873e78815d429b1c8bd5186819f483eebfb7bb75f9ac",
    ("disc", "build"):
        "10ff6431ee331cd81a10f31273c9d183904061c42a6006e60c9eb07b9b751d85",
    ("disc", "dump"):
        "87376721fbe825ee8d990a98767e9344f3dbe75e646f1de8d0eed276f1ae100e",
    ("disc", "z"):
        "d4d702192d2f28caa99805df777e1516ecd112427935261676481d2f0122acc9",
    ("disc", "z2"):
        "d2c06d707ab0d715d8efa1e4710a201c52c0679fd7db26b09335d572db62ea26",
    ("disc", "r"):
        "62afa2f16d77e2362d051f0d1a5909dff24028eee364e51a5e26715b6a3e6bdc",
    ("disc", "generators"):
        "0183e2c5063bd2c3e4f366ec7106d4879cf86e76356f5b6ca74d2b9d1801f507",
    ("mobius", "build"):
        "df6c9ec07a76a6fd893d6cb756b7673d06ee383126a8f6c1ab55c32fc1ef81e8",
    ("mobius", "dump"):
        "e989d7be7db95fee22127b3f2e37a9b111cc50570bced3322216b1771d69ba0f",
    ("mobius", "z"):
        "94219f40e39adb5c1c4b7c52c3f75b1a0f6332683d8ec93a70bf085665530b5b",
    ("mobius", "z2"):
        "f6feface6e8e1572229850899a010d73545bd04395980f9c1e832971ab06c9e0",
    ("mobius", "r"):
        "1a2167310c3a5808ca4848abb6811577cdbd79786f7c823929769afda292cf47",
    ("mobius", "generators"):
        "334dbfb524958ce0ac0f0025054d252d249e34226f3b47c57d7653c17df2219f",
    ("punctured_grid", "build"):
        "ac6618a062fe1304357bcc45f0614001fe6fc680d2941cb3cc17c0a2dec0f89b",
    ("punctured_grid", "dump"):
        "a6d93e4a13b414cdb0eaeb33b6146c352812ee21c006575109e5246500910afd",
    ("punctured_grid", "z"):
        "fe2502020d065aa93ad6a89305d6e5d4556e48b4694bf4a23e0976b7451d1f58",
    ("punctured_grid", "z2"):
        "d2e2def6528ddba1624779406eb4c9b035fe05b661bdee11369a14fd17b4a471",
    ("punctured_grid", "r"):
        "703f52fd066999b9475dbfd4bc9f66744b75b9192ac3673aafbd7c36af47be03",
    ("punctured_grid", "generators"):
        "32211543f7d8793c7224dd7e2eab47c465e0f2bf9f0136894ea232c16d0f0c67",
    ("sphere_vortex_pair", "build"):
        "b2bbd40b5104ea6fb6eabf25ea0428faf61b1d8d99d7df3ca66bf0ecd22b55f6",
    ("sphere_vortex_pair", "dump"):
        "4bbd15582bdb07cfe7994e5b3656f9c6406520a3c46a569e8ae1213858a9f111",
    ("sphere_vortex_pair", "z"):
        "25fcc98df1d1f870e08821eb0c56184798e1a0bb92b00137c41babbcd86dec0b",
    ("sphere_vortex_pair", "z2"):
        "fc5b2e42650d9a762d299e07ac44b3d12483b011de7effb78b9c94f9e8dd7de1",
    ("sphere_vortex_pair", "r"):
        "f915331911f0e0be631e14a154236cbe3b60b952fcbc1b7e2f25ab64246c194d",
    ("sphere_vortex_pair", "generators"):
        "d860633d7a32ed0f62db056d26b88597730609954b3f31254e4ff9d917a8233c",
    ("sphere_vortex_pair", "obstruct"):
        "4842cc110dfc9ae81c966721a82896ad12a466c5125135077e0fdf84c53dfccd",
    ("spin_interface", "build"):
        "d3dd022bf8c69e4ebd6bb456512375e04da05e2cf1a46989d9b5d2ed36c27e50",
    ("spin_interface", "dump"):
        "12b4c690c5d1475df7068d214e302ccbabd09ec5d018ff4430a7ab3f5b1126dc",
    ("spin_interface", "z"):
        "f5a53784d657a509e1cb27115af543f424b0eecd492660f615c3cac1628d2df1",
    ("spin_interface", "z2"):
        "8c8cb629c18b04c4b5d518aeb144c72abf6e240389aa9bd49d734e96ba4cc421",
    ("spin_interface", "r"):
        "8ab32edb1d0abd41e896288280b6c38203bfbf04d97ac51b7c217d9933b2bdd1",
    ("spin_interface", "generators"):
        "8a30a56999ba5eb3e9b588e7bf917c61b98ba7f0c9e63b8dada02d0ed96c844b",
    ("spin_interface", "obstruct"):
        "a590867bb3958c8bd97fd5773a5d2e8aea67d00e84d2742c0ed4c4c714eeccd2",
    ("tetrahedron", "build"):
        "3f6a55f57557df73da0430c8eb1032953ec0ebf947ed832fd47774b097c3c744",
    ("tetrahedron", "dump"):
        "f78042055148d1593f0b34e7151e2904b7f41c084d99e6ccff2e5032bb466437",
    ("tetrahedron", "z"):
        "1bcf152a08f2d76f6572b022a57c216ffbdb0eabaf0e63466c08c7be5e5bcfea",
    ("tetrahedron", "z2"):
        "678018a71bcaa558e06f8dfce61fd114fa0a361adaf142cfde1a1d0494a29c85",
    ("tetrahedron", "r"):
        "1e1f91bbcaa7e17becb01b52381c7588e5fa2ac4c0c39cbdbf22b6d02898cc1d",
    ("tetrahedron", "generators"):
        "1b8f0dde9cf46534c0b6782ee62aabe18800a4c33a17f7f842e47765e0d16ac1",
    ("torus", "build"):
        "20481b15db5c968eaa016fd4e95c08e45ebdbf9ae5638bfa74f07eecc1e9a6c8",
    ("torus", "dump"):
        "6e91919a9a53de7e69354663643a5e6cbf104b59fcc4381ba7f05b2fc3953d3c",
    ("torus", "z"):
        "aed1f196ff2f07f70cf7e7dc274c4f0989076da1239cd44b31dec9b3bf515dfb",
    ("torus", "z2"):
        "7b35d12789066bbe0027401b08d91c313a80640fa7a67cc0d797bc6b0aa7bafd",
    ("torus", "r"):
        "9f96cea12af995d87b89b50fb689aef99c9b3c20b3a02b46ae0d3faab12fd583",
    ("torus", "generators"):
        "592887b8eccf58af4de1e45739d38ecac80c1cec1591c66788609331b3a07e48",
    ("vortex_line", "build"):
        "01c4a4f9400fa2b7450c5569d5fc84d4299e6268cd7ee8d2265c5cbeea89d13b",
    ("vortex_line", "dump"):
        "aaec2e771384d9f286afff30264ea965b96ad8e34f0c6de971184b8041ee1ce8",
    ("vortex_line", "z"):
        "5547eb75ef8abce51cb3475fecc4ba887bfa5e0a66541a03b6195629c07ae773",
    ("vortex_line", "z2"):
        "6a75d7dd961c0fcde25bfe49a7c354dfa0fac99b3029dc9425d70469ab272f90",
    ("vortex_line", "r"):
        "7dba29e06ceb3591693980dd28121bae887b5984b4c06cf31452e1d46ee18ba7",
    ("vortex_line", "generators"):
        "0c1744b4416f037278b40c1d343203dc3e535280c22af13e8e9277fca264cf2f",
    ("vortex_line", "obstruct"):
        "e7d3a8045005fe2cd55e956484864f333a7abf8cd3a95e8bbba1d970e55a681d",
}


@pytest.mark.parametrize("sample,command", sorted(SAMPLE_REPORT_SHA256))
def test_sample_reports_are_byte_identical(capsys, sample, command):
    cmd, *flags = REPORT_ARGS[command]
    rc, out, _ = run(capsys, cmd, str(SAMPLES / f"{sample}.json"), *flags,
                     "--report", "json")
    assert rc == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == SAMPLE_REPORT_SHA256[(sample, command)]


# SHA-256 of the ``--report text`` output for the same sample x command
# grid; the text renderer is part of the report contract too.
SAMPLE_TEXT_SHA256 = {
    ("circle_network", "build"):
        "850448198dbf9020b727073b08c4546e2ed848c1bc4e94901cd6c88526fb5fd3",
    ("circle_network", "dump"):
        "a26310083be5938b86de83354707bfb68a48a7d7f1aa1ce5777b84d28756e9d5",
    ("circle_network", "generators"):
        "0fa769c48dbb8916db309bcc80644feaebd28d318f9fae7701783aba77f158d9",
    ("circle_network", "network"):
        "34b5e5ea37c7847d3276d2493b6c0a92632984c2b5fa44fd538a1b0a4d9500c7",
    ("circle_network", "r"):
        "d2050bfdb746c6727b6fdfbfa10f3c193918e7e8b8aaf40caf80161f43df49b4",
    ("circle_network", "z"):
        "af528d1151bc6198bb0cef88f6a7782b55ed416d34fda290b2a29ed02555847f",
    ("circle_network", "z2"):
        "8f512ce7c5cbeced15b4b3b0100f8adec6ab7284600b04caa528306a4e6004fc",
    ("disc", "build"):
        "4857a1b7e8943eb0f25a7c2186967bc2aeaa388510792d6b2eebe7c1eb465c8b",
    ("disc", "dump"):
        "b5bf249156ffe6774f2dee66fa2290612bb0002aa0d94b4e1e3bf4159fa97181",
    ("disc", "generators"):
        "2d881584d758dec1bc5246296f6eb1d1347007fa8ab76501b51019a01806bdc8",
    ("disc", "r"):
        "dbcd6767ee9631f76d3b3e1e0b8209c19d883907c2653cbdf93c765ccd8e2d57",
    ("disc", "z"):
        "c910789a96ece64a6a1396721ce6a6a46309f7ab87429b03eee0471d31066be6",
    ("disc", "z2"):
        "69389131ae07cc858e1392a6b87c5267d76e491878f20da963cf25ba147e1410",
    ("mobius", "build"):
        "0bc36f36d016a0bb893aa07278af9369e1b777f89004ab0e3bf746f54d8f9de8",
    ("mobius", "dump"):
        "2ba0352035dec3bf898503d50f4e27f49641fc98bf512c63ef7129eaa355d7ca",
    ("mobius", "generators"):
        "bcf129d2b94673df4059b0b0f7ef0cf3120af93b87434028ad49410badf5b7d9",
    ("mobius", "r"):
        "71230d4d6632358b6a6ef2626fe8cc27dcc39b4bc00229e2d265cb9f3b197b79",
    ("mobius", "z"):
        "5838fbd31bf2f4a57aa7fe50710c062177a154224ab89682a7a199699cf2cb14",
    ("mobius", "z2"):
        "8f3f5844495aed213deeced7a1536cc653e6496de593225d3a979d049408af7f",
    ("punctured_grid", "build"):
        "fe19bf10c155a70eb4bdf65fdc4f58e9a691259ad364166a6bd98e750aec6873",
    ("punctured_grid", "dump"):
        "e246207249d2aee2ac399b6f621b22b09a163ab6f0511d3c1367e9a4a6fcc0c2",
    ("punctured_grid", "generators"):
        "ca8996db1994e59480e083e3abd6f60be26590dfdb5df5bbebe08432568bdd10",
    ("punctured_grid", "r"):
        "6cf0d741a3af3dd8d608dd1bcb323ad3a3d899b8390d080882aa09d6119a78a3",
    ("punctured_grid", "z"):
        "71a83483c8ebd6e9ba49c58056a0eef8a0dce40e8105b7464320c8433905442c",
    ("punctured_grid", "z2"):
        "c34efe449a1d0aa4ebc95b7826eeab7fc0908f8f35b12c57476c80a96cccb914",
    ("sphere_vortex_pair", "build"):
        "14ce63a00a0d21ce26b903ff4f4c3a79b393931f93b0509eba0d51634820dd3c",
    ("sphere_vortex_pair", "dump"):
        "1e3af810ca9bdf32d8a9a0aea2d0f8f4a117e0a44af378434beec8b4ab032b9b",
    ("sphere_vortex_pair", "generators"):
        "26afab2099bedc6f600f04465de6f24cab76609eb35516f238311c129ee8b9da",
    ("sphere_vortex_pair", "obstruct"):
        "c63eb85e9633c757f858bf225df0c2958e92c35ac7c66f6f0e8e03dfaaf9be53",
    ("sphere_vortex_pair", "r"):
        "939a0211fcc189329f999775c1d54f04e134ad35a60e95aa25b6b78477624d9a",
    ("sphere_vortex_pair", "z"):
        "19f9924ae74f1662dab049ccbbbca6e1a670410bbc4813b1189f653e021543e1",
    ("sphere_vortex_pair", "z2"):
        "8edf0814df695bacc86a329ab22c89d974fb907cf050b474caeeb7578646e503",
    ("spin_interface", "build"):
        "eea355b9b771d74a7fa1b3f6a53eb430c37ece6eae3477bb00c4e7ccdcdd8782",
    ("spin_interface", "dump"):
        "fb82210d699558e03e99812747db6904a81910f1d479932392f4766d083a2fbb",
    ("spin_interface", "generators"):
        "92b5459d0284f62a73f75a3f5a2fa861f8d730b9b69bab08312e27dac89579eb",
    ("spin_interface", "obstruct"):
        "1e33ff3693d32742b8204ce3c610e52f0fd710365a2c6e1fc89871477ddc5557",
    ("spin_interface", "r"):
        "2c0ee6a686f59cf3bfae9030b414fc8634ec3c23009b2f6a0569448be7486b16",
    ("spin_interface", "z"):
        "688f2a3876cae1e062e8da81636032720de4f892066b42c814f2dd9bb2bec6de",
    ("spin_interface", "z2"):
        "d5cb2dde73edf62225852379d80009d9b8f8dc7084ed3a8659f6b4539e8e28df",
    ("tetrahedron", "build"):
        "091837498393f44c7e580018cac20960b0786d6bbb45682da04774daa65d4539",
    ("tetrahedron", "dump"):
        "3ba9a610ea25be57695778218aae7bb06f0c44e20d148ee49aa3f416319580e2",
    ("tetrahedron", "generators"):
        "57db9ed64f3e8d0bd82bfa3d1325a0ffc98bcc869e9db4247c56cf899f6b39c0",
    ("tetrahedron", "r"):
        "c8cef88d778fa072100992dbba3024311dee3835e98ef3066f10347a2755bf98",
    ("tetrahedron", "z"):
        "97c1c4b553ade9ac510840a8d1cfd6f4f8136a946b75bf5101317d899002878f",
    ("tetrahedron", "z2"):
        "7413e69dfaa789728711890ea7caf3b0befde33b82df3b121cff81af0a2ce7a2",
    ("torus", "build"):
        "80dd809165bae862c684a62c041f8fd18ab1db3ccba406ad5b86ce64270b3f10",
    ("torus", "dump"):
        "afc8e413cba0f5d2b5de67879b218cfbb14aa776ac050c71240ee233557281a6",
    ("torus", "generators"):
        "baf0c75e9945e6f872ebbd28b77502d4d1955da5bc185ac55dbe37efad99b2d6",
    ("torus", "r"):
        "c5696fb43d302fd8cd82c00c7153391c18f5d06fb5dbe1aab84c2fb8e85501a3",
    ("torus", "z"):
        "a3cd727dcd18dc82a571298bde82190ca11b43451e4aa76ac81a57db27368da5",
    ("torus", "z2"):
        "c0ab8a05762cc0f5f46749cad4d442a9f70b709c87b7d9aac4c4e228435c684e",
    ("vortex_line", "build"):
        "b9d378ddae235863d296efe330c364290892bd7f9dd01b6ae51895433c867108",
    ("vortex_line", "dump"):
        "c9e9b6b63296a8e385a864f7689c9827c470a5034a29d018de3242a5ed400e24",
    ("vortex_line", "generators"):
        "8cbf2519e7c42886edbc8f1cb8bbd1da446348e31c05fdd5b5d6cc86231f394b",
    ("vortex_line", "obstruct"):
        "9ec89b7c4fd3d444fd72f71608d663aad17cd685f4c74750c7320d6f857c8556",
    ("vortex_line", "r"):
        "569861602765d255eb9445dfeaa185d1844246aba1cb72ad427e798be1f11eb2",
    ("vortex_line", "z"):
        "208c142b322249fecb3fff46a1b36dbd647804d5d6f33024228ba741dea9928a",
    ("vortex_line", "z2"):
        "e6b4f70add03807e157483cecbaf5aca4fe55a5fae37f94085cd492dfa8a5dd7",
}


@pytest.mark.parametrize("sample,command", sorted(SAMPLE_TEXT_SHA256))
def test_sample_text_reports_are_byte_identical(capsys, sample, command):
    cmd, *flags = REPORT_ARGS[command]
    rc, out, _ = run(capsys, cmd, str(SAMPLES / f"{sample}.json"), *flags,
                     "--report", "text")
    assert rc == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == SAMPLE_TEXT_SHA256[(sample, command)]


def test_every_sample_has_pinned_reports():
    pinned = {sample for sample, _ in SAMPLE_REPORT_SHA256}
    assert pinned == {p.stem for p in SAMPLES.glob("*.json")}
    assert set(SAMPLE_TEXT_SHA256) == set(SAMPLE_REPORT_SHA256)
