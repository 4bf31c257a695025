"""Array-backed cell storage: the build against a per-site reference, the
``Cell`` view, refusals, and that lattice jobs never create a ``Cell``."""

import json
import re
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crystaltopo.cli import main
from crystaltopo.complexes import (
    Cell,
    CellLayer,
    Chain,
    DeltaComplex,
    SHAPE_CUBE,
    SHAPE_SIMPLEX,
    _cell_templates,
    boundary_columns,
    boundary_map,
    validate_complex,
)
from crystaltopo.errors import (
    ComplexBuildError,
    DefectLocusError,
    UnsupportedConfigurationError,
)
from crystaltopo.homology import orientability, vertex_components
from crystaltopo.lattice import (
    DefectSpec,
    LatticeSpec,
    build_lattice_complex,
)

from oracles import (
    SampleRefused,
    box_points,
    components_oracle,
    constant_boundary_oracle,
    grid_cells_oracle,
    lattice_sites_oracle,
    square_failures_oracle,
    torus_site,
)


def _as_tuples(cx):
    return [[(c.vertices, c.faces, c.shape) for c in layer]
            for layer in cx.cells]


# ---------------------------------------------------------------------------
# lattice builds against the per-site reference
# ---------------------------------------------------------------------------

@st.composite
def lattice_specs(draw):
    m = draw(st.integers(1, 3))
    scheme = draw(st.sampled_from(["triangular", "cubic"]))
    boundary = draw(st.sampled_from(["free", "constant", "periodic"]))
    top = 2 if m == 3 else 3
    box = tuple((lo, lo + draw(st.integers(1, top)))
                for lo in draw(st.lists(st.sampled_from([-1, 0, 2]),
                                        min_size=m, max_size=m)))
    axes = ()
    if boundary == "periodic":
        # a subset of the axes; period-1 and period-2 axes come from the
        # box extents 1 and 2
        axes = tuple(a + 1 for a in range(m) if draw(st.booleans()))
    sites = box_points(box)
    removed = draw(st.lists(st.sampled_from(sites), max_size=2, unique=True))
    defects = [DefectSpec("vacancy", index=v) for v in
               draw(st.lists(st.sampled_from(sites), max_size=2, unique=True))]
    if m > 1 and draw(st.booleans()):
        axis = draw(st.integers(1, m))
        site = draw(st.sampled_from(sites))
        defects.append(DefectSpec(
            "line_defect", axis=axis,
            transverse=tuple(c for a, c in enumerate(site) if a != axis - 1)))
    gens = tuple(tuple(float(i == j) for j in range(m)) for i in range(m))
    return LatticeSpec(dimension=m, ambient=m, generators=gens,
                       index_box=box, scheme=scheme, boundary=boundary,
                       periodic_axes=axes, removed_indices=tuple(removed),
                       defects=tuple(defects))


def _reference(spec):
    """Sites of the spec, then the per-site build and, for a constant
    boundary, the per-cell collapse."""
    box = spec.index_box
    axes = ()
    if spec.boundary == "periodic":
        axes = tuple(a - 1 for a in spec.periodic_axes) or tuple(
            range(len(box)))
    points, _, _ = lattice_sites_oracle(
        box, axes, spec.removed_indices, spec.defects)
    sites = {torus_site(p, box, axes) for p in points}
    shape = SHAPE_CUBE if spec.scheme == "cubic" else SHAPE_SIMPLEX
    labels, layers = grid_cells_oracle(
        sites, _cell_templates(spec.scheme, len(box))[0], shape, box,
        axes)
    if spec.boundary == "constant":
        labels, layers = constant_boundary_oracle(labels, layers, box)
    while len(layers) > 1 and not layers[-1]:
        layers.pop()
    return labels, layers


@settings(max_examples=300, deadline=None)
@given(lattice_specs())
def test_every_degree_matches_the_per_site_build(spec):
    try:
        labels, layers = _reference(spec)
    except SampleRefused as exc:
        error = DefectLocusError if exc.locus else ComplexBuildError
        with pytest.raises(error, match=re.escape(str(exc))):
            build_lattice_complex(spec)
        return
    cx, report = build_lattice_complex(spec)
    assert list(cx.vertex_labels) == labels
    assert _as_tuples(cx) == layers
    assert report["cells"] == [len(layer) for layer in layers]
    assert validate_complex(cx).ok


def test_free_box_with_a_far_offset_builds():
    # labels far from the origin keep their exact integers
    base = 10 ** 30
    cx, _ = build_lattice_complex(LatticeSpec(
        dimension=2, ambient=2, generators=((1.0, 0.0), (0.0, 1.0)),
        index_box=((base, base + 2), (0, 2)), scheme="cubic"))
    assert cx.vertex_labels[0] == (base, 0)
    assert cx.cell_counts() == [9, 12, 4]


@pytest.mark.parametrize("base", [10 ** 30, -10 ** 30, 2 ** 63 - 2])
def test_constant_box_with_a_far_offset_matches_the_box_at_0(base):
    # beyond int64 the hull and the vertex order are worked out on exact
    # integers; shifting the box shifts every label and nothing else
    def build(shift):
        return build_lattice_complex(LatticeSpec(
            dimension=2, ambient=2, generators=((1.0, 0.0), (0.0, 1.0)),
            index_box=((shift, shift + 3), (0, 4)), scheme="triangular",
            boundary="constant",
            defects=(DefectSpec("vacancy", index=(shift + 1, 2)),)))[0]
    far, near = build(base), build(0)
    assert list(far.vertex_labels) == [(x + base, y)
                                       for x, y in near.vertex_labels]
    assert far.vertex_labels[0] == (base - 1, -1)
    assert _as_tuples(far) == _as_tuples(near)


# ---------------------------------------------------------------------------
# explicit cells: the view, the readers and the refusals
# ---------------------------------------------------------------------------

@st.composite
def ragged_complexes(draw):
    """Hand-built cells: any vertex count (repeats allowed), any faces
    one degree down (repeats and zero coefficients allowed), coefficients
    up to the int64 limits, both shapes; the 0-cells are the vertices in
    any order, or any vertex tuples at all."""
    n = draw(st.integers(1, 5))
    coeff = st.one_of(st.integers(-3, 3),
                      st.integers(-(2 ** 63), 2 ** 63 - 1))
    points = draw(st.one_of(
        st.permutations(range(n)).map(lambda p: [(v,) for v in p]),
        st.lists(st.lists(st.integers(0, n - 1), min_size=1,
                          max_size=2).map(tuple), min_size=1, max_size=5)))
    layers = [[Cell(p, (), draw(st.sampled_from([SHAPE_SIMPLEX,
                                                 SHAPE_CUBE])))
               for p in points]]
    for _ in range(draw(st.integers(0, 3))):
        below = len(layers[-1])
        face = st.tuples(st.integers(0, below - 1), coeff) if below \
            else st.nothing()
        layers.append([
            Cell(tuple(draw(st.lists(st.integers(0, n - 1), min_size=1,
                                     max_size=5))),
                 tuple(draw(st.lists(face, max_size=5 if below else 0))),
                 draw(st.sampled_from([SHAPE_SIMPLEX, SHAPE_CUBE])))
            for _ in range(draw(st.integers(0, 4)))])
    return [f"v{i}" for i in range(n)], layers


@settings(max_examples=200, deadline=None)
@given(ragged_complexes())
# an edge joining A and C by its faces and its vertex tuple, with the
# 0-cells of B and C swapped; two 0-cells on one vertex joined by an edge
@example((["A", "B", "C"], [[Cell((0,), ()), Cell((2,), ()), Cell((1,), ())],
                            [Cell((0, 2), ((0, -1), (1, 1)))]]))
@example((["A"], [[Cell((0,), ()), Cell((0,), ())],
                  [Cell((0, 0), ((0, -1), (1, 1)))]]))
def test_ragged_cells_round_trip_and_read_alike(case):
    labels, cells = case
    cx = DeltaComplex(labels, cells)
    trimmed = [tuple(layer) for layer in cells]
    while len(trimmed) > 1 and not trimmed[-1]:
        trimmed.pop()
    assert cx.cells == tuple(trimmed)
    assert cx.cell_counts() == [len(layer) for layer in trimmed]
    assert [cx.cell(k, i) for k, layer in enumerate(trimmed)
            for i in range(len(layer))] == [c for layer in trimmed
                                             for c in layer]
    # the same complex straight from its arrays
    again = DeltaComplex.from_layers(labels, cx.layers)
    assert again.cells == cx.cells
    tuples = [[(c.vertices, c.faces, c.shape) for c in layer]
              for layer in trimmed]
    failures = square_failures_oracle(tuples)
    assert list(validate_complex(cx).boundary_failures) == failures
    for k in range(1, cx.dim + 1):
        columns = []
        for c in trimmed[k]:
            col = {}
            for fid, v in c.faces:
                col[fid] = col.get(fid, 0) + v
            columns.append({f: v for f, v in col.items() if v})
        assert boundary_columns(cx, k) == columns
        ones = boundary_map(
            Chain(k, {i: 1 for i in range(len(trimmed[k]))}), cx)
        assert ones.coeffs == {f: v for f, v in
                               _summed(trimmed[k]).items() if v}
    if cx.dim >= 1:
        # an edge joins the vertices of its face with coefficient -1 and
        # its face with +1; 0-cells that are not the vertices one each, or
        # else the first edge with any other faces, are refused
        vertex = [c.vertices[0] for c in trimmed[0]]
        if sorted(len(c.vertices) for c in trimmed[0]) != [1] * len(labels) \
                or sorted(vertex) != list(range(len(labels))):
            with pytest.raises(UnsupportedConfigurationError, match=(
                    "^the 0-cells are not the vertices, one each$")):
                vertex_components(cx)
            return
        ends = [sorted(c.faces, key=lambda f: f[1]) for c in trimmed[1]]
        odd = [i for i, f in enumerate(ends) if [v for _, v in f] != [-1, 1]]
        if odd:
            with pytest.raises(UnsupportedConfigurationError,
                               match=f"^edge {odd[0]} is not a graph edge"):
                vertex_components(cx)
            return
        seen = components_oracle(len(labels), [(vertex[t[0]], vertex[h[0]])
                                               for t, h in ends])
        comp = vertex_components(cx)
        assert all((comp[a] == comp[b]) == (seen[a] == seen[b])
                   for a in range(len(labels)) for b in range(len(labels)))


def _summed(cells):
    out = {}
    for c in cells:
        for fid, v in c.faces:
            out[fid] = out.get(fid, 0) + v
    return out


def test_views_are_read_only():
    cx = DeltaComplex.from_simplices([("A", "B", "C")])
    assert isinstance(cx.cells, tuple)
    assert cx.cells is cx.cells
    for layer in cx.layers:
        assert isinstance(layer, CellLayer)
        with pytest.raises(ValueError):
            layer.faces[:1] = 7


@pytest.mark.parametrize("scheme", ["cubic", "triangular"])
def test_cell_templates_are_built_once_and_read_only(scheme):
    # one cached result per scheme and dimension, shared by every build,
    # so no part of it may be mutable
    def frozen(x):
        return not isinstance(x, (list, dict, set)) and (
            not isinstance(x, tuple) or all(map(frozen, x)))

    for m in (1, 2, 3):
        templates = _cell_templates(scheme, m)
        assert templates is _cell_templates(scheme, m)
        assert isinstance(templates, tuple) and frozen(templates)
        # the arrays the grid build reads: the unit offsets, then per degree
        # the corners and each face's anchor position, template and sign
        shapes, unit, arrays = templates
        assert unit.tolist() == [list(u) for u in product((0, 1), repeat=m)]
        assert len(arrays) == len(shapes) == m
        for degree, (corners, at, below, sign) in zip(shapes, arrays):
            assert corners.tolist() == [
                [unit.tolist().index(list(c)) for c in offsets]
                for offsets, _ in degree]
            assert [list(zip(*f)) for f in zip(at.tolist(), below.tolist(),
                                               sign.tolist())] == [
                list(faces) for _, faces in degree]
        for a in (unit, *(a for row in arrays for a in row)):
            assert not a.flags.writeable


@pytest.mark.parametrize("cells, match", [
    ([[Cell((0,), ())], [Cell((0,), ((0, 2 ** 63),))]],
     "face coefficients must be integers within int64"),
    ([[Cell((0,), ())], [Cell((0,), ((0, -(2 ** 63) - 1),))]],
     "face coefficients must be integers within int64"),
    ([[Cell((0,), ())], [Cell((0,), ((0, 1.0),))]],
     "face coefficients must be integers"),
    ([[Cell((0,), ())], [Cell((0,), ((1, 1),))]],
     r"a 1-cell names a 0-cell id outside 0\.\.0"),
    ([[Cell((0,), ())], [Cell((0,), ((-1, 1),))]],
     "a 1-cell names a 0-cell id"),
    ([[Cell((0,), ((0, 1),))]], r"a 0-cell names a -1-cell id"),
    ([[Cell((3,), ())]], r"a 0-cell names a vertex id outside 0\.\.0"),
    ([[Cell((), ())]], "a 0-cell has no vertices"),
    ([[Cell((0,), (), "hexagon")]], "cell shapes must be among"),
    ([[Cell((0,), ())], [Cell((0,), ((0,),))]],
     r"faces must be \(face id, coefficient\) pairs"),
])
def test_hand_built_cells_are_checked(cells, match):
    with pytest.raises(ComplexBuildError, match=match):
        DeltaComplex(["a"], cells)


def test_int64_extremes_are_kept_exactly():
    big = 2 ** 63 - 1
    cells = [[Cell((0,), ()), Cell((1,), ())],
             [Cell((0, 1), ((1, big), (0, -big))),
              Cell((0, 1), ((1, big), (0, -big)))],
             [Cell((0, 1), ((0, big), (1, -big)))]]
    cx = DeltaComplex("AB", cells)
    assert cx.cells == tuple(map(tuple, cells))
    # the sums overflow int64: the check runs on Python integers and sees
    # big * big - big * big = 0 on each vertex
    assert validate_complex(cx).ok
    cells[2] = [Cell((0, 1), ((0, big), (1, big)))]
    assert validate_complex(DeltaComplex("AB", cells)).boundary_failures \
        == ((2, 0),)
    # 2^32 * 2^32 wraps to 0 in int64; the boundary of the boundary is not 0
    wrap = [[Cell((0,), ())], [Cell((0,), ((0, 2 ** 32),))],
            [Cell((0,), ((0, 2 ** 32),))]]
    assert validate_complex(DeltaComplex("A", wrap)).boundary_failures \
        == ((2, 0),)


def test_a_cell_wrapping_two_faces_twice_is_not_orientable():
    # each loop meets the one 2-cell once with coefficient +-2: the two
    # entries cancel in sign but sit on different faces
    cells = [[Cell((0,), ())], [Cell((0,), ()), Cell((0,), ())],
             [Cell((0,), ((0, 2), (1, -2)))]]
    report = orientability(DeltaComplex("A", cells))
    assert not report.orientable
    assert report.reason == "no consistent orientation of the top cells exists"


# ---------------------------------------------------------------------------
# lattice jobs create no Cell
# ---------------------------------------------------------------------------

def _hedgehog_doc():
    sites = box_points(((0, 3), (0, 3), (0, 3)))
    samples = []
    for p in sites:
        v = np.array(p, dtype=float) - 1.5
        samples.append([list(p), (v / np.linalg.norm(v)).tolist()])
    return {"dimension": 3, "ambient": 3,
            "generators": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                           [0.0, 0.0, 1.0]],
            "index_box": [[0, 3], [0, 3], [0, 3]], "scheme": "cubic",
            "field": {"space": "sphere_2", "samples": samples}}


def _network_doc():
    return {"dimension": 2, "ambient": 2,
            "generators": [[1.0, 0.0], [0.0, 1.0]],
            "index_box": [[0, 4], [0, 4]], "scheme": "triangular",
            "boundary_condition": "periodic",
            "defects": [{"kind": "vacancy", "index": [1, 1]}],
            "currents": [[[[0, 0], [1, 0]], 1.0], [[[1, 0], [2, 0]], 1.0]],
            "drops": [[0, 0.5], [3, 0.25]]}


SAMPLES = "docs/samples"


@pytest.fixture
def no_cells(monkeypatch):
    made = []
    real = Cell.__init__

    def spy(self, *args, **kwargs):
        made.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Cell, "__init__", spy)
    yield made


def test_the_spy_sees_cells(no_cells):
    DeltaComplex.from_simplices([("A", "B")]).cells
    assert no_cells


def test_lattice_jobs_create_no_cell(no_cells, tmp_path, capsys):
    from pathlib import Path
    samples = Path(__file__).resolve().parents[1] / SAMPLES
    hedgehog = tmp_path / "hedgehog.json"
    hedgehog.write_text(json.dumps(_hedgehog_doc()))
    network = tmp_path / "network.json"
    network.write_text(json.dumps(_network_doc()))
    runs = [
        ["build", "--dump-matrices", network],
        ["build", samples / "sphere_vortex_pair.json"],
        ["homology", "--generators", samples / "torus.json"],
        ["homology", "--ring", "z2", network],
        ["homology", "--generators", samples / "punctured_grid.json"],
        ["network", network],
        ["obstruct", hedgehog],
        ["obstruct", samples / "sphere_vortex_pair.json"],
        ["obstruct", samples / "spin_interface.json"],
    ]
    for argv in runs:
        assert main([str(a) for a in argv] + ["--report", "json"]) == 0
        capsys.readouterr()
        assert no_cells == [], argv


# Edges of every kind: graph edges either way round and a period-1 loop,
# then faces that are no tail and head: unit coefficients of one sign,
# a coefficient of 2, one face, none, and three.
EDGE_FACES = [((0, -1), (1, 1)), ((1, 1), (2, -1)), ((0, -1), (0, 1)),
              ((2, 1), (1, -1)), ((1, -1), (2, -1)), ((1, 2), (2, -2)),
              ((1, 1),), (), ((0, -1), (1, 1), (2, 1))]
MIXED_EDGES = DeltaComplex("ABC", [
    [Cell((v,), ()) for v in range(3)],
    [Cell((0, 1), faces) for faces in EDGE_FACES]])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, len(EDGE_FACES) - 1), max_size=6))
def test_edge_ends_of_chosen_edges_refuse_the_first_bad_id(ids):
    # An edge whose faces are not one -1 and one +1 is refused by the
    # first such id in the order asked.
    layer = MIXED_EDGES.layers[1]
    bad = [i for i in ids
           if sorted(c for _, c in EDGE_FACES[i]) != [-1, 1]]
    if bad:
        with pytest.raises(UnsupportedConfigurationError, match=(
                f"^edge {bad[0]} is not a graph edge: its faces are not "
                r"one tail \(-1\) and one head \(\+1\)$")):
            layer.ends(ids)
        return
    tail, head = layer.ends(ids)
    assert tail.tolist() == [dict((c, f) for f, c in EDGE_FACES[i])[-1]
                             for i in ids]
    assert head.tolist() == [dict((c, f) for f, c in EDGE_FACES[i])[1]
                             for i in ids]
    assert tail.dtype == head.dtype == np.int64


def test_edge_ends_of_every_edge_refuse_the_first_bad_edge():
    with pytest.raises(UnsupportedConfigurationError,
                       match="^edge 4 is not a graph edge"):
        MIXED_EDGES.layers[1].ends()
    good = DeltaComplex("ABC", [MIXED_EDGES.cells[0],
                                MIXED_EDGES.cells[1][:4]])
    assert [a.tolist() for a in good.layers[1].ends()] == [[0, 2, 0, 1],
                                                           [1, 1, 0, 2]]
