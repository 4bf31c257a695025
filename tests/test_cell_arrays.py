"""Array-backed cell storage: the build against a per-site reference, the
``Cell`` view, refusals, and that lattice jobs never create a ``Cell``."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
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
from crystaltopo.errors import ComplexBuildError, DefectLocusError
from crystaltopo.homology import orientability, vertex_components
from crystaltopo.lattice import (
    DefectSpec,
    LatticeSpec,
    apply_defects,
    box_points,
    build_lattice_complex,
)

from oracles import (
    components_oracle,
    constant_boundary_oracle,
    grid_cells_oracle,
    periodic_orbits_oracle,
    square_failures_oracle,
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
    whole = set(box_points(box))
    removed = periodic_orbits_oracle(spec.removed_indices, box, axes)
    points, _ = apply_defects(whole - removed, box, spec.defects)
    points = whole - periodic_orbits_oracle(whole - points, box, axes)
    if not points:
        raise ComplexBuildError("every lattice site was removed")
    sites = {tuple(lo + (c - lo) % (hi - lo) if a in axes else c
                   for a, (c, (lo, hi)) in enumerate(zip(p, box)))
             for p in points}
    shape = SHAPE_CUBE if spec.scheme == "cubic" else SHAPE_SIMPLEX
    labels, layers = grid_cells_oracle(
        sites, _cell_templates(spec.scheme, len(box)), shape, box, axes)
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
    except (ComplexBuildError, DefectLocusError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
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


# ---------------------------------------------------------------------------
# explicit cells: the view, the readers and the refusals
# ---------------------------------------------------------------------------

@st.composite
def ragged_complexes(draw):
    """Hand-built cells: any vertex count (repeats allowed), any faces
    one degree down (repeats and zero coefficients allowed), coefficients
    up to the int64 limits, both shapes."""
    n = draw(st.integers(1, 5))
    coeff = st.one_of(st.integers(-3, 3),
                      st.integers(-(2 ** 63), 2 ** 63 - 1))
    layers = [[Cell((v,), (), draw(st.sampled_from([SHAPE_SIMPLEX,
                                                    SHAPE_CUBE])))
               for v in range(n)]]
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
        edges = [(c.vertices[0], c.vertices[-1]) for c in trimmed[1]]
        seen = components_oracle(len(labels), edges)
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
