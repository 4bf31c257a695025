import itertools
import math
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from crystaltopo import (
    RING_INT,
    RING_MOD2,
    RING_REAL,
    Cell,
    Chain,
    Cochain,
    ComplexBuildError,
    DeltaComplex,
    DimensionError,
    LatticeSpec,
    UnsupportedConfigurationError,
    barycentric_subdivide,
    betti_numbers,
    boundary_map,
    boundary_of_cell,
    build_complex,
    build_lattice_complex,
    coboundary_map,
    homology,
    validate_complex,
)
from crystaltopo import complexes
from crystaltopo.errors import DefectLocusError
from crystaltopo.lattice import DefectSpec

from conftest import (
    dense_boundary,
    lattice_specs,
    make_circle,
    make_disc,
    make_mobius,
    make_rp2,
    make_tetra_surface,
)
from oracles import (
    ComplexRefused,
    box_points,
    find_cell_oracle,
    simplices_oracle,
    subdivision_oracle,
    torus_site,
)


# ---------------------------------------------------------------------------
# chain algebra
# ---------------------------------------------------------------------------

def test_chain_addition_drops_zeros():
    a = Chain(1, {0: 2, 1: -1})
    b = Chain(1, {0: -2, 2: 5})
    s = a + b
    assert dict(s.coeffs) == {1: -1, 2: 5}
    assert dict((a - a).coeffs) == {}
    assert not (a - a)


def test_chain_mod2_normalization():
    c = Chain(1, {0: 3, 1: 2}, ring=RING_MOD2)
    assert dict(c.coeffs) == {0: 1}


@pytest.mark.parametrize("value", ["1.5", "2", b"2", bytearray(b"2")])
@pytest.mark.parametrize("ring", [RING_INT, RING_MOD2, RING_REAL])
def test_chain_refuses_text_coefficients(ring, value):
    # int() and float() would read numeric text as a number
    for kind in (Chain, Cochain):
        with pytest.raises(ValueError, match="is text, not a number"):
            kind(1, {0: 1, 1: value}, ring)


def test_chain_scaling_and_equality():
    a = Chain(2, {4: 1, 7: -2})
    assert a.scale(3) == Chain(2, {4: 3, 7: -6})
    assert a.scale(0) == Chain(2, {})
    assert -a == a.scale(-1)


def test_chain_rings_do_not_mix():
    a = Chain(1, {0: 1})
    b = Chain(1, {0: 1}, ring=RING_MOD2)
    with pytest.raises(Exception):
        a + b
    # nor is a ring outside the three accepted
    with pytest.raises(ValueError, match="^unknown ring 'rationals'$"):
        Chain(1, {0: 1}, ring="rationals")
    with pytest.raises(ValueError, match="^unknown ring 'rationals'$"):
        homology(make_circle(), 1, "rationals")


# ---------------------------------------------------------------------------
# explicit complexes
# ---------------------------------------------------------------------------

def test_simplices_get_their_faces_filled_in():
    cx = DeltaComplex.from_simplices([("A", "B", "C")])
    assert cx.cell_counts() == [3, 3, 1]
    assert validate_complex(cx).ok


def test_duplicate_vertex_labels_are_refused():
    with pytest.raises(ComplexBuildError, match="^duplicate vertex labels$"):
        DeltaComplex(("A", "B", "A"), [[Cell((0,), ()), Cell((1,), ()),
                                        Cell((2,), ())]])


def test_boundary_columns_start_at_degree_1(disc):
    for k in (0, disc.dim + 1):
        with pytest.raises(DimensionError, match=re.escape(
                f"boundary columns defined for 1 <= k <= 2, got {k}")):
            complexes.boundary_columns(disc, k)


def test_closing_faces_past_the_cell_cap_is_refused(monkeypatch):
    monkeypatch.setattr(complexes, "MAX_CELLS", 100)
    # 63 cells fit under the cap, a 10-vertex simplex's 1023 do not
    assert DeltaComplex.from_simplices([range(6)]).cell_counts() == [
        6, 15, 20, 15, 6, 1]
    with pytest.raises(ComplexBuildError, match="limit of 100 cells"):
        DeltaComplex.from_simplices([range(10)])


@st.composite
def simplex_lists(draw):
    """Cells of up to six vertices over one kind of label (ints, strings or
    pairs), mostly without a repeated vertex; now and then an empty one."""
    name = draw(st.sampled_from(
        [int, "v{}".format, lambda i: (i % 3, i // 3)]))
    ids = st.integers(0, draw(st.integers(0, 9)))
    cells = draw(st.lists(st.one_of(
        st.lists(ids, min_size=1, max_size=6, unique=True),
        st.lists(ids, max_size=2)), max_size=8))
    return [[name(i) for i in cell] for cell in cells]


def _oracle_arrays(cells):
    """The ``CellLayer`` arrays of a degree of ``simplices_oracle``."""
    return {
        "vertices": [v for vs, _ in cells for v in vs],
        "vertex_ptr": np.cumsum([0] + [len(vs) for vs, _ in cells]),
        "faces": [f for _, fs in cells for f, _ in fs],
        "coeffs": [c for _, fs in cells for _, c in fs],
        "face_ptr": np.cumsum([0] + [len(fs) for _, fs in cells]),
        "shapes": [0] * len(cells)}


def _assert_matches_oracle(cx, oracle):
    labels, layers, defects = oracle
    assert cx.vertex_labels == tuple(labels)
    assert cx.closure_defects == tuple(defects)
    assert len(cx.layers) == len(layers)
    for layer, cells in zip(cx.layers, layers):
        for name, want in _oracle_arrays(cells).items():
            got = getattr(layer, name)
            assert got.tolist() == list(want), name
            assert got.dtype == (np.int8 if name == "shapes" else np.int64)


# The array closure against the tuple-set closure it replaced, with the
# cell cap now and then set just above or below the size of the closure,
# so that the closure runs in several chunks and may be refused in a later
# one; and the subdivision of the result against the dict-driven one.
@settings(max_examples=300, deadline=None)
@given(simplex_lists(), st.booleans(),
       st.one_of(st.none(), st.integers(-30, 1)))
def test_from_simplices_matches_the_tuple_set_closure(simplices, auto_close,
                                                      slack):
    cap = complexes.MAX_CELLS
    if slack is not None:
        try:
            closed = simplices_oracle(simplices, True, math.inf)[1]
            cap = max(1, sum(map(len, closed)) + slack)
        except ComplexRefused:
            pass
    with mock.patch.object(complexes, "MAX_CELLS", cap):
        try:
            want = simplices_oracle(simplices, auto_close, cap)
        except ComplexRefused as exc:
            with pytest.raises(ComplexBuildError,
                               match=f"^{re.escape(str(exc))}$"):
                DeltaComplex.from_simplices(simplices, auto_close=auto_close)
            return
        cx = DeltaComplex.from_simplices(simplices, auto_close=auto_close)
    _assert_matches_oracle(cx, want)
    if sum(cx.cell_counts()) <= 40:
        chains = subdivision_oracle(
            [layer.vertex_rows() for layer in cx.layers],
            [[False] * len(layer) for layer in cx.layers])
        _assert_matches_oracle(barycentric_subdivide(cx),
                               simplices_oracle(chains, False, None))


def test_closure_violations_are_reported(circle):
    cx = DeltaComplex.from_simplices([("A", "B", "C")], auto_close=False)
    rep = validate_complex(cx)
    assert not rep.ok
    assert len(rep.closure_defects) == 3
    missing = {d[2] for d in rep.closure_defects}
    assert missing == {("A", "B"), ("A", "C"), ("B", "C")}
    assert str(rep) == "; ".join(
        f"closure violation: 2-cell ('A', 'B', 'C') is missing face {face}"
        for face in [("B", "C"), ("A", "C"), ("A", "B")])
    # the closed fixtures all validate cleanly
    assert validate_complex(circle).ok


def test_vertex_and_cell_lookup(disc):
    vid = disc.vertex_id("C")
    assert disc.label_tuple(0, vid) == ("C",)
    eid, sign = disc.find_cell(1, ("B", "A"))
    assert disc.label_tuple(1, eid) == ("A", "B")
    assert sign == -1
    fid, sign = disc.find_cell(2, ("B", "A", "D"))
    assert disc.label_tuple(2, fid) == ("A", "B", "D")
    assert sign == -1  # one transposition


def test_find_cell_sign_is_the_permutation_parity():
    # a stored spelling need not be sorted; the sign relates it to the query
    stored = (2, 0, 3, 1)
    points = [Cell((v,), ()) for v in range(4)]
    cx = DeltaComplex("ABCD", [points, [], [], [Cell(stored, ())]])
    for query in itertools.permutations("ABCD"):
        at = [stored.index(cx.vertex_id(v)) for v in query]
        parity = round(np.linalg.det(np.eye(4)[at]))
        assert cx.find_cell(3, query) == (0, parity)
    pinched = DeltaComplex("AB", [points[:2], [], [Cell((0, 0, 1), ())]])
    with pytest.raises(ComplexBuildError, match=r"repeated vertex in cell \(0, 0, 1\)"):
        pinched.find_cell(2, ("A", "A", "B"))
    # 1-cells of 2, 1 and n vertices: shorter rows are zero-padded on the
    # right, under int64 keys (n = 4) and byte keys (n = 40, 41^40 > 2^63),
    # and a -1 names no vertex, not the padding
    for n in (4, 40):
        ragged = DeltaComplex(range(n), [
            [Cell((v,), ()) for v in range(n)],
            [Cell((3, 1), ()), Cell((3,), ()), Cell(tuple(range(n))[::-1], ())]])
        assert ragged._vertex_index(1)[0].dtype.kind == "iV"[n == 40]
        assert ragged.find_cell(1, (1, 3)) == (0, -1)
        assert ragged.find_cell(1, (3,)) == (1, 1)
        assert ragged.find_cell(1, range(n)) == (2, (-1) ** (n * (n - 1) // 2))
        got = ragged.find_cells(1, [[3, -1], [3, 1]])
        assert [a.tolist() for a in got] == [[-1, 0], [0, 1], [1, 1]]



def test_find_cell_sign_on_cubic_edges():
    # a 1-cube is a 1-simplex: a reversed pair names the edge negated
    grid = build_complex(box_points([(0, 1), (0, 1)]), "cubic")
    for eid, (a, b) in enumerate(grid.layers[1].vertex_rows()):
        ends = (grid.vertex_labels[a], grid.vertex_labels[b])
        assert grid.find_cell(1, ends) == (eid, 1)
        assert grid.find_cell(1, ends[::-1]) == (eid, -1)
    # squares keep their stored orientation under any corner order
    corners = grid.label_tuple(2, 0)
    for query in itertools.permutations(corners):
        assert grid.find_cell(2, query) == (0, 1)
    # a period-1 axis makes a self-loop, which a pair cannot orient
    loop = build_complex([(0,)], "cubic", index_box=((0, 1),),
                         periodic_axes=(0,))
    with pytest.raises(ComplexBuildError, match="repeated vertex"):
        loop.find_cell(1, ((0,), (0,)))
    # the 8 corners of a cube of 343 sites do not fit one int64 key in
    # base 344; their byte keys find every cube and edge all the same
    box = build_complex(box_points([(0, 6)] * 3), "cubic",
                        index_box=[(0, 7)] * 3, periodic_axes=(0, 1, 2))
    assert box._vertex_index(3)[0].dtype.kind == "V"
    for k, sign in ((3, 1), (1, -1)):
        layer = box.layers[k]
        rows = layer.vertices.reshape(len(layer), -1)[:, ::-1]
        assert [a.tolist() for a in box.find_cells(k, rows)] == [
            list(range(len(layer))), [1] * len(layer), [sign] * len(layer)]
    assert box.find_cell(3, box.label_tuple(3, 5)[::-1]) == (5, 1)

# find_cell, find_cells and the subdivision's refusals against dicts of
# sorted vertex tuples, on lattices whose period-1 and period-2 axes put
# repeated vertices in cells and several cells on one vertex set, and on
# explicit complexes of mixed degrees, closed or not.
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(lattice_specs(), st.tuples(simplex_lists(), st.booleans())),
       st.randoms(use_true_random=True))
def test_find_cell_matches_a_dict_of_sorted_tuples(spec, rng):
    try:
        cx = (build_lattice_complex(spec)[0] if isinstance(spec, LatticeSpec)
              else DeltaComplex.from_simplices(spec[0], auto_close=spec[1]))
    except (ComplexBuildError, DefectLocusError):
        return
    rows = [layer.vertex_rows() for layer in cx.layers]
    cubes = [(layer.shapes == complexes.CUBE).tolist() for layer in cx.layers]
    for k in range(cx.dim + 1):
        width = max(map(len, rows[k]), default=1)
        queries = [rng.sample(row, len(row)) for row in rows[k]] + [[]]
        queries += [rng.choices(range(cx.n_vertices),
                                k=rng.randint(1, width + 1))
                    for _ in range(10 if cx.n_vertices else 0)]
        # the batch, one call per query length; a negative id names no
        # vertex
        by_length = {}
        for ids in queries + [q[:-1] + [-1] for q in queries[:5] if q]:
            by_length.setdefault(len(ids), []).append(ids)
        for w, group in by_length.items():
            got = cx.find_cells(k, np.reshape(group, (len(group), w)))
            for ids, cid, count, sign in zip(group, *map(list, got)):
                want = find_cell_oracle(rows[k], cubes[k], k, ids)
                if want[0] == "names":
                    assert (cid, count) == (-1, want[1])
                elif want[0] == "repeated":
                    assert (cid, count) == (-1, 1)
                else:
                    assert (cid, count, sign) == (want[0], 1, want[1])
        for ids in queries:
            labels = tuple(cx.vertex_labels[v] for v in ids)
            want = find_cell_oracle(rows[k], cubes[k], k, ids)
            if want[0] == "names":
                text = (f"no {k}-cell with vertices {labels!r}" if not want[1]
                        else f"vertex set {labels!r} names {want[1]} cells; "
                        "query by cell id instead")
            elif want[0] == "repeated":
                text = f"repeated vertex in cell {tuple(ids)}"
            else:
                assert cx.find_cell(k, labels) == want
                continue
            with pytest.raises(ComplexBuildError,
                               match=f"^{re.escape(text)}$"):
                cx.find_cell(k, labels)
    try:
        chains = subdivision_oracle(rows, cubes)
    except ComplexRefused as exc:
        with pytest.raises(UnsupportedConfigurationError,
                           match=f"^{re.escape(str(exc))}$"):
            barycentric_subdivide(cx)
        return
    if sum(cx.cell_counts()) <= 60:
        _assert_matches_oracle(barycentric_subdivide(cx),
                               simplices_oracle(chains, False, None))


def test_boundary_of_edge(circle):
    eid, _ = circle.find_cell(1, ("A", "B"))
    d = boundary_of_cell(circle, 1, eid)
    assert d == circle.chain(0, {("B",): 1, ("A",): -1})


def test_boundary_of_triangle_alternates_signs(disc):
    fid, _ = disc.find_cell(2, ("A", "B", "D"))
    d = boundary_of_cell(disc, 2, fid)
    assert d == disc.chain(1, {("B", "D"): 1, ("A", "D"): -1, ("A", "B"): 1})


def test_perimeter_is_a_cycle(circle):
    loop = circle.chain(1, {("A", "B"): 1, ("B", "C"): 1, ("A", "C"): -1})
    assert not boundary_map(loop, circle)


def test_boundary_of_boundary_vanishes():
    rng = random.Random(5)
    for cx in (make_disc(), make_tetra_surface(), make_rp2(), make_mobius()):
        k = cx.dim
        ch = Chain(k, {i: rng.randint(-3, 3) for i in range(cx.n_cells(k))})
        assert not boundary_map(boundary_map(ch, cx), cx)


def test_coboundary_of_vertex_on_circle(circle):
    # hand value 1 to vertex A: the coboundary charges both incident edges
    delta = coboundary_map(circle.cochain(0, {("A",): 1}), circle)
    assert delta == circle.cochain(1, {("A", "B"): -1, ("A", "C"): -1})


def test_cochain_pairing(circle):
    z = circle.chain(1, {("A", "B"): 2, ("B", "C"): 1})
    f = circle.cochain(1, {("A", "B"): 3, ("A", "C"): 7})
    assert f.pair(z) == 6


# ---------------------------------------------------------------------------
# grid builders
# ---------------------------------------------------------------------------

def test_square_grid_counts():
    cx = build_complex([(i, j) for i in range(2) for j in range(2)], "cubic")
    assert cx.cell_counts() == [4, 4, 1]


def test_triangular_grid_counts():
    cx = build_complex([(i, j) for i in range(2) for j in range(2)], "triangular")
    assert cx.cell_counts() == [4, 5, 2]


def test_a_hull_of_2_62_grid_points_is_refused():
    # each site is keyed by its row-major place in the hull, one int64
    far = 2 ** 30
    assert build_complex([(0, 0), (far, far)], "cubic").cell_counts() == [2]
    with pytest.raises(ComplexBuildError,
                       match="lattice indices span too wide a range"):
        build_complex([(0, 0), (2 * far, 2 * far)], "cubic")


def test_center_vacancy_drops_incident_cells():
    pts = [(i, j) for i in range(3) for j in range(3) if (i, j) != (1, 1)]
    cx = build_complex(pts, "cubic")
    assert cx.cell_counts() == [8, 8]
    assert betti_numbers(cx) == [1, 1]


def test_cube_cell_boundary_is_closed_shell():
    corners = [(i, j, k) for i in range(2) for j in range(2) for k in range(2)]
    cx = build_complex(corners, "cubic")
    assert cx.cell_counts() == [8, 12, 6, 1]
    shell = boundary_of_cell(cx, 3, 0)
    assert len(shell.coeffs) == 6
    assert not boundary_map(shell, cx)
    assert validate_complex(cx).ok


def test_triangular_3d_fills_the_cube():
    corners = [(i, j, k) for i in range(2) for j in range(2) for k in range(2)]
    cx = build_complex(corners, "triangular")
    # the unit cube splits into 6 tetrahedra sharing the main diagonal
    assert cx.n_cells(3) == 6
    assert betti_numbers(cx) == [1, 0, 0, 0]


def test_incidence_entries_are_signs(tetra_surface):
    m = dense_boundary(tetra_surface, 2)
    assert set(np.unique(m)) <= {-1, 0, 1}
    assert m.shape == (6, 4)


# ---------------------------------------------------------------------------
# subdivision
# ---------------------------------------------------------------------------

def test_subdividing_an_edge():
    cx = barycentric_subdivide(DeltaComplex.from_simplices([("A", "B")]))
    assert cx.cell_counts() == [3, 2]


def test_subdividing_a_triangle():
    cx = barycentric_subdivide(DeltaComplex.from_simplices([("A", "B", "C")]))
    assert cx.cell_counts() == [7, 12, 6]
    assert validate_complex(cx).ok
    assert betti_numbers(cx) == [1, 0, 0]


def test_subdivision_refuses_cubes():
    cube = build_complex([(0, 0)], "cubic")
    with pytest.raises(UnsupportedConfigurationError):
        barycentric_subdivide(cube)


def test_subdivision_refusal_names_the_first_refused_cell():
    # the first cell in degree and id order that is a cube or repeats a
    # vertex decides the refusal
    points = [Cell((0,), ()), Cell((1,), ())]
    for edges, text in (
            ([Cell((0, 0), ()), Cell((0, 1), (), "cube")], r"cell \(1,0\)"),
            ([Cell((0, 1), (), "cube"), Cell((0, 0), ())], "triangular")):
        with pytest.raises(UnsupportedConfigurationError, match=text):
            barycentric_subdivide(DeltaComplex("AB", [points, edges]))


def test_subdivision_handles_vertex_distinct_quotients(torus):
    # glued cells are fine as long as each cell has distinct corners
    sd = barycentric_subdivide(torus)
    assert sd.cell_counts() == [54, 162, 108]
    assert betti_numbers(sd) == [1, 2, 1]


def test_subdivision_refuses_degenerate_cells():
    from conftest import make_torus
    with pytest.raises(UnsupportedConfigurationError):
        barycentric_subdivide(make_torus(1))


@st.composite
def triangular_specs(draw):
    """Free or periodic triangular samples with up to two vacancies at
    distinct sites; each periodic axis has period 3, the least that
    leaves no two cells on one vertex set."""
    m = draw(st.integers(1, 3))
    axes = tuple(a + 1 for a in range(m) if draw(st.booleans()))
    top = {1: 4, 2: 3, 3: 2}[m]
    box = tuple((0, 3 if a + 1 in axes else draw(st.integers(1, top)))
                for a in range(m))
    vacancies = draw(st.lists(
        st.sampled_from(box_points(box)), max_size=2,
        unique_by=lambda p: torus_site(p, box, [a - 1 for a in axes])))
    return LatticeSpec(
        dimension=m, ambient=m,
        generators=tuple(tuple(float(i == j) for j in range(m))
                         for i in range(m)),
        index_box=box, scheme="triangular",
        boundary="periodic" if axes else "free", periodic_axes=axes,
        defects=tuple(DefectSpec("vacancy", index=v) for v in vacancies))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(triangular_specs())
def test_subdivision_preserves_homology_of_random_samples(spec):
    try:
        cx, _ = build_lattice_complex(spec)
        sd = barycentric_subdivide(cx)
    except (ComplexBuildError, UnsupportedConfigurationError):
        assume(False)  # every site removed, or a refused quotient
    for ring in (RING_INT, RING_MOD2):
        assert ([homology(sd, k, ring) for k in range(cx.dim + 1)]
                == [homology(cx, k, ring) for k in range(cx.dim + 1)])
