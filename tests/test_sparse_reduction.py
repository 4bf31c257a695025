"""The coreduction walk against the dense reducer and the oracles."""

import importlib
import itertools
import json
import math

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from crystaltopo import LatticeSpec, build_lattice_complex, cli
from crystaltopo.complexes import (
    Cell,
    Chain,
    DeltaComplex,
    RING_INT,
    RING_MOD2,
    RING_REAL,
    boundary_columns,
)
from crystaltopo.errors import ComplexBuildError
from crystaltopo.homology import (
    betti_numbers,
    cohomology,
    euler_characteristic,
    homology,
    homology_generators,
    is_boundary,
)
from crystaltopo.lattice import DefectSpec
from crystaltopo.obstruction import ObstructionCochain, obstruction_class
from crystaltopo.orderfield import GROUP_Z, GROUP_Z2, GROUP_ZxZ
from crystaltopo.snf import smith_normal_form

from conftest import (
    DEGENERATE_TORI,
    circle_torus_doc,
    dense_boundary,
    make_circle,
    make_big_entries,
    make_disc,
    make_mobius,
    make_rp2,
    make_torus,
)
from oracles import (
    box_points,
    gf2_rank,
    gf2_rank_oracle,
    integer_kernel_oracle,
    integer_solvable_oracle,
    rational_rank,
    snf_diagonal_oracle,
    sparse_invariant_factors,
    torus_site,
)

# The package namespace exports a function named ``homology``.
homology_mod = importlib.import_module("crystaltopo.homology")
snf_mod = importlib.import_module("crystaltopo.snf")

# Dense oracles are slow in pure Python; lattice matrices above this many
# entries are compared with the dense reducer only.
ORACLE_MAX_ENTRIES = 1500


def columns_of(matrix, width=None):
    if width is None:
        width = len(matrix[0]) if matrix else 0
    return [{i: row[j] for i, row in enumerate(matrix) if row[j]}
            for j in range(width)]


def columns_complex(columns, n_rows):
    """A 1-dimensional complex whose d_1 has these sparse columns: rows
    are vertices."""
    vertices = [Cell((i,), ()) for i in range(n_rows)]
    edges = [Cell((0,), tuple(col.items())) for col in columns]
    return DeltaComplex(range(n_rows), [vertices, edges])


def matrix_complex(matrix):
    """A 1-dimensional complex whose d_1 is ``matrix``: rows are vertices."""
    return columns_complex(columns_of(matrix), len(matrix))


def kernel_factors(cx, k):
    """The invariant factors of d_k read from the coreduction walk: one 1
    per unit pair, then the Morse block's."""
    walk = homology_mod._coreduction(cx)
    return [1] * walk.pairs[k] + walk.factors[k]


def assert_agrees(cx, k, oracle=True):
    matrix = dense_boundary(cx, k).tolist()
    got = kernel_factors(cx, k)
    assert got == [abs(d) for d in smith_normal_form(matrix).diagonal if d]
    assert got == sparse_invariant_factors(boundary_columns(cx, k))
    rank, torsion = homology_mod._reduction(cx, k, RING_INT)
    assert (rank, torsion) == (len(got), tuple(d for d in got if d > 1))
    # Universal coefficients: the odd factors count the rank over GF(2).
    odd = sum(d % 2 for d in got)
    assert odd == gf2_rank(matrix) == homology_mod._reduction(
        cx, k, RING_MOD2)[0]
    assert homology_mod._reduction(cx, k, RING_REAL) == (len(got), ())
    if oracle:
        assert got == snf_diagonal_oracle(matrix)
        assert odd == gf2_rank_oracle(matrix)
        assert len(got) == rational_rank(matrix)


@st.composite
def int_matrices(draw):
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(1 if rows else 0, 6))
    # Half the draws avoid units entirely, forcing the leftover block.
    values = draw(st.sampled_from([range(-3, 4), (-3, -2, 0, 2, 3)]))
    matrix = [[draw(st.sampled_from(values)) for _ in range(cols)]
              for _ in range(rows)]
    if rows and draw(st.booleans()):
        matrix[draw(st.integers(0, rows - 1))] = [0] * cols
    if cols and draw(st.booleans()):
        zero = draw(st.integers(0, cols - 1))
        for row in matrix:
            row[zero] = 0
    return matrix


@settings(max_examples=200, deadline=None)
@given(int_matrices())
def test_random_matrices_match_dense_and_oracles(matrix):
    cx = matrix_complex(matrix)
    if not matrix or not matrix[0]:
        assert sparse_invariant_factors(columns_of(matrix)) == []
        assert homology_mod._reduction(cx, 1, RING_INT) == (0, ())
        return
    assert_agrees(cx, 1)


@st.composite
def lattice_specs(draw):
    m = draw(st.integers(1, 3))
    scheme = draw(st.sampled_from(["triangular", "cubic"]))
    boundary = draw(st.sampled_from(["free", "constant", "periodic"]))
    # 3D triangular boxes stay at extent 1 to keep the dense oracles fast.
    top = 1 if (m == 3 and scheme == "triangular") else 2
    box = tuple((0, draw(st.integers(1, top))) for _ in range(m))
    axes = ()
    if boundary == "periodic":
        axes = tuple(a + 1 for a in range(m) if draw(st.booleans())) or (1,)
    vacancies = draw(st.lists(
        st.sampled_from(box_points(box)), max_size=2,
        unique_by=lambda p: torus_site(p, box, [a - 1 for a in axes])))
    return LatticeSpec(
        dimension=m, ambient=m,
        generators=tuple(tuple(float(i == j) for j in range(m))
                         for i in range(m)),
        index_box=box, scheme=scheme, boundary=boundary,
        periodic_axes=axes,
        defects=tuple(DefectSpec("vacancy", index=v) for v in vacancies))


def _build(spec):
    try:
        cx, _ = build_lattice_complex(spec)
    except ComplexBuildError:
        assume(False)  # every site removed
    return cx


def with_degenerate_tori(test):
    """The period-1 and period-2 tori of ``DEGENERATE_TORI`` as explicit
    examples."""
    for spec in DEGENERATE_TORI:
        test = example(spec)(test)
    return test


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@with_degenerate_tori
@given(lattice_specs())
def test_lattice_matrices_match_dense_and_universal_coefficients(spec):
    cx = _build(spec)
    gf2 = {}  # rank over GF(2) of d_k, by an independent elimination
    for k in range(1, cx.dim + 1):
        if cx.n_cells(k) == 0:
            continue
        M = dense_boundary(cx, k)
        assert boundary_columns(cx, k) == columns_of(M.tolist(), M.shape[1])
        if M.size:
            assert_agrees(cx, k, oracle=M.size <= ORACLE_MAX_ENTRIES)
            gf2[k] = gf2_rank(M.tolist())
    for k in range(cx.dim + 1):
        assert homology(cx, k, RING_MOD2).betti == (
            cx.n_cells(k) - gf2.get(k, 0) - gf2.get(k + 1, 0))
    euler_characteristic(cx)


def test_leftover_block_gives_lcm_factor(monkeypatch):
    blocks = []
    reducer = snf_mod.SmithDecomposition

    def spy(columns, n_rows, **tracks):
        blocks.append(([dict(col) for col in columns], n_rows))
        return reducer(columns, n_rows, **tracks)

    monkeypatch.setattr(snf_mod, "SmithDecomposition", spy)
    cx = matrix_complex([[2, 0], [0, 3]])
    # No unit entry: both vertices and both edges are critical.
    assert kernel_factors(cx, 1) == [1, 6]
    assert blocks == [([{0: 2}, {1: 3}], 2)]
    assert homology(cx, 0).torsion == (6,)


def test_rp2_boundary_torsion_comes_from_leftover():
    rp2 = make_rp2()
    walk = homology_mod._coreduction(rp2)
    # One critical cell per degree; the Morse block d^M_2 is [+-2].
    assert [len(cells) for cells in walk.critical] == [1, 1, 1]
    assert walk.blocks[2] in ([{0: 2}], [{0: -2}])
    factors = kernel_factors(rp2, 2)
    assert factors == [1] * (len(factors) - 1) + [2]
    assert factors == sparse_invariant_factors(boundary_columns(rp2, 2))
    assert homology(rp2, 1).torsion == (2,)
    for k in (1, 2):
        group = homology(rp2, k, RING_MOD2)
        assert (group.betti, group.torsion, str(group)) == (1, (), "(Z/2)")


def test_cancelling_faces_are_dropped():
    # A periodic axis of period 1 glues an edge's endpoints together.
    cx = make_torus(1)
    for k in range(1, cx.dim + 1):
        assert all(all(v for v in col.values())
                   for col in boundary_columns(cx, k))
    assert betti_numbers(cx) == [1, 2, 1]


def count_walks(monkeypatch):
    """Patch the coreduction walk to record the id of each complex it
    walks, and forbid the tracked Smith form of a boundary matrix and
    every dense matrix input."""
    calls = []
    walk = homology_mod._Coreduction

    def counting(cx):
        calls.append(id(cx))
        return walk(cx)

    def no_tracked(*args, **kwargs):
        raise AssertionError("boundary matrix reduced for a rank or "
                             "membership")

    monkeypatch.setattr(homology_mod, "_Coreduction", counting)
    monkeypatch.setattr(homology_mod, "SmithDecomposition", no_tracked)
    monkeypatch.setattr(snf_mod, "smith_normal_form", no_tracked)
    return calls


def test_each_boundary_matrix_is_reduced_once_per_ring(monkeypatch):
    cx = make_torus(3)
    calls = count_walks(monkeypatch)
    for ring in (RING_INT, RING_MOD2, RING_REAL):
        for k in range(-1, cx.dim + 2):
            homology(cx, k, ring)
            cohomology(cx, k, ring)
        betti_numbers(cx, ring)
    assert euler_characteristic(cx) == 0
    # One integer walk per complex serves every matrix and all three rings.
    assert calls == [id(cx)]

    # Membership tests flow only the vector; the complex is not walked
    # again.
    face_boundary = boundary_columns(cx, 2)[0]
    for ring in (RING_INT, RING_MOD2, RING_REAL):
        assert not is_boundary(Chain(1, {0: 1}, ring), cx)
        assert is_boundary(Chain(1, face_boundary, ring), cx)
    delta_edge = {j: col[0] for j, col in enumerate(boundary_columns(cx, 2))
                  if 0 in col}
    for group, values, status in (
            (GROUP_Z, {0: 1}, "nontrivial"),
            (GROUP_Z, delta_edge, "trivial"),
            (GROUP_Z2, {0: 1}, "nontrivial"),
            (GROUP_ZxZ, {j: (v, 0) for j, v in delta_edge.items()},
             "trivial")):
        cochain = ObstructionCochain(cx, 2, group, values)
        assert obstruction_class(cochain) == status
    assert calls == [id(cx)]
    assert not any(key[0] == "incidence" for key in cx._cache)


@pytest.mark.parametrize("first", ["homology", "chain", "cochain"])
def test_one_walk_per_complex_whichever_query_comes_first(monkeypatch,
                                                          first):
    cx = make_torus(3)
    calls = count_walks(monkeypatch)
    delta_edge = {j: col[0] for j, col in enumerate(boundary_columns(cx, 2))
                  if 0 in col}
    queries = {
        "homology": lambda ring: [homology(cx, k, ring)
                                  for k in range(cx.dim + 1)],
        "chain": lambda ring: [is_boundary(Chain(k, {0: 1}, ring), cx)
                               for k in range(cx.dim + 1)],
        "cochain": lambda ring: [obstruction_class(ObstructionCochain(
            cx, k, GROUP_Z2 if ring == RING_MOD2 else GROUP_Z, values))
            for k, values in ((1, {0: 1}), (2, {0: 1}), (2, delta_edge))],
    }
    for ring in (RING_INT, RING_MOD2, RING_REAL):
        for name in sorted(queries, key=lambda name: name != first):
            queries[name](ring)
    assert calls == [id(cx)]


def test_a_smooth_circle_obstruct_builds_no_walk(monkeypatch, tmp_path,
                                                capsys):
    # The field extends and its index sum reads the Euler number from the
    # cell counts, so no answer of the report needs a group.
    path = tmp_path / "smooth.json"
    path.write_text(json.dumps(circle_torus_doc(
        lambda x, y: 0.3 + math.tau * x / 6)))
    calls = count_walks(monkeypatch)
    assert cli.main(["obstruct", str(path), "--report", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["extends"] and "cochain" not in report
    assert report["index_sum"] == {"applicable": True, "index_sum": 0,
                                   "euler": 0, "consistent": True,
                                   "reason": ""}
    assert calls == []


def assert_walk_rows_are_the_layer_rows(cx):
    """The walk's face rows are each layer's stored rows moved to global
    ids and its coface rows their transpose in cell order, coefficients as
    Python integers; its books agree with its pairs and critical cells."""
    walk = homology_mod._Coreduction(cx)
    offsets = [0, *itertools.accumulate(cx.cell_counts())]
    # per global cell id: [(global face id, coefficient)]
    faces = [[] for _ in range(cx.n_cells(0))]
    for k, layer in enumerate(cx.layers[1:], 1):
        ptr, fid, co = (a.tolist() for a in (
            layer.face_ptr, layer.faces, layer.coeffs))
        faces += [[(f + offsets[k - 1], c) for f, c in zip(fid[s:e], co[s:e])]
                  for s, e in zip(ptr, ptr[1:])]
    cofaces = [[] for _ in faces]
    for g, row in enumerate(faces):
        for f, c in row:
            cofaces[f].append((g, c))
    for ptr, ids, co, rows in ((walk.fptr, walk.fid, walk.fco, faces),
                               (walk.cptr, walk.cid, walk.cco, cofaces)):
        assert [list(zip(ids[s:e], co[s:e]))
                for s, e in zip(ptr, ptr[1:])] == rows
        assert all(type(c) is int for c in co)
    assert_walk_books(walk, offsets)
    return walk


def assert_walk_books(walk, offsets):
    """Every cell is exactly one of critical, lower or upper member; the
    position lists index those lists, and pairs[k] counts the uppers of
    degree k."""
    n = offsets[-1]

    def degree(g):
        return next(k for k in range(len(offsets)) if g < offsets[k + 1])

    critical = [g for cells in walk.critical for g in cells]
    assert sorted(critical + walk.lower + walk.upper) == list(range(n))
    for k, cells in enumerate(walk.critical):
        assert cells == sorted(cells) and all(degree(g) == k for g in cells)
    assert all(degree(b) == degree(a) + 1 and c in (1, -1)
               for a, b, c in zip(walk.lower, walk.upper, walk.coef))
    want = {"low_pair": [-1] * n, "up_pair": [-1] * n, "crit_pos": [-1] * n}
    for name, cells in (("low_pair", walk.lower), ("up_pair", walk.upper),
                        *(("crit_pos", cells) for cells in walk.critical)):
        for i, g in enumerate(cells):
            want[name][g] = i
    assert want == {name: getattr(walk, name) for name in want}
    assert walk.pairs == [sum(degree(b) == k for b in walk.upper)
                          for k in range(len(offsets) - 1)]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(lattice_specs())
def test_walk_rows_are_the_layer_rows_on_lattices(spec):
    assert_walk_rows_are_the_layer_rows(_build(spec))


@pytest.mark.parametrize("period", [1, 2])
@pytest.mark.parametrize("scheme", ["triangular", "cubic"])
def test_walk_rows_are_the_layer_rows_on_small_tori(period, scheme):
    # period 1 glues a cell's faces onto one another, period 2 gives
    # cells that share their vertices
    assert_walk_rows_are_the_layer_rows(make_torus(period, scheme))


def test_walk_rows_sum_past_int64_on_python_integers():
    big = 2 ** 62
    cx = make_big_entries()
    assert cx.layers[1].summed_faces()[2].dtype == object
    walk = assert_walk_rows_are_the_layer_rows(cx)
    assert walk.fco == [big, -big, big, -big, 1, -1, big, big]
    assert walk.critical == [[0, 1], [2, 3], [4]]
    assert homology(cx, 1).torsion == (2 ** 63,)


def test_even_factors_other_than_two_vanish_over_the_fields():
    cx = matrix_complex([[4, 0, 0], [0, 6, 0], [0, 0, 3]])
    assert kernel_factors(cx, 1) == [1, 6, 12]
    expected = {RING_INT: [(0, (6, 12)), (0, ())],
                RING_MOD2: [(2, ()), (2, ())],
                RING_REAL: [(0, ()), (0, ())]}
    for ring, groups in expected.items():
        assert [(g.betti, g.torsion) for g in
                (homology(cx, k, ring) for k in (0, 1))] == groups


@st.composite
def membership_cases(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    values = draw(st.sampled_from([range(-3, 4), (-3, -2, 0, 2, 3)]))
    matrix = [[draw(st.sampled_from(values)) for _ in range(cols)]
              for _ in range(rows)]
    transpose = draw(st.booleans())
    A = [list(col) for col in zip(*matrix)] if transpose else matrix
    if draw(st.booleans()):
        x = [draw(st.integers(-2, 2)) for _ in A[0]]
        b = [sum(a * xi for a, xi in zip(row, x)) for row in A]
    else:
        b = [draw(st.integers(-3, 3)) for _ in A]
    scale = draw(st.sampled_from([1, 0.5, 0.25, 0.1, 1 / 3]))
    return matrix, transpose, A, b, scale


@settings(max_examples=300, deadline=None)
@given(membership_cases())
def test_image_membership_matches_dense_references(case):
    matrix, transpose, A, b, scale = case
    cx = matrix_complex(matrix)

    def member(vector, ring):
        vec = {i: v for i, v in enumerate(vector) if v}
        return homology_mod._in_image(cx, 1, vec, ring, transpose=transpose)

    def gains_rank(vector, rank):
        return rank([row + [v] for row, v in zip(A, vector)]) != rank(A)

    assert member(b, RING_INT) == integer_solvable_oracle(A, b)
    assert member(b, RING_MOD2) == (not gains_rank(b, gf2_rank_oracle))
    real = [v * scale for v in b]
    assert member(real, RING_REAL) == (not gains_rank(real, rational_rank))


@st.composite
def complex_membership_cases(draw):
    """A complex, a degree k, chain (image of d_k) or cochain (image of
    delta^{k-1}) side, and a vector: a boundary, a boundary plus a random
    (co)cycle, or anything."""
    source = draw(st.sampled_from(["rp2", "mobius", "lattice"]))
    if source == "lattice":
        cx = _build(draw(lattice_specs()))
    else:
        cx = make_rp2() if source == "rp2" else make_mobius()
    assume(cx.dim >= 1)
    k = draw(st.integers(1, cx.dim))
    assume(cx.n_cells(k) and cx.n_cells(k - 1))
    transpose = draw(st.booleans())
    d = dense_boundary(cx, k)
    assume(d.size <= ORACLE_MAX_ENTRIES)
    A = (d.T if transpose else d).tolist()
    # The map whose kernel holds the (co)cycles: d_{k-1}, or delta^k.
    j = k + 1 if transpose else k - 1
    if 1 <= j <= cx.dim:
        d_next = dense_boundary(cx, j)
        check = d_next if transpose else d_next.T
        assume(check.size <= ORACLE_MAX_ENTRIES)
        kernel = integer_kernel_oracle(check.T.tolist(), len(A))
    else:
        kernel = [[int(i == t) for i in range(len(A))] for t in range(len(A))]
    kind = draw(st.sampled_from(["boundary", "plus cycle", "any"]))
    coef = st.integers(-2, 2)
    if kind == "any":
        b = [draw(coef) for _ in A]
    else:
        x = [draw(coef) for _ in A[0]]
        b = [sum(a * xi for a, xi in zip(row, x)) for row in A]
        if kind == "plus cycle" and kernel:
            for z in draw(st.lists(st.sampled_from(kernel), max_size=2)):
                m = draw(st.integers(1, 2))
                b = [u + m * v for u, v in zip(b, z)]
    scale = draw(st.sampled_from([1, 0.5, 0.1, 1 / 3]))
    return cx, k, transpose, A, b, scale


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(complex_membership_cases())
def test_complex_membership_matches_slow_references(case):
    cx, k, transpose, A, b, scale = case
    assert_agrees(cx, k)  # rank and torsion of d_k, against every oracle
    columns = columns_of(A, len(A[0]))

    def member(vector, ring):
        vec = {i: v for i, v in enumerate(vector) if v}
        got = homology_mod._in_image(cx, k, vec, ring, transpose=transpose)
        if not transpose and vec:
            assert is_boundary(Chain(k - 1, vec, ring), cx) == got
        return got

    # Over Z the reference is the sparse unit-pivot reduction, with the
    # vector appended; over Z/2 and R, the dense ranks.
    with_b = sparse_invariant_factors([*columns, dict(enumerate(b))])
    assert member(b, RING_INT) == (
        with_b == sparse_invariant_factors(columns))
    mod2 = [v % 2 for v in b]
    assert member(mod2, RING_MOD2) == (
        gf2_rank_oracle([row + [v] for row, v in zip(A, mod2)])
        == gf2_rank_oracle(A))
    real = [v * scale for v in b]
    assert member(real, RING_REAL) == (
        rational_rank([row + [v] for row, v in zip(A, real)])
        == rational_rank(A))


def test_rp2_torsion_loop_bounds_over_the_reals_only():
    rp2 = make_rp2()
    (order, gen), = homology_generators(rp2, 1)
    assert order == 2
    assert not is_boundary(gen, rp2)
    assert is_boundary(gen.scale(2), rp2)
    assert not is_boundary(Chain(1, gen.coeffs, RING_MOD2), rp2)
    assert is_boundary(Chain(1, gen.coeffs, RING_REAL), rp2)
    assert is_boundary(Chain(1, gen.coeffs, RING_REAL).scale(0.1), rp2)
    assert not is_boundary(Chain(1, {0: 0.3}, RING_REAL), rp2)


def test_trivial_groups_skip_the_dense_smith_form(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return snf_mod.SmithDecomposition(*args, **kwargs)

    monkeypatch.setattr(homology_mod, "SmithDecomposition", counting)
    ball = DeltaComplex.from_simplices([("A", "B", "C", "D")])
    assert homology_generators(ball, 3) == []
    assert homology_generators(make_disc(), 2) == []
    assert calls == []
    # The spy does see the tracked path when the group is nonzero: one
    # tracked reduction of d_k and one Smith form of the cycle
    # coordinates, at most two per nonzero group.
    assert len(homology_generators(make_circle(), 1)) == 1
    assert calls
    for cx, k in ((make_torus(3), 0), (make_torus(3), 1), (make_torus(3), 2),
                  (make_rp2(), 1), (make_circle(), 0)):
        calls.clear()
        assert homology_generators(cx, k)
        assert 1 <= len(calls) <= 2


@pytest.mark.parametrize("ring", [RING_INT, RING_MOD2])
def test_empty_and_zero_columns(ring):
    def over(columns):
        factors = sparse_invariant_factors(columns)
        want = homology_mod._over(ring, len(factors),
                                  tuple(d for d in factors if d > 1))
        got = homology_mod._reduction(columns_complex(columns, 1), 1, ring)
        assert got == want
        return got

    assert sparse_invariant_factors([]) == []
    assert sparse_invariant_factors([{}, {0: 0}]) == []
    assert sparse_invariant_factors([{0: 2}]) == [2]
    assert over([]) == (0, ())
    assert over([{}, {0: 0}]) == (0, ())
    # A lone factor 2 is rank 1 over Z and vanishes modulo 2.
    assert over([{0: 2}]) == ((1, (2,)) if ring == RING_INT else (0, ()))
