"""Sparse unit-pivot reduction against the dense reducer and the oracles."""

import importlib

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from crystaltopo import LatticeSpec, build_lattice_complex
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
from crystaltopo.snf import smith_normal_form, sparse_invariant_factors

from conftest import dense_boundary, make_circle, make_disc, make_rp2, make_torus
from oracles import (
    gf2_rank,
    gf2_rank_oracle,
    integer_solvable_oracle,
    rational_rank,
    snf_diagonal_oracle,
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


def assert_agrees(matrix, oracle=True):
    got = sparse_invariant_factors(columns_of(matrix))
    assert got == [abs(d) for d in smith_normal_form(matrix).diagonal if d]
    # Universal coefficients: the odd factors count the rank over GF(2).
    odd = sum(d % 2 for d in got)
    assert odd == gf2_rank(matrix)
    if oracle:
        assert got == snf_diagonal_oracle(matrix)
        assert odd == gf2_rank_oracle(matrix)


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
    if not matrix or not matrix[0]:
        assert sparse_invariant_factors(columns_of(matrix)) == []
        return
    assert_agrees(matrix)


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
    sites = [tuple(p) for p in _box_sites(box)]
    vacancies = draw(st.lists(st.sampled_from(sites), max_size=2,
                              unique=True))
    return LatticeSpec(
        dimension=m, ambient=m,
        generators=tuple(tuple(float(i == j) for j in range(m))
                         for i in range(m)),
        index_box=box, scheme=scheme, boundary=boundary,
        periodic_axes=axes,
        defects=tuple(DefectSpec("vacancy", index=v) for v in vacancies))


def _box_sites(box):
    out = [()]
    for lo, hi in box:
        out = [p + (c,) for p in out for c in range(lo, hi + 1)]
    return out


def _build(spec):
    try:
        cx, _ = build_lattice_complex(spec)
    except ComplexBuildError:
        assume(False)  # every site removed, or a vacancy hit its own orbit
    return cx


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
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
            assert_agrees(M.tolist(), oracle=M.size <= ORACLE_MAX_ENTRIES)
            gf2[k] = gf2_rank(M.tolist())
    for k in range(cx.dim + 1):
        assert homology(cx, k, RING_MOD2).betti == (
            cx.n_cells(k) - gf2.get(k, 0) - gf2.get(k + 1, 0))
    euler_characteristic(cx)


def test_leftover_block_gives_lcm_factor(monkeypatch):
    blocks = []

    def spy(matrix):
        blocks.append([list(row) for row in matrix])
        return smith_normal_form(matrix)

    monkeypatch.setattr(snf_mod, "smith_normal_form", spy)
    assert sparse_invariant_factors(columns_of([[2, 0], [0, 3]])) == [1, 6]
    assert blocks == [[[2, 0], [0, 3]]]


def test_rp2_boundary_torsion_comes_from_leftover():
    rp2 = make_rp2()
    factors = sparse_invariant_factors(boundary_columns(rp2, 2))
    assert factors == [1] * (len(factors) - 1) + [2]
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


def test_each_boundary_matrix_is_reduced_once_per_ring(monkeypatch):
    cx = make_torus(3)
    calls = []

    def counting(columns):
        calls.append(id(columns))
        return sparse_invariant_factors(columns)

    def no_dense(*args, **kwargs):
        raise AssertionError("dense matrix built for a rank or membership")

    monkeypatch.setattr(homology_mod, "sparse_invariant_factors", counting)
    monkeypatch.setattr(homology_mod, "dense_rows", no_dense)
    monkeypatch.setattr(homology_mod, "smith_normal_form", no_dense)
    for ring in (RING_INT, RING_MOD2, RING_REAL):
        for k in range(-1, cx.dim + 2):
            homology(cx, k, ring)
            cohomology(cx, k, ring)
        betti_numbers(cx, ring)
    assert euler_characteristic(cx) == 0
    # One integer reduction per matrix serves all three rings.
    assert len(calls) == len(set(calls)) == cx.dim

    # Membership tests reduce only [d_k | b], never the cached d_k again.
    base = {id(boundary_columns(cx, k)) for k in range(1, cx.dim + 1)}
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
    assert sum(1 for key in calls if key in base) == cx.dim
    assert not any(key[0] == "incidence" for key in cx._cache)


def matrix_complex(matrix):
    """A 1-dimensional complex whose d_1 is ``matrix``: rows are vertices."""
    vertices = [Cell((i,), ()) for i in range(len(matrix))]
    edges = [Cell((0,), tuple((i, row[j]) for i, row in enumerate(matrix)
                              if row[j]))
             for j in range(len(matrix[0]))]
    return DeltaComplex(range(len(matrix)), [vertices, edges])


def test_even_factors_other_than_two_vanish_over_the_fields():
    cx = matrix_complex([[4, 0, 0], [0, 6, 0], [0, 0, 3]])
    assert sparse_invariant_factors(boundary_columns(cx, 1)) == [1, 6, 12]
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

    def counting(matrix):
        calls.append(matrix)
        return snf_mod.smith_normal_form(matrix)

    monkeypatch.setattr(homology_mod, "smith_normal_form", counting)
    ball = DeltaComplex.from_simplices([("A", "B", "C", "D")])
    assert homology_generators(ball, 3) == []
    assert homology_generators(make_disc(), 2) == []
    assert calls == []
    # The spy does see the dense path when the group is nonzero: one
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
        return homology_mod._over(ring, len(factors),
                                  tuple(d for d in factors if d > 1))

    assert sparse_invariant_factors([]) == []
    assert sparse_invariant_factors([{}, {0: 0}]) == []
    assert sparse_invariant_factors([{0: 2}]) == [2]
    assert over([]) == (0, ())
    assert over([{}, {0: 0}]) == (0, ())
    # A lone factor 2 is rank 1 over Z and vanishes modulo 2.
    assert over([{0: 2}]) == ((1, (2,)) if ring == RING_INT else (0, ()))
