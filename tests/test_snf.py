import random

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from crystaltopo import build_lattice_complex, smith_normal_form
from crystaltopo.errors import ComplexBuildError
from crystaltopo.snf import invariant_factors

from conftest import (
    dense_boundary,
    lattice_specs,
    make_mobius,
    make_rp2,
    make_sphere,
    make_torus,
)
from oracles import (
    det_oracle,
    determinantal_divisors,
    matmul_oracle,
    snf_diagonal_oracle,
    tracked_smith_oracle,
)


def test_identity_is_fixed():
    dec = smith_normal_form(np.eye(3, dtype=int))
    assert smith_normal_form(np.eye(3, dtype=int)).diagonal == [1, 1, 1]
    assert dec.D == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_single_entry():
    assert smith_normal_form([[2]]).diagonal == [2]
    # zero rows/columns stay as explicit zeros at the tail of the diagonal
    assert smith_normal_form([[0]]).diagonal == [0]


def test_two_by_two_with_torsion():
    # gcd of entries is 2, determinant is -8, so factors are 2 and 4
    assert smith_normal_form([[2, 4], [6, 8]]).diagonal == [2, 4]


def test_diagonal_input_gets_sorted_into_divisibility_chain():
    dec = smith_normal_form([[2, 0, 0], [0, 3, 0], [0, 0, 4]])
    assert dec.diagonal == [1, 2, 12]


def test_zero_matrix():
    assert smith_normal_form(np.zeros((3, 4), dtype=int)).diagonal == [0, 0, 0]


def test_divisibility_chain_holds():
    rng = random.Random(7)
    for _ in range(50):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        d = [x for x in smith_normal_form(m).diagonal if x != 0]
        for a, b in zip(d, d[1:]):
            assert b % a == 0


def test_matches_independent_reduction():
    rng = random.Random(13)
    for _ in range(120):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]
        got = [x for x in smith_normal_form(m).diagonal if x != 0]
        assert got == snf_diagonal_oracle(m)


def test_matches_minor_gcds_on_small_cases():
    rng = random.Random(29)
    for _ in range(40):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        m = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]
        got = [x for x in smith_normal_form(m).diagonal if x != 0]
        assert got == determinantal_divisors(m)


def test_transforms_reconstruct_and_are_unimodular():
    rng = random.Random(41)
    for _ in range(60):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = [[rng.randint(-7, 7) for _ in range(c)] for _ in range(r)]
        dec = smith_normal_form(m)
        assert matmul_oracle(m, dec.V) == matmul_oracle(dec.uinv, dec.D)
        assert all(x == 0 for i, row in enumerate(dec.D)
                   for j, x in enumerate(row) if i != j)
        assert abs(det_oracle(dec.uinv)) == 1
        assert abs(det_oracle(dec.V)) == 1
        # vinv really is the inverse of V
        ident = [[1 if i == j else 0 for j in range(c)] for i in range(c)]
        assert matmul_oracle(dec.V, dec.vinv) == ident
        assert matmul_oracle(dec.vinv, dec.V) == ident


def test_rejects_non_integer_input():
    with pytest.raises(ValueError):
        smith_normal_form([[1.5, 0], [0, 1]])
    # integral floats are fine
    assert smith_normal_form([[2.0]]).diagonal == [2]


@pytest.mark.parametrize("matrix,message", [
    ([[1, 2], [3, 2.5]], "non-integer entry 2.5"),
    ([[1, "3"]], "non-integer entry '3'"),
    (((1, 2), (3, 4.25)), "non-integer entry 4.25"),
    (np.array([[0.5, 1.0]]), "non-integer entry 0.5"),
    ([[1, 2], [3]], "ragged matrix"),
    ([[1], [float("nan")]], None),
    ([["a"]], None)])
def test_entries_are_refused_with_a_reason(matrix, message):
    with pytest.raises(ValueError, match=message):
        smith_normal_form(matrix)


def test_integral_rows_of_any_sequence_type_are_read():
    want = smith_normal_form([[2, 4], [6, 8]]).diagonal
    for matrix in (np.array([[2, 4], [6, 8]]), np.array([[2.0, 4.0], [6, 8]]),
                   ((2, 4), (6, 8)), [np.array([2, 4]), np.array([6, 8])],
                   [[2.0, 4], [6, 8.0]]):
        assert smith_normal_form(matrix).diagonal == want


# ---------------------------------------------------------------------------
# The sparse replay against the dense reducer it replays
# ---------------------------------------------------------------------------

def assert_replays(matrix):
    """D, V, U^-1 and V^-1 equal the dense reducer's entry for entry; the
    sparse columns of V and the untracked factors agree with them."""
    dec = smith_normal_form(matrix)
    D, V, uinv, vinv = tracked_smith_oracle(matrix)
    assert (dec.D, dec.V, dec.uinv, dec.vinv) == (D, V, uinv, vinv)
    n = len(V)
    assert [dec.v_column(q) for q in range(n)] == [
        {i: row[q] for i, row in enumerate(V) if row[q]} for q in range(n)]
    columns = [{i: row[j] for i, row in enumerate(matrix) if row[j]}
               for j in range(n)]
    assert invariant_factors(columns) == [d for d in dec.diagonal if d]


@st.composite
def replay_matrices(draw):
    """Shapes 0-9 by 0-9, 1 x n and m x 1 among them, with some zero rows
    and columns."""
    rows = draw(st.integers(0, 9))
    cols = draw(st.integers(0, 9))
    entries = st.sampled_from([0, 0, 1, -1, 2, -2, 3, 4, -6])
    matrix = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    for row in draw(st.lists(st.integers(0, rows - 1), max_size=2)
                    if rows else st.just([])):
        matrix[row] = [0] * cols
    for col in draw(st.lists(st.integers(0, cols - 1), max_size=2)
                    if cols else st.just([])):
        for row in matrix:
            row[col] = 0
    return matrix


@settings(max_examples=400, deadline=None)
@given(replay_matrices())
def test_sparse_replay_matches_the_dense_reducer(matrix):
    assert_replays(matrix)


@pytest.mark.parametrize("matrix", [
    [], [[]], [[], []], [[0]], [[-2]], [[0, 0, 0]], [[3], [0], [-6]],
    [[2, 4, -6]], [[4], [-6]], [[2, 0], [0, 3]]])
def test_sparse_replay_matches_the_dense_reducer_on_edge_shapes(matrix):
    assert_replays(matrix)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(lattice_specs())
def test_sparse_replay_matches_the_dense_reducer_on_lattice_boundaries(spec):
    try:
        cx, _ = build_lattice_complex(spec)
    except ComplexBuildError:
        assume(False)  # every site removed, or a vacancy hit its own orbit
    for k in range(1, cx.dim + 1):
        assert_replays(dense_boundary(cx, k).tolist())


@pytest.mark.parametrize("make", [
    lambda: make_torus(5), lambda: make_torus(4, "cubic"), make_rp2,
    make_mobius, make_sphere], ids=[
    "triangular-torus-5", "cubic-torus-4", "rp2", "mobius", "pinched-sphere"])
def test_sparse_replay_matches_the_dense_reducer_on_larger_boundaries(make):
    cx = make()
    for k in range(1, cx.dim + 1):
        assert_replays(dense_boundary(cx, k).tolist())
