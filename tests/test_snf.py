import random

import numpy as np
import pytest

from crystaltopo import smith_normal_form

from oracles import (
    det_oracle,
    determinantal_divisors,
    matmul_oracle,
    snf_diagonal_oracle,
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
