import random

import numpy as np
import pytest

from crystaltopo import (
    exact_determinant,
    smith_diagonal,
    smith_normal_form,
    solve_integer,
)
from crystaltopo.snf import gf2_rank, matmul_int

from oracles import (
    det_oracle,
    determinantal_divisors,
    gf2_rank_oracle,
    snf_diagonal_oracle,
)


def test_identity_is_fixed():
    dec = smith_normal_form(np.eye(3, dtype=int))
    assert smith_diagonal(np.eye(3, dtype=int)) == [1, 1, 1]
    assert dec.D == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_single_entry():
    assert smith_diagonal([[2]]) == [2]
    # zero rows/columns stay as explicit zeros at the tail of the diagonal
    assert smith_diagonal([[0]]) == [0]


def test_two_by_two_with_torsion():
    # gcd of entries is 2, determinant is -8, so factors are 2 and 4
    assert smith_diagonal([[2, 4], [6, 8]]) == [2, 4]


def test_diagonal_input_gets_sorted_into_divisibility_chain():
    assert smith_diagonal([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == [1, 2, 12]


def test_zero_matrix():
    assert smith_diagonal(np.zeros((3, 4), dtype=int)) == [0, 0, 0]


def test_divisibility_chain_holds():
    rng = random.Random(7)
    for _ in range(50):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        d = [x for x in smith_diagonal(m) if x != 0]
        for a, b in zip(d, d[1:]):
            assert b % a == 0


def test_matches_independent_reduction():
    rng = random.Random(13)
    for _ in range(120):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]
        got = [x for x in smith_diagonal(m) if x != 0]
        assert got == snf_diagonal_oracle(m)


def test_matches_minor_gcds_on_small_cases():
    rng = random.Random(29)
    for _ in range(40):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        m = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]
        got = [x for x in smith_diagonal(m) if x != 0]
        assert got == determinantal_divisors(m)


def test_transforms_reconstruct_and_are_unimodular():
    rng = random.Random(41)
    for _ in range(60):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = [[rng.randint(-7, 7) for _ in range(c)] for _ in range(r)]
        dec = smith_normal_form(m)
        assert matmul_int(matmul_int(dec.U, m), dec.V) == dec.D
        assert abs(exact_determinant(dec.U)) == 1
        assert abs(exact_determinant(dec.V)) == 1
        # uinv really is the inverse of U
        ident = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        assert matmul_int(dec.U, dec.uinv) == ident


def test_exact_determinant_against_cofactors():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(n)]
        assert exact_determinant(m) == det_oracle(m)


def test_exact_determinant_no_float_drift():
    # big enough that float64 determinants go wrong
    m = [[10 ** 6, 10 ** 6 + 1], [10 ** 6 - 1, 10 ** 6]]
    assert exact_determinant(m) == 10 ** 12 - (10 ** 12 - 1)


def test_solve_integer_solvable():
    x = solve_integer([[2, 0], [0, 3]], [4, 9])
    assert x == [2, 3]


def test_solve_integer_unsolvable_over_z():
    # solvable over Q but not Z
    assert solve_integer([[2]], [3]) is None
    # not solvable at all
    assert solve_integer([[1, 1], [1, 1]], [0, 1]) is None


def test_solve_integer_underdetermined():
    x = solve_integer([[1, 1]], [5])
    assert x is not None
    assert x[0] + x[1] == 5


def test_gf2_rank_matches_oracle():
    rng = random.Random(17)
    for _ in range(80):
        r = rng.randint(1, 7)
        c = rng.randint(1, 7)
        m = [[rng.randint(0, 1) for _ in range(c)] for _ in range(r)]
        assert gf2_rank(m) == gf2_rank_oracle(m)


def test_rejects_non_integer_input():
    with pytest.raises(ValueError):
        smith_normal_form([[1.5, 0], [0, 1]])
    # integral floats are fine
    assert smith_diagonal([[2.0]]) == [2]
