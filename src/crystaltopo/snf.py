"""Exact integer matrix kernels.

Everything here works on plain Python ints so intermediate values can grow
without overflow; numpy arrays are accepted at the boundary and converted.
No kernel knows about coefficient rings: every reduction is over Z, and
the ranks over a field follow from the invariant factors.

One dense Smith reducer serves the small Morse blocks that the
coreduction walk of :mod:`crystaltopo.homology` leaves, through
``invariant_factors``, which reads only the diagonal, and the explicit
generators, which read the column transform V, its inverse and the
inverse of the row transform.  Its rows come from ``dense_rows``, the
one step from sparse columns to dense rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence


def _as_int_rows(matrix) -> list[list[int]]:
    """Copy ``matrix`` (numpy array or nested sequence) into int lists."""
    rows = []
    for row in matrix.tolist() if hasattr(matrix, "tolist") else matrix:
        row = row if type(row) is list else list(row)
        out = list(map(int, row))
        if out != row:
            raise ValueError("non-integer entry "
                             f"{next(x for v, x in zip(out, row) if v != x)!r}")
        rows.append(out)
    if len(set(map(len, rows))) > 1:
        raise ValueError("ragged matrix")
    return rows


def dense_rows(columns: Sequence[Mapping[int, int]],
               row_ids: Sequence[int]) -> list[list[int]]:
    """Rows ``row_ids`` of the matrix with these sparse columns, as int
    lists; every row id of a column must be listed."""
    pos = {r: t for t, r in enumerate(row_ids)}
    rows = [[0] * len(columns) for _ in row_ids]
    for t, col in enumerate(columns):
        for r, v in col.items():
            rows[pos[r]][t] = v
    return rows


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


@dataclass
class SmithDecomposition:
    """Result of ``smith_normal_form``: A @ V == uinv @ D.

    V and ``uinv`` are square unimodular (|det| = 1), ``uinv`` being the
    inverse of the row transform U of U @ A @ V == D; D is diagonal with
    nonnegative entries, each dividing the next.  ``vinv`` is the exact
    inverse of V.  Both inverses are updated alongside the reduction, so
    no inversion pass is needed.
    """

    D: list[list[int]]
    V: list[list[int]]
    uinv: list[list[int]]
    vinv: list[list[int]]

    @property
    def diagonal(self) -> list[int]:
        n = min(len(self.D), len(self.D[0]) if self.D else 0)
        return [self.D[i][i] for i in range(n)]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def _min_abs_position(A, start: int) -> tuple[int, int] | None:
    """Smallest nonzero |entry| in A[start:, start:], rows scanned first."""
    best = None
    best_val = None
    for i in range(start, len(A)):
        row = A[i]
        for j in range(start, len(row)):
            v = row[j]
            if v != 0:
                a = -v if v < 0 else v
                if best_val is None or a < best_val:
                    best, best_val = (i, j), a
                    if a == 1:
                        return best
    return best


class _Reducer:
    """Row/column reduction driver tracking V, V^-1 and U^-1.

    U itself is never built: no caller reads it.
    """

    def __init__(self, matrix):
        self.A = _as_int_rows(matrix)
        self.m = len(self.A)
        self.n = len(self.A[0]) if self.A else 0
        self.uinv = identity(self.m)
        self.V = identity(self.n)
        self.vinv = identity(self.n)

    # A row operation E (A -> E A) takes uinv to uinv E^-1, a column
    # operation F (A -> A F) takes V to V F and vinv to F^-1 vinv, so
    # input @ V == uinv @ A holds throughout.
    def swap_rows(self, i, j):
        if i == j:
            return
        self.A[i], self.A[j] = self.A[j], self.A[i]
        for row in self.uinv:
            row[i], row[j] = row[j], row[i]

    def add_row(self, dst, src, k):
        if k == 0:
            return
        a_dst, a_src = self.A[dst], self.A[src]
        for idx in range(self.n):
            a_dst[idx] += k * a_src[idx]
        for row in self.uinv:
            row[src] -= k * row[dst]

    def negate_row(self, i):
        self.A[i] = [-x for x in self.A[i]]
        for row in self.uinv:
            row[i] = -row[i]

    def swap_cols(self, i, j):
        if i == j:
            return
        for row in self.A:
            row[i], row[j] = row[j], row[i]
        for row in self.V:
            row[i], row[j] = row[j], row[i]
        self.vinv[i], self.vinv[j] = self.vinv[j], self.vinv[i]

    def add_col(self, dst, src, k):
        if k == 0:
            return
        for row in self.A:
            row[dst] += k * row[src]
        for row in self.V:
            row[dst] += k * row[src]
        v_src, v_dst = self.vinv[src], self.vinv[dst]
        for idx in range(self.n):
            v_src[idx] -= k * v_dst[idx]

    def reduce(self) -> None:
        """Diagonalize A in place with the divisibility chain."""
        A = self.A
        s = 0
        limit = min(self.m, self.n)
        while s < limit:
            pos = _min_abs_position(A, s)
            if pos is None:
                break
            self.swap_rows(s, pos[0])
            self.swap_cols(s, pos[1])
            # Euclidean sweeps: clear column s and row s; every remainder
            # round strictly shrinks |pivot| so this terminates.
            while True:
                pivot = A[s][s]
                dirty = False
                for i in range(s + 1, self.m):
                    if A[i][s] != 0:
                        q = A[i][s] // pivot
                        self.add_row(i, s, -q)
                        if A[i][s] != 0:
                            dirty = True
                for j in range(s + 1, self.n):
                    if A[s][j] != 0:
                        q = A[s][j] // pivot
                        self.add_col(j, s, -q)
                        if A[s][j] != 0:
                            dirty = True
                if not dirty:
                    break
                pos = _min_abs_position(A, s)
                self.swap_rows(s, pos[0])
                self.swap_cols(s, pos[1])
            # Enforce divisibility: pivot must divide the whole tail block.
            # A unit divides everything, so only other pivots need the scan.
            pivot = A[s][s]
            offender = None
            if pivot not in (1, -1):
                for i in range(s + 1, self.m):
                    row = A[i]
                    for j in range(s + 1, self.n):
                        if row[j] % pivot != 0:
                            offender = i
                            break
                    if offender is not None:
                        break
            if offender is not None:
                self.add_row(s, offender, 1)
                continue
            if pivot < 0:
                self.negate_row(s)
            s += 1


def smith_normal_form(matrix) -> SmithDecomposition:
    """Smith normal form with transforms: A @ V == uinv @ D.

    Pivot selection takes the smallest nonzero absolute value in the
    working block, scanning rows before columns, which keeps entry growth
    modest on sparse incidence matrices.
    """
    red = _Reducer(matrix)
    red.reduce()
    return SmithDecomposition(D=red.A, V=red.V, uinv=red.uinv,
                              vinv=red.vinv)


def invariant_factors(columns: Sequence[Mapping[int, int]]) -> list[int]:
    """Nonzero invariant factors of the matrix with these sparse columns,
    ``{row id: entry}``, in divisibility order.

    Zero rows and columns change no factor and are left out; the rest
    goes to ``smith_normal_form`` as one dense block.
    """
    columns = [col for col in columns if any(col.values())]
    if not columns:
        return []
    row_ids = sorted({r for col in columns for r in col})
    return [d for d in smith_normal_form(dense_rows(columns, row_ids)).diagonal
            if d]
