"""Exact integer matrix kernels.

Everything here works on plain Python ints so intermediate values can grow
without overflow; numpy arrays are accepted at the boundary and converted.
No kernel knows about coefficient rings: every reduction is over Z, and
the ranks over a field follow from the invariant factors.

Boundary matrices arrive as sparse columns, ``{row id: entry}``.
``sparse_invariant_factors`` eliminates their +-1 pivots and hands only
the leftover non-unit block to the dense Euclidean reducer; appending a
vector as one more column and comparing the factors decides whether it
lies in the image.  One dense Smith reducer serves the leftover block,
which reads only its diagonal, and the explicit generators, which read
the column transform V, its inverse and the inverse of the row
transform.  Its rows come from ``dense_rows``, the one step from columns
to dense rows.
"""

from __future__ import annotations

import heapq
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


def sparse_invariant_factors(
        columns: Sequence[Mapping[int, int]]) -> list[int]:
    """Nonzero invariant factors of a sparse integer matrix.

    ``columns[j]`` maps row ids to the nonzero entries of column j; it is
    read, never modified.

    Only +-1 pivots are eliminated sparsely.  Their row and column
    operations are unimodular, so SNF(A) = I_r + SNF(S) with S the Schur
    complement left when no column holds a unit entry any more.  S goes
    to ``smith_normal_form`` as a dense block and its nonzero diagonal
    follows the r ones, keeping the divisibility order.

    Pivot order is shortest column first (a lazy heap: a column is pushed
    again whenever an elimination changes it) and, within the column, the
    unit entry whose row has the fewest entries.
    """
    cols = [{r: v for r, v in col.items() if v} for col in columns]
    rows: dict[int, set[int]] = {}
    for j, col in enumerate(cols):
        for r in col:
            rows.setdefault(r, set()).add(j)
    heap = [(len(col), j) for j, col in enumerate(cols) if col]
    heapq.heapify(heap)
    rank = 0
    while heap:
        length, j = heapq.heappop(heap)
        col_j = cols[j]
        if col_j is None or len(col_j) != length:
            continue  # stale entry; the column was pushed again or removed
        units = [r for r, v in col_j.items() if v == 1 or v == -1]
        if not units:
            continue  # re-pushed if a later elimination changes it
        i = min(units, key=lambda r: (len(rows[r]), r))
        p = col_j[i]
        # Column operations clear row i outside column j; row operations
        # then clear column j, touching nothing else, so both drop out.
        for c in rows[i] - {j}:
            col_c = cols[c]
            f = col_c[i] * p
            for r, v in col_j.items():
                nv = col_c.get(r, 0) - f * v
                if nv:
                    if r not in col_c:
                        rows[r].add(c)
                    col_c[r] = nv
                elif r in col_c:
                    del col_c[r]
                    rows[r].discard(c)
            if col_c:
                heapq.heappush(heap, (len(col_c), c))
        for r in col_j:
            rows[r].discard(j)
        cols[j] = None
        rank += 1
    factors = [1] * rank
    leftover = [col for col in cols if col]
    if leftover:
        row_ids = sorted({r for col in leftover for r in col})
        block = dense_rows(leftover, row_ids)
        factors.extend(d for d in smith_normal_form(block).diagonal if d)
    return factors
