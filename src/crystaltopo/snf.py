"""Exact integer matrix kernels.

Everything here works on plain Python ints so intermediate values can grow
without overflow; numpy arrays are accepted at the boundary and converted.
No kernel knows about coefficient rings: every reduction is over Z, and
the ranks over a field follow from the invariant factors.

One Smith reducer, on sparse rows and columns, serves the small Morse
blocks that the coreduction walk of :mod:`crystaltopo.homology` leaves,
through ``invariant_factors``, which reads only the diagonal, and the
explicit generators, which read the column transform V, its inverse and
the inverse of the row transform as sparse vectors (V-tracking on sparse
columns as in Zomorodian and Carlsson, "Computing persistent homology",
2005).  Swaps only permute positions; ``smith_normal_form`` builds the
dense matrices when they are read.
"""

from __future__ import annotations

from functools import cached_property
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


def add_multiple(x: dict[int, int], y: Mapping[int, int], k: int) -> None:
    """x += k * y for sparse vectors, in place; entries that cancel go."""
    for i, v in y.items():
        w = x.get(i, 0) + k * v
        if w:
            x[i] = w
        else:
            del x[i]


def _add_line(lines: list[dict[int, int]], cross: list[dict[int, int]],
              dst: int, src: int, k: int) -> None:
    """Line dst += k * line src of A held as ``lines``, mirrored in the
    other orientation ``cross``."""
    line = lines[dst]
    for t, v in lines[src].items():
        w = line.get(t, 0) + k * v
        if w:
            line[t] = cross[t][dst] = w
        else:
            del line[t], cross[t][dst]


class SmithDecomposition:
    """Smith normal form with transforms: A @ V == uinv @ D.

    V and ``uinv`` are square unimodular (|det| = 1), ``uinv`` being the
    inverse of the row transform U of U @ A @ V == D; D is diagonal with
    nonnegative entries, each dividing the next.  ``vinv`` is the exact
    inverse of V.  Both inverses are updated alongside the reduction, so
    no inversion pass is needed.

    A is reduced in place as sparse rows and columns keyed by original
    index; ``row_at`` and ``col_at`` give the index at each position.  V
    and U^-1 are kept as sparse columns and V^-1 as sparse rows, keyed by
    the index whose position they follow, so a swap moves no entry.
    ``v_column``, ``vinv_row`` and ``uinv_column`` read them by position;
    D, V, ``uinv`` and ``vinv`` are dense and built on first read.
    Without ``track_v`` V and V^-1 are not kept, without ``track_u`` U^-1.
    """

    def __init__(self, columns: Sequence[Mapping[int, int]], n_rows: int,
                 track_v: bool = True, track_u: bool = True):
        self.m, self.n = n_rows, len(columns)
        self.cols = [{i: v for i, v in col.items() if v} for col in columns]
        self.rows: list[dict[int, int]] = [{} for _ in range(n_rows)]
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                self.rows[i][j] = v
        self.row_at, self.row_pos = list(range(self.m)), list(range(self.m))
        self.col_at, self.col_pos = list(range(self.n)), list(range(self.n))
        self.track_v, self.track_u = track_v, track_u
        self._v = [{j: 1} for j in range(self.n)] if track_v else None
        self._vinv = [{j: 1} for j in range(self.n)] if track_v else None
        self._uinv = [{i: 1} for i in range(self.m)] if track_u else None
        self._reduce()

    # A row operation E (A -> E A) takes uinv to uinv E^-1, a column
    # operation F (A -> A F) takes V to V F and vinv to F^-1 vinv, so
    # input @ V == uinv @ A holds throughout.
    def _add_row(self, dst: int, src: int, k: int) -> None:
        _add_line(self.rows, self.cols, dst, src, k)
        if self.track_u:
            add_multiple(self._uinv[src], self._uinv[dst], -k)

    def _add_col(self, dst: int, src: int, k: int) -> None:
        _add_line(self.cols, self.rows, dst, src, k)
        if self.track_v:
            add_multiple(self._v[dst], self._v[src], k)
            add_multiple(self._vinv[src], self._vinv[dst], -k)

    def _negate_row(self, i: int) -> None:
        row = self.rows[i]
        for j, v in row.items():
            row[j] = self.cols[j][i] = -v
        if self.track_u:
            self._uinv[i] = {t: -v for t, v in self._uinv[i].items()}

    def _pivot_to(self, s: int) -> bool:
        """Swap the smallest nonzero |entry| at positions s and beyond, the
        first in row-major order, to (s, s); False when there is none.
        Rows past s hold no entry in a column before s."""
        best = None
        for p in range(s, self.m):
            row = self.rows[self.row_at[p]]
            if row:
                a, q = min((abs(v), self.col_pos[j]) for j, v in row.items())
                if best is None or a < best[0]:
                    best = (a, p, q)
                    if a == 1:
                        break
        if best is None:
            return False
        for at, pos, p in ((self.row_at, self.row_pos, best[1]),
                           (self.col_at, self.col_pos, best[2])):
            at[s], at[p] = at[p], at[s]
            pos[at[s]], pos[at[p]] = s, p
        return True

    def _reduce(self) -> None:
        """Diagonalize A with the divisibility chain."""
        rows, cols = self.rows, self.cols
        s = 0
        while s < min(self.m, self.n) and self._pivot_to(s):
            # Euclidean sweeps: clear column s and row s; every remainder
            # round strictly shrinks |pivot| so this terminates.  The pivot
            # is the least |entry| left, so no quotient is 0.
            while True:
                r, c = self.row_at[s], self.col_at[s]
                pivot = rows[r][c]
                dirty = False
                for i, v in list(cols[c].items()):
                    if i != r:
                        self._add_row(i, r, -(v // pivot))
                        dirty = dirty or c in rows[i]
                for j, v in list(rows[r].items()):
                    if j != c:
                        self._add_col(j, c, -(v // pivot))
                        dirty = dirty or j in rows[r]
                if not dirty:
                    break
                self._pivot_to(s)
            # Enforce divisibility: pivot must divide the whole tail block.
            # A unit divides everything, so only other pivots need the scan.
            r = self.row_at[s]
            pivot = rows[r][self.col_at[s]]
            if pivot not in (1, -1):
                offender = next((i for i in self.row_at[s + 1:]
                                 if any(v % pivot for v in rows[i].values())),
                                None)
                if offender is not None:
                    self._add_row(r, offender, 1)
                    continue
            if pivot < 0:
                self._negate_row(r)
            s += 1

    def v_column(self, q: int) -> dict[int, int]:
        return self._v[self.col_at[q]]

    def vinv_row(self, q: int) -> dict[int, int]:
        return self._vinv[self.col_at[q]]

    def uinv_column(self, p: int) -> dict[int, int]:
        return self._uinv[self.row_at[p]]

    @property
    def diagonal(self) -> list[int]:
        return [self.rows[self.row_at[t]].get(self.col_at[t], 0)
                for t in range(min(self.m, self.n))]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)

    @cached_property
    def D(self) -> list[list[int]]:
        return [[self.rows[r].get(c, 0) for c in self.col_at]
                for r in self.row_at]

    @cached_property
    def V(self) -> list[list[int]]:
        return [[self._v[c].get(i, 0) for c in self.col_at]
                for i in range(self.n)]

    @cached_property
    def uinv(self) -> list[list[int]]:
        return [[self._uinv[r].get(i, 0) for r in self.row_at]
                for i in range(self.m)]

    @cached_property
    def vinv(self) -> list[list[int]]:
        return [[self._vinv[c].get(j, 0) for j in range(self.n)]
                for c in self.col_at]


def smith_normal_form(matrix) -> SmithDecomposition:
    """Smith normal form with transforms: A @ V == uinv @ D.

    Pivot selection takes the smallest nonzero absolute value in the
    working block, scanning rows before columns, which keeps entry growth
    modest on sparse incidence matrices.
    """
    rows = _as_int_rows(matrix)
    return SmithDecomposition(
        [{i: row[j] for i, row in enumerate(rows) if row[j]}
         for j in range(len(rows[0]) if rows else 0)], len(rows))


def invariant_factors(columns: Sequence[Mapping[int, int]]) -> list[int]:
    """Nonzero invariant factors of the matrix with these sparse columns,
    ``{row id: entry}``, in divisibility order.

    Zero rows and columns change no factor and are left out; the rest is
    reduced without transforms, rows in id order.
    """
    columns = [col for col in columns if any(col.values())]
    if not columns:
        return []
    place = {r: t for t, r in enumerate(sorted({r for col in columns
                                                for r in col}))}
    dec = SmithDecomposition([{place[r]: v for r, v in col.items()}
                              for col in columns], len(place),
                             track_v=False, track_u=False)
    return [d for d in dec.diagonal if d]
