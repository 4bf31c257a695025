"""Independent reference implementations used to pin expected test values.

Everything in this file is deliberately written from scratch with different
algorithms (and different failure modes) than the package under test.  Keep
it dependency-free apart from numpy so a bug in the package cannot leak in
here.  Do not import crystaltopo from this module.
"""

import itertools
import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# Smith normal form, the slow way
# ---------------------------------------------------------------------------

def snf_diagonal_oracle(matrix):
    """Invariant factors of an integer matrix by textbook recursive reduction.

    Pivot choice, elimination order, and data layout all differ from the
    production routine: we recurse on copies, always pick the entry of
    smallest absolute value in the whole submatrix, and never track
    transforms.  Returns the nonzero diagonal as a list.
    """
    a = [[int(x) for x in row] for row in np.atleast_2d(matrix)]
    return _snf_recurse(a)


def _snf_recurse(a):
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if rows == 0 or cols == 0:
        return []
    # locate smallest nonzero entry anywhere
    best = None
    for i in range(rows):
        for j in range(cols):
            if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                best = (i, j)
    if best is None:
        return []
    bi, bj = best
    a[0], a[bi] = a[bi], a[0]
    for row in a:
        row[0], row[bj] = row[bj], row[0]
    # chip away until the pivot divides its whole row and column
    while True:
        pivot = a[0][0]
        dirty = False
        for i in range(1, rows):
            q = a[i][0] // pivot
            if a[i][0] % pivot:
                dirty = True
            for j in range(cols):
                a[i][j] -= q * a[0][j]
        for j in range(1, cols):
            q = a[0][j] // pivot
            if a[0][j] % pivot:
                dirty = True
            for i in range(rows):
                a[i][j] -= q * a[i][0]
        if not dirty and all(a[i][0] == 0 for i in range(1, rows)) \
                and all(a[0][j] == 0 for j in range(1, cols)):
            break
        # a nonzero remainder is now strictly smaller than the pivot; re-pick
        best = (0, 0)
        for i in range(rows):
            for j in range(cols):
                if a[i][j] != 0 and abs(a[i][j]) < abs(a[best[0]][best[1]]):
                    best = (i, j)
        bi, bj = best
        a[0], a[bi] = a[bi], a[0]
        for row in a:
            row[0], row[bj] = row[bj], row[0]
    pivot = abs(a[0][0])
    rest = [[a[i][j] for j in range(1, cols)] for i in range(1, rows)]
    tail = _snf_recurse(rest)
    diag = [pivot] + tail
    # enforce the divisibility chain by gcd/lcm folding
    for i in range(len(diag) - 1):
        for j in range(i + 1, len(diag)):
            g = math.gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag


def det_oracle(matrix):
    """Exact determinant by cofactor expansion.  Only sane for n <= 7."""
    a = [[int(x) for x in row] for row in np.atleast_2d(matrix)]
    n = len(a)
    assert all(len(row) == n for row in a)
    if n == 0:
        return 1
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        if a[0][j] == 0:
            continue
        minor = [[a[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * a[0][j] * det_oracle(minor)
    return total


def determinantal_divisors(matrix):
    """Invariant factors via gcds of k-by-k minors.  Exponential; keep small."""
    a = np.atleast_2d(np.asarray(matrix, dtype=object))
    rows, cols = a.shape
    from itertools import combinations
    divisors = [1]
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                sub = [[int(a[i][j]) for j in csel] for i in rsel]
                g = math.gcd(g, abs(det_oracle(sub)))
        if g == 0:
            break
        divisors.append(g)
    return [divisors[i] // divisors[i - 1] for i in range(1, len(divisors))]


def gf2_rank_oracle(matrix):
    """Rank over GF(2) by list-based row elimination."""
    rows = [[int(x) % 2 for x in row] for row in np.atleast_2d(matrix)]
    if not rows:
        return 0
    cols = len(rows[0])
    rank = 0
    for j in range(cols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][j]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                rows[i] = [(x + y) % 2 for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# Geometry and field oracles
# ---------------------------------------------------------------------------

def winding_oracle(angles):
    """Net turns of a closed angle sequence, summed via complex phases."""
    total = 0.0
    n = len(angles)
    for i in range(n):
        z = complex(math.cos(angles[(i + 1) % n] - angles[i]),
                    math.sin(angles[(i + 1) % n] - angles[i]))
        total += math.atan2(z.imag, z.real)
    return total / (2.0 * math.pi)


def solid_angle_oracle(a, b, c):
    """Signed solid angle of a unit-vector triangle, via l'Huilier.

    Magnitude from the spherical excess, sign from the scalar triple
    product.  Independent of the atan2(det, ...) form used in the package.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)

    def arc(u, v):
        return math.atan2(np.linalg.norm(np.cross(u, v)), float(np.dot(u, v)))

    al, bl, cl = arc(b, c), arc(a, c), arc(a, b)
    s = (al + bl + cl) / 2.0
    inner = (math.tan(s / 2) * math.tan((s - al) / 2)
             * math.tan((s - bl) / 2) * math.tan((s - cl) / 2))
    inner = max(inner, 0.0)
    omega = 4.0 * math.atan(math.sqrt(inner))
    sign = np.linalg.det(np.stack([a, b, c]))
    return omega if sign >= 0 else -omega


def components_oracle(n_vertices, edges):
    """Connected components by plain BFS over an adjacency list."""
    adj = {v: [] for v in range(n_vertices)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {}
    label = 0
    for start in range(n_vertices):
        if start in seen:
            continue
        queue = [start]
        seen[start] = label
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if w not in seen:
                    seen[w] = label
                    queue.append(w)
        label += 1
    return seen


def rational_rank(matrix):
    """Rank over the rationals, by Fraction Gauss elimination.

    Entries may be ints, Fractions or floats; a float counts at its exact
    binary value.
    """
    a = [[Fraction(x) for x in row] for row in matrix]
    rows, cols = len(a), (len(a[0]) if a else 0)
    rank = 0
    for j in range(cols):
        pivot = None
        for i in range(rank, rows):
            if a[i][j] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = 1 / a[rank][j]
        a[rank] = [x * inv for x in a[rank]]
        for i in range(rows):
            if i != rank and a[i][j] != 0:
                f = a[i][j]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# Periodic grids, the slow way
# ---------------------------------------------------------------------------

def periodic_orbits_oracle(sites, box, axes):
    """Every site of ``box`` that a translation by whole periods along the
    0-based ``axes`` carries onto one of ``sites``, found by listing each
    coordinate's preimages."""
    out = set()
    for site in sites:
        choices = []
        for a, (c, (lo, hi)) in enumerate(zip(site, box)):
            if a in axes:
                period = hi - lo
                first = lo + (c - lo) % period
                choices.append(range(first, hi + 1, period))
            else:
                choices.append([c])
        out.update(itertools.product(*choices))
    return out


def periodic_quotient_oracle(free, box, axes):
    """Glue a free grid complex into a torus, cell by cell.

    ``free`` is a complex built on a whole box (anything with
    ``vertex_labels`` and ``cells`` whose entries carry ``vertices``,
    ``faces`` and ``shape``); on each 0-based axis in ``axes`` the top
    coordinate of ``box`` is glued to the bottom one.  A cell's orbit key
    is its corner labels, shifted down one period on every glued axis
    where all of its corners sit at the top; cells with one key become one
    cell, represented by the first of them, and each degree is numbered in
    key order.  Returns (vertex labels, per degree a list of (vertices,
    faces, shape), per degree the sorted keys).
    """
    labels = free.vertex_labels

    def wrap(label):
        return tuple(lo + (c - lo) % (hi - lo) if a in axes else c
                     for a, (c, (lo, hi)) in enumerate(zip(label, box)))

    def orbit_key(corners):
        shift = [a in axes and all(q[a] == box[a][1] for q in corners)
                 for a in range(len(box))]
        return tuple(tuple(c - (hi - lo) * s
                           for c, (lo, hi), s in zip(q, box, shift))
                     for q in corners)

    new_labels = sorted({wrap(lab) for lab in labels})
    vertex_id = {lab: i for i, lab in enumerate(new_labels)}
    layers, keys = [], []
    renumber = None
    for layer in free.cells:
        cell_keys = [orbit_key([labels[v] for v in cell.vertices])
                     for cell in layer]
        reps = {}
        for key, cell in zip(cell_keys, layer):
            reps.setdefault(key, cell)
        order = sorted(reps)
        layers.append([
            (tuple(vertex_id[wrap(labels[v])] for v in reps[key].vertices),
             tuple((renumber[f], c) for f, c in reps[key].faces),
             reps[key].shape)
            for key in order])
        keys.append(order)
        position = {key: j for j, key in enumerate(order)}
        renumber = [position[key] for key in cell_keys]
    return new_labels, layers, keys
