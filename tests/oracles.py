"""Independent reference implementations used to pin expected test values.

Everything in this file is deliberately written from scratch with different
algorithms (and different failure modes) than the package under test.  Keep
it dependency-free apart from numpy so a bug in the package cannot leak in
here.  Do not import crystaltopo from this module.
"""

import itertools
import math
import sys
from fractions import Fraction
from heapq import heapify, heappop, heappush

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


def sparse_invariant_factors(columns):
    """Nonzero invariant factors of a sparse integer matrix, the slow
    reference for the coreduction walk of ``crystaltopo.homology``.

    ``columns[j]`` maps row ids to the nonzero entries of column j; it is
    read, never modified.

    Only +-1 pivots are eliminated sparsely.  Their row and column
    operations are unimodular, so SNF(A) = I_r + SNF(S) with S the Schur
    complement left when no column holds a unit entry any more.  S goes
    to ``snf_diagonal_oracle`` as a dense block and its nonzero
    diagonal follows the r ones, keeping the divisibility order.

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
    heapify(heap)
    rank = 0
    while heap:
        length, j = heappop(heap)
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
                heappush(heap, (len(col_c), c))
        for r in col_j:
            rows[r].discard(j)
        cols[j] = None
        rank += 1
    factors = [1] * rank
    leftover = [col for col in cols if col]
    if leftover:
        row_ids = sorted({r for col in leftover for r in col})
        block = [[col.get(r, 0) for col in leftover] for r in row_ids]
        factors.extend(snf_diagonal_oracle(block))
    return factors


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


def tracked_smith_oracle(matrix):
    """(D, V, uinv, vinv) with matrix @ V == uinv @ D, by the dense
    reduction the package's sparse reducer replays step for step.

    The pivot is the first smallest nonzero |entry| of the working block
    in row-major order, stopping at the first unit; Euclidean sweeps clear
    the pivot's column and row; a pivot that does not divide the tail
    block gets the first offending row added to its own.  Rows and
    columns are swapped physically, and V, its inverse and the inverse of
    the row transform are full lists of lists updated with every step.
    """
    A = [[int(x) for x in row] for row in matrix]
    m, n = len(A), len(A[0]) if A else 0
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    vinv = [[int(i == j) for j in range(n)] for i in range(n)]
    uinv = [[int(i == j) for j in range(m)] for i in range(m)]

    # A row operation E (A -> E A) takes uinv to uinv E^-1, a column
    # operation F (A -> A F) takes V to V F and vinv to F^-1 vinv.
    def swap(s, i, j):
        A[s], A[i] = A[i], A[s]
        for row in uinv:
            row[s], row[i] = row[i], row[s]
        for row in A + V:
            row[s], row[j] = row[j], row[s]
        vinv[s], vinv[j] = vinv[j], vinv[s]

    def add_row(dst, src, k):
        A[dst] = [a + k * b for a, b in zip(A[dst], A[src])]
        for row in uinv:
            row[src] -= k * row[dst]

    def add_col(dst, src, k):
        for row in A + V:
            row[dst] += k * row[src]
        vinv[src] = [a - k * b for a, b in zip(vinv[src], vinv[dst])]

    def pivot_position(s):
        best = None
        for i in range(s, m):
            for j in range(s, n):
                if A[i][j] and (best is None
                                or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
                    if abs(A[i][j]) == 1:
                        return best
        return best

    s = 0
    while s < min(m, n):
        best = pivot_position(s)
        if best is None:
            break
        swap(s, *best)
        while True:
            dirty = False
            for i in range(s + 1, m):
                if A[i][s]:
                    add_row(i, s, -(A[i][s] // A[s][s]))
                    dirty = dirty or A[i][s] != 0
            for j in range(s + 1, n):
                if A[s][j]:
                    add_col(j, s, -(A[s][j] // A[s][s]))
                    dirty = dirty or A[s][j] != 0
            if not dirty:
                break
            swap(s, *pivot_position(s))
        pivot = A[s][s]
        offender = next((i for i in range(s + 1, m)
                         if any(v % pivot for v in A[i][s + 1:])), None)
        if offender is not None:
            add_row(s, offender, 1)
            continue
        if pivot < 0:
            A[s] = [-a for a in A[s]]
            for row in uinv:
                row[s] = -row[s]
        s += 1
    return A, V, uinv, vinv


def matmul_oracle(a, b):
    """Exact product of two integer matrices given as nested lists."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def boundary_matrix_oracle(layer, n_rows):
    """Dense d_k summed straight from the face arrays of the k-cell layer:
    entry (f, c) is the sum of the coefficients with which cell c lists
    face f.  ``layer`` needs ``face_ptr``, ``faces`` and ``coeffs``."""
    n_cols = len(layer.face_ptr) - 1
    owner = np.repeat(np.arange(n_cols), np.diff(layer.face_ptr))
    matrix = np.zeros((n_rows, n_cols), dtype=np.int64)
    np.add.at(matrix, (layer.faces, owner), layer.coeffs)
    return matrix


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


def integer_solvable_oracle(A, b):
    """Whether A x = b has an integer solution x, by determinantal divisors.

    Appending b as one more column keeps every gcd of minors exactly when
    b lies in the integer column span of A.  Exponential; keep small.
    """
    augmented = [list(row) + [v] for row, v in zip(A, b)]
    return determinantal_divisors(A) == determinantal_divisors(augmented)


def gf2_rows(matrix):
    """Rows of a 0/1 matrix as Python ints used as bit masks."""
    rows = []
    for row in matrix:
        bits = 0
        for j, x in enumerate(row):
            if int(x) & 1:
                bits |= 1 << j
        rows.append(bits)
    return rows


def gf2_rank(matrix):
    """Rank over GF(2) by bit-mask row elimination; fast enough for the
    lattice matrices that ``gf2_rank_oracle`` is too slow for."""
    rows = [r for r in gf2_rows(matrix) if r]
    rank = 0
    while rows:
        pivot_row = min(rows, key=lambda r: r.bit_length())
        pivot_bit = pivot_row & -pivot_row
        rank += 1
        nxt = []
        for r in rows:
            if r is pivot_row:
                continue
            if r & pivot_bit:
                r ^= pivot_row
            if r:
                nxt.append(r)
        rows = nxt
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


def integer_kernel_oracle(matrix, n_cols):
    """Integer vectors spanning the kernel over Q of ``matrix`` (a list of
    rows, each ``n_cols`` long), by Fraction Gauss-Jordan elimination: one
    vector per free column, scaled to clear denominators."""
    a = [[Fraction(x) for x in row] for row in matrix]
    pivots = []
    for j in range(n_cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(a)) if a[i][j] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        a[r] = [x / a[r][j] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][j] != 0:
                f = a[i][j]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(j)
    basis = []
    for free in sorted(set(range(n_cols)) - set(pivots)):
        v = [Fraction(0)] * n_cols
        v[free] = Fraction(1)
        for r, j in enumerate(pivots):
            v[j] = -a[r][free]
        scale = math.lcm(*(x.denominator for x in v))
        basis.append([int(x * scale) for x in v])
    return basis


# ---------------------------------------------------------------------------
# Periodic grids, the slow way
# ---------------------------------------------------------------------------

def box_points(box):
    """Every multi-index of ``box``, in lexicographic order."""
    return list(itertools.product(*(range(lo, hi + 1) for lo, hi in box)))


def torus_site(point, box, axes):
    """The site a box point names: on each 0-based axis in ``axes`` the
    top coordinate of ``box`` is the bottom one."""
    return tuple(lo + (c - lo) % (hi - lo) if a in axes else c
                 for a, (c, (lo, hi)) in enumerate(zip(point, box)))


class SampleRefused(Exception):
    """A lattice sample the site oracle refuses; ``locus`` is set when a
    removed index or a defect is misaddressed, clear when no site is
    left."""

    def __init__(self, message, locus=True):
        super().__init__(message)
        self.locus = locus


def lattice_sites_oracle(box, axes, removed_indices, defects):
    """The sites of a lattice sample, with sets of box points.

    Each box point stands for its torus site (see ``torus_site``); a
    removed index or a defect removes the sites its box points name, and
    each defect must meet a site still present.  ``defects`` are read by
    attribute (kind, index, axis, transverse, coordinate) and taken as
    well formed.  Returns the box points whose site survives, the box
    points whose site was removed by ``removed_indices`` (sorted), and
    the defect report.
    """
    whole = box_points(box)

    def site(point):
        return torus_site(point, box, axes)

    def inside(point):
        return all(lo <= c <= hi for c, (lo, hi) in zip(point, box))

    alive = {site(p) for p in whole}
    for idx in map(tuple, removed_indices):
        if not inside(idx):
            raise SampleRefused(f"removed index {idx} is outside the box")
        alive.discard(site(idx))
    gone = {site(p) for p in whole} - alive
    report = {"vacancies": [], "line_defects": [], "surface_defects": [],
              "markers": [], "removed_total": 0}
    for spec in defects:
        if spec.kind in ("vacancy", "substitution_marker"):
            idx = tuple(spec.index)
            present = inside(idx) and site(idx) in alive
            if spec.kind == "substitution_marker":
                if not present:
                    raise SampleRefused(
                        f"substitution marker {idx} addresses an absent site")
                report["markers"].append(idx)
                continue
            if not inside(idx):
                raise SampleRefused(f"vacancy {idx} is outside the index box")
            if not present:
                raise SampleRefused(
                    f"vacancy {idx} addresses a site that is already absent")
            alive.remove(site(idx))
            report["vacancies"].append(idx)
            report["removed_total"] += 1
            continue
        a = spec.axis - 1
        if spec.kind == "line_defect":
            line = tuple(spec.transverse)
            hit = {site(p) for p in whole if p[:a] + p[a + 1:] == line}
            entry = {"axis": spec.axis, "transverse": line}
            miss = f"line defect along axis {spec.axis} at {line}"
        else:
            hit = {site(p) for p in whole if p[a] == spec.coordinate}
            entry = {"axis": spec.axis, "coordinate": spec.coordinate}
            miss = f"surface defect at axis {spec.axis} = {spec.coordinate}"
        hit &= alive
        if not hit:
            raise SampleRefused(f"{miss} misses every site")
        alive -= hit
        report[spec.kind.replace("_defect", "_defects")].append(
            {**entry, "removed": len(hit)})
        report["removed_total"] += len(hit)
    if not alive:
        raise SampleRefused("every lattice site was removed", locus=False)
    points = [p for p in whole if site(p) in alive]
    return points, [p for p in whole if site(p) in gone], report


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
        return torus_site(label, box, axes)

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


# ---------------------------------------------------------------------------
# Field probes, one cell and one numpy call at a time
# ---------------------------------------------------------------------------

PROBE_ANGLE_TOL = 1e-6


class ProbeRefused(Exception):
    """A refused probe; ``kind`` names the package exception it stands for."""

    def __init__(self, kind, message):
        super().__init__(message)
        self.kind = kind


def _ambiguous(message):
    return ProbeRefused("AmbiguousSamplingError", message)


def _probe_closed(loop):
    ids = list(loop)
    if not ids:
        raise ProbeRefused("DimensionError", "empty loop")
    if ids[0] != ids[-1]:
        ids.append(ids[0])
    return ids


def _probe_whole_turns(angles):
    total = 0.0
    for a, b in zip(angles, angles[1:]):
        step = math.remainder(b - a, math.tau)
        if abs(step) >= math.pi - PROBE_ANGLE_TOL:
            raise _ambiguous(
                "adjacent circle samples are antipodal within tolerance; "
                "the winding is not determined")
        total += step
    total /= math.tau
    nearest = round(total)
    if abs(total - nearest) > 1e-9:
        raise _ambiguous(f"winding sum {total!r} is not an integer")
    return int(nearest)


def winding_number_oracle(values, loop, offset=0):
    """Net turns of the circle factor at ``offset`` of ``values`` (vertex
    id -> vector) around a vertex loop."""
    return _probe_whole_turns(
        [math.atan2(values[v][offset + 1], values[v][offset])
         for v in _probe_closed(loop)])


def _probe_lift_sign(prev, cur):
    dot = float(prev @ cur)
    if abs(dot) <= PROBE_ANGLE_TOL:
        raise _ambiguous(
            "adjacent line-field samples are nearly perpendicular; "
            "the sign lift is not determined")
    return 1 if dot > 0 else -1


def rp_parity_oracle(values, loop):
    """Parity of a director loop, lifting one step at a time."""
    ids = _probe_closed(loop)
    first = np.asarray(values[ids[0]], dtype=float)
    prev = first
    for vid in ids[1:-1]:
        cur = np.asarray(values[vid], dtype=float)
        prev = cur * _probe_lift_sign(prev, cur)
    return 0 if _probe_lift_sign(prev, first) == 1 else 1


def _probe_solid_angle(a, b, c):
    # The triple product term by term, and np.arctan2, not math.atan2: on a
    # one-element array each rounds as the package's batch does.  Where det
    # vanishes and s <= 0 the angle sits on atan2's branch cut.
    det = (a[0] * (b[1] * c[2] - b[2] * c[1])
           + a[1] * (b[2] * c[0] - b[0] * c[2])
           + a[2] * (b[0] * c[1] - b[1] * c[0]))
    s = 1.0 + float(a @ b) + float(b @ c) + float(c @ a)
    if abs(det) < 1e-12 and s < 1e-9:
        raise _ambiguous(
            "a spherical triangle of samples is degenerate (on a great "
            "circle, not within any half of it); the solid angle is not "
            "determined")
    return float(2.0 * np.arctan2([float(det)], [s])[0])


def sphere_degree_oracle(values, triangles):
    """Degree over oriented triangles, one solid angle at a time."""
    total = 0.0
    for coeff, (a, b, c) in triangles:
        total += coeff * _probe_solid_angle(values[a], values[b], values[c])
    degree = total / (4.0 * math.pi)
    nearest = round(degree)
    if abs(degree - nearest) > 0.01:
        raise _ambiguous(
            f"summed solid angle {degree!r} turns is not close to an integer")
    return int(nearest)


def _probe_shell(complex_, cell):
    tris = []
    for fid, coeff in cell.faces:
        v = complex_.cells[2][fid].vertices
        if len(v) == 3:
            tris.append((coeff, (v[0], v[1], v[2])))
        elif len(v) == 4:
            tris.append((coeff, (v[0], v[1], v[2])))
            tris.append((coeff, (v[0], v[2], v[3])))
        else:
            raise ProbeRefused("DimensionError",
                               f"unexpected 2-cell with {len(v)} vertices")
    return tris


def _probe_lift_shell(values, triangles):
    adjacency = {}
    for _, tri in triangles:
        for i in range(3):
            a, b = tri[i], tri[(i + 1) % 3]
            if a != b:
                adjacency.setdefault(a, set()).add(b)
                adjacency.setdefault(b, set()).add(a)
    # A nearly perpendicular pair anywhere on the shell is refused first.
    for a in adjacency:
        for b in adjacency[a]:
            _probe_lift_sign(np.asarray(values[a], dtype=float),
                             np.asarray(values[b], dtype=float))
    signs = {}
    for start in sorted(adjacency):
        if start in signs:
            continue
        signs[start] = 1
        queue = [start]
        while queue:
            cur = queue.pop()
            for nxt in adjacency[cur]:
                s = signs[cur] * _probe_lift_sign(
                    np.asarray(values[cur], dtype=float),
                    np.asarray(values[nxt], dtype=float))
                if nxt not in signs:
                    signs[nxt] = s
                    queue.append(nxt)
                elif signs[nxt] != s:
                    raise _ambiguous(
                        "line-field samples on the cell shell admit no "
                        "consistent sign lift; refine the sampling")
    return signs


def boundary_class_oracle(field, k, cell_id):
    """The class of ``field`` on the boundary of one k-cell, probed alone.

    ``field`` needs ``complex_``, ``space`` (with ``name`` and
    ``homotopy_group``) and ``values``.  Refusals raise ProbeRefused in
    the order the cell meets them: for a director shell the sign lift
    over the shell graph first, then each triangle, then the sum.  The
    lift copies the whole field for every shell.
    """
    cx = field.complex_
    if not 1 <= k <= cx.dim:
        raise ProbeRefused("DimensionError", f"no {k}-cells to probe")
    cell = cx.cells[k][cell_id]
    space = field.space.name
    group = field.space.homotopy_group(k - 1)
    values = field.values
    if k == 1:
        if space == "finite_set":
            a, b = cell.vertices[0], cell.vertices[-1]
            return 0 if values[a] == values[b] else 1
        return 0
    if k == 2:
        if not group.abelian:
            raise ProbeRefused(
                "UnsupportedConfigurationError",
                f"pi_1 of {space} is nonabelian; single-cell classes "
                "do not assemble into an additive cochain")
        loop = list(cell.vertices)
        if space == "circle":
            return winding_number_oracle(values, loop)
        if space == "projective_plane":
            return rp_parity_oracle(values, loop)
        if space == "torus":
            return tuple(winding_number_oracle(values, loop, offset)
                         for offset in (0, 2))
        return 0
    tris = _probe_shell(cx, cell)
    if space == "sphere_2":
        return sphere_degree_oracle(values, tris)
    if space == "projective_plane":
        signs = _probe_lift_shell(values, tris)
        lifted = [np.asarray(v, dtype=float) for v in values]
        for vid, s in signs.items():
            lifted[vid] = lifted[vid] * s
        return sphere_degree_oracle(lifted, tris)
    return 0


# ---------------------------------------------------------------------------
# Grid cells, one Python tuple per cell
# ---------------------------------------------------------------------------

def grid_cells_oracle(sites, templates, shape, index_box=None,
                      periodic_axes=()):
    """The grid complex on ``sites``, built one site and template at a time.

    ``templates[k - 1]`` lists the k-cell templates as (corner offsets,
    faces), a face being (position of its anchor among the corners, its
    template one degree down, sign).  Each template is placed at every
    site with a dict lookup per corner; on each 0-based periodic axis the
    top coordinate of ``index_box`` looks up the site at the bottom.
    Returns (sorted sites, per degree a list of (vertices, faces, shape)).
    """
    verts = sorted(sites)
    m = len(verts[0])
    lookup = {v: i for i, v in enumerate(verts)}
    for a in periodic_axes:
        lo, hi = index_box[a]
        lookup.update([(lab[:a] + (hi,) + lab[a + 1:], i)
                       for lab, i in lookup.items() if lab[a] == lo])
    unit = list(itertools.product((0, 1), repeat=m))
    around = [[lookup.get(tuple(c + u for c, u in zip(v, offset)))
               for offset in unit] for v in verts]
    n = len(verts)
    layers = [[((i,), (), shape) for i in range(n)]]
    slot, width = list(range(n)), 1
    for degree in templates:
        plan = [([unit.index(o) for o in offsets], faces)
                for offsets, faces in degree]
        layer, next_slot, s = [], [None] * (n * len(plan)), 0
        for corners in around:
            for where, faces in plan:
                ids = tuple(corners[j] for j in where)
                if None not in ids:
                    next_slot[s] = len(layer)
                    layer.append((ids, tuple(
                        (slot[ids[p] * width + t], sign)
                        for p, t, sign in faces), shape))
                s += 1
        layers.append(layer)
        slot, width = next_slot, len(plan)
    return verts, layers


def constant_boundary_oracle(labels, layers, box):
    """Collapse the hull of a grid complex onto one new vertex, cell by cell.

    ``labels`` and ``layers`` are as returned by ``grid_cells_oracle``.
    Hull vertices (an extreme coordinate on some axis) become the vertex
    one below the box on every axis; cells whose corners share one extreme
    coordinate are dropped with their entries in face lists; the others
    are sorted by (new corner tuple, old position).
    """
    m = len(box)
    w = tuple(lo - 1 for lo, _ in box)
    hull = [sum((lab[a] == lo) << a | (lab[a] == hi) << (m + a)
                for a, (lo, hi) in enumerate(box)) for lab in labels]
    images = [w if h else lab for lab, h in zip(labels, hull)]
    new_labels = sorted(set(images))
    vid = {lab: i for i, lab in enumerate(new_labels)}
    image = [vid[lab] for lab in images]
    out, new_id = [], []
    for k, layer in enumerate(layers):
        keys = []
        for i, (verts, _, _) in enumerate(layer):
            common = -1
            for v in verts:
                common &= hull[v]
            if k == 0:
                keys.append(images[verts[0]])
            else:
                keys.append(None if common else
                            (tuple(images[v] for v in verts), i))
        reps = {}
        for key, cell in zip(keys, layer):
            if key is not None:
                reps.setdefault(key, cell)
        order = sorted(reps)
        out.append([
            (tuple(image[v] for v in verts),
             tuple((new_id[f], c) for f, c in faces
                   if new_id[f] is not None), shape)
            for verts, faces, shape in map(reps.get, order)])
        rank = {key: j for j, key in enumerate(order)}
        new_id = [rank.get(key) for key in keys]
    return new_labels, out


def square_failures_oracle(layers):
    """(k, cell) pairs whose boundary of boundary is nonzero, by summing
    Python integers over every face of every face; ``layers`` holds per
    degree a list of (vertices, faces, shape)."""
    out = []
    for k in range(2, len(layers)):
        for cid, (_, faces, _) in enumerate(layers[k]):
            acc = {}
            for fid, c1 in faces:
                for gid, c2 in layers[k - 1][fid][1]:
                    acc[gid] = acc.get(gid, 0) + c1 * c2
            if any(acc.values()):
                out.append((k, cid))
    return out


# ---------------------------------------------------------------------------
# Group-valued cochains, one cell at a time
# ---------------------------------------------------------------------------
#
# A group is named as in ``CoefficientGroup.name``: "Z", "Z/2" or "Z^2"
# (integer pairs); values map cell ids to group elements.

def _group_zero(group):
    return (0, 0) if group == "Z^2" else 0


def _group_add(group, acc, value, scale):
    if group == "Z^2":
        return (acc[0] + scale * value[0], acc[1] + scale * value[1])
    return acc + scale * value


def cocycle_oracle(group, values, face_rows):
    """Whether the coboundary of a group-valued cochain vanishes.

    ``face_rows`` holds per cell one degree up its (face id, coefficient)
    pairs; each cell sums its faces' values in the group, and Z/2 sums are
    reduced at the end.
    """
    for row in face_rows:
        acc = _group_zero(group)
        for fid, coeff in row:
            if fid in values:
                acc = _group_add(group, acc, values[fid], coeff)
        if group == "Z/2":
            acc %= 2
        if acc != _group_zero(group):
            return False
    return True


def coboundary_oracle(ring, values, layer):
    """delta of a cochain {cell id: value} over ``ring`` ("integers",
    "integers_mod_2" or "reals"), scanning every cell of ``layer`` (the
    cells one degree up; it needs ``face_ptr``, ``faces`` and ``coeffs``).

    Each cell sums coefficient times value over its face entries in row
    order, starting from the integer 0; each sum is read in the ring
    (ints, ints mod 2 or floats), and the nonzero readings are kept in
    cell order.
    """
    ptr, faces, coeffs = (layer.face_ptr.tolist(), layer.faces.tolist(),
                          layer.coeffs.tolist())
    read = {"integers": int, "integers_mod_2": lambda v: int(v) % 2,
            "reals": float}[ring]
    out = {}
    for j, (s, e) in enumerate(zip(ptr, ptr[1:])):
        total = 0
        for fid, coeff in zip(faces[s:e], coeffs[s:e]):
            v = values.get(fid)
            if v is not None:
                total += coeff * v
        if read(total) != 0:
            out[j] = read(total)
    return out


def pairing_oracle(group, values, chain_coeffs):
    """Group-valued sum of value times coefficient over the chain's cells,
    in the chain's order; Z/2 sums are reduced mod 2."""
    acc = _group_zero(group)
    for cid, a in chain_coeffs.items():
        if cid in values:
            acc = _group_add(group, acc, values[cid], a)
    return acc % 2 if group == "Z/2" else acc


def coboundary_class_oracle(group, values, delta):
    """'trivial' when the cochain lies in the image of the coboundary whose
    matrix is ``delta`` (one row per cell of the cochain's degree, one
    column per cell one degree down), else 'nontrivial'.

    Over Z a vector lies in the column lattice of A exactly when [A | b]
    has the rank and the invariant-factor product of A; over Z/2 when the
    rank does not grow.  Z^2 is decided one factor at a time.
    """
    zero = _group_zero(group)
    parts = [[values.get(i, zero) for i in range(len(delta))]]
    if group == "Z^2":
        parts = [[v[c] for v in parts[0]] for c in range(2)]
    for b in parts:
        augmented = [list(row) + [v] for row, v in zip(delta, b)]
        if group == "Z/2":
            if gf2_rank_oracle(augmented) != gf2_rank_oracle(delta):
                return "nontrivial"
            continue
        before, after = (snf_diagonal_oracle(m) if m and m[0] else []
                         for m in (delta, augmented))
        if (len(before), math.prod(map(abs, before))) != (
                len(after), math.prod(map(abs, after))):
            return "nontrivial"
    return "trivial"


# ---------------------------------------------------------------------------
# Graph walks
# ---------------------------------------------------------------------------

def potentials_oracle(n_vertices, edges, drops, tol):
    """Vertex potentials from edge drops by a deque BFS over per-vertex
    adjacency lists, each in edge-id order; ``edges`` holds the (first,
    last) vertex of every edge, and a drop on (a, b) is V(b) - V(a).

    Returns ``(potentials, None, None)`` when every non-tree edge agrees,
    else ``(None, loop, circulation)`` for the first one that does not:
    the loop runs along that edge and back through the tree, as a
    {edge: coefficient} dict without zero entries.
    """
    from collections import deque

    adjacency = [[] for _ in range(n_vertices)]
    for cid, (a, b) in enumerate(edges):
        adjacency[a].append((b, cid, 1))
        if a != b:
            adjacency[b].append((a, cid, -1))
    potential = [None] * n_vertices
    parent = {}
    for root in range(n_vertices):
        if potential[root] is not None:
            continue
        potential[root] = 0.0
        queue = deque([root])
        while queue:
            cur = queue.popleft()
            for other, cid, sign in adjacency[cur]:
                if other == cur or potential[other] is not None:
                    continue
                potential[other] = potential[cur] + sign * drops.get(cid, 0.0)
                parent[other] = (cur, cid, sign)
                queue.append(other)
    tree = {cid for _, cid, _ in parent.values()}

    def up(v):
        coeffs = {}
        while v in parent:
            v, cid, sign = parent[v]
            coeffs[cid] = coeffs.get(cid, 0.0) - sign
        return coeffs

    for cid, (a, b) in enumerate(edges):
        if cid in tree:
            continue
        drop = drops.get(cid, 0.0)
        if abs(potential[b] - potential[a] - drop) > tol:
            loop = {cid: 1.0}
            for e, c in up(b).items():
                loop[e] = loop.get(e, 0.0) + c
            for e, c in up(a).items():
                loop[e] = loop.get(e, 0.0) - c
            loop = {e: c for e, c in loop.items() if c != 0}
            circulation = sum(c * drops.get(e, 0.0) for e, c in loop.items())
            return None, loop, circulation
    return potential, None, None


def orientation_oracle(face_rows):
    """Signs of the top cells that cancel every internal face, or None.

    ``face_rows`` holds per top cell its (face id, coefficient) pairs.  A
    face whose nonzero entries have absolute values summing to 2 is
    internal: two unit entries in two cells relate their signs, two
    entries in one cell must cancel by themselves, and one entry of 2
    cannot cancel.  A heavier face admits no orientation.  Signs are fixed
    by a depth-first walk from the least unsigned cell, then every
    relation is checked.
    """
    entries = {}
    for cell, row in enumerate(face_rows):
        for fid, coeff in row:
            if coeff:
                entries.setdefault(fid, []).append((cell, coeff))
    relations = []
    for found in entries.values():
        weight = sum(abs(c) for _, c in found)
        if weight > 2:
            return None
        if weight < 2:
            continue
        if len(found) == 1:
            return None
        (p, a), (q, b) = found
        if p == q:
            if a + b:
                return None
            continue
        relations.append((p, q, -a * b))
    neighbours = [[] for _ in face_rows]
    for p, q, rel in relations:
        neighbours[p].append((q, rel))
        neighbours[q].append((p, rel))
    signs = [0] * len(face_rows)
    for seed in range(len(face_rows)):
        if signs[seed]:
            continue
        signs[seed] = 1
        stack = [seed]
        while stack:
            cur = stack.pop()
            for other, rel in neighbours[cur]:
                if not signs[other]:
                    signs[other] = rel * signs[cur]
                    stack.append(other)
    if any(signs[q] != rel * signs[p] for p, q, rel in relations):
        return None
    return signs


def current_residuals_oracle(n_vertices, face_rows, currents):
    """Net flow into each vertex, one face entry at a time: the entries
    of each edge in ``currents`` order, each edge's faces in row order."""
    residual = [0.0] * n_vertices
    for cid, value in currents.items():
        for fid, coeff in face_rows[cid]:
            residual[fid] += coeff * value
    return residual


# ---------------------------------------------------------------------------
# Document intake
# ---------------------------------------------------------------------------

def edge_data_oracle(doc, key, vertex_labels, edge_rows):
    """The ``currents`` or ``drops`` list of ``doc`` read one entry at a
    time: {edge id: sum of the signed values of its entries}.

    ``edge_rows`` holds the stored vertex ids of every edge, or is None
    when the complex has no degree 1.  A refused entry raises ValueError
    with the message the CLI prints for it.
    """
    body = doc.get(key)
    if body is None:
        return {}
    if not isinstance(body, list):
        raise ValueError(f"{key} must be a list of [edge, value] pairs")
    vertex_id = {label: v for v, label in enumerate(vertex_labels)}
    cells_on = {}
    for cid, row in enumerate(edge_rows or []):
        cells_on.setdefault(tuple(sorted(row)), []).append(cid)

    def label(x, where):
        if isinstance(x, dict):
            raise ValueError(f"{where}: a vertex label cannot be an object")
        return tuple(label(v, where) for v in x) if isinstance(x, list) else x

    out = {}
    for i, entry in enumerate(body):
        where = f"{key}[{i}]"
        if not isinstance(entry, list) or len(entry) != 2:
            raise ValueError(f"{where}: expected [edge, value]")
        edge, value = entry
        number = (isinstance(value, float) and math.isfinite(value)
                  or isinstance(value, int) and not isinstance(value, bool)
                  and abs(value) <= sys.float_info.max)
        if not number:
            raise ValueError(f"{where}: expected a number, got {value!r}")
        if isinstance(edge, int) and not isinstance(edge, bool):
            if not 0 <= edge < len(edge_rows or []):
                raise ValueError(f"{where}: edge id {edge} out of range")
            cid, sign = edge, 1
        elif isinstance(edge, list) and len(edge) == 2:
            ends = label(edge, where)
            for end in ends:
                if end not in vertex_id:
                    raise ValueError(f"{where}: unknown vertex label {end!r}")
            ids = tuple(vertex_id[end] for end in ends)
            if edge_rows is None:
                raise ValueError(f"{where}: no cells of dimension 1")
            hits = cells_on.get(tuple(sorted(ids)), [])
            if not hits:
                raise ValueError(f"{where}: no 1-cell with vertices {ends!r}")
            if len(hits) > 1:
                raise ValueError(f"{where}: vertex set {ends!r} names "
                                 f"{len(hits)} cells; query by cell id "
                                 "instead")
            if ids[0] == ids[1]:
                raise ValueError(f"{where}: repeated vertex in cell {ids}")
            cid = hits[0]
            sign = 1 if edge_rows[cid][0] == ids[0] else -1
        else:
            raise ValueError(f"{where}: edge must be an id or a vertex pair")
        out[cid] = out.get(cid, 0.0) + sign * float(value)
    return out


# ---------------------------------------------------------------------------
# Order-field samples, one vertex at a time
# ---------------------------------------------------------------------------

UNIT_TOL = 1e-9


class SamplesUncovered(Exception):
    """A field leaves vertices unsampled; the package raises CoverageError
    with the same text."""


def _sample_holds_non_number(value):
    """Booleans and text, which numpy would read as numbers, anywhere in
    the sample."""
    if type(value) in (float, int):
        return False
    if isinstance(value, (list, tuple)):
        return any(map(_sample_holds_non_number, value))
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "bSU" or (
            value.dtype == object and _sample_holds_non_number(value.tolist()))
    return isinstance(value, (bool, np.bool_, str, bytes, bytearray))


def _sample_floats(value, where):
    if _sample_holds_non_number(value):
        raise ValueError(f"{where}: expected numbers")
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{where}: expected numbers") from None
    if not np.isfinite(arr).all():
        raise ValueError(f"{where}: expected finite numbers")
    return arr


def _sample_unit(vec, length, where):
    arr = _sample_floats(vec, where)
    if arr.shape != (length,):
        raise ValueError(f"{where}: expected a {length}-vector, got {arr.shape}")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) > UNIT_TOL:
        raise ValueError(f"{where}: vector norm {norm!r} is not 1")
    return arr


def sample_value_oracle(space, labels, value, where):
    """One sample checked and converted on its own: the value itself for
    a finite set, else a float array (a circle angle or a torus angle
    pair as cosines and sines).  A refusal is a ValueError naming
    ``where``."""
    if space == "finite_set":
        if value not in labels:
            raise ValueError(f"{where}: label {value!r} not in the space")
        return value
    if space == "circle":
        if isinstance(value, (int, float)):
            angle = float(_sample_floats(value, where))
            return np.array([math.cos(angle), math.sin(angle)])
        return _sample_unit(value, 2, where)
    if space in ("projective_plane", "sphere_2"):
        return _sample_unit(value, 3, where)
    if space == "torus":
        arr = _sample_floats(value, where)
        if arr.shape == (2,):
            return np.array([math.cos(arr[0]), math.sin(arr[0]),
                             math.cos(arr[1]), math.sin(arr[1])])
        if arr.shape != (4,):
            raise ValueError(
                f"{where}: torus values are two angles or a 4-vector")
        _sample_unit(arr[:2], 2, where)
        _sample_unit(arr[2:], 2, where)
        return arr
    arr = _sample_floats(value, where)
    if arr.shape != (3, 3):
        raise ValueError(f"{where}: expected a 3x3 frame")
    with np.errstate(over="ignore", invalid="ignore"):
        orthonormal = np.allclose(arr @ arr.T, np.eye(3), atol=1e-8)
    if not orthonormal:
        raise ValueError(f"{where}: frame is not orthonormal")
    return arr


def field_samples_oracle(space, labels, vertex_labels, samples):
    """The stored values of a field given {vertex label: value}: every
    vertex checked in vertex order, a list for a finite set, else one
    float array.  Unsampled vertices raise SamplesUncovered, a refused
    value ValueError for the first vertex that holds one."""
    missing = [lab for lab in vertex_labels if lab not in samples]
    if missing:
        shown = ", ".join(repr(lab) for lab in missing[:5])
        more = f" (and {len(missing) - 5} more)" if len(missing) > 5 else ""
        raise SamplesUncovered(
            f"field leaves {len(missing)} vertices unsampled: {shown}{more}")
    values = [sample_value_oracle(space, labels, samples[lab],
                                  f"vertex {lab!r}")
              for lab in vertex_labels]
    return values if space == "finite_set" else np.array(values, dtype=float)


def field_entries_oracle(entries):
    """{vertex label: value} from a document's ``field.samples`` list, read
    one entry at a time; a list label becomes a tuple.  A refused entry
    raises ValueError with the message the CLI prints for it."""

    def label(x, where):
        if isinstance(x, dict):
            raise ValueError(f"{where}: a vertex label cannot be an object")
        return tuple(label(v, where) for v in x) if isinstance(x, list) else x

    mapping = {}
    for i, entry in enumerate(entries):
        where = f"field.samples[{i}]"
        if not isinstance(entry, list) or len(entry) != 2:
            raise ValueError(f"{where}: expected [vertex, value]")
        key = label(entry[0], where)
        if key in mapping:
            raise ValueError(f"{where}: vertex {key!r} sampled twice")
        mapping[key] = entry[1]
    return mapping


# ---------------------------------------------------------------------------
# Explicit complexes, one tuple, set entry and dict lookup per cell and face
# ---------------------------------------------------------------------------

class ComplexRefused(Exception):
    """An explicit complex the reference builders refuse, with the text
    the package gives."""


def simplices_oracle(simplices, auto_close, max_cells):
    """The simplicial complex on vertex tuples, closed under faces as sets
    of sorted label tuples and numbered through dicts.

    Returns (sorted vertex labels, per degree the cells in sorted order as
    (vertex ids, ((face id, sign), ...)), closure defects as (k, cell
    labels, missing face labels) in cell and face order).  With
    ``auto_close`` the faces are added from the top degree down, and the
    build is refused as soon as it holds more than ``max_cells`` cells.
    """
    by_dim = {}
    for simplex in simplices:
        t = tuple(simplex)
        if len(t) == 0:
            raise ComplexRefused("empty cell tuple")
        key = tuple(sorted(t))
        if any(a == b for a, b in zip(key, key[1:])):
            raise ComplexRefused(f"repeated vertex in cell {t}")
        by_dim.setdefault(len(t) - 1, set()).add(key)
    top = max(by_dim, default=0)
    if auto_close:
        total = sum(map(len, by_dim.values()))
        for k in range(top, 0, -1):
            lower = by_dim.setdefault(k - 1, set())
            others = total - len(lower)
            for cell in by_dim.get(k, ()):
                for i in range(len(cell)):
                    lower.add(cell[:i] + cell[i + 1:])
                if others + len(lower) > max_cells:
                    raise ComplexRefused(
                        "closing the cells under faces passes the limit of "
                        f"{max_cells} cells")
            total = others + len(lower)
    labels = sorted({lab for cells in by_dim.values() for c in cells
                     for lab in c})
    label_to_id = {lab: i for i, lab in enumerate(labels)}
    by_dim.setdefault(0, set()).update((lab,) for lab in labels)
    layers, defects, id_of = [], [], {}
    for k in range(top + 1):
        tuples = sorted(tuple(label_to_id[lab] for lab in cell)
                        for cell in by_dim.get(k, ()))
        layer = []
        for t in tuples:
            faces = []
            for i in range(len(t) if k else 0):
                face = t[:i] + t[i + 1:]
                if face in id_of:
                    faces.append((id_of[face], (-1) ** i))
                else:
                    defects.append((k, tuple(labels[v] for v in t),
                                    tuple(labels[v] for v in face)))
            layer.append((t, tuple(faces)))
        id_of = {t: i for i, t in enumerate(tuples)}
        layers.append(layer)
    return labels, layers, defects


def _vertex_set_index(rows):
    index = {}
    for i, row in enumerate(rows):
        index.setdefault(tuple(sorted(row)), []).append(i)
    return index


def subdivision_oracle(vertex_rows, cubes):
    """The vertex chains of the first barycentric subdivision, each a tuple
    of (degree, cell id) nodes, of a complex given per degree as vertex id
    rows and cube flags; every chain is found by recursion over the proper
    faces, which a dict of sorted vertex tuples per degree looks up.
    Cubes, cells with a repeated vertex and cells sharing a vertex set
    are refused, the first such cell in degree and id order deciding."""
    for k, (rows, cube) in enumerate(zip(vertex_rows, cubes)):
        for i, (row, is_cube) in enumerate(zip(rows, cube)):
            if is_cube:
                raise ComplexRefused(
                    "barycentric subdivision supports triangular cells only")
            if len(set(row)) != len(row):
                raise ComplexRefused(
                    f"cell ({k},{i}) repeats vertices; subdivision of "
                    "quotient complexes is not supported")
    by_set = [_vertex_set_index(rows) for rows in vertex_rows]
    if any(len(hits) > 1 for index in by_set for hits in index.values()):
        raise ComplexRefused("two cells share one vertex set; subdivision "
                             "of quotient complexes is not supported")
    below = {}
    for k, rows in enumerate(vertex_rows):
        for i, row in enumerate(rows):
            verts = sorted(row)
            below[(k, i)] = [
                (j, hit) for j, index in enumerate(by_set[:len(verts) - 1])
                for combo in itertools.combinations(verts, j + 1)
                for hit in index.get(combo, ())]
    memo = {}

    def ending(node):
        if node not in memo:
            memo[node] = [(node,)] + [chain + (node,) for b in below[node]
                                      for chain in ending(b)]
        return memo[node]

    return [chain for node in below for chain in ending(node)]


def find_cell_oracle(rows, cubes, k, ids):
    """The k-cell with the vertex set of ``ids`` among the vertex id
    ``rows``, looked up in a dict of sorted tuples: (cell id, sign), with
    the sign of the permutation from the stored spelling to ``ids`` counted
    by transpositions, or the refusal as ("names", number of cells) when
    not exactly one cell has that set, ("repeated", None) when an oriented
    cell is named with a repeated vertex."""
    hits = _vertex_set_index(rows).get(tuple(sorted(ids)), [])
    if len(hits) != 1:
        return "names", len(hits)
    cell = hits[0]
    if k == 0 or k > 1 and cubes[cell]:
        return cell, 1
    if len(set(ids)) < len(ids):
        return "repeated", None
    spelling, sign = list(rows[cell]), 1
    for i, v in enumerate(ids):
        j = spelling.index(v, i)
        if j != i:
            spelling[i], spelling[j] = spelling[j], spelling[i]
            sign = -sign
    return cell, sign
