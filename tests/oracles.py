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
    det = float(np.linalg.det(np.stack([a, b, c])))
    s = 1.0 + float(a @ b) + float(b @ c) + float(c @ a)
    if abs(det) < 1e-12 and abs(s) < 1e-9:
        raise _ambiguous(
            "a spherical triangle of samples is degenerate (near a half "
            "great circle); the solid angle is not determined")
    return 2.0 * math.atan2(det, s)


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
