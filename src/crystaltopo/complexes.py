"""Delta-complexes with ordered-vertex cells and explicit incidence.

A cell of dimension k is an ordered tuple of vertex ids together with a
signed list of its (k-1)-faces.  Triangular cells follow the alternating
vertex-deletion rule; cubic cells pair a lower and an upper face per spanned
axis with alternating signs.  Face lists are stored explicitly because
periodic grids and quotients produce distinct cells sharing one vertex
tuple, and collapsed boundaries drop faces entirely; the vertex tuple
alone cannot define incidence there.

The grid builder places unit-cell templates at every site of a free box
or, with periodic axes, directly on the torus, so a periodic sample
needs no quotient pass.

Orientation bookkeeping: freshly built triangular cells are stored with
their vertex tuple ascending; a query for a permuted spelling resolves to
the stored cell with the permutation's sign.  Cubic cells are stored in
circular corner order (counterclockwise for squares, bottom ring then top
ring for cubes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from operator import add, itemgetter, le, sub
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ComplexBuildError,
    DimensionError,
    UnsupportedConfigurationError,
)

RING_INT = "integers"
RING_MOD2 = "integers_mod_2"
RING_REAL = "reals"
RINGS = (RING_INT, RING_MOD2, RING_REAL)

SCHEME_TRIANGULAR = "triangular"
SCHEME_CUBIC = "cubic"
SCHEMES = (SCHEME_TRIANGULAR, SCHEME_CUBIC)

SHAPE_SIMPLEX = "simplex"
SHAPE_CUBE = "cube"


def _normalize_coeff(ring: str, value):
    if ring == RING_MOD2:
        return int(value) % 2
    if ring == RING_INT:
        return int(value)
    if ring == RING_REAL:
        return float(value)
    raise ValueError(f"unknown ring {ring!r}")


class Chain:
    """Finite formal sum of k-cells with coefficients in a chosen ring."""

    __slots__ = ("dim", "ring", "coeffs")

    def __init__(self, dim: int, coeffs: Mapping[int, object] | None = None,
                 ring: str = RING_INT):
        if ring not in RINGS:
            raise ValueError(f"unknown ring {ring!r}")
        self.dim = dim
        self.ring = ring
        data = {}
        if coeffs:
            for cid, v in coeffs.items():
                v = _normalize_coeff(ring, v)
                if v != 0:
                    data[int(cid)] = v
        self.coeffs = data

    def _check_compatible(self, other: "Chain") -> None:
        if self.dim != other.dim:
            raise DimensionError(
                f"chain dimensions differ: {self.dim} vs {other.dim}")
        if self.ring != other.ring:
            raise ValueError(f"chain rings differ: {self.ring} vs {other.ring}")

    def __add__(self, other: "Chain") -> "Chain":
        self._check_compatible(other)
        data = dict(self.coeffs)
        for cid, v in other.coeffs.items():
            data[cid] = data.get(cid, 0) + v
        return type(self)(self.dim, data, self.ring)

    def __sub__(self, other: "Chain") -> "Chain":
        return self + (-other)

    def __neg__(self) -> "Chain":
        return type(self)(
            self.dim, {c: -v for c, v in self.coeffs.items()}, self.ring)

    def scale(self, scalar) -> "Chain":
        return type(self)(
            self.dim, {c: v * scalar for c, v in self.coeffs.items()}, self.ring)

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.dim == other.dim
                and self.ring == other.ring and self.coeffs == other.coeffs)

    def __hash__(self):
        raise TypeError("chains are mutable value objects; not hashable")

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def support(self) -> list[int]:
        return sorted(self.coeffs)

    def __repr__(self) -> str:
        terms = ", ".join(f"{c}: {v}" for c, v in sorted(self.coeffs.items()))
        return f"{type(self).__name__}(dim={self.dim}, {{{terms}}}, {self.ring})"


class Cochain(Chain):
    """Cell-indexed functional; same storage as Chain, paired covariantly."""

    def pair(self, chain: Chain):
        """Kronecker pairing < self, chain >."""
        if chain.dim != self.dim:
            raise DimensionError(
                f"pairing a {self.dim}-cochain with a {chain.dim}-chain")
        total = 0
        for cid, a in chain.coeffs.items():
            v = self.coeffs.get(cid)
            if v is not None:
                total += a * v
        if self.ring == RING_MOD2 or chain.ring == RING_MOD2:
            return total % 2
        return total


@dataclass(frozen=True)
class Cell:
    """One cell: ordered vertices plus signed references one dimension down.

    ``faces`` holds (face_cell_id, coefficient) pairs; a face that a
    quotient collapsed is simply absent.  ``shape`` records which boundary
    convention produced the cell.
    """

    vertices: tuple[int, ...]
    faces: tuple[tuple[int, int], ...]
    shape: str = SHAPE_SIMPLEX


def _sort_with_parity(items: Sequence) -> tuple[tuple, int]:
    """Ascending copy of ``items`` plus the permutation sign.

    Rejects repeated entries: parity is undefined for them, and fresh
    builds never need it.
    """
    n = len(items)
    order = sorted(range(n), key=lambda i: items[i])
    sorted_items = tuple(items[i] for i in order)
    for a, b in zip(sorted_items, sorted_items[1:]):
        if a == b:
            raise ComplexBuildError(f"repeated vertex in cell {tuple(items)}")
    sign = 1
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = order[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sorted_items, sign


class DeltaComplex:
    """Immutable cell complex; construct via the class methods or builders."""

    def __init__(self, vertex_labels: Sequence, cells: Sequence[Sequence[Cell]],
                 *, lattice_info: dict | None = None,
                 closure_defects: Sequence = ()):
        self.vertex_labels = tuple(vertex_labels)
        self.label_to_id = {lab: i for i, lab in enumerate(self.vertex_labels)}
        if len(self.label_to_id) != len(self.vertex_labels):
            raise ComplexBuildError("duplicate vertex labels")
        trimmed = [tuple(layer) for layer in cells]
        while len(trimmed) > 1 and not trimmed[-1]:
            trimmed.pop()
        self.cells: tuple[tuple[Cell, ...], ...] = tuple(trimmed)
        self.lattice_info = lattice_info
        self.closure_defects = tuple(closure_defects)
        self._cache: dict = {}

    # -- structure queries -------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.cells) - 1

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_labels)

    def n_cells(self, k: int) -> int:
        if k < 0 or k > self.dim:
            return 0
        return len(self.cells[k])

    def cell(self, k: int, cell_id: int) -> Cell:
        return self.cells[k][cell_id]

    def cell_counts(self) -> list[int]:
        return [len(layer) for layer in self.cells]

    def vertex_id(self, label) -> int:
        try:
            return self.label_to_id[label]
        except KeyError:
            raise ComplexBuildError(f"unknown vertex label {label!r}") from None

    def _cells_by_vertex_set(self, k: int) -> dict[tuple, list[int]]:
        """{sorted vertex ids: cell ids} of degree k, built on first use."""
        key = ("vertex sets", k)
        index = self._cache.get(key)
        if index is None:
            index = {}
            for i, cell in enumerate(self.cells[k]):
                index.setdefault(tuple(sorted(cell.vertices)), []).append(i)
            self._cache[key] = index
        return index

    def label_tuple(self, k: int, cell_id: int) -> tuple:
        return tuple(self.vertex_labels[v] for v in self.cells[k][cell_id].vertices)

    def find_cell(self, k: int, vertex_labels: Sequence) -> tuple[int, int]:
        """Locate a cell by vertex labels in any order.

        Returns (cell_id, sign) where sign is the permutation parity
        relating the query spelling to the stored one (+1 for cubic cells,
        which have no parity convention).  Ambiguous keys, which occur only
        in quotient complexes, are rejected.
        """
        ids = tuple(self.vertex_id(lab) for lab in vertex_labels)
        if k < 0 or k > self.dim:
            raise DimensionError(f"no cells of dimension {k}")
        key_sorted = tuple(sorted(ids))
        hits = self._cells_by_vertex_set(k).get(key_sorted, [])
        if not hits:
            raise ComplexBuildError(
                f"no {k}-cell with vertices {tuple(vertex_labels)!r}")
        if len(hits) > 1:
            raise ComplexBuildError(
                f"vertex set {tuple(vertex_labels)!r} names {len(hits)} cells; "
                "query by cell id instead")
        cell_id = hits[0]
        cell = self.cells[k][cell_id]
        if cell.shape == SHAPE_CUBE or k == 0:
            return cell_id, 1
        if len(set(ids)) < len(ids):
            raise ComplexBuildError(f"repeated vertex in cell {ids}")
        # The parity of the permutation taking the stored spelling to the
        # query, one sign flip per transposition that sorts it into place.
        spelling, sign = list(cell.vertices), 1
        for i, v in enumerate(ids):
            j = spelling.index(v, i)
            if j != i:
                spelling[i], spelling[j] = spelling[j], spelling[i]
                sign = -sign
        return cell_id, sign

    def chain(self, k: int, terms: Mapping[Sequence, object],
              ring: str = RING_INT) -> Chain:
        """Build a chain from {vertex-label-tuple: coefficient} terms."""
        data: dict[int, object] = {}
        for labels, coeff in terms.items():
            cid, sign = self.find_cell(k, labels)
            data[cid] = data.get(cid, 0) + sign * coeff
        return Chain(k, data, ring)

    def cochain(self, k: int, terms: Mapping[Sequence, object],
                ring: str = RING_INT) -> Cochain:
        return Cochain(k, self.chain(k, terms, ring).coeffs, ring)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_simplices(cls, simplices: Iterable[Sequence], *,
                       auto_close: bool = True,
                       lattice_info: dict | None = None) -> "DeltaComplex":
        """Assemble a strict simplicial delta-complex from vertex tuples.

        Input tuples may arrive in any vertex order and any mix of
        dimensions; cells are stored ascending.  With ``auto_close`` every
        face is registered automatically; without it, missing faces are
        recorded as closure defects for ``validate_complex`` to report.
        """
        by_dim: dict[int, set[tuple]] = {}
        for simplex in simplices:
            t = tuple(simplex)
            if len(t) == 0:
                raise ComplexBuildError("empty cell tuple")
            key, _ = _sort_with_parity(t)
            by_dim.setdefault(len(t) - 1, set()).add(key)
        top = max(by_dim, default=0)
        if auto_close:
            for k in range(top, 0, -1):
                lower = by_dim.setdefault(k - 1, set())
                for cell in by_dim.get(k, ()):
                    for i in range(len(cell)):
                        lower.add(cell[:i] + cell[i + 1:])
        labels = sorted(
            {lab for cells in by_dim.values() for c in cells for lab in c}
            | {c[0] for c in by_dim.get(0, ())})
        label_to_id = {lab: i for i, lab in enumerate(labels)}
        for lab in labels:
            by_dim.setdefault(0, set()).add((lab,))
        layers: list[list[Cell]] = []
        id_of: list[dict[tuple, int]] = []
        defects: list[tuple] = []
        for k in range(top + 1):
            tuples = sorted(
                tuple(label_to_id[lab] for lab in cell)
                for cell in by_dim.get(k, ()))
            index = {t: i for i, t in enumerate(tuples)}
            id_of.append(index)
            layer = []
            for t in tuples:
                faces = []
                if k > 0:
                    for i in range(len(t)):
                        face_t = t[:i] + t[i + 1:]
                        fid = id_of[k - 1].get(face_t)
                        if fid is None:
                            defects.append(
                                (k, tuple(labels[v] for v in t),
                                 tuple(labels[v] for v in face_t)))
                            continue
                        faces.append((fid, (-1) ** i))
                layer.append(Cell(t, tuple(faces), SHAPE_SIMPLEX))
            layers.append(layer)
        return cls(labels, layers, lattice_info=lattice_info,
                   closure_defects=defects)


# ---------------------------------------------------------------------------
# Lattice-grid builders


def _cube_corner_labels(base: tuple, axes: tuple[int, ...]) -> tuple:
    """Corners of the unit cube at ``base`` spanning up to three ``axes``.

    Order is circular for squares and bottom-ring-then-top-ring for cubes,
    so a 2-cell's tuple doubles as its boundary traversal.
    """
    # Axis subsets to step along: the ring of the first two axes, then
    # the same ring lifted along the third.
    ring = [(), axes[:1], axes[:2], axes[1:2]][:2 ** min(len(axes), 2)]
    if len(axes) == 3:
        ring += [r + axes[2:] for r in ring]
    return tuple(tuple(c + (a in r) for a, c in enumerate(base)) for r in ring)


def _unit_chains(m: int) -> list[list[tuple[tuple[int, ...], ...]]]:
    """Strictly increasing chains of 0/1 vectors from the origin, by length.

    ``_unit_chains(m)[k]`` holds the chains of k + 1 vectors: placed at
    every base vertex they enumerate the k-simplices of the fixed-diagonal
    split of the unit cubes exactly once.
    """
    vectors = list(product((0, 1), repeat=m))
    chains = [[(vectors[0],)]]
    for _ in range(m):
        chains.append([chain + (v,) for chain in chains[-1] for v in vectors
                       if v != chain[-1] and all(map(le, chain[-1], v))])
    return chains


def _cell_templates(scheme: str, m: int) -> list[list[tuple]]:
    """Unit-cell shapes of ``scheme`` in ``m`` dimensions, by degree k >= 1.

    Each template is (corner offsets from the anchor site, faces), and the
    templates of one degree are sorted by their offsets.  Every shape
    starts at the origin and no offset is below it, so a cell's first
    corner, its anchor, is also its least corner.  A face is (position of
    its own anchor among the cell's corners, index of its template one
    degree down, sign).  Cubic shapes span one axis subset each and pair a
    lower and an upper face per axis with alternating signs; simplices are
    the chains of ``_unit_chains``, face i deleting corner i with sign
    (-1)^i.
    """
    origin = (0,) * m
    chains = _unit_chains(m)
    # Per degree: (corner offsets, [(corner offsets of a face, sign)]).
    shapes = []
    for k in range(1, m + 1):
        if scheme == SCHEME_TRIANGULAR:
            shapes.append([(c, [(c[:i] + c[i + 1:], (-1) ** i)
                                for i in range(k + 1)]) for c in chains[k]])
            continue
        templates = []
        for axes in combinations(range(m), k):
            faces = []
            for j, axis in enumerate(axes, start=1):
                rest = tuple(a for a in axes if a != axis)
                up = tuple(int(a == axis) for a in range(m))
                faces += [(_cube_corner_labels(origin, rest), (-1) ** j),
                          (_cube_corner_labels(up, rest), -(-1) ** j)]
            templates.append((_cube_corner_labels(origin, axes), faces))
        shapes.append(templates)
    per_degree = []
    below = {(origin,): 0}
    for templates in shapes:
        templates.sort(key=itemgetter(0))
        per_degree.append([
            (corners, tuple(
                (corners.index(face[0]),
                 below[tuple(tuple(map(sub, q, face[0])) for q in face)],
                 sign)
                for face, sign in faces))
            for corners, faces in templates])
        below = {corners: t for t, (corners, _) in enumerate(per_degree[-1])}
    return per_degree


def build_complex(indices: Iterable[tuple], scheme: str, *,
                  index_box: Sequence[tuple[int, int]] | None = None,
                  periodic_axes: Sequence[int] = ()) -> DeltaComplex:
    """Build the grid complex on a set of integer multi-indices.

    ``scheme`` selects cubic cells (all unit boxes whose corners survive)
    or the triangular split along each box's main diagonal.  Every cell
    template of the scheme is placed at every site, and a k-cell exists
    exactly when all of its own corners are present, so deleting a
    vertex beforehand removes precisely its closed star.  ``index_box``
    is recorded in the lattice info and defaults to the componentwise
    hull.

    On each of the 0-based ``periodic_axes`` the top coordinate of
    ``index_box`` names the same site as the bottom one, so the indices
    must lie below it there and the complex is built directly on the
    torus: a cell at the top of such an axis wraps onto the bottom, and
    each translation orbit of cells is built once.

    A cell is named by its anchor vertex and its template.  Anchors run
    in vertex order and the templates of a degree in order of their
    offsets, so each degree comes out ordered by the cells' unwrapped
    corner labels (by vertex-id tuples on a free grid), and a face is
    found from its own anchor and template without any search.
    """
    if scheme not in SCHEMES:
        raise ComplexBuildError(f"unknown cell scheme {scheme!r}")
    verts = sorted({tuple(int(c) for c in idx) for idx in indices})
    if not verts:
        raise ComplexBuildError("empty index set")
    m = len(verts[0])
    if any(len(v) != m for v in verts):
        raise ComplexBuildError("mixed multi-index lengths")
    if m > 3:
        raise DimensionError("lattice dimension must be at most 3")
    if index_box is None:
        index_box = tuple(
            (min(v[a] for v in verts), max(v[a] for v in verts))
            for a in range(m))
    else:
        index_box = tuple((int(lo), int(hi)) for lo, hi in index_box)
    # Corner label -> vertex id; on a periodic axis the top coordinate
    # looks up the site at the bottom.
    lookup = {v: i for i, v in enumerate(verts)}
    for a in periodic_axes:
        lo, hi = index_box[a]
        if not all(lo <= v[a] < hi for v in verts):
            raise ComplexBuildError(
                f"periodic axis {a + 1} needs every index in [{lo}, {hi})")
        lookup.update([(lab[:a] + (hi,) + lab[a + 1:], i)
                       for lab, i in lookup.items() if lab[a] == lo])
    unit = list(product((0, 1), repeat=m))
    around = [[lookup.get(tuple(map(add, v, u))) for u in unit]
              for v in verts]
    shape = SHAPE_CUBE if scheme == SCHEME_CUBIC else SHAPE_SIMPLEX

    n = len(verts)
    layers = [[Cell((i,), (), shape) for i in range(n)]]
    # Cell id of (anchor, template) at slot anchor * width + template,
    # None where a corner is missing.
    slot: list = list(range(n))
    width = 1
    for templates in _cell_templates(scheme, m):
        plan = [(itemgetter(*map(unit.index, offsets)), faces)
                for offsets, faces in templates]
        layer: list[Cell] = []
        next_slot: list = [None] * (n * len(plan))
        s = 0
        for corners in around:
            for get, faces in plan:
                ids = get(corners)
                if None not in ids:
                    next_slot[s] = len(layer)
                    layer.append(Cell(ids, tuple([
                        (slot[ids[p] * width + t], sign)
                        for p, t, sign in faces]), shape))
                s += 1
        layers.append(layer)
        slot, width = next_slot, len(plan)

    info = {"index_box": index_box, "scheme": scheme, "dimension": m}
    return DeltaComplex(verts, layers, lattice_info=info)


# ---------------------------------------------------------------------------
# Boundary and coboundary operators


def boundary_of_cell(complex_: DeltaComplex, k: int, cell_id: int,
                     ring: str = RING_INT) -> Chain:
    """Signed face chain of one cell."""
    if k < 0 or k > complex_.dim:
        raise DimensionError(f"no cells of dimension {k}")
    cell = complex_.cells[k][cell_id]
    data: dict[int, int] = {}
    for fid, coeff in cell.faces:
        data[fid] = data.get(fid, 0) + coeff
    return Chain(k - 1, data, ring)


def boundary_map(chain: Chain, complex_: DeltaComplex) -> Chain:
    """Boundary of a chain; 0-chains map to the empty (-1)-chain."""
    if chain.dim == 0:
        return Chain(-1, {}, chain.ring)
    if chain.dim < 0 or chain.dim > complex_.dim:
        raise DimensionError(f"no cells of dimension {chain.dim}")
    data: dict[int, object] = {}
    layer = complex_.cells[chain.dim]
    for cid, a in chain.coeffs.items():
        for fid, coeff in layer[cid].faces:
            data[fid] = data.get(fid, 0) + a * coeff
    return Chain(chain.dim - 1, data, chain.ring)


def coboundary_map(cochain: Cochain, complex_: DeltaComplex) -> Cochain:
    """Adjoint of the boundary: (delta x)(cell) = <x, boundary(cell)>."""
    target = cochain.dim + 1
    data: dict[int, object] = {}
    if target <= complex_.dim:
        for j, cell in enumerate(complex_.cells[target]):
            total = 0
            for fid, coeff in cell.faces:
                v = cochain.coeffs.get(fid)
                if v is not None:
                    total += coeff * v
            if total != 0:
                data[j] = total
    return Cochain(target, data, cochain.ring)


def boundary_columns(complex_: DeltaComplex, k: int) -> list[dict[int, int]]:
    """Columns of the k-th boundary operator as {face id: coefficient}.

    Built straight from ``Cell.faces``: repeated faces are summed and
    entries that cancel to 0 are dropped.  The list is cached on the
    complex and must not be modified.
    """
    if k < 1 or k > complex_.dim:
        raise DimensionError(
            f"boundary columns defined for 1 <= k <= {complex_.dim}, got {k}")
    key = ("columns", k)
    cached = complex_._cache.get(key)
    if cached is None:
        cached = []
        for cell in complex_.cells[k]:
            col: dict[int, int] = {}
            for fid, coeff in cell.faces:
                col[fid] = col.get(fid, 0) + coeff
            cached.append({fid: v for fid, v in col.items() if v})
        complex_._cache[key] = cached
    return cached


def incidence_matrix(complex_: DeltaComplex, k: int) -> np.ndarray:
    """Matrix of the k-th boundary operator.

    Rows are (k-1)-cells, columns are k-cells, both in stored order, so
    the matrix product [d_k][d_{k+1}] vanishes.
    """
    if k < 1 or k > complex_.dim:
        raise DimensionError(
            f"incidence matrix defined for 1 <= k <= {complex_.dim}, got {k}")
    key = ("incidence", k)
    cached = complex_._cache.get(key)
    if cached is not None:
        return cached
    M = np.zeros((complex_.n_cells(k - 1), complex_.n_cells(k)),
                 dtype=np.int64)
    for j, col in enumerate(boundary_columns(complex_, k)):
        for fid, v in col.items():
            M[fid, j] = v
    M.setflags(write=False)
    complex_._cache[key] = M
    return M


# ---------------------------------------------------------------------------
# Validation


@dataclass
class ValidationReport:
    ok: bool
    closure_defects: tuple
    boundary_failures: tuple
    messages: tuple = field(default=())

    def __str__(self) -> str:
        if self.ok:
            return "complex valid"
        return "; ".join(self.messages)


def validate_complex(complex_: DeltaComplex) -> ValidationReport:
    """Check closure and that the boundary of a boundary vanishes."""
    messages = []
    for k, labels, face in complex_.closure_defects:
        messages.append(
            f"closure violation: {k}-cell {labels} is missing face {face}")
    failures = []
    for k in range(2, complex_.dim + 1):
        for cid in range(complex_.n_cells(k)):
            acc: dict[int, int] = {}
            for fid, c1 in complex_.cells[k][cid].faces:
                for gid, c2 in complex_.cells[k - 1][fid].faces:
                    acc[gid] = acc.get(gid, 0) + c1 * c2
            if any(v != 0 for v in acc.values()):
                failures.append((k, cid))
                messages.append(
                    f"boundary of boundary nonzero on {k}-cell {cid}")
    ok = not messages
    return ValidationReport(ok, complex_.closure_defects, tuple(failures),
                            tuple(messages))


# ---------------------------------------------------------------------------
# Barycentric subdivision


def barycentric_subdivide(complex_: DeltaComplex) -> DeltaComplex:
    """First barycentric subdivision of a strict triangular complex.

    New vertices are the cells of the input, labeled (dim, cell_id); the
    k-cells of the output are the strictly nested chains of k+1 input
    cells.  Cubic cells and quotient complexes (repeated vertices or
    duplicated vertex tuples) are refused.
    """
    for k, layer in enumerate(complex_.cells):
        for i, cell in enumerate(layer):
            if cell.shape != SHAPE_SIMPLEX:
                raise UnsupportedConfigurationError(
                    "barycentric subdivision supports triangular cells only")
            if len(set(cell.vertices)) != len(cell.vertices):
                raise UnsupportedConfigurationError(
                    f"cell ({k},{i}) repeats vertices; subdivision of "
                    "quotient complexes is not supported")
    for k in range(complex_.dim + 1):
        for hits in complex_._cells_by_vertex_set(k).values():
            if len(hits) > 1:
                raise UnsupportedConfigurationError(
                    "two cells share one vertex set; subdivision of "
                    "quotient complexes is not supported")

    cell_key: dict[tuple[int, int], frozenset] = {}
    lookup: dict[tuple[int, frozenset], tuple[int, int]] = {}
    for k, layer in enumerate(complex_.cells):
        for i, cell in enumerate(layer):
            s = frozenset(cell.vertices)
            cell_key[(k, i)] = s
            lookup[(k, s)] = (k, i)

    below: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for (k, i), s in cell_key.items():
        subs = []
        verts = sorted(s)
        for size in range(1, len(verts)):
            for combo in combinations(verts, size):
                hit = lookup.get((size - 1, frozenset(combo)))
                if hit is not None:
                    subs.append(hit)
        below[(k, i)] = subs

    chains_at: dict[tuple[int, int], list[tuple]] = {}

    def chains_ending(node: tuple[int, int]) -> list[tuple]:
        memo = chains_at.get(node)
        if memo is None:
            memo = [(node,)]
            for b in below[node]:
                for ch in chains_ending(b):
                    memo.append(ch + (node,))
            chains_at[node] = memo
        return memo

    all_chains: list[tuple] = []
    for node in cell_key:
        all_chains.extend(chains_ending(node))
    return DeltaComplex.from_simplices(all_chains, auto_close=False)
