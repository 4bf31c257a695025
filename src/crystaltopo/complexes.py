"""Delta-complexes with ordered-vertex cells and explicit face lists.

A cell of dimension k is an ordered tuple of vertex ids together with a
signed list of its (k-1)-faces.  Triangular cells follow the alternating
vertex-deletion rule; cubic cells pair a lower and an upper face per spanned
axis with alternating signs.  Face lists are stored explicitly because
periodic grids and quotients produce distinct cells sharing one vertex
tuple, and collapsed boundaries drop faces entirely; the vertex tuple
alone cannot define incidence there.  So incidence and direction are read
from the faces only: an edge runs from its face with coefficient -1 (its
tail) to its face with +1 (its head), ``CellLayer.ends``, and
``DeltaComplex.edge_ends`` names those 0-cells by their vertex ids.

Each degree is stored only as int64 arrays in compressed sparse rows
(:class:`CellLayer`): the vertex ids of its cells with row offsets, their
face ids and coefficients with row offsets, and a shape code per cell.
Every reader in the package works on these arrays.  ``DeltaComplex.cells``
is a read-only view of :class:`Cell` objects, built only when asked for.
A boundary operator is read from the stored face rows: the coreduction
walk of :mod:`crystaltopo.homology`, the field probes and
``boundary_map``/``coboundary_map`` read them as they are, and
``boundary_columns`` sums them into the sparse columns that the
generators' Smith reduction and ``build --dump-matrices`` take; no dense
copy is kept.

Cells are looked up by vertex set in one cached index per degree, whose
keys are the cells' sorted vertex ids as one int64 or as ``row_keys``:
``find_cells`` searches it for ``find_cell``, the command line's edge data
and a subdivision.  ``np.unique`` over ``row_keys`` closes explicit
complexes under faces.  The grid builder places unit-cell templates at
every site of a free box or, with periodic axes, directly on the torus,
all sites at once by numpy gathers, and finds a face in O(1) from its
anchor site and template: on small tori one vertex set can name several
cells.

Orientation bookkeeping: freshly built triangular cells are stored with
their vertex tuple ascending; a query for a permuted spelling resolves to
the stored cell with the permutation's sign.  Cubic cells are stored in
circular corner order (counterclockwise for squares, bottom ring then top
ring for cubes).
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import combinations, pairwise, product
from operator import eq, itemgetter, le, sub
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

# Most cells that closing an explicit complex under faces may produce.  One
# n-vertex simplex closes to 2^n - 1 cells, so a document of a few bytes
# would otherwise hang the build and exhaust memory; a 17-vertex simplex
# (131 071 cells) still builds.
MAX_CELLS = 200_000


# How a coefficient is read in each ring.  Text is refused first, since
# int() and float() would read numeric strings and bytes.
_READ = {RING_INT: int, RING_MOD2: lambda v: int(v) % 2, RING_REAL: float}
_TEXT = (str, bytes, bytearray)


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
            if any(issubclass(t, _TEXT)
                   for t in set(map(type, coeffs.values()))):
                bad = next(v for v in coeffs.values() if isinstance(v, _TEXT))
                raise ValueError(f"coefficient {bad!r} is text, not a number")
            if set(map(type, coeffs)) != {int}:
                # numpy integers are ids; floats, text and booleans are not
                for cid in coeffs:
                    if isinstance(cid, (bool, np.bool_)):
                        raise TypeError(f"cell id {cid!r} is not an integer")
                coeffs = {operator.index(c): v for c, v in coeffs.items()}
            read = _READ[ring]
            for cid, v in coeffs.items():
                v = read(v)
                if v != 0:
                    data[cid] = v
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
    convention produced the cell.  Complexes store their cells as arrays
    (:class:`CellLayer`); a ``Cell`` is their per-cell view.
    """

    vertices: tuple[int, ...]
    faces: tuple[tuple[int, int], ...]
    shape: str = SHAPE_SIMPLEX


# Shape code of a cell in ``CellLayer.shapes``: the index of its name here.
SHAPE_NAMES = (SHAPE_SIMPLEX, SHAPE_CUBE)
SHAPE_CODES = {name: code for code, name in enumerate(SHAPE_NAMES)}
CUBE = SHAPE_CODES[SHAPE_CUBE]


def _int64(values: Sequence, what: str) -> np.ndarray:
    """Integers as an int64 array; floats and values beyond int64 are
    refused."""
    try:
        return np.fromiter(map(operator.index, values), dtype=np.int64,
                           count=len(values))
    except (TypeError, OverflowError):
        raise ComplexBuildError(
            f"{what} must be integers within int64") from None


def _row_positions(ptr: np.ndarray,
                   rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions of the CSR rows ``rows``, concatenated in order, and
    for each position the index into ``rows`` of the row it belongs to."""
    starts = ptr[rows]
    sizes = ptr[rows + 1] - starts
    owner = np.repeat(np.arange(len(rows)), sizes)
    skip = np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
    return np.arange(len(owner)) + skip, owner


def row_offsets(sizes) -> np.ndarray:
    """CSR row offsets for rows of the given sizes."""
    return np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])


def row_keys(rows: np.ndarray) -> np.ndarray:
    """One ``np.void`` key per row of nonnegative ids, its big-endian int64
    bytes: the keys sort, ``np.unique`` and ``np.searchsorted`` in exactly
    the rows' lexicographic order."""
    rows = np.ascontiguousarray(rows, dtype=">i8")
    return rows.view(np.dtype((np.void, 8 * rows.shape[1])))[:, 0]


def padded_rows(values: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """CSR rows of nonnegative ids plus one, padded with zeros to one width:
    as ``row_keys`` a prefix sorts first."""
    sizes = np.diff(ptr)
    width = sizes.max(initial=1)
    if (sizes == width).all():
        return values.reshape(len(sizes), width) + 1
    out = np.zeros((len(sizes), width), np.int64)
    rows = np.repeat(np.arange(len(sizes)), sizes)
    out[rows, np.arange(len(values)) - ptr[rows]] = values + 1
    return out


def summed_rows(owner: np.ndarray, faces: np.ndarray, coeffs: np.ndarray,
                n_rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row offsets, face ids and coefficients of rows 0..n_rows-1, entry i
    adding ``coeffs[i]`` to face ``faces[i]`` of row ``owner[i]``: faces
    summed and ascending within a row, zero sums dropped, grouped by one
    stable sort of the int64 key owner * span + face.  The sums run in
    int64 when none can overflow it, on Python integers otherwise."""
    span = int(faces.max(initial=0)) + 1
    assert n_rows * span < 2 ** 63
    if coeffs.size and _magnitude(coeffs) * coeffs.size >= 2 ** 63:
        coeffs = coeffs.astype(object)
    key = owner * span
    key += faces
    order = np.argsort(key, kind="stable")
    key, coeffs = key[order], coeffs[order]
    del order
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    sums = np.add.reduceat(coeffs, starts) if len(starts) else coeffs
    nonzero = np.asarray(sums != 0, dtype=bool)
    key = key[starts[nonzero]]
    return (row_offsets(np.bincount(key // span, minlength=n_rows)),
            key % span, sums[nonzero])


class CellLayer:
    """The cells of one degree as int64 arrays in compressed sparse rows.

    Cell i has the vertices ``vertices[vertex_ptr[i]:vertex_ptr[i + 1]]``
    in stored order, the faces ``faces[face_ptr[i]:face_ptr[i + 1]]`` (ids
    one degree down) with their coefficients at the same positions of
    ``coeffs``, and the shape ``SHAPE_NAMES[shapes[i]]``.  The arrays are
    read-only.  Incidence and direction come from the faces alone (an
    edge's by ``ends``); the vertex row names a cell in lookups.
    """

    __slots__ = ("vertices", "vertex_ptr", "faces", "coeffs", "face_ptr",
                 "shapes")

    def __init__(self, vertices, vertex_ptr, faces, coeffs, face_ptr,
                 shapes):
        self.vertices = np.asarray(vertices, dtype=np.int64)
        self.vertex_ptr = np.asarray(vertex_ptr, dtype=np.int64)
        self.faces = np.asarray(faces, dtype=np.int64)
        self.coeffs = np.asarray(coeffs, dtype=np.int64)
        self.face_ptr = np.asarray(face_ptr, dtype=np.int64)
        self.shapes = np.asarray(shapes, dtype=np.int8)
        for name in self.__slots__:
            getattr(self, name).setflags(write=False)

    @classmethod
    def uniform(cls, vertices: np.ndarray, faces: np.ndarray,
                coeffs: np.ndarray, shape: int) -> "CellLayer":
        """Cells of one shape code with equally many vertices and faces,
        one row of the 2-D arrays per cell."""
        n, corners = vertices.shape
        return cls(vertices.ravel(), np.arange(n + 1) * corners,
                   faces.ravel(), coeffs.ravel(),
                   np.arange(n + 1) * faces.shape[1], np.full(n, shape))

    def __len__(self) -> int:
        return len(self.shapes)

    def ends(self, ids=None) -> tuple[np.ndarray, np.ndarray]:
        """The tail and head of edges ``ids`` (all by default): their faces
        with coefficient -1 and +1, one 0-cell twice on a period-1 loop.
        Any other edge is refused, by its id: it is not a graph edge."""
        rows = self if ids is None else self.take(ids)
        short = np.append(np.diff(rows.face_ptr) != 2, True).argmax()
        c = rows.coeffs[:2 * short].reshape(-1, 2)
        bad = np.append((np.abs(c[:, 0]) != 1) | (c[:, 1] != -c[:, 0]), True)
        if (first := bad.argmax()) < len(rows):
            raise UnsupportedConfigurationError(
                f"edge {first if ids is None else np.asarray(ids)[first]} is "
                "not a graph edge: its faces are not one tail (-1) and one "
                "head (+1)")
        f, swap = rows.faces.reshape(-1, 2), c[:, 0] > 0
        return (np.where(swap, f[:, 1], f[:, 0]),
                np.where(swap, f[:, 0], f[:, 1]))

    def vertex_rows(self) -> list[list[int]]:
        flat, ptr = self.vertices.tolist(), self.vertex_ptr.tolist()
        return [flat[s:e] for s, e in zip(ptr, ptr[1:])]

    def summed_faces(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``summed_rows`` of the cells: CSR rows of their summed faces."""
        return summed_rows(np.repeat(np.arange(len(self)), np.diff(
            self.face_ptr)), self.faces, self.coeffs, len(self))

    def face_entries(self, rows) -> tuple[np.ndarray, np.ndarray,
                                          np.ndarray]:
        """The face ids and coefficients of the cells ``rows``, in order,
        and for each entry the index into ``rows`` of its cell."""
        pos, owner = _row_positions(self.face_ptr,
                                    np.asarray(rows, dtype=np.int64))
        return owner, self.faces[pos], self.coeffs[pos]

    def take(self, rows) -> "CellLayer":
        """The cells ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.int64)
        vpos, _ = _row_positions(self.vertex_ptr, rows)
        fpos, _ = _row_positions(self.face_ptr, rows)
        return CellLayer(
            self.vertices[vpos], row_offsets(np.diff(self.vertex_ptr)[rows]),
            self.faces[fpos], self.coeffs[fpos],
            row_offsets(np.diff(self.face_ptr)[rows]), self.shapes[rows])

    def cell(self, i: int) -> Cell:
        return self.take([range(len(self))[i]]).cells()[0]

    def cells(self) -> tuple[Cell, ...]:
        ptr = self.face_ptr.tolist()
        pairs = list(zip(self.faces.tolist(), self.coeffs.tolist()))
        names = [SHAPE_NAMES[c] for c in self.shapes.tolist()]
        return tuple(
            Cell(tuple(vs), tuple(pairs[s:e]), name)
            for vs, s, e, name in zip(self.vertex_rows(), ptr, ptr[1:],
                                      names))


def _check_layers(layers: Sequence[CellLayer], n_vertices: int) -> None:
    """Every cell has a vertex, and its vertex and face ids exist."""
    below = 0
    for k, layer in enumerate(layers):
        if (np.diff(layer.vertex_ptr) < 1).any():
            raise ComplexBuildError(f"a {k}-cell has no vertices")
        for ids, n, what in ((layer.vertices, n_vertices, "vertex"),
                             (layer.faces, below, f"{k - 1}-cell")):
            if ids.size and not 0 <= ids.min() <= ids.max() < n:
                raise ComplexBuildError(
                    f"a {k}-cell names a {what} id outside 0..{n - 1}")
        below = len(layer)


class DeltaComplex:
    """Immutable cell complex; construct via the class methods or builders.

    ``DeltaComplex(labels, cells)`` takes one sequence of :class:`Cell` per
    degree and :meth:`from_layers` one :class:`CellLayer`; either way the
    cells are stored only as the arrays of ``layers``, and ``cells`` is a
    read-only view of them built on first access.  Vertex ids, face ids and
    coefficients must be integers within int64, every cell needs a vertex,
    and its ids must name existing vertices and cells one degree down.
    """

    def __init__(self, vertex_labels: Sequence,
                 cells: Sequence[Sequence[Cell]]):
        layers = []
        for layer in map(tuple, cells):
            try:
                codes = [SHAPE_CODES[c.shape] for c in layer]
            except (KeyError, TypeError):
                raise ComplexBuildError(
                    f"cell shapes must be among {SHAPE_NAMES}") from None
            entries = [e for c in layer for e in c.faces]
            try:
                pairs = all(len(e) == 2 for e in entries)
            except TypeError:
                pairs = False
            if not pairs:
                raise ComplexBuildError(
                    "faces must be (face id, coefficient) pairs")
            layers.append(CellLayer(
                _int64([v for c in layer for v in c.vertices], "vertex ids"),
                row_offsets([len(c.vertices) for c in layer]),
                _int64([f for f, _ in entries], "face ids"),
                _int64([c for _, c in entries], "face coefficients"),
                row_offsets([len(c.faces) for c in layer]), codes))
        self._setup(vertex_labels, layers, None, ())

    @classmethod
    def from_layers(cls, vertex_labels: Sequence, layers: Sequence[CellLayer],
                    *, lattice_info: dict | None = None,
                    closure_defects: Sequence = ()) -> "DeltaComplex":
        self = cls.__new__(cls)
        self._setup(vertex_labels, layers, lattice_info, closure_defects)
        return self

    def _setup(self, vertex_labels, layers, lattice_info,
               closure_defects) -> None:
        self.vertex_labels = tuple(vertex_labels)
        self.label_to_id = {lab: i for i, lab in enumerate(self.vertex_labels)}
        if len(self.label_to_id) != len(self.vertex_labels):
            raise ComplexBuildError("duplicate vertex labels")
        layers = list(layers)
        while len(layers) > 1 and not len(layers[-1]):
            layers.pop()
        _check_layers(layers, len(self.vertex_labels))
        self.layers: tuple[CellLayer, ...] = tuple(layers)
        self.lattice_info = lattice_info
        self.closure_defects = tuple(closure_defects)
        self._cache: dict = {}

    def _cached(self, key, build):
        """``build(self)``, built on the first call for ``key`` and kept:
        the one store of what is derived from the read-only layers, which
        never goes stale.  A build that raises stores nothing."""
        if key not in self._cache:
            self._cache[key] = build(self)
        return self._cache[key]

    # -- structure queries -------------------------------------------------

    @property
    def cells(self) -> tuple[tuple[Cell, ...], ...]:
        """Per degree, the cells as :class:`Cell` objects (built once)."""
        return self._cached("cells", lambda cx: tuple(
            layer.cells() for layer in cx.layers))

    @property
    def dim(self) -> int:
        return len(self.layers) - 1

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_labels)

    def n_cells(self, k: int) -> int:
        return len(self.layers[k]) if 0 <= k <= self.dim else 0

    def cell(self, k: int, cell_id: int) -> Cell:
        return self.layers[k].cell(cell_id)

    def cell_counts(self) -> list[int]:
        return [len(layer) for layer in self.layers]

    def point_vertices(self) -> np.ndarray:
        """Each 0-cell's vertex; the 0-cells must be the vertices, one each."""
        points = self.layers[0].vertices
        if len(points) != self.n_cells(0) or (np.bincount(
                points, minlength=self.n_vertices) != 1).any():
            raise UnsupportedConfigurationError(
                "the 0-cells are not the vertices, one each")
        return points

    def edge_ends(self, ids=None) -> tuple[np.ndarray, np.ndarray]:
        """The tail and head vertex ids of edges ``ids`` (all by default):
        ``CellLayer.ends`` read through ``point_vertices``."""
        points = self.point_vertices()
        tail, head = self.layers[1].ends(ids)
        return points[tail], points[head]

    def vertex_id(self, label) -> int:
        try:
            return self.label_to_id[label]
        except KeyError:
            raise ComplexBuildError(f"unknown vertex label {label!r}") from None

    def label_tuple(self, k: int, cell_id: int) -> tuple:
        return tuple(self.vertex_labels[v]
                     for v in self.layers[k].cell(cell_id).vertices)

    def _vertex_index(self, k: int) -> tuple:
        """The k-cells by vertex set, cached per degree: the ascending
        ``_set_keys`` of their ``padded_rows``, the cell of each key
        (ascending among equal keys) then -1, the rows' width, and per cell
        then for -1 the sign of the permutation that sorts its stored
        spelling, or 0 where :meth:`find_cell` gives +1."""
        def build(cx):
            layer = cx.layers[k]
            rows = padded_rows(layer.vertices, layer.vertex_ptr)
            keys, rows, odd = cx._set_keys(rows, rows.shape[1])
            order = np.argsort(keys, kind="stable")
            spins = np.where((k == 1) | (k > 1) & (layer.shapes != CUBE),
                             1 - 2 * odd, 0)
            return (keys[order], np.append(order, -1), rows.shape[1],
                    np.append(spins, 0))
        return self._cached(("vertex index", k), build)

    def _set_keys(self, rows: np.ndarray, width: int) -> tuple:
        """Keys of the vertex sets of an (m, 1..width) array of vertex ids
        plus one, each row sorted in descending order and zero-padded on
        the right to ``width``: an int64 in base n_vertices + 1 when that
        many digits fit one, ``row_keys`` otherwise.  Also the sorted rows,
        and whether each had an odd number of pairs in ascending order, by
        a bubble sort over whole columns: on short rows far faster than
        ``np.sort``, which sorts them one by one."""
        cols, odd = list(rows.T), np.zeros(len(rows), bool)
        for stop in range(len(cols) - 1, 0, -1):
            for a in range(stop):
                lo, hi = cols[a], cols[a + 1]
                odd ^= lo < hi
                cols[a], cols[a + 1] = np.maximum(lo, hi), np.minimum(lo, hi)
        rows, base = np.stack(cols, axis=1), self.n_vertices + 1
        if base ** width >= 2 ** 63:
            padded = np.pad(rows, ((0, 0), (0, width - len(cols))))
            return row_keys(padded), rows, odd
        keys = cols[0]
        for column in cols[1:]:
            keys = keys * base + column
        return keys * base ** (width - len(cols)), rows, odd

    def find_cells(self, k: int, ids) -> tuple[np.ndarray, np.ndarray,
                                                np.ndarray]:
        """Look up k-cells by the vertex sets of the rows of an (m, w) array
        of vertex ids, a negative id naming no vertex: per row the cell or
        -1, how many k-cells have that set, and :meth:`find_cell`'s sign.
        A repeated vertex names no oriented cell; k outside 0..dim none."""
        ids = np.asarray(ids, dtype=np.int64)
        m, w = ids.shape
        if not (m and 0 <= k <= self.dim
                and 0 < w <= self._vertex_index(k)[2]):
            return np.full(m, -1), np.zeros(m, np.int64), np.ones(m, np.int64)
        keys, cells, width, spins = self._vertex_index(k)
        query, rows, odd = self._set_keys(ids + 1, width)
        start, stop = _find(keys, query)
        count = np.where((rows[:, -1] > 0) & (rows[:, 0] <= self.n_vertices),
                         stop - start, 0)
        cid = np.where(count == 1, cells[start], -1)
        # An oriented cell's sign is the parity of the pairs in ascending
        # order in the query and in the stored spelling.
        spin = spins[cid]
        cid[(spin != 0) & (rows[:, 1:] == rows[:, :-1]).any(axis=1)] = -1
        return cid, count, np.where(spin, spin * (1 - 2 * odd), 1)

    def find_cell(self, k: int, vertex_labels: Sequence) -> tuple[int, int]:
        """Locate a cell by vertex labels in any order.

        Returns (cell_id, sign) where sign is the permutation parity
        relating the query spelling to the stored one; an edge of either
        shape is a 1-simplex.  Squares and cubes give +1, since a corner
        permutation need not be a symmetry of the cell.  Ambiguous keys,
        which occur only in quotient complexes, are rejected.
        """
        ids = tuple(self.vertex_id(lab) for lab in vertex_labels)
        if k < 0 or k > self.dim:
            raise DimensionError(f"no cells of dimension {k}")
        cid, count, sign = map(int, np.ravel(self.find_cells(k, [ids])))
        if not count:
            raise ComplexBuildError(
                f"no {k}-cell with vertices {tuple(vertex_labels)!r}")
        if count > 1:
            raise ComplexBuildError(
                f"vertex set {tuple(vertex_labels)!r} names {count} cells; "
                "query by cell id instead")
        if cid < 0:
            raise ComplexBuildError(f"repeated vertex in cell {ids}")
        return cid, sign

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
                       auto_close: bool = True) -> "DeltaComplex":
        """Assemble a strict simplicial delta-complex from vertex tuples.

        Input tuples may arrive in any vertex order and any mix of
        dimensions; cells are stored ascending.  With ``auto_close`` every
        face is added, degree by degree as ``row_keys``, and the build is
        refused once it passes ``MAX_CELLS`` cells, at once for a cell
        whose own closure does.  Without it, missing faces are recorded as
        closure defects for ``validate_complex`` to report.
        """
        spelled = []
        for simplex in simplices:
            t = tuple(simplex)
            if len(t) == 0:
                raise ComplexBuildError("empty cell tuple")
            key = tuple(sorted(t))
            if any(map(eq, key, key[1:])):
                raise ComplexBuildError(f"repeated vertex in cell {t}")
            spelled.append(key)
        labels = sorted({lab for key in spelled for lab in key})
        label_to_id = {lab: i for i, lab in enumerate(labels)}
        rows = [[label_to_id[lab] for lab in key] for key in spelled]
        top, over = max(map(len, rows), default=1) - 1, (
            f"closing the cells under faces passes the limit of {MAX_CELLS} "
            "cells")
        if auto_close and top and 2 ** (top + 1) - 1 > MAX_CELLS:
            raise ComplexBuildError(over)
        # Per degree, the sorted unique row_keys of its ascending id rows.
        by_dim = [row_keys(np.arange(len(labels))[:, None])] + [np.unique(
            row_keys(np.reshape([r for r in rows if len(r) == k], (-1, k))))
            for k in range(2, top + 2)]
        for k in range(top if auto_close else 0, 0, -1):
            cells = by_dim[k].view(">i8").reshape(-1, k + 1)
            step = max(1, MAX_CELLS // (k + 1))
            for start in range(0, len(cells), step):
                # np.union1d, but the face keys are freed before the sort
                by_dim[k - 1] = np.unique(np.concatenate(
                    [by_dim[k - 1], _face_keys(cells[start:start + step])]))
                if sum(map(len, by_dim)) > MAX_CELLS:
                    raise ComplexBuildError(over)
        layers, defects = [], []
        for k, cell_keys in enumerate(by_dim):
            cells = cell_keys.view(">i8").reshape(-1, k + 1)
            fids = np.empty((len(cells), 0), int)
            if k:
                at, stop = _find(by_dim[k - 1], _face_keys(cells))
                fids = np.where(stop > at, at, -1).reshape(len(cells), k + 1)
            for c, i in np.argwhere(fids < 0).tolist():
                names = [labels[v] for v in cells[c].tolist()]
                defects.append((k, tuple(names),
                                tuple(names[:i] + names[i + 1:])))
            found = fids >= 0
            layers.append(CellLayer(
                cells.ravel(), np.arange(len(cells) + 1) * (k + 1),
                fids[found], 1 - np.nonzero(found)[1] % 2 * 2,
                row_offsets(found.sum(axis=1)), np.zeros(len(cells))))
        return cls.from_layers(labels, layers, closure_defects=defects)


def _find(keys: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, ...]:
    """Where each of ``query`` starts and stops in the sorted ``keys``."""
    return np.searchsorted(keys, query), np.searchsorted(keys, query, "right")


def _face_keys(cells: np.ndarray) -> np.ndarray:
    """``row_keys`` of the faces of the simplices ``cells``, cell by cell,
    face i of a cell deleting its vertex i."""
    cols = np.arange(cells.shape[1] - 1)
    drop = cols + (cols >= np.arange(cells.shape[1])[:, None])
    return row_keys(np.take(cells, drop, axis=1).reshape(-1, len(cols)))


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


@functools.cache
def _cell_templates(scheme: str, m: int) -> tuple:
    """Unit-cell shapes of ``scheme`` in ``m`` dimensions, by degree k >= 1,
    built once per scheme and dimension.

    Each template is (corner offsets from the anchor site, faces), and the
    templates of one degree are sorted by their offsets.  Every shape
    starts at the origin and no offset is below it, so a cell's first
    corner, its anchor, is also its least corner.  A face is (position of
    its own anchor among the cell's corners, index of its template one
    degree down, sign).  Cubic shapes span one axis subset each and pair a
    lower and an upper face per axis with alternating signs; simplices are
    the chains of ``_unit_chains``, face i deleting corner i with sign
    (-1)^i.  With them come read-only arrays: the unit offsets and, per
    degree, corner offset indices and face anchors, templates and signs.
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
        per_degree.append(tuple(
            (corners, tuple(
                (corners.index(face[0]),
                 below[tuple(tuple(map(sub, q, face[0])) for q in face)],
                 sign)
                for face, sign in faces))
            for corners, faces in templates))
        below = {corners: t for t, (corners, _) in enumerate(per_degree[-1])}
    unit = list(product((0, 1), repeat=m))
    offsets = np.array(unit, dtype=np.int64).reshape(-1, m)
    arrays = tuple(
        (np.array([[unit.index(c) for c in corners] for corners, _ in degree]),
         *np.array([faces for _, faces in degree]).transpose(2, 0, 1))
        for degree in per_degree)
    for a in (offsets, *sum(arrays, ())):
        a.setflags(write=False)
    return tuple(per_degree), offsets, arrays


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

    Every template is placed at all sites at once by array gathers, so
    the hull of the indices must hold fewer than 2^62 points.
    """
    verts = sorted({tuple(map(int, idx)) for idx in indices})
    if not verts:
        raise ComplexBuildError("empty index set")
    m = len(verts[0])
    if any(len(v) != m for v in verts):
        raise ComplexBuildError("mixed multi-index lengths")
    if m > 3:
        raise DimensionError("lattice dimension must be at most 3")
    hull = tuple((min(c), max(c)) for c in zip(*verts))
    index_box = hull if index_box is None else tuple(
        (int(lo), int(hi)) for lo, hi in index_box)
    for a in periodic_axes:
        lo, hi = index_box[a]
        if not lo <= hull[a][0] <= hull[a][1] < hi:
            raise ComplexBuildError(
                f"periodic axis {a + 1} needs every index in [{lo}, {hi})")
    # The grid starts at the hull on a free axis and at the box on a
    # periodic one; offsets stay exact until the grid's size is checked.
    origin = [index_box[a][0] if a in periodic_axes else lo
              for a, (lo, _) in enumerate(hull)]
    rel = np.array(verts, dtype=object).reshape(len(verts), m) - origin
    return _grid_complex(rel, verts, scheme, index_box, periodic_axes)


def _grid_complex(rel: np.ndarray, labels: Sequence, scheme: str,
                  index_box, periodic_axes: Sequence[int]) -> DeltaComplex:
    """The grid complex on distinct sites ``rel`` (an n x m integer array
    in ascending row order, offsets from the grid origin) named ``labels``.

    Each site's key is its row-major position in a grid of fewer than
    2^62 points, as wide as the period on a periodic axis, where a corner
    at the top wraps to the bottom, and as the largest offset + 2 on a
    free axis.  A cell is named by its anchor vertex and its template.
    Anchors run in vertex order and the templates of a degree in order of
    their offsets, so each degree comes out ordered by the cells'
    unwrapped corner labels (by vertex-id tuples on a free grid), and a
    face is found from its own anchor and template without any search.
    """
    if scheme not in SCHEMES:
        raise ComplexBuildError(f"unknown cell scheme {scheme!r}")
    n, m = rel.shape
    extent = [int(hi) - int(lo) if a in periodic_axes else int(top) + 2
              for a, ((lo, hi), top) in enumerate(zip(index_box,
                                                      rel.max(axis=0)))]
    if math.prod(extent) >= 2 ** 62:
        raise ComplexBuildError("lattice indices span too wide a range")
    rel = np.asarray(rel, dtype=np.int64)
    strides = np.array([math.prod(extent[a + 1:]) for a in range(m)],
                       dtype=np.int64)
    keys = rel @ strides
    _, unit, arrays = _cell_templates(scheme, m)
    corner = rel[:, None, :] + unit
    for a in periodic_axes:
        corner[:, :, a] %= extent[a]
    corner_keys = corner @ strides
    found = np.minimum(np.searchsorted(keys, corner_keys), len(keys) - 1)
    # Vertex id at each unit-cube corner of each site, -1 where absent.
    around = np.where(keys[found] == corner_keys, found, -1)
    shape = CUBE if scheme == SCHEME_CUBIC else SHAPE_CODES[SHAPE_SIMPLEX]

    none = np.empty((n, 0), dtype=np.int64)
    layers = [CellLayer.uniform(np.arange(n)[:, None], none, none, shape)]
    # Cell id of (anchor, template) at slot anchor * width + template,
    # -1 where a corner is missing.
    slot = np.arange(n)
    width = 1
    for corners, at, below, sign in arrays:
        ids = around[:, corners]
        present = (ids >= 0).all(axis=2).ravel()
        cells = ids.reshape(-1, corners.shape[1])[present]
        t = np.flatnonzero(present) % len(corners)
        faces = slot[np.take_along_axis(cells, at[t], axis=1) * width
                     + below[t]]
        layers.append(CellLayer.uniform(cells, faces, sign[t], shape))
        slot = np.full(len(present), -1)
        slot[present] = np.arange(len(cells))
        width = len(corners)

    info = {"index_box": tuple((int(lo), int(hi)) for lo, hi in index_box),
            "scheme": scheme, "dimension": m}
    return DeltaComplex.from_layers(labels, layers, lattice_info=info)


# ---------------------------------------------------------------------------
# Boundary and coboundary operators


def boundary_of_cell(complex_: DeltaComplex, k: int, cell_id: int,
                     ring: str = RING_INT) -> Chain:
    """Signed face chain of one cell."""
    return boundary_map(Chain(k, {cell_id: 1}, ring), complex_)


def _support(chain: Chain, complex_: DeltaComplex) -> list[int]:
    """The cell ids of a chain or cochain, refused outside its degree."""
    cids, n = list(chain.coeffs), complex_.n_cells(chain.dim)
    if cids and not (0 <= min(cids) and max(cids) < n):
        raise IndexError(f"{type(chain).__name__.lower()} names a cell "
                         f"outside 0..{n - 1}")
    return cids


def boundary_map(chain: Chain, complex_: DeltaComplex) -> Chain:
    """Boundary of a chain; 0-chains map to the empty (-1)-chain."""
    if chain.dim and not 0 < chain.dim <= complex_.dim:
        raise DimensionError(f"no cells of dimension {chain.dim}")
    cids = _support(chain, complex_)
    owner, faces, coeffs = complex_.layers[chain.dim].face_entries(cids)
    scale = list(chain.coeffs.values())
    data: dict[int, object] = {}
    for o, fid, coeff in zip(owner.tolist(), faces.tolist(), coeffs.tolist()):
        data[fid] = data.get(fid, 0) + scale[o] * coeff
    return Chain(chain.dim - 1, data, chain.ring)


def coboundary_map(cochain: Cochain, complex_: DeltaComplex) -> Cochain:
    """Adjoint of the boundary: (delta x)(cell) = <x, boundary(cell)>.

    One boolean mask of the cells of x, read at the face ids of the cells
    one degree up, picks the entries that name a cell of x; only those are
    summed, per cell in row order starting from 0, and the cells come out
    ascending.  A top-degree cochain maps to the empty (dim + 1)-cochain.
    """
    if not 0 <= cochain.dim <= complex_.dim:
        raise DimensionError(f"no cells of dimension {cochain.dim}")
    cids, target = _support(cochain, complex_), cochain.dim + 1
    data: dict[int, object] = {}
    if cids and target <= complex_.dim:
        layer = complex_.layers[target]
        named = np.zeros(complex_.n_cells(cochain.dim), dtype=bool)
        named[cids] = True
        hits = np.flatnonzero(named[layer.faces])
        owner = np.searchsorted(layer.face_ptr, hits, side="right") - 1
        for j, fid, coeff in zip(owner.tolist(), layer.faces[hits].tolist(),
                                 layer.coeffs[hits].tolist()):
            data[j] = data.get(j, 0) + coeff * cochain.coeffs[fid]
    return Cochain(target, data, cochain.ring)


def boundary_columns(complex_: DeltaComplex, k: int) -> list[dict[int, int]]:
    """Columns of the k-th boundary operator as {face id: coefficient}.

    Built straight from the face arrays: repeated faces are summed and
    entries that cancel to 0 are dropped.  The list is cached on the
    complex and must not be modified.
    """
    if k < 1 or k > complex_.dim:
        raise DimensionError(
            f"boundary columns defined for 1 <= k <= {complex_.dim}, got {k}")
    def build(cx):
        ptr, faces, coeffs = (a.tolist() for a in cx.layers[k].summed_faces())
        return [dict(zip(faces[s:e], coeffs[s:e])) for s, e in pairwise(ptr)]
    return complex_._cached(("columns", k), build)


# ---------------------------------------------------------------------------
# Spanning forests


Forest = namedtuple("Forest", "order parent edge sign sums")


def spanning_forest(n: int, heads, tails, weights=None) -> Forest:
    """Breadth-first spanning forest of the graph on nodes 0..n-1 whose
    edge e joins ``heads[e]`` to ``tails[e]``.

    Each tree grows from the least node not reached yet; a node tries its
    edges in edge-id order, and self-loops are skipped.  Returns the nodes
    in visit order and, per node, its parent and edge (-1 at a root) and
    sign: +1 as the tail of its tree edge, -1 as the head, 0 at a root.
    ``sums`` adds ``sign * weights[edge]`` along each node's tree path, one
    Python addition per node; without weights every sum is 0.  It is the
    one graph walk of the package: components, potentials, the sign lift
    of director shells and the one gluing pass of the top cells, which
    gives orientations, H_top and Dirac strings, all read it.
    """
    heads = np.asarray(heads, dtype=np.int64)
    tails = np.asarray(tails, dtype=np.int64)
    # Both ends of each edge, interleaved so that a stable sort by end
    # keeps every node's edges in edge-id order: entry 2e is edge e at its
    # head, entry 2e + 1 at its tail, and entry i ^ 1 is the other end.
    ends = np.stack([heads, tails], axis=1).ravel()
    entry = np.flatnonzero(np.repeat(heads != tails, 2))
    entry = entry[np.argsort(ends[entry], kind="stable")]
    ptr = row_offsets(np.bincount(ends[entry], minlength=n)).tolist()
    other = ends[entry ^ 1].tolist()
    # What crossing an entry adds to the path sum of the node it reaches.
    step = (np.zeros_like(entry) if weights is None
            else np.asarray(weights)[entry // 2]) * (1 - 2 * (entry % 2))
    dtype, step = step.dtype, step.tolist()
    total = np.zeros(n, dtype).tolist()

    via = [None] * n  # the position in ``entry`` that reached a node; -1: root
    order: list[int] = []
    for root in range(n):
        if via[root] is not None:
            continue
        via[root] = -1
        tree = [root]
        for cur in tree:  # the list grows while it is walked: a queue
            for j in range(ptr[cur], ptr[cur + 1]):
                if via[other[j]] is None:
                    via[other[j]] = j
                    total[other[j]] = total[cur] + step[j]
                    tree.append(other[j])
        order += tree

    # Each node's tree edge entry at its parent; a root's -1 picks a -1.
    e = np.append(entry, -1)[via]
    return Forest(np.array(order, dtype=np.int64), np.append(ends, -1)[e],
                  e // 2, np.where(e < 0, 0, 1 - 2 * (e % 2)),
                  np.array(total, dtype))


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


def _magnitude(x: np.ndarray) -> int:
    """Largest |entry| of a nonempty int64 array, as a Python integer."""
    return max(-int(x.min()), int(x.max()))


def _square_failures(upper: CellLayer, lower: CellLayer) -> np.ndarray:
    """Ids of the cells of ``upper`` whose boundary has a nonzero boundary
    in ``lower``, ascending: every (cell, face, face of face) product is
    summed by ``summed_rows``, as Python integers when a sum could
    overflow int64."""
    pos, entry = _row_positions(lower.face_ptr, upper.faces)
    a, b = upper.coeffs[entry], lower.coeffs[pos]
    if len(pos) and _magnitude(a) * _magnitude(b) * len(pos) >= 2 ** 63:
        a, b = a.astype(object), b.astype(object)
    entries = (np.repeat(np.arange(len(upper)), np.diff(upper.face_ptr))[
        entry], lower.faces[pos], a * b)
    del pos, entry, a, b  # freed first: the sum adds arrays of this size
    return np.flatnonzero(np.diff(summed_rows(*entries, len(upper))[0]))


def validate_complex(complex_: DeltaComplex) -> ValidationReport:
    """Check closure and that the boundary of a boundary vanishes."""
    messages = []
    for k, labels, face in complex_.closure_defects:
        messages.append(
            f"closure violation: {k}-cell {labels} is missing face {face}")
    failures = []
    for k in range(2, complex_.dim + 1):
        for cid in _square_failures(complex_.layers[k],
                                    complex_.layers[k - 1]).tolist():
            failures.append((k, cid))
            messages.append(f"boundary of boundary nonzero on {k}-cell {cid}")
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
    counts = complex_.cell_counts()
    nodes = [(k, i) for k, n in enumerate(counts) for i in range(n)]
    first, pairs = row_offsets(counts), [[[], []]]
    for k, layer in enumerate(complex_.layers):
        rows = np.sort(padded_rows(layer.vertices, layer.vertex_ptr))
        bad = (layer.shapes == CUBE) | (
            (rows[:, 1:] == rows[:, :-1]) & (rows[:, 1:] > 0)).any(axis=1)
        if bad.any():
            raise UnsupportedConfigurationError(
                "barycentric subdivision supports triangular cells only"
                if layer.shapes[bad.argmax()] == CUBE else
                f"cell ({k},{bad.argmax()}) repeats vertices; "
                "subdivision of quotient complexes is not supported")
        # (face, cell) pairs: j + 1 of a cell's vertices found in degree j.
        sizes = np.count_nonzero(rows, axis=1)
        for size in np.unique(sizes).tolist():
            mine = np.flatnonzero(sizes == size)
            for j in range(min(size - 1, len(counts))):
                subsets = list(combinations(range(size), j + 1))
                cid = complex_.find_cells(j, rows[mine, -size:][
                    :, subsets].reshape(-1, j + 1) - 1)[0]
                pairs.append([first[j] + cid[cid >= 0], first[k] + np.repeat(
                    mine, len(subsets))[cid >= 0]])
    if any((keys[1:] == keys[:-1]).any() for keys, *_ in map(
            complex_._vertex_index, range(len(counts)))):
        raise UnsupportedConfigurationError(
            "two cells share one vertex set; subdivision of "
            "quotient complexes is not supported")
    lower, upper = np.hstack(pairs).astype(np.int64)
    ptr = row_offsets(np.bincount(lower, minlength=len(nodes)))
    upper = upper[np.argsort(lower, kind="stable")]
    chains = [np.arange(len(nodes))[:, None]]
    while len(chains[-1]):
        pos, owner = _row_positions(ptr, chains[-1][:, -1])
        chains.append(np.hstack([chains[-1][owner], upper[pos, None]]))
    sd = DeltaComplex.from_simplices(
        [row for c in chains for row in c.tolist()], auto_close=False)
    return DeltaComplex.from_layers(nodes, sd.layers)
