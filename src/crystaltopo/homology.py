"""Homology, cohomology and orientation analysis over three coefficient rings.

Ranks, torsion and membership come from one coreduction walk per complex
(Mrozek and Batko, "Coreduction homology algorithm", 2009), made on first
use and cached; the Euler number is the cell count and builds none.  It
reads every degree's stored face rows in global cell ids, and their
transpose as coface rows.  A cell whose one face entry left has a unit
coefficient is paired with that face and both are removed (a face met
twice never pairs); when no cell can be paired, the least cell left is
critical.  The pairs are unit pivots, so the critical cells span a Morse
complex chain equivalent to the complex over Z.  Its differential d^M_k
takes the summed boundary of each critical k-cell along the flow, which
replaces the lower member of the latest pair left by the boundary of its
partner, summing repeated entries, and keeps the critical part.  rank d_k
counts the (k-1, k) pairs plus the rank of d^M_k; the torsion is that of
d^M_k, from one Smith form of the small block.  By universal coefficients
the invariant factors decide every ring: over R the rank counts the
nonzero factors, over Z/2 the odd ones, and fields carry no torsion.  A
chain bounds when it is a cycle and its flow lies in the image of d^M_k,
a cochain is a coboundary when it is a cocycle and its dual flow lies in
the row space of d^M_k: a query flows only its vector, which joins the
stored block as one more column, or for a cochain one more row.

Generators of a nonzero group read the sparse columns of the complex:
one tracked sparse Smith reduction of d_k gives the cycle basis and,
through V^-1, the cycle coordinates Y of the columns of d_{k+1}; each
generator is a sparse combination of cycle basis vectors, with the
entries of one column of U_Y^-1 from the Smith form of Y.

The top degree has a cheaper answer in one cached gluing pass: the
spanning forest of the top cells glued across faces with two unit
entries, with an exit per tree, its least free face, if it has one.  It
gives the orientation, the rank of H_top of a manifold-like top layer,
and a top cochain a primitive on the tree faces and exits (a
combinatorial Dirac string), with no walk.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Mapping

import numpy as np

from .complexes import (
    Chain,
    Cochain,
    DeltaComplex,
    RING_INT,
    RING_MOD2,
    RING_REAL,
    RINGS,
    _support,
    boundary_columns,
    boundary_map,
    coboundary_map,
    row_offsets,
    spanning_forest,
)
from .errors import DimensionError, InternalInconsistencyError
from .snf import SmithDecomposition, add_multiple, invariant_factors


@dataclass(frozen=True)
class HomologyGroup:
    """Isomorphism type of one homology group.

    ``betti`` is the free rank (the dimension, over a field) and
    ``torsion`` lists the invariant factors greater than one in
    divisibility order.  Fields carry no torsion.
    """

    k: int
    ring: str
    betti: int
    torsion: tuple[int, ...] = ()

    def __str__(self) -> str:
        if self.ring == RING_INT:
            parts = ["Z"] * self.betti + [f"Z/{t}" for t in self.torsion]
            return " + ".join(parts) if parts else "0"
        sym = "(Z/2)" if self.ring == RING_MOD2 else "R"
        if not self.betti:
            return "0"
        return sym if self.betti == 1 else f"{sym}^{self.betti}"


def _over(ring: str, rank: int, torsion: tuple) -> tuple[int, tuple]:
    """(rank, torsion) over ``ring`` of an integer matrix of this rank and
    these invariant factors > 1; an even factor vanishes modulo 2."""
    if ring == RING_INT:
        return rank, torsion
    if ring == RING_MOD2:
        rank -= sum(1 for d in torsion if d % 2 == 0)
    return rank, ()


class _Coreduction:
    """The coreduction walk of one complex and its Morse complex.

    Cells carry global ids: degree k starts at ``offsets[k]``.  ``fptr``,
    ``fid`` and ``fco`` hold every cell's stored face entries in compressed
    rows, ``cptr``, ``cid`` and ``cco`` its coface entries in cell order,
    each with the coefficient of the cell in the coface's boundary; these
    rows serve the pairing and the flow only, and a membership query's
    (co)cycle test runs on ``boundary_map`` and ``coboundary_map``.  Pair
    i joins ``lower[i]`` to ``upper[i]`` one degree up, with <d upper,
    lower> = ``coef[i]``, a unit; ``low_pair`` and ``up_pair``, booked as
    each pair forms, give each cell's pair index as that member, -1
    otherwise.  ``critical[k]`` lists the critical k-cells ascending,
    ``crit_pos`` a critical cell's place in that list.  ``blocks[k]``
    holds the columns of the Morse differential d^M_k, one dict {place of
    a critical (k-1)-cell: entry} per critical k-cell, ``factors[k]``
    their nonzero invariant factors and ``pairs[k]`` the number of
    (k-1, k) pairs, each k-cell not critical nor in a (k, k+1) pair, so
    rank d_k = pairs[k] + len(factors[k]).
    """

    def __init__(self, complex_: DeltaComplex):
        layers = complex_.layers
        offsets = row_offsets([len(layer) for layer in layers])
        n = int(offsets[-1])
        # Every degree's stored face rows in global ids; vertices have none.
        sizes = np.concatenate([np.diff(layer.face_ptr) for layer in layers])
        fid = np.concatenate([layer.faces + offsets[k - 1]
                              for k, layer in enumerate(layers)])
        fco = np.concatenate([layer.coeffs for layer in layers])
        order = np.argsort(fid, kind="stable")
        self.cptr = row_offsets(np.bincount(fid, minlength=n)).tolist()
        self.cid = np.repeat(np.arange(n), sizes)[order].tolist()
        self.cco = fco[order].tolist()
        self.offsets = offsets.tolist()
        self.fptr, self.fid, self.fco = (
            a.tolist() for a in (row_offsets(sizes), fid, fco))
        del fid, fco, order  # the arrays go before the walk
        self._walk(n, sizes)
        self._morse_complex(complex_)

    def _walk(self, n: int, sizes: np.ndarray) -> None:
        """Pair each cell whose one face entry left has a unit coefficient
        with that face and remove both, noting the pair in the books; when
        no cell can be paired, the least cell left is critical."""
        fptr, fid, fco, cptr, cid = (self.fptr, self.fid, self.fco,
                                     self.cptr, self.cid)
        left = sizes.tolist()
        alive = [True] * n
        ready = deque(np.flatnonzero(sizes == 1).tolist())
        least = 0  # every cell below it is removed
        lower, upper, coef, critical = [], [], [], []
        self.low_pair, self.up_pair = [-1] * n, [-1] * n
        while True:
            if ready:
                b = ready.popleft()
                if not alive[b] or left[b] != 1:
                    continue
                j = fptr[b]
                while not alive[fid[j]]:
                    j += 1
                if fco[j] != 1 and fco[j] != -1:
                    continue
                self.low_pair[fid[j]] = self.up_pair[b] = len(lower)
                lower.append(fid[j])
                upper.append(b)
                coef.append(fco[j])
                removed = (b, fid[j])
            else:
                while least < n and not alive[least]:
                    least += 1
                if least == n:
                    break
                critical.append(least)
                removed = (least,)
            for x in removed:
                alive[x] = False
                for y in cid[cptr[x]:cptr[x + 1]]:
                    if alive[y]:
                        left[y] -= 1
                        if left[y] == 1:
                            ready.append(y)

        self.lower, self.upper, self.coef = lower, upper, coef
        bounds = [bisect_left(critical, o) for o in self.offsets]
        self.critical = [critical[s:e] for s, e in zip(bounds, bounds[1:])]
        self.crit_pos, self.pairs = [-1] * n, [0]
        for k, cells in enumerate(self.critical):
            for i, c in enumerate(cells):
                self.crit_pos[c] = i
            self.pairs.append(self.offsets[k + 1] - self.offsets[k]
                              - len(cells) - self.pairs[-1])
        del self.pairs[-1]  # no pairs run above the top degree

    def flow(self, x: dict[int, int], dual: bool = False) -> dict[int, int]:
        """The critical part of the chain x (global ids of one degree; the
        dict is taken over) after the flow, keyed by place among the
        critical cells.  The flow replaces the lower member of the latest
        pair left in x through the boundary of its partner until none is
        left.  The ``dual`` flow of a cochain replaces the upper member of
        the earliest pair left through the coboundary of its partner.  A
        replacement brings in only cells removed before its pair, so no
        member comes back once replaced."""
        if dual:
            ptr, ids, co, index = self.cptr, self.cid, self.cco, self.up_pair
            members, partners, sign = self.upper, self.lower, 1
        else:
            ptr, ids, co, index = self.fptr, self.fid, self.fco, self.low_pair
            members, partners, sign = self.lower, self.upper, -1
        heap = [sign * index[g] for g in x if index[g] >= 0]
        heapify(heap)
        while heap:
            i = sign * heappop(heap)
            a = members[i]
            v = x[a] * self.coef[i]
            if not v:
                continue
            x[a] = 0
            b = partners[i]
            for g, c in zip(ids[ptr[b]:ptr[b + 1]], co[ptr[b]:ptr[b + 1]]):
                if g != a:
                    old = x.get(g)
                    if old is None:
                        x[g] = -v * c
                        if index[g] >= 0:
                            heappush(heap, sign * index[g])
                    else:
                        x[g] = old - v * c
        pos = self.crit_pos
        return {pos[g]: v for g, v in x.items() if v and pos[g] >= 0}

    def _morse_complex(self, complex_: DeltaComplex) -> None:
        """Flow the boundary of every critical cell, reduce each block and
        check the Euler number and d^M d^M = 0."""
        fptr, fid, fco = self.fptr, self.fid, self.fco
        self.blocks = [[] for _ in self.critical]
        for k, cells in enumerate(self.critical[1:], 1):
            for c in cells:  # its boundary, repeated face entries summed
                x: dict[int, int] = {}
                for j in range(fptr[c], fptr[c + 1]):
                    x[fid[j]] = x.get(fid[j], 0) + fco[j]
                self.blocks[k].append(self.flow(x))
        by_cells = euler_characteristic(complex_)
        by_critical = sum((-1) ** k * len(cells)
                          for k, cells in enumerate(self.critical))
        if by_cells != by_critical:
            raise InternalInconsistencyError(
                f"Morse complex: cells give Euler number {by_cells}, "
                f"critical cells {by_critical}")
        for k in range(1, len(self.blocks) - 1):
            for col in self.blocks[k + 1]:
                image: dict[int, int] = {}
                for p, v in col.items():
                    for r, w in self.blocks[k][p].items():
                        image[r] = image.get(r, 0) + v * w
                if any(image.values()):
                    raise InternalInconsistencyError(
                        f"Morse complex: d^M_{k} d^M_{k + 1} is not zero "
                        "(validate_complex finds where d d = 0 fails)")
        self.factors = [invariant_factors(block) for block in self.blocks]


def _coreduction(complex_: DeltaComplex) -> _Coreduction:
    """The complex's one coreduction walk, made on first use and cached."""
    return complex_._cached("coreduction", _Coreduction)


def _reduction(complex_: DeltaComplex, k: int,
               ring: str) -> tuple[int, tuple[int, ...]]:
    """(rank, invariant factors > 1) of d_k over ``ring``.

    The unit pairs of the cached coreduction walk each add 1 to the rank
    over every ring; the invariant factors of the Morse block d^M_k give
    the rest, read over ``ring``.  Out-of-range degrees give (0, ()).
    """
    if k < 1 or k > complex_.dim or complex_.n_cells(k) == 0:
        return 0, ()
    walk = _coreduction(complex_)
    factors = walk.factors[k]
    return _over(ring, walk.pairs[k] + len(factors),
                 tuple(d for d in factors if d > 1))


def homology(complex_: DeltaComplex, k: int,
             ring: str = RING_INT) -> HomologyGroup:
    """The k-th homology group of the complex over the chosen ring; 0
    outside degrees 0..dim, which hold no cells."""
    if ring not in RINGS:
        raise ValueError(f"unknown ring {ring!r}")
    rank_k, _ = _reduction(complex_, k, ring)
    rank_up, torsion = _reduction(complex_, k + 1, ring)
    betti = complex_.n_cells(k) - rank_k - rank_up
    return HomologyGroup(k, ring, betti, torsion)


def cohomology(complex_: DeltaComplex, k: int,
               ring: str = RING_INT) -> HomologyGroup:
    """The k-th cohomology group; over Z its torsion is that of the k-th
    boundary matrix d_k: C_k -> C_{k-1}."""
    base = homology(complex_, k, ring)
    return HomologyGroup(k, ring, base.betti, _reduction(complex_, k, ring)[1])


def betti_numbers(complex_: DeltaComplex,
                  ring: str = RING_INT) -> list[int]:
    return [homology(complex_, k, ring).betti
            for k in range(complex_.dim + 1)]


def euler_characteristic(complex_: DeltaComplex) -> int:
    """The alternating cell count.  It builds no walk and needs no Betti
    cross-check: beta_k = n_k - rank d_k - rank d_{k+1} telescopes to it
    whatever the ranks; each walk checks its critical cells against it."""
    return sum((-1) ** k * n for k, n in enumerate(complex_.cell_counts()))


def vertex_components(complex_: DeltaComplex) -> list[int]:
    """Connected-component id per vertex, numbered by smallest member; an
    edge joins the tail and head vertices its faces name
    (``DeltaComplex.edge_ends``)."""
    ends = complex_.edge_ends() if complex_.dim >= 1 else ((), ())
    order, parent, *_ = spanning_forest(complex_.n_vertices, *ends)
    component = np.empty_like(order)
    component[order] = np.cumsum(parent[order] < 0) - 1
    return component.tolist()


# ---------------------------------------------------------------------------
# Cycle and boundary membership


def _integral(coeffs: Mapping[int, float]) -> dict[int, int]:
    """Real coefficients at their exact binary value, scaled to integers.

    The scale is the lcm of the denominators, so neither the rank of a
    vector set nor the vanishing of a linear image changes.  A coefficient
    that is not finite is refused.
    """
    for i, v in coeffs.items():
        if not math.isfinite(v):
            raise ValueError(f"cell {i}: coefficient {v!r} is not finite")
    exact = {i: Fraction(v) for i, v in coeffs.items()}
    scale = math.lcm(*(q.denominator for q in exact.values()))
    return {i: int(q * scale) for i, q in exact.items()}


def is_cycle(chain: Chain, complex_: DeltaComplex) -> bool:
    """Whether the boundary of the chain vanishes, exactly.

    Real coefficients are taken at their exact binary value; there is no
    tolerance.
    """
    if chain.ring == RING_REAL:
        chain = Chain(chain.dim, _integral(chain.coeffs))
    return not boundary_map(chain, complex_).coeffs


def _in_image(complex_: DeltaComplex, k: int, vector: Mapping[int, object],
              ring: str, transpose: bool = False) -> bool:
    """Whether ``vector`` lies in the image of d_k over ``ring``.

    With ``transpose`` the map is the coboundary delta^{k-1}, whose columns
    are the rows of d_k.  The (co)cycle test is one ``boundary_map`` or
    ``coboundary_map`` over Z, or over Z/2 for a mod-2 vector; the cached
    walk, a chain equivalence over Z, decides the rest.  The flowed vector
    joins the stored block, a chain as one more column and a cochain as one
    more row, and the invariant factors, read over ``ring``, are compared
    with the block's own.  Over Z the vector lies in the image exactly when
    rank and torsion are unchanged: both lattices span the same
    saturation, so equal rank and an equal product of invariant factors
    mean equal lattices.  Over Z/2 (a vector enters as its 0/1 lift) and R
    the rank decides.  Real coefficients are taken at their exact binary
    value and scaled to integers, which leaves the rank over Q unchanged.
    """
    walk = _coreduction(complex_)
    if ring == RING_REAL:
        vector = _integral(vector)
    cycle_ring = RING_MOD2 if ring == RING_MOD2 else RING_INT
    chain = (Cochain(k, vector, cycle_ring) if transpose
             else Chain(k - 1, vector, cycle_ring))
    if (coboundary_map if transpose else boundary_map)(chain, complex_):
        return False
    offset = walk.offsets[chain.dim]
    y = walk.flow({offset + i: v for i, v in chain.coeffs.items()}, transpose)
    block = walk.blocks[k]
    if transpose:
        row = len(walk.critical[k - 1])
        block = [{**col, row: y[j]} if j in y else col
                 for j, col in enumerate(block)]
    else:
        block = [*block, y]

    def over(factors):
        return _over(ring, len(factors), tuple(d for d in factors if d > 1))

    return over(invariant_factors(block)) == over(walk.factors[k])


def is_boundary(chain: Chain, complex_: DeltaComplex) -> bool:
    """Whether the chain bounds, exactly, over its own coefficient ring.

    Real coefficients are taken at their exact binary value; there is no
    tolerance.
    """
    k = chain.dim
    if not 0 <= k <= complex_.dim:
        raise DimensionError(f"no cells of dimension {k}")
    _support(chain, complex_)
    if chain.ring == RING_REAL and not all(map(math.isfinite,
                                               chain.coeffs.values())):
        _integral(chain.coeffs)  # refuses; _in_image does the scaling
    if not chain.coeffs:
        return True
    if k >= complex_.dim or complex_.n_cells(k + 1) == 0:
        return False
    return _in_image(complex_, k + 1, chain.coeffs, chain.ring)


def are_homologous(a: Chain, b: Chain, complex_: DeltaComplex) -> bool:
    return is_boundary(a - b, complex_)


# ---------------------------------------------------------------------------
# The top degree on one gluing pass of the top cells


_TopForest = namedtuple("_TopForest", "order parent face own exits signs "
                        "image internal manifold_like closed cycles")


def _top_forest(complex_: DeltaComplex) -> _TopForest:
    """The one gluing pass of the top cells, made on first use and cached.

    It groups the nonzero top-cell face entries by face once.  A face is
    ``internal`` when its entries weigh 2 in all.  The forest is
    :func:`spanning_forest` over the top cells, with one edge per face
    holding two ±1 entries, in face order, flipped where the entries are
    equal, so that ``signs``, lifted from +1 at each root, cancel the two
    entries of every tree face; a cell glued to itself is skipped.
    ``image`` is the boundary of the lifted chain, None when a face weighs
    more than 2.  Per cell, in visit order, ``face`` names its tree face
    (-1 at a root) and ``own`` its entry there times its sign.  ``exits``
    maps the root of each tree with a free face (one ±1 entry) to its
    least one, as (face, cell, entry times sign); the other ``closed``
    trees have none.  The layer is ``manifold_like`` when every face with
    a nonzero entry is free or glued in two cells: then a top cycle
    vanishes on every tree with an exit, and on a closed tree it is a
    multiple of the lifted chain, so H_top is free of rank ``cycles``, the
    closed trees whose glued faces all cancel.
    """
    return complex_._cached("top forest", _glue_top_cells)


def _glue_top_cells(complex_: DeltaComplex) -> _TopForest:
    """The gluing pass that :func:`_top_forest` keeps."""
    m = complex_.dim
    top = complex_.layers[m]
    n_top, n_faces = len(top), complex_.n_cells(m - 1)
    owner = np.repeat(np.arange(n_top), np.diff(top.face_ptr))
    nonzero = top.coeffs != 0
    order = np.argsort(top.faces[nonzero], kind="stable")
    faces = top.faces[nonzero][order]
    coeffs = top.coeffs[nonzero][order]
    owner = owner[nonzero][order]
    count = np.bincount(faces, minlength=n_faces)
    weight = np.bincount(faces, weights=np.abs(coeffs.astype(float)),
                         minlength=n_faces)
    internal = weight == 2
    # The unit entries a, b of a glued face cancel when the signs of their
    # cells satisfy eps_q = -a * b * eps_p; one flip per step with a = b
    # on each cell's forest path fixes every sign.
    pairs = np.flatnonzero((internal & (count == 2))[faces])
    first, second = pairs[0::2], pairs[1::2]
    forest = spanning_forest(n_top, owner[first], owner[second],
                             coeffs[first] == coeffs[second])
    signs = 1 - 2 * (forest.sums % 2)
    lifted = coeffs * signs[owner]
    image = None
    if not (weight > 2).any():  # then the float sums are exact
        image = np.bincount(faces, weights=lifted,
                            minlength=n_faces).astype(np.int64)

    root = forest.parent[forest.order] < 0
    tree = np.empty_like(forest.order)
    tree[forest.order] = np.cumsum(root) - 1
    free = np.flatnonzero((count == 1)[faces] & (np.abs(coeffs) == 1))
    manifold_like = len(free) + np.count_nonzero(
        owner[first] != owner[second]) == np.count_nonzero(count)
    rooted, least = np.unique(tree[owner[free]], return_index=True)
    free = free[least]
    cycle = np.ones(np.count_nonzero(root), dtype=bool)
    cycle[rooted] = False
    cycle[tree[owner[first[lifted[first] != -lifted[second]]]]] = False
    # A root's edge -1 picks the appended entry.
    e = forest.edge
    return _TopForest(
        forest.order.tolist(), forest.parent.tolist(),
        np.append(faces[first], -1)[e].tolist(),
        (-forest.sign * np.append(lifted[first], 0)[e]).tolist(),
        dict(zip(forest.order[root][rooted].tolist(),
                 zip(faces[free].tolist(), owner[free].tolist(),
                     lifted[free].tolist()))),
        signs.tolist(), image, internal, manifold_like,
        len(cycle) - len(rooted), int(np.count_nonzero(cycle)))


def _top_primitive(complex_: DeltaComplex, cochain: Cochain) -> Cochain | None:
    """A (dim-1)-cochain a with δa = ``cochain``, a top-degree cochain over
    Z or Z/2, that is 0 off the tree faces and exits of :func:`_top_forest`
    (a combinatorial Dirac string), or None when the root of a closed tree
    keeps a residue (an odd one over Z/2).

    Values are taken times the cells' signs, so a tree face gives its
    cell's value to the parent unchanged.  In reverse visit order each
    cell's tree face takes its entry times what the cell lacks after its
    child faces, which the parent then lacks too.  What the root of a tree
    lacks, its value on the tree's lifted chain, is carried along the tree
    path from the root to the exit's cell and put on the exit face.
    """
    top = _top_forest(complex_)
    rest = [0] * len(top.parent)
    for i, v in cochain.coeffs.items():
        rest[i] = top.signs[i] * v
    a: dict[int, int] = {}
    for v in reversed(top.order):
        x = rest[v]
        if not x:
            continue
        if top.face[v] >= 0:
            a[top.face[v]] = top.own[v] * x
            rest[top.parent[v]] += x
        elif v in top.exits:
            face, u, entry = top.exits[v]
            a[face] = entry * x
            while u != v:
                a[top.face[u]] = a.get(top.face[u], 0) - top.own[u] * x
                u = top.parent[u]
        elif x % 2 if cochain.ring == RING_MOD2 else x:
            return None
    return Cochain(cochain.dim - 1, a, cochain.ring)


# ---------------------------------------------------------------------------
# Explicit generators


def homology_generators(complex_: DeltaComplex,
                        k: int) -> list[tuple[int, Chain]]:
    """Integer homology generators as (order, chain) pairs.

    Order 0 marks a free generator; d >= 2 a torsion generator of order d.
    One tracked Smith form d_k V = U^-1 D of the sparse columns of d_k
    gives the cycle basis, the columns of V past the rank r, and, since V
    is unimodular, the unique coordinates V^-1 c of every cycle c in it;
    when d_k is the zero map (k = 0, or no (k-1)-cells) the basis is the
    standard one and stays implicit.  The coordinates Y of the columns of
    d_{k+1} get the Smith form Y V_Y = U_Y^-1 D_Y, and each generator is
    the cycle basis times one column of U_Y^-1, so it carries one
    invariant factor.
    """
    group = homology(complex_, k)
    if not group.betti and not group.torsion:
        return []  # one entry per free or torsion summand: none

    n = complex_.n_cells(k)
    columns = boundary_columns(complex_, k + 1) if k < complex_.dim else []
    r, basis, coords = 0, lambda q: {q: 1}, columns
    if complex_.n_cells(k - 1):
        dec = SmithDecomposition(boundary_columns(complex_, k),
                                 complex_.n_cells(k - 1), track_u=False)
        r, basis = dec.rank, dec.v_column
        # The columns of V^-1, so that each column of d_{k+1} maps to its
        # cycle coordinates as one sparse combination of them.
        vinv: list[dict[int, int]] = [{} for _ in range(n)]
        for q in range(n):
            for i, v in dec.vinv_row(q).items():
                vinv[i][q] = v
        coords = []
        for col in columns:
            coords.append({})
            for i, v in col.items():
                add_multiple(coords[-1], vinv[i], v)
    # Each column is a cycle, so its head coordinates vanish.
    if any(q < r for y in coords for q in y):
        raise InternalInconsistencyError(
            "boundary column is not an integral cycle combination")
    dec_y = SmithDecomposition([{q - r: v for q, v in y.items()}
                                for y in coords], n - r, track_v=False)
    orders = dec_y.diagonal

    out: list[tuple[int, Chain]] = []
    for j in range(n - r):
        order = orders[j] if j < len(orders) else 0
        if order == 1:
            continue
        chain: dict[int, int] = {}
        for i, u in dec_y.uinv_column(j).items():
            add_multiple(chain, basis(r + i), u)
        out.append((order, Chain(k, dict(sorted(chain.items())), RING_INT)))
    # Free generators last, torsion first, matching invariant-factor order.
    out.sort(key=lambda t: (t[0] == 0, t[0]))
    return out


def generator_orders(complex_: DeltaComplex, k: int) -> list[int]:
    """The orders :func:`homology_generators` lists, read from the group
    with no tracked reduction: each torsion factor in divisibility order,
    then 0 per free summand.  In the top degree k = dim >= 1 of a
    manifold-like top layer the group is free of the rank the gluing pass
    counts (:func:`_top_forest`), and no walk is built."""
    if k == complex_.dim >= 1:
        top = _top_forest(complex_)
        if top.manifold_like:
            return [0] * top.cycles
    group = homology(complex_, k)
    return [*group.torsion, *[0] * group.betti]


# ---------------------------------------------------------------------------
# Orientability


@dataclass
class OrientabilityReport:
    orientable: bool
    dim: int
    closed: bool | None = None
    fundamental_chain: Chain | None = None
    boundary_chain: Chain | None = None
    mod2_certificate: Chain | None = None
    mod2_boundary: Chain | None = None
    reason: str = ""


def orientability(complex_: DeltaComplex) -> OrientabilityReport:
    """Decide orientability of the top-dimensional layer.

    It reads the gluing pass :func:`_top_forest`.  A face weighing more
    than 2 refuses.  Signs on the top cells orient them exactly when the
    boundary of the signed chain avoids every internal face; an
    orientation agrees with the forest's lifted signs up to one sign per
    tree, so the boundary of the lifted chain decides.  When it meets an
    internal face, the all-ones mod-2 chain is returned instead, with its
    mod-2 boundary.  On a manifold-like layer the complex is orientable
    and closed exactly when every tree is a closed cycle of the pass; a
    mismatch raises :class:`InternalInconsistencyError`.
    """
    m = complex_.dim
    top = _top_forest(complex_)
    bounding = np.flatnonzero(top.image) if top.image is not None else None
    orientable = bounding is not None and not top.internal[bounding].any()
    if top.manifold_like and (orientable and not len(bounding)) != (
            top.cycles == top.closed + len(top.exits)):
        raise InternalInconsistencyError(
            f"gluing pass: {top.cycles} closed cycles of "
            f"{top.closed + len(top.exits)} trees disagree with the "
            "orientation's boundary")
    if orientable:
        boundary = Chain(m - 1, dict(zip(bounding.tolist(),
                                         top.image[bounding].tolist())),
                         RING_INT)
        return OrientabilityReport(
            True, m, closed=not len(bounding),
            fundamental_chain=Chain(m, dict(enumerate(top.signs))),
            boundary_chain=boundary if m >= 1 else None)

    # The entries of an internal face sum to an even number, so the mod-2
    # image avoids every internal face.
    all_ones = Chain(m, {i: 1 for i in range(complex_.n_cells(m))}, RING_MOD2)
    mod2_image = boundary_map(all_ones, complex_)
    return OrientabilityReport(
        False, m, closed=(not mod2_image.coeffs),
        mod2_certificate=all_ones, mod2_boundary=mod2_image,
        reason="no consistent orientation of the top cells exists")
