"""Homology, cohomology and orientation analysis over three coefficient rings.

Ranks and torsion come from one exact integer reduction per boundary
matrix, shared by all three rings: the columns of d_k are taken straight
from the face arrays and ``sparse_invariant_factors`` eliminates the unit
pivots, handing only the small non-unit leftover to the dense Smith
reducer.  By universal coefficients the invariant factors decide every
ring: over R the rank counts the nonzero factors, over Z/2 the odd ones,
and fields carry no torsion.  Boundary and coboundary membership append
the vector to the same integer columns and compare the factors, read
over its ring, with the cached reduction.  Generators of a nonzero group
read the same columns: one tracked Smith reduction of the dense rows of
d_k gives the cycle basis and, through V^-1, the cycle coordinates Y of
the columns of d_{k+1}; each generator is the cycle basis times one
column of U_Y^-1 from the Smith form of Y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .complexes import (
    Chain,
    DeltaComplex,
    RING_INT,
    RING_MOD2,
    RING_REAL,
    RINGS,
    boundary_columns,
    boundary_map,
    spanning_forest,
)
from .errors import DimensionError, InternalInconsistencyError
from .snf import (
    dense_rows,
    identity,
    smith_normal_form,
    sparse_invariant_factors,
)


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


def _reduction(complex_: DeltaComplex, k: int,
               ring: str) -> tuple[int, tuple[int, ...]]:
    """(rank, invariant factors > 1) of d_k over ``ring``.

    The matrix is reduced once, over Z, and cached; every ring reads that
    result.  Out-of-range degrees give (0, ()).
    """
    if k < 1 or k > complex_.dim or complex_.n_cells(k) == 0:
        return 0, ()
    key = ("reduction", k)
    cached = complex_._cache.get(key)
    if cached is None:
        factors = sparse_invariant_factors(boundary_columns(complex_, k))
        cached = (len(factors), tuple(d for d in factors if d > 1))
        complex_._cache[key] = cached
    return _over(ring, *cached)


def homology(complex_: DeltaComplex, k: int,
             ring: str = RING_INT) -> HomologyGroup:
    """The k-th homology group of the complex over the chosen ring."""
    if ring not in RINGS:
        raise ValueError(f"unknown ring {ring!r}")
    if k < 0 or k > complex_.dim:
        return HomologyGroup(k, ring, 0)
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
    """Alternating cell-count sum, cross-checked against the Betti sum."""
    by_cells = sum((-1) ** k * complex_.n_cells(k)
                   for k in range(complex_.dim + 1))
    by_betti = sum((-1) ** k * homology(complex_, k).betti
                   for k in range(complex_.dim + 1))
    if by_cells != by_betti:
        raise InternalInconsistencyError(
            f"Euler characteristic mismatch: cells give {by_cells}, "
            f"Betti numbers give {by_betti}")
    return by_cells


def vertex_components(complex_: DeltaComplex) -> list[int]:
    """Connected-component id per vertex, numbered by smallest member."""
    heads = tails = ()
    if complex_.dim >= 1:
        edges = complex_.layers[1]
        heads, tails = edges.first_vertices(), edges.last_vertices()
    order, parent, *_ = spanning_forest(complex_.n_vertices, heads, tails)
    component = np.empty_like(order)
    component[order] = np.cumsum(parent[order] < 0) - 1
    return component.tolist()


# ---------------------------------------------------------------------------
# Cycle and boundary membership


def _integral(coeffs: Mapping[int, float]) -> dict[int, int]:
    """Real coefficients at their exact binary value, scaled to integers.

    The scale is the lcm of the denominators, so neither the rank of a
    vector set nor the vanishing of a linear image changes.
    """
    exact = {i: Fraction(v) for i, v in coeffs.items()}
    scale = math.lcm(*(q.denominator for q in exact.values()))
    return {i: int(q * scale) for i, q in exact.items()}


def is_cycle(chain: Chain, complex_: DeltaComplex) -> bool:
    """Whether the boundary of the chain vanishes, exactly.

    Real coefficients are taken at their exact binary value; there is no
    tolerance.
    """
    if chain.dim == 0:
        return True
    if chain.ring == RING_REAL:
        chain = Chain(chain.dim, _integral(chain.coeffs))
    return not boundary_map(chain, complex_).coeffs


def _check_ids(complex_: DeltaComplex, k: int, ids) -> None:
    """Refuse ids outside the k-cells; every caller of ``_in_image`` runs
    this once, before any early answer."""
    n = complex_.n_cells(k)
    if any(not 0 <= i < n for i in ids):
        raise DimensionError(f"vector index out of range for {n} cells")


def _in_image(complex_: DeltaComplex, k: int, vector: Mapping[int, object],
              ring: str, transpose: bool = False) -> bool:
    """Whether ``vector`` lies in the image of d_k over ``ring``.

    With ``transpose`` the map is the coboundary delta^{k-1}, whose columns
    are the rows of d_k.  ``vector`` is appended to the integer columns;
    the invariant factors, read over ``ring``, are compared with the
    cached reduction of d_k, which a matrix shares with its transpose.
    Over Z the vector lies in the image exactly when rank and torsion are
    unchanged: both lattices span the same saturation, so equal rank and
    an equal product of invariant factors mean equal lattices.  Over Z/2
    (a vector enters as its 0/1 lift) and R the rank decides.  Real
    coefficients are taken at their exact binary value and scaled to
    integers, which leaves the rank over Q unchanged.
    """
    columns = boundary_columns(complex_, k)
    if transpose:
        rows: list[dict] = [{} for _ in range(complex_.n_cells(k - 1))]
        for j, col in enumerate(columns):
            for i, v in col.items():
                rows[i][j] = v
        columns = rows
    if ring == RING_REAL:
        vector = _integral(vector)
    factors = sparse_invariant_factors([*columns, vector])
    torsion = tuple(d for d in factors if d > 1)
    return _over(ring, len(factors), torsion) == _reduction(complex_, k, ring)


def is_boundary(chain: Chain, complex_: DeltaComplex) -> bool:
    """Whether the chain bounds, exactly, over its own coefficient ring.

    Real coefficients are taken at their exact binary value; there is no
    tolerance.
    """
    k = chain.dim
    _check_ids(complex_, k, chain.coeffs)
    if not chain.coeffs:
        return True
    if k >= complex_.dim or complex_.n_cells(k + 1) == 0:
        return False
    return _in_image(complex_, k + 1, chain.coeffs, chain.ring)


def are_homologous(a: Chain, b: Chain, complex_: DeltaComplex) -> bool:
    return is_boundary(a - b, complex_)


# ---------------------------------------------------------------------------
# Explicit generators


def homology_generators(complex_: DeltaComplex,
                        k: int) -> list[tuple[int, Chain]]:
    """Integer homology generators as (order, chain) pairs.

    Order 0 marks a free generator; d >= 2 a torsion generator of order d.
    One tracked Smith form d_k V = U^-1 D of the dense rows of d_k gives the
    cycle basis V[:, r:] and, since V is unimodular, the unique
    coordinates V^-1 c of every cycle c in it; when d_k is the zero map
    (k = 0, or no (k-1)-cells) the basis is the standard one.  The
    coordinates Y of the columns of d_{k+1} get the Smith form
    Y V_Y = U_Y^-1 D_Y, and each generator is the cycle basis times one
    column of U_Y^-1, so it carries one invariant factor.
    """
    group = homology(complex_, k)
    if not group.betti and not group.torsion:
        return []  # one entry per free or torsion summand: none

    if complex_.n_cells(k - 1) == 0:
        r = 0
        kernel = vinv = identity(complex_.n_cells(k))
    else:
        dec = smith_normal_form(dense_rows(boundary_columns(complex_, k),
                                           range(complex_.n_cells(k - 1))))
        r = dec.rank
        kernel = [row[r:] for row in dec.V]
        vinv = dec.vinv
    z = complex_.n_cells(k) - r

    # Cycle coordinates of the columns of d_{k+1}: one sparse dot per row
    # of V^-1.  Each column is a cycle, so its head coordinates vanish.
    columns = [list(col.items()) for col in (
        boundary_columns(complex_, k + 1) if k < complex_.dim else ())]
    coords = [[sum(row[i] * v for i, v in col) for col in columns]
              for row in vinv]
    if any(any(row) for row in coords[:r]):
        raise InternalInconsistencyError(
            "boundary column is not an integral cycle combination")
    dec_y = smith_normal_form(coords[r:])
    orders, uinv = dec_y.diagonal, dec_y.uinv

    out: list[tuple[int, Chain]] = []
    for j in range(z):
        order = orders[j] if j < len(orders) else 0
        if order == 1:
            continue
        column = [row[j] for row in uinv]
        chain = Chain(k, {i: sum(a * b for a, b in zip(row, column))
                          for i, row in enumerate(kernel)}, RING_INT)
        out.append((order, chain))
    # Free generators last, torsion first, matching invariant-factor order.
    out.sort(key=lambda t: (t[0] == 0, t[0]))
    return out


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
    """Decide orientability of the top-dimensional layer by sign propagation.

    Top cells are glued across internal faces that appear in exactly two
    face-list entries; a consistent choice of signs making all internal
    faces cancel, propagated along the spanning forest of that gluing, is
    a fundamental chain.  When no consistent choice exists, the all-ones
    mod-2 chain is returned instead, with its mod-2 boundary.
    """
    m = complex_.dim
    n_top = complex_.n_cells(m)
    if n_top == 0:
        return OrientabilityReport(True, m, closed=True,
                                   fundamental_chain=Chain(m, {}, RING_INT))

    # The nonzero face entries of the top cells, grouped by face with each
    # group in cell order.
    top = complex_.layers[m]
    owner = np.repeat(np.arange(n_top), np.diff(top.face_ptr))
    nonzero = top.coeffs != 0
    order = np.argsort(top.faces[nonzero], kind="stable")
    faces = top.faces[nonzero][order]
    coeffs = top.coeffs[nonzero][order]
    owner = owner[nonzero][order]
    weight = np.bincount(faces, weights=np.abs(coeffs.astype(float)),
                         minlength=complex_.n_cells(m - 1))
    internal = weight == 2

    # The two entries of each internal face relate the signs of their
    # cells.  A face with a single entry of weight 2 wraps its cell onto
    # it twice with equal signs, and no orientation cancels it; it shows
    # as an odd count or as a pair that straddles two faces.
    pairs = np.flatnonzero(internal[faces])
    consistent = not (weight > 2).any() and len(pairs) % 2 == 0
    if consistent:
        first, second = pairs[0::2], pairs[1::2]
        p, q = owner[first], owner[second]
        a, b = coeffs[first], coeffs[second]
        same = p == q
        # eps_p * a + eps_q * b = 0 needs unit coefficients across cells.
        consistent = (faces[first] == faces[second]).all() and not (
            (a + b)[same].any()
            or ((np.abs(a) != 1) | (np.abs(b) != 1))[~same].any())
    if consistent:
        p, q = p[~same], q[~same]
        rel = (-a * b)[~same]
        # One flip per -1 step on each cell's forest path fixes every sign;
        # each glued pair must agree.
        signs = 1 - 2 * (spanning_forest(n_top, p, q, rel < 0).sums % 2)
        consistent = bool((signs[q] == rel * signs[p]).all())

    if consistent:
        # Independent check: the image must avoid all internal faces.  No
        # face has weight above 2, so the float sums are exact.
        image = np.bincount(faces, weights=coeffs * signs[owner],
                            minlength=len(internal)).astype(np.int64)
        bounding = np.flatnonzero(image)
        if internal[bounding].any():
            raise InternalInconsistencyError(
                "sign propagation left an internal face uncancelled")
        boundary = Chain(m - 1, dict(zip(bounding.tolist(),
                                         image[bounding].tolist())), RING_INT)
        return OrientabilityReport(
            True, m, closed=not len(bounding),
            fundamental_chain=Chain(m, dict(enumerate(signs)), RING_INT),
            boundary_chain=boundary if m >= 1 else None)

    all_ones = Chain(m, {i: 1 for i in range(n_top)}, RING_MOD2)
    mod2_image = boundary_map(all_ones, complex_)
    if internal[list(mod2_image.coeffs)].any():
        reason = "top cells do not pairwise cancel even modulo 2"
    else:
        reason = "no consistent orientation of the top cells exists"
    return OrientabilityReport(
        False, m, closed=(not mod2_image.coeffs),
        mod2_certificate=all_ones, mod2_boundary=mod2_image, reason=reason)
