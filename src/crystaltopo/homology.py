"""Homology, cohomology and orientation analysis over three coefficient rings.

Ranks and torsion come from one exact sparse reduction per boundary
matrix and ring: the columns of d_k are taken straight from the face arrays
and ``sparse_invariant_factors`` eliminates the unit pivots, handing only
the small non-unit leftover to the dense Smith reducer.  The mod-2 ranks
use the same elimination modulo 2.  Real coefficients give the same ranks
as the integers with no torsion, so they share the integer result rather
than trusting floating point.  Boundary and coboundary membership
append the vector to the same sparse columns and compare invariant
factors with the cached reduction.  Generators of a nonzero group come
from one tracked Smith reduction of d_k, whose V^-1 gives the cycle
coordinates Y of the columns of d_{k+1}, plus the Smith form of Y.
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
    incidence_matrix,
    row_offsets,
)
from .errors import DimensionError, InternalInconsistencyError
from .snf import matmul_int, smith_normal_form, sparse_invariant_factors


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


def _reduction(complex_: DeltaComplex, k: int,
               ring: str) -> tuple[int, tuple[int, ...]]:
    """(rank, invariant factors > 1) of the k-th boundary matrix.

    Reals share the integer result; each matrix is reduced at most once
    per ring and cached.  Out-of-range degrees give (0, ()).
    """
    if k < 1 or k > complex_.dim or complex_.n_cells(k) == 0:
        return 0, ()
    mod2 = ring == RING_MOD2
    key = ("reduction", k, mod2)
    cached = complex_._cache.get(key)
    if cached is None:
        factors = sparse_invariant_factors(boundary_columns(complex_, k),
                                           mod2=mod2)
        cached = (len(factors), tuple(d for d in factors if d > 1))
        complex_._cache[key] = cached
    return cached


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
    if ring != RING_INT:
        return HomologyGroup(k, ring, betti)
    return HomologyGroup(k, ring, betti, torsion)


def cohomology(complex_: DeltaComplex, k: int,
               ring: str = RING_INT) -> HomologyGroup:
    """The k-th cohomology group; over Z its torsion is that of the
    (k-1)-st boundary matrix."""
    base = homology(complex_, k, ring)
    if ring != RING_INT:
        return HomologyGroup(k, ring, base.betti)
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
    parent = list(range(complex_.n_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    if complex_.dim >= 1:
        edges = complex_.layers[1]
        for a, b in zip(edges.first_vertices().tolist(),
                        edges.last_vertices().tolist()):
            a, b = find(a), find(b)
            if a != b:
                parent[max(a, b)] = min(a, b)
    roots = sorted({find(v) for v in range(complex_.n_vertices)})
    renumber = {r: i for i, r in enumerate(roots)}
    return [renumber[find(v)] for v in range(complex_.n_vertices)]


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


def _in_image(complex_: DeltaComplex, k: int, vector: Mapping[int, object],
              ring: str, transpose: bool = False) -> bool:
    """Whether ``vector`` lies in the image of d_k over ``ring``.

    With ``transpose`` the map is the coboundary delta^{k-1}, whose columns
    are the rows of d_k.  ``vector`` is appended to the sparse columns and
    the invariant factors are compared with the cached reduction of d_k,
    which a matrix shares with its transpose.  Over Z the vector lies in
    the image exactly when rank and torsion are unchanged: both lattices
    span the same saturation, so equal rank and an equal product of
    invariant factors mean equal lattices.  Over Z/2 and R the rank
    decides.  Real coefficients are taken at their exact binary value and
    scaled to integers, which leaves the rank over Q unchanged.
    """
    n = complex_.n_cells(k if transpose else k - 1)
    if any(not 0 <= i < n for i in vector):
        raise DimensionError(f"vector index out of range for {n} cells")
    columns = boundary_columns(complex_, k)
    if transpose:
        rows: list[dict] = [{} for _ in range(complex_.n_cells(k - 1))]
        for j, col in enumerate(columns):
            for i, v in col.items():
                rows[i][j] = v
        columns = rows
    if ring == RING_REAL:
        vector = _integral(vector)
    rank, torsion = _reduction(complex_, k, ring)
    factors = sparse_invariant_factors([*columns, vector],
                                       mod2=ring == RING_MOD2)
    if len(factors) != rank:
        return False
    return ring != RING_INT or tuple(d for d in factors if d > 1) == torsion


def is_boundary(chain: Chain, complex_: DeltaComplex) -> bool:
    """Whether the chain bounds, exactly, over its own coefficient ring.

    Real coefficients are taken at their exact binary value; there is no
    tolerance.
    """
    k = chain.dim
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
    One tracked Smith form U d_k V = D gives the cycle basis V[:, r:] and,
    since V is unimodular, the unique coordinates V^-1 c of every cycle c
    in it; for k = 0 every chain is a cycle and the basis is the standard
    one.  The coordinates Y of the columns of d_{k+1} are reduced once
    more, and the basis is adapted to the image so each basis vector
    carries one invariant factor.
    """
    group = homology(complex_, k)
    if not group.betti and not group.torsion:
        return []  # one entry per free or torsion summand: none
    n_k = complex_.n_cells(k)

    if k == 0:
        r = 0
        kernel = [[1 if i == j else 0 for j in range(n_k)] for i in range(n_k)]
        vinv = kernel
    else:
        dec = smith_normal_form(incidence_matrix(complex_, k))
        r = dec.rank
        kernel = [row[r:] for row in dec.V]
        vinv = dec.vinv
    z = n_k - r

    if k == complex_.dim or complex_.n_cells(k + 1) == 0:
        return [(0, Chain(k, {i: kernel[i][j] for i in range(n_k)}, RING_INT))
                for j in range(z)]

    # Cycle coordinates of the columns of d_{k+1}: one sparse dot per row
    # of V^-1.  Each column is a cycle, so its head coordinates vanish.
    columns = [list(col.items()) for col in boundary_columns(complex_, k + 1)]
    coords = [[sum(row[i] * v for i, v in col) for col in columns]
              for row in vinv]
    if any(any(row) for row in coords[:r]):
        raise InternalInconsistencyError(
            "boundary column is not an integral cycle combination")

    dec_y = smith_normal_form(coords[r:])
    adapted = matmul_int(kernel, dec_y.uinv)
    orders = dec_y.diagonal
    out: list[tuple[int, Chain]] = []
    for j in range(z):
        order = orders[j] if j < len(orders) else 0
        if order == 1:
            continue
        chain = Chain(k, {i: adapted[i][j] for i in range(n_k)}, RING_INT)
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
    faces cancel is a fundamental chain.  When no consistent choice
    exists, the all-ones mod-2 chain is returned instead, with its mod-2
    boundary.
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

    signs = [0] * n_top
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
        ends = np.concatenate([p, q])
        by_end = np.argsort(ends, kind="stable")
        ptr = row_offsets(np.bincount(ends, minlength=n_top)).tolist()
        other = np.concatenate([q, p])[by_end].tolist()
        step = np.concatenate([rel, rel])[by_end].tolist()
        for seed in range(n_top):
            if signs[seed]:
                continue
            signs[seed] = 1
            queue = [seed]
            while queue:
                cur = queue.pop()
                for j in range(ptr[cur], ptr[cur + 1]):
                    if not signs[other[j]]:
                        signs[other[j]] = step[j] * signs[cur]
                        queue.append(other[j])
        # The spanning forest fixed every sign; each glued pair must agree.
        spin = np.array(signs)
        consistent = bool((spin[q] == rel * spin[p]).all())

    if consistent:
        fundamental = Chain(m, {i: signs[i] for i in range(n_top)}, RING_INT)
        image = boundary_map(fundamental, complex_) if m >= 1 \
            else Chain(-1, {}, RING_INT)
        # Independent check: the image must avoid all internal faces.
        if internal[list(image.coeffs)].any():
            raise InternalInconsistencyError(
                "sign propagation left an internal face uncancelled")
        closed = not image.coeffs
        return OrientabilityReport(
            True, m, closed=closed, fundamental_chain=fundamental,
            boundary_chain=image if m >= 1 else None)

    all_ones = Chain(m, {i: 1 for i in range(n_top)}, RING_MOD2)
    mod2_image = boundary_map(all_ones, complex_)
    if internal[list(mod2_image.coeffs)].any():
        reason = "top cells do not pairwise cancel even modulo 2"
    else:
        reason = "no consistent orientation of the top cells exists"
    return OrientabilityReport(
        False, m, closed=(not mod2_image.coeffs),
        mod2_certificate=all_ones, mod2_boundary=mod2_image, reason=reason)
