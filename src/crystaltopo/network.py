"""Kirchhoff-style checks on the 1-skeleton.

Edge currents live in the kernel of the first boundary matrix; edge drops
are consistent exactly when they are a coboundary of vertex potentials,
a drop being V(head) - V(tail) with an edge's tail and head read from its
faces (``DeltaComplex.edge_ends``).  Both checks work over floats with an
explicit tolerance and report where they fail: net charge per vertex for
currents, a fundamental loop with a nonzero circulation for drops.  The
net charges are summed by one ``np.bincount`` in face-entry order, at the
vertex of each face's 0-cell (``DeltaComplex.point_vertices``), and the
potentials are filled along the breadth-first ``spanning_forest``.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .complexes import Chain, DeltaComplex, RING_REAL, spanning_forest
from .errors import DimensionError

KIRCHHOFF_TOL = 1e-9


def _edge_values(complex_: DeltaComplex, values) -> tuple:
    """Edge ids and float values, in order; the first bad entry is named."""
    if isinstance(values, Chain):
        if values.dim != 1:
            raise DimensionError("edge data must be 1-dimensional")
        values = values.coeffs
    n = complex_.n_cells(1)
    ids, out = [], []
    for cid, v in dict(values).items():
        if type(cid) is not int and (
                isinstance(cid, bool) or not isinstance(cid, numbers.Integral)):
            raise DimensionError(f"edge id {cid!r} is not an integer")
        cid = int(cid)
        if not 0 <= cid < n:
            raise DimensionError(f"edge id {cid} out of range")
        # NaN fails the comparison; an integer may be too large for a float
        if isinstance(v, (bool, np.bool_)) or not isinstance(
                v, numbers.Real) or not abs(v) <= sys.float_info.max:
            shown = repr(v) if isinstance(v, (str, bytes, bytearray)) else v
            raise ValueError(
                f"edge {cid}: value {shown} is not a finite number")
        ids.append(cid)
        out.append(float(v))
    return np.array(ids, dtype=np.int64), np.array(out, dtype=float)


@dataclass
class CurrentLawReport:
    ok: bool
    max_residual: float
    residuals: dict[int, float]
    tol: float = KIRCHHOFF_TOL


def check_current_law(complex_: DeltaComplex, currents,
                      tol: float = KIRCHHOFF_TOL) -> CurrentLawReport:
    """Net flow at each vertex; passes when every vertex balances."""
    return _current_law(complex_, *_edge_values(complex_, currents), tol)


def _current_law(complex_: DeltaComplex, ids: np.ndarray, current: np.ndarray,
                 tol: float = KIRCHHOFF_TOL) -> CurrentLawReport:
    """Net flows per vertex, summed in the order of the checked edge ids."""
    if complex_.dim < 1:
        return CurrentLawReport(True, 0.0, {}, tol)
    owner, faces, coeffs = complex_.layers[1].face_entries(ids)
    residual = np.bincount(complex_.point_vertices()[faces],
                           coeffs * current[owner],
                           minlength=complex_.n_vertices).tolist()
    offenders = {v: r for v, r in enumerate(residual) if abs(r) > tol}
    worst = max((abs(r) for r in residual), default=0.0)
    return CurrentLawReport(not offenders, worst, offenders, tol)


@dataclass
class PotentialReport:
    consistent: bool
    potentials: list[float] | None = None
    violating_loop: Chain | None = None
    loop_circulation: float | None = None
    tol: float = KIRCHHOFF_TOL


def potential_check(complex_: DeltaComplex, drops,
                    tol: float = KIRCHHOFF_TOL) -> PotentialReport:
    """Find vertex potentials whose differences match the edge drops.

    A drop on an edge is V(head) - V(tail), its tail and head being its
    faces with coefficient -1 and +1.  Potentials are assigned in the
    visit order of the breadth-first spanning forest, each tree rooted at
    its component's smallest vertex id; the first non-tree edge that
    disagrees yields its fundamental loop as a 1-chain whose circulation
    is the mismatch.
    """
    return _potentials(complex_, *_edge_values(complex_, drops), tol)


def _potentials(complex_: DeltaComplex, ids: np.ndarray, values: np.ndarray,
                tol: float = KIRCHHOFF_TOL) -> PotentialReport:
    """Potentials for checked edge ids; an edge left out has drop 0."""
    n_v = complex_.n_vertices
    if complex_.dim < 1 or complex_.n_cells(1) == 0:
        return PotentialReport(True, [0.0] * n_v, tol=tol)

    tail, head = complex_.edge_ends()
    drop = np.zeros(len(tail))
    drop[ids] = values
    _, parent, edge, sign, pot = spanning_forest(n_v, tail, head, drop)

    # All non-tree edges at once; the lowest offending id gives the loop.
    bad = np.abs(pot[head] - pot[tail] - drop) > tol
    bad[edge[edge >= 0]] = False
    if not bad.any():
        return PotentialReport(True, pot.tolist(), tol=tol)

    # Loop: the edge tail -> head, then the tree path up from head and
    # back down to tail; edges above the two paths' meeting point cancel.
    cid = int(bad.argmax())
    loop: dict[int, float] = {cid: 1.0}
    parent, edge, sign = parent.tolist(), edge.tolist(), sign.tolist()
    for v, way in ((int(head[cid]), 1.0), (int(tail[cid]), -1.0)):
        while parent[v] >= 0:
            loop[edge[v]] = loop.get(edge[v], 0.0) - way * sign[v]
            v = parent[v]
    chain = Chain(1, loop, RING_REAL)
    circulation = sum(c * drop.item(e) for e, c in chain.coeffs.items())
    return PotentialReport(False, None, chain, circulation, tol)
