"""Kirchhoff-style checks on the 1-skeleton.

Edge currents live in the kernel of the first boundary matrix; edge drops
are consistent exactly when they are a coboundary of vertex potentials.
Both checks work over floats with an explicit tolerance and report where
they fail: net charge per vertex for currents, a fundamental loop with a
nonzero circulation for drops.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping

from .complexes import Chain, DeltaComplex, RING_REAL
from .errors import DimensionError

KIRCHHOFF_TOL = 1e-9


def _edge_values(complex_: DeltaComplex, values) -> dict[int, float]:
    if isinstance(values, Chain):
        if values.dim != 1:
            raise DimensionError("edge data must be 1-dimensional")
        return {cid: float(v) for cid, v in values.coeffs.items()}
    out = {}
    n = complex_.n_cells(1)
    for cid, v in dict(values).items():
        cid = int(cid)
        if not 0 <= cid < n:
            raise DimensionError(f"edge id {cid} out of range")
        out[cid] = float(v)
    return out


@dataclass
class CurrentLawReport:
    ok: bool
    max_residual: float
    residuals: dict[int, float]
    tol: float = KIRCHHOFF_TOL


def check_current_law(complex_: DeltaComplex, currents,
                      tol: float = KIRCHHOFF_TOL) -> CurrentLawReport:
    """Net flow at each vertex; passes when every vertex balances."""
    if complex_.dim < 1:
        return CurrentLawReport(True, 0.0, {})
    vals = _edge_values(complex_, currents)
    residual = [0.0] * complex_.n_vertices
    owner, faces, coeffs = complex_.layers[1].face_entries(list(vals))
    current = list(vals.values())
    for o, fid, coeff in zip(owner.tolist(), faces.tolist(), coeffs.tolist()):
        residual[fid] += coeff * current[o]
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

    A drop on edge (a, b) is V(b) - V(a).  Potentials are assigned along
    a spanning forest rooted at each component's smallest vertex id; the
    first non-tree edge that disagrees yields its fundamental loop as a
    1-chain whose circulation is the mismatch.
    """
    n_v = complex_.n_vertices
    if complex_.dim < 1 or complex_.n_cells(1) == 0:
        return PotentialReport(True, [0.0] * n_v)
    vals = _edge_values(complex_, drops)

    # Each vertex's edges, in edge-id order.
    first = complex_.layers[1].first_vertices().tolist()
    last = complex_.layers[1].last_vertices().tolist()
    adjacency: list[list[tuple[int, int, int]]] = [[] for _ in range(n_v)]
    for cid, (a, b) in enumerate(zip(first, last)):
        adjacency[a].append((b, cid, 1))
        if a != b:
            adjacency[b].append((a, cid, -1))

    potential = [None] * n_v
    parent: dict[int, tuple[int, int, int]] = {}
    tree_edges: set[int] = set()
    for root in range(n_v):
        if potential[root] is not None:
            continue
        potential[root] = 0.0
        queue = deque([root])
        while queue:
            cur = queue.popleft()
            for other, cid, sign in adjacency[cur]:
                if other == cur or potential[other] is not None:
                    continue
                drop = vals.get(cid, 0.0)
                potential[other] = potential[cur] + sign * drop
                parent[other] = (cur, cid, sign)
                tree_edges.add(cid)
                queue.append(other)

    def path_to_root(v: int) -> dict[int, float]:
        # Edge coefficients of the tree path from v up to its root,
        # oriented from v toward the root.
        coeffs: dict[int, float] = {}
        while v in parent:
            up, cid, sign = parent[v]
            coeffs[cid] = coeffs.get(cid, 0.0) - sign
            v = up
        return coeffs

    for cid, (a, b) in enumerate(zip(first, last)):
        if cid in tree_edges:
            continue
        drop = vals.get(cid, 0.0)
        mismatch = potential[b] - potential[a] - drop
        if abs(mismatch) > tol:
            # Loop: the edge from a to b, then the tree path b -> a.
            loop: dict[int, float] = {cid: 1.0}
            down_b = path_to_root(b)
            down_a = path_to_root(a)
            for k, v in down_b.items():
                loop[k] = loop.get(k, 0.0) + v
            for k, v in down_a.items():
                loop[k] = loop.get(k, 0.0) - v
            chain = Chain(1, loop, RING_REAL)
            circulation = sum(
                c * vals.get(e, 0.0) for e, c in chain.coeffs.items())
            return PotentialReport(False, None, chain, circulation, tol)
    return PotentialReport(True, [float(p) for p in potential], tol=tol)
