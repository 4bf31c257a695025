"""Finite Bravais-lattice samples: geometry, defects, boundary conditions.

A lattice sample is the set of integer multi-indices in a box, minus
removed sites.  The generator matrix is validated (shape and linear
independence) and recorded in the complex's ``lattice_info``; the
topology depends only on the multi-indices.  The complex on top of them
comes from the grid builder of :mod:`crystaltopo.complexes`; this module
owns everything before and after: generator checks, the defect schema
(``DEFECT_FIELDS``) and defect removal, and the boundary treatments.
The sites are one boolean grid over the fundamental domain: a periodic
axis has one position fewer than the box, so either end names one site.
Removals and defect loci clear positions, and the survivors go to the
grid builder, which alone wraps cells onto the torus; the report
counts box points, read from the grid unfolded along periodic axes.
The quotient pass only serves the constant boundary, which pins the
hull to one vertex.  It works on the cell arrays of the complex
(``DeltaComplex.layers``), creating no per-cell object.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .complexes import (CellLayer, DeltaComplex, _grid_complex, padded_rows,
                        row_keys, row_offsets)
from .errors import (
    ComplexBuildError,
    DefectLocusError,
    DegenerateGeneratorsError,
    DimensionError,
)

INDEPENDENCE_RTOL = 1e-10

# Largest index box, in sites, that a sample may span.  A 3D cubic build
# with its homology peaks near 15 kB per site (about 400 MB for a 30^3
# box), so this cap stays far above 30^3 while a hostile box is refused
# before any site is materialised instead of hanging the build.
MAX_BOX_SITES = 200_000

BOUNDARY_FREE = "free"
BOUNDARY_CONSTANT = "constant"
BOUNDARY_PERIODIC = "periodic"
BOUNDARY_KINDS = (BOUNDARY_FREE, BOUNDARY_CONSTANT, BOUNDARY_PERIODIC)

DEFECT_VACANCY = "vacancy"
DEFECT_LINE = "line_defect"
DEFECT_SURFACE = "surface_defect"
DEFECT_MARKER = "substitution_marker"
# The fields of each defect kind, in the order they are read: a
# multi-index (``tuple``) or one integer (``int``).
DEFECT_FIELDS = {
    DEFECT_VACANCY: {"index": tuple},
    DEFECT_MARKER: {"index": tuple},
    DEFECT_LINE: {"axis": int, "transverse": tuple},
    DEFECT_SURFACE: {"axis": int, "coordinate": int},
}


def _is_integer(x) -> bool:
    return type(x) is int or (  # the common case first: ABC checks are slow
        isinstance(x, numbers.Integral) and not isinstance(x, bool))


@dataclass(frozen=True)
class DefectSpec:
    """One defect instruction.  Axes are 1-based in all public interfaces."""

    kind: str
    index: tuple[int, ...] | None = None
    axis: int | None = None
    transverse: tuple[int, ...] | None = None
    coordinate: int | None = None

    def validated(self, m: int) -> "DefectSpec":
        if self.kind not in DEFECT_FIELDS:
            raise DefectLocusError(f"unknown defect kind {self.kind!r}")
        for name, shape in DEFECT_FIELDS[self.kind].items():
            value = getattr(self, name)
            items = [value] if shape is int else value
            if value is not None and not (isinstance(items, Iterable)
                                          and all(map(_is_integer, items))):
                what = "an integer" if shape is int else "integers"
                raise DefectLocusError(
                    f"{self.kind} {name} must be {what}, got {value!r}")
        if "index" in DEFECT_FIELDS[self.kind]:
            if self.index is None or len(self.index) != m:
                raise DefectLocusError(
                    f"{self.kind} needs an index of length {m}")
            return self
        if self.axis is None or not 1 <= self.axis <= m:
            raise DefectLocusError(f"{self.kind} axis must be in 1..{m}")
        if self.kind == DEFECT_LINE:
            if self.transverse is None or len(self.transverse) != m - 1:
                raise DefectLocusError(
                    f"line_defect needs {m - 1} transverse coordinates")
        elif self.coordinate is None:
            raise DefectLocusError("surface_defect needs a coordinate")
        return self


@dataclass(frozen=True)
class LatticeSpec:
    """Validated description of one lattice sample."""

    dimension: int
    ambient: int
    generators: tuple[tuple[float, ...], ...]
    index_box: tuple[tuple[int, int], ...]
    scheme: str
    removed_indices: tuple[tuple[int, ...], ...] = ()
    defects: tuple[DefectSpec, ...] = ()
    boundary: str = BOUNDARY_FREE
    periodic_axes: tuple[int, ...] = ()


def check_generators(generators: Sequence[Sequence[float]], m: int,
                     n: int) -> np.ndarray:
    """Validate shapes and linear independence; return the m x n array.

    Independence is judged on the rows divided by their largest |entry|,
    by the volume they span against the product of their norms, so the
    verdict is scale-free: uniformly tiny or huge but independent
    generators pass while a near-coplanar triple fails.  The volume is
    |det| of a square array, else the product of |diag R| in the QR
    factorisation of the rows as columns, and 0 for more rows than
    columns; the Gram determinant, its square, would square their
    condition number.
    """
    A = np.array(generators, dtype=float)
    if A.shape != (m, n):
        raise DegenerateGeneratorsError(
            f"expected {m} generators of length {n}, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise DegenerateGeneratorsError("generator entries must be finite")
    scale = np.abs(A).max(axis=1, initial=0.0)
    if np.any(scale == 0.0):
        k = int(np.argmin(scale))
        raise DegenerateGeneratorsError(f"generator {k + 1} is the zero vector")
    B = A / scale[:, None]
    norms = np.linalg.norm(B, axis=1)
    if m > n:
        vol = 0.0
    elif m == n:
        vol = abs(float(np.linalg.det(B)))
    else:
        vol = float(np.prod(np.abs(np.diag(np.linalg.qr(B.T, mode="r")))))
    if vol <= INDEPENDENCE_RTOL * float(np.prod(norms)):
        # Name a culprit: the vector best explained by the others.  A single
        # generator passes, so there are others.
        worst, worst_k = -1.0, 0
        for k in range(m):
            others = np.delete(B, k, axis=0)
            coef, *_ = np.linalg.lstsq(others.T, B[k], rcond=None)
            resid = float(np.linalg.norm(B[k] - others.T @ coef))
            score = 1.0 - resid / norms[k]
            if score > worst:
                worst, worst_k = score, k
        raise DegenerateGeneratorsError(
            f"generators are not linearly independent "
            f"(generator {worst_k + 1} lies in the span of the others)")
    return A


def unit_cell_volume(generators: Sequence[Sequence[float]]) -> float:
    """|det| of the generator matrix; defined only for m == n."""
    A = np.array(generators, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(
            "unit cell volume needs as many generators as ambient dimensions")
    return abs(float(np.linalg.det(A)))


def reciprocal_basis(generators: Sequence[Sequence[float]]) -> np.ndarray:
    """Dual vectors b_i in the generator span with b_i . a_j = delta_ij."""
    A = check_generators(generators, len(generators), len(generators[0]))
    gram = A @ A.T
    return np.linalg.solve(gram, A)


def _locus(coords, sites: np.ndarray, box) -> tuple | None:
    """Grid key of one coordinate per leading axis (None: the whole axis),
    None unless each is an integer in the box.  On a periodic axis the top
    wraps to 0."""
    if not all(c is None or _is_integer(c) and lo <= c <= hi
               for c, (lo, hi) in zip(coords, box)):
        return None
    return tuple(slice(None) if c is None else (c - lo) % n
                 for c, (lo, _), n in zip(coords, box, sites.shape))


def _unfold(grid: np.ndarray, box) -> np.ndarray:
    """The grid over every box point: a periodic axis repeats its first
    position at the top."""
    for a, (lo, hi) in enumerate(box):
        if grid.shape[a] == hi - lo:
            grid = np.concatenate([grid, grid.take([0], axis=a)], axis=a)
    return grid


def _label_dtype(box):
    """int64 if every label of the box and the one below it fit."""
    return np.int64 if all(-2 ** 63 < lo and hi < 2 ** 63
                           for lo, hi in box) else object


def apply_defects(sites: np.ndarray, box: Sequence[tuple[int, int]],
                  defects: Sequence[DefectSpec]) -> dict:
    """Clear defect loci from the site grid in place and report them;
    markers are recorded only.  ``sites`` holds hi - lo + 1 positions per
    free axis of ``box`` and hi - lo per periodic one, whose two ends are
    one site.  A defect that meets no present site is misaddressed and
    refused."""
    m = len(box)
    if sites.ndim != m or not all(0 < n and hi - lo <= n <= hi - lo + 1
                                  for n, (lo, hi) in zip(sites.shape, box)):
        raise ComplexBuildError(
            f"site grid of shape {sites.shape} does not fit the box {box}")
    report = {"vacancies": [], "line_defects": [], "surface_defects": [],
              "markers": [], "removed_total": 0}
    for spec in defects:
        spec = spec.validated(m)
        if spec.kind == DEFECT_VACANCY:
            idx = tuple(spec.index)
            pos = _locus(idx, sites, box)
            if pos is None:
                raise DefectLocusError(f"vacancy {idx} is outside the index box")
            if not sites[pos]:
                raise DefectLocusError(
                    f"vacancy {idx} addresses a site that is already absent")
            sites[pos] = False
            report["vacancies"].append(idx)
            report["removed_total"] += 1
        elif spec.kind == DEFECT_MARKER:
            idx = tuple(spec.index)
            pos = _locus(idx, sites, box)
            if pos is None or not sites[pos]:
                raise DefectLocusError(
                    f"substitution marker {idx} addresses an absent site")
            report["markers"].append(idx)
        else:
            axis, line = spec.axis - 1, spec.kind == DEFECT_LINE
            if line:
                t = tuple(spec.transverse)
                coords = [*t[:axis], None, *t[axis:]]
                entry = {"axis": spec.axis, "transverse": t}
                where = f"line defect along axis {spec.axis} at {t}"
            else:
                coords = [None] * axis + [spec.coordinate]
                entry = {"axis": spec.axis, "coordinate": spec.coordinate}
                where = (f"surface defect at axis {spec.axis} = "
                         f"{spec.coordinate}")
            locus = _locus(coords, sites, box)
            hit = 0 if locus is None else int(np.count_nonzero(sites[locus]))
            if not hit:
                raise DefectLocusError(f"{where} misses every site")
            sites[locus] = False
            report["line_defects" if line else "surface_defects"].append(
                {**entry, "removed": hit})
            report["removed_total"] += hit
    return report


# ---------------------------------------------------------------------------
# Boundary conditions


def apply_constant_boundary(complex_: DeltaComplex,
                            box: Sequence[tuple[int, int]]) -> DeltaComplex:
    """Quotient that pins the sample's outer hull to a single state.

    All hull vertices become one vertex, the first; cells lying inside a
    hull facet (every corner sharing one extreme coordinate on some axis)
    are collapsed away, and surviving cells lose those faces.  The other
    cells keep their corner order and are renumbered in order of their
    new corner labels.  The result is the relative complex of the sample
    against its hull.
    """
    m = len(box)
    # Below every box coordinate, so the new vertex sorts first.
    w = tuple(lo - 1 for lo, _ in box)
    if w in complex_.label_to_id:
        raise ComplexBuildError(
            f"label {w} is taken; cannot introduce the collapsed vertex")
    vertex = np.array(complex_.vertex_labels,
                      dtype=_label_dtype(box)).reshape(-1, m)
    lo, hi = np.array(box, dtype=vertex.dtype).T
    # Bit a: at the low end of axis a; bit m + a: at its high end.
    hull = np.hstack([vertex == lo, vertex == hi]) @ (1 << np.arange(2 * m))
    images = np.where(hull[:, None] > 0, np.array(w, dtype=vertex.dtype),
                      vertex)
    # The distinct images in ascending order, and each vertex's place.
    order = np.lexsort(images.T[::-1])
    ordered = images[order]
    first = np.r_[True, (ordered[1:] != ordered[:-1]).any(axis=1)]
    image = (np.cumsum(first) - 1)[np.argsort(order)]
    labels = list(map(tuple, ordered[first].tolist()))
    layers: list[CellLayer] = []
    new_id = np.empty(0, dtype=np.int64)
    for k, layer in enumerate(complex_.layers):
        if k == 0:
            # One vertex per new label, the first of its preimages.
            _, keep, rank = np.unique(image[layer.vertices],
                                      return_index=True, return_inverse=True)
        else:
            # Collapse the cells inside a hull facet; order the others by
            # their new corners, ties by their old order.
            alive = np.flatnonzero(np.bitwise_and.reduceat(
                hull[layer.vertices], layer.vertex_ptr[:-1]) == 0)
            rows = layer.take(alive)
            keys = row_keys(padded_rows(image[rows.vertices], rows.vertex_ptr))
            keep = alive[np.argsort(keys, kind="stable")]
            rank = np.full(len(layer), -1)
            rank[keep] = np.arange(len(keep))
        rows = layer.take(keep)
        faces = new_id[rows.faces]
        kept = faces >= 0
        owner = np.repeat(np.arange(len(keep)), np.diff(rows.face_ptr))
        layers.append(CellLayer(
            image[rows.vertices], rows.vertex_ptr, faces[kept],
            rows.coeffs[kept],
            row_offsets(np.bincount(owner[kept], minlength=len(keep))),
            rows.shapes))
        new_id = rank
    return DeltaComplex.from_layers(labels, layers, lattice_info={
        **(complex_.lattice_info or {}),
        "boundary": BOUNDARY_CONSTANT, "collapsed_vertex": w})


# ---------------------------------------------------------------------------
# Full pipeline


def build_lattice_complex(spec: LatticeSpec) -> tuple[DeltaComplex, dict]:
    """Generators to finished complex: validate, remove, build, quotient."""
    m, n, box = spec.dimension, spec.ambient, spec.index_box
    if not 1 <= m <= 3:
        raise DimensionError("lattice dimension must be 1, 2 or 3")
    if n < m:
        raise DimensionError(
            f"ambient dimension {n} cannot hold {m} independent generators")
    A = check_generators(spec.generators, m, n)
    if len(box) != m:
        raise ComplexBuildError(f"index box needs {m} ranges, got {len(box)}")
    if spec.boundary not in BOUNDARY_KINDS:
        raise ComplexBuildError(f"unknown boundary condition {spec.boundary!r}")

    periodic_axes = ()
    if spec.boundary == BOUNDARY_PERIODIC:
        periodic_axes = tuple(a - 1 for a in (spec.periodic_axes or
                                              tuple(range(1, m + 1))))
        for a in periodic_axes:
            if not 0 <= a < m:
                raise ComplexBuildError(
                    f"periodic axis {a + 1} out of range 1..{m}")
            lo, hi = box[a]
            if hi - lo < 1:
                raise ComplexBuildError(
                    f"periodic axis {a + 1} needs box extent of at least 1")

    for lo, hi in box:
        if hi < lo:
            raise ComplexBuildError(f"empty index box range ({lo}, {hi})")
    total = math.prod(hi - lo + 1 for lo, hi in box)
    if total > MAX_BOX_SITES:
        raise ComplexBuildError(
            f"index box holds {total} sites, above the limit of "
            f"{MAX_BOX_SITES}")
    sites = np.ones([hi - lo + (a not in periodic_axes)
                     for a, (lo, hi) in enumerate(box)], dtype=bool)
    for idx in spec.removed_indices:
        idx = tuple(idx)
        if len(idx) != m:
            raise ComplexBuildError(f"removed index {idx} has wrong length")
        pos = _locus(idx, sites, box)
        if pos is None:
            raise DefectLocusError(f"removed index {idx} is outside the box")
        sites[pos] = False
    lows = np.array(box, dtype=_label_dtype(box))[:, 0]
    removed = []
    if spec.removed_indices:
        removed = list(map(tuple, (np.argwhere(
            _unfold(~sites, box)) + lows).tolist()))
    defect_report = apply_defects(sites, box, spec.defects)
    if not sites.any():
        raise ComplexBuildError("every lattice site was removed")

    # Row-major positions are sorted and distinct; beyond int64 ``lows``
    # holds Python ints, so the labels stay exact.
    rel = np.argwhere(sites)
    complex_ = _grid_complex(
        rel, list(map(tuple, (rel + lows).tolist())), spec.scheme, box,
        periodic_axes)
    complex_.lattice_info.update({
        "generators": tuple(tuple(float(x) for x in row) for row in A),
        "ambient": n,
        "boundary": spec.boundary,
    })
    if periodic_axes:
        complex_.lattice_info["periodic_axes"] = tuple(
            a + 1 for a in periodic_axes)
    elif spec.boundary == BOUNDARY_CONSTANT:
        complex_ = apply_constant_boundary(complex_, box)

    report = {
        "defects": defect_report,
        "removed_indices": removed,
        "sites": int(np.count_nonzero(_unfold(sites, box))),
        "cells": complex_.cell_counts(),
    }
    return complex_, report
