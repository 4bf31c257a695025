"""Finite Bravais-lattice samples: geometry, defects, boundary conditions.

A lattice sample is the set of integer multi-indices in a box, minus
removed sites.  The generator matrix is validated (shape and linear
independence) and recorded in the complex's ``lattice_info``; the
topology depends only on the multi-indices.  The complex on top of them
comes from :func:`crystaltopo.complexes.build_complex`; this module owns
everything before and after: generator checks, defect removal, and the
boundary treatments.  A periodic sample is closed under its translation
orbits and built directly on the torus; the quotient pass only serves
the constant boundary, which pins the hull to one vertex.  That pass
works on the cell arrays of the complex (``DeltaComplex.layers``): it
drops the hull cells and their face entries and sorts the survivors with
numpy, creating no per-cell object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Sequence

import numpy as np

from .complexes import CellLayer, DeltaComplex, build_complex, row_offsets
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
DEFECT_KINDS = (DEFECT_VACANCY, DEFECT_LINE, DEFECT_SURFACE, DEFECT_MARKER)


@dataclass(frozen=True)
class DefectSpec:
    """One defect instruction.  Axes are 1-based in all public interfaces."""

    kind: str
    index: tuple[int, ...] | None = None
    axis: int | None = None
    transverse: tuple[int, ...] | None = None
    coordinate: int | None = None

    def validated(self, m: int) -> "DefectSpec":
        if self.kind not in DEFECT_KINDS:
            raise DefectLocusError(f"unknown defect kind {self.kind!r}")
        if self.kind in (DEFECT_VACANCY, DEFECT_MARKER):
            if self.index is None or len(self.index) != m:
                raise DefectLocusError(
                    f"{self.kind} needs an index of length {m}")
        elif self.kind == DEFECT_LINE:
            if self.axis is None or not 1 <= self.axis <= m:
                raise DefectLocusError(
                    f"line_defect axis must be in 1..{m}")
            if self.transverse is None or len(self.transverse) != m - 1:
                raise DefectLocusError(
                    f"line_defect needs {m - 1} transverse coordinates")
        elif self.kind == DEFECT_SURFACE:
            if self.axis is None or not 1 <= self.axis <= m:
                raise DefectLocusError(
                    f"surface_defect axis must be in 1..{m}")
            if self.coordinate is None:
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

    Independence is judged by the Gram determinant against the scale of
    the vectors themselves, so uniformly tiny but independent generators
    pass while a near-coplanar triple fails.
    """
    A = np.array(generators, dtype=float)
    if A.shape != (m, n):
        raise DegenerateGeneratorsError(
            f"expected {m} generators of length {n}, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise DegenerateGeneratorsError("generator entries must be finite")
    norms = np.linalg.norm(A, axis=1)
    if np.any(norms == 0.0):
        k = int(np.argmin(norms))
        raise DegenerateGeneratorsError(f"generator {k + 1} is the zero vector")
    gram = A @ A.T
    vol = math.sqrt(max(float(np.linalg.det(gram)), 0.0))
    if vol <= INDEPENDENCE_RTOL * float(np.prod(norms)):
        # Name a culprit: the vector best explained by the others.
        worst, worst_k = -1.0, 0
        for k in range(m):
            others = np.delete(A, k, axis=0)
            if others.shape[0] == 0:
                continue
            coef, *_ = np.linalg.lstsq(others.T, A[k], rcond=None)
            resid = float(np.linalg.norm(A[k] - others.T @ coef))
            score = 1.0 - resid / max(norms[k], 1e-300)
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


def box_points(index_box: Sequence[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Every multi-index of the box; the site count is checked against
    ``MAX_BOX_SITES`` before any index is generated."""
    sites = 1
    for lo, hi in index_box:
        if hi < lo:
            raise ComplexBuildError(f"empty index box range ({lo}, {hi})")
        sites *= hi - lo + 1
    if sites > MAX_BOX_SITES:
        raise ComplexBuildError(
            f"index box holds {sites} sites, above the limit of "
            f"{MAX_BOX_SITES}")
    return [tuple(p) for p in
            product(*(range(lo, hi + 1) for lo, hi in index_box))]


def _in_box(idx: tuple[int, ...], box: Sequence[tuple[int, int]]) -> bool:
    return all(lo <= c <= hi for c, (lo, hi) in zip(idx, box))


def apply_defects(points: set, box: Sequence[tuple[int, int]],
                  defects: Sequence[DefectSpec]) -> tuple[set, dict]:
    """Remove defect loci from the point set; markers are recorded only.

    Each defect must actually meet the current point set, otherwise the
    instruction is considered misaddressed and rejected.
    """
    m = len(box)
    surviving = set(points)
    report = {"vacancies": [], "line_defects": [], "surface_defects": [],
              "markers": [], "removed_total": 0}
    for spec in defects:
        spec = spec.validated(m)
        if spec.kind == DEFECT_VACANCY:
            idx = tuple(spec.index)
            if not _in_box(idx, box):
                raise DefectLocusError(f"vacancy {idx} is outside the index box")
            if idx not in surviving:
                raise DefectLocusError(
                    f"vacancy {idx} addresses a site that is already absent")
            surviving.discard(idx)
            report["vacancies"].append(idx)
            report["removed_total"] += 1
        elif spec.kind == DEFECT_MARKER:
            idx = tuple(spec.index)
            if idx not in surviving:
                raise DefectLocusError(
                    f"substitution marker {idx} addresses an absent site")
            report["markers"].append(idx)
        elif spec.kind == DEFECT_LINE:
            axis = spec.axis - 1
            others = [a for a in range(m) if a != axis]
            hit = {p for p in surviving
                   if tuple(p[a] for a in others) == tuple(spec.transverse)}
            if not hit:
                raise DefectLocusError(
                    f"line defect along axis {spec.axis} at "
                    f"{tuple(spec.transverse)} misses every site")
            surviving -= hit
            report["line_defects"].append(
                {"axis": spec.axis, "transverse": tuple(spec.transverse),
                 "removed": len(hit)})
            report["removed_total"] += len(hit)
        elif spec.kind == DEFECT_SURFACE:
            axis = spec.axis - 1
            hit = {p for p in surviving if p[axis] == spec.coordinate}
            if not hit:
                raise DefectLocusError(
                    f"surface defect at axis {spec.axis} = {spec.coordinate} "
                    "misses every site")
            surviving -= hit
            report["surface_defects"].append(
                {"axis": spec.axis, "coordinate": spec.coordinate,
                 "removed": len(hit)})
            report["removed_total"] += len(hit)
    return surviving, report


# ---------------------------------------------------------------------------
# Boundary conditions


def _tuple_order(values: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Stable order of the CSR rows of ``values`` (nonnegative) compared as
    tuples: each row is padded with -1, so a prefix sorts first."""
    sizes = np.diff(ptr)
    padded = np.full((len(sizes), sizes.max(initial=1)), -1)
    rows = np.repeat(np.arange(len(sizes)), sizes)
    padded[rows, np.arange(len(values)) - ptr[rows]] = values
    return np.lexsort(padded.T[::-1])


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
    # Bit a: at the low end of axis a; bit m + a: at its high end.
    hull = [sum((lab[a] == lo) << a | (lab[a] == hi) << (m + a)
                for a, (lo, hi) in enumerate(box))
            for lab in complex_.vertex_labels]
    images = [w if h else lab
              for lab, h in zip(complex_.vertex_labels, hull)]
    labels = sorted(set(images))
    new_vid = {lab: i for i, lab in enumerate(labels)}
    image = np.array([new_vid[lab] for lab in images], dtype=np.int64)
    hull = np.array(hull, dtype=np.int64)
    layers: list[CellLayer] = []
    new_id = np.empty(0, dtype=np.int64)
    for k, layer in enumerate(complex_.layers):
        if k == 0:
            # One vertex per new label, the first of its preimages.
            _, keep, rank = np.unique(image[layer.first_vertices()],
                                      return_index=True, return_inverse=True)
        else:
            # Collapse the cells inside a hull facet; order the others by
            # their new corners, ties by their old order.
            alive = np.flatnonzero(np.bitwise_and.reduceat(
                hull[layer.vertices], layer.vertex_ptr[:-1]) == 0)
            rows = layer.take(alive)
            keep = alive[_tuple_order(image[rows.vertices], rows.vertex_ptr)]
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


def periodic_image(label: tuple[int, ...], box: Sequence[tuple[int, int]],
                   axes: Sequence[int]) -> tuple[int, ...]:
    """Wrap a multi-index into the fundamental domain on the given axes."""
    out = list(label)
    for a in axes:
        lo, hi = box[a]
        period = hi - lo
        out[a] = lo + (out[a] - lo) % period
    return tuple(out)


# ---------------------------------------------------------------------------
# Full pipeline


def build_lattice_complex(spec: LatticeSpec) -> tuple[DeltaComplex, dict]:
    """Generators to finished complex: validate, remove, build, quotient."""
    m, n = spec.dimension, spec.ambient
    if not 1 <= m <= 3:
        raise DimensionError("lattice dimension must be 1, 2 or 3")
    if n < m:
        raise DimensionError(
            f"ambient dimension {n} cannot hold {m} independent generators")
    A = check_generators(spec.generators, m, n)
    if len(spec.index_box) != m:
        raise ComplexBuildError(
            f"index box needs {m} ranges, got {len(spec.index_box)}")
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
            lo, hi = spec.index_box[a]
            if hi - lo < 1:
                raise ComplexBuildError(
                    f"periodic axis {a + 1} needs box extent of at least 1")

    box = frozenset(box_points(spec.index_box))
    removed = set()
    for idx in spec.removed_indices:
        idx = tuple(idx)
        if len(idx) != m:
            raise ComplexBuildError(f"removed index {idx} has wrong length")
        if not _in_box(idx, spec.index_box):
            raise DefectLocusError(f"removed index {idx} is outside the box")
        removed.add(idx)
    # Each site's image in the fundamental domain of the periodic axes.
    # Removing a site removes every site with the same image, its whole
    # translation orbit, and the complex is built on the images.
    image = {p: periodic_image(p, spec.index_box, periodic_axes) for p in box}

    def orbits(sites):
        hit = {image[p] for p in sites}
        return {p for p in box if image[p] in hit}

    removed = orbits(removed)
    points, defect_report = apply_defects(box - removed, spec.index_box,
                                          spec.defects)
    points = box - orbits(box - points)
    if not points:
        raise ComplexBuildError("every lattice site was removed")

    complex_ = build_complex({image[p] for p in points}, spec.scheme,
                             index_box=spec.index_box,
                             periodic_axes=periodic_axes)
    complex_.lattice_info.update({
        "generators": tuple(tuple(float(x) for x in row) for row in A),
        "ambient": n,
        "boundary": spec.boundary,
    })
    if periodic_axes:
        complex_.lattice_info["periodic_axes"] = tuple(
            a + 1 for a in periodic_axes)
    elif spec.boundary == BOUNDARY_CONSTANT:
        complex_ = apply_constant_boundary(complex_, spec.index_box)

    report = {
        "defects": defect_report,
        "removed_indices": sorted(removed),
        "sites": len(points),
        "cells": complex_.cell_counts(),
    }
    return complex_, report
