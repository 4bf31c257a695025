"""Order-parameter spaces and vertex-sampled fields.

A field assigns one order-parameter value to every vertex.  All homotopy
information the engine uses is extracted through small closed probes: a
pair of endpoints for an edge, the vertex loop of a 2-cell, the face shell
of a 3-cell.  Each probe yields an element of the relevant homotopy group
of the value space, computed by explicit geometry (angle winding, sign
lifts, summed solid angles), with ambiguity errors whenever two adjacent
samples are too far apart for the reconstruction to be trustworthy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .complexes import Cell, DeltaComplex, SHAPE_CUBE
from .errors import (
    AmbiguousSamplingError,
    CoverageError,
    DimensionError,
    UnsupportedConfigurationError,
)

ANGLE_TOL = 1e-6
UNIT_TOL = 1e-9

SPACE_FINITE = "finite_set"
SPACE_CIRCLE = "circle"
SPACE_RP2 = "projective_plane"
SPACE_SPHERE = "sphere_2"
SPACE_TORUS = "torus"
SPACE_BIAXIAL = "biaxial_nematic"
SPACE_CHOLESTERIC = "cholesteric"
SPACE_NAMES = (SPACE_FINITE, SPACE_CIRCLE, SPACE_RP2, SPACE_SPHERE,
               SPACE_TORUS, SPACE_BIAXIAL, SPACE_CHOLESTERIC)


@dataclass(frozen=True)
class CoefficientGroup:
    """Where an obstruction cochain takes its values."""

    name: str            # "0", "Z", "Z/2", "Z^2", "Q8", "set"
    abelian: bool = True
    rank: int = 0        # Z-components carried by one value
    order: int = 0       # 2 for Z/2; 0 means infinite or not applicable
    size: int = 0        # cardinality for "set"

    @property
    def trivial(self) -> bool:
        return self.name == "0"


GROUP_TRIVIAL = CoefficientGroup("0")
GROUP_Z = CoefficientGroup("Z", rank=1)
GROUP_Z2 = CoefficientGroup("Z/2", order=2)
GROUP_ZxZ = CoefficientGroup("Z^2", rank=2)
GROUP_Q8 = CoefficientGroup("Q8", abelian=False, order=8)


@dataclass(frozen=True)
class OrderSpace:
    """A supported order-parameter space plus its low homotopy groups."""

    name: str
    labels: tuple = ()

    def __post_init__(self):
        if self.name not in SPACE_NAMES:
            raise UnsupportedConfigurationError(
                f"unknown order-parameter space {self.name!r}")
        if self.name == SPACE_FINITE and not self.labels:
            raise UnsupportedConfigurationError(
                "finite_set space needs a nonempty label list")

    def homotopy_group(self, k: int) -> CoefficientGroup:
        """pi_k of the space, for k = 0, 1, 2."""
        if k == 0:
            if self.name == SPACE_FINITE:
                return CoefficientGroup("set", size=len(self.labels))
            return GROUP_TRIVIAL
        if k == 1:
            return {
                SPACE_CIRCLE: GROUP_Z,
                SPACE_RP2: GROUP_Z2,
                SPACE_TORUS: GROUP_ZxZ,
                SPACE_BIAXIAL: GROUP_Q8,
                SPACE_CHOLESTERIC: GROUP_Q8,
            }.get(self.name, GROUP_TRIVIAL)
        if k == 2:
            return {
                SPACE_RP2: GROUP_Z,
                SPACE_SPHERE: GROUP_Z,
            }.get(self.name, GROUP_TRIVIAL)
        raise DimensionError(f"homotopy degree {k} is out of scope")


def make_space(name: str, labels: Sequence = ()) -> OrderSpace:
    return OrderSpace(name, tuple(labels))


# ---------------------------------------------------------------------------
# Value validation per space


def _as_floats(value, where: str) -> np.ndarray:
    """``value`` as a float array; anything but numbers is refused."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{where}: expected numbers") from None


def _as_unit(vec, length: int, where: str) -> np.ndarray:
    arr = _as_floats(vec, where)
    if arr.shape != (length,):
        raise ValueError(f"{where}: expected a {length}-vector, got {arr.shape}")
    norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) > UNIT_TOL:
        raise ValueError(f"{where}: vector norm {norm!r} is not 1")
    return arr


def _validate_value(space: OrderSpace, value, where: str):
    if space.name == SPACE_FINITE:
        if value not in space.labels:
            raise ValueError(f"{where}: label {value!r} not in the space")
        return value
    if space.name == SPACE_CIRCLE:
        if isinstance(value, (int, float)):
            angle = float(_as_floats(value, where))
            return np.array([math.cos(angle), math.sin(angle)])
        return _as_unit(value, 2, where)
    if space.name in (SPACE_RP2, SPACE_SPHERE):
        return _as_unit(value, 3, where)
    if space.name == SPACE_TORUS:
        arr = _as_floats(value, where)
        if arr.shape == (2,):
            return np.array([math.cos(arr[0]), math.sin(arr[0]),
                             math.cos(arr[1]), math.sin(arr[1])])
        if arr.shape != (4,):
            raise ValueError(
                f"{where}: torus values are two angles or a 4-vector")
        _as_unit(arr[:2], 2, where)
        _as_unit(arr[2:], 2, where)
        return arr
    # Frame-valued spaces: a proper rotation matrix.
    arr = _as_floats(value, where)
    if arr.shape != (3, 3):
        raise ValueError(f"{where}: expected a 3x3 frame")
    if not np.allclose(arr @ arr.T, np.eye(3), atol=1e-8):
        raise ValueError(f"{where}: frame is not orthonormal")
    return arr


@dataclass
class OrderField:
    """Vertex-sampled field with values in one order-parameter space."""

    complex_: DeltaComplex
    space: OrderSpace
    values: list = field(repr=False, default_factory=list)

    @classmethod
    def from_samples(cls, complex_: DeltaComplex, space: OrderSpace,
                     samples: Mapping) -> "OrderField":
        """Build from {vertex label: value}; every vertex must be covered."""
        missing = [lab for lab in complex_.vertex_labels if lab not in samples]
        if missing:
            shown = ", ".join(repr(lab) for lab in missing[:5])
            more = f" (and {len(missing) - 5} more)" if len(missing) > 5 else ""
            raise CoverageError(
                f"field leaves {len(missing)} vertices unsampled: {shown}{more}")
        values = [
            _validate_value(space, samples[lab], f"vertex {lab!r}")
            for lab in complex_.vertex_labels]
        return cls(complex_, space, values)

    @classmethod
    def from_function(cls, complex_: DeltaComplex, space: OrderSpace,
                      fn: Callable) -> "OrderField":
        return cls.from_samples(
            complex_, space,
            {lab: fn(lab) for lab in complex_.vertex_labels})

    def value(self, vertex_id: int):
        return self.values[vertex_id]

    def angle(self, vertex_id: int) -> float:
        v = self.values[vertex_id]
        return math.atan2(v[1], v[0])

    def torus_angles(self, vertex_id: int) -> tuple[float, float]:
        v = self.values[vertex_id]
        return (math.atan2(v[1], v[0]), math.atan2(v[3], v[2]))


# ---------------------------------------------------------------------------
# Probe computations


def _angle_steps(angles: Sequence[float]) -> float:
    total = 0.0
    for a, b in zip(angles, angles[1:]):
        step = math.remainder(b - a, math.tau)
        if abs(step) >= math.pi - ANGLE_TOL:
            raise AmbiguousSamplingError(
                "adjacent circle samples are antipodal within tolerance; "
                "the winding is not determined")
        total += step
    return total


def _whole_turns(angles: Sequence[float]) -> int:
    """Net whole turns along a closed angle sequence; a sum that is not
    within 1e-9 of an integer is refused."""
    total = _angle_steps(angles) / math.tau
    nearest = round(total)
    if abs(total - nearest) > 1e-9:
        raise AmbiguousSamplingError(
            f"winding sum {total!r} is not an integer")
    return int(nearest)


def _closed(loop: Sequence[int]) -> list[int]:
    """``loop`` as a vertex-id list ending where it starts.

    The closing edge back to the start is implicit when absent; an empty
    loop has no start and is refused.
    """
    ids = list(loop)
    if not ids:
        raise DimensionError("empty loop")
    if ids[0] != ids[-1]:
        ids.append(ids[0])
    return ids


def winding_number(field: OrderField, loop: Sequence[int]) -> int:
    """Net turns of a circle-valued field around a closed vertex loop."""
    return _whole_turns([field.angle(v) for v in _closed(loop)])


def torus_winding(field: OrderField, loop: Sequence[int]) -> tuple[int, int]:
    """Net turns of each circle factor of a torus-valued field on a loop."""
    ids = _closed(loop)
    return tuple(
        _whole_turns([math.atan2(field.values[v][offset + 1],
                                 field.values[v][offset]) for v in ids])
        for offset in (0, 2))


def _lift_sign(prev: np.ndarray, cur: np.ndarray) -> int:
    dot = float(prev @ cur)
    if abs(dot) <= ANGLE_TOL:
        raise AmbiguousSamplingError(
            "adjacent line-field samples are nearly perpendicular; "
            "the sign lift is not determined")
    return 1 if dot > 0 else -1


def rp_parity(field: OrderField, loop: Sequence[int]) -> int:
    """Orientation parity of a projective-plane-valued field on a loop.

    0 when the line field lifts to a closed vector field along the loop,
    1 when the lift comes back flipped.
    """
    ids = _closed(loop)
    first = np.asarray(field.values[ids[0]], dtype=float)
    prev = first
    for vid in ids[1:-1]:
        cur = np.asarray(field.values[vid], dtype=float)
        prev = cur * _lift_sign(prev, cur)
    return 0 if _lift_sign(prev, first) == 1 else 1


def _solid_angle(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """Signed solid angle of the spherical triangle (a, b, c)."""
    det = float(np.linalg.det(np.stack([a, b, c])))
    s = 1.0 + float(a @ b) + float(b @ c) + float(c @ a)
    if abs(det) < 1e-12 and abs(s) < 1e-9:
        raise AmbiguousSamplingError(
            "a spherical triangle of samples is degenerate (near a half "
            "great circle); the solid angle is not determined")
    return 2.0 * math.atan2(det, s)


def _shell_triangles(complex_: DeltaComplex, cell: Cell
                     ) -> list[tuple[int, tuple[int, int, int]]]:
    """Oriented triangles covering a 3-cell's boundary shell."""
    tris: list[tuple[int, tuple[int, int, int]]] = []
    for fid, coeff in cell.faces:
        f = complex_.cells[2][fid]
        v = f.vertices
        if len(v) == 3:
            tris.append((coeff, (v[0], v[1], v[2])))
        elif len(v) == 4:
            tris.append((coeff, (v[0], v[1], v[2])))
            tris.append((coeff, (v[0], v[2], v[3])))
        else:
            raise DimensionError(f"unexpected 2-cell with {len(v)} vertices")
    return tris


def sphere_degree(field: OrderField,
                  triangles: Sequence[tuple[int, tuple[int, int, int]]]) -> int:
    """Degree of a sphere-valued field over a closed oriented triangle set."""
    total = 0.0
    for coeff, (a, b, c) in triangles:
        total += coeff * _solid_angle(field.values[a], field.values[b],
                                      field.values[c])
    degree = total / (4.0 * math.pi)
    nearest = round(degree)
    if abs(degree - nearest) > 0.01:
        raise AmbiguousSamplingError(
            f"summed solid angle {degree!r} turns is not close to an integer")
    return int(nearest)


def _lift_shell(field: OrderField, triangles) -> dict[int, int]:
    """Global sign lift of a line field over a 3-cell shell."""
    adjacency: dict[int, set[int]] = {}
    for _, tri in triangles:
        for i in range(3):
            a, b = tri[i], tri[(i + 1) % 3]
            if a != b:
                adjacency.setdefault(a, set()).add(b)
                adjacency.setdefault(b, set()).add(a)
    signs: dict[int, int] = {}
    for start in sorted(adjacency):
        if start in signs:
            continue
        signs[start] = 1
        queue = [start]
        while queue:
            cur = queue.pop()
            for nxt in adjacency[cur]:
                s = signs[cur] * _lift_sign(
                    np.asarray(field.values[cur], dtype=float),
                    np.asarray(field.values[nxt], dtype=float))
                if nxt not in signs:
                    signs[nxt] = s
                    queue.append(nxt)
                elif signs[nxt] != s:
                    raise AmbiguousSamplingError(
                        "line-field samples on the cell shell admit no "
                        "consistent sign lift; refine the sampling")
    return signs


def boundary_class(field: OrderField, k: int, cell_id: int):
    """Homotopy class of the field on the boundary of one k-cell.

    The value lives in pi_{k-1} of the order-parameter space: a 0/1
    transition flag for pi_0, integers or parities for pi_1, an integer
    degree for pi_2.  Spaces with nonabelian pi_1 are refused at k = 2.
    """
    cx = field.complex_
    if not 1 <= k <= cx.dim:
        raise DimensionError(f"no {k}-cells to probe")
    cell = cx.cells[k][cell_id]
    space = field.space
    group = space.homotopy_group(k - 1)

    if k == 1:
        if space.name == SPACE_FINITE:
            a, b = cell.vertices[0], cell.vertices[-1]
            return 0 if field.values[a] == field.values[b] else 1
        return 0

    if k == 2:
        if not group.abelian:
            raise UnsupportedConfigurationError(
                f"pi_1 of {space.name} is nonabelian; single-cell classes "
                "do not assemble into an additive cochain")
        loop = list(cell.vertices)
        if space.name == SPACE_CIRCLE:
            return winding_number(field, loop)
        if space.name == SPACE_RP2:
            return rp_parity(field, loop)
        if space.name == SPACE_TORUS:
            return torus_winding(field, loop)
        return 0

    if k == 3:
        tris = _shell_triangles(cx, cell)
        if space.name == SPACE_SPHERE:
            return sphere_degree(field, tris)
        if space.name == SPACE_RP2:
            signs = _lift_shell(field, tris)
            values = [np.asarray(v, dtype=float) for v in field.values]
            for vid, s in signs.items():
                values[vid] = values[vid] * s
            lifted = OrderField(cx, OrderSpace(SPACE_SPHERE), values)
            return sphere_degree(lifted, tris)
        return 0

    raise DimensionError(f"probe dimension {k} is out of scope")


def pi0_classes(field: OrderField, components: Sequence[int]) -> list[dict]:
    """Distinct values per connected component, for discrete spaces."""
    buckets: dict[int, set] = {}
    for vid, comp in enumerate(components):
        buckets.setdefault(comp, set()).add(field.values[vid])
    return [{"component": comp, "labels": sorted(map(str, labs))}
            for comp, labs in sorted(buckets.items())]
