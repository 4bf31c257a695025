"""Order-parameter spaces and vertex-sampled fields.

A field assigns one order-parameter value to every vertex.  All homotopy
information the engine uses is extracted through small closed probes: a
pair of endpoints for an edge, the vertex loop of a 2-cell, the face shell
of a 3-cell.  Each probe yields an element of the relevant homotopy group
of the value space, computed by explicit geometry (angle winding, sign
lifts, summed solid angles), with ambiguity errors whenever two adjacent
samples are too far apart for the reconstruction to be trustworthy.

:func:`boundary_classes` probes all requested cells of one degree in one
batched pass: stacked determinants and dot products for every shell
triangle, and a sign-lift walk of each director shell whose joined
samples point apart.  Each value and each refusal is the one the cell
gives when probed alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .complexes import DeltaComplex
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


_PLAIN_NUMBERS = {float, int}


def _holds_bool(value) -> bool:
    """Whether a sample (a number, nested lists of numbers or an array)
    holds a Python or numpy boolean anywhere."""
    if type(value) in _PLAIN_NUMBERS:
        return False
    if isinstance(value, (list, tuple)):
        # a list of plain floats and ints, the usual sample, is settled
        # without a call per entry
        return (not _PLAIN_NUMBERS.issuperset(map(type, value))
                and any(map(_holds_bool, value)))
    if isinstance(value, np.ndarray):
        return value.dtype.kind == "b" or (
            value.dtype == object and _holds_bool(value.tolist()))
    return isinstance(value, (bool, np.bool_))


def _as_floats(value, where: str) -> np.ndarray:
    """``value`` as a float array; anything but numbers is refused,
    booleans too."""
    if _holds_bool(value):
        raise ValueError(f"{where}: expected numbers")
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
#
# Each probe runs as one pass over all the loops or shells it is given.  The
# vertex angles or vectors are gathered once, the determinants and dot
# products of every shell triangle come from stacked numpy calls, and only
# the steps whose rounding numpy would change (math.remainder, math.atan2
# and the running sums) stay scalar, in the order of the cell.  So every
# value is bit-identical to probing one cell alone, and a refusal is raised
# for the first failing cell, within it in the order that cell meets it.


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


def _windings(field: OrderField, loops: Sequence[Sequence[int]],
              offsets: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Whole turns of each circle factor around each loop; the factor at
    ``offset`` is the value pair (offset, offset + 1)."""
    ids = {v for loop in loops for v in loop}
    angles = [{v: math.atan2(field.values[v][o + 1], field.values[v][o])
               for v in ids} for o in offsets]
    return [tuple(_whole_turns([a[v] for v in loop]) for a in angles)
            for loop in map(_closed, loops)]


def _vectors(field: OrderField, ids: np.ndarray) -> np.ndarray:
    """The values at the vertex ids ``ids`` (any shape) as floats, with
    one more axis; each distinct vertex is converted once."""
    used, where = np.unique(ids, return_inverse=True)
    table = np.array([field.values[v] for v in used.tolist()], dtype=float)
    return table[where.reshape(np.shape(ids))]


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (n, 3) arrays.

    A stack of (1, 3) @ (3, 1) products runs the dot kernel of a 1-D
    ``a[i] @ b[i]``, so each entry is bit-identical to it; einsum and
    ``(a * b).sum(axis=1)`` round differently.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _lift_signs(dots: np.ndarray) -> np.ndarray:
    """+1 or -1 for each pair of adjacent directors, by the sign of their
    dot product; 0 where they are too nearly perpendicular to tell."""
    return np.where(dots > ANGLE_TOL, 1, np.where(dots < -ANGLE_TOL, -1, 0))


def _perpendicular() -> AmbiguousSamplingError:
    return AmbiguousSamplingError(
        "adjacent line-field samples are nearly perpendicular; "
        "the sign lift is not determined")


def _parities(field: OrderField, loops: Sequence[Sequence[int]]) -> list[int]:
    """Orientation parity of a line field around each nonempty loop: 1 when
    an odd number of steps join directors that point apart."""
    if not loops:
        return []
    size = np.fromiter(map(len, loops), dtype=np.int64, count=len(loops))
    heads = np.fromiter(itertools.chain.from_iterable(loops), dtype=np.int64,
                        count=int(size.sum()))
    first = np.cumsum(size) - size
    last = first + size - 1
    # Each vertex steps to the next and the last one back to the first,
    # except on a loop that already ends where it starts; a one-vertex
    # loop steps from its vertex to itself.
    tails = np.roll(heads, -1)
    tails[last] = heads[first]
    closed = (heads[last] == heads[first]) & (size > 1)
    step = np.ones(len(heads), dtype=bool)
    step[last[closed]] = False
    x = _vectors(field, np.stack([heads[step], tails[step]]))
    signs = _lift_signs(_dots(x[0], x[1]))
    starts = first - np.cumsum(closed) + closed
    if (signs == 0).any():
        raise _perpendicular()
    return np.logical_xor.reduceat(signs < 0, starts).astype(int).tolist()


def _shells(complex_: DeltaComplex, cell_ids: np.ndarray):
    """The oriented triangles covering the boundary shells of 3-cells.

    A triangular face gives itself, a square (v0, v1, v2, v3) gives
    (v0, v1, v2) and (v0, v2, v3), in the order of each cell's faces.
    Returns the coefficients, vertex triples and owning cell positions
    of all triangles of the cells ``cell_ids``, the number of cells
    covered, and the DimensionError of the first cell with any other
    face, for the caller to raise once the cells before it are probed.
    """
    squares = complex_.layers[2]
    owner, faces, coeff = complex_.layers[3].face_entries(cell_ids)
    size = np.diff(squares.vertex_ptr)[faces]
    covered, refusal = len(cell_ids), None
    odd = np.flatnonzero((size != 3) & (size != 4))
    if len(odd):
        covered = int(owner[odd[0]])
        refusal = DimensionError(
            f"unexpected 2-cell with {size[odd[0]]} vertices")
        within = owner < covered
        owner, faces, coeff, size = (
            owner[within], faces[within], coeff[within], size[within])
    # One triangle per triangular face and two per square; the second
    # triangle of a square takes its corners 0, 2 and 3.
    entry = np.repeat(np.arange(len(faces)), size - 2)
    second = np.arange(len(entry)) > np.searchsorted(entry, entry)
    corners = np.where(second[:, None], [0, 2, 3], [0, 1, 2])
    tri = squares.vertices[squares.vertex_ptr[faces][entry][:, None]
                           + corners]
    return coeff[entry].tolist(), tri, owner[entry], covered, refusal


def _walk_shell(triangles: list, edges: list) -> dict[int, int]:
    """Signs for the directors of one shell, so that every pair joined by a
    triangle edge points the same way.

    ``edges[t]`` holds the lift signs of the edges (a, b), (b, c), (c, a)
    of the vertex triple ``triangles[t]``.  The walk starts at the least
    vertex of each connected part, which keeps its sign, follows the shell
    edges in the order of the per-cell probe and raises the first refusal
    it meets.
    """
    sign_of: dict[tuple[int, int], int] = {}
    adjacency: dict[int, set[int]] = {}
    for tri, signs in zip(triangles, edges):
        for i in range(3):
            a, b = tri[i], tri[(i + 1) % 3]
            if a != b:
                sign_of[a, b] = sign_of[b, a] = signs[i]
                adjacency.setdefault(a, set()).add(b)
                adjacency.setdefault(b, set()).add(a)
    lifted: dict[int, int] = {}
    for start in sorted(adjacency):
        if start in lifted:
            continue
        lifted[start] = 1
        queue = [start]
        while queue:
            cur = queue.pop()
            for nxt in adjacency[cur]:
                if not sign_of[cur, nxt]:
                    raise _perpendicular()
                s = lifted[cur] * sign_of[cur, nxt]
                if nxt not in lifted:
                    lifted[nxt] = s
                    queue.append(nxt)
                elif lifted[nxt] != s:
                    raise AmbiguousSamplingError(
                        "line-field samples on the cell shell admit no "
                        "consistent sign lift; refine the sampling")
    return lifted


def _degrees(field: OrderField, coeff: Sequence[int], tri: np.ndarray,
             owner: np.ndarray, count: int, lift: bool = False) -> list[int]:
    """Degree of a sphere-valued field over each of ``count`` closed
    oriented triangle sets; triangle t has vertices ``tri[t]`` and
    coefficient ``coeff[t]`` in set ``owner[t]``, each set contiguous.
    With ``lift`` the values are directors, signed per set first."""
    if not len(tri):
        return [0] * count
    x = _vectors(field, tri)
    a, b, c = x[:, 0], x[:, 1], x[:, 2]
    det = np.linalg.det(x)
    dots = np.stack([_dots(a, b), _dots(b, c), _dots(c, a)], axis=1)
    stop, refusal = count, None
    if lift:
        edges = _lift_signs(dots)
        sign = np.ones(tri.shape)
        sizes = np.bincount(owner, minlength=count)
        first = np.cumsum(sizes) - sizes
        # A shell whose joined directors all point the same way already is
        # its own lift; the others are walked, up to the first refused.
        for i in np.unique(owner[(edges != 1).any(axis=1)]).tolist():
            rows = slice(first[i], first[i] + sizes[i])
            corners = tri[rows].tolist()
            try:
                lifted = _walk_shell(corners, edges[rows].tolist())
            except AmbiguousSamplingError as err:
                stop, refusal = i, err
                break
            sign[rows] = [[lifted.get(v, 1) for v in t] for t in corners]
        # Negating a director negates the determinant and its dot products
        # exactly: these are the signed directors' values.
        det = det * sign.prod(axis=1)
        dots = dots * (sign * sign[:, [1, 2, 0]])
    s = 1.0 + dots[:, 0] + dots[:, 1] + dots[:, 2]
    degenerate = np.zeros(count, dtype=bool)
    degenerate[owner[(np.abs(det) < 1e-12) & (np.abs(s) < 1e-9)]] = True
    total = [0.0] * count
    for o, k, d, t in zip(owner.tolist(), coeff, det.tolist(), s.tolist()):
        total[o] += k * (2.0 * math.atan2(d, t))
    out = []
    for i in range(stop):
        if degenerate[i]:
            raise AmbiguousSamplingError(
                "a spherical triangle of samples is degenerate (near a "
                "half great circle); the solid angle is not determined")
        degree = total[i] / (4.0 * math.pi)
        nearest = round(degree)
        if abs(degree - nearest) > 0.01:
            raise AmbiguousSamplingError(
                f"summed solid angle {degree!r} turns is not close to an "
                "integer")
        out.append(nearest)
    if refusal is not None:
        raise refusal
    return out


def winding_number(field: OrderField, loop: Sequence[int]) -> int:
    """Net turns of a circle-valued field around a closed vertex loop."""
    return _windings(field, [_closed(loop)], (0,))[0][0]


def torus_winding(field: OrderField, loop: Sequence[int]) -> tuple[int, int]:
    """Net turns of each circle factor of a torus-valued field on a loop."""
    return _windings(field, [_closed(loop)], (0, 2))[0]


def rp_parity(field: OrderField, loop: Sequence[int]) -> int:
    """Orientation parity of a projective-plane-valued field on a loop.

    0 when the line field lifts to a closed vector field along the loop,
    1 when the lift comes back flipped.
    """
    return _parities(field, [_closed(loop)])[0]


def sphere_degree(field: OrderField,
                  triangles: Sequence[tuple[int, tuple[int, int, int]]]) -> int:
    """Degree of a sphere-valued field over a closed oriented triangle set."""
    tris = list(triangles)
    coeff = [c for c, _ in tris]
    tri = np.array([t for _, t in tris], dtype=np.int64).reshape(-1, 3)
    return _degrees(field, coeff, tri, np.zeros(len(tris), np.int64), 1)[0]


def boundary_classes(field: OrderField, k: int,
                     cell_ids: Sequence[int] | None = None) -> list:
    """Homotopy classes of the field on the boundaries of k-cells.

    One batched pass over the cells ``cell_ids`` (every k-cell by
    default), with one value per cell in that order; an unknown id raises
    IndexError before any probe runs.  Each value lives in pi_{k-1} of the
    order-parameter space: a 0/1 transition flag for pi_0, integers or
    parities for pi_1, an integer degree for pi_2.  Spaces with nonabelian
    pi_1 are refused at k = 2.  A refusal is the one the first failing
    cell would raise on its own.
    """
    cx = field.complex_
    if not 1 <= k <= cx.dim:
        raise DimensionError(f"no {k}-cells to probe")
    layer = cx.layers[k]
    ids = np.arange(len(layer)) if cell_ids is None else np.array(
        [range(len(layer))[c] for c in cell_ids], dtype=np.int64)
    if not len(ids):
        return []
    space = field.space
    group = space.homotopy_group(k - 1)

    if k == 1:
        if space.name == SPACE_FINITE:
            values = field.values
            return [0 if values[a] == values[b] else 1
                    for a, b in zip(layer.first_vertices()[ids].tolist(),
                                    layer.last_vertices()[ids].tolist())]
        return [0] * len(ids)

    if k == 2:
        if not group.abelian:
            raise UnsupportedConfigurationError(
                f"pi_1 of {space.name} is nonabelian; single-cell classes "
                "do not assemble into an additive cochain")
        if space.name not in (SPACE_CIRCLE, SPACE_RP2, SPACE_TORUS):
            return [0] * len(ids)
        rows = layer.vertex_rows()
        loops = [rows[i] for i in ids.tolist()]
        if space.name == SPACE_CIRCLE:
            return [turns for turns, in _windings(field, loops, (0,))]
        if space.name == SPACE_TORUS:
            return _windings(field, loops, (0, 2))
        return _parities(field, loops)

    coeff, tri, owner, covered, refusal = _shells(cx, ids)
    if space.name in (SPACE_SPHERE, SPACE_RP2):
        out = _degrees(field, coeff, tri, owner, covered,
                       lift=space.name == SPACE_RP2)
    else:
        out = [0] * covered
    if refusal is not None:
        raise refusal
    return out


def boundary_class(field: OrderField, k: int, cell_id: int):
    """Homotopy class of the field on the boundary of one k-cell; see
    :func:`boundary_classes`."""
    return boundary_classes(field, k, [cell_id])[0]


def pi0_classes(field: OrderField, components: Sequence[int]) -> list[dict]:
    """Distinct values per connected component, for discrete spaces."""
    buckets: dict[int, set] = {}
    for vid, comp in enumerate(components):
        buckets.setdefault(comp, set()).add(field.values[vid])
    return [{"component": comp, "labels": sorted(map(str, labs))}
            for comp, labs in sorted(buckets.items())]
