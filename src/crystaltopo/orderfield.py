"""Order-parameter spaces and vertex-sampled fields.

A field assigns one order-parameter value to every vertex; one whole-array
check accepts the samples or words the refusal of the first.  All homotopy
information the engine uses is extracted through small closed probes: a
pair of endpoints for an edge, the vertex loop of a 2-cell, the face shell
of a 3-cell.  Each probe yields an element of the relevant homotopy group
of the value space, computed by explicit geometry (angle winding, sign
lifts, summed solid angles), with ambiguity errors whenever two adjacent
samples are too far apart for the reconstruction to be trustworthy.

:func:`boundary_classes` probes all requested cells of one degree in one
batched pass: stacked determinants and dot products for every shell
triangle, and one sign lift of all director shells whose joined samples
point apart, along a single breadth-first spanning forest.  Each value
and each refusal is the one the cell gives when probed alone.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .complexes import DeltaComplex, spanning_forest
from .errors import (
    AmbiguousSamplingError,
    CoverageError,
    DimensionError,
    UnsupportedConfigurationError,
)

ANGLE_TOL = 1e-6
UNIT_TOL = 1e-9
# A winding sum in turns is whole up to the rounding of its summed steps.
TURNS_TOL = 1e-9
# A triangle's solid angle is undetermined where both atan2 arguments vanish.
DEGENERATE_DET_TOL = 1e-12
DEGENERATE_DENOM_TOL = 1e-9
# A summed solid angle in spheres is an integral degree up to sampling error.
DEGREE_TOL = 0.01

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
# Entries numpy would read as numbers although they are none.
_NOT_NUMBERS = (bool, np.bool_, str, bytes, bytearray)


def _holds_non_number(value) -> bool:
    """Whether a sample (a number, nested lists of numbers or an array)
    holds a Python or numpy boolean or text anywhere."""
    if type(value) in _PLAIN_NUMBERS:
        return False
    if isinstance(value, (list, tuple)):
        return any(map(_holds_non_number, value))
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "bSU" or (
            value.dtype == object and _holds_non_number(value.tolist()))
    return isinstance(value, _NOT_NUMBERS)


# Per vector or frame space: stored shape, unit-vector length (0 for a
# frame), angle-form shape and the refusal of any other shape.
_FORMS = {SPACE_CIRCLE: ((2,), 2, (), "expected a 2-vector, got {}"),
          SPACE_TORUS: ((4,), 2, (2,),
                        "torus values are two angles or a 4-vector"),
          SPACE_RP2: ((3,), 3, None, "expected a 3-vector, got {}"),
          SPACE_SPHERE: ((3,), 3, None, "expected a 3-vector, got {}"),
          SPACE_BIAXIAL: ((3, 3), 0, None, "expected a 3x3 frame"),
          SPACE_CHOLESTERIC: ((3, 3), 0, None, "expected a 3x3 frame")}


def _plain_array(values: list) -> np.ndarray | None:
    """The samples as one float array when they are plain ints and floats,
    or nested lists or tuples of one shape holding only those (the usual
    JSON samples), found by type scans over all of them; else None."""
    shape = [len(values)]
    leaves = values
    while not _PLAIN_NUMBERS.issuperset(kinds := set(map(type, leaves))):
        lengths = set(map(len, leaves)) if kinds <= {list, tuple} else ()
        if len(lengths) != 1:
            return None
        shape.append(lengths.pop())
        leaves = list(itertools.chain.from_iterable(leaves))
    try:
        return np.array(leaves, dtype=float).reshape(shape)
    except OverflowError:  # an int beyond the float range
        return None


def _on_circles(angles: np.ndarray) -> np.ndarray:
    """Rows of angles as the cosine and sine of each, by ``math`` as for
    one angle; NaN for an angle that is not finite."""
    flat = np.where(np.isfinite(angles), angles, math.nan).ravel().tolist()
    return np.array([list(map(math.cos, flat)), list(map(math.sin, flat))]
                    ).T.reshape(len(angles), -1)


def _read_sample(space: OrderSpace, value) -> tuple[np.ndarray | None, str]:
    """One sample as numpy reads it, in stored form, or why it is refused:
    not numbers, not finite, or not of the stored or angle shape.  A
    circle angle is a Python number, a torus angle form a pair."""
    shape, _, angle, wrong = _FORMS[space.name]
    try:
        arr = None if _holds_non_number(value) else np.asarray(value, float)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None:
        return None, "expected numbers"
    if not np.isfinite(arr).all():
        return None, "expected finite numbers"
    if (isinstance(value, (int, float)) if space.name == SPACE_CIRCLE
            else arr.shape == angle):
        return _on_circles(arr.reshape(1, -1))[0], ""
    return (arr, "") if arr.shape == shape else (None, wrong.format(arr.shape))


def _sample_array(space: OrderSpace, values: list):
    """The stored values of the samples, the position of the first one the
    space refuses (None if none) and why.  Plain JSON samples of one shape
    are read as one array, others one by one up to the first refused; one
    set of row checks then runs on the stored rows."""
    if space.name == SPACE_FINITE:
        # Up to the first refused value: a later one may not even compare.
        good = sum(1 for _ in itertools.takewhile(space.labels.__contains__,
                                                  values))
        if good == len(values):
            return values, None, ""
        return values, good, f"label {values[good]!r} not in the space"
    if not values:
        return np.empty(0), None, ""
    shape, unit, angle, _ = _FORMS[space.name]
    out, early = _plain_array(values), ""
    if out is not None and out.shape[1:] == angle:
        out = _on_circles(out)
    elif out is None or out.shape[1:] != shape:
        rows = []
        for value in values:
            row, early = _read_sample(space, value)
            # a NaN row, flagged below, stands for a refused sample
            rows.append(np.full(shape, math.nan) if early else row)
            if early:
                break
        out = np.array(rows)
    finite = np.isfinite(out).reshape(len(out), -1).all(axis=1)
    # Infinite or huge entries, on rows refused anyway, stay silent.
    with np.errstate(over="ignore", invalid="ignore"):
        if unit:
            sub = out.reshape(-1, unit)
            norms = np.sqrt(_dots(sub, sub)).reshape(len(out), -1)
            off = np.abs(norms - 1.0) > UNIT_TOL
            bad = ~finite | off.any(axis=1)
        else:
            bad = ~finite | ~np.isclose(out @ out.transpose(0, 2, 1),
                                        np.eye(3), atol=1e-8).all(axis=(1, 2))
    if not bad.any():
        return out, None, ""
    first = int(np.argmax(bad))
    if not finite[first]:
        # Rows read one by one are finite but for the refused last one.
        return out, first, early or "expected finite numbers"
    if unit:
        norm = float(norms[first, np.argmax(off[first])])
        return out, first, f"vector norm {norm!r} is not 1"
    return out, first, "frame is not orthonormal"


@dataclass
class OrderField:
    """Vertex-sampled field with values in one order-parameter space; vector
    and frame values are one float array, finite-set labels a list."""

    complex_: DeltaComplex
    space: OrderSpace
    values: list | np.ndarray = field(repr=False, default_factory=list)

    @classmethod
    def from_samples(cls, complex_: DeltaComplex, space: OrderSpace,
                     samples: Mapping) -> "OrderField":
        """Build from {vertex label: value}; every vertex must be covered.

        The values are checked by :func:`_sample_array`; samples on other
        labels are ignored.  A refusal names the first vertex, in vertex
        order, whose value the space refuses, and the reason.
        """
        labels = complex_.vertex_labels
        if not all(map(samples.__contains__, labels)):
            missing = [lab for lab in labels if lab not in samples]
            shown = ", ".join(repr(lab) for lab in missing[:5])
            more = f" (and {len(missing) - 5} more)" if len(missing) > 5 else ""
            raise CoverageError(
                f"field leaves {len(missing)} vertices unsampled: {shown}{more}")
        values = list(map(samples.__getitem__, labels))
        stored, first, reason = _sample_array(space, values)
        if first is not None:
            raise ValueError(f"vertex {labels[first]!r}: {reason}")
        return cls(complex_, space, stored)

    @classmethod
    def from_function(cls, complex_: DeltaComplex, space: OrderSpace,
                      fn: Callable) -> "OrderField":
        return cls.from_samples(
            complex_, space,
            {lab: fn(lab) for lab in complex_.vertex_labels})


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
# A director shell meets a nearly perpendicular pair before an odd cycle.


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
    within ``TURNS_TOL`` of an integer is refused."""
    total = _angle_steps(angles) / math.tau
    nearest = round(total)
    if abs(total - nearest) > TURNS_TOL:
        raise AmbiguousSamplingError(
            f"winding sum {total!r} is not an integer")
    return int(nearest)


def _checked_ids(ids: Iterable, n: int, what: str) -> list[int]:
    """``ids`` as a list of ids in 0..n-1: a boolean is refused with
    TypeError, as ``Chain`` does, and an id outside with IndexError."""
    ids = list(ids)
    for i in ids:
        if isinstance(i, (bool, np.bool_)):
            raise TypeError(f"{what} id {i!r} is not an integer")
    ids = list(map(operator.index, ids))
    if ids and not 0 <= min(ids) <= max(ids) < n:
        raise IndexError(f"a {what} id is outside 0..{n - 1}")
    return ids


def _loop(field: OrderField, loop: Iterable) -> list[int]:
    """A loop's vertex ids by ``_checked_ids``; an empty loop is refused."""
    ids = _checked_ids(loop, field.complex_.n_vertices, "vertex")
    if not ids:
        raise DimensionError("empty loop")
    return ids


def _windings(field: OrderField, loops: Sequence[list[int]],
              offsets: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Whole turns of each circle factor (value pair offset, offset + 1)
    around each nonempty vertex-id list, closed by a step back to its
    start: a zero step where it already ends there."""
    ids = list({v for loop in loops for v in loop})
    cols = np.asarray(field.values, dtype=float)[ids].T.tolist()
    angles = [dict(zip(ids, map(math.atan2, cols[o + 1], cols[o])))
              for o in offsets]
    return [tuple(_whole_turns([a[v] for v in loop + loop[:1]])
                  for a in angles) for loop in loops]


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
    """Orientation parity of a line field around each of one or more
    nonempty loops: 1 when an odd number of steps join directors that
    point apart.  A nearly perpendicular step is refused, as on a shell."""
    size = np.fromiter(map(len, loops), dtype=np.int64, count=len(loops))
    heads = np.fromiter(itertools.chain.from_iterable(loops), dtype=np.int64,
                        count=int(size.sum()))
    first = np.cumsum(size) - size
    # Each vertex steps to the next and the last one back to the first: a
    # zero step, which joins a director to itself, where the loop already
    # ends at its start.
    tails = np.roll(heads, -1)
    tails[first + size - 1] = heads[first]
    x = np.asarray(field.values, dtype=float)
    signs = _lift_signs(_dots(x[heads], x[tails]))
    if (signs == 0).any():
        raise _perpendicular()
    return np.logical_xor.reduceat(signs < 0, first).astype(int).tolist()


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


def _degrees(field: OrderField, coeff: Sequence[int], tri: np.ndarray,
             owner: np.ndarray, count: int, lift: bool = False) -> list[int]:
    """Degree of a sphere-valued field over each of ``count`` closed
    oriented triangle sets; triangle t has vertices ``tri[t]`` and
    coefficient ``coeff[t]`` in set ``owner[t]``, each set contiguous.

    With ``lift`` the values are directors, signed per set first so that
    every pair joined by a triangle edge points the same way.  The sets
    with a joined pair that does not already are lifted all at once, along
    one spanning forest of their (set, vertex) pairs; each part of a set
    keeps the stored sign at its least vertex.  The first set that
    cannot be lifted stops the pass: a nearly perpendicular joined pair
    is refused first, then an odd cycle of pairs pointing apart.
    """
    if not len(tri):
        return [0] * count
    x = np.asarray(field.values, dtype=float)[tri]
    a, b, c = x[:, 0], x[:, 1], x[:, 2]
    det = np.linalg.det(x)
    dots = np.stack([_dots(a, b), _dots(b, c), _dots(c, a)], axis=1)
    stop, refusal = count, None
    if lift:
        edges = _lift_signs(dots)
        rows = np.isin(owner, owner[(edges != 1).any(axis=1)])
        # Nodes numbered by set, then vertex: each tree of the forest grows
        # from the least vertex of its part of the set.
        keys = owner[rows, None] * field.complex_.n_vertices + tri[rows]
        nodes, node = np.unique(keys, return_inverse=True)
        node = node.reshape(keys.shape)
        heads, tails = node.ravel(), node[:, [1, 2, 0]].ravel()
        steps = edges[rows].ravel()
        # One flip per step pointing apart; a perpendicular one is refused.
        lifted = 1 - 2 * (spanning_forest(
            len(nodes), heads, tails, steps < 0).sums % 2)
        sign = np.ones(tri.shape)
        sign[rows] = lifted[node]
        # The forest fixed every sign; each joined pair must now agree.
        set_of = np.repeat(owner[rows], 3)
        refused = set_of[lifted[heads] * lifted[tails] * steps != 1]
        if len(refused):
            stop = int(refused.min())
            refusal = (_perpendicular() if (steps[set_of == stop] == 0).any()
                       else AmbiguousSamplingError(
                           "line-field samples on the cell shell admit no "
                           "consistent sign lift; refine the sampling"))
        # Negating a director negates the determinant and its dot products
        # exactly: these are the signed directors' values.
        det = det * sign.prod(axis=1)
        dots = dots * (sign * sign[:, [1, 2, 0]])
    s = 1.0 + dots[:, 0] + dots[:, 1] + dots[:, 2]
    degenerate = np.zeros(count, dtype=bool)
    degenerate[owner[(np.abs(det) < DEGENERATE_DET_TOL)
                     & (np.abs(s) < DEGENERATE_DENOM_TOL)]] = True
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
        if abs(degree - nearest) > DEGREE_TOL:
            raise AmbiguousSamplingError(
                f"summed solid angle {degree!r} turns is not close to an "
                "integer")
        out.append(nearest)
    if refusal is not None:
        raise refusal
    return out


def winding_number(field: OrderField, loop: Sequence[int]) -> int:
    """Net turns of a circle-valued field around a closed vertex loop."""
    return _windings(field, [_loop(field, loop)], (0,))[0][0]


def torus_winding(field: OrderField, loop: Sequence[int]) -> tuple[int, int]:
    """Net turns of each circle factor of a torus-valued field on a loop."""
    return _windings(field, [_loop(field, loop)], (0, 2))[0]


def rp_parity(field: OrderField, loop: Sequence[int]) -> int:
    """Orientation parity of a projective-plane-valued field on a loop.

    0 when the line field lifts to a closed vector field along the loop,
    1 when the lift comes back flipped.
    """
    return _parities(field, [_loop(field, loop)])[0]


def sphere_degree(field: OrderField,
                  triangles: Sequence[tuple[int, tuple[int, int, int]]]) -> int:
    """Degree of a sphere-valued field over a closed oriented triangle set."""
    tris = list(triangles)
    if any(len(t) != 3 for _, t in tris):
        raise DimensionError("a triangle must name exactly three vertex ids")
    _checked_ids([v for _, t in tris for v in t],
                 field.complex_.n_vertices, "vertex")
    coeff = [c for c, _ in tris]
    tri = np.array([t for _, t in tris], dtype=np.int64).reshape(-1, 3)
    return _degrees(field, coeff, tri, np.zeros(len(tris), np.int64), 1)[0]


def boundary_classes(field: OrderField, k: int,
                     cell_ids: Sequence[int] | None = None) -> list:
    """Homotopy classes of the field on the boundaries of k-cells.

    One batched pass over the cells ``cell_ids`` (every k-cell by
    default), with one value per cell in that order; ids are checked by
    ``_checked_ids``.  Each value lives in pi_{k-1} of the order-parameter
    space: a 0/1 transition flag for pi_0, integers or parities for pi_1,
    an integer degree for pi_2.
    Spaces with nonabelian pi_1 are refused at k = 2.  A refusal is the
    one the first failing cell would raise on its own.
    """
    cx = field.complex_
    if not 1 <= k <= cx.dim:
        raise DimensionError(f"no {k}-cells to probe")
    layer = cx.layers[k]
    ids = np.arange(len(layer)) if cell_ids is None else np.array(
        _checked_ids(cell_ids, len(layer), "cell"), dtype=np.int64)
    if not len(ids):
        return []
    space = field.space
    group = space.homotopy_group(k - 1)

    if k == 1:
        if space.name == SPACE_FINITE:
            values = field.values
            ends = cx.edge_ends(None if cell_ids is None else ids)
            return [0 if values[a] == values[b] else 1
                    for a, b in zip(*(e.tolist() for e in ends))]
        return [0] * len(ids)

    if k == 2:
        if not group.abelian:
            raise UnsupportedConfigurationError(
                f"pi_1 of {space.name} is nonabelian; single-cell classes "
                "do not assemble into an additive cochain")
        if space.name not in (SPACE_CIRCLE, SPACE_RP2, SPACE_TORUS):
            return [0] * len(ids)
        loops = layer.take(ids).vertex_rows()
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
    """Distinct values per connected component, for discrete spaces, told
    apart by their index in the space's labels, which need not hash."""
    labels = field.space.labels
    buckets: dict[int, dict[int, object]] = {}
    for vid, comp in enumerate(components):
        value = field.values[vid]
        buckets.setdefault(comp, {}).setdefault(labels.index(value), value)
    return [{"component": comp, "labels": sorted(map(str, labs.values()))}
            for comp, labs in sorted(buckets.items())]
