"""Order-parameter spaces and vertex-sampled fields.

A field assigns one order-parameter value to every vertex; one whole-array
check accepts the samples or words the refusal of the first.  A probe gives
the class of the field on a cell's boundary, in a homotopy group of the
value space, as δ of one cochain read through the faces (an edge's angle
steps or director flip, a 2-cell's solid angle), with ambiguity errors
whenever adjacent samples are too far apart to reconstruct it.
:func:`boundary_classes` probes all requested cells of one degree at once;
each value and refusal is the one the cell gives when probed alone.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .complexes import (DeltaComplex, _row_positions, padded_rows,
                        row_offsets, spanning_forest)
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
# A triangle's solid angle is undetermined where its determinant vanishes
# and s <= 0: on atan2's branch cut the sign of det's rounding picks ±2π.
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
# A probe is δ of one cochain read through the faces: the angle steps or
# director flip of an edge from the tail to the head its faces name
# (``edge_ends``), or the solid angle of a 2-cell's row triangles times ε.
# A 2-cell's edge entry reads +1 when its edge runs tail to head between
# consecutive corners of the row (the last, then the first), -1 head to
# tail, times the sign of its coefficient; a loop, a zero coefficient or
# corners joined both ways or not at all read nothing.  ε is -1 if an
# entry reads -1, else +1; a row read both ways is no walk of its faces.
# Each cell sums in entry order, so a reversed cell negates only its own
# value and every value is bit-identical to probing the cell alone.  Only
# director shells are lifted per cell.  The first failing cell is refused.


def _angle_steps(tail: np.ndarray, head: np.ndarray):
    """``math.remainder(head - tail, 2π)`` of angle pairs, exact by
    ``np.fmod`` and at most one whole turn, and whether each is within
    ``ANGLE_TOL`` of a half turn, where its direction is not determined."""
    d = np.fmod(head - tail, math.tau)
    d = np.where(d > math.pi, d - math.tau,
                 np.where(d < -math.pi, d + math.tau, d))
    return d, np.abs(d) >= math.pi - ANGLE_TOL


def _whole(sums: np.ndarray, tol: float, message: str, stop: int,
           refusal: Exception) -> np.ndarray:
    """``sums`` (a row per factor, a column per cell) as integers: of the
    cells before ``stop`` the first not within ``tol`` of them is refused
    with ``message``, then cell ``stop``, if any, with ``refusal``."""
    nearest = np.rint(sums)
    off = np.abs(sums - nearest)[:, :stop] > tol
    if off.any():
        i = int(off.any(axis=0).argmax())
        raise AmbiguousSamplingError(
            message.format(float(sums[off[:, i].argmax(), i])))
    if stop < sums.shape[1]:
        raise refusal
    return nearest.astype(int)


def _edge_classes(field: OrderField, tail: np.ndarray, head: np.ndarray,
                  offsets: tuple[int, ...] | None, owner: np.ndarray,
                  at: np.ndarray, coeff: np.ndarray,
                  count: int) -> tuple[list, np.ndarray]:
    """δ on ``count`` cells of the cochain on edges from vertex ``tail[e]``
    to ``head[e]``, entry j adding ``coeff[j]`` times edge ``at[j]`` to
    cell ``owner[j]``: whole turns of each circle factor (value pair
    offset, offset + 1), or with ``offsets`` None director flips mod 2.

    Also its integer primitive, a row per factor and an entry per edge:
    the whole turns n(e) = (s(e) - (θ_head - θ_tail)) / 2π by which each
    step s(e) differs from the change of the angles, or the flips.  The
    angle changes sum to 0 around a cell boundary that is a cycle, so δn
    equals the classes there."""
    x = np.asarray(field.values, dtype=float)
    if offsets is None:
        signs = _lift_signs(_dots(x[tail], x[head]))
        values, refused = (signs < 0)[:, None], (signs == 0)[:, None]
        whole = values
    else:
        ids, end = np.unique(np.concatenate([tail, head]), return_inverse=True)
        cols = x[ids].T.tolist()
        theta = np.array([list(map(math.atan2, cols[o + 1], cols[o]))
                          for o in offsets]).T
        tail_angle, head_angle = theta[end.reshape(2, -1)]
        values, refused = _angle_steps(tail_angle, head_angle)
        whole = np.rint((values - (head_angle - tail_angle)) / math.tau)
    sums = np.array([np.bincount(owner, coeff * v[at], minlength=count)
                     for v in values.T], dtype=float)
    stop = owner[refused[at].any(axis=1)].min(initial=count)
    out = _whole(sums % 2, 0, "", stop, _perpendicular()) if offsets is None \
        else _whole(sums / math.tau, TURNS_TOL,
                    "winding sum {!r} is not an integer", stop,
                    AmbiguousSamplingError(
                        "adjacent circle samples are antipodal within "
                        "tolerance; the winding is not determined"))
    classes = out[0].tolist() if len(out) == 1 else list(zip(*out.tolist()))
    return classes, whole.T.astype(np.int64)


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


def _loop_class(field: OrderField, loop: Iterable, offsets):
    """``_edge_classes`` around a nonempty vertex loop, each vertex
    stepping to the next and the last back to the first."""
    tail = np.array(_checked_ids(loop, field.complex_.n_vertices, "vertex"))
    if not (n := len(tail)):
        raise DimensionError("empty loop")
    return _edge_classes(field, tail, np.roll(tail, -1), offsets,
                         np.zeros(n, int), np.arange(n), np.ones(n, int),
                         1)[0][0]


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (n, 3) arrays, each bit-identical to
    the 1-D ``a[i] @ b[i]``, whose kernel a stack of (1, 3) @ (3, 1)
    products runs; einsum and ``(a * b).sum(axis=1)`` round differently."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _lift_signs(dots: np.ndarray) -> np.ndarray:
    """+1 or -1 for each pair of adjacent directors, by the sign of their
    dot product; 0 where they are too nearly perpendicular to tell."""
    return np.where(dots > ANGLE_TOL, 1, np.where(dots < -ANGLE_TOL, -1, 0))


def _perpendicular() -> AmbiguousSamplingError:
    return AmbiguousSamplingError(
        "adjacent line-field samples are nearly perpendicular; "
        "the sign lift is not determined")


def _row_triangles(cx: DeltaComplex) -> tuple:
    """The triangles of every 2-cell's row, once per complex, in one table
    with row offsets: a triangle gives itself, a square (v0, v1, v2, v3)
    gives (v0, v1, v2) and (v0, v2, v3).  Per 2-cell also ε, its vertex
    count, and whether it is no triangle or square or no walk of its faces."""
    if (table := cx._cache.get("row triangles")) is None:
        squares = cx.layers[2]
        v, ptr = squares.vertices, squares.vertex_ptr
        size = np.diff(ptr)
        face = np.repeat(np.arange(len(squares)), np.diff(squares.face_ptr))
        tail, head = (end[squares.faces] for end in cx.edge_ends())
        # each corner and the one after it, the first after the last
        after = np.arange(1, len(v) + 1)
        after[ptr[1:] - 1] = ptr[:-1]
        ahead = back = np.zeros(len(face), dtype=bool)
        for a, b in zip(*(padded_rows(c, ptr)[face].T - 1
                          for c in (v, v[after]))):
            ahead = ahead | (a == tail) & (b == head)
            back = back | (a == head) & (b == tail)
        read = (ahead * 1 - back) * np.sign(squares.coeffs) * (tail != head)
        minus, plus = (np.bincount(face[r], minlength=len(squares)) > 0
                       for r in (read < 0, read > 0))
        # The second triangle of a square takes its corners 0, 2 and 3.
        odd = (size != 3) & (size != 4)
        tri_ptr = row_offsets(np.where(odd, 0, size - 2))
        face = np.repeat(np.arange(len(squares)), np.diff(tri_ptr))
        tri = v[ptr[face][:, None] + [0, 1, 2]
                + (np.arange(len(face)) - tri_ptr[face])[:, None] * [0, 1, 1]]
        table = cx._cache["row triangles"] = (
            tri, tri_ptr, np.where(minus, -1, 1), size, odd | minus & plus)
    return table


def _solid_angles(x: np.ndarray) -> tuple:
    """For an (n, 3, 3) array of sample triples (a, b, c): the triple
    product det = a · (b × c), s = 1 + a·b + b·c + c·a and the signed
    solid angle 2 atan2(det, s) of each (Van Oosterom and Strackee), by
    elementwise operations in one fixed order, so that each value is the
    one the triple gives alone."""
    a, b, c = x[:, 0], x[:, 1], x[:, 2]
    det = (a[:, 0] * (b[:, 1] * c[:, 2] - b[:, 2] * c[:, 1])
           + a[:, 1] * (b[:, 2] * c[:, 0] - b[:, 0] * c[:, 2])
           + a[:, 2] * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0]))
    s = 1.0 + _dots(a, b) + _dots(b, c) + _dots(c, a)
    return det, s, 2.0 * np.arctan2(det, s)


def _degrees(field: OrderField, tri: np.ndarray, rows: np.ndarray,
             coeff: np.ndarray, owner: np.ndarray, count: int, stop: int,
             refusal: Exception | None, lift: bool = False) -> list[int]:
    """Degree of a sphere-valued field over each of ``count`` closed
    oriented triangle sets: entry j adds the triangle ``tri[rows[j]]``
    with coefficient ``coeff[j]`` to set ``owner[j]``, in entry order.
    The sets before ``stop`` are probed, then ``refusal`` is raised.

    With ``lift`` the values are directors, signed per set so that every
    pair joined by a triangle edge points the same way, all at once along
    one spanning forest of (set, vertex) pairs; each part of a set keeps
    the stored sign at its least vertex.  The first set that cannot be
    lifted stops the pass: a nearly perpendicular joined pair is refused
    first, then an odd cycle of pairs pointing apart.
    """
    if len(rows) < len(tri):  # few entries: only the triangles they name
        need, rows = np.unique(rows, return_inverse=True)
        tri = tri[need]
    x = np.asarray(field.values, dtype=float)[tri]
    if lift:
        edges = _lift_signs(np.stack([_dots(x[:, i], x[:, (i + 1) % 3])
                                      for i in range(3)], axis=1))[rows]
        tri, x = tri[rows], x[rows]
        rows = np.arange(len(rows))
        lifting = np.isin(owner, owner[(edges != 1).any(axis=1)])
        # Nodes numbered by set, then vertex: each tree of the forest grows
        # from the least vertex of its part of the set.
        keys = owner[lifting, None] * field.complex_.n_vertices + tri[lifting]
        nodes, node = np.unique(keys, return_inverse=True)
        node = node.reshape(keys.shape)
        heads, tails = node.ravel(), node[:, [1, 2, 0]].ravel()
        steps = edges[lifting].ravel()
        # One flip per step pointing apart; a perpendicular one is refused.
        lifted = 1 - 2 * (spanning_forest(
            len(nodes), heads, tails, steps < 0).sums % 2)
        sign = np.ones(tri.shape)
        sign[lifting] = lifted[node]
        # The forest fixed every sign; each joined pair must now agree.
        set_of = np.repeat(owner[lifting], 3)
        refused = set_of[lifted[heads] * lifted[tails] * steps != 1]
        if refused.min(initial=stop) < stop:
            stop = int(refused.min())
            refusal = (_perpendicular() if (steps[set_of == stop] == 0).any()
                       else AmbiguousSamplingError(
                           "line-field samples on the cell shell admit no "
                           "consistent sign lift; refine the sampling"))
        x = x * sign[:, :, None]  # the signed directors
    det, s, angle = _solid_angles(x)
    flat = owner[((np.abs(det) < DEGENERATE_DET_TOL)
                  & (s < DEGENERATE_DENOM_TOL))[rows]]
    if flat.min(initial=stop) < stop:
        stop, refusal = flat.min(), AmbiguousSamplingError(
            "a spherical triangle of samples is degenerate (on a great "
            "circle, not within any half of it); the solid angle is not "
            "determined")
    total = np.bincount(owner, coeff * angle[rows], minlength=count)
    return _whole(total[None] / (4.0 * math.pi), DEGREE_TOL,
                  "summed solid angle {!r} turns is not close to an integer",
                  stop, refusal)[0].tolist()


def winding_number(field: OrderField, loop: Sequence[int]) -> int:
    """Net turns of a circle-valued field around a closed vertex loop."""
    return _loop_class(field, loop, (0,))


def torus_winding(field: OrderField, loop: Sequence[int]) -> tuple[int, int]:
    """Net turns of each circle factor of a torus-valued field on a loop."""
    return _loop_class(field, loop, (0, 2))


def rp_parity(field: OrderField, loop: Sequence[int]) -> int:
    """Orientation parity of a projective-plane-valued field on a loop:
    0 when the line field lifts to a closed vector field along the loop,
    1 when the lift comes back flipped."""
    return _loop_class(field, loop, None)


def sphere_degree(field: OrderField,
                  triangles: Sequence[tuple[int, tuple[int, int, int]]]) -> int:
    """Degree of a sphere-valued field over a closed oriented triangle set."""
    tris = list(triangles)
    if any(len(t) != 3 for _, t in tris):
        raise DimensionError("a triangle must name exactly three vertex ids")
    ids = _checked_ids([v for _, t in tris for v in t],
                       field.complex_.n_vertices, "vertex")
    tri = np.array(ids, dtype=np.int64).reshape(-1, 3)
    return _degrees(field, tri, np.arange(len(tri)), np.array(
        [c for c, _ in tris], dtype=float), np.zeros(len(tri), np.int64), 1,
        1, None)[0]


def boundary_classes(field: OrderField, k: int,
                     cell_ids: Sequence[int] | None = None) -> list:
    """Homotopy classes of the field on the boundaries of k-cells.

    One batched pass over the cells ``cell_ids`` (every k-cell by
    default), with one value per cell in that order; ids are checked by
    ``_checked_ids``.  Each value lives in pi_{k-1} of the order-parameter
    space: a 0/1 transition flag for pi_0, integers or parities for pi_1,
    an integer degree for pi_2: δ, by the face coefficients, of an edge
    cochain at k = 2 (angle steps or director flips from each ``edge_ends``
    tail to head) or a 2-cell cochain at k = 3 (solid angles, with the
    orientation a 2-cell's faces give its row), where only director shells
    are lifted, per 3-cell.  Spaces with nonabelian pi_1 are refused at
    k = 2.  A refusal is the one the first failing cell raises on its own.

    At k = 2 the classes of a field are a coboundary, of the whole turns
    or flips per edge that the same pass reads (``_probe`` returns them).
    With that primitive :func:`crystaltopo.obstruction.obstruction_class`
    certifies a trivial class without the membership test; the classes at
    k = 3 come with none, and their class goes to that test.
    """
    return _probe(field, k, cell_ids)[0]


def _probe(field: OrderField, k: int, cell_ids: Sequence[int] | None = None
           ) -> tuple[list, np.ndarray | None]:
    """:func:`boundary_classes` and, at k = 2, the integer primitive a of
    the classes that ``_edge_classes`` reads, a row per summand of pi_1 and
    an entry per edge (None otherwise): δa is the classes on every cell
    whose boundary is a cycle."""
    cx = field.complex_
    if not 1 <= k <= cx.dim:
        raise DimensionError(f"no {k}-cells to probe")
    layer = cx.layers[k]
    ids = np.arange(len(layer)) if cell_ids is None else np.array(
        _checked_ids(cell_ids, len(layer), "cell"), dtype=np.int64)
    if not len(ids):
        return [], None
    space = field.space
    group = space.homotopy_group(k - 1)

    if k == 1:
        if space.name == SPACE_FINITE:
            values = field.values
            ends = cx.edge_ends(None if cell_ids is None else ids)
            return [0 if values[a] == values[b] else 1
                    for a, b in zip(*(e.tolist() for e in ends))], None
        return [0] * len(ids), None

    if k == 2:
        if not group.abelian:
            raise UnsupportedConfigurationError(
                f"pi_1 of {space.name} is nonabelian; single-cell classes "
                "do not assemble into an additive cochain")
        offsets = {SPACE_CIRCLE: (0,), SPACE_TORUS: (0, 2), SPACE_RP2: None}
        if space.name not in offsets:
            return [0] * len(ids), None
        owner, edges, coeff = layer.face_entries(ids)
        return _edge_classes(field, *cx.edge_ends(), offsets[space.name],
                             owner, edges, coeff, len(ids))

    # one gather of the 2-cells' triangles, with coefficients times ε
    owner, faces, coeff = layer.face_entries(ids)
    tri, tri_ptr, eps, size, unread = _row_triangles(cx)
    stop, refusal = len(ids), None
    if len(bad := np.flatnonzero(unread[faces])):
        stop, f = int(owner[bad[0]]), faces[bad[0]]
        refusal = UnsupportedConfigurationError(
            f"2-cell {f}: its vertex row is not a walk of its faces"
        ) if size[f] in (3, 4) else DimensionError(
            f"unexpected 2-cell with {size[f]} vertices")
    if space.name not in (SPACE_SPHERE, SPACE_RP2):
        if refusal is not None:
            raise refusal
        return [0] * len(ids), None
    rows, entry = _row_positions(tri_ptr, faces)
    return _degrees(field, tri, rows, (coeff * eps[faces])[entry],
                    owner[entry], len(ids), stop, refusal,
                    lift=space.name == SPACE_RP2), None


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
