"""Obstruction cochains for extending vertex-sampled fields over skeleta.

For a field given on the vertices, the class of the field on each k-cell
boundary defines a k-cochain with coefficients in pi_{k-1} of the value
space.  The field extends over the k-skeleton exactly when that cochain
vanishes cell by cell; whether it vanishes in cohomology decides if some
modification on lower cells extends instead.  Discrete value spaces are
handled by their own constancy analysis: their transition flags carry no
additive structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import Chain, DeltaComplex, RING_INT, RING_MOD2
from .errors import (
    DimensionError,
    UnsupportedConfigurationError,
)
from .homology import (
    _in_image,
    euler_characteristic,
    homology_generators,
    orientability,
    vertex_components,
)
from .orderfield import (
    CoefficientGroup,
    OrderField,
    SPACE_FINITE,
    boundary_classes,
    pi0_classes,
)


@dataclass
class ObstructionCochain:
    """Cellwise boundary classes of a field, stored sparsely.

    ``values`` maps k-cell ids to nonzero elements of ``group``: ints for
    Z and Z/2, integer pairs for Z^2, 0/1 transition flags for a discrete
    space.
    """

    complex_: DeltaComplex
    k: int
    group: CoefficientGroup
    values: dict[int, object] = field(default_factory=dict)
    space_name: str = ""

    def value(self, cell_id: int):
        return self.values.get(cell_id, _zero(self.group))

    @property
    def support(self) -> list[int]:
        return sorted(self.values)


def _zero(group: CoefficientGroup):
    return (0, 0) if group.rank == 2 else 0


def _combine(group: CoefficientGroup, acc, v, scale: int):
    if group.rank == 2:
        return (acc[0] + scale * v[0], acc[1] + scale * v[1])
    return acc + scale * v


def _reduce(group: CoefficientGroup, v):
    if group.order == 2:
        return v % 2
    return v


def obstruction_cochain(field_: OrderField, k: int) -> ObstructionCochain:
    """Boundary classes of every k-cell, as a pi_{k-1}-valued cochain."""
    cx = field_.complex_
    if not 1 <= k <= cx.dim:
        raise DimensionError(f"no {k}-cells to probe")
    group = field_.space.homotopy_group(k - 1)
    values: dict[int, object] = {}
    if not group.trivial:
        classes = boundary_classes(field_, k)
        if group.order == 2:
            classes = [_reduce(group, v) for v in classes]
        zero = _zero(group)
        values = {cid: v for cid, v in enumerate(classes) if v != zero}
    return ObstructionCochain(cx, k, group, values, field_.space.name)


def verify_cocycle(cochain: ObstructionCochain) -> bool:
    """Check that the coboundary of the cochain vanishes.

    Discrete-space transition flags are not group elements, so for them
    the check is vacuous and returns True; the constancy analysis in
    :func:`extend_field` is the meaningful statement there.
    """
    group = cochain.group
    if group.trivial or group.name == "set":
        return True
    cx = cochain.complex_
    k = cochain.k
    if k + 1 > cx.dim:
        return True
    ptr, faces, coeffs = cx.layers[k + 1].face_lists()
    for s, e in zip(ptr, ptr[1:]):
        acc = _zero(group)
        for fid, coeff in zip(faces[s:e], coeffs[s:e]):
            v = cochain.values.get(fid)
            if v is not None:
                acc = _combine(group, acc, v, coeff)
        if group.rank == 2:
            if acc != (0, 0):
                return False
        elif group.order == 2:
            if acc % 2 != 0:
                return False
        elif acc != 0:
            return False
    return True


def evaluate(cochain: ObstructionCochain, chain: Chain):
    """Pair the cochain with a chain of the same dimension.

    Returns an integer (or pair) for group-valued cochains; for discrete
    transition flags it returns 1 when the chain touches any flagged cell
    and 0 otherwise.
    """
    if chain.dim != cochain.k:
        raise DimensionError(
            f"pairing a {cochain.k}-cochain with a {chain.dim}-chain")
    group = cochain.group
    if group.name == "set":
        return 1 if any(cid in cochain.values for cid in chain.coeffs) else 0
    acc = _zero(group)
    for cid, a in chain.coeffs.items():
        v = cochain.values.get(cid)
        if v is not None:
            acc = _combine(group, acc, v, a)
    if group.rank == 2:
        return acc
    return _reduce(group, acc)


def obstruction_class(cochain: ObstructionCochain) -> str:
    """'trivial' when the cochain is a coboundary, 'nontrivial' otherwise.

    Discrete-space flags have no cohomology class: 'not_applicable'.
    """
    group = cochain.group
    if group.name == "set":
        return "not_applicable"
    if not cochain.values:
        return "trivial"
    cx = cochain.complex_
    k = cochain.k
    if k < 1 or cx.n_cells(k - 1) == 0:
        return "nontrivial"
    # delta: C^{k-1} -> C^k is the transpose of the k-th boundary matrix.
    if group.rank == 2:
        parts = [({j: v[c] for j, v in cochain.values.items()}, RING_INT)
                 for c in range(2)]
    else:
        ring = RING_MOD2 if group.order == 2 else RING_INT
        parts = [({j: int(v) for j, v in cochain.values.items()}, ring)]
    if all(_in_image(cx, k, vec, ring, transpose=True) for vec, ring in parts):
        return "trivial"
    return "nontrivial"


def pair_with_generators(cochain: ObstructionCochain) -> list[dict]:
    """Pairing of the cochain with each homology generator of its degree."""
    out = []
    for order, gen in homology_generators(cochain.complex_, cochain.k):
        out.append({"generator_order": order,
                    "pairing": evaluate(cochain, gen)})
    return out


# ---------------------------------------------------------------------------
# Skeleton-by-skeleton extension


@dataclass
class SkeletonVerdict:
    k: int
    ok: bool
    checked: int
    blocking: tuple[int, ...] = ()
    vacuous: bool = False
    note: str = ""


@dataclass
class ExtensionReport:
    space: str
    extends: bool
    reached: int
    verdicts: list[SkeletonVerdict]
    blocked_at: int | None = None
    cochain: ObstructionCochain | None = None
    cocycle_ok: bool | None = None
    class_status: str | None = None
    generator_pairings: list[dict] | None = None
    component_values: list[dict] | None = None
    note: str = ""


def extend_field(field_: OrderField) -> ExtensionReport:
    """Try to extend the vertex field over successive skeleta.

    Stops at the first dimension with a nonvanishing boundary class and
    reports the obstruction cochain, whether it is a cocycle, whether its
    class vanishes, and its pairing with the homology generators of that
    dimension.  A vanishing class means a field agreeing with this one on
    the previous skeleton extends after modification; a nonvanishing one
    rules every such modification out.
    """
    cx = field_.complex_
    space = field_.space
    verdicts: list[SkeletonVerdict] = []
    reached = 0
    for k in range(1, cx.dim + 1):
        group = space.homotopy_group(k - 1)
        n_k = cx.n_cells(k)
        if not group.abelian and n_k > 0:
            raise UnsupportedConfigurationError(
                f"pi_{k - 1} of {space.name} is nonabelian; the cellwise "
                "classes do not form an additive cochain")
        if group.trivial:
            verdicts.append(SkeletonVerdict(
                k, True, n_k, vacuous=True,
                note="coefficient group is trivial"))
            reached = k
            continue
        cochain = obstruction_cochain(field_, k)
        if not cochain.values:
            verdicts.append(SkeletonVerdict(k, True, n_k))
            reached = k
            continue
        blocking = tuple(cochain.support)
        verdicts.append(SkeletonVerdict(k, False, n_k, blocking=blocking))
        report = ExtensionReport(
            space=space.name, extends=False, reached=reached,
            verdicts=verdicts, blocked_at=k, cochain=cochain,
            cocycle_ok=verify_cocycle(cochain),
            class_status=obstruction_class(cochain))
        if cochain.group.name != "set":
            report.generator_pairings = pair_with_generators(cochain)
            if report.class_status == "trivial":
                report.note = ("the obstruction class vanishes: some field "
                               "agreeing on the lower skeleton extends")
            else:
                report.note = ("the obstruction class is nonzero: no "
                               "modification on lower cells can extend")
        else:
            report.component_values = pi0_classes(
                field_, vertex_components(cx))
            report.note = ("a discrete field extends exactly when it is "
                           "constant on every connected component")
        return report
    return ExtensionReport(space=space.name, extends=True, reached=reached,
                           verdicts=verdicts,
                           note="the field extends over the whole complex")


@dataclass
class IndexSumReport:
    applicable: bool
    index_sum: int | None = None
    euler: int | None = None
    consistent: bool | None = None
    reason: str = ""


def index_sum_check(field_: OrderField) -> IndexSumReport:
    """Compare the total circle-field index against the Euler number.

    Needs a closed orientable 2-complex and a circle-valued field; the
    per-cell windings are summed with the fundamental chain orientations.
    Equality is the classical zero-count statement for a trivialized
    tangent direction field; a mismatch on a curved surface signals that
    the sampled directions cannot come from a global frame.
    """
    cx = field_.complex_
    if cx.dim != 2:
        return IndexSumReport(False, reason="complex is not 2-dimensional")
    if field_.space.homotopy_group(1).name != "Z":
        return IndexSumReport(
            False, reason="value space does not carry integer windings")
    orient = orientability(cx)
    if not orient.orientable or not orient.closed:
        return IndexSumReport(
            False, reason="complex is not a closed orientable surface")
    cochain = obstruction_cochain(field_, 2)
    total = evaluate(cochain, orient.fundamental_chain)
    chi = euler_characteristic(cx)
    return IndexSumReport(True, index_sum=int(total), euler=chi,
                          consistent=(int(total) == chi))
