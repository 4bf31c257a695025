"""Obstruction cochains for extending vertex-sampled fields over skeleta.

For a field given on the vertices, the class of the field on each k-cell
boundary defines a k-cochain with coefficients in pi_{k-1} of the value
space.  The field extends over the k-skeleton exactly when that cochain
vanishes cell by cell; whether it vanishes in cohomology decides if some
modification on lower cells extends instead.  Discrete value spaces are
handled by their own constancy analysis: their transition flags carry no
additive structure.

A group-valued cochain is read as one integer or mod-2 ``Cochain`` per
summand of its group (Z^2 as two integer cochains), so the cocycle check,
the pairing with chains and the class decision run on the chain operators
of :mod:`crystaltopo.complexes` and the membership test of
:mod:`crystaltopo.homology`.

At k = 2 a field's cochain is δ of the edge cochain its probe reads
through the faces, and the probe also gives that integer primitive a:
the whole turns by which the edge steps differ from the change of the
angles, or the director flips mod 2 (Steenrod, "The Topology of Fibre
Bundles", 1951, part III).  One coboundary per summand checks δa = c,
which certifies a ``trivial`` class, and a trivial class pairs to 0 with
every cycle z, as <δa, z> = <a, ∂z>.  In the top degree k = dim, which
holds every field's cochain at k = 3, a is a combinatorial Dirac string:
it runs through the tree faces of the gluing forest of the top cells to
an exit face (Dirac, "Quantised singularities in the electromagnetic
field", 1931).

A vertex-sampled field is null-homotopic on the skeleton below its
class's: the vertices at k = 2, and the edges for S^2 at k = 3, as S^2
is simply connected.  So its first obstruction class vanishes (part
III); only hand-built cochains and director fields at k = 3 can be
nontrivial.  The membership test runs only for cochains with no
primitive: hand-built ones, and top cochains that leave a residue on a
closed tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .complexes import (
    Chain,
    Cochain,
    DeltaComplex,
    RING_INT,
    RING_MOD2,
    _support,
    coboundary_map,
)
from .errors import DimensionError, InternalInconsistencyError
from .homology import (
    _in_image,
    _top_primitive,
    euler_characteristic,
    generator_orders,
    homology_generators,
    orientability,
    vertex_components,
)
from .orderfield import (
    CoefficientGroup,
    OrderField,
    _probe,
    pi0_classes,
)


@dataclass
class ObstructionCochain:
    """Cellwise boundary classes of a field, stored sparsely.

    ``values`` maps k-cell ids to nonzero elements of ``group``: ints for
    Z and Z/2, integer pairs for Z^2, 0/1 transition flags for a discrete
    space.  ``primitive`` holds a (k-1)-cochain per summand of ``group``
    whose coboundary the cochain is: the probe's edge cochain at k = 2, or
    in the top degree k = dim one supported on the tree faces of the dual
    forest, when no closed tree keeps a residue.  A cochain whose
    ``values`` are changed needs ``primitive=None`` with them.
    """

    complex_: DeltaComplex
    k: int
    group: CoefficientGroup
    values: dict[int, object] = field(default_factory=dict)
    space_name: str = ""
    primitive: list[Cochain] | None = field(default=None, repr=False)

    @property
    def support(self) -> list[int]:
        return sorted(self.values)


def _ring(group: CoefficientGroup) -> str:
    return RING_MOD2 if group.order == 2 else RING_INT


def _summands(cochain: ObstructionCochain) -> list[Cochain]:
    """The cochain as one integer or mod-2 cochain per summand of its
    group: Z and Z/2 give one, Z^2 gives one per factor."""
    k, values = cochain.k, cochain.values
    if cochain.group.rank == 2:
        return [Cochain(k, {cid: v[c] for cid, v in values.items()}, RING_INT)
                for c in range(2)]
    return [Cochain(k, values, _ring(cochain.group))]


def obstruction_cochain(field_: OrderField, k: int) -> ObstructionCochain:
    """Boundary classes of every k-cell, as a pi_{k-1}-valued cochain.  A
    nonzero one keeps the probe's edge primitive, if there is one, and
    otherwise in the top degree gets one from the gluing pass, if every
    summand has one."""
    cx = field_.complex_
    if not 1 <= k <= cx.dim:
        raise DimensionError(f"no {k}-cells to probe")
    group = field_.space.homotopy_group(k - 1)
    values: dict[int, object] = {}
    primitive = None
    if not group.trivial:
        classes, whole = _probe(field_, k)
        zero = (0, 0) if group.rank == 2 else 0
        values = {cid: v for cid, v in enumerate(classes) if v != zero}
        if values and whole is not None:
            primitive = []
            for row in np.atleast_2d(whole):
                nonzero = np.flatnonzero(row)
                primitive.append(Cochain(k - 1, dict(zip(
                    nonzero.tolist(), row[nonzero].tolist())), _ring(group)))
    cochain = ObstructionCochain(cx, k, group, values, field_.space.name,
                                 primitive)
    if values and primitive is None and k == cx.dim and group.name != "set":
        parts = [_top_primitive(cx, part) for part in _summands(cochain)]
        if all(a is not None for a in parts):
            cochain.primitive = parts
    return cochain


def verify_cocycle(cochain: ObstructionCochain) -> bool:
    """Check that the coboundary of the cochain vanishes.

    Discrete-space transition flags are not group elements, so for them
    the check is vacuous and returns True; the constancy analysis in
    :func:`extend_field` is the meaningful statement there.
    """
    group = cochain.group
    if group.trivial or group.name == "set":
        return True
    return not any(coboundary_map(part, cochain.complex_).coeffs
                   for part in _summands(cochain))


def evaluate(cochain: ObstructionCochain, chain: Chain):
    """Pair the cochain with a chain of the same dimension.

    Returns an integer (or pair) for group-valued cochains, reduced mod 2
    when the group or the chain's ring is Z/2; for discrete transition
    flags it returns 1 when the chain touches any flagged cell and 0
    otherwise.
    """
    if chain.dim != cochain.k:
        raise DimensionError(
            f"pairing a {cochain.k}-cochain with a {chain.dim}-chain")
    if cochain.group.name == "set":
        return 1 if any(cid in cochain.values for cid in chain.coeffs) else 0
    pairings = tuple(part.pair(chain) for part in _summands(cochain))
    return pairings if cochain.group.rank == 2 else pairings[0]


def obstruction_class(cochain: ObstructionCochain) -> str:
    """'trivial' when the cochain is a coboundary, 'nontrivial' otherwise.

    A ``primitive`` a with δa = c, one coboundary per summand, certifies
    'trivial'.  The probe's edge primitive fails only where a 2-cell's
    boundary is no cycle, and either primitive fails when ``values`` were
    changed and the primitive kept; each is an error.  A cochain with no
    primitive goes to the membership test of :mod:`crystaltopo.homology`.
    Discrete-space flags have no cohomology class: 'not_applicable'.
    """
    cx = cochain.complex_
    k = cochain.k
    _support(Cochain(k, dict.fromkeys(cochain.values, 1)), cx)
    group = cochain.group
    if group.name == "set":
        return "not_applicable"
    if not cochain.values:
        return "trivial"
    if cochain.primitive is not None:
        if all(coboundary_map(a, cx) == c for a, c in
               zip(cochain.primitive, _summands(cochain))):
            return "trivial"
        raise InternalInconsistencyError(
            "the obstruction cochain is not the coboundary of its "
            f"{'edge' if k == 2 else 'face'} primitive: its values were "
            "changed and the primitive kept (set primitive=None with them), "
            "or a 2-cell's boundary is no cycle (validate_complex finds "
            "where d d = 0 fails)")
    if k < 1 or cx.n_cells(k - 1) == 0:
        return "nontrivial"
    # delta: C^{k-1} -> C^k is the transpose of the k-th boundary matrix.
    if all(_in_image(cx, k, part.coeffs, part.ring, transpose=True)
           for part in _summands(cochain)):
        return "trivial"
    return "nontrivial"


def pair_with_generators(cochain: ObstructionCochain) -> list[dict]:
    """Pairing of the cochain with each homology generator of its degree,
    from the generators' tracked Smith reduction.  :func:`extend_field`
    calls it for a nontrivial class only: a trivial class pairs to 0 with
    every cycle, so there it reads just the orders of the group."""
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
    probed: dict[int, ObstructionCochain] = field(default_factory=dict)


def extend_field(field_: OrderField) -> ExtensionReport:
    """Try to extend the vertex field over successive skeleta.

    Stops at the first dimension with a nonvanishing boundary class and
    reports the obstruction cochain, whether it is a cocycle, whether its
    class vanishes, and its pairing with the homology generators of that
    dimension.  A vanishing class means a field agreeing with this one on
    the previous skeleton extends after modification; a nonvanishing one
    rules every such modification out.  ``probed`` keeps the cochain of
    every degree probed, so that no later check probes it again.
    """
    cx = field_.complex_
    space = field_.space
    verdicts: list[SkeletonVerdict] = []
    probed: dict[int, ObstructionCochain] = {}
    for k in range(1, cx.dim + 1):
        group = space.homotopy_group(k - 1)
        n_k = cx.n_cells(k)
        if group.trivial:
            verdicts.append(SkeletonVerdict(
                k, True, n_k, vacuous=True,
                note="coefficient group is trivial"))
            continue
        cochain = probed[k] = obstruction_cochain(field_, k)
        if not cochain.values:
            verdicts.append(SkeletonVerdict(k, True, n_k))
            continue
        blocking = tuple(cochain.support)
        verdicts.append(SkeletonVerdict(k, False, n_k, blocking=blocking))
        report = ExtensionReport(
            space=space.name, extends=False, reached=k - 1,
            verdicts=verdicts, blocked_at=k, cochain=cochain,
            cocycle_ok=verify_cocycle(cochain),
            class_status=obstruction_class(cochain), probed=probed)
        if cochain.group.name != "set" and report.class_status == "trivial":
            # <δa, z> = <a, ∂z> = 0 for every cycle z
            zero = (0, 0) if cochain.group.rank == 2 else 0
            report.generator_pairings = [
                {"generator_order": order, "pairing": zero}
                for order in generator_orders(cx, k)]
            report.note = ("the obstruction class vanishes: some field "
                           "agreeing on the lower skeleton extends")
        elif cochain.group.name != "set":
            report.generator_pairings = pair_with_generators(cochain)
            report.note = ("the obstruction class is nonzero: no "
                           "modification on lower cells can extend")
        else:
            report.component_values = pi0_classes(
                field_, vertex_components(cx))
            report.note = ("a discrete field extends exactly when it is "
                           "constant on every connected component")
        return report
    return ExtensionReport(space=space.name, extends=True, reached=cx.dim,
                           verdicts=verdicts,
                           note="the field extends over the whole complex",
                           probed=probed)


@dataclass
class IndexSumReport:
    applicable: bool
    index_sum: int | None = None
    euler: int | None = None
    consistent: bool | None = None
    reason: str = ""


def index_sum_check(field_: OrderField, cochain=None) -> IndexSumReport:
    """Compare the total circle-field index against the Euler number.

    Needs a closed orientable 2-complex and a circle-valued field; the
    per-cell windings are summed with the fundamental chain orientations.
    Equality is the classical zero-count statement for a trivialized
    tangent direction field; a mismatch on a curved surface signals that
    the sampled directions cannot come from a global frame.  The 2-cells
    are probed unless ``cochain``, their obstruction cochain as in
    ``ExtensionReport.probed[2]``, is given.  The Euler number is the
    cell count, so no homology is computed.
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
    if cochain is None:
        cochain = obstruction_cochain(field_, 2)
    total = evaluate(cochain, orient.fundamental_chain)
    chi = euler_characteristic(cx)
    return IndexSumReport(True, index_sum=int(total), euler=chi,
                          consistent=(int(total) == chi))
