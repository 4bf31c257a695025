"""Obstruction cochains on the chain operators, the one spanning-forest
walk and the summed current law, against the per-cell loops and graph
walks of ``tests/oracles.py``.

Every comparison is exact: the package and the references must give equal
values, loops and signs, not values within a tolerance.
"""

import dataclasses
import importlib
import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crystaltopo.complexes import (
    SHAPE_SIMPLEX,
    Cell,
    CellLayer,
    Chain,
    Cochain,
    DeltaComplex,
    RING_INT,
    RING_MOD2,
    RING_REAL,
    boundary_columns,
    boundary_map,
    boundary_of_cell,
    coboundary_map,
    spanning_forest,
    validate_complex,
)
from crystaltopo.errors import (
    ComplexBuildError,
    DefectLocusError,
    DimensionError,
    UnsupportedConfigurationError,
)
from crystaltopo.homology import (
    _in_image,
    _top_forest,
    _top_primitive,
    cohomology,
    generator_orders,
    homology,
    homology_generators,
    is_boundary,
    is_cycle,
    orientability,
    vertex_components,
)
from crystaltopo.lattice import DefectSpec, LatticeSpec, build_lattice_complex
from crystaltopo.network import (
    KIRCHHOFF_TOL,
    check_current_law,
    potential_check,
)
from crystaltopo.obstruction import (
    ObstructionCochain,
    evaluate,
    extend_field,
    obstruction_class,
    verify_cocycle,
)
from crystaltopo.orderfield import (
    GROUP_Z,
    GROUP_Z2,
    GROUP_ZxZ,
    CoefficientGroup,
    OrderField,
    boundary_classes,
    make_space,
)

from conftest import (dense_boundary, free_cubic_box, klein_bottle,
                      lattice_specs, torus_spec)
from oracles import (
    coboundary_class_oracle,
    coboundary_oracle,
    cocycle_oracle,
    components_oracle,
    current_residuals_oracle,
    orientation_oracle,
    pairing_oracle,
    potentials_oracle,
)


def build(spec):
    try:
        cx, _ = build_lattice_complex(spec)
    except (ComplexBuildError, DefectLocusError):
        return None
    return cx


def face_rows(cx, k):
    return [c.faces for c in cx.cells[k]] if 0 <= k <= cx.dim else []


def edge_ends(cx):
    return [(c.vertices[0], c.vertices[-1]) for c in cx.cells[1]]


SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# obstruction cochains
# ---------------------------------------------------------------------------

GROUPS = {"Z": GROUP_Z, "Z/2": GROUP_Z2, "Z^2": GROUP_ZxZ}


def draw_values(data, cx, k, name):
    """A sparse cochain with nonzero values; each summand of its group is
    a coboundary or a few random values."""
    n = cx.n_cells(k)
    small = st.integers(-3, 3)
    columns = []
    for _ in range(2 if name == "Z^2" else 1):
        if data.draw(st.booleans()) and cx.n_cells(k - 1):
            matrix = dense_boundary(cx, k)
            x = data.draw(st.lists(small, min_size=len(matrix),
                                   max_size=len(matrix)))
            columns.append((np.array(x) @ matrix).tolist())
        else:
            column = [0] * n
            for cid in data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                          max_size=6, unique=True)):
                column[cid] = data.draw(small.filter(bool))
            columns.append(column)
    if name == "Z/2":
        columns = [[v % 2 for v in columns[0]]]
    values = {}
    for cid, entry in enumerate(zip(*columns)):
        if any(entry):
            values[cid] = entry if name == "Z^2" else entry[0]
    return values


@SETTINGS
@given(lattice_specs(), st.sampled_from(sorted(GROUPS)), st.data())
def test_group_valued_cochains_match_the_cellwise_loops(spec, name, data):
    cx = build(spec)
    if cx is None or cx.dim < 1:
        return
    k = data.draw(st.integers(1, cx.dim))
    if not cx.n_cells(k):
        return  # a constant boundary can collapse every edge
    values = draw_values(data, cx, k, name)
    cochain = ObstructionCochain(cx, k, GROUPS[name], values)

    assert verify_cocycle(cochain) == cocycle_oracle(
        name, values, face_rows(cx, k + 1))
    delta = dense_boundary(cx, k).T.tolist()
    assert obstruction_class(cochain) == coboundary_class_oracle(
        name, values, delta)

    n = cx.n_cells(k)
    cells = data.draw(st.lists(st.integers(0, n - 1), max_size=8,
                               unique=True))
    integral = {c: data.draw(st.integers(-5, 5)) for c in cells}
    real = {c: data.draw(st.floats(-1e3, 1e3)) for c in cells}
    for coeffs, ring in ((integral, RING_INT), (real, RING_REAL)):
        chain = Chain(k, coeffs, ring)
        assert evaluate(cochain, chain) == pairing_oracle(
            name, values, chain.coeffs)


@SETTINGS
@given(lattice_specs(), st.data())
def test_set_valued_cochains_flag_touching_chains(spec, data):
    cx = build(spec)
    if cx is None:
        return
    n = cx.n_vertices
    flagged = data.draw(st.lists(st.integers(0, n - 1), max_size=4,
                                 unique=True))
    group = CoefficientGroup("set", size=2)
    cochain = ObstructionCochain(cx, 0, group, dict.fromkeys(flagged, 1))
    chain = Chain(0, dict.fromkeys(
        data.draw(st.lists(st.integers(0, n - 1), max_size=4)), 1))
    assert verify_cocycle(cochain)
    assert obstruction_class(cochain) == "not_applicable"
    assert evaluate(cochain, chain) == int(bool(set(flagged) & set(
        chain.coeffs)))


def test_pairing_with_a_mod2_chain_is_reduced(disc):
    # Integer and Z^2 values paired with a Z/2 chain are only defined mod
    # 2; they come back reduced, as Cochain.pair reduces them.
    mod2 = Chain(2, {0: 1, 1: 1}, RING_MOD2)
    z = ObstructionCochain(disc, 2, GROUP_Z, {0: 2, 1: 1})
    assert evaluate(z, mod2) == 1
    zz = ObstructionCochain(disc, 2, GROUP_ZxZ, {0: (2, 3), 1: (1, 1)})
    assert evaluate(zz, mod2) == (1, 0)
    assert evaluate(zz, Chain(2, {0: 1, 1: 1})) == (3, 4)


# ---------------------------------------------------------------------------
# the spanning forest and its three callers
# ---------------------------------------------------------------------------

def test_spanning_forest_is_breadth_first_in_edge_order():
    # node 0 is the tail of edge 0 and the head of edge 1, so it reaches 1
    # before 2; the self-loop 3 and the parallel edge 4 add nothing, and
    # node 3 is a root of its own
    heads = [1, 0, 2, 2, 0]
    tails = [0, 2, 4, 2, 1]
    forest = spanning_forest(5, heads, tails)
    assert forest.order.tolist() == [0, 1, 2, 4, 3]
    # roots 0 and 3 have parent and edge -1 and sign 0
    assert forest.parent.tolist() == [-1, 0, 0, -1, 2]
    assert forest.edge.tolist() == [-1, 0, 1, -1, 2]
    assert forest.sign.tolist() == [0, -1, 1, 0, 1]
    assert forest.sums.tolist() == [0] * 5
    bare = spanning_forest(2, [], [])
    assert [a.tolist() for a in bare] == [[0, 1], [-1, -1], [-1, -1],
                                          [0, 0], [0, 0]]


@st.composite
def weighted_graphs(draw):
    """Up to 10 nodes, some of them isolated, and up to 24 edges with
    self-loops, parallel edges and a finite float weight each."""
    n = draw(st.integers(0, 10))
    node = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(node, node), max_size=20)) if n else []
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=4))
    weight = st.floats(allow_nan=False, allow_infinity=False)
    weights = draw(st.lists(weight, min_size=len(edges),
                            max_size=len(edges)))
    return n, edges, weights


@SETTINGS
@given(weighted_graphs())
def test_path_sums_and_parities_follow_the_reference_walk(graph):
    n, edges, weights = graph
    heads, tails = [a for a, _ in edges], [b for _, b in edges]
    forest = spanning_forest(n, heads, tails, weights)
    # the path sums are the reference potentials, bit for bit
    want, _, _ = potentials_oracle(n, edges, dict(enumerate(weights)),
                                   math.inf)
    assert [x.hex() for x in forest.sums.tolist()] == [x.hex() for x in want]
    # weights change no tree, and +-1 steps lift by the parity of the sums
    steps = np.where(np.signbit(weights), -1, 1)
    parity = spanning_forest(n, heads, tails, steps < 0)
    for got, bare in zip(parity[:4], forest[:4]):
        assert got.tolist() == bare.tolist()
    lifted = 1 - 2 * (parity.sums % 2)
    child = np.flatnonzero(forest.parent >= 0)
    assert (lifted[child] == lifted[forest.parent[child]]
            * steps[forest.edge[child]]).all()
    assert (lifted[forest.parent < 0] == 1).all()


@SETTINGS
@given(lattice_specs())
def test_components_match_the_reference_walk(spec):
    cx = build(spec)
    if cx is None:
        return
    edges = edge_ends(cx) if cx.dim >= 1 else []
    ref = components_oracle(cx.n_vertices, edges)
    assert vertex_components(cx) == [ref[v] for v in range(cx.n_vertices)]


@SETTINGS
@given(lattice_specs(), st.data())
def test_potentials_match_the_reference_bfs(spec, data):
    cx = build(spec)
    if cx is None or cx.n_cells(1) == 0:
        return
    # Dyadic potentials give exact drops, others drops whose sums round
    # differently along different paths; one edge may be broken, and some
    # drops are left out (read as 0).
    eighths = st.integers(-40, 40).map(lambda i: i / 8)
    volts = [data.draw(st.one_of(eighths, st.floats(-100, 100)))
             for _ in range(cx.n_vertices)]
    edges = edge_ends(cx)
    drops = {cid: volts[b] - volts[a] for cid, (a, b) in enumerate(edges)}
    for cid in data.draw(st.lists(st.sampled_from(range(len(edges))),
                                  max_size=2, unique=True)):
        del drops[cid]
    if data.draw(st.booleans()):
        broken = data.draw(st.sampled_from(range(len(edges))))
        drops[broken] = drops.get(broken, 0.0) + data.draw(eighths)
    potentials, loop, circulation = potentials_oracle(
        cx.n_vertices, edges, drops, KIRCHHOFF_TOL)
    rep = potential_check(cx, drops)
    assert rep.consistent == (potentials is not None)
    assert rep.potentials == potentials
    if loop is None:
        assert rep.violating_loop is None
    else:
        assert rep.violating_loop.coeffs == loop
        assert list(rep.violating_loop.coeffs) == list(loop)
        assert rep.loop_circulation == circulation


@SETTINGS
@given(lattice_specs(), st.data())
def test_current_residuals_match_the_entry_loop(spec, data):
    cx = build(spec)
    if cx is None or cx.n_cells(1) == 0:
        return
    edges = data.draw(st.lists(st.sampled_from(range(cx.n_cells(1))),
                               unique=True))
    currents = {cid: data.draw(st.floats(-100, 100)) for cid in edges}
    residual = current_residuals_oracle(cx.n_vertices, face_rows(cx, 1),
                                        currents)
    rep = check_current_law(cx, currents)
    assert rep.residuals == {v: r for v, r in enumerate(residual)
                             if abs(r) > KIRCHHOFF_TOL}
    assert rep.max_residual == max(map(abs, residual))
    assert rep.ok == (not rep.residuals)


def _reverse_edges(cx, edges, flip):
    """``cx`` with each edge of ``edges`` reversed: its face coefficients
    and its entries in the 2-cells negated and, with ``flip``, its stored
    vertex tuple reversed."""
    cells = [list(layer) for layer in cx.cells]
    cells[1] = [Cell(c.vertices[::-1] if flip and e in edges else c.vertices,
                     tuple((f, -v if e in edges else v) for f, v in c.faces),
                     c.shape) for e, c in enumerate(cells[1])]
    if len(cells) > 2:
        cells[2] = [Cell(c.vertices, tuple((f, -v if f in edges else v)
                                           for f, v in c.faces), c.shape)
                    for c in cells[2]]
    return DeltaComplex(cx.vertex_labels, cells)


@SETTINGS
@given(st.one_of(lattice_specs(), st.lists(
           st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True),
           min_size=1, max_size=6)),
       st.data())
def test_reversing_edges_changes_only_their_signs(spec, data):
    # Incidence and direction come from the faces: reversing some edges,
    # with or without their stored vertex tuples, changes no group, no
    # component, no verdict and no potential, and a reported loop only by
    # the reversed edges' signs (and one overall sign when its first edge
    # is reversed).
    cx = (build(spec) if isinstance(spec, LatticeSpec)
          else DeltaComplex.from_simplices(spec))
    n_e = cx.n_cells(1) if cx is not None else 0
    if not n_e:
        return
    edges = set(data.draw(st.lists(st.sampled_from(range(n_e)))))
    rv = _reverse_edges(cx, edges, data.draw(st.booleans()))
    assert validate_complex(rv).ok
    for k in range(cx.dim + 1):
        for ring in (RING_INT, RING_MOD2, RING_REAL):
            assert homology(rv, k, ring) == homology(cx, k, ring)
    comp = vertex_components(rv)
    assert comp == vertex_components(cx)
    assert len(set(comp)) == homology(cx, 0, RING_REAL).betti

    def signed(values):
        return {e: -v if e in edges else v for e, v in values.items()}

    currents = {e: data.draw(st.integers(-9, 9)) / 4
                for e in data.draw(st.lists(st.sampled_from(range(n_e))))}
    assert check_current_law(rv, signed(currents)) == \
        check_current_law(cx, currents)
    volts = Cochain(0, {v: data.draw(st.integers(-9, 9)) / 8
                        for v in range(cx.n_vertices)}, RING_REAL)
    drops = {e: 0.0 for e in range(n_e)}
    drops.update(coboundary_map(volts, cx).coeffs)
    if data.draw(st.booleans()):
        drops[data.draw(st.sampled_from(range(n_e)))] += 0.5
    want, got = potential_check(cx, drops), potential_check(rv, signed(drops))
    assert (got.consistent, got.potentials) == (want.consistent,
                                                want.potentials)
    if not want.consistent:
        first = next(iter(want.violating_loop.coeffs))
        turn = -1 if first in edges else 1
        assert got.violating_loop.coeffs == {
            e: turn * v for e, v in signed(want.violating_loop.coeffs).items()}
        assert got.loop_circulation == turn * want.loop_circulation
        assert not boundary_map(want.violating_loop, cx)
        assert not boundary_map(got.violating_loop, rv)
    labels = [data.draw(st.sampled_from("ab")) for _ in range(cx.n_vertices)]
    flags = [OrderField.from_samples(c, make_space("finite_set", ("a", "b")),
                                     dict(zip(c.vertex_labels, labels)))
             for c in (cx, rv)]
    assert boundary_classes(flags[1], 1) == boundary_classes(flags[0], 1)


def test_edge_ends_are_vertices_of_their_0_cells():
    # The 0-cells of B and C are swapped; the edge joins A and C by its
    # faces and by its vertex tuple, so its ends are read through the
    # 0-cells, not used as vertex ids.
    cx = DeltaComplex(["A", "B", "C"], [
        [Cell((0,), ()), Cell((2,), ()), Cell((1,), ())],
        [Cell((0, 2), ((0, -1), (1, 1))), Cell((0, 1), ((0, 1), (2, 1)))]])
    space = make_space("finite_set", ("a", "b"))
    f = OrderField.from_samples(cx, space, {"A": "a", "B": "a", "C": "b"})
    assert boundary_classes(f, 1, [0]) == [1]
    # only the probed edges are read: edge 1 is no graph edge
    for ids, edge in (([1], 1), ([0, 1], 1), (None, 1)):
        with pytest.raises(UnsupportedConfigurationError, match=(
                f"^edge {edge} is not a graph edge: its faces are not one "
                r"tail \(-1\) and one head \(\+1\)$")):
            boundary_classes(f, 1, ids)
    path = DeltaComplex(cx.vertex_labels, [cx.cells[0], cx.cells[1][:1]])
    assert vertex_components(path) == [0, 1, 0]
    rep = potential_check(path, {0: 2.0})
    assert rep.consistent and rep.potentials == [0.0, 0.0, 2.0]
    # the current A -> C leaves A and reaches C, whose 0-cell is 1
    assert check_current_law(path, {0: 1.0}).residuals == {0: -1.0, 2: 1.0}
    # two 0-cells on one vertex name no vertex potential or component
    two = DeltaComplex(["A"], [[Cell((0,), ()), Cell((0,), ())],
                               [Cell((0, 0), ((0, -1), (1, 1)))]])
    f = OrderField.from_samples(two, space, {"A": "a"})
    for probe in (vertex_components, lambda c: potential_check(c, {0: 1.0}),
                  lambda c: check_current_law(c, {0: 1.0}),
                  lambda c: boundary_classes(f, 1)):
        with pytest.raises(UnsupportedConfigurationError, match=(
                "^the 0-cells are not the vertices, one each$")):
            probe(two)


@SETTINGS
@given(lattice_specs())
def test_fundamental_chains_match_the_reference_dfs(spec):
    cx = build(spec)
    if cx is None:
        return
    rep = orientability(cx)
    signs = orientation_oracle(face_rows(cx, cx.dim))
    assert rep.orientable == (signs is not None)
    if signs is not None:
        assert rep.fundamental_chain == Chain(
            cx.dim, dict(enumerate(signs)), RING_INT)
        image = boundary_map(rep.fundamental_chain, cx)
        assert rep.closed == (not image)
        assert rep.boundary_chain == (image if cx.dim else None)


def glued_pieces(rows):
    """Per top cell, a representative of the piece it lies in, joining
    cells across faces with two unit entries."""
    entries = {}
    for cell, row in enumerate(rows):
        for fid, coeff in row:
            if coeff:
                entries.setdefault(fid, []).append((cell, abs(coeff)))
    piece = list(range(len(rows)))

    def find(c):
        while piece[c] != c:
            c = piece[c]
        return c

    for found in entries.values():
        if [w for _, w in found] == [1, 1]:
            piece[find(found[0][0])] = find(found[1][0])
    return [find(c) for c in range(len(rows))]


@SETTINGS
@given(st.one_of(lattice_specs(), st.lists(
           st.lists(st.integers(0, 5), min_size=3, max_size=3, unique=True),
           min_size=1, max_size=8)),
       st.data())
def test_orientability_survives_reversed_cells_and_relabelled_vertices(
        spec, data):
    # Negating the face coefficients of some top cells reverses them: both
    # verdicts stay, and on each piece the top cells glue into, the two
    # fundamental chains and the reversals multiply to one sign.
    cx = (build(spec) if isinstance(spec, LatticeSpec)
          else DeltaComplex.from_simplices(spec))
    if cx is None:
        return
    m, top = cx.dim, cx.layers[cx.dim]
    n = len(top)
    r = np.array(data.draw(st.lists(st.sampled_from([1, -1]), min_size=n,
                                    max_size=n)), dtype=np.int64)
    flipped = CellLayer(top.vertices, top.vertex_ptr, top.faces,
                        top.coeffs * np.repeat(r, np.diff(top.face_ptr)),
                        top.face_ptr, top.shapes)
    rv = DeltaComplex.from_layers(cx.vertex_labels, cx.layers[:m] + (flipped,))
    one, two = orientability(cx), orientability(rv)
    assert (two.orientable, two.closed) == (one.orientable, one.closed)
    if one.orientable:
        s1, s2 = one.fundamental_chain.coeffs, two.fundamental_chain.coeffs
        pieces = glued_pieces(face_rows(cx, m))
        signs = {(pieces[c], s1[c] * s2[c] * int(r[c])) for c in range(n)}
        assert len(signs) == len(set(pieces))

    # Relabelling the vertices of a simplicial complex, here the one the
    # simplices with distinct vertices span, changes no verdict and no
    # group.
    simplices = [c.vertices for cells in cx.cells for c in cells
                 if c.shape == SHAPE_SIMPLEX
                 and len(set(c.vertices)) == len(c.vertices)]
    if not simplices:
        return
    perm = data.draw(st.permutations(range(cx.n_vertices)))
    sx = DeltaComplex.from_simplices(simplices)
    px = DeltaComplex.from_simplices([[perm[v] for v in s]
                                      for s in simplices])
    a, b = orientability(sx), orientability(px)
    assert (b.orientable, b.closed) == (a.orientable, a.closed)
    for k in range(sx.dim + 1):
        for ring in (RING_INT, RING_MOD2, RING_REAL):
            assert homology(px, k, ring) == homology(sx, k, ring)


TOP_SHAPES = {
    "Klein bottle": klein_bottle(),
    "projective plane": [(1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6),
                         (1, 4, 5), (2, 3, 4), (2, 3, 5), (2, 4, 6),
                         (3, 5, 6), (4, 5, 6)],
    "3-page book": [(0, 1, 2, 3 + i) for i in range(3)],
    "two spheres": [s for v in (0, 4) for s in combinations(range(v, v + 4),
                                                            3)],
    "Mobius band": [(i, (i + 1) % 5, (i + 2) % 5) for i in range(5)],
    # two strips on the rings 3-5 and 6-8, glued along the ring 0-1-2, and
    # a path 2-0-1-3: the least cell has no free face, so the residue of
    # a primitive is carried away from the root to an exit
    "cylinder": [t for i in range(3) for r in (3, 6)
                 for t in ((i, (i + 1) % 3, r + i),
                           ((i + 1) % 3, r + i, r + (i + 1) % 3))],
    "path": [(0, 2), (0, 1), (1, 3)],
    "branched path": [(0, 1), (1, 2), (1, 3)],
}


@SETTINGS
@given(st.one_of(lattice_specs(), st.sampled_from(list(TOP_SHAPES.values())),
                 st.lists(st.lists(st.integers(0, 5), min_size=3, max_size=4,
                                   unique=True), min_size=1, max_size=8)),
       st.data())
def test_the_dual_forest_answers_the_top_degree_like_the_walk(spec, data):
    # The forest's H_top, on a manifold-like top layer, has the orders of
    # the walk's group; every dual primitive has δa = c, and where no
    # closed tree is one-sided a top cochain has one exactly when the
    # membership test finds it a coboundary (over Z/2 every closed tree
    # is a cycle).  Where every tree of the gluing has an exit, as on a
    # free box with no defects, every top cochain has one; defects can cut
    # a closed piece out of a free box.
    if isinstance(spec, LatticeSpec):
        cx = build(spec)
    else:
        cx = DeltaComplex.from_simplices(spec)
    if cx is None or cx.dim < 1:
        return
    m, n = cx.dim, cx.n_cells(cx.dim)
    group = homology(cx, m)
    assert generator_orders(cx, m) == [*group.torsion, *[0] * group.betti]
    top = _top_forest(cx)
    closed = top.closed
    if top.manifold_like:
        assert top.cycles == group.betti
    if isinstance(spec, LatticeSpec) and spec.boundary == "free" and not (
            spec.defects or spec.removed_indices):
        assert not closed
    for ring in (RING_INT, RING_MOD2):
        c = Cochain(m, data.draw(st.dictionaries(
            st.integers(0, n - 1), st.sampled_from([-3, -2, -1, 1, 2, 3]),
            min_size=1, max_size=n)), ring)
        a = _top_primitive(cx, c)
        member = _in_image(cx, m, c.coeffs, ring, transpose=True)
        if a is not None:
            assert coboundary_map(a, cx) == c and member
        if top.manifold_like and (ring == RING_MOD2 or top.cycles == closed):
            assert (a is not None) == member
        if not closed:
            assert a is not None


# ---------------------------------------------------------------------------
# coboundary
# ---------------------------------------------------------------------------

def assert_coboundary_matches(cx, k, ring, values):
    """delta of the k-cochain agrees with the cell-by-cell scan in cells,
    values, value types and order; real values bit for bit."""
    x = Cochain(k, values, ring)
    got = coboundary_map(x, cx)
    want = (coboundary_oracle(ring, x.coeffs, cx.layers[k + 1])
            if k < cx.dim else {})

    def entries(coeffs):
        return [(j, type(v), v.hex() if isinstance(v, float) else v)
                for j, v in coeffs.items()]

    assert (got.dim, got.ring) == (k + 1, ring)
    assert entries(got.coeffs) == entries(want)


RING_VALUES = {RING_INT: st.integers(-3, 3), RING_MOD2: st.integers(-3, 3),
               RING_REAL: st.floats(-1e3, 1e3)}


@SETTINGS
@given(lattice_specs(), st.sampled_from(sorted(RING_VALUES)), st.data())
def test_coboundary_matches_the_cellwise_scan(spec, ring, data):
    cx = build(spec)
    if cx is None:
        return
    k = data.draw(st.integers(0, cx.dim))
    n = cx.n_cells(k)
    cells = range(n) if data.draw(st.booleans()) or not n else data.draw(
        st.lists(st.integers(0, n - 1), max_size=8, unique=True))
    values = {c: data.draw(RING_VALUES[ring]) for c in cells}
    assert_coboundary_matches(cx, k, ring, values)


@pytest.mark.parametrize("scheme,box,boundary,axes,repeats", [
    # a period-1 axis glues a cell's lower and upper face into one
    ("triangular", ((0, 1), (0, 2)), "periodic", (1,), True),
    ("cubic", ((0, 1), (0, 2), (0, 2)), "periodic", (1,), True),
    # collapsing the rim makes some edges list one vertex twice
    ("triangular", ((0, 3), (0, 2)), "constant", (), True),
    # period 2: distinct edges share their vertex pair
    ("cubic", ((0, 2), (0, 2), (0, 2)), "periodic", (1, 2, 3), False),
])
def test_coboundary_sums_repeated_faces_like_the_scan(scheme, box, boundary,
                                                      axes, repeats):
    m = len(box)
    eye = tuple(tuple(float(i == j) for j in range(m)) for i in range(m))
    cx, _ = build_lattice_complex(LatticeSpec(
        m, m, eye, box, scheme, boundary=boundary, periodic_axes=axes))
    assert repeats == any(len({f for f, _ in c.faces}) < len(c.faces)
                          for layer in cx.cells for c in layer)
    rng = random.Random(19)
    for k in range(cx.dim + 1):
        cells = range(cx.n_cells(k))
        for ring in RING_VALUES:
            assert_coboundary_matches(cx, k, ring, {
                c: rng.uniform(-10, 10) if ring == RING_REAL
                else rng.randint(-3, 3) for c in cells})
            one = {rng.randrange(len(cells)): 0.1 if ring == RING_REAL else 1}
            assert_coboundary_matches(cx, k, ring, one)


# ---------------------------------------------------------------------------
# boundary of one cell
# ---------------------------------------------------------------------------

def test_boundary_of_cell_refuses_ids_outside_the_degree(disc):
    for k in range(disc.dim + 1):
        n = disc.n_cells(k)
        for ring in (RING_INT, RING_MOD2, RING_REAL):
            for cid in range(n):
                want = Chain(k - 1, {}, ring)
                for fid, coeff in disc.cells[k][cid].faces:
                    want = want + Chain(k - 1, {fid: coeff}, ring)
                assert boundary_of_cell(disc, k, cid, ring) == want
                assert want == boundary_map(Chain(k, {cid: 1}, ring), disc)
        # A negative id names no cell, as in boundary_map: no wrap-around.
        for bad in (n, -1, -n, -n - 1):
            with pytest.raises(IndexError):
                boundary_of_cell(disc, k, bad)
        for bad in (0.0, True):
            with pytest.raises(TypeError):
                boundary_of_cell(disc, k, bad)
    for k in (-1, disc.dim + 1):
        with pytest.raises(DimensionError, match="no cells of dimension"):
            boundary_of_cell(disc, k, 0)


def test_chain_operators_refuse_ids_outside_the_degree(circle):
    # Every degree is range-checked before any early answer: a 0-chain's
    # boundary is empty and the top degree's coboundary is zero, but an id
    # outside the degree still names no cell.
    for bad in (99, 3, -1):
        with pytest.raises(IndexError):
            boundary_map(Chain(0, {bad: 1}), circle)
        with pytest.raises(IndexError):
            is_cycle(Chain(0, {bad: 1}), circle)
        for k in (0, 1):
            with pytest.raises(IndexError):
                coboundary_map(Cochain(k, {bad: 1}), circle)
    assert not boundary_map(Chain(0, {2: 1}), circle)
    assert is_cycle(Chain(0, {2: 1}), circle)
    assert not coboundary_map(Cochain(1, {2: 1}), circle)


@pytest.mark.parametrize("ring", [RING_INT, RING_MOD2, RING_REAL])
def test_a_vertex_chain_bounds_to_the_empty_chain_below(circle, ring):
    # a vertex has no face entries: the boundary of any 0-chain, empty or
    # not, is the empty (-1)-chain over the chain's ring
    for coeffs in ({}, {0: 1, 2: 3}, {1: 0.5}):
        assert boundary_map(Chain(0, coeffs, ring), circle) == \
            Chain(-1, {}, ring)


@pytest.mark.parametrize("make", [Chain, Cochain])
@pytest.mark.parametrize("bad", [1.7, 1.0, True, np.True_, "1", None])
def test_chains_refuse_cell_ids_that_are_not_integers(make, bad):
    # No id is truncated or read as a number: 1.7 and True would both
    # merge into cell 1.  A zero coefficient does not hide the id.
    for coeff in (1, 0):
        with pytest.raises(TypeError):
            make(1, {bad: coeff, 2: 2})


@pytest.mark.parametrize("make", [Chain, Cochain])
def test_chains_read_numpy_integer_ids(make):
    chain = make(1, {np.int64(1): 1, np.uint8(2): 3, 4: 5})
    assert chain.coeffs == {1: 1, 2: 3, 4: 5}
    assert {type(cid) for cid in chain.coeffs} == {int}


def test_coboundary_refuses_degrees_outside_the_complex(circle):
    # As boundary_map does; the top degree still maps to the empty
    # (dim + 1)-cochain, which the cocycle check reads.
    for k in (-1, 2, 7):
        with pytest.raises(DimensionError, match="no cells of dimension"):
            coboundary_map(Cochain(k, {}), circle)
    assert coboundary_map(Cochain(1, {}), circle) == Cochain(2, {})
    assert verify_cocycle(ObstructionCochain(circle, 1, GROUP_Z, {0: 1}))


def test_membership_refuses_bad_ids_like_the_operators(circle):
    # The boundary and class tests share the operators' range check, so
    # the same bad id raises the same exception everywhere.
    for bad in (99, 3, -1):
        for k in (0, 1):
            for test in (is_cycle, is_boundary):
                with pytest.raises(IndexError, match="outside 0..2"):
                    test(Chain(k, {bad: 1}), circle)
            with pytest.raises(IndexError, match="outside 0..2"):
                coboundary_map(Cochain(k, {bad: 1}), circle)
            with pytest.raises(IndexError, match="outside 0..2"):
                obstruction_class(
                    ObstructionCochain(circle, k, GROUP_Z, {bad: 1}))


def test_from_simplices_refusals_are_kept():
    with pytest.raises(ComplexBuildError,
                       match=r"repeated vertex in cell \('B', 'A', 'B'\)"):
        DeltaComplex.from_simplices([("B", "A", "B")])
    with pytest.raises(TypeError):
        DeltaComplex.from_simplices([("A", 1)])


# ---------------------------------------------------------------------------
# one cache policy
# ---------------------------------------------------------------------------

homology_mod = importlib.import_module("crystaltopo.homology")
complexes_mod = importlib.import_module("crystaltopo.complexes")
orderfield_mod = importlib.import_module("crystaltopo.orderfield")


def _every_answer(cx, field=None):
    """What each reader of a complex answers, as comparable values."""
    got = {"cells": cx.cells, "orientability": orientability(cx)}
    for k in range(-1, cx.dim + 2):
        for ring in (RING_INT, RING_MOD2, RING_REAL):
            got["H", k, ring] = homology(cx, k, ring)
            got["H^", k, ring] = cohomology(cx, k, ring)
        got["orders", k] = generator_orders(cx, k)
        got["generators", k] = [(order, chain.coeffs) for order, chain
                                in homology_generators(cx, k)]
    for k in range(cx.dim + 1):
        rows = np.array([c.vertices for c in cx.cells[k][:6]])
        got["find", k] = [a.tolist() for a in cx.find_cells(k, rows)]
        if k:
            got["columns", k] = boundary_columns(cx, k)
            got["bounds", k] = is_boundary(boundary_of_cell(cx, k, 0), cx)
    got["bounds", 0] = is_boundary(Chain(0, {0: 1, 1: -1}), cx)
    if field is not None:
        got["extends"] = extend_field(field)
    return got


def test_every_derived_structure_is_built_once_per_complex(monkeypatch):
    # The walk, the gluing pass, the row triangles, the boundary columns,
    # the vertex-set index and the Cell view are each built on first use
    # and kept: with every builder broken, each reader answers as before.
    holed = build_lattice_complex(dataclasses.replace(
        torus_spec(3, "cubic", 3),
        defects=(DefectSpec("vacancy", index=(1, 1, 1)),)))[0]
    ball = free_cubic_box(4)
    d = np.array(ball.vertex_labels, dtype=float) - [1.6, 2.3, 1.7]
    d /= np.linalg.norm(d, axis=1)[:, None]
    field = OrderField.from_samples(ball, make_space("sphere_2"), dict(zip(
        ball.vertex_labels, map(tuple, d))))
    first = [_every_answer(holed), _every_answer(ball, field)]
    assert first[1]["extends"].blocked_at == 3

    def rebuilt(*args, **kwargs):
        raise AssertionError("a cached structure was built again")

    for owner, name in ((homology_mod, "_Coreduction"),
                        (homology_mod, "spanning_forest"),
                        (CellLayer, "summed_faces"), (CellLayer, "cells"),
                        (complexes_mod, "padded_rows"),
                        (orderfield_mod, "padded_rows")):
        monkeypatch.setattr(owner, name, rebuilt)
    assert [_every_answer(holed), _every_answer(ball, field)] == first


def test_a_build_that_raises_stores_nothing(monkeypatch):
    cx = free_cubic_box(2)
    builds = []

    def broken(complex_):
        builds.append(complex_)
        raise ArithmeticError("broken walk")

    with monkeypatch.context() as patch:
        patch.setattr(homology_mod, "_Coreduction", broken)
        for _ in range(2):
            with pytest.raises(ArithmeticError, match="broken walk"):
                homology(cx, 1)
    assert builds == [cx, cx]
    assert homology(cx, 1) == homology(free_cubic_box(2), 1)
    with pytest.raises(ArithmeticError):
        cx._cached("counts", broken)
    counts = cx._cached("counts", DeltaComplex.cell_counts)
    assert cx._cached("counts", broken) is counts == cx.cell_counts()
