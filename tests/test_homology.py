import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystaltopo import (
    ComplexBuildError,
    DefectSpec,
    LatticeSpec,
    RING_INT,
    RING_MOD2,
    RING_REAL,
    Cell,
    Chain,
    DeltaComplex,
    DimensionError,
    HomologyGroup,
    InternalInconsistencyError,
    OrientabilityReport,
    are_homologous,
    betti_numbers,
    boundary_map,
    build_lattice_complex,
    cohomology,
    euler_characteristic,
    homology,
    homology_generators,
    is_boundary,
    is_cycle,
    orientability,
    validate_complex,
    vertex_components,
)

from conftest import (
    make_cylinder,
    make_grid,
    make_mobius,
    make_rp2,
    make_sphere,
    make_tetra_surface,
    make_torus,
)


# ---------------------------------------------------------------------------
# the reference table
# ---------------------------------------------------------------------------

def test_circle(circle):
    assert betti_numbers(circle) == [1, 1]
    assert euler_characteristic(circle) == 0


def test_disc(disc):
    assert betti_numbers(disc) == [1, 0, 0]
    assert euler_characteristic(disc) == 1


def test_tetrahedron_surface(tetra_surface):
    assert betti_numbers(tetra_surface) == [1, 0, 1]
    assert euler_characteristic(tetra_surface) == 2
    assert str(homology(tetra_surface, 2)) == "Z"


def test_cylinder(cylinder):
    assert betti_numbers(cylinder) == [1, 1, 0]


def test_mobius_looks_like_a_circle(mobius):
    # homotopy equivalent to its core circle, so no torsion anywhere
    assert betti_numbers(mobius) == [1, 1, 0]
    assert homology(mobius, 1).torsion == ()


def test_projective_plane(rp2):
    h0, h1, h2 = (homology(rp2, k) for k in range(3))
    assert (h0.betti, h0.torsion) == (1, ())
    assert (h1.betti, h1.torsion) == (0, (2,))
    assert str(h1) == "Z/2"
    assert (h2.betti, h2.torsion) == (0, ())
    assert euler_characteristic(rp2) == 1


def test_torus(torus):
    assert betti_numbers(torus) == [1, 2, 1]
    assert all(homology(torus, k).torsion == () for k in range(3))
    assert euler_characteristic(torus) == 0


def test_sphere_quotient(sphere):
    assert betti_numbers(sphere) == [1, 0, 1]
    assert euler_characteristic(sphere) == 2


# ---------------------------------------------------------------------------
# coefficient rings
# ---------------------------------------------------------------------------

def test_mod2_sees_the_projective_plane_torsion(rp2):
    assert betti_numbers(rp2, ring=RING_MOD2) == [1, 1, 1]
    assert betti_numbers(rp2, ring=RING_REAL) == [1, 0, 0]


def test_real_and_integer_free_ranks_agree(torus, mobius):
    assert betti_numbers(torus, ring=RING_REAL) == betti_numbers(torus)
    assert betti_numbers(mobius, ring=RING_REAL) == betti_numbers(mobius)


def test_cohomology_shifts_torsion_up(rp2):
    assert str(cohomology(rp2, 1)) == "0"
    assert str(cohomology(rp2, 2)) == "Z/2"
    assert str(cohomology(rp2, 0)) == "Z"


def test_cohomology_of_free_groups_matches_homology(torus):
    for k in range(3):
        assert cohomology(torus, k).betti == homology(torus, k).betti


# ---------------------------------------------------------------------------
# cycles, boundaries, components
# ---------------------------------------------------------------------------

def test_perimeter_classification(circle, disc):
    loop_c = circle.chain(1, {("A", "B"): 1, ("B", "C"): 1, ("A", "C"): -1})
    assert is_cycle(loop_c, circle)
    assert not is_boundary(loop_c, circle)
    # the same loop inside the filled disc bounds
    loop_d = disc.chain(1, {("A", "B"): 1, ("B", "C"): 1, ("A", "C"): -1})
    assert is_cycle(loop_d, disc)
    assert is_boundary(loop_d, disc)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_membership_refuses_real_coefficients_that_are_not_finite(circle,
                                                                  value):
    # A real chain may hold NaN, but no exact membership answer exists for
    # it: each test refuses it by cell, before any early answer (the top
    # degree bounds nothing, a vertex chain needs no cycle check).
    reason = f"^cell 0: coefficient {value!r} is not finite$"
    edges = Chain(1, {0: value}, "reals")
    vertices = Chain(0, {0: value, 1: -value}, "reals")
    zero = Chain(0, {}, "reals")
    for test in (lambda: is_cycle(edges, circle),
                 lambda: is_boundary(edges, circle),
                 lambda: is_boundary(vertices, circle),
                 lambda: are_homologous(vertices, zero, circle),
                 lambda: are_homologous(edges, Chain(1, {}, "reals"), circle)):
        with pytest.raises(ValueError, match=reason):
            test()
    assert is_boundary(Chain(0, {0: 1.5, 1: -1.5}, "reals"), circle)


@pytest.mark.parametrize("chain", [
    Chain(2, {999: 1}), Chain(2, {-1: 1}), Chain(3, {0: 1}), Chain(1, {999: 1})])
def test_boundary_test_range_checks_every_degree(torus, chain):
    # the top degree is checked too, before its early answer, by the chain
    # operators' own check; a degree above the complex is refused before
    # its ids, empty or not, as is_cycle refuses it
    if chain.dim > torus.dim:
        for refused in (chain, Chain(chain.dim, {})):
            with pytest.raises(DimensionError,
                               match="no cells of dimension 3"):
                is_boundary(refused, torus)
        return
    with pytest.raises(IndexError, match="names a cell outside"):
        is_boundary(chain, torus)
    assert is_boundary(Chain(chain.dim, {}), torus)


@pytest.mark.parametrize("dim", [-1, 3, 7])
@pytest.mark.parametrize("coeffs", [{}, {0: 1}])
def test_boundary_tests_refuse_degrees_outside_the_complex(torus, dim, coeffs):
    # one exception for one mistake: is_boundary, are_homologous and
    # is_cycle all refuse a degree with no cells the same way
    for check in (is_boundary, is_cycle,
                  lambda c, cx: are_homologous(c, c, cx)):
        with pytest.raises(DimensionError,
                           match=f"no cells of dimension {dim}"):
            check(Chain(dim, coeffs), torus)


def test_real_cycle_test_is_exact(circle):
    # A tiny coefficient is still a coefficient: no tolerance hides it,
    # so cycle and boundary tests agree.
    tiny = Chain(1, {0: 1e-10}, RING_REAL)
    assert boundary_map(tiny, circle)
    assert not is_cycle(tiny, circle)
    assert not is_boundary(tiny, circle)
    loop = circle.chain(1, {("A", "B"): 0.1, ("B", "C"): 0.1,
                            ("A", "C"): -0.1}, RING_REAL)
    assert is_cycle(loop, circle)
    assert not is_boundary(loop, circle)


def test_real_cycle_test_ignores_float_cancellation():
    # Edge PQ plus t times the path P-R-Q minus the path P-S-Q: the exact
    # boundary is t (Q - P), but summed in floats 1 + 2**-60 - 1 gives 0.
    graph = DeltaComplex.from_simplices(
        [("P", "Q"), ("P", "R"), ("P", "S"), ("Q", "R"), ("Q", "S")],
        auto_close=False)
    t = 2.0 ** -60
    chain = graph.chain(1, {("P", "Q"): 1.0, ("P", "R"): t, ("P", "S"): -1.0,
                            ("Q", "R"): -t, ("Q", "S"): 1.0}, RING_REAL)
    assert not boundary_map(chain, graph)
    assert not is_cycle(chain, graph)
    assert not is_cycle(chain.scale(2.0 ** 60), graph)


def test_homologous_loops_on_cylinder(cylinder):
    top = cylinder.chain(1, {("B", "C"): 1, ("C", "D"): 1, ("B", "D"): -1})
    bottom = cylinder.chain(1, {("A", "E"): 1, ("E", "F"): 1, ("A", "F"): -1})
    assert is_cycle(top, cylinder) and is_cycle(bottom, cylinder)
    assert are_homologous(top, bottom, cylinder)
    assert not is_boundary(top, cylinder)


def test_components_of_disjoint_pieces():
    cx = DeltaComplex.from_simplices([("A", "B"), ("C", "D")])
    assert vertex_components(cx) == [0, 0, 1, 1]
    assert betti_numbers(cx)[0] == 2


def test_double_cover_relation_on_projective_plane(rp2):
    # twice the torsion loop bounds, once does not
    (order, gen), = homology_generators(rp2, 1)
    assert order == 2
    assert is_cycle(gen, rp2)
    assert not is_boundary(gen, rp2)
    assert is_boundary(gen.scale(2), rp2)


# ---------------------------------------------------------------------------
# explicit generators
# ---------------------------------------------------------------------------

def test_circle_generator_is_the_perimeter(circle):
    (order, gen), = homology_generators(circle, 1)
    assert order == 0
    assert is_cycle(gen, circle)
    assert not is_boundary(gen, circle)
    assert set(gen.coeffs.values()) <= {1, -1}


def test_torus_has_two_independent_loops(torus):
    gens = homology_generators(torus, 1)
    assert [o for o, _ in gens] == [0, 0]
    a, b = (g for _, g in gens)
    assert is_cycle(a, torus) and is_cycle(b, torus)
    assert not are_homologous(a, b, torus)


def test_sphere_top_generator(sphere):
    (order, gen), = homology_generators(sphere, 2)
    assert order == 0
    assert not boundary_map(gen, sphere)
    # a fundamental cycle touches every 2-cell once
    assert len(gen.coeffs) == sphere.n_cells(2)


# ---------------------------------------------------------------------------
# orientability
# ---------------------------------------------------------------------------

def test_closed_orientable_surface(tetra_surface):
    rep = orientability(tetra_surface)
    assert rep.orientable and rep.closed
    assert not boundary_map(rep.fundamental_chain, tetra_surface)
    assert set(rep.fundamental_chain.coeffs.values()) <= {1, -1}


def test_cylinder_boundary_splits_into_two_rims(cylinder):
    rep = orientability(cylinder)
    assert rep.orientable and not rep.closed
    rim = rep.boundary_chain
    assert len(rim.coeffs) == 6
    assert not boundary_map(rim, cylinder)


def test_mobius_is_not_orientable(mobius):
    rep = orientability(mobius)
    assert not rep.orientable
    assert rep.fundamental_chain is None
    # mod-2 the band still has a fundamental class
    cert = rep.mod2_certificate
    assert cert is not None
    assert len(cert.coeffs) == mobius.n_cells(2)
    rim = {mobius.label_tuple(1, i) for i in rep.mod2_boundary.coeffs}
    assert rim == {("A", "D"), ("A", "E"), ("B", "C"),
                   ("B", "F"), ("C", "D"), ("E", "F")}


def test_projective_plane_is_not_orientable(rp2):
    rep = orientability(rp2)
    assert not rep.orientable
    # closed even though one-sided: the mod-2 certificate has empty boundary
    assert not rep.mod2_boundary


def test_torus_quotient_is_orientable(torus):
    rep = orientability(torus)
    assert rep.orientable and rep.closed


def test_grid_with_hole_has_no_top_cells_issue():
    cx = make_grid(removed=[(2, 2)])
    rep = orientability(cx)
    assert rep.orientable


NO_ORIENTATION = "no consistent orientation of the top cells exists"


@pytest.mark.parametrize("pages", [3, 4])
def test_a_book_of_three_or_four_pages_is_not_orientable(pages):
    # the spine is an edge of weight 3 or 4; the four pages' entries could
    # cancel on it, so only the weight refuses the 4-page book
    book = DeltaComplex.from_simplices([(0, 1, 2 + i) for i in range(pages)])
    rep = orientability(book)
    assert not rep.orientable and not rep.closed
    assert rep.reason == NO_ORIENTATION


@pytest.mark.parametrize("sign, orientable", [(-1, True), (1, False)])
def test_a_cell_glued_to_itself_cancels_only_with_opposite_signs(sign,
                                                                  orientable):
    # the square a b a^sign b^-1 on one vertex: the torus for -1, the Klein
    # bottle for +1
    cells = [[Cell((0,), ())], [Cell((0,), ()), Cell((0,), ())],
             [Cell((0,), ((0, 1), (1, 1), (0, sign), (1, -1)))]]
    rep = orientability(DeltaComplex("A", cells))
    assert rep.orientable is orientable and rep.closed
    assert rep.reason == ("" if orientable else NO_ORIENTATION)


def test_the_complex_with_no_vertices_is_closed_and_orientable():
    # no top cells: the empty fundamental chain, and no boundary chain in
    # degree 0
    assert orientability(DeltaComplex((), [()])) == OrientabilityReport(
        True, 0, closed=True, fundamental_chain=Chain(0, {}, RING_INT))


# ---------------------------------------------------------------------------
# degrees outside the complex and the Morse complex check
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ring", [RING_INT, RING_MOD2, RING_REAL])
def test_groups_outside_the_degrees_are_zero(ring):
    for cx in (make_torus(), make_rp2(), DeltaComplex((), [()])):
        for k in (-1, cx.dim + 1):
            assert homology(cx, k, ring) == HomologyGroup(k, ring, 0)
            assert cohomology(cx, k, ring) == HomologyGroup(k, ring, 0)


def test_a_nonzero_square_of_the_morse_differential_is_an_error():
    # a loop e with d e = 2a and a 2-cell f with d f = 2e: d d f = 4a,
    # and no unit pairs, so all three cells are critical
    cx = DeltaComplex("a", [[Cell((0,), ())], [Cell((0, 0), ((0, 2),))],
                            [Cell((0, 0, 0), ((0, 2),))]])
    with pytest.raises(InternalInconsistencyError,
                       match=re.escape("Morse complex: d^M_1 d^M_2 is not "
                                       "zero")):
        homology(cx, 1)
    assert validate_complex(cx).messages == (
        "boundary of boundary nonzero on 2-cell 0",)


# ---------------------------------------------------------------------------
# euler bookkeeping
# ---------------------------------------------------------------------------

def test_euler_characteristic_both_ways():
    for cx in (make_torus(), make_sphere(), make_grid()):
        counts = cx.cell_counts()
        from_cells = sum((-1) ** k * n for k, n in enumerate(counts))
        from_betti = sum((-1) ** k * b for k, b in enumerate(betti_numbers(cx)))
        assert euler_characteristic(cx) == from_cells == from_betti


# ---------------------------------------------------------------------------
# invariance under symmetries of the input
# ---------------------------------------------------------------------------

def _groups(cx):
    return [(homology(cx, k), homology(cx, k, RING_MOD2))
            for k in range(cx.dim + 1)]


@st.composite
def translated_vacancies(draw):
    """A sample periodic on some axes, with vacancies in its fundamental
    domain, and the same vacancies shifted by one period vector."""
    m = draw(st.integers(1, 3))
    scheme = draw(st.sampled_from(["triangular", "cubic"]))
    box = tuple((lo, lo + draw(st.integers(2, 4 if m < 3 else 3)))
                for lo in draw(st.lists(st.sampled_from([-1, 0, 2]),
                                        min_size=m, max_size=m)))
    axes = [a for a in range(m) if draw(st.booleans())] or [0]
    domain = [tuple(range(lo, hi if a in axes else hi + 1))
              for a, (lo, hi) in enumerate(box)]
    sites = draw(st.lists(st.tuples(*map(st.sampled_from, domain)),
                          min_size=1, max_size=3, unique=True))
    a = draw(st.sampled_from(axes))
    step = draw(st.sampled_from([1, -1]))
    lo, hi = box[a]
    moved = [s[:a] + (lo + (s[a] - lo + step) % (hi - lo),) + s[a + 1:]
             for s in sites]

    def spec(vacancies):
        return LatticeSpec(
            dimension=m, ambient=m,
            generators=tuple(tuple(float(i == j) for j in range(m))
                             for i in range(m)),
            index_box=box, scheme=scheme, boundary="periodic",
            periodic_axes=tuple(b + 1 for b in axes),
            defects=tuple(DefectSpec("vacancy", index=v) for v in vacancies))

    return spec(sites), spec(moved)


@settings(max_examples=80, deadline=None)
@given(translated_vacancies())
def test_translating_the_vacancies_changes_no_group(specs):
    before, after = specs
    try:
        cx, _ = build_lattice_complex(before)
    except ComplexBuildError as exc:
        with pytest.raises(ComplexBuildError, match=re.escape(str(exc))):
            build_lattice_complex(after)
        return
    cy, _ = build_lattice_complex(after)
    assert cy.cell_counts() == cx.cell_counts()
    assert _groups(cy) == _groups(cx)


@st.composite
def relabelled_complexes(draw):
    """Top simplices of an explicit complex, and the same simplices with
    the vertex labels permuted at random."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 8))
        simplices = draw(st.lists(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=4,
                     unique=True), min_size=1, max_size=10))
    else:
        cx = draw(st.sampled_from(
            [make_cylinder, make_mobius, make_rp2, make_tetra_surface,
             make_torus]))()
        index = {lab: i for i, lab in enumerate(cx.vertex_labels)}
        n = len(index)
        simplices = [[index[cx.vertex_labels[v]] for v in c.vertices]
                     for c in cx.cells[cx.dim]]
    new = draw(st.permutations(range(n)))
    return ([[f"v{v}" for v in s] for s in simplices],
            [[f"v{new[v]}" for v in s] for s in simplices])


@settings(max_examples=100, deadline=None)
@given(relabelled_complexes())
def test_relabelling_the_vertices_changes_no_group(case):
    cx, cy = (DeltaComplex.from_simplices(s) for s in case)
    assert cy.cell_counts() == cx.cell_counts()
    assert _groups(cy) == _groups(cx)
    a, b = orientability(cx), orientability(cy)
    assert (b.orientable, b.closed, b.reason) == \
        (a.orientable, a.closed, a.reason)
