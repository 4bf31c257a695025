"""Explicit homology generators: a byte-level pin and their meaning."""

import dataclasses
import hashlib
import importlib

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from crystaltopo import LatticeSpec, build_lattice_complex
from crystaltopo.complexes import RING_INT, DeltaComplex, incidence_matrix
from crystaltopo.errors import ComplexBuildError, InternalInconsistencyError
from crystaltopo.homology import (
    homology,
    homology_generators,
    is_boundary,
    is_cycle,
    vertex_components,
)
from crystaltopo.lattice import DefectSpec
from crystaltopo.snf import smith_normal_form

from conftest import (
    make_cylinder,
    make_grid,
    make_mobius,
    make_rp2,
    make_sphere,
    make_torus,
)

# The package namespace exports a function named ``homology``.
homology_mod = importlib.import_module("crystaltopo.homology")


def _cubic_torus_3d(n):
    spec = LatticeSpec(
        dimension=3, ambient=3,
        generators=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
        index_box=((0, n), (0, n), (0, n)),
        scheme="cubic", boundary="periodic", periodic_axes=(1, 2, 3))
    cx, _ = build_lattice_complex(spec)
    return cx


def pinned_complexes():
    out = [(f"triangular-torus-{n}", make_torus(n)) for n in range(3, 10)]
    out += [(f"cubic-torus-{n}", make_torus(n, "cubic")) for n in range(2, 5)]
    out += [(f"cubic-torus-3d-{n}", _cubic_torus_3d(n)) for n in (2, 3)]
    out += [("rp2", make_rp2()), ("mobius", make_mobius()),
            ("pinched-sphere", make_sphere()), ("cylinder", make_cylinder()),
            ("holed-grid", make_grid(removed=[(2, 2)]))]
    return out


# SHA-256 over (name, k, order, sorted coefficients) of every generator of
# ``pinned_complexes`` in every degree.  Generator chains are part of the
# byte-identical output contract: a faster reduction must reproduce them.
GENERATOR_PIN = (
    "f9140f430150ae79d0882cb3049631aacf44016d53ecc2e4fc67a5cd0c655cdf")


def test_generator_chains_are_pinned():
    digest = hashlib.sha256()
    for name, cx in pinned_complexes():
        for k in range(cx.dim + 1):
            for order, chain in homology_generators(cx, k):
                record = (name, k, order, sorted(chain.coeffs.items()))
                digest.update(repr(record).encode())
    assert digest.hexdigest() == GENERATOR_PIN


@st.composite
def lattice_specs(draw):
    m = draw(st.integers(1, 3))
    scheme = draw(st.sampled_from(["triangular", "cubic"]))
    boundary = draw(st.sampled_from(["free", "periodic"]))
    top = 1 if (m == 3 and scheme == "triangular") else 2
    box = tuple((0, draw(st.integers(1, top))) for _ in range(m))
    axes = ()
    if boundary == "periodic":
        axes = tuple(a + 1 for a in range(m) if draw(st.booleans())) or (1,)
    sites = [()]
    for lo, hi in box:
        sites = [p + (c,) for p in sites for c in range(lo, hi + 1)]
    vacancies = draw(st.lists(st.sampled_from(sites), max_size=2,
                              unique=True))
    return LatticeSpec(
        dimension=m, ambient=m,
        generators=tuple(tuple(float(i == j) for j in range(m))
                         for i in range(m)),
        index_box=box, scheme=scheme, boundary=boundary,
        periodic_axes=axes,
        defects=tuple(DefectSpec("vacancy", index=v) for v in vacancies))


def assert_generators_mean_homology(cx):
    for k in range(cx.dim + 1):
        group = homology(cx, k)
        gens = homology_generators(cx, k)
        orders = sorted(order for order, _ in gens if order)
        assert orders == sorted(group.torsion)
        assert sum(1 for order, _ in gens if order == 0) == group.betti
        for order, chain in gens:
            assert chain.dim == k and chain.ring == RING_INT
            assert is_cycle(chain, cx)
            assert not is_boundary(chain, cx)
            if order:
                assert is_boundary(chain.scale(order), cx)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(lattice_specs())
def test_generators_are_cycles_that_realise_the_group(spec):
    try:
        cx, _ = build_lattice_complex(spec)
    except ComplexBuildError:
        assume(False)  # every site removed, or a vacancy hit its own orbit
    assert_generators_mean_homology(cx)


def test_torsion_and_non_orientable_generators():
    for cx in (make_rp2(), make_mobius()):
        assert_generators_mean_homology(cx)


def test_a_boundary_column_that_is_no_cycle_is_refused(monkeypatch):
    cx = make_torus(3)
    homology(cx, 1)  # cache the ranks before the columns are corrupted
    real = homology_mod.boundary_columns

    def corrupt(complex_, k):
        columns = real(complex_, k)
        return [{0: 1}, *columns[1:]] if k == 2 else columns

    monkeypatch.setattr(homology_mod, "boundary_columns", corrupt)
    with pytest.raises(InternalInconsistencyError):
        homology_generators(cx, 1)


# ---------------------------------------------------------------------------
# H_0: the tracked Smith form against the components
# ---------------------------------------------------------------------------

def h0_by_smith(cx):
    """H_0 generators as the general path finds them: the columns of U^-1
    from the tracked Smith form U d_1 V = D beyond the unit pivots."""
    n0 = cx.n_cells(0)
    if cx.dim == 0 or cx.n_cells(1) == 0:
        return [(0, {i: 1}) for i in range(n0)]
    dec = smith_normal_form(incidence_matrix(cx, 1))
    diagonal = dec.diagonal
    out = []
    for j in range(n0):
        order = diagonal[j] if j < len(diagonal) else 0
        if order != 1:
            out.append((order, {i: row[j] for i, row in enumerate(dec.uinv)
                                if row[j]}))
    out.sort(key=lambda t: (t[0] == 0, t[0]))
    return out


@st.composite
def explicit_complexes(draw):
    """Random simplices on a few labels: often disconnected, with
    isolated vertices."""
    n = draw(st.integers(1, 9))
    labels = draw(st.permutations([f"v{i}" for i in range(n)]))
    simplices = draw(st.lists(
        st.lists(st.sampled_from(labels), min_size=1, max_size=3,
                 unique=True), min_size=1, max_size=8))
    return DeltaComplex.from_simplices(simplices)


@st.composite
def any_lattice_specs(draw):
    spec = draw(lattice_specs())
    if draw(st.booleans()):
        spec = dataclasses.replace(spec, boundary="constant",
                                   periodic_axes=())
    return spec


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(st.one_of(any_lattice_specs(), explicit_complexes()))
def test_h0_generators_are_the_largest_vertex_of_each_component(case):
    if isinstance(case, LatticeSpec):
        try:
            case, _ = build_lattice_complex(case)
        except ComplexBuildError:
            assume(False)
    components = vertex_components(case)
    largest = dict(zip(components, range(len(components))))
    gens = homology_generators(case, 0)
    assert [(order, chain.coeffs) for order, chain in gens] == \
        h0_by_smith(case)
    assert sorted((order, *chain.coeffs.items()) for order, chain in gens) \
        == [(0, (v, 1)) for v in sorted(largest.values())]


def test_h0_generators_follow_the_pivot_order_not_the_components():
    # The vertex set is the largest vertex of each component, but the order
    # is the row order the Smith form leaves behind: here the isolated
    # vertex 1 comes before vertex 2 of the component {0, 2}.
    cx = DeltaComplex.from_simplices([("v0", "v2"), ("v1",)])
    assert [chain.coeffs for _, chain in homology_generators(cx, 0)] == \
        [{1: 1}, {2: 1}]
