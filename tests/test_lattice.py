import dataclasses
import hashlib
import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystaltopo import (
    ComplexBuildError,
    DefectLocusError,
    DefectSpec,
    DegenerateGeneratorsError,
    DimensionError,
    LatticeSpec,
    apply_constant_boundary,
    apply_defects,
    betti_numbers,
    build_complex,
    build_lattice_complex,
    check_generators,
    reciprocal_basis,
    unit_cell_volume,
)
from crystaltopo.cli import main
from crystaltopo.complexes import CellLayer
from crystaltopo.lattice import MAX_BOX_SITES

from conftest import lattice_specs
from oracles import (
    SampleRefused,
    box_points,
    lattice_sites_oracle,
    periodic_quotient_oracle,
    torus_site,
)


def _spec(**kw):
    base = dict(dimension=2, ambient=2,
                generators=((1.0, 0.0), (0.0, 1.0)),
                index_box=((0, 2), (0, 2)),
                scheme="cubic")
    base.update(kw)
    return LatticeSpec(**base)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_colinear_generators_rejected():
    with pytest.raises(DegenerateGeneratorsError):
        check_generators([(1.0, 0.0), (2.0, 0.0)], m=2, n=2)


def test_nearly_dependent_generators_rejected():
    with pytest.raises(DegenerateGeneratorsError):
        check_generators([(1.0, 0.0), (1.0, 1e-14)], m=2, n=2)


@pytest.mark.parametrize("n", [2, 3])
def test_independence_keeps_the_condition_unsquared(n):
    # the spanned area 1e-8 stands above INDEPENDENCE_RTOL = 1e-10 and is
    # accepted, in the plane and in space; its square, a Gram
    # determinant, would round away to 0
    def pair(eps):
        return [(1.0, 0.0, 0.0)[:n], (1.0, eps, 0.0)[:n]]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(check_generators(pair(1e-8), m=2, n=n),
                              pair(1e-8))
        with pytest.raises(DegenerateGeneratorsError,
                           match="lies in the span of the others"):
            check_generators(pair(1e-12), m=2, n=n)


def test_more_generators_than_ambient_dimensions_span_no_volume():
    with pytest.raises(DegenerateGeneratorsError,
                       match="lies in the span of the others"):
        check_generators([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)], m=3, n=2)


def test_fewer_generators_than_ambient_dimensions():
    gens = check_generators([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)], m=2, n=3)
    assert gens.shape == (2, 3)
    # a sheared full-rank (hexagonal) basis is accepted and returned as is
    hexagonal = [(1.0, 0.0), (0.5, math.sqrt(3) / 2)]
    assert np.array_equal(check_generators(hexagonal, m=2, n=2), hexagonal)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_generators_rejected(bad):
    # refused before the Gram test, which would only warn on them
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateGeneratorsError, match="finite"):
            check_generators([(1.0, 0.0), (0.0, bad)], m=2, n=2)


HUGE_AND_TINY = [[(1e200, 0.0), (0.0, 1e200)], [(1e200,)],
                 [(1e-200, 0.0), (0.0, 1e-200)], [(1e-200,)]]


@pytest.mark.parametrize("gens", HUGE_AND_TINY)
def test_huge_and_tiny_generators_pass_without_warnings(gens):
    # the verdict is scale-free: no norm or Gram determinant overflows or
    # underflows, and the generators come back as given
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        A = check_generators(gens, m=len(gens), n=len(gens[0]))
    assert np.array_equal(A, gens)


@pytest.mark.parametrize("gens, message", [
    ([(1e200, 1.0), (2e200, 2.0)], "generator 1 lies in the span"),
    ([(1.0, 0.0), (1.0, 1e-14)], "generator 1 lies in the span"),
    ([(1e-200, 0.0), (0.0, 0.0)], "generator 2 is the zero vector"),
])
def test_dependent_generators_are_named_at_any_scale(gens, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateGeneratorsError, match=message):
            check_generators(gens, m=2, n=2)


@pytest.mark.parametrize("gens", HUGE_AND_TINY)
def test_build_accepts_huge_and_tiny_generators(capsys, tmp_path, gens):
    m = len(gens)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({
        "dimension": m, "ambient": m, "generators": gens,
        "index_box": [[0, 2]] * m, "scheme": "cubic"}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["build", str(path)]) == 0
    assert "validation: ok" in capsys.readouterr().out


def test_unit_cell_volume_rectangular():
    assert unit_cell_volume([(2, 0, 0), (0, 3, 0), (0, 0, 4)]) == pytest.approx(24.0)


def test_unit_cell_volume_sheared():
    # shear does not change the volume
    assert unit_cell_volume([(1, 0), (1, 1)]) == pytest.approx(1.0)


def test_unit_cell_volume_needs_a_square_generator_matrix():
    with pytest.raises(DimensionError, match="^unit cell volume needs as many "
                                             "generators as ambient dimensions$"):
        unit_cell_volume([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)])


def test_reciprocal_basis_duality():
    gens = [(1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
    rec = reciprocal_basis(gens)
    assert np.allclose(rec, [(1, -1, 0), (0, 1, 0), (0, 0, 1)])
    assert np.allclose(np.asarray(gens) @ rec.T, np.eye(3), atol=1e-12)


def test_reciprocal_basis_rectangular_case():
    rec = reciprocal_basis([(2.0, 0.0), (0.0, 4.0)])
    assert np.allclose(rec, [(0.5, 0.0), (0.0, 0.25)])


# ---------------------------------------------------------------------------
# defects
# ---------------------------------------------------------------------------

def _grid(box):
    """The site grid of a free box: every site present."""
    return np.ones([hi - lo + 1 for lo, hi in box], dtype=bool)


def test_vacancy_removes_one_point():
    sites = _grid(((0, 2), (0, 2)))
    rep = apply_defects(
        sites, ((0, 2), (0, 2)), [DefectSpec("vacancy", index=(1, 1))])
    assert not sites[1, 1]
    assert np.count_nonzero(sites) == sites.size - 1
    assert rep["removed_total"] == 1


def test_misaddressed_vacancy_is_an_error():
    box = ((0, 2), (0, 2))
    sites = _grid(box)
    with pytest.raises(DefectLocusError):
        apply_defects(sites, box, [DefectSpec("vacancy", index=(9, 9))])
    # removing the same site twice is also misaddressed
    apply_defects(sites, box, [DefectSpec("vacancy", index=(1, 1))])
    with pytest.raises(DefectLocusError):
        apply_defects(sites, box, [DefectSpec("vacancy", index=(1, 1))])


def test_line_defect_removes_a_full_line():
    box = ((0, 2), (0, 2), (0, 2))
    sites = _grid(box)
    apply_defects(
        sites, box, [DefectSpec("line_defect", axis=3, transverse=(1, 1))])
    assert sites.size - np.count_nonzero(sites) == 3
    assert not sites[1, 1, :].any()


def test_surface_defect_removes_a_full_plane():
    box = ((0, 2), (0, 3), (0, 1))
    sites = _grid(box)
    rep = apply_defects(
        sites, box, [DefectSpec("surface_defect", axis=2, coordinate=3)])
    expected = _grid(box)
    expected[:, 3, :] = False
    assert np.array_equal(sites, expected)
    assert rep["surface_defects"] == [
        {"axis": 2, "coordinate": 3, "removed": 6}]
    assert rep["removed_total"] == 6


@pytest.mark.parametrize("coordinate,defects", [
    (5, []),  # outside the box
    # the plane is gone already: removed as a plane, or as a line in 2D
    (1, [DefectSpec("surface_defect", axis=1, coordinate=1)]),
    (0, [DefectSpec("line_defect", axis=2, transverse=(0,))])])
def test_surface_defect_that_misses_every_site_is_an_error(coordinate,
                                                           defects):
    box = ((0, 2), (0, 2))
    surface = DefectSpec("surface_defect", axis=1, coordinate=coordinate)
    with pytest.raises(DefectLocusError,
                       match=f"surface defect at axis 1 = {coordinate} "
                             "misses every site"):
        apply_defects(_grid(box), box, [*defects, surface])


@pytest.mark.parametrize("defects, outcome", [
    # either end of a periodic axis names one site, so the second vacancy
    # finds it gone
    ((DefectSpec("vacancy", index=(0, 0)), DefectSpec("vacancy", index=(4, 0))),
     "vacancy (4, 0) addresses a site that is already absent"),
    # a line along a periodic axis meets each of its 4 sites once
    ((DefectSpec("line_defect", axis=1, transverse=(2,)),),
     [(x, 2) for x in range(4)]),
    # a plane at the top of a periodic axis is the bottom plane
    ((DefectSpec("surface_defect", axis=2, coordinate=4),),
     [(x, 0) for x in range(4)])])
def test_periodic_defects_count_torus_sites(defects, outcome):
    spec = _spec(index_box=((0, 4), (0, 4)), boundary="periodic",
                 defects=defects)
    if isinstance(outcome, str):
        with pytest.raises(DefectLocusError, match=re.escape(outcome)):
            build_lattice_complex(spec)
        return
    cx, rep = build_lattice_complex(spec)
    torus = set(itertools.product(range(4), repeat=2))
    assert sorted(torus - set(cx.vertex_labels)) == outcome
    assert rep["defects"]["removed_total"] == len(outcome)
    # the report counts box points: each periodic image of a survivor
    assert rep["sites"] == sum((x % 4, y % 4) not in outcome
                               for x, y in box_points(((0, 4), (0, 4))))


def test_oversized_box_is_refused_before_materialising():
    # the limit is inclusive: a 1D box of exactly MAX_BOX_SITES sites builds
    line = dict(dimension=1, ambient=1, generators=((1.0,),))
    _, rep = build_lattice_complex(_spec(**line,
                                         index_box=((1, MAX_BOX_SITES),)))
    assert rep["sites"] == MAX_BOX_SITES
    with pytest.raises(ComplexBuildError, match=str(MAX_BOX_SITES + 1)):
        build_lattice_complex(_spec(**line, index_box=((0, MAX_BOX_SITES),)))
    side = math.isqrt(MAX_BOX_SITES)
    with pytest.raises(ComplexBuildError, match=str((side + 1) ** 2)):
        build_lattice_complex(_spec(index_box=((0, side), (0, side))))
    with pytest.raises(ComplexBuildError, match=str((10 ** 6 + 1) ** 2)):
        build_lattice_complex(_spec(index_box=((0, 10 ** 6), (0, 10 ** 6))))
    with pytest.raises(ComplexBuildError, match="empty"):
        build_lattice_complex(_spec(index_box=((0, 2), (3, 1))))


@pytest.mark.parametrize("shape", [(3, 4), (5, 2), (3,), (4, 4, 1), (0, 4)])
def test_site_grid_must_fit_the_box(shape):
    # each axis holds hi - lo + 1 positions, or hi - lo when periodic
    box = ((0, 4), (0, 3))
    with pytest.raises(ComplexBuildError, match="does not fit the box"):
        apply_defects(np.ones(shape, dtype=bool), box,
                      [DefectSpec("vacancy", index=(4, 0))])
    for fits in [(4, 4), (5, 3), (4, 3)]:
        apply_defects(np.ones(fits, dtype=bool), box, [])


def test_substitution_marker_removes_nothing():
    box = ((0, 1), (0, 1))
    sites = _grid(box)
    rep = apply_defects(
        sites, box, [DefectSpec("substitution_marker", index=(0, 0))])
    assert sites.all()
    assert rep["markers"] == [(0, 0)]


@pytest.mark.parametrize("defects", [
    [DefectSpec("vacancy", index=(1, 0))],
    [DefectSpec("surface_defect", axis=2, coordinate=0)]])
def test_substitution_marker_on_an_absent_site_is_an_error(defects):
    box = ((0, 1), (0, 1))
    marker = DefectSpec("substitution_marker", index=(1, 0))
    with pytest.raises(DefectLocusError, match=re.escape(
            "substitution marker (1, 0) addresses an absent site")):
        apply_defects(_grid(box), box, [*defects, marker])
    # nor may it point outside the box
    with pytest.raises(DefectLocusError, match="absent site"):
        apply_defects(_grid(box), box, [
            DefectSpec("substitution_marker", index=(2, 0))])


@pytest.mark.parametrize("defect, field", [
    (DefectSpec("surface_defect", axis=1, coordinate=True), "coordinate"),
    (DefectSpec("surface_defect", axis=1.0, coordinate=1), "axis"),
    (DefectSpec("line_defect", axis=True, transverse=(0,)), "axis"),
    (DefectSpec("line_defect", axis=1, transverse=(0.5,)), "transverse"),
    (DefectSpec("vacancy", index=(1.0, True)), "index"),
    (DefectSpec("vacancy", index=("1", 1)), "index"),
    (DefectSpec("substitution_marker", index=3), "index"),
])
def test_defect_spec_fields_must_be_integers(defect, field):
    with pytest.raises(DefectLocusError, match=f"{defect.kind} {field} must"):
        defect.validated(2)
    with pytest.raises(DefectLocusError, match=f"{defect.kind} {field} must"):
        apply_defects(_grid(((0, 2), (0, 2))), ((0, 2), (0, 2)), [defect])


def test_defect_spec_arity_validation():
    with pytest.raises(DefectLocusError):
        DefectSpec("vacancy", index=(1,)).validated(2)
    with pytest.raises(DefectLocusError):
        DefectSpec("line_defect", axis=4, transverse=(0, 0)).validated(3)
    with pytest.raises(DefectLocusError):
        DefectSpec("no_such_kind", index=(0, 0)).validated(2)


def test_a_surface_defect_needs_its_coordinate():
    with pytest.raises(DefectLocusError,
                       match="^surface_defect needs a coordinate$"):
        DefectSpec("surface_defect", axis=1).validated(2)
    assert DefectSpec("surface_defect", axis=1, coordinate=0).validated(2)


# ---------------------------------------------------------------------------
# boundary conditions
# ---------------------------------------------------------------------------

def test_free_boundary_plain_grid():
    cx, rep = build_lattice_complex(_spec(scheme="triangular"))
    assert cx.cell_counts() == [9, 16, 8]
    assert betti_numbers(cx) == [1, 0, 0]


def test_constant_boundary_pinches_rim_to_a_point():
    cx, _ = build_lattice_complex(_spec(
        scheme="triangular", index_box=((0, 4), (0, 4)), boundary="constant"))
    assert cx.cell_counts() == [10, 40, 32]
    assert betti_numbers(cx) == [1, 0, 1]


def test_constant_boundary_single_cell():
    # one square with its whole rim identified: still a sphere
    cx, _ = build_lattice_complex(_spec(
        scheme="triangular", index_box=((0, 1), (0, 1)), boundary="constant"))
    assert betti_numbers(cx) == [1, 0, 1]


def test_periodic_boundary_torus_counts():
    cx, _ = build_lattice_complex(_spec(
        scheme="triangular", index_box=((0, 3), (0, 3)),
        boundary="periodic", periodic_axes=(1, 2)))
    assert cx.cell_counts() == [9, 27, 18]
    assert betti_numbers(cx) == [1, 2, 1]


def test_periodic_boundary_smallest_torus():
    cx, _ = build_lattice_complex(_spec(
        scheme="triangular", index_box=((0, 1), (0, 1)),
        boundary="periodic", periodic_axes=(1, 2)))
    assert cx.cell_counts() == [1, 3, 2]
    assert betti_numbers(cx) == [1, 2, 1]


def test_periodic_boundary_cubic_scheme():
    cx, _ = build_lattice_complex(_spec(
        index_box=((0, 2), (0, 2)), boundary="periodic", periodic_axes=(1, 2)))
    assert cx.cell_counts() == [4, 8, 4]
    assert betti_numbers(cx) == [1, 2, 1]


def test_periodic_single_axis_gives_cylinder():
    cx, _ = build_lattice_complex(_spec(
        scheme="triangular", index_box=((0, 3), (0, 2)),
        boundary="periodic", periodic_axes=(1,)))
    assert betti_numbers(cx) == [1, 1, 0]


def test_three_torus():
    cx, _ = build_lattice_complex(LatticeSpec(
        dimension=3, ambient=3,
        generators=((1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0)),
        index_box=((0, 2), (0, 2), (0, 2)),
        scheme="cubic", boundary="periodic", periodic_axes=(1, 2, 3)))
    assert cx.cell_counts() == [8, 24, 24, 8]
    assert betti_numbers(cx) == [1, 3, 3, 1]


def test_removed_indices_expand_over_periodic_orbit():
    # removing a wrapped representative must remove its whole orbit
    cx, _ = build_lattice_complex(_spec(
        scheme="triangular", index_box=((0, 3), (0, 3)),
        removed_indices=((3, 1),),
        boundary="periodic", periodic_axes=(1, 2)))
    assert cx.n_cells(0) == 8


# ---------------------------------------------------------------------------
# quotient contract: byte-identical complexes across boundary treatments
# ---------------------------------------------------------------------------

def _grid_spec(m, scheme, box, **kw):
    gens = tuple(tuple(1.0 if i == j else 0.0 for j in range(m))
                 for i in range(m))
    return LatticeSpec(dimension=m, ambient=m, generators=gens,
                       index_box=box, scheme=scheme, **kw)


_LINE = DefectSpec("line_defect", axis=2, transverse=(0,))
_SEAM_LINE = DefectSpec("line_defect", axis=3, transverse=(0, 0))

# name -> spec.  Both schemes, dimensions 1-3, every boundary kind,
# subsets of periodic axes, period-1 axes, defects on periodic seams, and
# free grids with defects (which pin the grid builder itself).
QUOTIENT_SPECS = {
    "cubic1-free": _grid_spec(1, "cubic", ((0, 4),)),
    "cubic1-constant": _grid_spec(1, "cubic", ((0, 4),), boundary="constant"),
    "cubic1-periodic": _grid_spec(1, "cubic", ((0, 4),), boundary="periodic"),
    "tri1-period1": _grid_spec(1, "triangular", ((0, 1),),
                               boundary="periodic"),
    "cubic2-constant-vacancy": _grid_spec(
        2, "cubic", ((0, 3), (0, 2)), boundary="constant",
        defects=(DefectSpec("vacancy", index=(1, 1)),)),
    "tri2-constant": _grid_spec(2, "triangular", ((0, 3), (0, 3)),
                                boundary="constant"),
    "tri2-periodic-seam-vacancy": _grid_spec(
        2, "triangular", ((0, 3), (0, 3)), boundary="periodic",
        removed_indices=((0, 0),)),
    "cubic2-periodic-axis1-seam-line": _grid_spec(
        2, "cubic", ((0, 3), (0, 2)), boundary="periodic",
        periodic_axes=(1,), defects=(_LINE,)),
    "tri2-periodic-axis2": _grid_spec(2, "triangular", ((0, 2), (0, 3)),
                                      boundary="periodic", periodic_axes=(2,)),
    "tri2-period1": _grid_spec(2, "triangular", ((0, 1), (0, 3)),
                               boundary="periodic"),
    "cubic3-periodic-corner-vacancy": _grid_spec(
        3, "cubic", ((0, 2), (0, 2), (0, 2)), boundary="periodic",
        defects=(DefectSpec("vacancy", index=(2, 2, 2)),)),
    "cubic3-constant": _grid_spec(3, "cubic", ((0, 2), (0, 3), (0, 2)),
                                  boundary="constant"),
    "tri3-periodic-axes13": _grid_spec(
        3, "triangular", ((0, 2), (0, 2), (0, 2)), boundary="periodic",
        periodic_axes=(1, 3)),
    "tri3-constant-vacancy": _grid_spec(
        3, "triangular", ((0, 3), (0, 3), (0, 3)), boundary="constant",
        removed_indices=((1, 2, 1),)),
    "cubic3-period1-seam-line": _grid_spec(
        3, "cubic", ((0, 1), (0, 2), (0, 2)), boundary="periodic",
        periodic_axes=(1, 2), defects=(_SEAM_LINE,)),
    "tri3-free": _grid_spec(3, "triangular", ((0, 1), (0, 1), (0, 2))),
    "cubic2-free-vacancy": _grid_spec(
        2, "cubic", ((0, 3), (0, 2)),
        defects=(DefectSpec("vacancy", index=(1, 1)),)),
    "cubic3-free-line": _grid_spec(
        3, "cubic", ((0, 2), (0, 2), (0, 3)),
        defects=(DefectSpec("line_defect", axis=3, transverse=(1, 1)),)),
    "tri1-free": _grid_spec(1, "triangular", ((0, 4),)),
    "tri2-free-vacancy": _grid_spec(
        2, "triangular", ((0, 3), (0, 3)),
        defects=(DefectSpec("vacancy", index=(1, 2)),)),
}

# SHA-256 of the canonical JSON of (vertex labels, cells, lattice info,
# build report); a change to any of these is a change of the quotient.
QUOTIENT_SHA256 = {
    "cubic1-constant":
        "d993bebbb8d599f23d2ee18c15a2e941dedba3b2843c89526924fa49a579a89d",
    "cubic1-free":
        "2f64d8173e1bfc8498977015ca57fe3471a6e4aa5b0dc7c920072f1a1674ae64",
    "cubic1-periodic":
        "468b6ddee9c21d01d246c2f5fbffb54941e22c1677312160c9ef9f73491c83f6",
    "cubic2-constant-vacancy":
        "94bdc940d39621c43f53fbc29d450def52c62941dc91afe46abaf1bf2fb422ba",
    "cubic2-free-vacancy":
        "bde1ca0656a9fb6bd17459ff40f594eb67f1c7c57b9673018ec415dcd724ef41",
    "cubic2-periodic-axis1-seam-line":
        "35ff4350598668fd8b50612de4492a5b3d84a410b997fd8ec5a21781537b5cd3",
    "cubic3-constant":
        "2638a287b3dab74d2b258788860c9f84990f05fc7bb93a368b1a07e11bbf71c3",
    "cubic3-free-line":
        "4e0541dfdbe8b6fbbb1cb276e9ea918e88744beb0326b36d13a71161eb390537",
    "cubic3-period1-seam-line":
        "6606ab03f66f30c5ab179e739d3468aabaed411c70861fd48a7f20a36ae6510f",
    "cubic3-periodic-corner-vacancy":
        "da0be6666a25d28dc6685203a86c25c377121a7a01dce78574385f6ac346cbdd",
    "tri1-free":
        "f14089b73b2b0861ec1cd1081d9651b8e44bad2b6a7c7f581e2e9475243b3474",
    "tri1-period1":
        "472bd2acdf85b5acb493e8333d2e49e4b68ea91ec78b4c2e9bc9d8c39297ba42",
    "tri2-constant":
        "a32dd231b61b932a51a1d3328e7253f4d2b8936ba970d268eb46ec9858fc1bfd",
    "tri2-free-vacancy":
        "2c4f82fcd2bd4862a62fbc55ce85fe3e08b9e2e38faf9e62703552d6adcfde5c",
    "tri2-period1":
        "6afa406b54fc077d3b44bb5f0d55a1969f0c026251c4200fd17375ec0f285a4d",
    "tri2-periodic-axis2":
        "bbf66dba4f6eb2f077934947b267334e644583b2d92080896db477a021022d40",
    "tri2-periodic-seam-vacancy":
        "5e619ceb020e607ed1b4b4c66d05a0ccf39467e1d5228f9e0eee310e889b5967",
    "tri3-constant-vacancy":
        "97240769f7810d25c89a2a7ecf28c787313dd390477e8b21f998eb04ed14de9c",
    "tri3-free":
        "59cb37beddc1a812394010ba45ab284378895cb875ff8492860d2f0e20f93eb6",
    "tri3-periodic-axes13":
        "8799fe029335f0ff57e453108504a9c07bf2fd278a224f70da974d7efd3a0a28",
}


def _quotient_digest(spec):
    cx, report = build_lattice_complex(spec)
    payload = [cx.vertex_labels,
               [[[c.vertices, c.faces, c.shape] for c in layer]
                for layer in cx.cells],
               cx.lattice_info, report]
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(QUOTIENT_SPECS))
def test_quotient_output_is_pinned(name):
    assert _quotient_digest(QUOTIENT_SPECS[name]) == QUOTIENT_SHA256[name]


# ---------------------------------------------------------------------------
# direct torus build against the free build glued by the slow reference
# ---------------------------------------------------------------------------

@st.composite
def torus_specs(draw):
    m = draw(st.integers(1, 3))
    scheme = draw(st.sampled_from(["triangular", "cubic"]))
    top = 2 if m == 3 else 3
    box = tuple((lo, lo + draw(st.integers(1, top)))
                for lo in draw(st.lists(st.sampled_from([-1, 0, 2]),
                                        min_size=m, max_size=m)))
    axes = tuple(a + 1 for a in range(m) if draw(st.booleans()))
    sites = box_points(box)
    removed = draw(st.lists(st.sampled_from(sites), max_size=2, unique=True))
    defects = [DefectSpec("vacancy", index=v) for v in
               draw(st.lists(st.sampled_from(sites), max_size=2, unique=True))]
    if m > 1 and draw(st.booleans()):
        axis = draw(st.integers(1, m))
        site = draw(st.sampled_from(sites))
        defects.append(DefectSpec(
            "line_defect", axis=axis,
            transverse=tuple(c for a, c in enumerate(site) if a != axis - 1)))
    return _grid_spec(m, scheme, box, boundary="periodic", periodic_axes=axes,
                      removed_indices=tuple(removed), defects=tuple(defects))


def _torus_by_quotient(spec):
    """The torus the slow way: the surviving box points from the set
    oracle, a free build on them, and the reference quotient."""
    box = spec.index_box
    axes = tuple(a - 1 for a in spec.periodic_axes) or tuple(range(len(box)))
    points, removed, defects = lattice_sites_oracle(
        box, axes, spec.removed_indices, spec.defects)
    free = build_complex(points, spec.scheme, index_box=box)
    labels, layers, keys = periodic_quotient_oracle(free, box, axes)
    info = {**free.lattice_info, "generators": spec.generators,
            "ambient": spec.ambient, "boundary": "periodic",
            "periodic_axes": tuple(a + 1 for a in axes)}
    report = {"defects": defects, "removed_indices": removed,
              "sites": len(points), "cells": [len(cells) for cells in layers]}
    return labels, layers, info, report


def _lifted_corners(cx, box, axes):
    """Each cell's corner labels as before the wrap: on a glued axis a
    corner below the anchor (the first corner) came from the top."""
    out = []
    for cells in cx.cells:
        lifted = []
        for cell in cells:
            corners = [cx.vertex_labels[v] for v in cell.vertices]
            anchor = corners[0]
            lifted.append(tuple(
                tuple(c + (hi - lo) * (a in axes and c < anchor[a])
                      for a, (c, (lo, hi)) in enumerate(zip(q, box)))
                for q in corners))
        out.append(lifted)
    return out


@settings(max_examples=200, deadline=None)
@given(torus_specs())
def test_torus_build_matches_free_build_then_quotient(spec):
    try:
        labels, layers, info, report = _torus_by_quotient(spec)
    except SampleRefused as exc:
        error = DefectLocusError if exc.locus else ComplexBuildError
        with pytest.raises(error, match=re.escape(str(exc))):
            build_lattice_complex(spec)
        return
    cx, rep = build_lattice_complex(spec)
    assert list(cx.vertex_labels) == labels
    assert [[(c.vertices, c.faces, c.shape) for c in cells]
            for cells in cx.cells] == layers
    assert list(cx.lattice_info.items()) == list(info.items())
    assert rep == report
    # Anchor-major enumeration leaves every degree sorted by unwrapped
    # corner labels.  A period-1 axis wraps a corner onto its own anchor,
    # so the lift cannot be read off the labels there; the equality with
    # the reference order above covers that case.
    axes = tuple(a - 1 for a in info["periodic_axes"])
    if all(spec.index_box[a][1] - spec.index_box[a][0] > 1 for a in axes):
        for lifted in _lifted_corners(cx, spec.index_box, axes):
            assert all(p < q for p, q in zip(lifted, lifted[1:]))


def _shifted(spec, offset):
    """``spec`` with its box, removed indices and defects moved by
    ``offset`` along every axis."""
    def move(index):
        return index and tuple(c + offset for c in index)

    defects = tuple(dataclasses.replace(
        d, index=move(d.index), transverse=move(d.transverse),
        coordinate=None if d.coordinate is None else d.coordinate + offset)
        for d in spec.defects)
    return dataclasses.replace(
        spec, index_box=tuple(map(move, spec.index_box)),
        removed_indices=tuple(map(move, spec.removed_indices)),
        defects=defects)


@settings(max_examples=200, deadline=None)
@given(st.one_of(lattice_specs(), torus_specs()),
       st.sampled_from([0, -7, 2 ** 63 - 5, -(2 ** 63), 10 ** 30]))
def test_lattice_build_is_the_public_build_on_the_surviving_sites(spec,
                                                                  offset):
    # The lattice hands its site grid to the cell builder directly; the
    # public build on the same sites must give the same complex.
    spec = _shifted(spec, offset)
    box, m = spec.index_box, spec.dimension
    axes = ()
    if spec.boundary == "periodic":
        axes = tuple(a - 1 for a in spec.periodic_axes or range(1, m + 1))
    try:
        points, _, _ = lattice_sites_oracle(box, axes, spec.removed_indices,
                                            spec.defects)
    except SampleRefused:
        return
    cx, _ = build_lattice_complex(spec)
    ref = build_complex({torus_site(p, box, axes) for p in points},
                        spec.scheme, index_box=box, periodic_axes=axes)
    if spec.boundary == "constant":
        ref = apply_constant_boundary(ref, box)
    assert cx.vertex_labels == ref.vertex_labels
    assert all(type(c) is int for label in cx.vertex_labels for c in label)
    assert len(cx.layers) == len(ref.layers)
    for got, want in zip(cx.layers, ref.layers):
        for name in CellLayer.__slots__:
            assert np.array_equal(getattr(got, name), getattr(want, name))
    assert ref.lattice_info.items() <= cx.lattice_info.items()


def test_free_grid_degrees_are_sorted_by_vertex_ids():
    cx = build_complex(box_points(((0, 2), (0, 3), (0, 2))), "cubic")
    for cells in cx.cells:
        ids = [c.vertices for c in cells]
        assert all(p < q for p, q in zip(ids, ids[1:]))


def test_torus_indices_must_lie_in_the_fundamental_domain():
    with pytest.raises(ComplexBuildError, match="periodic axis 2"):
        build_complex([(0, 0), (0, 3)], "cubic", index_box=((0, 3), (0, 3)),
                      periodic_axes=(1,))


@pytest.mark.parametrize("indices, scheme, error, text", [
    ([], "cubic", ComplexBuildError, "empty index set"),
    ([(0, 0), (1,)], "cubic", ComplexBuildError, "mixed multi-index lengths"),
    ([(0, 0, 0, 0)], "triangular", DimensionError,
     "lattice dimension must be at most 3"),
    ([(0, 0)], "hexagonal", ComplexBuildError,
     "unknown cell scheme 'hexagonal'"),
])
def test_build_complex_refuses_index_sets_it_cannot_grid(indices, scheme,
                                                         error, text):
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        build_complex(indices, scheme)


def test_constant_boundary_refuses_a_taken_collapsed_label():
    # the collapsed vertex is named one step below the box on every axis
    cx = build_complex(box_points(((-1, 2), (-1, 2))), "cubic")
    with pytest.raises(ComplexBuildError, match=re.escape(
            "label (-1, -1) is taken; cannot introduce the collapsed "
            "vertex")):
        apply_constant_boundary(cx, ((0, 2), (0, 2)))


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_periodic_axis_out_of_range():
    with pytest.raises(ComplexBuildError):
        build_lattice_complex(_spec(boundary="periodic", periodic_axes=(3,)))


def test_periodic_needs_positive_extent():
    with pytest.raises(ComplexBuildError):
        build_lattice_complex(_spec(
            index_box=((0, 0), (0, 2)), boundary="periodic", periodic_axes=(1,)))


def test_removed_index_must_be_in_box():
    # the box holds integer multi-indices only: a float or a boolean
    # coordinate names no site of it
    for index in ((9, 9), (1.5, 0), (1.0, 0), (True, 0)):
        with pytest.raises(DefectLocusError, match=re.escape(
                f"removed index {index} is outside the box")):
            build_lattice_complex(_spec(removed_indices=(index,)))


def test_unknown_boundary_kind():
    with pytest.raises(ComplexBuildError):
        build_lattice_complex(_spec(boundary="wrapped"))


def test_generator_count_must_match_dimension():
    with pytest.raises(DegenerateGeneratorsError):
        build_lattice_complex(_spec(generators=((1.0, 0.0),)))


def test_report_carries_counts():
    cx, rep = build_lattice_complex(_spec(
        defects=(DefectSpec("vacancy", index=(1, 1)),)))
    assert rep["defects"]["vacancies"] == [(1, 1)]
    assert cx.n_cells(2) == 0
    assert betti_numbers(cx) == [1, 1]
