import math

import numpy as np
import pytest

from crystaltopo import (
    ComplexBuildError,
    DefectLocusError,
    DefectSpec,
    DegenerateGeneratorsError,
    LatticeSpec,
    betti_numbers,
    build_lattice_complex,
    check_generators,
    reciprocal_basis,
    unit_cell_volume,
)
from crystaltopo.lattice import MAX_BOX_SITES, box_points, lattice_positions


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

def test_hexagonal_generators_place_points():
    gens = check_generators([(1.0, 0.0), (0.5, math.sqrt(3) / 2)], m=2, n=2)
    pos = lattice_positions(gens, [(1, 1)])
    assert np.allclose(pos[(1, 1)], (1.5, math.sqrt(3) / 2))


def test_colinear_generators_rejected():
    with pytest.raises(DegenerateGeneratorsError):
        check_generators([(1.0, 0.0), (2.0, 0.0)], m=2, n=2)


def test_nearly_dependent_generators_rejected():
    with pytest.raises(DegenerateGeneratorsError):
        check_generators([(1.0, 0.0), (1.0, 1e-14)], m=2, n=2)


def test_fewer_generators_than_ambient_dimensions():
    gens = check_generators([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)], m=2, n=3)
    assert gens.shape == (2, 3)


def test_unit_cell_volume_rectangular():
    assert unit_cell_volume([(2, 0, 0), (0, 3, 0), (0, 0, 4)]) == pytest.approx(24.0)


def test_unit_cell_volume_sheared():
    # shear does not change the volume
    assert unit_cell_volume([(1, 0), (1, 1)]) == pytest.approx(1.0)


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

def test_vacancy_removes_one_point():
    from crystaltopo import apply_defects
    pts = set(box_points(((0, 2), (0, 2))))
    out, rep = apply_defects(
        pts, ((0, 2), (0, 2)), [DefectSpec("vacancy", index=(1, 1))])
    assert (1, 1) not in out
    assert len(out) == len(pts) - 1
    assert rep["removed_total"] == 1


def test_misaddressed_vacancy_is_an_error():
    pts = set(box_points(((0, 2), (0, 2))))
    box = ((0, 2), (0, 2))
    from crystaltopo import apply_defects
    with pytest.raises(DefectLocusError):
        apply_defects(pts, box, [DefectSpec("vacancy", index=(9, 9))])
    # removing the same site twice is also misaddressed
    once, _ = apply_defects(pts, box, [DefectSpec("vacancy", index=(1, 1))])
    with pytest.raises(DefectLocusError):
        apply_defects(once, box, [DefectSpec("vacancy", index=(1, 1))])


def test_line_defect_removes_a_full_line():
    from crystaltopo import apply_defects
    box = ((0, 2), (0, 2), (0, 2))
    pts = set(box_points(box))
    out, rep = apply_defects(
        pts, box, [DefectSpec("line_defect", axis=3, transverse=(1, 1))])
    assert len(pts) - len(out) == 3
    assert all((1, 1, z) not in out for z in range(3))


def test_oversized_box_is_refused_before_materialising():
    side = math.isqrt(MAX_BOX_SITES)
    assert len(box_points(((1, side), (1, side)))) == side * side
    with pytest.raises(ComplexBuildError, match="limit"):
        box_points(((0, side), (0, side)))
    with pytest.raises(ComplexBuildError, match=str((10 ** 6 + 1) ** 2)):
        build_lattice_complex(_spec(index_box=((0, 10 ** 6), (0, 10 ** 6))))
    with pytest.raises(ComplexBuildError, match="empty"):
        box_points(((0, 2), (3, 1)))


def test_substitution_marker_removes_nothing():
    from crystaltopo import apply_defects
    box = ((0, 1), (0, 1))
    pts = set(box_points(box))
    out, rep = apply_defects(
        pts, box, [DefectSpec("substitution_marker", index=(0, 0))])
    assert out == pts
    assert rep["markers"] == [(0, 0)]


def test_defect_spec_arity_validation():
    with pytest.raises(DefectLocusError):
        DefectSpec("vacancy", index=(1,)).validated(2)
    with pytest.raises(DefectLocusError):
        DefectSpec("line_defect", axis=4, transverse=(0, 0)).validated(3)
    with pytest.raises(DefectLocusError):
        DefectSpec("no_such_kind", index=(0, 0)).validated(2)


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
    with pytest.raises(DefectLocusError):
        build_lattice_complex(_spec(removed_indices=((9, 9),)))


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
