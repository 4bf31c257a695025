import math
import random

import numpy as np
import pytest

from crystaltopo import (
    AmbiguousSamplingError,
    CoverageError,
    DeltaComplex,
    DimensionError,
    OrderField,
    UnsupportedConfigurationError,
    boundary_class,
    make_space,
    orientability,
    pi0_classes,
    rp_parity,
    sphere_degree,
    torus_winding,
    vertex_components,
    winding_number,
)

from crystaltopo.orderfield import ANGLE_TOL, _angle_steps, _lift_sign

from conftest import make_circle, make_grid, make_tetra_surface

from oracles import winding_oracle


def polygon(n, prefix="P"):
    names = [f"{prefix}{i}" for i in range(n)]
    cx = DeltaComplex.from_simplices(
        [(names[i], names[(i + 1) % n]) for i in range(n)], auto_close=False)
    loop = [cx.vertex_id(v) for v in names]
    return cx, names, loop


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------

def test_homotopy_group_table():
    assert make_space("circle").homotopy_group(1).name == "Z"
    assert make_space("circle").homotopy_group(2).trivial
    assert make_space("sphere_2").homotopy_group(1).trivial
    assert make_space("sphere_2").homotopy_group(2).name == "Z"
    assert make_space("projective_plane").homotopy_group(1).order == 2
    assert make_space("torus").homotopy_group(1).rank == 2
    assert not make_space("biaxial_nematic").homotopy_group(1).abelian


def test_unknown_space_is_rejected():
    with pytest.raises(UnsupportedConfigurationError):
        make_space("banana")


def test_finite_set_needs_labels():
    sp = make_space("finite_set", labels=("up", "down"))
    assert sp.homotopy_group(0).size == 2


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_every_vertex_must_be_sampled(circle):
    sp = make_space("circle")
    with pytest.raises(CoverageError) as err:
        OrderField.from_samples(circle, sp, {"A": 0.0})
    assert "B" in str(err.value) and "C" in str(err.value)


def test_angle_and_vector_forms_agree(circle):
    sp = make_space("circle")
    f = OrderField.from_samples(circle, sp, {"A": 0.0, "B": math.pi / 2, "C": math.pi})
    g = OrderField.from_samples(circle, sp,
                                {"A": (1.0, 0.0), "B": (0.0, 1.0), "C": (-1.0, 0.0)})
    for vid in range(3):
        assert np.allclose(f.value(vid), g.value(vid))


def test_from_function(circle):
    sp = make_space("circle")
    f = OrderField.from_function(circle, sp, lambda label: 0.25)
    assert f.angle(0) == pytest.approx(0.25)


def test_non_unit_vectors_rejected(circle):
    sp = make_space("sphere_2")
    cx = make_tetra_surface()
    with pytest.raises(Exception):
        OrderField.from_samples(cx, sp, {v: (2.0, 0.0, 0.0) for v in "ABCD"})


# ---------------------------------------------------------------------------
# winding numbers
# ---------------------------------------------------------------------------

def test_single_turn():
    n = 8
    cx, names, loop = polygon(n)
    sp = make_space("circle")
    f = OrderField.from_samples(cx, sp, {names[j]: 2 * math.pi * j / n for j in range(n)})
    assert winding_number(f, loop) == 1


def test_double_turn():
    n = 8
    cx, names, loop = polygon(n)
    sp = make_space("circle")
    f = OrderField.from_samples(cx, sp, {names[j]: 4 * math.pi * j / n for j in range(n)})
    assert winding_number(f, loop) == 2


def test_constant_field_does_not_wind():
    cx, names, loop = polygon(5)
    sp = make_space("circle")
    f = OrderField.from_samples(cx, sp, {v: 1.3 for v in names})
    assert winding_number(f, loop) == 0


def test_reversed_loop_negates():
    n = 8
    cx, names, loop = polygon(n)
    sp = make_space("circle")
    f = OrderField.from_samples(cx, sp, {names[j]: 2 * math.pi * j / n for j in range(n)})
    assert winding_number(f, list(reversed(loop))) == -1


def test_winding_matches_phase_sum_oracle():
    rng = random.Random(99)
    sp = make_space("circle")
    for _ in range(30):
        n = rng.randint(3, 12)
        cx, names, loop = polygon(n)
        while True:
            angles = [rng.uniform(0, 2 * math.pi) for _ in range(n)]
            steps = [angles[(j + 1) % n] - angles[j] for j in range(n)]
            if all(abs(math.remainder(s, 2 * math.pi)) < math.pi - 1e-3 for s in steps):
                break
        f = OrderField.from_samples(cx, sp, dict(zip(names, angles)))
        assert winding_number(f, loop) == round(winding_oracle(angles))


def test_global_rotation_leaves_winding_alone():
    rng = random.Random(11)
    n = 9
    cx, names, loop = polygon(n)
    sp = make_space("circle")
    base = {names[j]: 2 * math.pi * j / n for j in range(n)}
    for _ in range(10):
        shift = rng.uniform(-10, 10)
        f = OrderField.from_samples(cx, sp, {k: v + shift for k, v in base.items()})
        assert winding_number(f, loop) == 1


def test_antipodal_step_is_ambiguous():
    cx, names, loop = polygon(3)
    sp = make_space("circle")
    f = OrderField.from_samples(cx, sp,
                                {names[0]: 0.0, names[1]: math.pi, names[2]: 1.0})
    with pytest.raises(AmbiguousSamplingError):
        winding_number(f, loop)


@pytest.mark.parametrize("sign", [1, -1])
def test_antipodal_threshold_is_exact(sign):
    with pytest.raises(AmbiguousSamplingError):
        _angle_steps([0.0, sign * (math.pi - ANGLE_TOL)])
    step = sign * (math.pi - 2 * ANGLE_TOL)
    assert _angle_steps([0.0, step]) == step


def test_empty_loop_is_refused_by_every_probe():
    cx, names, _ = polygon(3)
    probes = [
        (winding_number, "circle", 0.0),
        (torus_winding, "torus", (0.0, 0.0)),
        (rp_parity, "projective_plane", (1.0, 0.0, 0.0)),
    ]
    for probe, space, value in probes:
        f = OrderField.from_samples(cx, make_space(space),
                                    {v: value for v in names})
        with pytest.raises(DimensionError, match="empty loop"):
            probe(f, [])


# ---------------------------------------------------------------------------
# director parity
# ---------------------------------------------------------------------------

def _director(theta):
    return (math.cos(theta), math.sin(theta), 0.0)


def test_half_turn_has_odd_parity():
    n = 6
    cx, names, loop = polygon(n)
    sp = make_space("projective_plane")
    f = OrderField.from_samples(
        cx, sp, {names[j]: _director(math.pi * j / n) for j in range(n)})
    assert rp_parity(f, loop) == 1


def test_full_turn_has_even_parity():
    n = 6
    cx, names, loop = polygon(n)
    sp = make_space("projective_plane")
    f = OrderField.from_samples(
        cx, sp, {names[j]: _director(2 * math.pi * j / n) for j in range(n)})
    assert rp_parity(f, loop) == 0


def test_parity_ignores_representative_signs():
    rng = random.Random(5)
    n = 6
    cx, names, loop = polygon(n)
    sp = make_space("projective_plane")
    base = {names[j]: _director(math.pi * j / n) for j in range(n)}
    flipped = {k: tuple(-x for x in v) if rng.random() < 0.5 else v
               for k, v in base.items()}
    f = OrderField.from_samples(cx, sp, flipped)
    assert rp_parity(f, loop) == 1


def test_orthogonal_directors_are_ambiguous():
    cx, names, loop = polygon(3)
    sp = make_space("projective_plane")
    f = OrderField.from_samples(cx, sp, {
        names[0]: (1.0, 0.0, 0.0),
        names[1]: (0.0, 1.0, 0.0),
        names[2]: (math.cos(0.7), math.sin(0.7), 0.0)})
    with pytest.raises(AmbiguousSamplingError):
        rp_parity(f, loop)


@pytest.mark.parametrize("sign", [1, -1])
def test_perpendicular_threshold_is_exact(sign):
    prev = np.array([1.0, 0.0, 0.0])

    def director(dot):
        return np.array([dot, math.sqrt(1.0 - dot * dot), 0.0])

    with pytest.raises(AmbiguousSamplingError):
        _lift_sign(prev, director(sign * ANGLE_TOL))
    assert _lift_sign(prev, director(sign * 2 * ANGLE_TOL)) == sign


# ---------------------------------------------------------------------------
# sphere degree
# ---------------------------------------------------------------------------

def _radial_field(cx, positions):
    sp = make_space("sphere_2")
    unit = {k: tuple(np.asarray(v, dtype=float) / np.linalg.norm(v))
            for k, v in positions.items()}
    return OrderField.from_samples(cx, sp, unit)


def _oriented_triangles(cx):
    rep = orientability(cx)
    return [(c, tuple(cx.cell(2, i).vertices))
            for i, c in rep.fundamental_chain.coeffs.items()]


def test_radial_field_has_degree_one(tetra_surface):
    pos = {"A": (1, 1, 1), "B": (1, -1, -1), "C": (-1, 1, -1), "D": (-1, -1, 1)}
    f = _radial_field(tetra_surface, pos)
    assert sphere_degree(f, _oriented_triangles(tetra_surface)) == 1


def test_antipodal_field_has_degree_minus_one(tetra_surface):
    pos = {"A": (-1, -1, -1), "B": (-1, 1, 1), "C": (1, -1, 1), "D": (1, 1, -1)}
    f = _radial_field(tetra_surface, pos)
    assert sphere_degree(f, _oriented_triangles(tetra_surface)) == -1


def test_constant_shell_has_degree_zero(tetra_surface):
    sp = make_space("sphere_2")
    f = OrderField.from_samples(tetra_surface, sp,
                                {v: (0.0, 0.0, 1.0) for v in "ABCD"})
    assert sphere_degree(f, _oriented_triangles(tetra_surface)) == 0


# ---------------------------------------------------------------------------
# torus values
# ---------------------------------------------------------------------------

def test_componentwise_winding():
    n = 8
    cx, names, loop = polygon(n)
    sp = make_space("torus")
    f = OrderField.from_samples(cx, sp, {
        names[j]: (2 * math.pi * j / n, -2 * math.pi * j / n) for j in range(n)})
    assert torus_winding(f, loop) == (1, -1)


def test_torus_accepts_four_vector_form():
    cx, names, loop = polygon(4)
    sp = make_space("torus")
    f = OrderField.from_samples(cx, sp, {v: (1.0, 0.0, 0.0, 1.0) for v in names})
    assert torus_winding(f, loop) == (0, 0)


# ---------------------------------------------------------------------------
# dispatch and labels
# ---------------------------------------------------------------------------

def test_finite_set_edge_classes():
    sp = make_space("finite_set", labels=("+h/2", "-h/2"))
    grid = make_grid(3)
    f = OrderField.from_function(
        grid, sp, lambda label: "+h/2" if label[0] < 1 else "-h/2")
    crossings = sum(boundary_class(f, 1, e) for e in range(grid.n_cells(1)))
    assert crossings > 0
    constant = OrderField.from_function(grid, sp, lambda label: "+h/2")
    assert all(boundary_class(constant, 1, e) == 0
               for e in range(grid.n_cells(1)))


def test_pi0_classes_by_component():
    sp = make_space("finite_set", labels=("a", "b"))
    cx = DeltaComplex.from_simplices([("A", "B"), ("C", "D")])
    f = OrderField.from_samples(cx, sp, {"A": "a", "B": "a", "C": "a", "D": "b"})
    out = pi0_classes(f, vertex_components(cx))
    assert [sorted(entry["labels"]) for entry in out] == [["a"], ["a", "b"]]


def test_winding_on_two_cell_boundary(torus):
    sp = make_space("circle")
    f = OrderField.from_function(torus, sp, lambda label: 0.0)
    assert all(boundary_class(f, 2, c) == 0 for c in range(torus.n_cells(2)))
