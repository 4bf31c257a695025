import random

import pytest

from crystaltopo import (
    Chain,
    CrystalTopoError,
    DeltaComplex,
    check_current_law,
    potential_check,
    vertex_components,
)

from conftest import make_circle, make_grid


# ---------------------------------------------------------------------------
# current law
# ---------------------------------------------------------------------------

def test_loop_current_is_divergence_free(circle):
    # unit current around the ring; the ascending-oriented AC edge runs against it
    rep = check_current_law(circle, {0: 1.0, 2: 1.0, 1: -1.0})
    assert rep.ok
    assert rep.max_residual == 0.0


def test_single_energized_edge_fails_at_both_ends(circle):
    rep = check_current_law(circle, {0: 1.0})
    assert not rep.ok
    assert rep.max_residual == 1.0
    assert set(rep.residuals) == {circle.vertex_id("A"), circle.vertex_id("B")}
    assert rep.residuals[circle.vertex_id("A")] == -1.0
    assert rep.residuals[circle.vertex_id("B")] == 1.0


def test_superposed_loops_still_pass():
    grid = make_grid(3)
    rng = random.Random(3)
    total = {}
    # every 2-cell boundary is a loop; any combination is divergence-free
    from crystaltopo import boundary_of_cell
    for fid in range(grid.n_cells(2)):
        w = rng.uniform(-2, 2)
        for eid, coeff in boundary_of_cell(grid, 2, fid).coeffs.items():
            total[eid] = total.get(eid, 0.0) + w * coeff
    rep = check_current_law(grid, total)
    assert rep.ok


def test_perturbed_loop_current_fails(circle):
    rep = check_current_law(circle, {0: 1.0, 2: 1.0, 1: -1.0 + 1e-6})
    assert not rep.ok
    offenders = {v for v, r in rep.residuals.items()}
    assert offenders == {circle.vertex_id("A"), circle.vertex_id("C")}


def test_tolerance_is_respected(circle):
    rep = check_current_law(circle, {0: 1.0, 2: 1.0, 1: -1.0 + 1e-12})
    assert rep.ok
    strict = check_current_law(circle, {0: 1.0, 2: 1.0, 1: -1.0 + 1e-12},
                               tol=1e-14)
    assert not strict.ok


def test_chain_input_works(circle):
    ch = Chain(1, {0: 1, 2: 1, 1: -1}, ring="reals")
    assert check_current_law(circle, ch).ok


@pytest.mark.parametrize("check", [check_current_law, potential_check])
@pytest.mark.parametrize("edge", [1.5, True, "2"])
def test_edge_ids_must_be_integers(circle, check, edge):
    with pytest.raises(CrystalTopoError, match=f"edge id {edge!r} "):
        check(circle, {edge: 1.0})


# ---------------------------------------------------------------------------
# voltage drops
# ---------------------------------------------------------------------------

def _gradient_drops(cx, potential):
    drops = {}
    for eid in range(cx.n_cells(1)):
        a, b = cx.label_tuple(1, eid)
        drops[eid] = potential[b] - potential[a]
    return drops


def test_gradient_drops_recover_potentials(circle):
    rep = potential_check(circle, _gradient_drops(circle, {"A": 0.0, "B": 2.0, "C": 5.0}))
    assert rep.consistent
    assert rep.potentials == [0.0, 2.0, 5.0]


def test_recovery_is_up_to_a_constant():
    grid = make_grid(4)
    rng = random.Random(8)
    pot = {grid.label_tuple(0, i)[0]: rng.uniform(-5, 5)
           for i in range(grid.n_cells(0))}
    rep = potential_check(grid, _gradient_drops(grid, pot))
    assert rep.consistent
    truth = [pot[grid.label_tuple(0, i)[0]] for i in range(grid.n_cells(0))]
    offset = rep.potentials[0] - truth[0]
    assert all(abs(p - t - offset) < 1e-9
               for p, t in zip(rep.potentials, truth))


def test_each_component_gets_its_own_constant():
    cx = DeltaComplex.from_simplices([("A", "B"), ("C", "D")])
    rep = potential_check(cx, {0: 1.0, 1: 7.0})
    assert rep.consistent
    comp = vertex_components(cx)
    assert rep.potentials[1] - rep.potentials[0] == 1.0
    assert rep.potentials[3] - rep.potentials[2] == 7.0
    assert comp == [0, 0, 1, 1]


def test_uniform_ring_drops_violate_exactness(circle):
    # a head-to-tail volt around the ring cannot come from a potential
    rep = potential_check(circle, {0: 1.0, 2: 1.0, 1: -1.0})
    assert not rep.consistent
    assert rep.potentials is None
    loop = rep.violating_loop
    assert loop is not None
    # the reported loop is the ring itself, and pairing the drops against
    # it exposes the full circulation of 3
    drops = {0: 1.0, 2: 1.0, 1: -1.0}
    circulation = sum(c * drops[e] for e, c in loop.coeffs.items())
    assert abs(circulation) == pytest.approx(3.0)
    assert abs(rep.loop_circulation) == pytest.approx(3.0)


def test_single_tampered_drop_is_localized():
    grid = make_grid(3)
    pot = {grid.label_tuple(0, i)[0]: 0.25 * i for i in range(grid.n_cells(0))}
    drops = _gradient_drops(grid, pot)
    drops[5] += 0.125
    rep = potential_check(grid, drops)
    assert not rep.consistent
    assert 5 in rep.violating_loop.coeffs
    assert abs(rep.loop_circulation) == pytest.approx(0.125)


def test_self_loops_from_quotients_demand_zero_drop():
    from conftest import make_torus
    cx = make_torus(1)  # one vertex, three self-glued edges
    rep = potential_check(cx, {0: 0.5, 1: 0.0, 2: 0.0})
    assert not rep.consistent
    ok = potential_check(cx, {0: 0.0, 1: 0.0, 2: 0.0})
    assert ok.consistent
