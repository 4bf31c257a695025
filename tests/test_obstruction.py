import json
import math
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import crystaltopo.obstruction as obstruction_mod
from crystaltopo import (
    Chain,
    CoefficientGroup,
    ObstructionCochain,
    OrderField,
    UnsupportedConfigurationError,
    build_complex,
    cli,
    evaluate,
    extend_field,
    index_sum_check,
    make_space,
    obstruction_class,
    obstruction_cochain,
    orientability,
    pair_with_generators,
    verify_cocycle,
)
from crystaltopo.orderfield import GROUP_Z

from conftest import circle_torus_doc, make_grid, make_sphere, make_torus

SAMPLES = Path(__file__).resolve().parents[1] / "docs" / "samples"


def _vortex_angles(labels, center, strength=1):
    out = {}
    for lab in labels:
        x, y = lab
        out[lab] = strength * math.atan2(y - center[1], x - center[0])
    return out


# ---------------------------------------------------------------------------
# extension machinery
# ---------------------------------------------------------------------------

def test_constant_field_extends(torus):
    sp = make_space("circle")
    f = OrderField.from_function(torus, sp, lambda label: 0.7)
    rep = extend_field(f)
    assert rep.extends
    assert rep.reached == torus.dim
    assert rep.blocked_at is None
    assert all(v.ok for v in rep.verdicts)


def test_smooth_but_winding_field_extends_nowhere_blocked(torus):
    # a field with nonzero loop classes can still extend over all 2-cells:
    # the obstruction is local to cell boundaries, not global loops
    sp = make_space("circle")
    f = OrderField.from_function(
        torus, sp, lambda label: 2 * math.pi * label[0] / 3)
    rep = extend_field(f)
    assert rep.extends


def test_vortex_blocks_at_the_filling_step(disc):
    sp = make_space("circle")
    pos = {"A": (0.0, 1.0), "B": (-0.9, -0.5), "C": (0.9, -0.5), "D": (0.3, -1.2)}
    f = OrderField.from_samples(
        disc, sp, {k: math.atan2(v[1], v[0]) for k, v in pos.items()})
    rep = extend_field(f)
    assert not rep.extends
    assert rep.blocked_at == 2
    assert rep.cocycle_ok
    # exactly one triangle carries the unit winding
    assert sorted(rep.cochain.values.values()) == [1]
    # the class is trivial: the disc has nothing in degree two
    assert rep.class_status == "trivial"
    fund = orientability(disc).fundamental_chain
    assert evaluate(rep.cochain, fund) == 1


def test_discrete_interface_blocks_at_edges():
    sp = make_space("finite_set", labels=("up", "down"))
    grid = make_grid(4)
    f = OrderField.from_function(
        grid, sp, lambda label: "up" if label[0] < 2 else "down")
    rep = extend_field(f)
    assert not rep.extends
    assert rep.blocked_at == 1
    assert rep.component_values == [{"component": 0, "labels": ["down", "up"]}]
    assert "constant" in rep.note


def test_discrete_constant_field_extends():
    sp = make_space("finite_set", labels=("up", "down"))
    grid = make_grid(4)
    f = OrderField.from_function(grid, sp, lambda label: "up")
    rep = extend_field(f)
    assert rep.extends
    assert rep.reached == grid.dim


def test_nonabelian_loop_group_is_refused(disc):
    sp = make_space("biaxial_nematic")
    f = OrderField.from_samples(disc, sp, {v: np.eye(3) for v in "ABCD"})
    with pytest.raises(UnsupportedConfigurationError):
        extend_field(f)


def test_nonabelian_space_fine_without_two_cells(circle):
    # nothing to fill, so the nonabelian loop group is never consulted
    sp = make_space("biaxial_nematic")
    f = OrderField.from_samples(circle, sp, {v: np.eye(3) for v in "ABC"})
    rep = extend_field(f)
    assert rep.extends


def test_hedgehog_blocks_the_cube_interior():
    corners = [(i, j, k) for i in range(2) for j in range(2) for k in range(2)]
    cube = build_complex(corners, "cubic")
    sp = make_space("sphere_2")
    center = np.array([0.5, 0.5, 0.5])

    def ray(label):
        v = np.asarray(label, dtype=float) - center
        return tuple(v / np.linalg.norm(v))

    f = OrderField.from_function(cube, sp, ray)
    rep = extend_field(f)
    assert not rep.extends
    assert rep.blocked_at == 3
    assert dict(rep.cochain.values) == {0: 1}
    assert rep.cocycle_ok
    assert rep.class_status == "trivial"


def test_half_disclination_in_a_line_field():
    grid = make_grid(4)
    sp = make_space("projective_plane")

    def director(label):
        th = 0.5 * math.atan2(label[1] - 1.55, label[0] - 1.45)
        return (math.cos(th), math.sin(th), 0.0)

    f = OrderField.from_function(grid, sp, director)
    rep = extend_field(f)
    assert not rep.extends
    assert rep.blocked_at == 2
    assert sum(rep.cochain.values.values()) % 2 == 1
    assert rep.cocycle_ok


def test_torus_valued_vortex_winds_one_component(disc):
    sp = make_space("torus")
    pos = {"A": (0.0, 1.0), "B": (-0.9, -0.5), "C": (0.9, -0.5), "D": (0.3, -1.2)}
    f = OrderField.from_samples(
        disc, sp, {k: (math.atan2(v[1], v[0]), 0.0) for k, v in pos.items()})
    rep = extend_field(f)
    assert rep.blocked_at == 2
    (value,) = rep.cochain.values.values()
    assert value == (1, 0)


# ---------------------------------------------------------------------------
# cochain calculus
# ---------------------------------------------------------------------------

def test_sampled_cochains_are_cocycles(sphere):
    # vertex-sampled circle data can never violate the coboundary identity
    rng = random.Random(31)
    sp = make_space("circle")
    for _ in range(10):
        shift = rng.uniform(0, 6)
        f = OrderField.from_function(
            sphere, sp,
            lambda label: math.sin(label[0] + shift) + 0.3 * label[1])
        c = obstruction_cochain(f, 2)
        assert verify_cocycle(c)


def test_hand_built_non_cocycle_is_caught(disc):
    bad = ObstructionCochain(disc, 1, GROUP_Z, {0: 1}, "circle")
    assert not verify_cocycle(bad)


def test_single_unit_value_is_a_nontrivial_class(sphere):
    # a lone +1 winding on a closed shell cannot be solved away
    fund = orientability(sphere).fundamental_chain
    fid = min(fund.coeffs)
    c = ObstructionCochain(sphere, 2, GROUP_Z,
                           {fid: fund.coeffs[fid]}, "circle")
    assert verify_cocycle(c)
    assert evaluate(c, fund) == 1
    assert obstruction_class(c) == "nontrivial"
    pairings = pair_with_generators(c)
    assert len(pairings) == 1
    assert pairings[0]["generator_order"] == 0
    assert abs(pairings[0]["pairing"]) == 1


def test_class_ids_are_range_checked_before_an_early_answer(disc):
    # a 0-cochain has no (k-1)-cells to solve from; its ids still count
    c = ObstructionCochain(disc, 0, GROUP_Z, {999: 1}, "circle")
    with pytest.raises(IndexError, match="names a cell outside"):
        obstruction_class(c)


def test_vortex_pair_cancels(sphere):
    sp = make_space("circle")

    def two_vortices(label):
        x, y = label
        if (x, y) == (-1, -1):
            return 0.0
        num = complex(x, y) - complex(2.6, 3.1)
        den = complex(x, y) - complex(4.4, 3.2)
        w = num * den.conjugate()
        return math.atan2(w.imag, w.real)

    f = OrderField.from_function(sphere, sp, two_vortices)
    rep = extend_field(f)
    assert not rep.extends
    assert rep.blocked_at == 2
    assert sorted(rep.cochain.values.values()) == [-1, 1]
    fund = orientability(sphere).fundamental_chain
    assert evaluate(rep.cochain, fund) == 0
    assert rep.class_status == "trivial"


def test_evaluate_is_linear(disc):
    c = ObstructionCochain(disc, 2, GROUP_Z, {0: 2, 1: -1}, "circle")
    za = Chain(2, {0: 1})
    zb = Chain(2, {1: 3})
    assert evaluate(c, za) == 2
    assert evaluate(c, zb) == -3
    assert evaluate(c, za + zb) == -1


def test_set_valued_cochains_have_no_classes(disc):
    group = CoefficientGroup("set", abelian=True, size=2)
    c = ObstructionCochain(disc, 0, group, {0: ("up", "down")}, "finite_set")
    assert verify_cocycle(c)
    assert evaluate(c, Chain(0, {0: 1, 1: 1})) == 1
    assert evaluate(c, Chain(0, {1: 1})) == 0
    assert obstruction_class(c) == "not_applicable"


def test_componentwise_values_reduce_independently(torus):
    sp = make_space("torus")
    f = OrderField.from_function(torus, sp, lambda label: (0.3, 0.9))
    c = obstruction_cochain(f, 2)
    assert not c.values
    assert verify_cocycle(c)
    assert obstruction_class(c) == "trivial"


# ---------------------------------------------------------------------------
# index sums
# ---------------------------------------------------------------------------

def test_index_sum_on_torus(torus):
    sp = make_space("circle")
    f = OrderField.from_function(torus, sp, lambda label: 0.5)
    rep = index_sum_check(f)
    assert rep.applicable
    assert rep.index_sum == 0
    assert rep.euler == 0
    assert rep.consistent
    # the degree-2 cochain the extension probed gives the same report
    assert index_sum_check(f, extend_field(f).probed[2]) == rep


def test_index_sum_needs_closed_orientable(mobius):
    sp = make_space("circle")
    f = OrderField.from_function(mobius, sp, lambda label: 0.1)
    rep = index_sum_check(f)
    assert not rep.applicable
    assert "orientable" in rep.reason


def _vortex_pair(x, y):
    return math.atan2(y - 1.6, x - 1.3) - math.atan2(y - 3.7, x - 4.2)


def test_each_obstruct_command_probes_a_degree_once(monkeypatch, tmp_path,
                                                    capsys):
    # The index sum of a circle field reads the degree-2 classes that the
    # extension probed; no degree is probed twice.
    probes = []
    probe = obstruction_mod.boundary_classes

    def counting(field_, k, *args):
        probes.append(k)
        return probe(field_, k, *args)

    monkeypatch.setattr(obstruction_mod, "boundary_classes", counting)
    paths = [str(SAMPLES / f"{name}.json") for name in
             ("sphere_vortex_pair", "spin_interface", "vortex_line")]
    for name, angle in (("smooth", lambda x, y: 0.3 + math.tau * x / 6),
                        ("vortex_pair", _vortex_pair)):
        paths.append(str(tmp_path / f"{name}.json"))
        Path(paths[-1]).write_text(json.dumps(circle_torus_doc(angle)))
    blocked = []
    for path in paths:
        probes.clear()
        assert cli.main(["obstruct", path, "--report", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        blocked.append(report["blocked_at"])
        assert probes and max(Counter(probes).values()) == 1
    # both circle fields print an index sum, one after a blocked extension
    assert blocked[-2:] == [None, 2]
    assert report["index_sum"]["consistent"]
