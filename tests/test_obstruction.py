import dataclasses
import importlib
import json
import math
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import crystaltopo.obstruction as obstruction_mod
from crystaltopo import (
    AmbiguousSamplingError,
    Chain,
    Cochain,
    CoefficientGroup,
    ComplexBuildError,
    DefectLocusError,
    DeltaComplex,
    IndexSumReport,
    InternalInconsistencyError,
    ObstructionCochain,
    OrderField,
    UnsupportedConfigurationError,
    build_complex,
    build_lattice_complex,
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
from crystaltopo.complexes import coboundary_map
from crystaltopo.homology import _top_forest, _top_primitive, generator_orders
from crystaltopo.orderfield import GROUP_Z
from crystaltopo.snf import SmithDecomposition

from conftest import (circle_torus_doc, lattice_specs, make_grid, make_sphere,
                      make_torus, torus_spec)

SAMPLES = Path(__file__).resolve().parents[1] / "docs" / "samples"
# the package exports the function homology under the module's name
homology_mod = importlib.import_module("crystaltopo.homology")


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


def test_a_blocked_field_reaches_the_skeleton_below_its_block(disc):
    # reached counts the skeleta the field extends over, vacuous ones (pi_0
    # and pi_1 of the sphere) included: every one below the block
    pos = {"A": (0.0, 1.0), "B": (-0.9, -0.5), "C": (0.9, -0.5), "D": (0.3, -1.2)}
    angle = {k: math.atan2(v[1], v[0]) for k, v in pos.items()}
    corners = [(i, j, k) for i in range(2) for j in range(2) for k in range(2)]
    fields = [
        OrderField.from_samples(disc, make_space("circle"), angle),
        OrderField.from_samples(
            disc, make_space("projective_plane"),
            {k: (math.cos(a / 2), math.sin(a / 2), 0.0)
             for k, a in angle.items()}),
        OrderField.from_function(
            make_grid(4), make_space("finite_set", labels=("up", "down")),
            lambda label: "up" if label[0] < 2 else "down"),
        OrderField.from_function(
            build_complex(corners, "cubic"), make_space("sphere_2"),
            lambda label: tuple((np.asarray(label) - 0.5) / math.sqrt(0.75))),
    ]
    reports = [extend_field(f) for f in fields]
    assert [(r.blocked_at, r.reached) for r in reports] == \
        [(2, 1), (2, 1), (1, 0), (3, 2)]
    # the director's flips around the disc's one triangle read as parity 1
    assert reports[1].cochain.values == {0: 1}


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


def test_a_nonzero_0_cochain_is_a_nontrivial_class(disc):
    # no (-1)-cells to be the coboundary of
    c = ObstructionCochain(disc, 0, GROUP_Z, {0: 1}, "circle")
    assert obstruction_class(c) == "nontrivial"


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


def test_index_sum_needs_a_surface_and_integer_windings(circle, torus):
    line = OrderField.from_function(circle, make_space("circle"),
                                    lambda label: 0.3)
    assert index_sum_check(line).reason == "complex is not 2-dimensional"
    shell = OrderField.from_function(torus, make_space("sphere_2"),
                                     lambda label: (0.0, 0.0, 1.0))
    assert index_sum_check(shell) == IndexSumReport(
        False, reason="value space does not carry integer windings")


def _vortex_pair(x, y):
    return math.atan2(y - 1.6, x - 1.3) - math.atan2(y - 3.7, x - 4.2)


def test_each_obstruct_command_probes_a_degree_once(monkeypatch, tmp_path,
                                                    capsys):
    # The index sum of a circle field reads the degree-2 classes that the
    # extension probed; no degree is probed twice.
    probes = []
    probe = obstruction_mod._probe

    def counting(field_, k, *args):
        probes.append(k)
        return probe(field_, k, *args)

    monkeypatch.setattr(obstruction_mod, "_probe", counting)
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


# ---------------------------------------------------------------------------
# certified trivial classes
# ---------------------------------------------------------------------------

def _torus_pair(x, y):
    return (_vortex_pair(x, y),
            math.atan2(y - 0.7, x - 3.4) - math.atan2(y - 4.4, x - 1.8))


def _hedgehog(label):
    v = np.asarray(label, dtype=float) - (1.4, 1.55, 1.45)
    return tuple(v / np.linalg.norm(v))


def _director(label):
    th = 0.5 * math.atan2(label[1] - 1.55, label[0] - 1.45)
    return (math.cos(th), math.sin(th), 0.0)


def _blocked_fields():
    """Vertex-sampled fields whose class is trivial and blocked at k = 2,
    one per group-valued edge probe: Z, Z^2 and Z/2."""
    torus = make_torus(6)
    return [
        OrderField.from_function(torus, make_space("circle"),
                                 lambda lab: _vortex_pair(*lab)),
        OrderField.from_function(torus, make_space("torus"),
                                 lambda lab: _torus_pair(*lab)),
        OrderField.from_function(make_grid(4), make_space("projective_plane"),
                                 _director),
    ]


@pytest.fixture
def solver_calls(monkeypatch):
    """Counts of membership tests and Smith reductions (with or without
    transforms) made while a test runs."""
    calls = Counter()
    in_image = obstruction_mod._in_image
    init = SmithDecomposition.__init__

    def counting_in_image(*args, **kwargs):
        calls["_in_image"] += 1
        return in_image(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        calls["SmithDecomposition"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(obstruction_mod, "_in_image", counting_in_image)
    monkeypatch.setattr(SmithDecomposition, "__init__", counting_init)
    return calls


def test_blocked_fields_certify_their_class_without_a_solve(solver_calls):
    # A primitive with δa = c proves the class trivial, and a trivial
    # class pairs to 0 with every generator: no membership test and no
    # Smith reduction runs, the walk's groups give the orders.
    for f in _blocked_fields():
        rep = extend_field(f)
        assert rep.blocked_at == f.complex_.dim and rep.cocycle_ok
        assert rep.cochain.primitive is not None
        assert rep.class_status == "trivial"
        zero = (0, 0) if f.space.name == "torus" else 0
        betti = 1 if f.space.name in ("circle", "torus") else 0
        assert rep.generator_pairings == [
            {"generator_order": 0, "pairing": zero}] * betti
    assert solver_calls == Counter()


def test_uncertified_classes_still_reach_the_solvers(solver_calls, sphere):
    # A hand-built cochain has no primitive: the membership test decides
    # it and the generators' tracked reduction pairs it.
    fund = orientability(sphere).fundamental_chain
    fid = min(fund.coeffs)
    lone = ObstructionCochain(sphere, 2, GROUP_Z, {fid: fund.coeffs[fid]},
                              "circle")
    assert obstruction_class(lone) == "nontrivial"
    assert solver_calls["_in_image"] == 1
    assert abs(pair_with_generators(lone)[0]["pairing"]) == 1
    assert solver_calls["SmithDecomposition"] >= 1
    # A field's cochain at k = 3 gets its primitive from the dual forest:
    # the hedgehog's class and its orders need no solver and no walk.
    solver_calls.clear()
    cube = build_complex(list(np.ndindex(4, 4, 4)), "cubic")
    rep = extend_field(OrderField.from_function(
        cube, make_space("sphere_2"), _hedgehog))
    assert rep.blocked_at == 3 and rep.cochain.primitive is not None
    assert rep.class_status == "trivial" and rep.generator_pairings == []
    assert solver_calls == Counter() and "coreduction" not in cube._cache
    # A lone +1 cube on the closed 3-torus is left as a residue at the
    # root of its one closed tree: no primitive, so the membership test
    # decides, and the class is nontrivial.
    solver_calls.clear()
    torus3, _ = build_lattice_complex(torus_spec(3, "cubic", 3))
    assert _top_primitive(torus3, Cochain(3, {0: 1})) is None
    assert obstruction_class(ObstructionCochain(
        torus3, 3, GROUP_Z, {0: 1}, "sphere_2")) == "nontrivial"
    assert solver_calls["_in_image"] == 1
    # Three tetrahedra on one triangle are no manifold-like top layer, so
    # the walk gives the orders of H_3.
    book = DeltaComplex.from_simplices([(0, 1, 2, 3 + i) for i in range(3)])
    assert not _top_forest(book).manifold_like
    assert generator_orders(book, 3) == [] and "coreduction" in book._cache


def test_one_gluing_pass_serves_the_index_sum_and_the_pairings(
        monkeypatch, capsys):
    # The vortex pair on a closed sphere reads the orientation for its
    # index sum and H_2 for the pairings of its trivial class: one spanning
    # forest over the 2-cells serves both.
    path = str(SAMPLES / "sphere_vortex_pair.json")
    cx, _ = cli.build_from_document(cli.load_document(path)[0])
    sizes = []
    forest = homology_mod.spanning_forest

    def counting(n, *args):
        sizes.append(n)
        return forest(n, *args)

    monkeypatch.setattr(homology_mod, "spanning_forest", counting)
    assert cli.main(["obstruct", path, "--report", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["index_sum"]["applicable"] and report["generator_pairings"]
    assert sizes == [cx.n_cells(2)]
    # The pass's closed cycles must agree with the orientation: a wrong
    # count in the cache is an inconsistency, not a new answer.
    top = _top_forest(cx)
    assert orientability(cx).closed and top.cycles == 1
    for wrong in (0, 2):
        cx._cache["top forest"] = top._replace(cycles=wrong)
        with pytest.raises(InternalInconsistencyError, match="gluing pass"):
            orientability(cx)


def test_an_edge_primitive_that_fails_its_check_is_an_error():
    f = _blocked_fields()[0]
    c = obstruction_cochain(f, 2)
    (a,) = c.primitive
    for edge in range(0, f.complex_.n_cells(1), 7):
        bumped = Cochain(1, {**a.coeffs, edge: a.coeffs.get(edge, 0) + 1})
        with pytest.raises(InternalInconsistencyError,
                           match="not the coboundary of its edge primitive"):
            obstruction_class(dataclasses.replace(c, primitive=[bumped]))
    assert obstruction_class(c) == "trivial"


def test_a_face_primitive_that_fails_its_check_is_an_error():
    # The hedgehog's primitive runs through the tree faces of the dual
    # forest; a bumped face, or changed values, fail its check.
    cube = build_complex(list(np.ndindex(4, 4, 4)), "cubic")
    c = obstruction_cochain(OrderField.from_function(
        cube, make_space("sphere_2"), _hedgehog), 3)
    (a,) = c.primitive
    assert coboundary_map(a, cube) == Cochain(3, c.values)
    bumped = Cochain(2, {**a.coeffs, 0: a.coeffs.get(0, 0) + 1})
    for changed in (dataclasses.replace(c, primitive=[bumped]),
                    dataclasses.replace(c, values={min(c.values): 2})):
        with pytest.raises(InternalInconsistencyError,
                           match="not the coboundary of its face primitive"):
            obstruction_class(changed)
    assert obstruction_class(c) == "trivial"


def test_changed_values_need_the_primitive_dropped_with_them():
    # The primitive certifies the values the probe gave; changed values
    # with the primitive kept are refused, naming both causes, and with
    # primitive=None they go to the membership test: a lone unit on the
    # closed torus is a nontrivial class.
    c = obstruction_cochain(_blocked_fields()[0], 2)
    moved = {min(c.values): 1}
    with pytest.raises(InternalInconsistencyError,
                       match=r"values were changed and the primitive kept "
                             r"\(set primitive=None with them\)"):
        obstruction_class(dataclasses.replace(c, values=moved))
    assert obstruction_class(
        dataclasses.replace(c, values=moved, primitive=None)) == "nontrivial"


SPACES = {"circle": 2, "torus": 2, "projective_plane": 2, "sphere_2": 3}


def _random_field(cx, space, seed):
    """Random samples; a sphere-valued field points away from a random
    point of the box, with noise, so that some cell can carry a degree."""
    rng = np.random.default_rng(seed)
    labels = cx.vertex_labels
    if space == "circle":
        return {lab: rng.uniform(-math.pi, math.pi) for lab in labels}
    if space == "torus":
        return {lab: tuple(rng.uniform(-math.pi, math.pi, 2)) for lab in labels}
    vectors = rng.normal(size=(len(labels), 3))
    if space == "sphere_2":
        points = np.array(labels, dtype=float)
        centre = rng.uniform(points.min(axis=0), points.max(axis=0))
        vectors = 0.1 * vectors + points - centre
    return {lab: tuple(v / np.linalg.norm(v))
            for lab, v in zip(labels, vectors)}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(st.sampled_from(sorted(SPACES)), st.data(),
       st.integers(0, 2 ** 32 - 1))
def test_primitive_verdicts_agree_with_the_membership_test(space, data,
                                                           seed):
    k = SPACES[space]
    spec = data.draw(lattice_specs().filter(lambda s: s.dimension >= k))
    try:
        cx, _ = build_lattice_complex(spec)
    except (ComplexBuildError, DefectLocusError):
        return
    if cx.dim < k or not cx.n_cells(k):
        return
    f = OrderField.from_samples(cx, make_space(space),
                                _random_field(cx, space, seed))
    try:
        c = obstruction_cochain(f, k)
    except AmbiguousSamplingError:
        return
    if not c.values:
        return
    # A field's cochain carries a primitive: the probe's edge cochain at
    # k = 2, the dual forest's at k = 3, which on the oriented lattices
    # leaves no residue unless a cube is glued to itself.
    if c.primitive is None:
        assert space == "sphere_2" and not _top_forest(cx).manifold_like
    verdict = obstruction_class(c)
    assert verdict == obstruction_class(
        dataclasses.replace(c, primitive=None))
    rep = extend_field(f)
    assert rep.blocked_at == k and rep.class_status == verdict
    # the zeros stand for the pairings the tracked reduction gives
    assert rep.generator_pairings == pair_with_generators(c)
