import math
import random
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crystaltopo import (
    Chain,
    CrystalTopoError,
    DeltaComplex,
    build_lattice_complex,
    check_current_law,
    potential_check,
    vertex_components,
)
from crystaltopo.cli import _edge_data, build_from_document
from crystaltopo.errors import (
    ComplexBuildError,
    DefectLocusError,
    DimensionError,
    DocumentError,
)

from conftest import lattice_specs, make_circle, make_grid
from oracles import edge_data_oracle


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
@pytest.mark.parametrize("dim", [0, 2])
def test_chain_input_must_be_a_1_chain(disc, check, dim):
    with pytest.raises(DimensionError,
                       match="^edge data must be 1-dimensional$"):
        check(disc, Chain(dim, {0: 1.0}, "reals"))


def _report_fields(report):
    fields = dict(vars(report))
    if fields.get("violating_loop") is not None:
        fields["violating_loop"] = fields["violating_loop"].coeffs
    return [(k, type(v), v) for k, v in fields.items()]


@pytest.mark.parametrize("check", [check_current_law, potential_check])
@pytest.mark.parametrize("seed", range(4))
def test_numpy_ids_and_values_read_as_plain_ones(check, seed):
    # the same edge data, keyed and valued by numpy scalars, by Python
    # ints and floats, or in a Chain, give one report, types included
    grid = make_grid(4)
    rng = np.random.default_rng(seed)
    edges = rng.permutation(grid.n_cells(1))[:rng.integers(1, 20)]
    values = rng.normal(size=len(edges))
    values[::3] = np.round(values[::3])
    plain = dict(zip(edges.tolist(), values.tolist()))
    want = _report_fields(check(grid, plain))
    for data in (dict(zip(edges, values)),
                 dict(zip(edges.astype(np.int32), values)),
                 {np.int16(e): (np.int64(v) if v.is_integer() else v)
                  for e, v in plain.items()},
                 Chain(1, plain, "reals")):
        assert _report_fields(check(grid, data)) == want


@pytest.mark.parametrize("check", [check_current_law, potential_check])
@pytest.mark.parametrize("edge", [1.5, True, "2"])
def test_edge_ids_must_be_integers(circle, check, edge):
    with pytest.raises(CrystalTopoError, match=f"edge id {edge!r} "):
        check(circle, {edge: 1.0})


@pytest.mark.parametrize("check", [check_current_law, potential_check])
@pytest.mark.parametrize("values,bad", [
    ({0: 1.0, 3: 1.0}, 3), ({2: 1.0, -1: 1.0}, -1),
    ({0: 1.0, 3: 1.0, -1: 1.0}, 3), ({2: 1.0, -1: 1.0, 3: 1.0}, -1),
    (Chain(1, {0: 1, 5: 1}, "reals"), 5), (Chain(1, {0: 1, -1: 1}, "reals"), -1)])
def test_edge_ids_must_be_in_range(circle, check, values, bad):
    # the first id out of 0..2, in the order given, is named; a Chain's
    # cell ids go through the same check as a mapping's
    with pytest.raises(DimensionError, match=f"edge id {bad} out of range"):
        check(circle, values)


@pytest.mark.parametrize("check", [check_current_law, potential_check])
def test_edge_data_is_checked_on_a_complex_without_edges(check):
    one_site = DeltaComplex.from_simplices([("A",)])
    with pytest.raises(DimensionError, match="edge id 5 out of range"):
        check(one_site, {5: 1.0, "x": 2.0})
    with pytest.raises(DimensionError, match="edge id 'x' is not"):
        check(one_site, {"x": 2.0})
    report = check(one_site, {}, tol=0.5)
    assert report.ok if check is check_current_law else report.consistent
    assert report.tol == 0.5


@pytest.mark.parametrize("check", [check_current_law, potential_check])
@pytest.mark.parametrize("values,shown", [
    ({0: 1.0, 1: math.nan}, "nan"), ({0: 1.0, 1: math.inf}, "inf"),
    ({0: 1, 1: -math.inf}, "-inf"), ({0: 1.0, 1: np.float64("nan")}, "nan"),
    ({0: 1.0, 1: True}, "True"), ({0: 1.0, 1: np.bool_(False)}, "False"),
    (Chain(1, {0: 1.0, 1: math.nan}, "reals"), "nan"),
    ({0: 1.5, 1: "1.5", 2: -1.5}, "'1.5'"), ({0: 2.0, 1: "2"}, "'2'"),
    ({0: 1.0, 1: b"2"}, "b'2'"), ({0: 1.0, 1: None}, "None"),
    # too large for math.isfinite to convert, which raises OverflowError
    ({0: 1.0, 1: 10 ** 400}, "10{400}"),
    # built inside the check: a Chain refuses text before any check runs
    (lambda: Chain(1, {0: "1.5", 1: "1.5", 2: "-1.5"}, "reals"), None)])
def test_edge_values_must_be_finite_numbers(circle, check, values, shown):
    # NaN passes every tolerance test; a boolean, a numeric string or
    # bytes is no edge value
    reason = (f"edge 1: value {shown} is not a finite number" if shown
              else "coefficient '1.5' is text, not a number")
    with pytest.raises(ValueError, match=reason):
        check(circle, values() if callable(values) else values)


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


def test_tree_edges_are_never_offenders():
    # the second drop is lost to rounding next to the first, yet a path
    # has no loop for a mismatch to go round
    cx = DeltaComplex.from_simplices([("A", "B"), ("B", "C")])
    rep = potential_check(cx, {0: 1e17, 1: 1.0})
    assert rep.consistent
    assert rep.potentials == [0.0, 1e17, 1e17]


def test_self_loops_from_quotients_demand_zero_drop():
    from conftest import make_torus
    cx = make_torus(1)  # one vertex, three self-glued edges
    rep = potential_check(cx, {0: 0.5, 1: 0.0, 2: 0.0})
    assert not rep.consistent
    ok = potential_check(cx, {0: 0.0, 1: 0.0, 2: 0.0})
    assert ok.consistent


# ---------------------------------------------------------------------------
# reading currents and drops from a document
# ---------------------------------------------------------------------------

def entry_lists(cx, draw):
    """Mostly well-formed entries: ids, stored and reversed vertex pairs,
    repeats; and up to three hostile entries at random places."""
    labels = [list(lab) if isinstance(lab, tuple) else lab
              for lab in cx.vertex_labels]
    rows = cx.layers[1].vertex_rows() if cx.dim >= 1 else []
    here = labels[0]
    edges = [st.just([here, [99, 99]])]
    if rows:
        edges += [st.integers(0, len(rows) - 1),
                  st.sampled_from([[labels[a], labels[b]] for a, b in rows]),
                  st.sampled_from([[labels[b], labels[a]] for a, b in rows])]
    edge = st.one_of(edges)
    value = st.one_of(st.floats(-100, 100), st.integers(-9, 9),
                      st.integers(-2**70, 2**70), st.just(-0.0),
                      st.sampled_from([sys.float_info.max,
                                       -int(sys.float_info.max)]))
    bad_edge = st.sampled_from([
        len(rows), -1, 10**400, True, False, "0", None, 1.5, [here],
        [here, here, here], [{"a": 1}, here], [[here], here],
        [here, [0, [1]]], "edge", {"e": 0}])
    bad_value = st.sampled_from([True, False, "1", None, math.nan, math.inf,
                                 -math.inf, 10**400, -2**1024, [1.0],
                                 {"v": 1}])
    bad = st.one_of(
        st.sampled_from(["x", 5, None, {"a": 1}, [], [0], [0, 1.0, 2]]),
        st.tuples(bad_edge, value | bad_value).map(list),
        st.tuples(edge, bad_value).map(list))
    body = draw(st.lists(st.tuples(edge, value).map(list), max_size=12))
    body += body[:draw(st.integers(0, 3))]
    for _ in range(draw(st.integers(0, 3))):
        body.insert(draw(st.integers(0, len(body))), draw(bad))
    return body


def assert_reads_like_the_oracle(cx, doc):
    rows = cx.layers[1].vertex_rows() if cx.dim >= 1 else None
    for key in ("currents", "drops"):
        try:
            want = edge_data_oracle(doc, key, cx.vertex_labels, rows)
        except ValueError as exc:
            with pytest.raises(DocumentError) as got:
                _edge_data(doc, key, cx)
            assert str(got.value) == str(exc)
            continue
        ids, sums = _edge_data(doc, key, cx)
        assert [(type(c), c, v.hex()) for c, v in zip(
            ids.tolist(), sums.tolist())] == [
            (int, c, v.hex()) for c, v in want.items()]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lattice_specs(), st.data())
def test_edge_data_matches_the_entry_loop(spec, data):
    try:
        cx, _ = build_lattice_complex(spec)
    except (ComplexBuildError, DefectLocusError):
        return
    assert_reads_like_the_oracle(cx, {"currents": entry_lists(cx, data.draw),
                                      "drops": entry_lists(cx, data.draw)})


@pytest.mark.parametrize("cells,body", [
    # labels that are nested lists resolve entry by entry
    ([[[0, [1]], [0, [2]]]], [[[[0, [2]], [0, [1]]], 1.5], [0, 0.25]]),
    # a complex without edges refuses ids and pairs alike
    ([["A"], ["B"]], [[["A", "B"], 1.0]]),
    ([["A"], ["B"]], [[0, 1.0]]),
    ([["A", "B"], ["B", "C"], ["A", "C"]], "not a list"),
    ([["A", "B"], ["B", "C"], ["A", "C"]],
     [[["C", "A"], 1.0], [["B", "A"], -0.0], [["A", "B"], 2.0]]),
])
def test_edge_data_on_explicit_complexes(cells, body):
    cx, _ = build_from_document({"complex": {"cells": cells}})
    assert_reads_like_the_oracle(cx, {"currents": body})
