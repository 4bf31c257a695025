"""End-to-end checks of the headline guarantees.

Each test prints one PASS/FAIL line so the whole gate can be read off a
``pytest -v -s`` run at a glance.  Expected values are frozen here on
purpose; do not regenerate them from the code under test.
"""

import hashlib
import json
import math
import random

import numpy as np

from crystaltopo import (
    LatticeSpec,
    ObstructionCochain,
    OrderField,
    AmbiguousSamplingError,
    betti_numbers,
    boundary_map,
    build_complex,
    build_lattice_complex,
    check_current_law,
    euler_characteristic,
    evaluate,
    extend_field,
    homology,
    index_sum_check,
    make_space,
    obstruction_class,
    obstruction_cochain,
    orientability,
    pair_with_generators,
    potential_check,
    smith_normal_form,
    verify_cocycle,
)
from crystaltopo.complexes import DeltaComplex, barycentric_subdivide, boundary_of_cell
from crystaltopo.orderfield import GROUP_Z

from conftest import (
    dense_boundary,
    make_circle,
    make_cylinder,
    make_disc,
    make_grid,
    make_mobius,
    make_rp2,
    make_sphere,
    make_tetra_surface,
    make_torus,
)
from oracles import det_oracle, matmul_oracle, snf_diagonal_oracle


def _verdict(name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


# 1 ---------------------------------------------------------------------

# edge-by-vertex incidence of the triangle perimeter, rows AB, AC, BC
CIRCLE_EDGE_TABLE = [[-1, 1, 0],
                     [-1, 0, 1],
                     [0, -1, 1]]

# face-by-edge incidence of the filled disc, edge rows AB, AC, AD, BC, BD,
# CD against face columns ABD, BCD, ADC (the ADC reading of the third face;
# see docs for why the other reading is rejected)
DISC_FACE_TABLE = [[1, 0, 0],
                   [0, 0, -1],
                   [-1, 0, 1],
                   [0, 1, 0],
                   [1, -1, 0],
                   [0, 1, -1]]

DISC_VERTEX_TABLE = [[-1, -1, -1, 0, 0, 0],
                     [1, 0, 0, -1, -1, 0],
                     [0, 1, 0, 1, 0, -1],
                     [0, 0, 1, 0, 1, 1]]


def test_reference_incidence_tables():
    circle = make_circle()
    ok = np.array_equal(dense_boundary(circle, 1).T, CIRCLE_EDGE_TABLE)

    disc = make_disc()
    ok = ok and np.array_equal(dense_boundary(disc, 1), DISC_VERTEX_TABLE)

    # column order ABD, BCD, ADC maps onto the stored ascending cells
    m2 = dense_boundary(disc, 2)
    abd, s_abd = disc.find_cell(2, ("A", "B", "D"))
    bcd, s_bcd = disc.find_cell(2, ("B", "C", "D"))
    adc, s_adc = disc.find_cell(2, ("A", "D", "C"))
    rebuilt = np.stack([m2[:, abd] * s_abd,
                        m2[:, bcd] * s_bcd,
                        m2[:, adc] * s_adc], axis=1)
    ok = ok and np.array_equal(rebuilt, DISC_FACE_TABLE)

    # the four displayed boundary identities, integer-exact
    def edge_chain(*terms):
        return disc.chain(1, dict(terms))

    ab = boundary_of_cell(disc, 1, disc.find_cell(1, ("A", "B"))[0])
    ok = ok and ab == disc.chain(0, {("B",): 1, ("A",): -1})
    d_abd = boundary_of_cell(disc, 2, abd)
    ok = ok and d_abd == edge_chain(((("B", "D")), 1), ((("A", "D")), -1),
                                    ((("A", "B")), 1))
    d_bcd = boundary_of_cell(disc, 2, bcd)
    ok = ok and d_bcd == edge_chain(((("C", "D")), 1), ((("B", "D")), -1),
                                    ((("B", "C")), 1))
    d_adc = boundary_of_cell(disc, 2, adc).scale(s_adc)
    ok = ok and d_adc == edge_chain(((("C", "D")), -1), ((("A", "C")), -1),
                                    ((("A", "D")), 1))
    total = d_abd + d_bcd + d_adc
    perimeter = edge_chain(((("A", "B")), 1), ((("B", "C")), 1),
                           ((("A", "C")), -1))
    ok = ok and total == perimeter

    _verdict("reference incidence tables and boundary identities", ok)


# 2 ---------------------------------------------------------------------

def test_orientation_fixtures():
    cyl = make_cylinder()
    rep = orientability(cyl)
    target = cyl.chain(1, {("B", "C"): 1, ("C", "D"): 1, ("B", "D"): -1,
                           ("A", "E"): -1, ("E", "F"): -1, ("A", "F"): 1})
    bd = boundary_map(rep.fundamental_chain, cyl)
    ok = rep.orientable and bd in (target, -target)

    mob = make_mobius()
    mrep = orientability(mob)
    ok = ok and not mrep.orientable
    # orienting the strip cell by cell leaves a doubled seam edge behind
    oriented = mob.chain(2, {("A", "B", "C"): 1, ("A", "C", "E"): 1,
                             ("D", "E", "F"): -1, ("C", "D", "E"): 1,
                             ("A", "B", "F"): 1, ("A", "D", "F"): -1})
    excess = mob.chain(1, {("B", "C"): 1, ("C", "D"): 1, ("A", "D"): -1,
                           ("A", "E"): -1, ("E", "F"): -1, ("B", "F"): 1,
                           ("A", "B"): 2})
    ok = ok and boundary_map(oriented, mob) == excess
    # mod 2 the seam disappears and only the rim hexagon remains
    rim = {mob.label_tuple(1, i) for i in mrep.mod2_boundary.coeffs}
    ok = ok and rim == {("A", "D"), ("A", "E"), ("B", "C"),
                        ("B", "F"), ("C", "D"), ("E", "F")}

    tet = make_tetra_surface()
    trep = orientability(tet)
    ok = ok and trep.orientable and trep.closed
    ok = ok and not boundary_map(trep.fundamental_chain, tet)

    _verdict("orientation fixtures (cylinder seam, strip excess, closed shell)", ok)


# 3 ---------------------------------------------------------------------

def test_homology_table():
    sphere = make_sphere()
    torus = make_torus()
    rp2 = make_rp2()
    ok = betti_numbers(sphere) == [1, 0, 1]
    ok = ok and euler_characteristic(sphere) == 1 - 0 + 1 == 2
    ok = ok and betti_numbers(torus) == [1, 2, 1]
    ok = ok and euler_characteristic(torus) == 1 - 2 + 1 == 0
    h1 = homology(rp2, 1)
    ok = ok and (h1.betti, h1.torsion) == (0, (2,))
    for cx in (make_circle(), make_disc(), make_tetra_surface(),
               make_cylinder(), make_mobius(), rp2, torus, sphere):
        from_cells = sum((-1) ** k * n for k, n in enumerate(cx.cell_counts()))
        from_betti = sum((-1) ** k * b for k, b in enumerate(betti_numbers(cx)))
        ok = ok and from_cells == from_betti == euler_characteristic(cx)
    _verdict("homology table (sphere, torus, projective plane, euler counts)", ok)


# 4 ---------------------------------------------------------------------

def _betti_3d(removed=(), defects=()):
    from crystaltopo import DefectSpec
    spec = LatticeSpec(
        dimension=3, ambient=3,
        generators=((1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0)),
        index_box=((0, 4), (0, 4), (0, 4)),
        scheme="cubic",
        removed_indices=tuple(removed),
        defects=tuple(defects))
    cx, _ = build_lattice_complex(spec)
    return betti_numbers(cx)


def test_defect_deltas():
    from crystaltopo import DefectSpec
    flat = make_grid(5)
    punctured = make_grid(5, removed=[(2, 2)])
    ok = betti_numbers(flat) == [1, 0, 0]
    ok = ok and betti_numbers(punctured) == [1, 1, 0]

    base = _betti_3d()
    ok = ok and base == [1, 0, 0, 0]
    vacancy = _betti_3d(defects=[DefectSpec("vacancy", index=(2, 2, 2))])
    ok = ok and vacancy == [1, 0, 1, 0]
    line = _betti_3d(defects=[DefectSpec("line_defect", axis=3,
                                         transverse=(2, 2))])
    ok = ok and line == [1, 1, 0, 0]
    _verdict("defect deltas (+1 loop, +1 void, +1 threading line)", ok)


# 5 ---------------------------------------------------------------------

def test_obstruction_scenario_discrete_interface():
    sp = make_space("finite_set", labels=("+h/2", "-h/2"))
    grid = make_grid(4)
    mixed = OrderField.from_function(
        grid, sp, lambda label: "+h/2" if label[0] < 2 else "-h/2")
    rep = extend_field(mixed)
    ok = (not rep.extends) and rep.blocked_at == 1 and "constant" in rep.note

    # constant on each piece of a two-component sample: extends even though
    # the two pieces disagree
    two = DeltaComplex.from_simplices([("A", "B"), ("C", "D")])
    split = OrderField.from_samples(
        two, sp, {"A": "+h/2", "B": "+h/2", "C": "-h/2", "D": "-h/2"})
    ok = ok and extend_field(split).extends

    # labels read from JSON lists do not hash; the interface still blocks
    # and both sides are named
    listed = OrderField.from_function(
        grid, make_space("finite_set", labels=([1], [2])),
        lambda label: [1] if label[0] < 2 else [2])
    rep = extend_field(listed)
    ok = ok and rep.blocked_at == 1 and rep.component_values == [
        {"component": 0, "labels": ["[1]", "[2]"]}]
    _verdict("obstruction (a): interface blocks, per-component constants pass", ok)


def test_obstruction_scenario_vortices_on_sphere():
    sphere = make_sphere()
    fund = orientability(sphere).fundamental_chain

    # a lone unit vortex, entered as measured data on one face
    fid = min(fund.coeffs)
    lone = ObstructionCochain(sphere, 2, GROUP_Z,
                              {fid: fund.coeffs[fid]}, "circle")
    ok = evaluate(lone, fund) == 1
    ok = ok and verify_cocycle(lone)
    ok = ok and obstruction_class(lone) == "nontrivial"
    ok = ok and abs(pair_with_generators(lone)[0]["pairing"]) == 1

    # a sampled vortex/antivortex pair on the same lattice
    def two_vortices(label):
        x, y = label
        if (x, y) == (-1, -1):
            return 0.0
        w = (complex(x, y) - complex(2.6, 3.1)) \
            * (complex(x, y) - complex(4.4, 3.2)).conjugate()
        return math.atan2(w.imag, w.real)

    sp = make_space("circle")
    pair = extend_field(OrderField.from_function(sphere, sp, two_vortices))
    ok = ok and sorted(pair.cochain.values.values()) == [-1, 1]
    ok = ok and evaluate(pair.cochain, fund) == 0
    ok = ok and pair.class_status == "trivial"
    _verdict("obstruction (b): lone vortex pairs to 1, pair cancels to 0", ok)


def test_obstruction_scenario_hedgehog():
    corners = [(i, j, k) for i in range(2) for j in range(2) for k in range(2)]
    cube = build_complex(corners, "cubic")
    sp = make_space("sphere_2")
    center = np.array([0.5, 0.5, 0.5])

    def ray(label):
        v = np.asarray(label, dtype=float) - center
        return tuple(v / np.linalg.norm(v))

    rep = extend_field(OrderField.from_function(cube, sp, ray))
    ok = (not rep.extends) and rep.blocked_at == 3
    ok = ok and dict(rep.cochain.values) == {0: 1}
    ok = ok and rep.cocycle_ok
    _verdict("obstruction (c): unit hedgehog blocks the cube interior", ok)


# 6 ---------------------------------------------------------------------

def test_cocycle_property_randomized():
    corners = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)]
    fixtures = [build_complex(corners, "cubic"),
                build_complex(corners, "triangular")]
    t3, _ = build_lattice_complex(LatticeSpec(
        dimension=3, ambient=3,
        generators=((1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0)),
        index_box=((0, 2), (0, 2), (0, 2)),
        scheme="cubic", boundary="periodic", periodic_axes=(1, 2, 3)))
    fixtures.append(t3)

    sp = make_space("circle")
    rng = random.Random(20260819)
    checked = 0
    ok = True
    for fixture, quota in zip(fixtures, (67, 67, 66)):
        done = 0
        while done < quota:
            angles = {lab: rng.uniform(0, 2 * math.pi)
                      for lab in fixture.vertex_labels}
            f = OrderField.from_samples(fixture, sp, angles)
            try:
                c = obstruction_cochain(f, 2)
            except AmbiguousSamplingError:
                continue  # resample until the screens pass
            ok = ok and verify_cocycle(c)
            done += 1
            checked += 1
    ok = ok and checked == 200
    _verdict("cocycle property on 200 randomized circle fields", ok)


# 7 ---------------------------------------------------------------------

def test_index_sums_match_euler():
    sphere = make_sphere()
    fund = orientability(sphere).fundamental_chain
    faces = sorted(fund.coeffs)
    north, south = faces[0], faces[-1]

    two_simple = ObstructionCochain(
        sphere, 2, GROUP_Z,
        {north: fund.coeffs[north], south: fund.coeffs[south]}, "circle")
    ok = evaluate(two_simple, fund) == 2 == euler_characteristic(sphere)

    one_double = ObstructionCochain(
        sphere, 2, GROUP_Z, {north: 2 * fund.coeffs[north]}, "circle")
    ok = ok and evaluate(one_double, fund) == 2

    torus = make_torus()
    smooth = OrderField.from_function(torus, make_space("circle"),
                                      lambda label: 1.1)
    rep = index_sum_check(smooth)
    ok = ok and rep.applicable and rep.consistent
    ok = ok and rep.index_sum == 0 == euler_characteristic(torus)
    _verdict("index sums: {+1,+1} -> 2, {+2} -> 2, smooth torus -> 0", ok)


# 8 ---------------------------------------------------------------------

def test_reduction_matches_oracle():
    rng = random.Random(411)
    ok = True
    for _ in range(500):
        r = rng.randint(1, 8)
        c = rng.randint(1, 8)
        m = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]
        dec = smith_normal_form(m)
        got = [dec.D[i][i] for i in range(min(r, c))]
        want = snf_diagonal_oracle(m)
        want = want + [0] * (min(r, c) - len(want))
        ok = ok and got == want
        ok = ok and matmul_oracle(m, dec.V) == matmul_oracle(dec.uinv, dec.D)
        ok = ok and abs(det_oracle(dec.V)) == abs(det_oracle(dec.uinv)) == 1
        ident = [[1 if i == j else 0 for j in range(c)] for i in range(c)]
        ok = ok and matmul_oracle(dec.V, dec.vinv) == ident
        ok = ok and matmul_oracle(dec.vinv, dec.V) == ident
    _verdict("normal form equals brute-force oracle on 500 matrices", ok)


# 9 ---------------------------------------------------------------------

def test_subdivision_invariance():
    ok = True
    for cx in (make_circle(), make_disc(), make_tetra_surface(),
               make_mobius(), make_rp2()):
        sd = barycentric_subdivide(cx)
        for k in range(cx.dim + 1):
            before = homology(cx, k)
            after = homology(sd, k)
            ok = ok and (before.betti, before.torsion) == (after.betti,
                                                           after.torsion)
    _verdict("subdivision preserves betti numbers and torsion", ok)


def _free_triangular_box(m, n):
    cx, _ = build_lattice_complex(LatticeSpec(
        dimension=m, ambient=m,
        generators=tuple(tuple(float(i == j) for j in range(m))
                         for i in range(m)),
        index_box=((0, n),) * m, scheme="triangular"))
    return cx


# SHA-256 of the canonical JSON of the vertex labels and every layer's
# arrays of the barycentric subdivision.
SUBDIVISION_SHA256 = {
    "circle":
        "eea14100b839344f80104e896a139b39be1f9c218eff65d9bdc02b6562bb68e3",
    "disc":
        "3b1db784c0dc3d5ff16c5c7ff5c5b258a954f5e10d3697029908913bd73003fc",
    "tetra_surface":
        "e1ac15afd882c7abe1b6a29ee5a925c4924e7fc1b92779e878fade8291e15238",
    "mobius":
        "574eb4cab71f529ed23dbb074e32ec861742a682f5fbc2c6e69fea8dc0501fa6",
    "rp2":
        "1c7d29f8b0949838d4ee8e87660fb711b13337a91357f2f615acf38262e6e4f1",
    "torus3":
        "df44a8657de5f5754f7142490a62b2ba40ec66a95baffec4227a777201219351",
    "free2":
        "adb2c0b80e98a7cf3c835da40531a8b9adf5fa527bdb3924b9d8c092950b1f2b",
    "free3":
        "e20b8ec22e1fed88ec9aff14567ce654cff25cf8a656ec47051cbe8b9c33333d",
}
SUBDIVISION_INPUTS = {
    "circle": make_circle, "disc": make_disc,
    "tetra_surface": make_tetra_surface, "mobius": make_mobius,
    "rp2": make_rp2, "torus3": lambda: make_torus(3),
    "free2": lambda: _free_triangular_box(2, 2),
    "free3": lambda: _free_triangular_box(3, 1),
}


def _subdivision_digest(cx):
    sd = barycentric_subdivide(cx)
    payload = [sd.vertex_labels,
               [[getattr(layer, name).tolist() for name in layer.__slots__]
                for layer in sd.layers]]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def test_subdivision_output_is_pinned():
    got = {name: _subdivision_digest(make())
           for name, make in SUBDIVISION_INPUTS.items()}
    _verdict("subdivided complexes are byte-identical",
             got == SUBDIVISION_SHA256)


# 10 --------------------------------------------------------------------

def test_kirchhoff_checks():
    grid = make_grid(4)
    rng = random.Random(77)

    currents = {}
    for fid in range(grid.n_cells(2)):
        w = rng.uniform(-3, 3)
        for eid, coeff in boundary_of_cell(grid, 2, fid).coeffs.items():
            currents[eid] = currents.get(eid, 0.0) + w * coeff
    law = check_current_law(grid, currents)
    ok = law.ok and law.max_residual < 1e-9

    pot = {grid.label_tuple(0, i)[0]: rng.uniform(-4, 4)
           for i in range(grid.n_cells(0))}
    drops = {}
    for eid in range(grid.n_cells(1)):
        a, b = grid.label_tuple(1, eid)
        drops[eid] = pot[b] - pot[a]
    exact = potential_check(grid, drops)
    ok = ok and exact.consistent
    truth = [pot[grid.label_tuple(0, i)[0]] for i in range(grid.n_cells(0))]
    shift = exact.potentials[0] - truth[0]
    ok = ok and all(abs(p - t - shift) < 1e-9
                    for p, t in zip(exact.potentials, truth))

    # two pieces, each with its own reference level
    two = DeltaComplex.from_simplices([("A", "B"), ("C", "D")])
    rep = potential_check(two, {0: 2.5, 1: -1.0})
    ok = ok and rep.consistent
    ok = ok and rep.potentials[1] - rep.potentials[0] == 2.5
    ok = ok and rep.potentials[3] - rep.potentials[2] == -1.0
    _verdict("kirchhoff current law and potential recovery", ok)
