"""Transformations of the input whose effect on the answer is known, so the
test needs no second implementation of any convention of the package."""

import dataclasses
from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from crystaltopo import (RING_INT, RING_MOD2, RING_REAL,
                         AmbiguousSamplingError, DefectLocusError,
                         DefectSpec, DeltaComplex, OrderField,
                         boundary_classes, build_lattice_complex,
                         euler_characteristic, extend_field, homology,
                         make_space, orientability)

from conftest import free_cubic_box, torus_spec


def _rotation(rng):
    """A random proper rotation: Q of a Gaussian matrix's QR, its columns
    signed by R's diagonal, and one flipped if its determinant is -1."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _degrees(cx, vectors):
    samples = dict(zip(cx.vertex_labels, map(tuple, vectors)))
    f = OrderField.from_samples(cx, make_space("sphere_2"), samples)
    return boundary_classes(f, 3)


@settings(max_examples=40, deadline=None)
@given(side=st.integers(3, 6), seed=st.integers(0, 2**32 - 1),
       outward=st.booleans())
def test_rotations_keep_and_reflections_negate_sphere_degrees(side, seed,
                                                              outward):
    # A hedgehog (or antihedgehog) about a point at least 0.2 from every
    # lattice plane, so no shell triangle comes near a great circle.
    rng = np.random.default_rng(seed)
    cx = free_cubic_box(side)
    centre = rng.integers(0, side, size=3) + rng.uniform(0.2, 0.8, size=3)
    d = np.array(cx.vertex_labels, dtype=float) - centre
    d = d if outward else -d
    vectors = d / np.linalg.norm(d, axis=1)[:, None]
    rotation = _rotation(rng)
    reflection = rotation @ np.diag([1.0, 1.0, -1.0])
    degrees = _degrees(cx, vectors)
    assert any(degrees)
    assert _degrees(cx, vectors @ rotation.T) == degrees
    assert _degrees(cx, vectors @ reflection.T) == [-v for v in degrees]


def _verdict(simplices, points, centre):
    """blocked_at, the blocked cells as vertex-label sets and the class of
    a radial sphere_2 field on the complex; "refused" when its samples
    are refused."""
    cx = DeltaComplex.from_simplices(simplices)
    d = points[list(cx.vertex_labels)] - centre
    samples = dict(zip(cx.vertex_labels,
                       map(tuple, d / np.linalg.norm(d, axis=1)[:, None])))
    try:
        rep = extend_field(OrderField.from_samples(
            cx, make_space("sphere_2"), samples))
    except AmbiguousSamplingError:
        return "refused"
    if rep.extends:
        return None
    cells = {frozenset(cx.vertex_labels[v]
                       for v in cx.cell(rep.blocked_at, c).vertices)
             for c in rep.verdicts[-1].blocking}
    return rep.blocked_at, cells, rep.class_status


TETRAHEDRA = st.lists(st.lists(st.integers(0, 6), min_size=4, max_size=4,
                               unique=True), min_size=1, max_size=10)


@settings(max_examples=100, deadline=None)
@given(simplices=st.one_of(TETRAHEDRA, st.just(
           [list(t) for t in combinations(range(5), 4)])),
       perm=st.permutations(range(7)), seed=st.integers(0, 2**32 - 1))
def test_relabelled_vertices_keep_the_radial_field_verdict(simplices, perm,
                                                           seed):
    # Relabelling the vertices reorders the cells, so the gluing forest of
    # the tetrahedra and the Dirac string it carries change; the verdict
    # must not.  The 4-simplex's boundary is a closed 3-sphere.
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1.0, 1.0, size=(7, 3))
    centre = rng.uniform(-0.5, 0.5, size=3)
    back = np.argsort(perm)  # the inverse relabelling
    want = _verdict(simplices, points, centre)
    got = _verdict([[perm[v] for v in s] for s in simplices], points[back],
                   centre)
    if isinstance(got, tuple):
        got = (got[0], {frozenset(back[sorted(c)].tolist()) for c in got[1]},
               got[2])
    assert got == want



@st.composite
def _shifted_tori(draw):
    """A fully periodic triangular 2-torus (period 3-7) or cubic 3-torus
    (period 3-4); 0-3 vacancies then at most one line or surface defect,
    each as (kind, axis, a site on its locus); a shift; and a seed."""
    m = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(3, 7) if m == 2 else st.integers(3, 4))
    site = st.tuples(*[st.integers(0, n - 1)] * m)
    defects = [("vacancy", None, v)
               for v in draw(st.lists(site, max_size=3, unique=True))]
    kind = draw(st.sampled_from([None, "line_defect", "surface_defect"]))
    if kind:
        defects.append((kind, draw(st.integers(1, m)), draw(site)))
    return m, n, defects, draw(site), draw(st.integers(0, 2**32 - 1))


def _shifted(m, n, defects, shift, angles):
    """Cell counts, groups, Euler characteristic, orientability and, given
    circle angles per site, the extension verdict of the torus whose
    defect loci and samples are all moved by ``shift`` modulo n."""
    specs = []
    for kind, axis, site in defects:
        site = [(p + s) % n for p, s in zip(site, shift)]
        specs.append(
            DefectSpec(kind, index=tuple(site)) if kind == "vacancy" else
            DefectSpec(kind, axis=axis, transverse=tuple(
                site[:axis - 1] + site[axis:])) if kind == "line_defect" else
            DefectSpec(kind, axis=axis, coordinate=site[axis - 1]))
    spec = torus_spec(n, "triangular" if m == 2 else "cubic", m)
    try:
        cx = build_lattice_complex(dataclasses.replace(
            spec, defects=tuple(specs)))[0]
    except DefectLocusError:
        return "refused"
    report = orientability(cx)
    got = [cx.cell_counts(), euler_characteristic(cx),
           (report.orientable, report.closed)]
    got += [homology(cx, k, ring) for k in range(m + 1)
            for ring in (RING_INT, RING_MOD2, RING_REAL)]
    if angles is not None:
        samples = {site: float(angles[tuple((p - s) % n for p, s in zip(
            site, shift))]) for site in cx.vertex_labels}
        try:
            rep = extend_field(OrderField.from_samples(
                cx, make_space("circle"), samples))
        except AmbiguousSamplingError:
            got.append("refused")
        else:
            got.append((rep.blocked_at, len(rep.verdicts[-1].blocking),
                        rep.class_status))
    return got


@settings(max_examples=100, deadline=None)
@given(_shifted_tori())
def test_a_periodic_shift_keeps_groups_and_circle_verdicts(sample):
    # A translation of the torus carries the sample onto the shifted one:
    # the cells are renumbered and the gluing forest and walk start
    # elsewhere, but no count, group or verdict may change.
    m, n, defects, shift, seed = sample
    angles = None
    if m == 2:
        angles = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, (n, n))
    assert _shifted(m, n, defects, shift, angles) == _shifted(
        m, n, defects, (0,) * m, angles)
