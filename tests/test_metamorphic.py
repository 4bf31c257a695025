"""Transformations of the input whose effect on the answer is known, so the
test needs no second implementation of any convention of the package."""

from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from crystaltopo import (AmbiguousSamplingError, DeltaComplex, LatticeSpec,
                         OrderField, boundary_classes, build_lattice_complex,
                         extend_field, make_space)


def _free_cubic_box(side):
    spec = LatticeSpec(
        dimension=3, ambient=3,
        generators=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
        index_box=((0, side),) * 3, scheme="cubic", boundary="free")
    return build_lattice_complex(spec)[0]


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
    cx = _free_cubic_box(side)
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
