"""Transformations of the input whose effect on the answer is known, so the
test needs no second implementation of any convention of the package."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from crystaltopo import (LatticeSpec, OrderField, boundary_classes,
                         build_lattice_complex, make_space)


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
