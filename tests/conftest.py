import pytest
from hypothesis import strategies as st

from crystaltopo import (
    Cell,
    DefectSpec,
    DeltaComplex,
    LatticeSpec,
    build_lattice_complex,
)
from oracles import boundary_matrix_oracle, box_points, torus_site


def dense_boundary(cx, k):
    """d_k of ``cx`` as a dense int64 array, summed from its face arrays."""
    return boundary_matrix_oracle(cx.layers[k], cx.n_cells(k - 1))


def make_circle():
    # triangle perimeter: 3 vertices, 3 edges, no faces
    return DeltaComplex.from_simplices(
        [("A", "B"), ("A", "C"), ("B", "C")], auto_close=False)


def make_disc():
    return DeltaComplex.from_simplices(
        [("A", "B", "D"), ("B", "C", "D"), ("A", "D", "C")])


def make_tetra_surface():
    return DeltaComplex.from_simplices(
        [("A", "B", "C"), ("A", "C", "D"), ("A", "D", "B"), ("B", "D", "C")])


def make_cylinder():
    return DeltaComplex.from_simplices(
        [("A", "B", "C"), ("A", "B", "F"), ("A", "C", "E"),
         ("B", "D", "F"), ("C", "D", "E"), ("D", "E", "F")])


def make_mobius():
    return DeltaComplex.from_simplices(
        [("A", "B", "C"), ("A", "C", "E"), ("D", "E", "F"),
         ("C", "D", "E"), ("A", "B", "F"), ("A", "D", "F")])


def make_rp2():
    # minimal 6-vertex triangulation of the projective plane
    faces = [(1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
             (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6)]
    return DeltaComplex.from_simplices(faces)


def torus_spec(n=3, scheme="triangular", m=2):
    """The periodic n^m box of ``scheme``: the m-torus."""
    return LatticeSpec(
        dimension=m, ambient=m,
        generators=tuple(tuple(float(i == j) for j in range(m))
                         for i in range(m)),
        index_box=((0, n),) * m,
        scheme=scheme,
        boundary="periodic", periodic_axes=tuple(range(1, m + 1)))


# Period 1 glues a cell's faces onto one another, period 2 gives cells that
# share their vertices; every one is a torus all the same.
DEGENERATE_TORI = [torus_spec(n, scheme, m) for n in (1, 2)
                   for scheme in ("triangular", "cubic") for m in (2, 3)]


def make_torus(n=3, scheme="triangular"):
    cx, _ = build_lattice_complex(torus_spec(n, scheme))
    return cx


def make_big_entries():
    """Two entries of 2^62 on one face sum to 2^63, past int64: the edge e0
    has boundary 2^63 (v1 - v0), the 2-cell 2^63 times the loop e1, whose
    two ends cancel, so H_1 = Z/2^63."""
    big = 2 ** 62
    return DeltaComplex(range(2), [
        [Cell((0,), ()), Cell((1,), ())],
        [Cell((0, 1), ((1, big), (0, -big), (1, big), (0, -big))),
         Cell((0, 0), ((0, 1), (0, -1)))],
        [Cell((0, 0, 1), ((1, big), (1, big)))]])


def circle_torus_doc(angle, n=6):
    """A document of the circle field sampled at ``angle(x, y)`` on the
    periodic triangular n x n torus."""
    return {"dimension": 2, "ambient": 2,
            "generators": [[1.0, 0.0], [0.0, 1.0]],
            "index_box": [[0, n], [0, n]], "scheme": "triangular",
            "boundary_condition": {"kind": "periodic", "axes": [1, 2]},
            "field": {"space": "circle",
                      "samples": [[[x, y], angle(x, y)] for x in range(n)
                                  for y in range(n)]}}


def make_sphere(n=6):
    # square patch with its rim pinched to a point
    spec = LatticeSpec(
        dimension=2, ambient=2,
        generators=((1.0, 0.0), (0.0, 1.0)),
        index_box=((0, n), (0, n)),
        scheme="triangular",
        boundary="constant")
    cx, _ = build_lattice_complex(spec)
    return cx


def make_grid(n=5, scheme="triangular", removed=(), defects=()):
    spec = LatticeSpec(
        dimension=2, ambient=2,
        generators=((1.0, 0.0), (0.0, 1.0)),
        index_box=((0, n - 1), (0, n - 1)),
        scheme=scheme,
        removed_indices=tuple(removed),
        defects=tuple(defects))
    cx, _ = build_lattice_complex(spec)
    return cx


@st.composite
def lattice_specs(draw):
    """Small samples of both schemes with free, constant or periodic
    boundaries; extent-1 periodic axes give self-loops, extent-2 ones
    edges that share their vertex pair, a surface defect may remove one
    plane of sites, and up to two vacancies at distinct sites among the
    rest punch holes (on a periodic axis either end of the box names one
    site)."""
    m = draw(st.integers(1, 3))
    scheme = draw(st.sampled_from(["triangular", "cubic"]))
    boundary = draw(st.sampled_from(["free", "constant", "periodic"]))
    top = {1: 4, 2: 3, 3: 2}[m]
    box = tuple((0, draw(st.integers(1, top))) for _ in range(m))
    axes = ()
    if boundary == "periodic":
        axes = tuple(a + 1 for a in range(m) if draw(st.booleans())) or (1,)

    def site(p):
        return torus_site(p, box, [a - 1 for a in axes])

    defects, sites = [], box_points(box)
    if draw(st.booleans()):
        axis = draw(st.integers(1, m))
        coordinate = draw(st.integers(*box[axis - 1]))
        defects.append(DefectSpec("surface_defect", axis=axis,
                                  coordinate=coordinate))
        plane = {site(p) for p in sites if p[axis - 1] == coordinate}
        sites = [p for p in sites if site(p) not in plane]
    vacancies = draw(st.lists(st.sampled_from(sites), max_size=2,
                              unique_by=site)) if sites else []
    return LatticeSpec(
        dimension=m, ambient=m,
        generators=tuple(tuple(float(i == j) for j in range(m))
                         for i in range(m)),
        index_box=box, scheme=scheme, boundary=boundary, periodic_axes=axes,
        defects=tuple(defects) + tuple(DefectSpec("vacancy", index=v)
                                       for v in vacancies))


@pytest.fixture
def circle():
    return make_circle()


@pytest.fixture
def disc():
    return make_disc()


@pytest.fixture
def tetra_surface():
    return make_tetra_surface()


@pytest.fixture
def cylinder():
    return make_cylinder()


@pytest.fixture
def mobius():
    return make_mobius()


@pytest.fixture
def rp2():
    return make_rp2()


@pytest.fixture
def torus():
    return make_torus()


@pytest.fixture
def sphere():
    return make_sphere()
