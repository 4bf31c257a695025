"""The coreduction walk's ranks and torsion against sympy's invariant
factors of the dense boundary matrices, an implementation that shares no
code or convention with the package."""

import importlib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings

from crystaltopo import build_lattice_complex
from crystaltopo.cli import build_from_document, load_document
from crystaltopo.complexes import RING_INT
from crystaltopo.errors import ComplexBuildError

from conftest import (DEGENERATE_TORI, lattice_specs, make_big_entries,
                      make_rp2)

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import invariant_factors  # noqa: E402

homology_mod = importlib.import_module("crystaltopo.homology")

SAMPLES = sorted(
    (Path(__file__).resolve().parents[1] / "docs" / "samples").glob("*.json"))


def dense_rows(cx, k):
    """d_k summed from the stored face rows, on Python integers."""
    layer = cx.layers[k]
    rows = [[0] * cx.n_cells(k) for _ in range(cx.n_cells(k - 1))]
    ptr = layer.face_ptr.tolist()
    for j, (s, e) in enumerate(zip(ptr, ptr[1:])):
        for f, c in zip(layer.faces[s:e].tolist(), layer.coeffs[s:e].tolist()):
            rows[f][j] += c
    return rows


def assert_matches_sympy(cx):
    for k in range(1, cx.dim + 1):
        if cx.n_cells(k) * cx.n_cells(k - 1) == 0:
            continue
        factors = sorted(abs(int(d)) for d in invariant_factors(
            sympy.Matrix(dense_rows(cx, k)), domain=sympy.ZZ) if d)
        assert homology_mod._reduction(cx, k, RING_INT) == (
            len(factors), tuple(d for d in factors if d > 1))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(lattice_specs())
def test_small_lattices_match_sympy(spec):
    try:
        cx, _ = build_lattice_complex(spec)
    except ComplexBuildError:
        assume(False)  # every site removed
    assert_matches_sympy(cx)


@pytest.mark.parametrize("spec", DEGENERATE_TORI,
                         ids=lambda s: f"{s.scheme}-{s.index_box[0][1]}"
                                       f"-{s.dimension}d")
def test_degenerate_tori_match_sympy(spec):
    assert_matches_sympy(build_lattice_complex(spec)[0])


@pytest.mark.parametrize("path", SAMPLES, ids=lambda p: p.stem)
def test_samples_match_sympy(path):
    assert_matches_sympy(build_from_document(load_document(path)[0])[0])


def test_torsion_matches_sympy():
    # Z/2 in H_1 of the projective plane, and Z/2^63 from entries of 2^62
    # whose sums pass int64
    for cx in (make_rp2(), make_big_entries()):
        assert_matches_sympy(cx)
    assert homology_mod._reduction(make_big_entries(), 2, RING_INT) == (
        1, (2 ** 63,))
