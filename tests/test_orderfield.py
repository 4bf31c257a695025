import itertools
import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystaltopo import (
    AmbiguousSamplingError,
    Cell,
    CoverageError,
    CrystalTopoError,
    DeltaComplex,
    DimensionError,
    LatticeSpec,
    OrderField,
    UnsupportedConfigurationError,
    boundary_class,
    boundary_classes,
    build_lattice_complex,
    homology,
    index_sum_check,
    make_space,
    obstruction_class,
    obstruction_cochain,
    orientability,
    pi0_classes,
    rp_parity,
    sphere_degree,
    torus_winding,
    validate_complex,
    vertex_components,
    winding_number,
)

from crystaltopo.cli import build_from_document, field_from_document
from crystaltopo.complexes import SHAPE_CUBE, CellLayer
from crystaltopo.errors import DocumentError
from crystaltopo.orderfield import (ANGLE_TOL, _angle_steps, _edge_classes,
                                    _solid_angles)

from conftest import (
    lattice_specs,
    make_circle,
    make_grid,
    make_tetra_surface,
    make_torus,
)

from oracles import (
    ProbeRefused,
    SamplesUncovered,
    _probe_shell,
    _probe_solid_angle,
    boundary_class_oracle,
    field_entries_oracle,
    field_samples_oracle,
    rp_parity_oracle,
    solid_angle_oracle,
    sphere_degree_oracle,
    winding_number_oracle,
    winding_oracle,
)


def polygon(n, prefix="P"):
    names = [f"{prefix}{i}" for i in range(n)]
    cx = DeltaComplex.from_simplices(
        [(names[i], names[(i + 1) % n]) for i in range(n)], auto_close=False)
    loop = [cx.vertex_id(v) for v in names]
    return cx, names, loop


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------

def test_homotopy_group_table():
    assert make_space("circle").homotopy_group(1).name == "Z"
    assert make_space("circle").homotopy_group(2).trivial
    assert make_space("sphere_2").homotopy_group(1).trivial
    assert make_space("sphere_2").homotopy_group(2).name == "Z"
    assert make_space("projective_plane").homotopy_group(1).order == 2
    assert make_space("torus").homotopy_group(1).rank == 2
    assert not make_space("biaxial_nematic").homotopy_group(1).abelian


def test_unknown_space_is_rejected():
    with pytest.raises(UnsupportedConfigurationError):
        make_space("banana")


def test_finite_set_needs_labels():
    sp = make_space("finite_set", labels=("up", "down"))
    assert sp.homotopy_group(0).size == 2
    with pytest.raises(UnsupportedConfigurationError,
                       match="finite_set space needs a nonempty label list"):
        make_space("finite_set")


def test_homotopy_groups_stop_at_degree_2():
    with pytest.raises(DimensionError,
                       match="homotopy degree 3 is out of scope"):
        make_space("sphere_2").homotopy_group(3)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_every_vertex_must_be_sampled(circle):
    sp = make_space("circle")
    with pytest.raises(CoverageError) as err:
        OrderField.from_samples(circle, sp, {"A": 0.0})
    assert "B" in str(err.value) and "C" in str(err.value)


def test_angle_and_vector_forms_agree(circle):
    sp = make_space("circle")
    f = OrderField.from_samples(circle, sp, {"A": 0.0, "B": math.pi / 2, "C": math.pi})
    g = OrderField.from_samples(circle, sp,
                                {"A": (1.0, 0.0), "B": (0.0, 1.0), "C": (-1.0, 0.0)})
    for vid in range(3):
        assert np.allclose(f.values[vid], g.values[vid])


def test_from_function(circle):
    sp = make_space("circle")
    f = OrderField.from_function(circle, sp, lambda label: 0.25)
    assert math.atan2(*f.values[0][::-1]) == pytest.approx(0.25)


def test_non_unit_vectors_rejected(circle):
    sp = make_space("sphere_2")
    cx = make_tetra_surface()
    with pytest.raises(Exception):
        OrderField.from_samples(cx, sp, {v: (2.0, 0.0, 0.0) for v in "ABCD"})


@pytest.mark.parametrize("space, value", [
    ("circle", True), ("circle", np.bool_(False)),
    ("sphere_2", [True, False, False]), ("sphere_2", (1.0, False, 0.0)),
    ("sphere_2", np.array([True, False, False])), ("torus", (True, 0.0))])
def test_boolean_samples_are_refused(circle, space, value):
    samples = {"A": value, "B": 0.0, "C": 0.0}
    with pytest.raises(ValueError, match="vertex 'A': expected numbers"):
        OrderField.from_samples(circle, make_space(space), samples)


@pytest.mark.parametrize("space, value", [
    ("circle", "0.5"), ("circle", ("1", "0")),
    ("sphere_2", ["1", "0", "0"]), ("sphere_2", (1.0, b"0", 0.0)),
    ("sphere_2", np.array(["1", "0", "0"])),
    ("sphere_2", np.array([b"1", b"0", b"0"])),
    ("sphere_2", bytearray(b"\x01\x00\x00")), ("torus", ("0", 0.0)),
    ("biaxial_nematic", np.eye(3).astype(str).tolist())])
def test_text_samples_are_refused(circle, space, value):
    # numpy reads these as numbers; JSON text is no number to a field
    samples = {"A": value, "B": value, "C": value}
    with pytest.raises(ValueError, match="vertex 'A': expected numbers"):
        OrderField.from_samples(circle, make_space(space), samples)


@pytest.mark.parametrize("space, value, reason", [
    ("sphere_2", (1e200, 0.0, 0.0), "vector norm inf is not 1"),
    ("projective_plane", (0.0, -1e300, 1e300), "vector norm inf is not 1"),
    ("circle", (1e300, 1e300), "vector norm inf is not 1"),
    ("torus", (1.0, 0.0, 1e200, 0.0), "vector norm inf is not 1"),
    ("biaxial_nematic", 1e200 * np.eye(3), "frame is not orthonormal")])
def test_huge_samples_are_refused_without_a_warning(circle, space, value,
                                                     reason):
    # pytest turns warnings into errors here, so an overflow warning from
    # the refused vertex's own check would fail this test
    samples = {"A": value, "B": value, "C": value}
    with pytest.raises(ValueError, match=re.escape(f"vertex 'A': {reason}")):
        OrderField.from_samples(circle, make_space(space), samples)


@pytest.mark.parametrize("space, value", [
    ("circle", math.nan), ("circle", -math.inf), ("circle", (math.nan, 0.0)),
    ("sphere_2", (math.nan, 0.0, 0.0)), ("sphere_2", (math.inf, 0.0, 0.0)),
    ("projective_plane", np.array([0.0, math.nan, 1.0])),
    ("torus", (math.nan, 0.1)), ("torus", (1.0, 0.0, math.inf, 0.0)),
    ("biaxial_nematic", np.full((3, 3), math.nan))])
def test_non_finite_samples_are_refused(circle, space, value):
    # NaN slips past every tolerance test, so it is refused on sight
    samples = {"A": value, "B": value, "C": value}
    with pytest.raises(ValueError,
                       match="vertex 'A': expected finite numbers"):
        OrderField.from_samples(circle, make_space(space), samples)


@pytest.mark.parametrize("space, value, reason", [
    (make_space("finite_set", ("up", "down")), "sideways",
     "label 'sideways' not in the space"),
    (make_space("finite_set", ("up", "down")), ["up"],
     "label ['up'] not in the space"),
    (make_space("sphere_2"), (1.0, 0.0), "expected a 3-vector, got (2,)"),
    (make_space("torus"), (0.0, 0.1, 0.2),
     "torus values are two angles or a 4-vector"),
    (make_space("torus"), np.eye(2),
     "torus values are two angles or a 4-vector"),
    (make_space("torus"), (1.0, 0.0, 0.0, 2.0), "vector norm 2.0 is not 1"),
    (make_space("biaxial_nematic"), np.eye(2), "expected a 3x3 frame"),
    (make_space("cholesteric"), np.ones(9), "expected a 3x3 frame"),
    (make_space("biaxial_nematic"), 2 * np.eye(3), "frame is not orthonormal"),
    (make_space("cholesteric"), [[1, 0, 0], [1, 0, 0], [0, 0, 1]],
     "frame is not orthonormal"),
    # a circle angle is a Python number, not any value of shape ()
    (make_space("circle"), np.int64(1), "expected a 2-vector, got ()"),
    (make_space("circle"), np.array(0.5), "expected a 2-vector, got ()")])
def test_invalid_samples_are_refused_by_vertex(circle, space, value, reason):
    good = {"finite_set": "up", "sphere_2": (0.0, 0.0, 1.0), "circle": 0.0,
            "torus": (0.0, 0.0)}.get(space.name, np.eye(3))
    with pytest.raises(ValueError, match=re.escape(f"vertex 'B': {reason}")):
        OrderField.from_samples(circle, space,
                                {"A": good, "B": value, "C": good})


@pytest.mark.parametrize("space, value, shape", [
    ("circle", 0.5, (2,)), ("circle", (0.0, 1.0), (2,)),
    ("sphere_2", (0.0, 0.0, 1.0), (3,)),
    ("projective_plane", [0.6, 0.8, 0.0], (3,)),
    ("torus", (0.5, 1.5), (4,)), ("torus", (1.0, 0.0, 0.0, 1.0), (4,)),
    ("biaxial_nematic", np.eye(3, dtype=int), (3, 3)),
    ("cholesteric", np.eye(3)[[1, 2, 0]].tolist(), (3, 3)),
    ("circle", np.float64(0.5), (2,))])
def test_vector_and_frame_values_are_one_float_array(circle, space, value,
                                                     shape):
    f = OrderField.from_samples(circle, make_space(space),
                                {v: value for v in "ABC"})
    assert isinstance(f.values, np.ndarray)
    assert f.values.dtype == np.float64 and f.values.shape == (3, *shape)
    assert (f.values == f.values[0]).all()


def test_finite_set_refusal_names_the_first_vertex_before_an_array(circle):
    # an array compares elementwise, so ``in`` on it raises; the batch
    # must not reach it once an earlier vertex is refused
    samples = {"A": "up", "B": "sideways", "C": np.eye(3)}
    with pytest.raises(ValueError,
                       match="vertex 'B': label 'sideways' not in the space"):
        OrderField.from_samples(circle, make_space("finite_set",
                                                   ("up", "down")), samples)


def test_finite_set_values_stay_the_sample_objects(circle):
    labels = ("up", 1, (0, 1))
    f = OrderField.from_samples(circle, make_space("finite_set", labels),
                                dict(zip("ABC", labels)))
    assert f.values == list(labels)
    assert [type(v) for v in f.values] == [str, int, tuple]


# The batched sample check against the vertex-by-vertex loop it replaced
# (tests/oracles.py): the same accept or refuse, the same exception type
# and text, and bit-identical stored values.

SAMPLE_SPACES = ["finite_set", "circle", "projective_plane", "sphere_2",
                 "torus", "biaxial_nematic", "cholesteric"]
FINITE_LABELS = [["up", "down"], [1, 2.5], [[1], [2]], [{"a": 1}, 2]]


def _valid_sample(rng, space, labels, angle_rate):
    """A sample the space accepts; a circle or torus sample is in angle
    form with probability ``angle_rate``."""
    if space == "finite_set":
        return json.loads(json.dumps(labels[rng.integers(len(labels))]))
    if space in ("circle", "torus"):
        angles = rng.uniform(-7.0, 7.0, 1 if space == "circle" else 2)
        if rng.random() < angle_rate:
            return angles[0].item() if space == "circle" else angles.tolist()
        return [f(a) for a in angles.tolist() for f in (math.cos, math.sin)]
    if space in ("projective_plane", "sphere_2"):
        v = rng.normal(size=3)
        return (v / np.linalg.norm(v)).tolist()
    return np.linalg.qr(rng.normal(size=(3, 3)))[0].tolist()


def _with_leaf(rng, value, leaf):
    """``value`` with one number, at a random place, replaced by ``leaf``,
    or by ``leaf(number)`` when it is callable; a bare number is replaced
    whole."""
    if not isinstance(value, list) or not value:
        return leaf(value) if callable(leaf) else leaf
    i = rng.integers(len(value))
    return value[:i] + [_with_leaf(rng, value[i], leaf)] + value[i + 1:]


def _bool_unit(value):
    """Booleans shaped like ``value`` that the space would accept if they
    were read as numbers: an angle, unit vectors or the identity frame."""
    if not isinstance(value, list) or not value:
        return True
    if isinstance(value[0], list):
        return np.eye(3, dtype=bool).tolist()
    return ([True, False] * 2 if len(value) == 4
            else [True] + [False] * (len(value) - 1))


def _retyped(kind):
    """A finite float as ``kind``; anything else as it is."""
    return lambda x: kind(x) if type(x) is float and math.isfinite(x) else x


def _scaled(value, factor):
    if isinstance(value, list):
        return [_scaled(v, factor) for v in value]
    return value * factor if type(value) is float else value


def _as_array(value, objects):
    try:
        return np.array(value, dtype=object if objects else None)
    except ValueError:  # ragged
        return np.array(value, dtype=object)


def _sheared(value, eps):
    """A frame with eps times its second row added to its first, so its
    rows are no longer quite orthogonal; a vector or an angle with eps
    added to its first number.  Entries that are not floats stay."""
    if not isinstance(value, list) or not value:
        return value + eps if type(value) is float else value
    first, rest = value[0], value[1:]
    if isinstance(first, list) and rest and isinstance(rest[0], list):
        first = [a + eps * b if type(a) is type(b) is float else a
                 for a, b in zip(first, rest[0])] + first[len(rest[0]):]
    elif type(first) is float:
        first += eps
    return [first] + rest


# name -> (value, rng) -> corrupted value; the names after JSON_SAFE hold
# values a JSON document cannot, or change only the Python container
SAMPLE_EDITS = {
    "bool": lambda v, rng: bool(rng.integers(2)),
    "bool-entry": lambda v, rng: _with_leaf(rng, v, True),
    "bool-unit": lambda v, rng: _bool_unit(v),
    "nan": lambda v, rng: math.nan,
    "inf-entry": lambda v, rng: _with_leaf(rng, v, -math.inf),
    "nan-entry": lambda v, rng: _with_leaf(rng, v, math.nan),
    "short": lambda v, rng: v[:-1] if isinstance(v, list) else [v],
    "long": lambda v, rng: v + [0.0] if isinstance(v, list) else [v, v],
    "ragged": lambda v, rng: [[1.0, 0.0], [0.0]],
    "ragged-entry": lambda v, rng: _with_leaf(rng, v, [1.0]),
    "object": lambda v, rng: {"x": 1},
    "text": lambda v, rng: "abc",
    "null": lambda v, rng: None,
    "doubled": lambda v, rng: _scaled(v, 2.0),
    "off-unit": lambda v, rng: _scaled(v, 1.0 + 1e-8),
    "near-unit": lambda v, rng: _scaled(v, 1.0 + 1e-12),
    "shear-in": lambda v, rng: _sheared(v, 3e-9),
    "shear-out": lambda v, rng: _sheared(v, 3e-8),
    "big-int": lambda v, rng: _with_leaf(rng, v, 10 ** 400),
    "big-int-angle": lambda v, rng: -10 ** 400,
    "eye": lambda v, rng: np.eye(3, dtype=int).tolist(),
    "label": lambda v, rng: "sideways",
}
JSON_SAFE = set(SAMPLE_EDITS)
SAMPLE_EDITS.update({
    "np-bool": lambda v, rng: np.bool_(rng.integers(2)),
    "np-eye": lambda v, rng: np.eye(3, dtype=int),
    "array": lambda v, rng: _as_array(v, rng.random() < 0.3),
    "tuple": lambda v, rng: tuple(v) if isinstance(v, list) else (v,),
    "np-float": lambda v, rng: np.float64(v) if type(v) is float else v,
    # a circle angle is a Python number: a numpy integer, a float32 or a
    # 0-d array is a value of the wrong shape, a numpy float (a float) an
    # angle
    "np-int": lambda v, rng: _with_leaf(rng, v, _retyped(np.int64)),
    "np-float32": lambda v, rng: _with_leaf(rng, v, _retyped(np.float32)),
    "0d-array": lambda v, rng: np.array(v) if type(v) is float else v,
    "np-float-entry": lambda v, rng: _with_leaf(rng, v, _retyped(np.float64)),
})
# The edits a bare number, a circle angle, is given: only those that reach
# its own branch, so that they are not diluted by edits every form refuses
# alike.  Every other sample may be given any edit.
ANGLE_EDITS = ("bool", "nan", "big-int-angle", "np-float", "np-int",
               "np-float32", "0d-array")


@st.composite
def sample_entries(draw, json_only):
    """(space, its labels, vertex count, [[vertex, value], ...]): valid
    samples of every vertex (i, "v"), some edited, with extra samples on
    the labels ("x", j), which may repeat, and maybe a vertex left out."""
    # The space, the vertex count, the angle rate and the edits are drawn
    # by rng, uniformly: hypothesis favours the ends of a range.  It also
    # reuses a drawn seed often, so its other draws are part of the seed.
    edits, extra, twice = (draw(st.integers(0, top)) for top in (3, 2, 1))
    rng = np.random.default_rng(
        [draw(st.integers(0, 2 ** 32 - 1)), edits, extra, twice])
    space = SAMPLE_SPACES[rng.integers(len(SAMPLE_SPACES))]
    labels = draw(st.sampled_from(FINITE_LABELS)) if space == "finite_set" \
        else []
    n = int(rng.integers(1, 8))
    # all angles, all vectors or mixed, so each form meets the batch alone
    angle_rate = rng.choice((0.0, 0.5, 1.0))
    values = [_valid_sample(rng, space, labels, angle_rate)
              for _ in range(n + 2)]
    for i in rng.integers(n + 2, size=edits).tolist():
        angle = space == "circle" and not isinstance(values[i], list)
        names = [name for name in (ANGLE_EDITS if angle else SAMPLE_EDITS)
                 if name in JSON_SAFE or not json_only]
        values[i] = SAMPLE_EDITS[names[rng.integers(len(names))]](values[i],
                                                                   rng)
    entries = [[[i, "v"], values[i]] for i in range(n)]
    entries += [[["x", j], values[n + j]] for j in range(extra)]
    entries += [[["x", 0], values[n]]] * twice
    if rng.random() < 0.1:
        del entries[rng.integers(n)]
    order = draw(st.permutations(range(len(entries))))
    return space, labels, n, [entries[i] for i in order]


def _stored(values):
    if isinstance(values, list):
        return [id(v) for v in values]
    return values.dtype, values.shape, values.tobytes()


def _points(n):
    return DeltaComplex.from_simplices([((i, "v"),) for i in range(n)])


@settings(max_examples=400, deadline=None)
@given(sample_entries(json_only=False))
def test_batched_sample_check_matches_the_vertex_loop(drawn):
    space, labels, n, entries = drawn
    cx = _points(n)
    samples = {tuple(lab): value for lab, value in entries}
    try:
        want = _stored(field_samples_oracle(space, labels, cx.vertex_labels,
                                            samples))
    except SamplesUncovered as exc:
        with pytest.raises(CoverageError, match=f"^{re.escape(str(exc))}$"):
            OrderField.from_samples(cx, make_space(space, labels), samples)
        return
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            OrderField.from_samples(cx, make_space(space, labels), samples)
        assert (type(got.value), str(got.value)) == (ValueError, str(exc))
        return
    f = OrderField.from_samples(cx, make_space(space, labels), samples)
    assert _stored(f.values) == want


@settings(max_examples=200, deadline=None)
@given(sample_entries(json_only=True))
def test_document_samples_match_the_entry_and_vertex_loops(drawn):
    space, labels, n, entries = drawn
    doc = json.loads(json.dumps({
        "complex": {"cells": [[[i, "v"]] for i in range(n)]},
        "field": {"space": space, "labels": labels, "samples": entries}}))
    cx, _ = build_from_document(doc)
    try:
        samples = field_entries_oracle(doc["field"]["samples"])
        want = field_samples_oracle(space, doc["field"]["labels"],
                                    cx.vertex_labels, samples)
    except SamplesUncovered as exc:
        with pytest.raises(CoverageError, match=f"^{re.escape(str(exc))}$"):
            field_from_document(doc, cx)
        return
    except ValueError as exc:
        text = str(exc) if str(exc).startswith("field.") else f"field: {exc}"
        with pytest.raises(DocumentError, match=f"^{re.escape(text)}$"):
            field_from_document(doc, cx)
        return
    got = field_from_document(doc, cx).values
    if space == "finite_set":
        assert got == want
    else:
        assert _stored(got) == _stored(want)


def test_document_labels_with_lists_in_lists_are_read_entry_by_entry():
    # (0, [1]) does not hash, so the batch read of the samples gives way to
    # the entry-by-entry one, which makes every list a tuple
    doc = {"complex": {"cells": [[[0, [1]], [1, [0]]]]},
           "field": {"space": "circle",
                     "samples": [[[1, [0]], 0.5], [[0, [1]], 0.25]]}}
    cx, _ = build_from_document(doc)
    assert cx.vertex_labels == ((0, (1,)), (1, (0,)))
    want = OrderField.from_samples(cx, make_space("circle"),
                                   {(0, (1,)): 0.25, (1, (0,)): 0.5})
    assert _stored(field_from_document(doc, cx).values) == \
        _stored(want.values)
    doc["field"]["samples"][1][0] = [1, [0]]
    with pytest.raises(DocumentError, match=re.escape(
            "field.samples[1]: vertex (1, (0,)) sampled twice")):
        field_from_document(doc, cx)


# ---------------------------------------------------------------------------
# winding numbers
# ---------------------------------------------------------------------------

def test_single_turn():
    n = 8
    cx, names, loop = polygon(n)
    sp = make_space("circle")
    f = OrderField.from_samples(cx, sp, {names[j]: 2 * math.pi * j / n for j in range(n)})
    assert winding_number(f, loop) == 1


def test_double_turn():
    n = 8
    cx, names, loop = polygon(n)
    sp = make_space("circle")
    f = OrderField.from_samples(cx, sp, {names[j]: 4 * math.pi * j / n for j in range(n)})
    assert winding_number(f, loop) == 2


def test_constant_field_does_not_wind():
    cx, names, loop = polygon(5)
    sp = make_space("circle")
    f = OrderField.from_samples(cx, sp, {v: 1.3 for v in names})
    assert winding_number(f, loop) == 0


def test_reversed_loop_negates():
    n = 8
    cx, names, loop = polygon(n)
    sp = make_space("circle")
    f = OrderField.from_samples(cx, sp, {names[j]: 2 * math.pi * j / n for j in range(n)})
    assert winding_number(f, list(reversed(loop))) == -1


def test_winding_matches_phase_sum_oracle():
    rng = random.Random(99)
    sp = make_space("circle")
    for _ in range(30):
        n = rng.randint(3, 12)
        cx, names, loop = polygon(n)
        while True:
            angles = [rng.uniform(0, 2 * math.pi) for _ in range(n)]
            steps = [angles[(j + 1) % n] - angles[j] for j in range(n)]
            if all(abs(math.remainder(s, 2 * math.pi)) < math.pi - 1e-3 for s in steps):
                break
        f = OrderField.from_samples(cx, sp, dict(zip(names, angles)))
        assert winding_number(f, loop) == round(winding_oracle(angles))


def test_global_rotation_leaves_winding_alone():
    rng = random.Random(11)
    n = 9
    cx, names, loop = polygon(n)
    sp = make_space("circle")
    base = {names[j]: 2 * math.pi * j / n for j in range(n)}
    for _ in range(10):
        shift = rng.uniform(-10, 10)
        f = OrderField.from_samples(cx, sp, {k: v + shift for k, v in base.items()})
        assert winding_number(f, loop) == 1


def test_antipodal_step_is_ambiguous():
    cx, names, loop = polygon(3)
    sp = make_space("circle")
    f = OrderField.from_samples(cx, sp,
                                {names[0]: 0.0, names[1]: math.pi, names[2]: 1.0})
    with pytest.raises(AmbiguousSamplingError):
        winding_number(f, loop)


@pytest.mark.parametrize("sign", [1, -1])
def test_antipodal_threshold_is_exact(sign):
    step = sign * (math.pi - 2 * ANGLE_TOL)
    steps, refused = _angle_steps(
        np.zeros(2), np.array([sign * (math.pi - ANGLE_TOL), step]))
    assert refused.tolist() == [True, False]
    assert steps[1] == step


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("turns", [0, 1])
def test_whole_turn_threshold_is_exact(sign, turns):
    # a winding sum is accepted within 1e-9 turns of an integer, refused
    # beyond; the last step closes ``turns`` turns plus the offset
    def whole_turns(offset):
        angles = [sign * a for a in [0.0, 2.0, 4.0, 6.0][:1 + 3 * turns]] + [
            sign * (turns + offset) * math.tau]
        # one cell whose entries are the open walk through the samples
        cx, names, ids = polygon(5)
        f = OrderField.from_samples(cx, make_space("circle"),
                                    dict(zip(names, angles + [0.0] * 3)))
        walk = np.array(ids[:len(angles)])
        n = len(walk) - 1
        return _edge_classes(f, walk[:-1], walk[1:], (0,),
                             np.zeros(n, np.int64), np.arange(n),
                             np.ones(n, np.int64), 1)[0][0]

    assert whole_turns(0.99e-9) == sign * turns
    with pytest.raises(AmbiguousSamplingError, match="not an integer"):
        whole_turns(1.01e-9)


def test_empty_loop_is_refused_by_every_probe():
    cx, names, _ = polygon(3)
    probes = [
        (winding_number, "circle", 0.0),
        (torus_winding, "torus", (0.0, 0.0)),
        (rp_parity, "projective_plane", (1.0, 0.0, 0.0)),
    ]
    for probe, space, value in probes:
        f = OrderField.from_samples(cx, make_space(space),
                                    {v: value for v in names})
        with pytest.raises(DimensionError, match="empty loop"):
            probe(f, [])


# ---------------------------------------------------------------------------
# director parity
# ---------------------------------------------------------------------------

def _director(theta):
    return (math.cos(theta), math.sin(theta), 0.0)


def test_half_turn_has_odd_parity():
    n = 6
    cx, names, loop = polygon(n)
    sp = make_space("projective_plane")
    f = OrderField.from_samples(
        cx, sp, {names[j]: _director(math.pi * j / n) for j in range(n)})
    assert rp_parity(f, loop) == 1


def test_full_turn_has_even_parity():
    n = 6
    cx, names, loop = polygon(n)
    sp = make_space("projective_plane")
    f = OrderField.from_samples(
        cx, sp, {names[j]: _director(2 * math.pi * j / n) for j in range(n)})
    assert rp_parity(f, loop) == 0


def test_parity_ignores_representative_signs():
    rng = random.Random(5)
    n = 6
    cx, names, loop = polygon(n)
    sp = make_space("projective_plane")
    base = {names[j]: _director(math.pi * j / n) for j in range(n)}
    flipped = {k: tuple(-x for x in v) if rng.random() < 0.5 else v
               for k, v in base.items()}
    f = OrderField.from_samples(cx, sp, flipped)
    assert rp_parity(f, loop) == 1


def test_orthogonal_directors_are_ambiguous():
    cx, names, loop = polygon(3)
    sp = make_space("projective_plane")
    f = OrderField.from_samples(cx, sp, {
        names[0]: (1.0, 0.0, 0.0),
        names[1]: (0.0, 1.0, 0.0),
        names[2]: (math.cos(0.7), math.sin(0.7), 0.0)})
    with pytest.raises(AmbiguousSamplingError):
        rp_parity(f, loop)


@pytest.mark.parametrize("sign", [1, -1])
def test_perpendicular_threshold_is_exact(sign):
    # directors u and w with u.w = dot, and x at 45 degrees to both: the
    # loop u, w, x is odd exactly when u and w point apart
    cx, names, loop = polygon(3)

    def parity(dot):
        f = OrderField.from_samples(cx, make_space("projective_plane"), {
            names[0]: (1.0, 0.0, 0.0),
            names[1]: (dot, math.sqrt(1.0 - dot * dot), 0.0),
            names[2]: (math.sqrt(0.5), math.sqrt(0.5), 0.0)})
        return rp_parity(f, loop)

    with pytest.raises(AmbiguousSamplingError, match="perpendicular"):
        parity(sign * ANGLE_TOL)
    assert parity(sign * 2 * ANGLE_TOL) == (0 if sign > 0 else 1)


# ---------------------------------------------------------------------------
# sphere degree
# ---------------------------------------------------------------------------

def _radial_field(cx, positions):
    sp = make_space("sphere_2")
    unit = {k: tuple(np.asarray(v, dtype=float) / np.linalg.norm(v))
            for k, v in positions.items()}
    return OrderField.from_samples(cx, sp, unit)


def _oriented_triangles(cx):
    rep = orientability(cx)
    return [(c, tuple(cx.cell(2, i).vertices))
            for i, c in rep.fundamental_chain.coeffs.items()]


def test_radial_field_has_degree_one(tetra_surface):
    pos = {"A": (1, 1, 1), "B": (1, -1, -1), "C": (-1, 1, -1), "D": (-1, -1, 1)}
    f = _radial_field(tetra_surface, pos)
    assert sphere_degree(f, _oriented_triangles(tetra_surface)) == 1


def test_antipodal_field_has_degree_minus_one(tetra_surface):
    pos = {"A": (-1, -1, -1), "B": (-1, 1, 1), "C": (1, -1, 1), "D": (1, 1, -1)}
    f = _radial_field(tetra_surface, pos)
    assert sphere_degree(f, _oriented_triangles(tetra_surface)) == -1


def test_constant_shell_has_degree_zero(tetra_surface):
    sp = make_space("sphere_2")
    f = OrderField.from_samples(tetra_surface, sp,
                                {v: (0.0, 0.0, 1.0) for v in "ABCD"})
    assert sphere_degree(f, _oriented_triangles(tetra_surface)) == 0


def test_sphere_degree_matches_the_spherical_excess():
    # l'Huilier's excess, signed by the triple product, shares no formula
    # with the package's atan2 of the triple product: on the octahedron
    # the signed areas of random unit samples sum to a whole number of
    # spheres, and that number is the degree
    octahedron = DeltaComplex.from_simplices(
        [(x, y, z) for x in "xX" for y in "yY" for z in "zZ"])
    tris = _oriented_triangles(octahedron)
    rng = np.random.default_rng(2010)
    degrees = []
    for _ in range(300):
        vectors = rng.normal(size=(6, 3))
        vectors /= np.linalg.norm(vectors, axis=1)[:, None]
        f = OrderField.from_samples(
            octahedron, make_space("sphere_2"),
            dict(zip(octahedron.vertex_labels, map(tuple, vectors))))
        turns = sum(c * solid_angle_oracle(*vectors[list(t)])
                    for c, t in tris) / (4.0 * math.pi)
        assert abs(turns - round(turns)) < 1e-6
        assert sphere_degree(f, tris) == round(turns)
        degrees.append(round(turns))
    assert {-1, 1} <= set(degrees)  # 71 of the 300 are nonzero


@pytest.mark.parametrize("tilt", [i / 10 for i in range(1, 15)])
def test_a_face_on_a_great_circle_spanning_it_is_refused(tetra_surface, tilt):
    # A, B and C lie 120 degrees apart on a great circle tilted about the
    # x-axis: the face ABC covers one hemisphere or the other, so the
    # degree is 0 or 1 by the side D is on, and neither is determined.
    # det(A, B, C) is 0 up to rounding and s = 1 - 3/2 < 0: on atan2's
    # branch cut the sign of that rounding would pick the answer.
    samples = {"D": (0.3, 0.5, math.sqrt(0.66))}
    for lab, phi in zip("ABC", (0.0, 2.0 * math.pi / 3, 4.0 * math.pi / 3)):
        samples[lab] = (math.cos(phi), math.sin(phi) * math.cos(tilt),
                        math.sin(phi) * math.sin(tilt))
    f = OrderField.from_samples(tetra_surface, make_space("sphere_2"),
                                samples)
    with pytest.raises(AmbiguousSamplingError, match="degenerate"):
        sphere_degree(f, _oriented_triangles(tetra_surface))


def test_batched_solid_angles_are_those_of_each_triangle_alone():
    # np.arctan2 and the triple product round each triangle as it does
    # alone, whatever the batch length; the reference takes one triangle
    # at a time.  The equator triples, within a quarter turn, have det
    # exactly 0 and s > 0.
    rng = np.random.default_rng(36)
    phi = rng.uniform(0.0, math.pi / 2, size=(40, 3))
    equator = np.stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)], axis=2)
    batches = [x / np.linalg.norm(x, axis=2)[:, :, None]
               for x in (rng.normal(size=(n, 3, 3))
                         for n in (1, 2, 7, 900, 5000))]
    for x in [*batches, equator, equator[:, ::-1]]:
        assert [_probe_solid_angle(*t).hex() for t in x] == \
            [a.hex() for a in _solid_angles(x)[2].tolist()]
    det, s, _ = _solid_angles(equator)
    assert not det.any() and (s > 0).all()


def _small_triangle_field(tetra_surface, degree):
    # the triangle (pole, t on the x-z arc, t on the y-z arc) has
    # tan(solid angle / 2) = tan(t / 2)**2
    t = 2.0 * math.atan(math.sqrt(math.tan(2.0 * math.pi * degree)))
    s, c = math.sin(t), math.cos(t)
    return OrderField.from_samples(
        tetra_surface, make_space("sphere_2"),
        {"A": (0.0, 0.0, 1.0), "B": (s, 0.0, c), "C": (0.0, s, c),
         "D": (0.0, 0.0, -1.0)})


def test_sphere_degree_refuses_tuples_that_are_not_triples(tetra_surface):
    # the four vertices of the tetrahedron as 4-tuples, pairs or one
    # 6-tuple hold whole multiples of three ids, yet name no triangle;
    # each is refused before any probe runs
    pos = {"A": (1, 1, 1), "B": (1, -1, -1), "C": (-1, 1, -1), "D": (-1, -1, 1)}
    f = _radial_field(tetra_surface, pos)
    for tris in ([(1, (0, 1, 2, 3))] * 3, [(1, (0, 1)), (1, (2, 3)),
                                           (1, (0, 2))],
                 [(1, (0, 1, 2, 0, 2, 3))], [(1, (0, 1, 2)), (1, (3,))]):
        with pytest.raises(DimensionError,
                           match="^a triangle must name exactly three "
                                 "vertex ids$"):
            sphere_degree(f, tris)
    assert sphere_degree(f, _oriented_triangles(tetra_surface)) == 1


@pytest.mark.parametrize("sign", [1, -1])
def test_degree_threshold_is_exact(tetra_surface, sign):
    # a summed solid angle is accepted within 0.01 turns of an integer
    abc = [(sign, tuple(tetra_surface.vertex_id(v) for v in "ABC"))]
    inside = _small_triangle_field(tetra_surface, 0.0099)
    assert sphere_degree(inside, abc) == 0
    outside = _small_triangle_field(tetra_surface, 0.0101)
    with pytest.raises(AmbiguousSamplingError,
                       match="not close to an integer"):
        sphere_degree(outside, abc)


# ---------------------------------------------------------------------------
# torus values
# ---------------------------------------------------------------------------

def test_componentwise_winding():
    n = 8
    cx, names, loop = polygon(n)
    sp = make_space("torus")
    f = OrderField.from_samples(cx, sp, {
        names[j]: (2 * math.pi * j / n, -2 * math.pi * j / n) for j in range(n)})
    assert torus_winding(f, loop) == (1, -1)


def test_torus_accepts_four_vector_form():
    cx, names, loop = polygon(4)
    sp = make_space("torus")
    f = OrderField.from_samples(cx, sp, {v: (1.0, 0.0, 0.0, 1.0) for v in names})
    assert torus_winding(f, loop) == (0, 0)


# ---------------------------------------------------------------------------
# dispatch and labels
# ---------------------------------------------------------------------------

def test_finite_set_edge_classes():
    sp = make_space("finite_set", labels=("+h/2", "-h/2"))
    grid = make_grid(3)
    f = OrderField.from_function(
        grid, sp, lambda label: "+h/2" if label[0] < 1 else "-h/2")
    crossings = sum(boundary_class(f, 1, e) for e in range(grid.n_cells(1)))
    assert crossings > 0
    constant = OrderField.from_function(grid, sp, lambda label: "+h/2")
    assert all(boundary_class(constant, 1, e) == 0
               for e in range(grid.n_cells(1)))


def test_pi0_classes_by_component():
    sp = make_space("finite_set", labels=("a", "b"))
    cx = DeltaComplex.from_simplices([("A", "B"), ("C", "D")])
    f = OrderField.from_samples(cx, sp, {"A": "a", "B": "a", "C": "a", "D": "b"})
    out = pi0_classes(f, vertex_components(cx))
    assert [sorted(entry["labels"]) for entry in out] == [["a"], ["a", "b"]]


def test_pi0_classes_name_unhashable_labels_by_their_first_sample():
    # list and object labels do not hash; values equal to one label are
    # one class, printed as the first sample of the component
    sp = make_space("finite_set", labels=([1], {"a": 1}, 2))
    cx = DeltaComplex.from_simplices([("A", "B"), ("C", "D")])
    f = OrderField.from_samples(cx, sp,
                                {"A": [1], "B": {"a": 1}, "C": 2, "D": 2.0})
    assert pi0_classes(f, vertex_components(cx)) == [
        {"component": 0, "labels": ["[1]", "{'a': 1}"]},
        {"component": 1, "labels": ["2"]}]
    g = OrderField.from_samples(cx, sp,
                                {"A": [1], "B": [1], "C": 2.0, "D": 2})
    assert [c["labels"] for c in pi0_classes(g, vertex_components(cx))] == [
        ["[1]"], ["2.0"]]


def test_winding_on_two_cell_boundary(torus):
    sp = make_space("circle")
    f = OrderField.from_function(torus, sp, lambda label: 0.0)
    assert all(boundary_class(f, 2, c) == 0 for c in range(torus.n_cells(2)))


# ---------------------------------------------------------------------------
# batched probes against the per-cell reference
# ---------------------------------------------------------------------------

def _probe_outcome(fn):
    try:
        return "value", fn()
    except ProbeRefused as exc:
        return exc.kind, str(exc)
    except CrystalTopoError as exc:
        return type(exc).__name__, str(exc)


def _icosahedron():
    """One 3-cell whose shell is the 20 outward triangles of an
    icosahedron; each vertex is labelled by its coordinates."""
    g = (1.0 + math.sqrt(5.0)) / 2.0
    points = [p for a in (1.0, -1.0) for b in (g, -g)
              for p in ((0.0, a, b), (a, b, 0.0), (b, 0.0, a))]
    tris = [t for t in itertools.combinations(points, 3)
            if all(math.isclose(math.dist(p, q), 2.0)
                   for p, q in itertools.combinations(t, 2))]
    skeleton = DeltaComplex.from_simplices(tris)
    labels = skeleton.vertex_labels
    faces = tuple(
        (fid, 1 if np.linalg.det([labels[v] for v in c.vertices]) > 0 else -1)
        for fid, c in enumerate(skeleton.cells[2]))
    return DeltaComplex(labels, [*skeleton.cells,
                                 [Cell(tuple(range(len(labels))), faces)]])


def _field_complex(kind, scheme, side, removed):
    if kind == "icosahedron":
        return _icosahedron()
    dim = 2 if kind == "torus" else 3
    boundary = {"torus": "periodic", "free": "free",
                "constant": "constant"}[kind]
    spec = LatticeSpec(
        dimension=dim, ambient=dim,
        generators=tuple(tuple(float(i == j) for j in range(dim))
                         for i in range(dim)),
        index_box=((0, side),) * dim, scheme=scheme,
        removed_indices=tuple(removed), boundary=boundary,
        periodic_axes=tuple(range(1, dim + 1)) if kind == "torus" else ())
    return build_lattice_complex(spec)[0]


def test_director_lift_keeps_the_sign_of_the_least_vertex():
    # Adjacent icosahedron vertices are 63 degrees apart, so a director
    # field pointing at them lifts over the shell whatever signs it is
    # stored with, and the lift has degree +-1 by the sign of vertex 0.
    cx = _icosahedron()
    rng = np.random.default_rng(3)
    for flip0 in (1, -1, 1, -1):
        signs = rng.choice([1, -1], cx.n_vertices)
        signs[0], signs[-1] = flip0, -flip0
        f = OrderField.from_samples(cx, make_space("projective_plane"), {
            lab: _unit(np.multiply(lab, s))
            for lab, s in zip(cx.vertex_labels, signs)})
        assert boundary_class(f, 3, 0) == flip0
        assert boundary_class_oracle(f, 3, 0) == flip0
    sphere = OrderField.from_samples(cx, make_space("sphere_2"), {
        lab: _unit(lab) for lab in cx.vertex_labels})
    assert boundary_classes(sphere, 3) == [1]


def test_negative_cell_ids_do_not_wrap_around():
    cx = make_grid(3)
    f = OrderField.from_function(cx, make_space("circle"),
                                 lambda lab: 0.1 * lab[0] + 0.2 * lab[1])
    last = cx.n_cells(2) - 1
    assert boundary_classes(f, 2, [0, last]) == [
        boundary_class(f, 2, 0), boundary_class(f, 2, last)]
    for ids in ([-1], [0, -1], [-last - 1], [last + 1]):
        with pytest.raises(IndexError):
            boundary_classes(f, 2, ids)
    with pytest.raises(IndexError):
        boundary_class(f, 2, -1)


def test_boolean_cell_ids_are_refused():
    # range(n)[True] is 1: a boolean must not probe cell 1
    cx = make_grid(3)
    f = OrderField.from_function(cx, make_space("circle"),
                                 lambda lab: 0.1 * lab[0] + 0.2 * lab[1])
    for k in (1, 2):
        for ids in ([True], [0, False], [np.True_], [np.bool_(False)]):
            with pytest.raises(TypeError, match="is not an integer"):
                boundary_classes(f, k, ids)
        with pytest.raises(TypeError):
            boundary_class(f, k, True)
    assert boundary_classes(f, 2, [np.int64(1)]) == [boundary_class(f, 2, 1)]


def test_loop_probes_refuse_negative_and_boolean_vertex_ids():
    # On a 16-vertex torus -1 is no name for vertex 15, nor True for
    # vertex 1; both are refused before any probe runs, even after a step
    # the probe would refuse.
    cx = make_torus(4)
    n = cx.n_vertices
    assert n == 16
    turn = {lab: 2 * math.pi * lab[0] / 4 for lab in cx.vertex_labels}
    fields = {
        "circle": OrderField.from_samples(cx, make_space("circle"), turn),
        "torus": OrderField.from_samples(cx, make_space("torus"), {
            lab: (a, -a) for lab, a in turn.items()}),
        "projective_plane": OrderField.from_samples(
            cx, make_space("projective_plane"), {
                lab: _director(a / 2) for lab, a in turn.items()}),
        "sphere_2": OrderField.from_samples(cx, make_space("sphere_2"), {
            lab: (0.0, 0.0, 1.0) for lab in cx.vertex_labels}),
    }
    probes = [(winding_number, "circle"), (torus_winding, "torus"),
              (rp_parity, "projective_plane")]
    for probe, space in probes:
        f = fields[space]
        probe(f, [0, 1, n - 1])
        for loop in ([0, 1, -1], [-n, 1, 2], [0, 1, n], [0, 8, 0, -1]):
            with pytest.raises(IndexError, match=f"outside 0..{n - 1}"):
                probe(f, loop)
        for loop in ([0, True, 2], [False, 1, 2], [0, np.True_, 2]):
            with pytest.raises(TypeError, match="is not an integer"):
                probe(f, loop)
    f = fields["sphere_2"]
    assert sphere_degree(f, [(1, (0, 1, n - 1))]) == 0
    for tri in ((0, 1, -1), (0, n, 1)):
        with pytest.raises(IndexError, match=f"outside 0..{n - 1}"):
            sphere_degree(f, [(1, (0, 1, 2)), (1, tri)])
    with pytest.raises(TypeError, match="is not an integer"):
        sphere_degree(f, [(1, (0, True, 2))])


def _unit(v):
    return tuple(np.asarray(v) / np.linalg.norm(v))


def _pushed(rng, base, tangent):
    """A unit vector at one of the probe thresholds against ``base``."""
    pick = rng.integers(4)
    if pick == 0:
        # antipodal, or turned off the antipode towards ``tangent`` by an
        # angle around the 1e-9 degeneracy bound on 1 + a.b + b.c + c.a
        delta = rng.choice([0.0, 0.5e-9, 2e-9, 5e-9, 2e-8])
        return _unit(-(math.cos(delta) * base + math.sin(delta) * tangent))
    if pick == 1:
        return tuple(tangent)
    tol = ANGLE_TOL * rng.choice([0.5, 1.0, 2.0]) * rng.choice([1, -1])
    side = tangent if pick == 2 else _unit(np.cross(base, rng.normal(size=3)))
    return _unit(tol * base + math.sqrt(1.0 - tol * tol) * np.asarray(side))


def _sample(rng, space, base, tangent, mode, flips):
    """One vertex sample: ``base`` itself, near it, pushed to a probe
    threshold against it, or anywhere; a director is stored negated with
    probability ``flips``."""
    if space in ("circle", "torus"):
        if mode == "same":
            angles = list(base)
        elif mode == "near":
            angles = [b + rng.normal(0.0, 0.3) for b in base]
        elif mode == "push":
            tol = ANGLE_TOL * rng.choice([0.5, 1.0, 2.0]) * rng.choice([1, -1])
            angles = [b + math.pi - tol for b in base]
        else:
            angles = list(rng.uniform(-math.pi, math.pi, len(base)))
        return angles[0] if space == "circle" else tuple(angles)
    if space == "finite_set":
        return rng.choice(["a", "b"]) if mode == "far" else "a"
    if space == "biaxial_nematic":
        return np.eye(3).tolist()
    if mode == "same":
        v = base
    elif mode == "near":
        v = _unit(base + rng.normal(0.0, 0.3, 3))
    elif mode == "push":
        v = _pushed(rng, base, tangent)
    else:
        v = _unit(rng.normal(size=3))
    flip = space == "projective_plane" and rng.random() < flips
    return tuple(-x if flip else x for x in v)


# (space, degree) pairs; the zero probes and refused spaces once each
PROBED = [("circle", 2), ("torus", 2), ("projective_plane", 2),
          ("projective_plane", 3), ("sphere_2", 3)] * 3 + [
    ("finite_set", 1), ("circle", 1), ("sphere_2", 2), ("circle", 3),
    ("finite_set", 3), ("biaxial_nematic", 2)]


PROBE_KINDS = ("free", "constant", "icosahedron", "torus")


@st.composite
def probe_cases(draw):
    space, k = draw(st.sampled_from(PROBED))
    kind = draw(st.sampled_from(PROBE_KINDS[:3 + (k < 3)]))
    scheme = draw(st.sampled_from(["cubic", "triangular"]))
    side = draw(st.integers(3, 4) if kind == "torus" else st.integers(1, 2))
    dim = 2 if kind == "torus" else 3
    sites = list(itertools.product(range(side + (kind != "torus")),
                                   repeat=dim))
    removed = draw(st.lists(st.sampled_from(sites), max_size=2, unique=True)
                   ) if kind != "icosahedron" else []
    # weights of the sample modes same, near, push, far
    weights = draw(st.sampled_from([(6, 1, 0, 1), (3, 1, 1, 1), (4, 0, 1, 0),
                                    (2, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0)]))
    radial = draw(st.booleans())
    # Hypothesis reuses a drawn seed often, so its other draws are part of
    # the seed.
    seed = [draw(st.integers(0, 2 ** 32 - 1)), PROBED.index((space, k)),
            PROBE_KINDS.index(kind), scheme == "cubic", side, radial,
            *weights, *itertools.chain.from_iterable(removed)]
    return kind, scheme, side, removed, space, k, weights, radial, seed


def _bases(rng, cx, space, radial):
    """Per vertex the value samples gather around: one value everywhere,
    or a vortex or hedgehog centred at a random point of the sample."""
    labels = cx.vertex_labels
    if radial:
        points = np.asarray(labels, dtype=float)
        offsets = points - rng.uniform(points.min(0), points.max(0))
        if space in ("circle", "torus"):
            return [[math.atan2(d[1], d[0])] * (1 if space == "circle" else 2)
                    for d in offsets]
        return [np.asarray(_unit(np.resize(d, 3) + [0.0, 0.0, 0.3]))
                for d in offsets]
    if space in ("circle", "torus"):
        return [rng.uniform(-math.pi, math.pi,
                            1 if space == "circle" else 2)] * len(labels)
    return [np.asarray(_unit(rng.normal(size=3)))] * len(labels)


def _random_field(rng, cx, space, weights, radial):
    """Samples drawn in the modes same, near, push and far by ``weights``."""
    towards = rng.normal(size=3)
    flips = rng.choice([0.0, 0.5])
    modes = rng.choice(["same", "near", "push", "far"], size=cx.n_vertices,
                       p=np.asarray(weights, dtype=float) / sum(weights))
    samples = {}
    for lab, base, mode in zip(cx.vertex_labels,
                               _bases(rng, cx, space, radial), modes):
        # one tangent per base, perpendicular to it
        tangent = (None if space in ("circle", "torus")
                   else np.asarray(_unit(np.cross(base, towards))))
        samples[lab] = _sample(rng, space, base, tangent, mode, flips)
    return OrderField.from_samples(
        cx, make_space(space, ("a", "b") if space == "finite_set" else ()),
        samples)


@pytest.mark.parametrize("space", ["projective_plane", "sphere_2"])
def test_shell_refusals_match_the_per_cell_reference(space):
    # A director shell with both a nearly perpendicular pair and an odd
    # cycle of pairs pointing apart refuses the pair, whatever order its
    # lift takes; nine of these fields hold both, seven on the icosahedron.
    shells = [_icosahedron(), _field_complex("free", "cubic", 1, [])]
    for seed in range(400):
        rng = np.random.default_rng(seed)
        cx = shells[seed % 2]
        f = _random_field(rng, cx, space, [(3, 1, 1, 1), (2, 0, 1, 0),
                                           (1, 0, 2, 0)][seed % 3], seed % 4 < 2)
        assert _probe_outcome(lambda: boundary_classes(f, 3)) == \
            _probe_outcome(lambda: [boundary_class_oracle(f, 3, c)
                                    for c in range(cx.n_cells(3))])


def test_a_shell_face_of_other_size_is_refused_after_the_cells_before():
    # Cell 1 is the icosahedron's shell plus a pentagon face, which no
    # space can probe; cell 0, the plain shell, is probed first, so a
    # refusal of its own comes before the pentagon's.
    ico = _icosahedron()
    shell = ico.cells[3][0]
    cx = DeltaComplex(ico.vertex_labels, [
        *ico.cells[:2], [*ico.cells[2], Cell(tuple(range(5)), ())],
        [shell, Cell(shell.vertices, shell.faces + ((ico.n_cells(2), 1),))]])
    pentagon = ("DimensionError", "unexpected 2-cell with 5 vertices")
    seen = set()
    for seed in range(30):
        space = ["sphere_2", "projective_plane", "circle"][seed % 3]
        f = _random_field(np.random.default_rng(seed), cx, space,
                          [(3, 1, 1, 1), (1, 0, 2, 1)][seed % 2], True)
        got = _probe_outcome(lambda: boundary_classes(f, 3))
        assert got == _probe_outcome(
            lambda: [boundary_class_oracle(f, 3, c) for c in (0, 1)])
        assert _probe_outcome(lambda: boundary_classes(f, 3, [1, 0])) \
            == pentagon
        seen.add(got == pentagon)
    assert seen == {True, False}


@pytest.mark.parametrize("space, k, kind", [
    ("circle", 2, "torus"), ("torus", 2, "torus"),
    ("projective_plane", 2, "free"), ("projective_plane", 3, "free"),
    ("sphere_2", 3, "free")])
def test_list_and_array_values_probe_alike(space, k, kind):
    # a field built directly from per-vertex arrays probes as the one
    # float array that from_samples stores
    cx = _field_complex(kind, "cubic", 3 if kind == "torus" else 2, [])
    for seed in range(12):
        rng = np.random.default_rng(seed)
        f = _random_field(rng, cx, space, (3, 1, 1, 1), seed % 2 == 0)
        g = OrderField(cx, f.space, list(f.values))
        assert _probe_outcome(lambda: boundary_classes(g, k)) == \
            _probe_outcome(lambda: boundary_classes(f, k))


@pytest.mark.parametrize("seed", [155, 363])
def test_a_perpendicular_pair_is_refused_before_an_odd_cycle(seed):
    # two of the unit-cube fields of the shell-refusal test above
    cx = _field_complex("free", "cubic", 1, [])
    f = _random_field(np.random.default_rng(seed), cx, "projective_plane",
                      [(3, 1, 1, 1), (2, 0, 1, 0), (1, 0, 2, 0)][seed % 3],
                      seed % 4 < 2)
    signs = []
    for _, tri in _probe_shell(cx, cx.cells[3][0]):
        dots = np.array([np.dot(f.values[a], f.values[b])
                         for a, b in zip(tri, tri[1:] + tri[:1])])
        signs.append(np.where(np.abs(dots) > ANGLE_TOL, np.sign(dots), 0))
    # the cube's shell holds a triangle with an odd number of pairs
    # pointing apart, and a nearly perpendicular pair elsewhere
    assert any((s != 0).all() and s.prod() < 0 for s in signs)
    assert any((s == 0).any() for s in signs)
    with pytest.raises(AmbiguousSamplingError, match="nearly perpendicular"):
        boundary_classes(f, 3)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["free", "icosahedron", "hedgehog"]),
       scheme=st.sampled_from(["cubic", "triangular"]),
       side=st.integers(1, 2), radial=st.booleans(),
       weights=st.sampled_from([(6, 1, 0, 1), (3, 1, 1, 1), (1, 0, 0, 0)]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_re_signed_directors_flip_only_the_least_vertex_sign(
        kind, scheme, side, radial, weights, seed):
    # Hypothesis reuses a drawn seed often, so its other draws are part of
    # the seed.
    rng = np.random.default_rng([
        seed, ["free", "icosahedron", "hedgehog"].index(kind),
        scheme == "cubic", side, radial, *weights])
    if kind == "hedgehog":
        # directors near the icosahedron's radial field: degree +-1
        cx = _icosahedron()
        f = OrderField.from_samples(cx, make_space("projective_plane"), {
            lab: _unit(rng.choice([1, -1]) * (lab + rng.normal(0, 0.2, 3)))
            for lab in cx.vertex_labels})
    else:
        cx = _field_complex(kind, scheme, side, [])
        f = _random_field(rng, cx, "projective_plane", weights, radial)
    flip = rng.choice([1, -1], cx.n_vertices)
    g = OrderField(cx, f.space, [v * s for v, s in zip(f.values, flip)])
    before = _probe_outcome(lambda: boundary_classes(f, 3))
    after = _probe_outcome(lambda: boundary_classes(g, 3))
    if before[0] != "value":
        assert after == before
        return
    least = [min(c.vertices) for c in cx.cells[3]]
    assert after == ("value", [v * flip[i] for v, i in zip(before[1], least)])


@settings(max_examples=300, deadline=None)
@given(probe_cases())
def test_batched_probes_match_the_per_cell_reference(case):
    kind, scheme, side, removed, space, k, weights, radial, seed = case
    try:
        cx = _field_complex(kind, scheme, side, removed)
    except CrystalTopoError:
        return
    rng = np.random.default_rng(seed)
    f = _random_field(rng, cx, space, weights, radial)
    if k > cx.dim:
        return
    n = cx.n_cells(k)

    def reference(ids):
        return [boundary_class_oracle(f, k, c) for c in ids]

    assert _probe_outcome(lambda: boundary_classes(f, k)) == \
        _probe_outcome(lambda: reference(range(n)))
    ids = rng.integers(0, n, size=min(n, 6)).tolist() if n else []
    assert _probe_outcome(lambda: boundary_classes(f, k, ids)) == \
        _probe_outcome(lambda: reference(ids))
    for c in ids[:3]:
        assert _probe_outcome(lambda: boundary_class(f, k, c)) == \
            _probe_outcome(lambda: boundary_class_oracle(f, k, c))
    # the public probes on loose vertex walks and triangle sets, whose
    # sums need not be whole
    for _ in range(4):
        walk = rng.integers(0, cx.n_vertices, rng.integers(1, 6)).tolist()
        tris = [(int(rng.choice([1, -1])),
                 tuple(rng.integers(0, cx.n_vertices, 3).tolist()))
                for _ in range(rng.integers(0, 17))]
        public = {
            "circle": (lambda: winding_number(f, walk),
                       lambda: winding_number_oracle(f.values, walk)),
            "torus": (lambda: torus_winding(f, walk),
                      lambda: tuple(winding_number_oracle(f.values, walk, o)
                                    for o in (0, 2))),
            "projective_plane": (lambda: rp_parity(f, walk),
                                 lambda: rp_parity_oracle(f.values, walk)),
            "sphere_2": (lambda: sphere_degree(f, tris),
                         lambda: sphere_degree_oracle(f.values, tris)),
        }
        if space in public:
            batched, reference = public[space]
            assert _probe_outcome(batched) == _probe_outcome(reference)


# ---------------------------------------------------------------------------
# reversed cells and stored rows
# ---------------------------------------------------------------------------

def _reversed(cx, twos, threes):
    """``cx`` with the 2-cells ``twos`` and the 3-cells ``threes`` reversed:
    their face coefficients negated, and a reversed 2-cell's entries in
    each coface too."""
    layers = list(cx.layers)
    for k in range(2, cx.dim + 1):
        layer = layers[k]
        owner = np.repeat(np.arange(len(layer)), np.diff(layer.face_ptr))
        flip = np.isin(owner, twos if k == 2 else threes)
        if k == 3:
            flip ^= np.isin(layer.faces, twos)
        layers[k] = CellLayer(
            layer.vertices, layer.vertex_ptr, layer.faces,
            np.where(flip, -layer.coeffs, layer.coeffs), layer.face_ptr,
            layer.shapes)
    return DeltaComplex.from_layers(
        cx.vertex_labels, layers, lattice_info=cx.lattice_info,
        closure_defects=cx.closure_defects)


def _unsigned(outcome):
    """A refusal with the signs of the numbers in its text dropped."""
    return outcome[0], re.sub(r"-(?=\d)", "", outcome[1])


@settings(max_examples=150, deadline=None)
@given(spec=st.one_of(lattice_specs(), st.none()),
       space=st.sampled_from(["circle", "torus", "projective_plane",
                              "sphere_2"]),
       weights=st.sampled_from([(6, 1, 0, 1), (3, 1, 1, 1), (1, 0, 0, 0)]),
       radial=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_a_reversed_cell_negates_its_own_value_and_no_other(
        spec, space, weights, radial, seed):
    # None stands for the icosahedron's shell.
    if spec is None:
        cx = _icosahedron()
    else:
        try:
            cx, _ = build_lattice_complex(spec)
        except CrystalTopoError:
            return
    if cx.dim < 2:
        return
    rng = np.random.default_rng([seed, cx.n_cells(2), int(radial), *weights])
    twos = np.flatnonzero(rng.random(cx.n_cells(2)) < 0.5)
    threes = np.flatnonzero(rng.random(cx.n_cells(3)) < 0.5)
    rev = _reversed(cx, twos, threes)
    assert validate_complex(rev).ok
    for ring in ("integers", "integers_mod_2"):
        assert [homology(rev, k, ring) for k in range(cx.dim + 1)] == \
            [homology(cx, k, ring) for k in range(cx.dim + 1)]
    f = _random_field(rng, cx, space, weights, radial)
    g = OrderField(rev, f.space, f.values)
    for k, flipped in ((2, twos), (3, threes))[:cx.dim - 1]:
        before = _probe_outcome(lambda: boundary_classes(f, k))
        after = _probe_outcome(lambda: boundary_classes(g, k))
        if before[0] != "value":
            assert _unsigned(after) == _unsigned(before)
            continue
        signed = set(flipped.tolist()) if f.space.homotopy_group(
            k - 1).rank else set()
        want = [v if i not in signed else tuple(-x for x in v)
                if isinstance(v, tuple) else -v
                for i, v in enumerate(before[1])]
        assert after == ("value", want)


def test_reversing_a_blocked_triangle_flips_only_its_value():
    # A circle vortex at (0.4, 0.3) on the periodic triangular 6x6 torus
    # blocks four triangles; reversing one of them negates its winding,
    # and the index sum and the obstruction class read as before.
    cx = make_torus(6)
    f = OrderField.from_samples(cx, make_space("circle"), {
        lab: math.atan2(lab[1] - 0.3, lab[0] - 0.4)
        for lab in cx.vertex_labels})
    g = OrderField(_reversed(cx, [1], []), f.space, f.values)
    blocked = {1: 1, 10: 1, 61: -1, 70: -1}
    assert boundary_classes(f, 2) == [
        blocked.get(c, 0) for c in range(cx.n_cells(2))]
    blocked[1] = -1
    assert boundary_classes(g, 2) == [
        blocked.get(c, 0) for c in range(cx.n_cells(2))]
    check = index_sum_check(g)
    assert (check.index_sum, check.euler, check.consistent) == (0, 0, True)
    assert obstruction_class(obstruction_cochain(g, 2)) == "trivial"


def test_a_row_that_is_not_a_walk_of_its_faces_is_refused_at_k3():
    # A square of cube 1 of the free cubic (0, 2) x (0, 1)^2 box, not one of
    # cube 0, stored as a bowtie, corners 0, 2, 1, 3 of its walk: its faces
    # still bound it, but they give the row no one orientation.  The 2-cell
    # probes read edges only; cube 1's shell is refused after cube 0's.
    cx, _ = build_lattice_complex(LatticeSpec(
        dimension=3, ambient=3, generators=tuple(map(tuple, np.eye(3))),
        index_box=((0, 2), (0, 1), (0, 1)), scheme="cubic"))
    layers = [list(layer) for layer in cx.cells]
    shells = [{f for f, _ in c.faces} for c in layers[3]]
    square = min(shells[1] - shells[0])
    v = layers[2][square].vertices
    layers[2][square] = Cell((v[0], v[2], v[1], v[3]),
                             layers[2][square].faces, SHAPE_CUBE)
    bowtie = DeltaComplex(cx.vertex_labels, layers)
    assert validate_complex(bowtie).ok
    for seed, space in enumerate(["circle", "projective_plane", "torus"]):
        f = _random_field(np.random.default_rng(seed), cx, space,
                          (3, 1, 1, 1), True)
        g = OrderField(bowtie, f.space, f.values)
        assert _probe_outcome(lambda: boundary_classes(g, 2)) == \
            _probe_outcome(lambda: boundary_classes(f, 2))
    # cube 0, which the square does not bound, is still answered: a
    # hedgehog about its centre, and directors near one axis
    for space, degree, value in (
            ("sphere_2", 1, lambda lab: np.subtract(lab, 0.5)),
            ("projective_plane", 0, lambda lab: np.add(lab, (0, 0, 9)))):
        g = OrderField.from_samples(bowtie, make_space(space), {
            lab: _unit(value(lab)) for lab in cx.vertex_labels})
        assert _probe_outcome(lambda: boundary_classes(g, 3)) == (
            "UnsupportedConfigurationError",
            f"2-cell {square}: its vertex row is not a walk of its faces")
        assert boundary_classes(g, 3, [0]) == [degree]


def test_rows_stored_backwards_take_their_orientation_from_their_faces():
    # Every square of the free cubic (0, 2)^3 box stored with its corners
    # in the opposite order: each face now reads its row with ε = -1, so a
    # hedgehog's degrees stay as they were.
    cx = _field_complex("free", "cubic", 2, [])
    layers = [list(layer) for layer in cx.cells]
    layers[2] = [Cell(c.vertices[:1] + c.vertices[:0:-1], c.faces, SHAPE_CUBE)
                 for c in layers[2]]
    backwards = DeltaComplex(cx.vertex_labels, layers)
    for centre in ((0.6, 0.7, 0.4), (1.5, 0.4, 1.3), (1.2, 1.6, 0.3)):
        samples = {lab: _unit(np.subtract(lab, centre))
                   for lab in cx.vertex_labels}
        f = OrderField.from_samples(cx, make_space("sphere_2"), samples)
        g = OrderField.from_samples(backwards, f.space, samples)
        assert boundary_classes(f, 3).count(1) == 1
        assert boundary_classes(g, 3) == boundary_classes(f, 3)


def _off_antipode(base, delta):
    """A unit vector turned ``delta`` rad off the antipode of ``base``."""
    base = np.asarray(base, dtype=float)
    side = np.asarray(_unit(np.cross(base, (1.0, 0.0, 0.0))))
    return _unit(-(math.cos(delta) * base + math.sin(delta) * side))


@pytest.mark.parametrize("delta", [0.0, 2e-8, 1e-4])
def test_antipodal_samples_on_the_collapsed_box_are_degenerate(delta):
    # The constant cubic (0, 2)^3 box keeps two vertices, the hull and
    # (1, 1, 1), so each shell triangle joins a sample to its own antipode.
    cx = _field_complex("constant", "cubic", 2, [])
    assert cx.vertex_labels == ((-1, -1, -1), (1, 1, 1))
    f = OrderField.from_samples(cx, make_space("sphere_2"), {
        (-1, -1, -1): (0.0, 0.0, 1.0),
        (1, 1, 1): _off_antipode((0.0, 0.0, 1.0), delta)})
    got = _probe_outcome(lambda: boundary_classes(f, 3))
    if delta < 1e-6:
        assert got[0] == "AmbiguousSamplingError"
        assert "a spherical triangle of samples is degenerate" in got[1]
    else:
        assert got == ("value", [0] * cx.n_cells(3))


def test_a_sample_near_the_antipode_of_a_first_corner_is_answered():
    # The free unit cube with a hedgehog about its centre, vertex 1 turned
    # 2e-8 rad off the antipode of vertex 0, the first corner of three of
    # its squares; the row triangles never join them.
    cx = _field_complex("free", "cubic", 1, [])
    samples = {lab: _unit(np.subtract(lab, 0.5)) for lab in cx.vertex_labels}
    samples[cx.vertex_labels[1]] = _off_antipode(
        samples[cx.vertex_labels[0]], 2e-8)
    f = OrderField.from_samples(cx, make_space("sphere_2"), samples)
    assert boundary_classes(f, 3) == [0]
