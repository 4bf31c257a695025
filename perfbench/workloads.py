"""Seeded job generators for the three workloads, each with its known answer.

A job is one ``crystaltopo`` CLI call on one generated JSON document.  The
generator builds the answer into the job: Betti numbers of a torus with
separated vacancies, the cell a hedgehog sits in, the vertices a current
leak touches.  ``Job.check`` compares a parsed ``--report json`` against
that answer and returns the list of disagreements (empty when the report
is right).  Nothing here imports crystaltopo, so the answers do not come
from the code under test.

Cell ids are predicted in closed form from the builder's numbering: cells
are sorted by their vertex-label tuples, and on a periodic box the orbit
representative of a cell is the translate with every corner label in the
box whose anchor lies in [0, P-1] on each wrapped axis.

Every job of a workload is drawn from a fixed round of job kinds
(``ROUNDS``).  The seed moves vacancies, defect centres and field values but
never the kind or size, so runs with different seeds do the same mix of
work and their timings can be compared.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

# Mirrors crystaltopo.network.KIRCHHOFF_TOL; the report also carries it.
KIRCHHOFF_TOL = 1e-9

TRI = "triangular"
CUB = "cubic"
# Equilateral triangles: the split diagonal a1 + a2 has unit length too.
TRI_GENERATORS = [[1.0, 0.0], [-0.5, math.sqrt(3.0) / 2.0]]
CUB_GENERATORS = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]

# (scheme, period, ring, vacancies).  A 4^3 periodic box has room for one
# vacancy whose closed star keeps clear of its own images and of another.
VACANCY_ROUND = [
    (TRI, 8, "z", 1), (TRI, 7, "z", 2), (CUB, 4, "z", 1), (TRI, 8, "z2", 3),
    (TRI, 8, "z", 2), (TRI, 7, "z", 3), (CUB, 4, "z2", 1), (TRI, 8, "z", 1),
]
# (kind, size).  Blocked kinds run the class solve and the generators;
# extending kinds (and the discrete spin domains) only run the cell probes.
# The shares put job_s.p50 among the probe-only jobs and job_s.p90 among
# the 5^3 hedgehogs.
FIELD_ROUND = [
    ("spin_domain", 8), ("smooth_circle", 6), ("smooth_sphere", 5),
    ("hedgehog", 5), ("smooth_sphere", 5), ("disclination", 8),
    ("smooth_circle", 6), ("spin_domain", 10), ("smooth_sphere", 5),
    ("vortex_pair", 7), ("hedgehog", 5), ("smooth_circle", 6),
    ("smooth_sphere", 5), ("hedgehog", 4), ("spin_domain", 8),
    ("smooth_sphere", 5), ("disclinations", 8), ("smooth_circle", 6),
    ("vortex_pair", 8), ("hedgehog", 5),
]
# (scheme, period, command, faulty data).  Every document carries currents
# and drops; faulty ones hold one current leak and one broken drop, so the
# potential check stops at the first bad loop.  Cubic jobs are the cheaper
# six tenths, so job_s.p50 falls among them; the clean triangular network
# jobs are the slowest fifth, so job_s.p90 falls in their middle.
BULK_ROUND = [
    (CUB, 7, "build", False), (TRI, 34, "network", False),
    (CUB, 7, "network", False), (CUB, 7, "network", True),
    (TRI, 34, "build", False), (CUB, 7, "network", False),
    (CUB, 7, "build", False), (TRI, 34, "network", False),
    (CUB, 7, "network", False), (TRI, 34, "network", True),
]
BULK_VACANCIES = 3

ROUNDS = {
    "vacancy-scan": VACANCY_ROUND,
    "field-obstruct": FIELD_ROUND,
    "bulk-network": BULK_ROUND,
}


@dataclass
class Job:
    kind: str
    argv: list[str]              # CLI arguments; the document path follows
    doc: bytes
    check: Callable[[dict], list[str]]


def make_job(workload: str, seed: int, index: int) -> Job:
    """Job ``index`` of ``workload``; index -1 is the warm-up job."""
    rnd = ROUNDS[workload]
    params = rnd[index % len(rnd)]
    rng = random.Random(f"{workload}/{seed}/{index}")
    return _MAKERS[workload](rng, *params)


def _encode(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def _r(x: float) -> float:
    """Round generated floats so documents stay byte-stable."""
    return round(x, 10)


def _mismatch(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what}: got {got!r}, want {want!r}"]


# ---------------------------------------------------------------------------
# Lattice geometry shared by the generators


def _box(dim: int, period: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(period), repeat=dim))


def _periodic_distance(a, b, period: int) -> int:
    return max(min(abs(x - y), period - abs(x - y)) for x, y in zip(a, b))


def _separated_sites(rng: random.Random, dim: int, period: int,
                     count: int) -> list[tuple[int, ...]]:
    """Sites whose closed stars (Chebyshev radius 1) stay disjoint."""
    while True:
        sites = []
        for _ in range(50 * count):
            p = tuple(rng.randrange(period) for _ in range(dim))
            if all(_periodic_distance(p, q, period) >= 3 for q in sites):
                sites.append(p)
                if len(sites) == count:
                    return sorted(sites)


def _edge_offsets(scheme: str, dim: int) -> list[tuple[int, ...]]:
    if scheme == TRI:
        return sorted(v for v in itertools.product((0, 1), repeat=dim)
                      if any(v))
    return sorted(tuple(int(a == b) for b in range(dim)) for a in range(dim))


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _wrap(a, period: int):
    return tuple(x % period for x in a)


def _lattice_doc(scheme: str, dim: int, period: int, vacancies, *,
                 boundary: str = "periodic") -> dict:
    doc = {
        "dimension": dim,
        "ambient": dim,
        "generators": TRI_GENERATORS if scheme == TRI else CUB_GENERATORS,
        "index_box": [[0, period]] * dim,
        "scheme": scheme,
        "boundary_condition": boundary,
    }
    if vacancies:
        doc["defects"] = [{"kind": "vacancy", "index": list(v)}
                          for v in vacancies]
    return doc


def _tri_position(label) -> tuple[float, float]:
    i, j = label
    g1, g2 = TRI_GENERATORS
    return (i * g1[0] + j * g2[0], i * g1[1] + j * g2[1])


def _triangles(base) -> list[tuple[tuple, ...]]:
    """The two triangles anchored at ``base``, in stored order: A then B.

    A runs base, base+(0,1), base+(1,1) and is clockwise in the plane;
    B runs base, base+(1,0), base+(1,1) and is counterclockwise.
    """
    i, j = base
    return [((i, j), (i, j + 1), (i + 1, j + 1)),
            ((i, j), (i + 1, j), (i + 1, j + 1))]


TRI_ORIENTATION = (-1, 1)


def _triangle_id(base, which: int, side: int) -> int:
    """Id of triangle A (0) or B (1) at ``base`` on a side x side grid of
    unit squares, free or periodic: anchors sort lexicographically and A
    sorts before B."""
    return 2 * (base[0] * side + base[1]) + which


def _subtended(a, b, p) -> float:
    """Signed angle the segment a -> b subtends at p."""
    ax, ay = a[0] - p[0], a[1] - p[1]
    bx, by = b[0] - p[0], b[1] - p[1]
    return math.atan2(ax * by - ay * bx, ax * bx + ay * by)


def _arg(x, centre) -> float:
    return math.atan2(x[1] - centre[1], x[0] - centre[0])


def _centre_in(rng: random.Random, tri) -> tuple[float, float]:
    """A point near the centroid of a triangle given by labels."""
    w = [1.0 / 3.0 + rng.uniform(-0.05, 0.05) for _ in range(2)]
    w.append(1.0 - w[0] - w[1])
    pts = [_tri_position(v) for v in tri]
    return (sum(wk * pt[0] for wk, pt in zip(w, pts)),
            sum(wk * pt[1] for wk, pt in zip(w, pts)))


# ---------------------------------------------------------------------------
# vacancy-scan: homology of a periodic sample with separated vacancies


def _vacancy_job(rng, scheme, period, ring, count) -> Job:
    dim = 2 if scheme == TRI else 3
    sites = _separated_sites(rng, dim, period, count)
    doc = _lattice_doc(scheme, dim, period, sites)
    # A d-torus minus r disjoint open balls: b_{d-1} gains r - 1, b_d = 0.
    betti = [1] + [math.comb(dim, k) for k in range(1, dim)] + [0]
    betti[dim - 1] += count - 1
    euler = sum((-1) ** k * b for k, b in enumerate(betti))

    def check(rep: dict) -> list[str]:
        out = _mismatch("command", rep.get("command"), "homology")
        groups = rep.get("groups", [])
        out += _mismatch("betti", [g.get("betti") for g in groups], betti)
        out += _mismatch("torsion", [g.get("torsion") for g in groups],
                         [[] for _ in betti])
        out += _mismatch("euler", rep.get("euler_characteristic"), euler)
        orient = rep.get("orientability", {})
        out += _mismatch("orientable", orient.get("orientable"), True)
        out += _mismatch("closed", orient.get("closed"), False)
        return out

    argv = ["homology", "--report", "json", "--ring", ring]
    return Job(f"{scheme}{period}-{ring}-v{count}", argv, _encode(doc), check)


# ---------------------------------------------------------------------------
# field-obstruct: order fields with a known obstruction


def _field_check(*, blocked_at, group=None, values=None, class_status=None,
                 pairings=None, blocking_total=None, components=None,
                 index_sum=None) -> Callable[[dict], list[str]]:
    """Checker for an ``obstruct`` report.  ``values`` maps blocking cell
    ids to cochain values; ``blocking_total`` is used where only the count
    is predicted."""
    def check(rep: dict) -> list[str]:
        out = _mismatch("command", rep.get("command"), "obstruct")
        out += _mismatch("extends", rep.get("extends"), blocked_at is None)
        out += _mismatch("blocked_at", rep.get("blocked_at"), blocked_at)
        verdicts = rep.get("verdicts", [])
        if blocked_at is None:
            out += _mismatch("verdicts ok", [v.get("ok") for v in verdicts],
                             [True] * len(verdicts))
            out += _mismatch("cochain", rep.get("cochain"), None)
        else:
            last = verdicts[-1] if verdicts else {}
            cochain = rep.get("cochain") or {}
            out += _mismatch("cochain group", cochain.get("group"), group)
            if values is not None:
                want = sorted(values)
                out += _mismatch("blocking", last.get("blocking_shown"),
                                 want[:10])
                out += _mismatch("cochain values", cochain.get("values"),
                                 [[c, values[c]] for c in want])
            if blocking_total is not None:
                out += _mismatch("blocking total", last.get("blocking_total"),
                                 blocking_total)
            out += _mismatch("class", rep.get("class_status"), class_status)
            out += _mismatch("cocycle", rep.get("cocycle_ok"), True)
        out += _mismatch("pairings", rep.get("generator_pairings"), pairings)
        out += _mismatch("components", rep.get("component_values"), components)
        if index_sum is not None:
            got = rep.get("index_sum") or {}
            out += _mismatch("index sum",
                             {k: got.get(k) for k in index_sum}, index_sum)
        return out
    return check


def _field_doc(base: dict, space: str, samples: dict, labels=None) -> dict:
    doc = dict(base)
    doc["field"] = {"space": space,
                    "samples": [[list(k), v]
                                for k, v in sorted(samples.items())]}
    if labels:
        doc["field"]["labels"] = labels
    return doc


def _unit(v) -> list[float]:
    n = math.sqrt(sum(x * x for x in v))
    return [_r(x / n) for x in v]


def _hedgehog(rng, side) -> tuple[dict, Callable]:
    """A radial sphere field on a free cubic box blocks exactly the cube
    holding its centre, with degree +1, or -1 for the inward field."""
    cube = tuple(rng.randrange(side) for _ in range(3))
    centre = [c + rng.uniform(0.3, 0.7) for c in cube]
    sign = rng.choice((1, -1))
    samples = {p: _unit([sign * (x - c) for x, c in zip(p, centre)])
               for p in itertools.product(range(side + 1), repeat=3)}
    cid = (cube[0] * side + cube[1]) * side + cube[2]
    doc = _field_doc(_lattice_doc(CUB, 3, side, (), boundary="free"),
                     "sphere_2", samples)
    # The ball has no H^3: the class vanishes and there is no generator.
    return doc, _field_check(blocked_at=3, group="Z", values={cid: sign},
                             class_status="trivial", pairings=[])


def _smooth_sphere(rng, side) -> tuple[dict, Callable]:
    tilt = rng.uniform(0.2, 0.5)
    turn = rng.uniform(0.0, math.tau)
    samples = {}
    for p in itertools.product(range(side + 1), repeat=3):
        a = tilt + 0.06 * (p[0] + p[1] - p[2])
        b = turn + 0.1 * (p[0] - p[1] + p[2])
        samples[p] = _unit([math.sin(a) * math.cos(b),
                            math.sin(a) * math.sin(b), math.cos(a)])
    doc = _field_doc(_lattice_doc(CUB, 3, side, (), boundary="free"),
                     "sphere_2", samples)
    return doc, _field_check(blocked_at=None)


def _torus_edges(period: int):
    for base in _box(2, period):
        for off in _edge_offsets(TRI, 2):
            yield base, _add(base, off)


def _vortex_pair(rng, period) -> tuple[dict, Callable]:
    """A +1 vortex and a -1 antivortex on a triangulated torus block their
    two triangles with opposite windings; the index sum is 0 = chi."""
    while True:
        anchors = [tuple(rng.randrange(period - 1) for _ in range(2))
                   for _ in range(2)]
        if _periodic_distance(anchors[0], anchors[1], period) < 3:
            continue
        which = [rng.randrange(2) for _ in range(2)]
        tris = [_triangles(a)[w] for a, w in zip(anchors, which)]
        centres = [_centre_in(rng, t) for t in tris]
        theta = {}
        for v in _box(2, period):
            x = _tri_position(v)
            theta[v] = _arg(x, centres[0]) - _arg(x, centres[1])
        if _well_sampled(theta, centres, period, half=False):
            break
    values = {}
    for charge, a, w in zip((1, -1), anchors, which):
        values[_triangle_id(a, w, period)] = charge * TRI_ORIENTATION[w]
    samples = {v: _r(t) for v, t in theta.items()}
    doc = _field_doc(_lattice_doc(TRI, 2, period, ()), "circle", samples)
    return doc, _field_check(
        blocked_at=2, group="Z", values=values, class_status="trivial",
        pairings=[{"generator_order": 0, "pairing": 0}],
        index_sum={"applicable": True, "index_sum": 0, "euler": 0,
                   "consistent": True})


def _well_sampled(theta, centres, period: int, *, half: bool) -> bool:
    """Guard the generated field, not the answer: on every edge that does
    not wrap, the angle the defects subtend stays well below a half turn,
    so each probe step equals the true change along the edge; on wrapped
    triangles the three steps stay inside a half turn, so their winding
    is 0.  ``half`` marks a line field, whose samples turn by half the
    subtended angle."""
    limit = math.radians(170.0)
    for a, b in _torus_edges(period):
        if max(b) >= period:
            continue
        pa, pb = _tri_position(a), _tri_position(b)
        if sum(abs(_subtended(pa, pb, c)) for c in centres) >= limit:
            return False
    if half:
        return True
    for base in _box(2, period):
        if max(base) < period - 1:
            continue
        for tri in _triangles(base):
            vals = [theta[_wrap(v, period)] for v in tri]
            steps = [math.remainder(vals[(k + 1) % 3] - vals[k], math.tau)
                     for k in range(3)]
            if sum(abs(s) for s in steps) >= math.pi - 0.1:
                return False
    return True


def _disclinations(rng, side, count) -> tuple[dict, Callable]:
    """Half-turn line-field defects on a free triangulated disc: each
    blocks its triangle with parity 1.  The disc has no H^2 over Z/2, so
    the class vanishes."""
    while True:
        anchors = [tuple(rng.randrange(side) for _ in range(2))
                   for _ in range(count)]
        if count == 2 and max(abs(x - y) for x, y in
                              zip(anchors[0], anchors[1])) < 3:
            continue
        which = [rng.randrange(2) for _ in range(count)]
        centres = [_centre_in(rng, _triangles(a)[w])
                   for a, w in zip(anchors, which)]
        # the box edges of a free grid are the torus edges that do not wrap
        if _well_sampled({}, centres, side + 1, half=True):
            break
    charges = (0.5, -0.5)[:count]
    samples = {}
    for v in _box(2, side + 1):
        x = _tri_position(v)
        phi = sum(q * _arg(x, c) for q, c in zip(charges, centres))
        samples[v] = [_r(math.cos(phi)), _r(math.sin(phi)), 0.0]
    values = {_triangle_id(a, w, side): 1 for a, w in zip(anchors, which)}
    doc = _field_doc(_lattice_doc(TRI, 2, side, (), boundary="free"),
                     "projective_plane", samples)
    return doc, _field_check(blocked_at=2, group="Z/2", values=values,
                             class_status="trivial", pairings=[])


def _spin_domain(rng, side) -> tuple[dict, Callable]:
    """Two spin domains split by a straight wall on a free triangulated
    grid: the wall crosses side + 1 axis edges and side diagonals."""
    axis = rng.randrange(2)
    cut = rng.randrange(1, side + 1)
    samples = {v: ("down" if v[axis] >= cut else "up")
               for v in _box(2, side + 1)}
    doc = _field_doc(_lattice_doc(TRI, 2, side, (), boundary="free"),
                     "finite_set", samples, labels=["up", "down"])
    return doc, _field_check(
        blocked_at=1, group="set", blocking_total=2 * side + 1,
        class_status="not_applicable",
        components=[{"component": 0, "labels": ["down", "up"]}])


def _smooth_circle(rng, period) -> tuple[dict, Callable]:
    """A field winding once around one cycle of the torus is locally
    smooth: it extends over every triangle."""
    wind = rng.choice(((1, 0), (0, 1), (1, -1), (0, 0)))
    phase = rng.uniform(-math.pi, math.pi)
    samples = {v: _r(phase + math.tau * (wind[0] * v[0] + wind[1] * v[1])
                     / period + rng.uniform(-0.1, 0.1))
               for v in _box(2, period)}
    doc = _field_doc(_lattice_doc(TRI, 2, period, ()), "circle", samples)
    return doc, _field_check(
        blocked_at=None,
        index_sum={"applicable": True, "index_sum": 0, "euler": 0,
                   "consistent": True})


def _field_job(rng, kind, size) -> Job:
    if kind == "disclination":
        doc, check = _disclinations(rng, size, 1)
    elif kind == "disclinations":
        doc, check = _disclinations(rng, size, 2)
    else:
        doc, check = {
            "hedgehog": _hedgehog, "smooth_sphere": _smooth_sphere,
            "vortex_pair": _vortex_pair, "spin_domain": _spin_domain,
            "smooth_circle": _smooth_circle,
        }[kind](rng, size)
    return Job(f"{kind}{size}", ["obstruct", "--report", "json"],
               _encode(doc), check)


# ---------------------------------------------------------------------------
# bulk-network: large periodic samples with edge data


class _PeriodicLattice:
    """Vertex and edge numbering of a periodic box with vacancies, as the
    builder produces it: surviving labels sorted, edges sorted by
    (tail, unwrapped head)."""

    def __init__(self, scheme: str, dim: int, period: int, vacancies):
        self.scheme, self.dim, self.period = scheme, dim, period
        gone = set(vacancies)
        self.vacancies = len(gone)
        self.vertices = [v for v in _box(dim, period) if v not in gone]
        self.vid = {v: i for i, v in enumerate(self.vertices)}
        self.edges = []            # (tail label, head label) wrapped
        self.eid = {}              # (tail, unwrapped head) -> edge id
        for t in self.vertices:
            for off in _edge_offsets(scheme, dim):
                h = _add(t, off)
                if _wrap(h, period) in gone:
                    continue
                self.eid[(t, h)] = len(self.edges)
                self.edges.append((t, _wrap(h, period)))

    def cell_counts(self) -> list[int]:
        """Cells of each dimension: every vacancy takes its closed star."""
        n, count = self.period ** self.dim, self.vacancies
        if self.scheme == TRI:
            return [n - count, 3 * n - 6 * count, 2 * n - 6 * count]
        return [n - count, 3 * n - 6 * count, 3 * n - 12 * count,
                n - 8 * count]

    def face_loops(self):
        """Each surviving 2-cell as its boundary loop of (edge id, sign)."""
        if self.scheme == TRI:
            rings = [list(tri) + [tri[0]] for base in self.vertices
                     for tri in _triangles(base)]
        else:
            unit = [tuple(int(k == a) for k in range(self.dim))
                    for a in range(self.dim)]
            rings = [[base, _add(base, ea), _add(_add(base, ea), eb),
                      _add(base, eb), base]
                     for base in self.vertices
                     for ea, eb in itertools.combinations(unit, 2)]
        offsets = set(_edge_offsets(self.scheme, self.dim))
        for ring in rings:
            loop = []
            for u, w in zip(ring, ring[1:]):
                off = tuple(b - a for a, b in zip(u, w))
                sign, tail = (1, u) if off in offsets else (-1, w)
                if sign < 0:
                    off = tuple(-x for x in off)
                t0 = _wrap(tail, self.period)
                eid = self.eid.get((t0, _add(t0, off)))
                if eid is None:        # a corner is a vacancy
                    break
                loop.append((eid, sign))
            else:
                yield loop


def _dyadic(rng: random.Random, scale: int) -> float:
    """Small dyadic rationals keep every sum exact in floating point."""
    return rng.randint(-scale, scale) / 16.0


def _bulk_job(rng, scheme, period, command, faulty) -> Job:
    dim = 2 if scheme == TRI else 3
    sites = _separated_sites(rng, dim, period, BULK_VACANCIES)
    lat = _PeriodicLattice(scheme, dim, period, sites)
    n_edges = len(lat.edges)

    current = [0.0] * n_edges
    for loop in lat.face_loops():
        c = _dyadic(rng, 32)
        for eid, sign in loop:
            current[eid] += sign * c
    potential = {v: _dyadic(rng, 4096) for v in lat.vertices}
    drops = [potential[h] - potential[t] for t, h in lat.edges]
    leak = broken = None
    if faulty:
        leak, broken = rng.randrange(n_edges), rng.randrange(n_edges)
        current[leak] += 0.5
        drops[broken] += 0.75

    doc = _lattice_doc(scheme, dim, period, sites)
    # Currents name edges by their stored vertex pair, drops by edge id:
    # both spellings the document format allows.
    doc["currents"] = [[[list(t), list(h)], current[e]]
                       for e, (t, h) in enumerate(lat.edges)]
    doc["drops"] = [[e, d] for e, d in enumerate(drops)]

    if command == "build":
        counts = lat.cell_counts()
        euler = sum((-1) ** k * n for k, n in enumerate(counts))

        def check(rep: dict) -> list[str]:
            out = _mismatch("command", rep.get("command"), "build")
            out += _mismatch("cells", rep.get("cells"), counts)
            out += _mismatch("euler", rep.get("euler_characteristic_cells"),
                             euler)
            out += _mismatch("validation", rep.get("validation"),
                             {"ok": True, "messages": []})
            out += _mismatch("removed", (rep.get("defects") or {}).get(
                "removed_total"), len(sites))
            return out
        argv = ["build", "--report", "json"]
    else:
        def check(rep: dict) -> list[str]:
            return _network_check(rep, lat, drops, leak, broken)
        argv = ["network", "--report", "json"]
    name = f"{scheme}{period}-{command}{'-faulty' if faulty else ''}"
    return Job(name, argv, _encode(doc), check)


def _network_check(rep, lat, drops, leak, broken) -> list[str]:
    out = _mismatch("command", rep.get("command"), "network")
    cl = rep.get("current_law") or {}
    if leak is None:
        out += _mismatch("current law", (cl.get("ok"), cl.get("residuals")),
                         (True, {}))
    else:
        t, h = lat.edges[leak]
        want = {str(lat.vid[t]): -0.5, str(lat.vid[h]): 0.5}
        out += _mismatch("current law", (cl.get("ok"), cl.get("residuals")),
                         (False, want))
    pc = rep.get("potential") or {}
    if broken is None:
        out += _mismatch("potential consistent", pc.get("consistent"), True)
        pots = pc.get("potentials") or []
        if len(pots) != len(lat.vertices):
            return out + [f"potentials: {len(pots)} values for "
                          f"{len(lat.vertices)} vertices"]
        worst = max(abs(pots[lat.vid[h]] - pots[lat.vid[t]] - d)
                    for (t, h), d in zip(lat.edges, drops))
        if worst > KIRCHHOFF_TOL:
            out.append(f"potentials miss a drop by {worst!r}")
        return out
    out += _mismatch("potential consistent", pc.get("consistent"), False)
    loop = {int(e): c for e, c in (pc.get("loop") or {}).items()}
    if abs(loop.get(broken, 0.0)) != 1.0:
        out.append(f"violating loop misses the broken edge {broken}")
    net = [0.0] * len(lat.vertices)
    for e, c in loop.items():
        t, h = lat.edges[e]
        net[lat.vid[h]] += c
        net[lat.vid[t]] -= c
    if any(net):
        out.append("violating loop is not closed")
    circulation = pc.get("loop_circulation")
    if circulation is None or abs(abs(circulation) - 0.75) > KIRCHHOFF_TOL:
        out.append(f"loop circulation {circulation!r}, want +-0.75")
    return out


_MAKERS = {
    "vacancy-scan": _vacancy_job,
    "field-obstruct": _field_job,
    "bulk-network": _bulk_job,
}
