import math
from bisect import bisect_left

import numpy as np
import pytest

from streamtrace import (
    FieldError,
    FieldSamples,
    FluxError,
    StreamMeshError,
    SurfaceMesh,
    TraceError,
    flux,
    meshgen,
    synth_field,
)
from streamtrace.field import normalize_sample
from streamtrace.stream_mesh import _DECODE, IN, OUT, TB, TF


@pytest.fixture(scope="session")
def strip10():
    return meshgen.strip(10)


@pytest.fixture(scope="session")
def grid10():
    return meshgen.grid(10, 10)


@pytest.fixture(scope="session")
def disc_mesh():
    return meshgen.disc(6, 24)


@pytest.fixture(scope="session")
def icosphere2():
    return meshgen.icosphere(2)


@pytest.fixture(scope="session")
def torus_mesh():
    return meshgen.torus()


@pytest.fixture(scope="session")
def sphere_random_field(icosphere2):
    return synth_field(icosphere2, "smoothed-random", seed=0)


def single_triangle(rng, min_area2=0.05):
    """One ccw triangle in the z = 0 plane, rejection-sampled to stay fat."""
    while True:
        pts = rng.uniform(-1.0, 1.0, (3, 3))
        pts[:, 2] = 0.0
        e1 = pts[1] - pts[0]
        e2 = pts[2] - pts[0]
        if e1[0] * e2[1] - e1[1] * e2[0] > min_area2:
            return SurfaceMesh(pts, [[0, 1, 2]])


def random_samples(rng, winding_span=2):
    """Random 6-sample row with windings in [-span, span]."""
    vals = rng.uniform(0.0, 360.0, 6) + 360.0 * rng.integers(
        -winding_span, winding_span + 1, 6
    )
    ang = np.empty((1, 6))
    wnd = np.empty((1, 6), dtype=np.int64)
    for i in range(6):
        a, w = normalize_sample(float(vals[i]))
        ang[0, i] = a
        wnd[0, i] = w
    return FieldSamples(ang, wnd)


def wound_config(rng, winding_span=2):
    return single_triangle(rng), random_samples(rng, winding_span)


def samples_from_reals(values):
    """FieldSamples for one facet from six real angles in degrees."""
    ang = np.empty((1, 6))
    wnd = np.empty((1, 6), dtype=np.int64)
    for i, v in enumerate(values):
        a, w = normalize_sample(float(v))
        ang[0, i] = a
        wnd[0, i] = w
    return FieldSamples(ang, wnd)


def right_triangle():
    """Unit right triangle (0,0) (1,0) (0,1), ccw in the plane."""
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return SurfaceMesh(verts, [[0, 1, 2]])


def constant_samples(mesh, angle_deg):
    return synth_field(mesh, "constant", angle_deg=angle_deg)


def boundary_halfedges(mesh):
    return [
        h
        for h in range(mesh.n_interior_halfedges)
        if not mesh.has_facet(mesh.opposite(h))
    ]


def assert_close(a, b, tol, msg=""):
    assert abs(a - b) <= tol, f"{msg} |{a} - {b}| = {abs(a - b)} > {tol}"


# -- border interpolation oracle -----------------------------------------------


def interpolated_angle(mesh, fieldsamples, f, element, t):
    """Field angle at a border point, in radians relative to the facet's r.

    ``element`` is the border element ordinal: ``2k`` for edge k, ``2k + 1``
    for corner k; ``t`` in [0, 1] parameterizes the element.  The angle is
    the linear interpolation of the real sample angles plus the unwrapped
    angle from r to the local border direction (for corners the border
    direction itself turns by pi - beta across the element).
    """
    if not 0.0 <= t <= 1.0:
        raise FieldError(f"interpolation parameter {t} outside [0, 1]")
    nodes = fieldsamples.nodes(f)
    frame = mesh.frame(f)
    k = element // 2
    b = nodes[element] + t * (nodes[element + 1] - nodes[element])
    angle = math.radians(b) + frame.edge_angles[k]
    if element % 2 == 1:
        angle += t * (math.pi - frame.betas[k])
    return angle


# -- stream-mesh face queries, over row indices ------------------------------


def border_face(borders, f):
    """Facet f's undecomposed border as one face: (groups, seps) of its rows."""
    codes, _, _, first, bounds = borders.border(f)
    cycle = [*range(first, len(codes)), *range(first)]
    starts, ends = bounds[0::2], bounds[1::2]
    groups = [cycle[a:b] for a, b in zip(starts, ends)]
    seps = [cycle[ends[-1]:]] + [cycle[b:a] for b, a in zip(ends, starts[1:])]
    return groups, seps


def initial_pairs(borders, f):
    """Inflow/outflow pairs of facet f's border, from its flow groups."""
    return len(borders.border(f)[4]) // 4


def a_sequence(codes, face):
    """Alternation profile of a face border, one value per flow group.

    ``face`` is (groups, seps) of rows whose codes are ``codes``.  Starts
    at 0 on an outflow group; steps by +1 or -1 per the type of the
    tangency separating consecutive groups.  Closes one period at -2,
    which reflects that the border direction gains a full turn per loop;
    strictly decreasing over the period means the face is simple.
    """
    groups, seps = face

    def behavior(r):
        return _DECODE[codes[r]][1]

    if len(groups) % 2 != 0:
        raise StreamMeshError("flow groups do not alternate")
    start = None
    for gi, g in enumerate(groups):
        if behavior(g[0]) == OUT:
            start = gi
            break
    if start is None:
        raise StreamMeshError("face has no outflow group")
    seq = [0]
    a = 0
    m = len(groups)
    for j in range(1, m + 1):
        gi = (start + j) % m
        sep = seps[gi]
        sep_type = behavior(sep[0]) if sep else None
        entering = behavior(groups[gi][0])
        if entering == IN:
            a += 1 if sep_type == TF else -1
        else:
            a += 1 if sep_type == TB else -1
        seq.append(a)
    if seq[-1] != -2:
        raise StreamMeshError(
            f"malformed border: alternation closes at {seq[-1]}, not -2"
        )
    return seq[:-1]


def is_simple(face):
    return len(face[0]) == 2


def split_count(sm):
    """Splits a decomposition made: each one carved off one face."""
    return len(sm.run_rows) // 2 - 1


# -- flux of one row, from its fields -------------------------------------------


TANGENTS = (TF, TB)


def phi_signed(sm, r, c):
    """Signed flux through the sub-piece [0, c] of row r of ``sm``."""
    kind, _, _, sink = sm.decode(r)
    return flux._flow(kind == "corner", sink, sm.b0[r], sm.b1[r], sm.length[r], c)


def phi(sm, r, c):
    """Flux magnitude through the sub-piece [0, c] of row r of ``sm``."""
    return abs(phi_signed(sm, r, c))


# -- the crossing path as min/max clamps and decoded rows ---------------------
#
# Oracles for the lean crossing path: ``flux`` and ``Tracer.cross_facet`` read
# code bits and clamp by comparisons, these decode rows and clamp with
# ``min``/``max``.  They must agree bit for bit.


def oracle_phi_inverse(sm, r, x, total):
    if x < 0.0 or x > total * (1.0 + 1e-9) + 1e-300:
        raise FluxError(f"flux value {x} outside [0, {total}]")
    if x == 0.0:
        return 0.0
    if x >= total:
        return 1.0
    kind, behavior, _, sink = _DECODE[sm.code[r]]
    if behavior in TANGENTS:
        raise FluxError("tangent stream-halfedges carry no flux")
    if kind == "corner":
        if sink == 0:
            raise FluxError("corner piece without sink flux is not invertible")
        return min(1.0, max(0.0, x))
    length = sm.length[r]
    b0 = math.radians(sm.b0[r])
    b1 = math.radians(sm.b1[r])
    db = b1 - b0
    sigma = -1.0 if behavior == IN else 1.0
    if abs(db) < flux._DEGENERATE_SWEEP:
        denom = length * abs(math.sin(b0))
        if denom == 0.0:
            raise FluxError("degenerate piece with zero flux density")
        return min(1.0, max(0.0, x / denom))
    u = math.cos(b0) + sigma * x * db / length
    u = min(1.0, max(-1.0, u))
    n = math.floor((b0 + 0.5 * db) / math.pi)
    t = math.acos(u)
    bt = n * math.pi + t if n % 2 == 0 else (n + 1) * math.pi - t
    return min(1.0, max(0.0, (bt - b0) / db))


def oracle_accumulate(sm, r, c):
    if sm.run[r] < 0:
        raise FluxError(f"row {r} is not a member of a run")
    kind, behavior, _, sink = _DECODE[sm.code[r]]
    if behavior in TANGENTS:
        return sm.start[r] + 0.0
    if not 0.0 <= c <= 1.0:
        raise FluxError(f"piece parameter {c} outside [0, 1]")
    return sm.start[r] + abs(
        flux._flow(kind == "corner", sink, sm.b0[r], sm.b1[r], sm.length[r], c)
    )


def oracle_locate(sm, run, x):
    rows = sm.run_rows[run]
    prefix = sm.run_prefix[run]
    total = sm.total
    if x < 0.0:
        x = 0.0
    if x > prefix[-1]:
        x = prefix[-1]
    j = bisect_left(prefix, x, 1) - 1
    while total[rows[j]] == 0.0:
        j += 1
    r = rows[j]
    rem = min(max(x - prefix[j], 0.0), total[r])
    return r, oracle_phi_inverse(sm, r, rem, total[r])


def oracle_cross_facet(sm, r, c):
    run, prefix, twin = sm.run, sm.run_prefix, sm.twin
    hops = 0
    while True:
        rin = run[r]
        rout = rin ^ 1
        xin = oracle_accumulate(sm, r, c)
        ratio = min(1.0, max(0.0, xin / prefix[rin][-1]))
        out, c_out = oracle_locate(sm, rout, prefix[rout][-1] * (1.0 - ratio))
        if out not in twin:
            return out, c_out
        r, c = twin[out], 1.0 - c_out
        hops += 1
        if hops > len(prefix) // 2 + 1:
            raise TraceError(f"facet {sm.facet}: chord hopping failed to reach the border")


def reference_obj(path):
    """Vertices and 0-based faces of an OBJ file, read line by line.

    The reference for ``load_obj`` on files it accepts: ``float`` and
    ``int`` on each token, ``v`` values after z and ``f`` token suffixes
    after the first ``/`` dropped.
    """
    vertices, faces = [], []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if parts[:1] == ["v"]:
                vertices.append([float(x) for x in parts[1:4]])
            elif parts[:1] == ["f"]:
                faces.append([int(tok.split("/")[0]) - 1 for tok in parts[1:]])
    return (
        np.array(vertices, dtype=np.float64).reshape(-1, 3),
        np.array(faces, dtype=np.int64).reshape(-1, 3),
    )


def reference_field(path):
    """Angles and windings of a field file by facet id, read line by line.

    The reference for ``load_field`` on files it accepts: ``float`` and
    ``int`` on each token, every angle folded by ``normalize_sample``.
    """
    rows = {}
    with open(path) as fh:
        lines = (line.partition("#")[0].split() for line in fh)
        next(parts for parts in lines if parts)  # the header
        for parts in lines:
            if parts:
                folded = [normalize_sample(float(a)) for a in parts[1::2]]
                winds = [int(w) + turns for (_, turns), w in zip(folded, parts[2::2])]
                rows[int(parts[0])] = ([a for a, _ in folded], winds)
    order = sorted(rows)
    return (
        np.array([rows[f][0] for f in order], dtype=np.float64).reshape(-1, 6),
        np.array([rows[f][1] for f in order], dtype=np.int64).reshape(-1, 6),
    )
