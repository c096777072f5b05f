import copy
import importlib.util
import math
from bisect import bisect_left
from pathlib import Path

import numpy as np
import pytest

from streamtrace import (
    FieldError,
    FieldSamples,
    FluxError,
    Polyline,
    StreamMeshError,
    SurfaceMesh,
    TraceError,
    flux,
    meshgen,
    synth_field,
)
from streamtrace.stream_mesh import _CHORD, IN, LABELS, OUT, TB, TF


def normalize_sample(value_deg):
    """Reduce a real angle in degrees to ([0, 360), winding).

    The scalar oracle of ``field.normalize_samples``, which must agree with
    it bit for bit.
    """
    w = math.floor(value_deg / 360.0)
    a = value_deg - 360.0 * w
    if a < 0.0:  # value / 360 underflowed to -0.0 for a tiny negative value
        a += 360.0
        w -= 1
    if a >= 360.0:  # floating point guard when value is a hair below 0
        a -= 360.0
        w += 1
    return a, int(w)


@pytest.fixture(scope="session")
def strip10():
    return strip(10)


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


# the benchmark's scene generator, which the tests import read-only
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    """``perfbench/workloads.py`` as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


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


def random_facets(rng, n):
    """n random wound facets (``wound_config``) as one mesh of separate triangles."""
    meshes, samples = zip(*(wound_config(rng) for _ in range(n)))
    mesh = SurfaceMesh(
        np.concatenate([m.vertices for m in meshes]), np.arange(3 * n).reshape(n, 3)
    )
    fs = FieldSamples(
        np.concatenate([s.angles for s in samples]),
        np.concatenate([s.windings for s in samples]),
    )
    return mesh, fs


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


def strip(n):
    """A triangulated strip of n unit cells, one cell tall."""
    return meshgen.grid(n, 1, float(n), 1.0)


def cube_corner():
    """Three unit squares of a cube meeting at the origin corner.

    The corner vertex is interior with angle defect pi/2; everything else is
    boundary.  Each square is split by its diagonal from the corner.
    """
    o = np.zeros(3)
    ex, ey, ez = np.eye(3)
    squares = [(ey, ex), (ex, ez), (ez, ey)]  # normals -z, -y, -x
    verts = [o]
    faces = []
    for a, b in squares:
        ia = len(verts)
        verts += [a.copy(), a + b, b.copy()]
        faces += [[0, ia, ia + 1], [0, ia + 1, ia + 2]]
    # merge duplicated axis-end vertices between adjacent squares
    merged = {}
    out_verts = []
    remap = {}
    for i, v in enumerate(verts):
        key = tuple(np.round(v, 12))
        if key in merged:
            remap[i] = merged[key]
        else:
            merged[key] = len(out_verts)
            remap[i] = len(out_verts)
            out_verts.append(v)
    faces = [[remap[i] for i in f] for f in faces]
    return SurfaceMesh(np.array(out_verts), faces)


def turned_frames(mesh, offsets):
    """A copy of ``mesh`` with each facet's reference direction r turned.

    Facet f's r turns by ``offsets[f]`` radians, counterclockwise in its
    plane, and ``frame_u``, ``frame_v`` and ``edge_angles`` follow it; the
    copy shares every other table with ``mesh``.  Cuts and traced lines
    must not depend on the turn.  The cosines and sines go through ``math``
    one value at a time, and a facet turned by 0.0 keeps its rows' bits.
    """
    offs = np.asarray(offsets, dtype=float)
    turned = offs != 0.0
    cos = np.array([math.cos(o) for o in offs[turned].tolist()])[:, None]
    sin = np.array([math.sin(o) for o in offs[turned].tolist()])[:, None]
    u0, v0 = mesh.frame_u, mesh.frame_v
    u, v = u0.copy(), v0.copy()
    u[turned] = cos * u0[turned] + sin * v0[turned]
    v[turned] = cos * v0[turned] - sin * u0[turned]
    # the angle from r to edge 0 is minus the turn; corners add pi - beta
    angles = np.empty((mesh.n_facets, 3))
    angles[:, 0] = -offs
    angles[:, 1] = angles[:, 0] + (math.pi - mesh.betas[:, 0])
    angles[:, 2] = angles[:, 1] + (math.pi - mesh.betas[:, 1])
    out = copy.copy(mesh)
    for name, table in (("frame_u", u), ("frame_v", v), ("edge_angles", angles)):
        table.setflags(write=False)
        setattr(out, name, table)
    return out


def polyline_of(points, seed=None):
    """A ``Polyline`` from ``seed`` whose columns hold ``(halfedge, c)`` points."""
    pl = Polyline(seed)
    pl.halfedges = [h for h, _ in points]
    pl.cs = [c for _, c in points]
    return pl


def corner_angle_sum(mesh, v):
    """Sum of the corner angles at vertex v, in ascending facet order."""
    total = 0.0
    for f, k in mesh.vertex_corners(v):
        total += mesh.betas[f, k]
    return total


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
    nodes = fieldsamples.nodes[f]
    k = element // 2
    b = nodes[element] + t * (nodes[element + 1] - nodes[element])
    angle = math.radians(b) + mesh.edge_angles[f, k]
    if element % 2 == 1:
        angle += t * (math.pi - mesh.betas[f, k])
    return angle


# -- the vertex index from the geometry ----------------------------------------


def corner_jump_deg(mesh, fieldsamples, f, k):
    """Field discontinuity (degrees) across corner k of facet f.

    The border-interpolated angle rotates by nodes[2k+2] - nodes[2k+1]
    across the corner while the border direction itself turns by
    -(180 - beta); whatever rotation remains beyond that turn is the field's
    own jump.  Signs are fixed so that a flat sink (field pointing at the
    vertex on every incident edge) jumps by +beta at each of its corners.
    """
    nodes = fieldsamples.nodes[f]
    corner_rot = nodes[2 * k + 2] - nodes[2 * k + 1]
    beta_deg = math.degrees(mesh.betas[f, k])
    return -corner_rot - (180.0 - beta_deg)


def geometric_vertex_index(mesh, fieldsamples, v):
    """Index at an interior vertex as the corner jumps plus the angle defect.

    The oracle of ``vertex_index``, which reads the same turns from the
    samples alone, the corner angles cancelled.
    """
    total_jump = 0.0
    for f, k in mesh.vertex_corners(v):
        total_jump += corner_jump_deg(mesh, fieldsamples, f, k)
    defect = 2.0 * math.pi - corner_angle_sum(mesh, v)
    return math.radians(total_jump) / (2.0 * math.pi) + defect / (2.0 * math.pi)


# -- crossing-check keys, one point at a time ------------------------------------


def _border_key(mesh, facet, tp):
    """Map a trace point on the facet border to its key in [0, 3].

    Edge k covers [k, k + 1], so vertex 0 reads as 0.0 or as 3.0.  The
    scalar oracle of the crossing check's array keys.
    """
    h = tp.halfedge
    if tp.c > 1.0:
        return (h % 3 + 1.0) % 3.0  # absorbing corner: the vertex itself
    if mesh.facet(h) == facet:
        return h % 3 + tp.c
    o = mesh.opposite(h)
    if mesh.facet(o) == facet:
        return o % 3 + (1.0 - tp.c)
    # vertex pivots connect through a vertex shared with the facet
    if tp.c == 0.0 or tp.c == 1.0:
        v = mesh.dest(h) if tp.c == 1.0 else mesh.origin(h)
        verts = list(mesh.faces[facet])
        if v in verts:
            return float(verts.index(v))
    raise TraceError(f"trace point {tp} does not touch facet {facet}")


def oracle_interleaving_facets(facet, lo, hi):
    """Facets holding two intervals ``lo1 < lo2 < hi1 < hi2``, by a stack pass.

    The scalar oracle of ``tracer._interleaving_facets``.  Each facet's
    intervals are sorted by ``lo`` ascending, ``hi`` descending; the stack
    holds the open intervals, each nested in the one below it, and a new
    interval first closes those that end at or before its start.  The
    facet is flagged when a new interval starts inside the one on top and
    ends beyond it.
    """
    flagged = set()
    order = np.lexsort((-hi, lo, facet))
    stack, current = [], None
    for f, a, b in zip(facet[order].tolist(), lo[order].tolist(), hi[order].tolist()):
        if f != current:
            stack, current = [], f
        while stack and stack[-1] <= a:
            stack.pop()
        if stack and b > stack[-1]:
            flagged.add(f)
        stack.append(b)
    return flagged


# -- border cut oracle ---------------------------------------------------------


def oracle_behaviors(values):
    """Behavior code of each border-relative angle in degrees, by ``np.mod``."""
    m = np.mod(values, 360.0)
    return np.where(
        m == 0.0, TF, np.where(m == 180.0, TB, np.where(m < 180.0, IN, OUT))
    ).astype(np.int8)


def oracle_segment(d0, d1):
    """Cut each linear angle ``d0[i] -> d1[i]`` on [0, 1] at its tangencies.

    The oracle of ``stream_mesh._segment``: it sorts each element's cuts
    with ``np.lexsort`` and builds every piece column by scatters.

    Returns ``(element, behavior, t0, t1, b0, b1)`` arrays, one row per
    piece, element i's pieces in parameter order and angles in degrees.  A
    tangency inside the interval becomes a zero-length tangent piece, and so
    does one at an end.
    """
    n = len(d0)
    span = d1 - d0
    lo = np.where(d0 < d1, d0, d1)
    hi = np.where(d0 < d1, d1, d0)
    # the multiples of 180 in [lo, hi], as ints, so that level 0 is +0.0
    m0 = np.ceil(lo / 180.0).astype(np.int64)
    count = np.where(span != 0.0, np.floor(hi / 180.0).astype(np.int64) - m0 + 1, 0)
    first = np.cumsum(count) - count
    cut = np.repeat(np.arange(n), count)
    level = 180.0 * (m0[cut] + np.arange(len(cut)) - first[cut])
    t = (level - d0[cut]) / span[cut]
    # min(1, max(0, t)), which keeps 0.0 where t is -0.0
    t = np.where(t > 0.0, t, 0.0)
    t = np.where(t < 1.0, t, 1.0)
    # levels run downward where the span is negative
    order = np.lexsort((level, t, cut))
    t, level = t[order], level[order]

    # each cut ends the flow piece before it, when that has length, and
    # is a tangent piece itself; the element's last piece follows its cuts
    new = np.ones(len(cut), bool)
    new[1:] = cut[1:] != cut[:-1]
    prev_t = np.where(new, 0.0, np.concatenate([t[-1:], t[:-1]]))
    prev_b = np.where(new, d0[cut], np.concatenate([level[-1:], level[:-1]]))
    cuts = count > 0
    last = np.where(cuts, first + count - 1, 0)
    last_t = np.where(cuts, t[last] if len(cut) else 0.0, 0.0)
    last_b = np.where(cuts, level[last] if len(cut) else 0.0, d0)

    size = 2 * len(cut) + n
    el = np.empty(size, np.int64)
    t0, t1, b0, b1, value = (np.empty(size) for _ in range(5))
    keep = np.ones(size, bool)
    fp = 2 * np.arange(len(cut)) + cut  # the flow piece before each cut
    tp = fp + 1  # the tangent piece at each cut
    ep = 2 * (first + count) + np.arange(n)  # each element's last piece
    el[fp], t0[fp], t1[fp], b0[fp], b1[fp] = cut, prev_t, t, prev_b, level
    value[fp] = 0.5 * (prev_b + level)
    keep[fp] = t > prev_t
    el[tp], t0[tp], t1[tp], b0[tp], b1[tp], value[tp] = cut, t, t, level, level, level
    el[ep], t0[ep], t1[ep], b0[ep], b1[ep] = np.arange(n), last_t, 1.0, last_b, d1
    value[ep] = 0.5 * (last_b + d1)
    keep[ep] = last_t < 1.0
    return el[keep], oracle_behaviors(value[keep]), t0[keep], t1[keep], b0[keep], b1[keep]


def _oracle_snap(value_deg):
    """The nearest multiple of 180; ``+ 0.0`` turns -0.0 into 0.0."""
    return 180.0 * np.rint(value_deg / 180.0) + 0.0


def oracle_cut_block(mesh, fieldsamples, facets):
    """``BorderTable``'s arrays for one block of facets, pass by pass.

    The oracle of ``stream_mesh._cut_block``, which must return the same
    arrays bit for bit: the first array form of the cut, which sorts each
    element's cuts, segments both sides of an interior edge and finds
    every row's neighbours round its border.

    Returns the rows' codes, their columns (t0, t1, b0, b1, length, total)
    as one ``(6, rows)`` array, a table with one row per facet (its first
    row, the start of each element and the end of the last, counted from
    that row, group 0's first row, its span of group bounds and its error
    code) and the group bounds.  A piece's t0 is the t1 of the piece before
    it on the same element, else 0.0, as the cut leaves them.
    """
    nb = len(facets)
    nodes = fieldsamples.nodes[facets]
    # element e of facet i is slot 6 i + e; an edge is cut on its
    # canonical side, from that side's node values
    own0, own1 = nodes[:, :6].ravel(), nodes[:, 1:].ravel()
    h = 3 * facets[:, None] + np.arange(3)
    other = ~mesh._canonical[h]
    mirrored = np.zeros((nb, 6), bool)
    mirrored[:, 0::2] = other
    mirrored = mirrored.ravel()
    _, opposite, _, _ = mesh.halfedge_tables()
    o = opposite[h][other]
    canonical = fieldsamples.nodes[o // 3]
    d0, d1 = own0.copy(), own1.copy()
    d0[mirrored] = canonical[np.arange(len(o)), 2 * (o % 3)]
    d1[mirrored] = canonical[np.arange(len(o)), 2 * (o % 3) + 1]
    slot, beh, t0, t1, b0, b1 = oracle_segment(d0, d1)

    # a mirrored edge takes its canonical side's rows in reverse, with the
    # angles taken at the same cuts from its own node values
    count = np.bincount(slot, minlength=6 * nb)
    start = np.cumsum(count) - count
    r = np.arange(len(slot))
    flip = mirrored[slot]
    src = np.where(flip, 2 * start[slot] + count[slot] - 1 - r, r)
    beh, t0, t1, b0, b1 = beh[src], t0[src], t1[src], b0[src], b1[src]
    s0, s1 = 1.0 - t1[flip], 1.0 - t0[flip]
    u0, u1 = own0[slot[flip]], own1[slot[flip]]
    near = u0 + s0 * (u1 - u0)
    far = u0 + s1 * (u1 - u0)
    mid = _oracle_snap(u0 + (0.5 * (s0 + s1)) * (u1 - u0))
    tangent = beh[flip] >= TF
    snap_near = np.mod(b1[flip], 180.0) == 0.0
    snap_far = np.mod(b0[flip], 180.0) == 0.0
    b0[flip] = np.where(tangent, mid, np.where(snap_near, _oracle_snap(near), near))
    b1[flip] = np.where(tangent, mid, np.where(snap_far, _oracle_snap(far), far))
    t0[flip], t1[flip] = s0, s1
    beh[flip] ^= 1

    # two tangents meeting at an element junction (the last one wraps
    # round) repeat one tangency: drop the later element's zero-length
    # start piece, and the earlier element's zero-length end piece if a
    # tangent still starts the later element.  An element has a piece of
    # length > 0, so neither drop empties it.
    tan = beh >= TF
    head = start
    tail = (start + count - 1).reshape(nb, 6)[:, [5, 0, 1, 2, 3, 4]].ravel()
    both = tan[tail] & tan[head]
    drop_head = both & (t0[head] == t1[head])
    after = np.minimum(head + 1, len(slot) - 1)
    drop_tail = both & np.where(drop_head, tan[after], True) & (t0[tail] == t1[tail])
    keep = np.ones(len(slot), bool)
    keep[head[drop_head]] = False
    keep[tail[drop_tail]] = False
    slot, beh, t0, t1, b0, b1, tan = (a[keep] for a in (slot, beh, t0, t1, b0, b1, tan))

    # each facet's rows are its border cycle
    fi, element = slot // 6, slot % 6
    n_rows = np.bincount(fi, minlength=nb)
    row0 = np.cumsum(n_rows) - n_rows
    r = np.arange(len(slot))
    prv = np.where(r == row0[fi], r + n_rows[fi] - 1, r - 1)
    nxt = np.where(r == row0[fi] + n_rows[fi] - 1, row0[fi], r + 1)
    corner = element % 2 == 1
    sink = np.zeros(len(slot), np.int64)
    sink[corner & (beh == OUT) & (beh[prv] == TF) & (beh[nxt] == TB)] = 1
    sink[corner & (beh == IN) & (beh[prv] == TB) & (beh[nxt] == TF)] = -1

    lens = mesh.edge_lens[facets]
    length = np.where(corner, 0.0, lens[fi, element // 2] * (t1 - t0))
    total = np.abs(sink).astype(float)
    edge_flow = ~corner & ~tan
    total[edge_flow] = flux.phi_totals(length[edge_flow], b0[edge_flow], b1[edge_flow])

    # a flow piece whose flow differs from the flow piece before it, round
    # the border, starts a group; group 0 starts at the first such row
    fr = np.nonzero(~tan)[0]
    ff = fi[fr]
    n_flows = np.bincount(ff, minlength=nb)
    k = np.arange(len(fr))
    first_flow = np.ones(len(fr), bool)
    first_flow[1:] = ff[1:] != ff[:-1]
    before = fr[np.where(first_flow, np.cumsum(n_flows)[ff] - 1, k - 1)]
    starts = beh[fr] != beh[before]
    heads, last_before = fr[starts], before[starts]
    hf = fi[heads]
    n_groups = np.bincount(hf, minlength=nb)
    group0 = np.zeros(nb, np.int64)
    firsts = np.ones(len(heads), bool)
    firsts[1:] = hf[1:] != hf[:-1]
    group0[hf[firsts]] = heads[firsts] - row0[hf[firsts]]
    # group i runs from head i through the last flow piece before head
    # i + 1, in rows counted from group 0's first row round the border
    j = np.arange(len(heads))
    heads_end = np.cumsum(n_groups)[hf]
    following = np.where(j == heads_end - 1, heads_end - n_groups[hf], j + 1)
    bounds = np.empty(2 * len(heads), np.int64)
    bounds[0::2] = heads - row0[hf] - group0[hf]
    ends = last_before[following]
    bounds[1::2] = (ends - row0[hf] - group0[hf]) % n_rows[hf] + 1

    error = np.zeros(nb, np.int64)
    error[n_groups == 0] = 3
    error[hf[~tan[prv[heads]]]] = 2
    error[n_flows == 0] = 1

    codes = (element + 8 * beh + 32 * (sink + 1)).astype(np.int8)
    columns = np.stack([t0, t1, b0, b1, length, total])
    bound_end = np.cumsum(2 * n_groups)
    spans = np.zeros((nb, 12), np.int32)
    spans[:, 0] = row0
    spans[:, 2:8] = np.cumsum(np.bincount(slot, minlength=6 * nb).reshape(nb, 6), axis=1)
    spans[:, 8], spans[:, 9], spans[:, 10] = group0, bound_end - 2 * n_groups, bound_end
    spans[:, 11] = error
    return codes, columns, spans, bounds.astype(np.int32)


# -- stream-mesh rows, decoded by table ----------------------------------------

# a row's code is element + 8 behavior + 32 (sink + 1), where element 6
# marks a chord; _DECODE maps it to (kind, behavior code, element, sink),
# by table rather than by the code-bit reads of the program it checks
_DECODE = [
    ("chord", b, None, s - 1)
    if e == _CHORD
    else ("corner" if e % 2 else "edge", b, e, s - 1)
    for s in range(3)
    for b in range(4)
    for e in range(8)
]


def decode(sm, r):
    """(kind, behavior code, element, sink) of row r; element is None on chords."""
    return _DECODE[sm.code[r]]


# the dump's name of each border element
_NAMES = ("edge0", "corner0", "edge1", "corner1", "edge2", "corner2")


def dump(sm):
    """Stable text form of a stream mesh: border pieces in order, then chords per face.

    A chord runs from where the row before it in its face's walk ends to
    where the row after it starts.
    """
    code, t0, t1 = sm.code, sm.t0, sm.t1
    face = [0] * len(code)
    ends = {}
    for face_id, (groups, seps) in enumerate(sm.faces or ()):
        walk = [r for sep, group in zip(seps, groups) for r in sep + group]
        for i, r in enumerate(walk):
            face[r] = face_id
            if code[r] & 7 == _CHORD:
                a, b = walk[i - 1], walk[(i + 1) % len(walk)]
                ends[r] = (_NAMES[code[a] & 7], t1[a], _NAMES[code[b] & 7], t0[b])
    lines = [
        f"{_NAMES[code[r] & 7]} [{t0[r]:.12g}, {t1[r]:.12g}] "
        f"{LABELS[code[r] >> 3 & 3]} face{face[r]}"
        for r in range(sm.elements[6])
    ]
    for r in range(sm.elements[6], len(code)):
        e0, a, e1, b = ends[r]
        lines.append(
            f"chord face{face[r]} ({e0} t={a:.12g}) -> ({e1} t={b:.12g}) "
            f"{LABELS[code[r] >> 3 & 3]}"
        )
    return "\n".join(lines) + "\n"


# -- stream-mesh face queries, over row indices ------------------------------


def border_face(borders, f):
    """Facet f's undecomposed border as one face: (groups, seps) of its rows."""
    codes, _, _, first, bounds = borders.border(f)
    cycle = [*range(first, len(codes)), *range(first)]
    starts, ends = bounds[0::2], bounds[1::2]
    groups = [cycle[a:b] for a, b in zip(starts, ends)]
    seps = [cycle[ends[-1]:]] + [cycle[b:a] for b, a in zip(ends, starts[1:])]
    return groups, seps


def faces_of(borders, sm):
    """The faces of a decomposed facet: ``sm.faces``, or its border as one face."""
    return sm.faces or [border_face(borders, sm.facet)]


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
    kind, _, _, sink = decode(sm, r)
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


def oracle_offset(sm, r, c):
    kind, behavior, _, sink = _DECODE[sm.code[r]]
    if behavior in TANGENTS:
        return 0.0
    if not 0.0 <= c <= 1.0:
        raise FluxError(f"piece parameter {c} outside [0, 1]")
    return abs(flux._flow(kind == "corner", sink, sm.b0[r], sm.b1[r], sm.length[r], c))


def oracle_accumulate(sm, r, x):
    if sm.run[r] < 0:
        raise FluxError(f"row {r} is not a member of a run")
    return sm.start[r] + min(sm.total[r], max(0.0, x))


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
    return r, oracle_phi_inverse(sm, r, rem, total[r]), rem


def oracle_cross_facet(sm, r, x):
    run, prefix, twin = sm.run, sm.run_prefix, sm.twin
    hops = 0
    while True:
        rin = run[r]
        rout = rin ^ 1
        xin = oracle_accumulate(sm, r, x)
        ratio = min(1.0, max(0.0, xin / prefix[rin][-1]))
        out, c_out, rem = oracle_locate(sm, rout, prefix[rout][-1] * (1.0 - ratio))
        if out not in twin:
            return out, c_out, rem
        r = twin[out]
        x = sm.total[r] - rem
        hops += 1
        if hops > len(prefix) // 2 + 1:
            raise TraceError(f"facet {sm.facet}: chord hopping failed to reach the border")


# -- the trace, crossing each edge in c ---------------------------------------


def oracle_trace(tracer, seed):
    """``tracer.trace(seed)``, traced as the program traced before lines
    carried flux across edges, as a ``Polyline`` without positions.

    Each edge crossing turns the exit's c into the parameter across and
    enters the facet there by ``import_position``, which scans the edge
    element for it, and turns it back into flux with ``oracle_offset``.  The
    seed entry, vertex pivots, stops and the orbit check are the tracer's.
    """
    from streamtrace.tracer import _ENTRY, ORBIT_TOL

    mesh = tracer.mesh
    enter = _ENTRY[seed.direction]
    pl = polyline_of([seed.point], seed)
    if seed.corner is not None:
        f, k = divmod(seed.point.halfedge, 3)
        sm = tracer.stream_mesh(f)
        r, c = sm.corner_entry(k, seed.corner, enter)
    else:
        sm, r, c = tracer._edge_seed_entry(seed.point, enter)
    visited = {}
    pivot_vertex, pivot_count = None, 0
    while True:
        out, c_out, _ = oracle_cross_facet(sm, r, oracle_offset(sm, r, c))
        h_exit, c_exit = sm.export_position(out, c_out)
        pl.halfedges.append(h_exit)
        pl.cs.append(c_exit)
        if c_exit > 1.0:
            pl.termination, pl.sink_vertex = "sink-vertex", mesh.dest(h_exit)
            return pl
        seen = visited.setdefault(h_exit, [])
        if any(abs(c_exit - p) <= ORBIT_TOL for p in seen):
            pl.termination = "closed-orbit"
            return pl
        seen.append(c_exit)
        if len(pl) > tracer.max_steps:
            pl.termination = "step-cap"
            return pl
        if not mesh.has_facet(h_exit):
            pl.termination = "boundary"
            return pl
        if c_exit in (0.0, 1.0):
            o = h_exit if c_exit == 0.0 else mesh.next(h_exit)
            v = mesh.origin(o)
            pivot_count = pivot_count + 1 if v == pivot_vertex else 1
            pivot_vertex = v
            if pivot_count > mesh.vertex_valence(v):
                tracer._stop_at_vertex(pl, v)
                return pl
            entry = tracer._pivot_at_vertex(pl, o, enter)
            if entry is None:
                return pl
            sm, r, c = entry
        else:
            pivot_vertex, pivot_count = None, 0
            h = mesh.opposite(h_exit)
            sm = tracer.stream_mesh(mesh.facet(h))
            r, c = sm.import_position(h, 1.0 - c_exit, enter)


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
