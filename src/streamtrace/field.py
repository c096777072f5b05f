"""Per-facet direction field samples and their file format.

A field assigns six angles to every facet: two per border edge, one at each
edge endpoint.  Sample ``2k`` sits at the origin of edge ``k``, sample
``2k + 1`` at its destination.  Angles are stored in degrees, measured from
the edge's own direction, reduced to [0, 360) with an integer winding count
alongside; the real (unreduced) angle of sample ``i`` is
``angles[i] + 360 * windings[i]``.  Storing edge-relative degrees keeps
tangency exactly representable: a sample is tangent to its edge iff the
stored angle is exactly 0.0 or 180.0.

Along the border of a facet the field angle interpolates linearly in the
real angles, edge by edge and corner by corner.  Corner ``k`` connects
sample ``2k + 1`` to sample ``2(k + 1) % 6``; the connecting segment at the
last corner ends at sample 0 minus a full turn, which encodes that the
field never winds around the interior of a facet (singularities live on
vertices only).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import FieldError, MeshError
from .mesh import SurfaceMesh, decimal_literal

_HEADER = "streamfield 1"

# endpoint / rotation agreement across an interior edge, in degrees
CONTINUITY_TOL_DEG = 1e-6
# corner distribution agreement around an interior vertex, deg per rad
EVENNESS_TOL = 1e-6


class FieldSamples:
    """Six direction samples per facet (degrees in [0, 360) plus windings).

    The real border angles of every facet are computed once, on
    construction, into a read-only ``(n_facets, 7)`` node table; ``nodes``
    returns its rows.
    """

    def __init__(self, angles, windings):
        angles = np.asarray(angles, dtype=np.float64)
        windings = np.asarray(windings, dtype=np.int64)
        if angles.shape != windings.shape or angles.ndim != 2 or angles.shape[1] != 6:
            raise FieldError("field samples must be two (n_facets, 6) arrays")
        if not np.all((angles >= 0.0) & (angles < 360.0)):
            raise FieldError("sample angles must lie in [0, 360)")
        self.angles = angles
        self.windings = windings
        self.angles.setflags(write=False)
        self.windings.setflags(write=False)
        th = angles + 360.0 * windings
        self._nodes = np.concatenate([th, th[:, :1] - 360.0], axis=1)
        self._nodes.setflags(write=False)

    @property
    def n_facets(self):
        return len(self.angles)

    def nodes(self, f):
        """Real border angles of facet f as a read-only 7-array.

        Entries 0..5 are the six samples un-reduced; entry 6 repeats sample 0
        minus 360, closing the border loop.  Edge k interpolates nodes[2k] ->
        nodes[2k+1]; corner k interpolates nodes[2k+1] -> nodes[2k+2].  The
        row is a view of the node table built once with the samples.
        """
        return self._nodes[f]

    def flipped(self):
        """The reverse field: every sample rotated by 180 degrees."""
        a = self.angles + 180.0
        wrap = a >= 360.0
        a = np.where(wrap, a - 360.0, a)
        w = self.windings + wrap.astype(np.int64)
        return FieldSamples(a, w)


@dataclass
class Violation:
    """One field consistency defect found by validate()."""

    kind: str
    where: str
    discrepancy: float
    edge: tuple | None = None
    vertex: int | None = None

    def __str__(self):
        return f"{self.kind} at {self.where}: off by {self.discrepancy:.6g}"


def normalize_sample(value_deg):
    """Reduce a real angle in degrees to ([0, 360), winding)."""
    w = math.floor(value_deg / 360.0)
    a = value_deg - 360.0 * w
    if a < 0.0:  # value / 360 underflowed to -0.0 for a tiny negative value
        a += 360.0
        w -= 1
    if a >= 360.0:  # floating point guard when value is a hair below 0
        a -= 360.0
        w += 1
    return a, int(w)


def normalize_samples(values):
    """``normalize_sample`` over an array of finite angles below ``ANGLE_LIMIT``.

    Returns the angles in [0, 360) and their int64 windings, equal bit for
    bit to the scalar form.  The whole turns become int64 before they scale
    360.0, as the scalar form's ``int`` does, so -0.0 stays -0.0.
    """
    turns = np.floor(values / 360.0).astype(np.int64)
    angles = values - 360.0 * turns
    low = angles < 0.0  # value / 360 underflowed to -0.0 for a tiny negative value
    angles = np.where(low, angles + 360.0, angles)
    high = angles >= 360.0  # floating point guard when value is a hair below 0
    angles = np.where(high, angles - 360.0, angles)
    return angles, turns - low + high


# an angle of this many degrees or more carries whole turns past 2**62: the
# windings of a field file must stay far inside int64
ANGLE_LIMIT = 360.0 * 2.0**62
_INT64 = np.iinfo(np.int64)


# one line of a field file after the header
_ROW = np.dtype(
    [
        ("id", np.int64),
        ("samples", [("angle", np.float64), ("winding", np.int64)], (6,)),
    ]
)


def load_field(path, mesh: SurfaceMesh) -> FieldSamples:
    """Read a field file and bind it to ``mesh``.

    Format: a ``streamfield 1`` header line, then one line per facet with
    13 numbers: the facet id followed by six (angle, winding) pairs.  ``#``
    starts a comment.  Numbers are ASCII decimal literals without ``_``
    separators.  Angles outside [0, 360) are normalized on load with
    the winding adjusted to keep the real angle unchanged (370 becomes 10
    with winding + 1).  A non-finite angle, one of ``ANGLE_LIMIT`` degrees
    or more, or a winding that does not fit 64 bits, as given or after
    that adjustment, is a ``FieldError`` naming its line.

    The lines after the header are converted by one ``np.loadtxt`` call,
    and the checks run on whole arrays.  Only a file that fails is read
    again, line by line, to name its first bad line.
    """
    n = mesh.n_facets
    with open(path) as fh:
        for header_at, raw in enumerate(fh, start=1):
            header = raw.split("#", 1)[0].strip()
            if header:
                break
        else:
            raise FieldError("empty field file")
        if header != _HEADER:
            raise FieldError(
                f"line {header_at}: expected header {_HEADER!r}, got {header!r}"
            )
        try:
            with warnings.catch_warnings():
                # a header alone is a file without rows, not a warning
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(fh, _ROW, ndmin=1)
        except ValueError:
            rows = None
    samples = None if rows is None else _samples_from_rows(rows, n)
    if samples is None:
        _raise_first_bad_line(path, n)
    return samples


def _samples_from_rows(rows, n):
    """FieldSamples of ``n`` facets from ``_ROW`` rows; None if a check fails."""
    ids = rows["id"]
    values = rows["samples"]["angle"]
    given = rows["samples"]["winding"]
    if len(ids) and (ids.min() < 0 or ids.max() >= n):
        return None
    counts = np.bincount(ids, minlength=n)
    if np.any(counts > 1) or not np.all(np.abs(values) < ANGLE_LIMIT):
        return None
    angles, turns = normalize_samples(values)
    # int64 addition wraps: bound the given winding before adding the turns
    if np.any(given > _INT64.max - np.maximum(turns, 0)) or np.any(
        given < _INT64.min - np.minimum(turns, 0)
    ):
        return None
    if len(ids) < n:
        missing = np.nonzero(counts == 0)[0]
        head = ", ".join(str(i) for i in missing[:8])
        raise FieldError(f"missing samples for {len(missing)} facet(s): {head}")
    out_angles = np.empty((n, 6))
    out_windings = np.empty((n, 6), dtype=np.int64)
    out_angles[ids] = angles
    out_windings[ids] = given + turns
    return FieldSamples(out_angles, out_windings)


def _raise_first_bad_line(path, n):
    """Raise the FieldError of the first line that fails a check of the loader."""
    seen = set()
    with open(path) as fh:
        rows = (line.partition("#")[0].split() for line in fh)
        # the first non-blank line is the header, which passed
        for lineno, parts in enumerate(rows, start=1):
            if parts:
                break
        for lineno, parts in enumerate(rows, start=lineno + 1):
            if not parts:
                continue
            if len(parts) != 13:
                raise FieldError(
                    f"line {lineno}: expected facet id and 6 angle/winding pairs"
                )
            try:
                fid = decimal_literal(int, parts[0])
                vals = [decimal_literal(float, x) for x in parts[1::2]]
                winds = [decimal_literal(int, x) for x in parts[2::2]]
            except ValueError as exc:
                raise FieldError(f"line {lineno}: {exc}") from None
            if fid < 0 or fid >= n:
                raise FieldError(f"line {lineno}: facet id {fid} out of range")
            if fid in seen:
                raise FieldError(f"line {lineno}: duplicate facet id {fid}")
            seen.add(fid)
            for v, w in zip(vals, winds):
                if not (
                    abs(v) < ANGLE_LIMIT
                    and _INT64.min <= w <= _INT64.max
                    and _INT64.min <= w + normalize_sample(v)[1] <= _INT64.max
                ):
                    raise FieldError(
                        f"line {lineno}: angle {v!r} with winding {w} "
                        "is not a finite angle with a 64-bit winding"
                    )
    # not reached: every check of the loader is a line check above
    raise FieldError("malformed field file")


def save_field(path, fieldsamples: FieldSamples):
    """Write a field file that round-trips bit-exactly through load_field."""
    n = fieldsamples.n_facets
    columns = [map(str, range(n))]
    for i in range(6):
        columns.append(map(repr, fieldsamples.angles[:, i].tolist()))
        columns.append(map(str, fieldsamples.windings[:, i].tolist()))
    with open(path, "w") as fh:
        fh.write(_HEADER + "\n")
        fh.write("".join(" ".join(row) + "\n" for row in zip(*columns)))


# -- consistency -------------------------------------------------------------


def corner_jump_deg(mesh, fieldsamples, f, k):
    """Field discontinuity (degrees) across corner k of facet f.

    The border-interpolated angle rotates by nodes[2k+2] - nodes[2k+1]
    across the corner while the border direction itself turns by
    -(180 - beta); whatever rotation remains beyond that turn is the field's
    own jump.  Signs are fixed so that a flat sink (field pointing at the
    vertex on every incident edge) jumps by +beta at each of its corners.
    """
    nodes = fieldsamples.nodes(f)
    corner_rot = nodes[2 * k + 2] - nodes[2 * k + 1]
    beta_deg = math.degrees(mesh.corner_angle(3 * f + k))
    return -corner_rot - (180.0 - beta_deg)


# an index above INDEX_TOL is positive, one within it of 0 is zero
INDEX_TOL = 1e-9


def vertex_index(mesh, fieldsamples, v):
    """Topological index of the field at an interior vertex.

    Sum of the per-corner jumps plus the angle defect, in turns.  Raises
    MeshError for boundary vertices (their index is not defined).
    """
    if mesh.is_boundary_vertex(v):
        raise MeshError(f"vertex index undefined for boundary vertex {v}")
    total_jump = 0.0
    for f, k in mesh.vertex_corners(v):
        total_jump += corner_jump_deg(mesh, fieldsamples, f, k)
    return math.radians(total_jump) / (2.0 * math.pi) + mesh.angle_defect(v) / (
        2.0 * math.pi
    )


def validate(mesh: SurfaceMesh, fieldsamples: FieldSamples) -> list[Violation]:
    """Check cross-facet consistency; returns violations instead of raising.

    Two families of checks:

    * edge continuity: along every interior edge the two facets must sample
      the same directions: endpoint angles congruent after the half-turn flip
      onto the reversed edge, and equal-opposite real rotation along the edge;
    * corner distribution: around every interior vertex the per-corner jump
      divided by the corner angle must agree across corners, which makes the
      jump a single vertex property spread evenly by angle.

    Both checks run on whole arrays.  Edge violations come first, by lower
    halfedge id, then vertex violations, by vertex id.
    """
    if fieldsamples.n_facets != mesh.n_facets:
        raise FieldError("field facet count does not match mesh")
    nodes = fieldsamples._nodes
    violations = []

    # flat index of node 2k of a halfedge's facet; node 2k + 1 follows it
    h, o = mesh.interior_edge_pairs()
    ia, ib = 7 * (h // 3) + 2 * (h % 3), 7 * (o // 3) + 2 * (o % 3)
    flat = nodes.ravel()
    a0, a1, b0, b1 = flat[ia], flat[ia + 1], flat[ib], flat[ib + 1]
    d1 = _circular_gap(b1 - a0 - 180.0)
    d2 = _circular_gap(b0 - a1 - 180.0)
    d3 = np.abs((a1 - a0) + (b1 - b0))
    worst = np.maximum(np.maximum(d1, d2), d3)
    for i in np.nonzero(worst > CONTINUITY_TOL_DEG)[0].tolist():
        u, v = mesh.origin(h[i]), mesh.dest(h[i])
        violations.append(
            Violation(
                kind="edge-continuity",
                where=f"edge ({u}, {v})",
                discrepancy=float(worst[i]),
                edge=(u, v),
            )
        )

    # one jump / beta ratio per corner; corner k sits on facet vertex k + 1
    betas = mesh._betas
    corner_rot = nodes[:, 2::2] - nodes[:, 1::2]
    ratios = (-corner_rot - (180.0 - np.degrees(betas))) / betas
    at = np.roll(mesh.faces, -1, axis=1)
    inner = ~mesh._vertex_on_boundary[at]
    at, ratios = at[inner], ratios[inner]
    hi = np.full(mesh.n_vertices, -np.inf)
    lo = np.full(mesh.n_vertices, np.inf)
    np.maximum.at(hi, at, ratios)
    np.minimum.at(lo, at, ratios)
    spread = hi - lo  # -inf on vertices without an interior corner
    for v in np.nonzero(spread > EVENNESS_TOL)[0].tolist():
        violations.append(
            Violation(
                kind="uneven-corner-distribution",
                where=f"vertex {v}",
                discrepancy=float(spread[v]),
                vertex=v,
            )
        )
    return violations


def _circular_gap(delta_deg):
    """Distance from degree values to the nearest multiple of 360."""
    return np.abs(delta_deg - 360.0 * np.rint(delta_deg / 360.0))


# -- synthesis ----------------------------------------------------------------


def synth_field(mesh, kind, **params) -> FieldSamples:
    """Generate a consistent field on ``mesh``.

    Kinds:

    * ``constant`` -- uniform planar direction; ``angle_deg`` (default 0).
    * ``circular`` -- counterclockwise circulation around ``center``.
    * ``source`` / ``sink`` -- radial flow away from / into ``center``.
    * ``saddle`` -- index -1 saddle at ``center``; ``phase_deg`` rotates
      its separatrices.
    * ``smoothed-random`` -- smooth random field on a closed mesh, with the
      topologically required singularities placed on random vertices;
      ``seed`` (default 0).

    The planar kinds require all facets to lie in the z = 0 plane with
    counterclockwise orientation.  Every generated field passes validate().
    """
    if kind in ("constant", "circular", "source", "sink", "saddle"):
        return _synth_planar(mesh, kind, **params)
    if kind == "smoothed-random":
        return _synth_smoothed_random(mesh, **params)
    raise FieldError(f"unknown field kind {kind!r}")


def _synth_planar(mesh, kind, angle_deg=0.0, center=(0.0, 0.0), phase_deg=0.0):
    p = mesh.vertices
    if np.any(np.abs(p[:, 2]) > 1e-12):
        raise FieldError("planar field kinds require a z = 0 mesh")
    cx, cy = float(center[0]), float(center[1])
    scale = max(mesh.bbox_diagonal(), 1.0)

    if kind == "constant":
        center_index = 0

        def absolute_angle(q):
            return angle_deg

    else:
        spin = -1.0 if kind == "saddle" else 1.0
        offset = {"circular": 90.0, "source": 0.0, "sink": 180.0, "saddle": 0.0}[
            kind
        ] + phase_deg
        center_index = -1 if kind == "saddle" else 1

        def absolute_angle(q):
            return spin * math.degrees(math.atan2(q[1] - cy, q[0] - cx)) + offset

    def eval_point(at, toward):
        # radial kinds are constant along rays from the center, so a sample
        # sitting exactly on the center is evaluated slightly along its edge
        if abs(at[0] - cx) + abs(at[1] - cy) < 1e-12 * scale:
            return (
                at[0] + 0.01 * (toward[0] - at[0]),
                at[1] + 0.01 * (toward[1] - at[1]),
            )
        return at

    def is_center_vertex(q):
        return abs(q[0] - cx) + abs(q[1] - cy) < 1e-12 * scale

    raws = np.empty((mesh.n_facets, 6))
    thetas = np.empty((mesh.n_facets, 6))
    for f in range(mesh.n_facets):
        verts = [p[v] for v in mesh.faces[f]]
        frame = mesh.frame(f)
        if np.cross(frame.u, frame.v)[2] < 0:
            raise FieldError(f"facet {f} is not counterclockwise in the plane")
        raw = raws[f]
        rots = np.empty(3)
        for k in range(3):
            po, pd = verts[k], verts[(k + 1) % 3]
            e_ang = math.degrees(math.atan2(pd[1] - po[1], pd[0] - po[0]))
            ao = absolute_angle(eval_point(po, pd))
            ad = absolute_angle(eval_point(pd, po))
            raw[2 * k] = ao - e_ang
            raw[2 * k + 1] = ad - e_ang
            # an edge that avoids the center subtends less than a half turn
            d = ad - ao
            rots[k] = d - 360.0 * round(d / 360.0)
        theta = thetas[f]
        theta[0] = raw[0] % 360.0
        for k in range(3):
            if k:
                beta_deg = math.degrees(mesh.corner_angle(3 * f + k - 1))
                jump = beta_deg * center_index if is_center_vertex(verts[k]) else 0.0
                theta[2 * k] = theta[2 * k - 1] - jump - (180.0 - beta_deg)
            theta[2 * k + 1] = theta[2 * k] + rots[k]
        beta_deg = math.degrees(mesh.corner_angle(3 * f + 2))
        jump = beta_deg * center_index if is_center_vertex(verts[0]) else 0.0
        closure = theta[5] - jump - (180.0 - beta_deg) - (theta[0] - 360.0)
        if abs(closure) > 1e-6:
            raise FieldError(f"synth closure failed on facet {f}: {closure}")
    angles, windings = _reduce_samples(raws, thetas)
    drift = np.abs(thetas - (angles + 360.0 * windings)) > 1e-6
    if drift.any():
        f, i = np.argwhere(drift)[0]
        raise FieldError(f"synth winding drift on facet {f} sample {i}")
    return FieldSamples(angles, windings)


def _reduce_samples(raw, theta):
    """Angles ``raw`` mod 360 in [0, 360), and the whole turns to ``theta``."""
    # a tiny negative angle mod 360 rounds up to 360.0
    angles = np.mod(raw, 360.0)
    angles[angles >= 360.0] -= 360.0
    return angles, np.rint((theta - angles) / 360.0).astype(np.int64)


# span in degrees of the random potential that turns smoothed-random edges
_RANDOM_AMPLITUDE_DEG = 40.0


def _synth_smoothed_random(mesh, seed=0):
    """Random smooth field on a closed mesh via per-edge rotation solving.

    Unknowns are one real rotation per undirected edge.  Per-corner jumps
    are fixed up front from the chosen singular vertices (spread evenly by
    corner angle), which turns the border closure of every facet into a
    linear equation on its three edge rotations.  The minimum-norm solution
    of that system, plus a smoothed random potential gradient (which lies in
    the system's null space), gives the rotations; sample values are then
    propagated facet to facet over a spanning tree.  On surfaces of nonzero
    genus the propagation can pick up fractional holonomy around handle
    loops, which is repaired with extra loop equations and one more solve.
    """
    from scipy.sparse import csr_matrix, vstack
    from scipy.sparse.linalg import lsqr

    if mesh.n_halfedges > mesh.n_interior_halfedges:
        raise FieldError("smoothed-random fields need a closed mesh")
    rng = np.random.default_rng(seed)
    nf, nv = mesh.n_facets, mesh.n_vertices

    chi = mesh.euler_characteristic()
    singular = {}
    if chi != 0:
        sign = 1 if chi > 0 else -1
        for v in rng.choice(nv, size=abs(chi), replace=False):
            singular[int(v)] = sign

    beta_sums = np.array([mesh.corner_angle_sum(v) for v in range(nv)])
    jumps = np.empty((nf, 3))
    for f in range(nf):
        for k in range(3):
            v = int(mesh.faces[f][(k + 1) % 3])
            beta = mesh.corner_angle(3 * f + k)
            idx = singular.get(v, 0)
            jumps[f, k] = (beta / beta_sums[v]) * 360.0 * (idx - 1) + math.degrees(
                beta
            )

    # canonical halfedge of each undirected edge -> edge column
    edges = mesh.edge_halfedges()
    edge_col = {h: col for col, h in enumerate(edges.tolist())}
    ne = len(edges)

    def edge_of(h):
        e = mesh.canonical_halfedge(h)
        return edge_col[e], 1.0 if e == h else -1.0

    rows, cols, vals = [], [], []
    rhs = np.empty(nf)
    for f in range(nf):
        for k in range(3):
            col, sgn = edge_of(3 * f + k)
            rows.append(f)
            cols.append(col)
            vals.append(sgn)
        # border closure: edge rotations + corner steps -(jump + 180 - beta)
        # must cancel the border's own full turn
        rhs[f] = jumps[f].sum() + 180.0 - sum(
            math.degrees(mesh.corner_angle(3 * f + k)) for k in range(3)
        )
    a_facets = csr_matrix((vals, (rows, cols)), shape=(nf, ne))
    rot = lsqr(a_facets, rhs, atol=1e-14, btol=1e-14)[0]

    # smoothed random potential: its gradient sums to zero around every facet
    g = rng.normal(0.0, 1.0, nv)
    neighbors = [
        [mesh.dest(h) for h in mesh.outgoing_halfedges(v)] for v in range(nv)
    ]
    for _ in range(10):
        g = np.array(
            [
                (g[v] + sum(g[n] for n in neighbors[v])) / (1 + len(neighbors[v]))
                for v in range(nv)
            ]
        )
    spread = g.max() - g.min()
    if spread > 0:
        g *= _RANDOM_AMPLITUDE_DEG / spread
    rot += g[mesh._dest[edges]] - g[mesh._origin[edges]]

    seed_angle = float(rng.uniform(0.0, 360.0))

    def chain_increments(f, rot_vec):
        # node-to-node increments around the border; they sum to zero when
        # the facet equation holds (the wrap node absorbs the full turn)
        inc = np.empty(6)
        for k in range(3):
            col, sgn = edge_of(3 * f + k)
            inc[2 * k] = sgn * rot_vec[col]
            beta_deg = math.degrees(mesh.corner_angle(3 * f + k))
            inc[2 * k + 1] = -jumps[f, k] - (180.0 - beta_deg)
        inc[5] += 360.0
        return inc

    def propagate(rot_vec):
        theta = np.full((nf, 6), np.nan)
        incs = [chain_increments(f, rot_vec) for f in range(nf)]
        anchors = {0: 0}
        parent = {}  # facet -> (parent facet, crossing halfedge in parent)

        def fill(f, node, value):
            th = theta[f]
            th[node] = value
            i = node
            for _ in range(5):
                j = (i + 1) % 6
                th[j] = th[i] + incs[f][i]
                i = j

        fill(0, 0, seed_angle)
        order = [0]
        seen = {0}
        qi = 0
        nontree = []
        while qi < len(order):
            f = order[qi]
            qi += 1
            back = (
                mesh.opposite(parent[f][1]) if f in parent else None
            )
            for k in range(3):
                h = 3 * f + k
                if h == back:
                    continue
                o = mesh.opposite(h)
                gfac = mesh.facet(o)
                if gfac in seen:
                    nontree.append(h)
                    continue
                seen.add(gfac)
                parent[gfac] = (f, h)
                anchors[gfac] = 2 * (o % 3)
                fill(gfac, 2 * (o % 3), theta[f][2 * k + 1] + 180.0)
                order.append(gfac)
        uniq = []
        have = set()
        for h in nontree:
            key = mesh.canonical_halfedge(h)
            if key not in have:
                have.add(key)
                uniq.append(h)
        return theta, parent, anchors, uniq

    def defect(theta, h):
        o = mesh.opposite(h)
        f, gfac = mesh.facet(h), mesh.facet(o)
        return theta[gfac][2 * (o % 3)] - (theta[f][2 * (h % 3) + 1] + 180.0)

    # Non-tree edges may disagree by whole turns: harmless, the two facets
    # just sit on different branches of the angle (continuity is a mod-360
    # property).  A fractional disagreement is real holonomy around a handle
    # loop; only that part gets repaired, by extra loop equations.  Whole
    # turns cannot be repaired anyway: around a sphere every loop equation
    # is a combination of facet equations, so the turns are pinned.
    theta, parent, anchors, nontree = propagate(rot)
    bad = [h for h in nontree if _circular_gap(defect(theta, h)) > 1e-7]
    if bad:
        loop_rows = []
        targets = []
        for h in bad:
            row = _defect_row(mesh, parent, anchors, h, edge_of, ne)
            d = defect(theta, h)
            loop_rows.append(row)
            targets.append(float(row @ rot) + 360.0 * round(d / 360.0) - d)
        a_full = vstack([a_facets, csr_matrix(np.array(loop_rows))])
        rhs_full = np.concatenate([rhs, np.array(targets)])
        rot = lsqr(a_full, rhs_full, atol=1e-14, btol=1e-14)[0]
        theta, parent, anchors, nontree = propagate(rot)

    for h in nontree:
        if _circular_gap(defect(theta, h)) > 1e-5:
            raise FieldError("random field propagation failed to close")

    return FieldSamples(*_reduce_samples(theta, theta))


def _defect_row(mesh, parent, anchors, nontree_h, edge_of, ne):
    """Edge-rotation coefficients of one propagation defect.

    The defect at a non-tree dual edge compares values propagated to its two
    facets through the spanning tree.  As a function of the edge rotations it
    is the difference of two border-walk sums, one per tree path.  Forward
    walks around a whole facet border differ from zero only by that facet's
    closure equation, which is part of every solve, so forward walks give a
    valid representative row.
    """
    row = np.zeros(ne)

    def add_walk(f, node_a, node_b, sign):
        i = node_a
        while i != node_b:
            if i % 2 == 0:  # node 2k -> 2k+1 runs along edge k
                col, sgn = edge_of(3 * f + i // 2)
                row[col] += sign * sgn
            i = (i + 1) % 6

    def add_path(f, final_node, sign):
        add_walk(f, anchors[f], final_node, sign)
        while f in parent:
            pf, ph = parent[f]
            add_walk(pf, anchors[pf], 2 * (ph % 3) + 1, sign)
            f = pf

    o = mesh.opposite(nontree_h)
    add_path(mesh.facet(o), 2 * (o % 3), 1.0)
    add_path(mesh.facet(nontree_h), 2 * (nontree_h % 3) + 1, -1.0)
    return row
