"""Streamline tracing over decomposed facets.

A streamline is advanced one facet at a time: the entry point is imported
into the facet's stream mesh, carried across simple faces by flux ratio
(hopping chords between faces as needed), and exported back to a mesh
border point.  No step size exists anywhere; a crossing is one closed-form
evaluation per simple face traversed.

Crossings of two traced lines inside a facet are impossible by construction
(each simple face maps the inflow interval monotonically onto the outflow
interval); ``check_crossings`` verifies that property on traced output.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from . import flux, stream_mesh
from .errors import StreamMeshError, TraceError
from .field import vertex_index
from .mesh import TracePoint
from .stream_mesh import Behavior

ORBIT_TOL = 1e-9

# the pieces a line enters a facet on, per trace direction; it leaves the
# facet on the run of the other flow
_ENTRY = {"forward": Behavior.IN, "backward": Behavior.OUT}


@dataclass(frozen=True)
class Seed:
    """A trace start: a border point, or a vertex with a chosen corner sector."""

    point: TracePoint
    direction: str = "forward"
    corner_entry: tuple | None = None  # (facet, corner k, corner parameter)

    def __post_init__(self):
        if self.direction not in _ENTRY:
            raise TraceError(f"unknown trace direction {self.direction!r}")


class Polyline:
    """Traced streamline: border points in order plus the termination cause.

    ``positions[i]`` is the world position of ``points[i]``.  ``Tracer.trace``
    records the points only and fills ``positions`` from one
    ``SurfaceMesh.positions`` call when the line ends; ``append`` adds one
    point with its position, as RK4 lines and ``from_record`` do.
    ``rk4_steps`` counts the integration steps of an RK4 reference line; it
    stays 0 on stream-traced lines, which take none.
    """

    def __init__(self, seed):
        self.seed = seed
        self.points: list[TracePoint] = []
        self.positions: list[np.ndarray] = []
        self.termination = None
        self.sink_vertex = None
        self.rk4_steps = 0

    def append(self, tp, pos):
        self.points.append(tp)
        self.positions.append(np.asarray(pos, dtype=float))

    def __len__(self):
        return len(self.points)

    def to_record(self):
        return {
            "seed": {
                "halfedge": self.seed.point.halfedge,
                "c": self.seed.point.c,
                "direction": self.seed.direction,
            },
            "termination": self.termination,
            "sink_vertex": self.sink_vertex,
            "points": [[tp.halfedge, tp.c] for tp in self.points],
            "positions": [[float(x) for x in p] for p in self.positions],
        }

    @classmethod
    def from_record(cls, rec):
        """Inverse of ``to_record``; a malformed record raises ValueError."""
        try:
            s = rec["seed"]
            point = _record_point(s["halfedge"], s["c"])
            pl = cls(Seed(point, s.get("direction", "forward")))
            pl.termination = rec["termination"]
            pl.sink_vertex = rec.get("sink_vertex")
            for (h, c), pos in zip(rec["points"], rec["positions"], strict=True):
                pl.append(_record_point(h, c), pos)
        except KeyError as exc:
            raise ValueError(f"polyline record lacks {exc}") from None
        except (TraceError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed polyline record: {exc}") from None
        return pl


def _record_point(h, c):
    if type(h) is not int or type(c) not in (int, float):
        raise ValueError(f"{[h, c]!r} is not a [halfedge, c] pair")
    return TracePoint(h, c)


def save_polylines(path, polylines):
    with open(path, "w") as fh:
        for pl in polylines:
            fh.write(json.dumps(pl.to_record()) + "\n")


def load_polylines(path):
    """Read ``save_polylines`` output; a malformed line raises ValueError."""
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    out.append(Polyline.from_record(json.loads(line)))
                except ValueError as exc:
                    raise ValueError(f"{path} line {lineno}: {exc}") from None
    return out


class Tracer:
    """Holds one stream mesh per facet, shared by both trace directions."""

    def __init__(self, mesh, fieldsamples, max_steps=None):
        if max_steps is None:
            max_steps = 100 * mesh.n_facets
        elif not (isinstance(max_steps, int) and max_steps >= 1):
            raise ValueError(f"max_steps must be an int of at least 1, got {max_steps!r}")
        self.mesh = mesh
        self.fieldsamples = fieldsamples
        self.max_steps = max_steps
        self._cache = {}

    def stream_mesh(self, facet):
        sm = self._cache.get(facet)
        if sm is None:
            sm = stream_mesh.decompose(self.mesh, self.fieldsamples, facet)
            self._cache[facet] = sm
        return sm

    # -- facet crossing ------------------------------------------------------

    def cross_facet(self, sm, sh, c, enter=Behavior.IN):
        """Carry an entry (piece, c) to the exit border piece of the facet.

        Each simple face preserves the flux fraction: the exit splits the
        exit run's total in the same ratio the entry splits the entry run's
        total, measured from the shared bounding tangency.  A forward line
        enters on the inflow run and leaves on the outflow run; a backward
        line does the reverse, which is the inverse map.  Chord exits
        hop into the neighboring simple face with the parameter reversed.
        """
        leave = Behavior.OUT if enter == Behavior.IN else Behavior.IN
        hops = 0
        while True:
            runs = sm.face_runs(sh.face)
            rin = runs[enter]
            rout = runs[leave]
            xin = flux.accumulate(rin, sh, c)
            ratio = min(1.0, max(0.0, xin / rin.total))
            out_sh, c_out = flux.locate(rout, rout.total * (1.0 - ratio))
            if out_sh.kind != "chord":
                return out_sh, c_out
            sh, c = out_sh.opp, 1.0 - c_out
            hops += 1
            if hops > len(sm.faces) + 1:
                raise TraceError(
                    f"facet {sm.facet}: chord hopping failed to reach the border"
                )

    # -- the main loop ---------------------------------------------------------

    def trace(self, seed) -> Polyline:
        """Trace one streamline from ``seed`` until it terminates.

        Every step crosses a facet from an entry (stream mesh, piece, local
        c): the seed's, then the one across the exit edge, or after an exit
        exactly at a vertex the one ``_pivot_at_vertex`` finds.  The points
        are recorded as the line goes; their positions are computed once,
        when it ends.
        """
        pl = Polyline(seed)
        pl.points.append(seed.point)
        self._walk(pl, _ENTRY[seed.direction])
        pl.positions = list(self.mesh.positions(pl.points))
        return pl

    def _walk(self, pl, enter):
        """Append the exits of ``pl`` to its points and set its termination.

        A line closes an orbit when it leaves through a halfedge within
        ``ORBIT_TOL`` of an earlier exit there; each halfedge's exits are
        kept sorted, so only the two neighbours of a new exit are compared.
        """
        mesh = self.mesh
        seed = pl.seed
        points = pl.points
        if seed.corner_entry is not None:
            f, k, t = seed.corner_entry
            sm = self.stream_mesh(f)
            entry = (sm, *sm.corner_entry(k, t, enter))
        else:
            entry = self._edge_seed_entry(seed.point, enter)

        visited = {}  # halfedge -> sorted exit parameters
        pivot_vertex, pivot_count = None, 0
        steps = 0
        while True:
            sm, sh, csm = entry
            out_sh, c_out = self.cross_facet(sm, sh, csm, enter)
            tp = sm.export_position(out_sh, c_out)
            points.append(tp)
            h_exit, c_exit = tp.halfedge, tp.c

            if c_exit > 1.0:
                pl.termination = "sink-vertex"
                pl.sink_vertex = mesh.dest(h_exit)
                return

            seen = visited.get(h_exit)
            if seen is None:
                visited[h_exit] = [c_exit]
            else:
                i = bisect_left(seen, c_exit)
                if (i and c_exit - seen[i - 1] <= ORBIT_TOL) or (
                    i < len(seen) and seen[i] - c_exit <= ORBIT_TOL
                ):
                    pl.termination = "closed-orbit"
                    return
                seen.insert(i, c_exit)

            steps += 1
            if steps >= self.max_steps:
                pl.termination = "step-cap"
                return

            if not mesh.has_facet(h_exit):
                # export flipped the point outward: surface boundary reached
                pl.termination = "boundary"
                return

            if c_exit == 0.0 or c_exit == 1.0:
                # the exit facet's halfedge that leaves the vertex
                o = h_exit if c_exit == 0.0 else mesh.next(h_exit)
                v = mesh.origin(o)
                pivot_count = pivot_count + 1 if v == pivot_vertex else 1
                pivot_vertex = v
                if pivot_count > mesh.vertex_valence(v):
                    self._stop_at_vertex(pl, v)
                    return
                entry = self._pivot_at_vertex(pl, o, enter)
                if entry is None:
                    return
            else:
                pivot_vertex, pivot_count = None, 0
                h = mesh.opposite(h_exit)
                sm = self.stream_mesh(mesh.facet(h))
                entry = (sm, *sm.import_position(h, 1.0 - c_exit, enter))

    def _edge_seed_entry(self, tp, enter):
        """Entry from the facet of ``tp.halfedge``, else from the one across.

        A seed may sit on the downstream side of its edge.  Raises the last
        ``StreamMeshError`` when neither facet takes the line.
        """
        mesh = self.mesh
        error = TraceError("seed halfedge bounds no facet")
        for h, c in ((tp.halfedge, tp.c), (mesh.opposite(tp.halfedge), 1.0 - tp.c)):
            if mesh.has_facet(h):
                sm = self.stream_mesh(mesh.facet(h))
                try:
                    return (sm, *sm.import_position(h, c, enter))
                except StreamMeshError as exc:
                    error = exc
        raise error

    def _stop_at_vertex(self, pl, v):
        """Label a line that cannot leave vertex v.

        An interior vertex of positive index is a sink (a source, traced
        backward) the line has reached through an edge end; anywhere else
        the flow stalls.
        """
        mesh = self.mesh
        if (
            not mesh.is_boundary_vertex(v)
            and vertex_index(mesh, self.fieldsamples, v) > 1e-9
        ):
            pl.termination = "sink-vertex"
            pl.sink_vertex = v
        else:
            pl.termination = "vertex-stall"

    def _pivot_at_vertex(self, pl, o, enter):
        """Entry for a line that left its facet at ``origin(o)``, or None.

        ``o`` is the exit facet's halfedge leaving the vertex.  The vertex
        end of each edge is tried in fan order, from the next facet round to
        the exit facet.  None comes with the line labelled: ``boundary`` at
        the surface boundary, else through ``_stop_at_vertex``.
        """
        mesh = self.mesh
        for e in mesh.fan(mesh.opposite(mesh.prev(o))):
            if not mesh.has_facet(e):
                pl.termination = "boundary"
                return None
            sm = self.stream_mesh(mesh.facet(e))
            try:
                return (sm, *sm.import_position(e, 0.0, enter))
            except StreamMeshError:
                pass
        self._stop_at_vertex(pl, mesh.origin(o))
        return None


# -- separatrix seeding ---------------------------------------------------------


def _fan_corners(mesh, v):
    """(facet, corner k) pairs around an interior vertex, in fan order."""
    h0 = next((h for h in mesh.outgoing_halfedges(v) if mesh.has_facet(h)), None)
    if h0 is None:
        raise TraceError(f"vertex {v} has no incident facet")
    out = []
    for h in mesh.fan(h0):
        if not mesh.has_facet(h):
            raise TraceError(f"vertex {v} is on the boundary")
        out.append((mesh.facet(h), (h % 3 + 2) % 3))
    return out


def seed_from_vertex(mesh, fieldsamples, v, direction="forward"):
    """Separatrix seeds at a vertex: one per direction the field leaves it.

    Within corner k of a facet the field angle relative to the rotating
    border direction interpolates linearly, while the outward radial
    direction sits at 180 (1 - t) relative to the same reference; their
    alignment roots are the directions a streamline can leave the vertex.
    A positive-index vertex emits streamlines in every direction, which has
    no finite seed set, so it is refused.
    """
    if direction not in _ENTRY:
        raise TraceError(f"unknown trace direction {direction!r}")
    idx = vertex_index(mesh, fieldsamples, v)
    if idx > 1e-9:
        raise TraceError(
            f"vertex {v} has positive index {idx:.3f}: "
            "its separatrix family is infinite"
        )
    corners = _fan_corners(mesh, v)
    events = []  # (fan position, facet, corner k, t)
    for fan_i, (f, k) in enumerate(corners):
        nodes = fieldsamples.nodes(f)
        b0 = nodes[2 * k + 1]
        b1 = nodes[2 * k + 2]
        slope = (b1 - b0) + 180.0
        # the reverse field is the field turned a half turn; adding it to
        # the samples would round, so the offset is folded in here instead
        g0 = b0 - 180.0 if direction == "forward" else b0
        if slope == 0.0:
            if g0 % 360.0 == 0.0:
                raise TraceError(
                    f"field is radial across a whole corner of vertex {v}"
                )
            continue
        lo, hi = sorted((g0, g0 + slope))
        # pad the level window: a root exactly on a corner end can fall one
        # ulp outside it, the t check below still rejects real outsiders
        m0 = math.ceil(lo / 360.0 - 1e-9)
        m1 = math.floor(hi / 360.0 + 1e-9)
        for m in range(m0, m1 + 1):
            t = (360.0 * m - g0) / slope
            if -1e-9 <= t <= 1.0 + 1e-9:
                t = min(1.0, max(0.0, t))
                # the fan walk runs against in-corner t: the t = 0 end of
                # one corner is the t = 1 end of the next
                events.append((fan_i + (1.0 - t), f, k, t))
    events.sort()
    seeds = []
    n = len(corners)
    for pos, f, k, t in events:
        if seeds and pos - seeds[-1][0] <= 1e-9:
            continue
        seeds.append((pos, f, k, t))
    # wraparound duplicate: last event at fan end == first at fan start
    if len(seeds) > 1 and (seeds[0][0] + n) - seeds[-1][0] <= 1e-9:
        seeds.pop()
    return [
        Seed(TracePoint(3 * f + k, 1.0), direction, corner_entry=(f, k, t))
        for _, f, k, t in seeds
    ]


# -- crossing verification ------------------------------------------------------


@dataclass(frozen=True)
class CrossingViolation:
    facet: int
    line_a: int
    segment_a: int
    line_b: int
    segment_b: int

    def __str__(self):
        return (
            f"facet {self.facet}: line {self.line_a} segment {self.segment_a} "
            f"crosses line {self.line_b} segment {self.segment_b}"
        )


def _border_key(mesh, facet, tp):
    """Map a trace point on the facet border to its key in [0, 3].

    Edge k covers [k, k + 1], so vertex 0 reads as 0.0 or as 3.0.
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


def _same_point(p, q):
    """True when two border keys lie within 1e-12 around the facet border."""
    d = abs(p - q)
    return d <= 1e-12 or 3.0 - d <= 1e-12


def check_crossings(mesh, polylines):
    """Pairwise interleaving test of traced segments inside each facet.

    Cut open at vertex 0, a facet border is the interval [0, 3] of
    ``_border_key``, and each segment is stored once as its sorted keys
    ``(lo, hi)``.  Two segments cross when exactly one endpoint of the
    second lies strictly inside ``(lo, hi)`` of the first.  Segments sharing
    an endpoint are tangential meetings and are allowed: two keys are one
    point when their gap d is at most 1e-12, or when 3 - d is (vertex 0
    reads as 0.0 or as 3.0).  Returns the violations found (empty when the
    no-crossing guarantee holds).
    """
    by_facet = defaultdict(list)
    for li, pl in enumerate(polylines):
        pts = pl.points
        for si in range(len(pts) - 1):
            tp_a, tp_b = pts[si], pts[si + 1]
            f = mesh.facet(tp_b.halfedge)
            if f is None:
                f = mesh.facet(mesh.opposite(tp_b.halfedge))
            ka = _border_key(mesh, f, tp_a)
            kb = _border_key(mesh, f, tp_b)
            if ka == kb:
                continue
            lo, hi = (ka, kb) if ka < kb else (kb, ka)
            by_facet[f].append((lo, hi, li, si))
    violations = []
    for f, segs in by_facet.items():
        for i, (lo1, hi1, l1, s1) in enumerate(segs):
            for lo2, hi2, l2, s2 in segs[i + 1:]:
                if (lo1 < lo2 < hi1) == (lo1 < hi2 < hi1):
                    continue
                if (
                    _same_point(lo1, lo2)
                    or _same_point(lo1, hi2)
                    or _same_point(hi1, lo2)
                    or _same_point(hi1, hi2)
                ):
                    continue
                violations.append(CrossingViolation(f, l1, s1, l2, s2))
    return violations
