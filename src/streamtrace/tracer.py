"""Streamline tracing over decomposed facets.

A streamline is advanced one facet at a time: it enters the facet's stream
mesh as a row and a flux offset into it, is carried across simple faces by
flux ratio (hopping chords to their twin rows as needed), and its exit is
recorded as a mesh border point.  The exit row's offset carries over to the
mirror row of the facet across, so only a seed or a vertex pivot, given in
c, is imported.  No step size exists anywhere; a crossing is one
closed-form evaluation per simple face traversed, on the stream mesh's flat
rows.

Crossings of two traced lines inside a facet are impossible by construction
(each simple face maps the inflow interval monotonically onto the outflow
interval); ``check_crossings`` verifies that property on traced output.  It
reads every segment as an interval of the facet border and flags the facets
where two intervals interleave from one sort of the intervals' open and
close events over the whole table, keyed by exact integers: O(k log k) for
k segments, with no Python loop over them.  Only flagged facets are
compared pair by pair, under the shared-endpoint tolerance.
"""

from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import flux, stream_mesh
from .errors import StreamMeshError, TraceError
from .field import INDEX_TOL, vertex_index
from .mesh import TracePoint
from .stream_mesh import IN, OUT, TF

ORBIT_TOL = 1e-9

# the behavior code of the pieces a line enters a facet on, per trace
# direction; it leaves the facet on the run of the other flow, code ^ 1
_ENTRY = {"forward": IN, "backward": OUT}

# the positions of every line before its own are set: shared, as it holds no element
_NO_POSITIONS = np.empty((0, 3))


@dataclass(frozen=True)
class Seed:
    """A trace start: a border point, or a vertex with a chosen corner sector."""

    point: TracePoint
    direction: str = "forward"
    corner: float | None = None  # t in corner k of facet f, at point (3 f + k, 1.0)

    def __post_init__(self):
        if self.direction not in _ENTRY:
            raise TraceError(f"unknown trace direction {self.direction!r}")
        if not 0.0 <= self.point.c <= 1.0:
            raise TraceError(f"seed point {self.point} is not on its edge")


class Polyline:
    """Traced streamline: border points in order plus the termination cause.

    The points are two columns of equal length, ``halfedges`` (ints) and
    ``cs`` (their parameters): point i is ``(halfedges[i], cs[i])``.  The
    trace appends one pair per exit and builds no point object.
    ``points`` is a read view, a fresh list of ``TracePoint`` on each read.

    ``positions`` is an ``(n, 3)`` array, row i the world position of point
    i: traced lines set it from one ``SurfaceMesh.positions_of`` call when
    they end, ``append`` adds a point and its row to a line built by hand.
    A record holds the points only, so a line read back by ``from_record``
    has None there; ``positions_of(halfedges, cs)`` gives the rows bit for
    bit.  ``rk4_steps`` counts an RK4 line's integration steps; 0 on stream
    lines.
    """

    def __init__(self, seed):
        self.seed = seed
        self.halfedges: list[int] = []
        self.cs: list[float] = []
        self.positions = _NO_POSITIONS
        self.termination = None
        self.sink_vertex = None
        self.rk4_steps = 0

    @property
    def points(self) -> list[TracePoint]:
        return list(map(TracePoint, self.halfedges, self.cs))

    def append(self, tp, pos):
        row = np.asarray(pos, dtype=float)
        if row.shape != (3,):
            raise ValueError(f"position {pos!r} is not 3 numbers")
        h, c = tp
        self.halfedges.append(h)
        self.cs.append(c)
        self.positions = np.vstack([self.positions, row])

    def __len__(self):
        return len(self.halfedges)

    def to_record(self):
        seed = {
            "halfedge": self.seed.point.halfedge,
            "c": self.seed.point.c,
            "direction": self.seed.direction,
        }
        if self.seed.corner is not None:
            seed["corner"] = self.seed.corner
        return {
            "seed": seed,
            "termination": self.termination,
            "sink_vertex": self.sink_vertex,
            "points": list(map(list, zip(self.halfedges, self.cs))),
        }

    @classmethod
    def from_record(cls, rec):
        """Inverse of ``to_record``, with ``positions`` None.

        A record it would not write raises ValueError; keys it does not
        write, such as the ``positions`` of older files, are ignored.
        """
        try:
            s = rec["seed"]
            h, c, corner = s["halfedge"], s["c"], s.get("corner")
            _check_pair(h, c)
            if "corner" in s and not (type(corner) in (int, float) and 0.0 <= corner <= 1.0):
                raise ValueError(f"seed corner {corner!r} is not a number in [0, 1]")
            pl = cls(Seed(TracePoint(h, c), s["direction"], corner))
            pl.termination = rec["termination"]
            pl.sink_vertex = rec["sink_vertex"]
            hs, cs = pl.halfedges, pl.cs
            for h, c in rec["points"]:
                _check_pair(h, c)
                hs.append(h)
                cs.append(c)
            pl.positions = None
        except KeyError as exc:
            raise ValueError(f"polyline record lacks {exc}") from None
        except (TraceError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed polyline record: {exc}") from None
        return pl


def _check_pair(h, c):
    if type(h) is not int or type(c) not in (int, float):
        raise ValueError(f"{[h, c]!r} is not a [halfedge, c] pair")


def save_polylines(path, polylines):
    """Write one ``to_record`` JSON object per line: points, no positions."""
    with open(path, "w") as fh:
        for pl in polylines:
            fh.write(json.dumps(pl.to_record()) + "\n")


def load_polylines(path):
    """Read ``save_polylines`` output; a malformed line raises ValueError.

    A line nested too deeply for the JSON decoder is malformed too.  The
    lines' ``positions`` are None: ``SurfaceMesh.positions_of(pl.halfedges,
    pl.cs)`` on the traced mesh gives them.
    """
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    out.append(Polyline.from_record(json.loads(line)))
                except (RecursionError, ValueError) as exc:
                    raise ValueError(f"{path} line {lineno}: {exc}") from None
    return out


class Tracer:
    """Holds one stream mesh per facet, shared by both trace directions.

    Facet borders are cut into ``borders`` a block at a time, when a line
    first reaches a facet of the block; a facet's stream mesh is decomposed
    from its rows when a line first reaches the facet, and a vertex's index,
    or that no facet takes a line from it, when a line first needs it.
    """

    def __init__(self, mesh, fieldsamples, max_steps=None):
        if max_steps is None:
            max_steps = 100 * mesh.n_facets
        elif not (isinstance(max_steps, int) and max_steps >= 1):
            raise ValueError(f"max_steps must be an int of at least 1, got {max_steps!r}")
        self.mesh = mesh
        self.fieldsamples = fieldsamples
        self.max_steps = max_steps
        self.borders = stream_mesh.BorderTable(mesh, fieldsamples)
        self._cache = {}
        self._index = {}  # vertex -> vertex_index, of the vertices lines stopped at
        self._stuck = set()  # (vertex, entry code) no facet takes a line from

    def stream_mesh(self, facet):
        sm = self._cache.get(facet)
        if sm is None:
            sm = stream_mesh.decompose(self.borders, facet)
            self._cache[facet] = sm
        return sm

    # -- facet crossing ------------------------------------------------------

    def cross_facet(self, sm, r, x):
        """Carry an entry (row, flux offset) to the exit border row of the facet.

        Returns the exit ``(row, c, offset)``.  Each simple face preserves
        the flux fraction: the exit splits the exit run's total in the same
        ratio the entry splits the entry run's total, measured from the
        shared bounding tangency.  The entry row's run is the direction: a
        forward line enters on an inflow run and leaves on the outflow run
        of the same face, a backward line the reverse (the inverse map).
        Chord exits hop to the twin row, in the neighboring simple face,
        whose offset is measured from the other end: its total less the
        exit's.
        """
        run, prefix, twin, total = sm.run, sm.run_prefix, sm.twin, sm.total
        hops = 0
        while True:
            rin = run[r]
            rout = rin ^ 1
            ratio = flux.accumulate(sm, r, x) / prefix[rin][-1]
            # min(1.0, max(0.0, ratio)), 0.0 for a nan
            ratio = (1.0 if ratio > 1.0 else ratio) if ratio > 0.0 else 0.0
            out, c_out, rem = flux.locate(sm, rout, prefix[rout][-1] * (1.0 - ratio))
            if out not in twin:
                return out, c_out, rem
            r = twin[out]
            x = total[r] - rem
            hops += 1
            if hops > len(prefix) // 2 + 1:
                raise TraceError(
                    f"facet {sm.facet}: chord hopping failed to reach the border"
                )

    # -- the main loop ---------------------------------------------------------

    def trace(self, seed) -> Polyline:
        """Trace one streamline from ``seed`` until it terminates.

        Every step crosses a facet from an entry (stream mesh, row, flux
        offset): the seed's, then the mirror of the exit row across the exit
        edge, or after an exit exactly at a vertex the one
        ``_pivot_at_vertex`` finds.  The points
        are recorded in the line's two columns as it goes; their positions
        are computed once, when it ends.
        """
        pl = Polyline(seed)
        h, c = seed.point
        pl.halfedges.append(h)
        pl.cs.append(c)
        self._walk(pl, _ENTRY[seed.direction])
        pl.positions = self.mesh.positions_of(pl.halfedges, pl.cs)
        return pl

    def _walk(self, pl, enter):
        """Append the exits of ``pl`` to its columns and set its termination.

        A line closes an orbit when it leaves through a halfedge within
        ``ORBIT_TOL`` of an earlier exit there; each halfedge's exits are
        kept sorted, so only the two neighbours of a new exit are compared.

        A line carries its flux offset across an edge: the exit row's
        mirror in the facet across holds the same piece reversed, so the
        entry offset is the mirror's total less the exit's.  The mirror is
        found by counting flow rows, whose pieces both sides cut alike: the
        exit row's j-th flow row from the start of its edge element is the
        j-th from the end of the element across.  Tangent rows, which a
        split or a junction may add on one side only, are passed over.
        """
        mesh = self.mesh
        opposite, facet_of = mesh._opposite_list, mesh._facet_list
        seed = pl.seed
        halfedges, cs = pl.halfedges, pl.cs
        if seed.corner is not None:
            f, k = divmod(seed.point.halfedge, 3)
            sm = self.stream_mesh(f)
            r, csm = sm.corner_entry(k, seed.corner, enter)
        else:
            sm, r, csm = self._edge_seed_entry(seed.point, enter)
        x = flux.offset(sm, r, csm)

        visited = {}  # halfedge -> sorted exit parameters
        pivot_vertex, pivot_count = None, 0
        while True:
            out, c_out, rem = self.cross_facet(sm, r, x)
            h_exit, c_exit = sm.export_position(out, c_out)
            halfedges.append(h_exit)
            cs.append(c_exit)

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

            # the seed and one exit per crossing
            if len(cs) > self.max_steps:
                pl.termination = "step-cap"
                return

            if facet_of[h_exit] < 0:
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
                sm, r, csm = entry
                x = flux.offset(sm, r, csm)
            else:
                pivot_vertex, pivot_count = None, 0
                code = sm.code
                j = 0  # flow rows before the exit row on its element
                for q in range(sm.elements[code[out] & 7], out):
                    if code[q] >> 3 & 3 < TF:
                        j += 1
                h = opposite[h_exit]
                sm = self.stream_mesh(facet_of[h])
                code = sm.code
                # the mirror: the j-th flow row from the end of the element across
                r = sm.elements[2 * (h % 3) + 1]
                while True:
                    r -= 1
                    if code[r] >> 3 & 3 < TF:
                        if not j:
                            break
                        j -= 1
                x = sm.total[r] - rem

    def _edge_seed_entry(self, tp, enter):
        """Entry from the facet of ``tp.halfedge``, else from the one across.

        A seed may sit on the downstream side of its edge.  Raises the last
        ``StreamMeshError`` when neither facet takes the line.  The error is
        kept without its traceback, whose frame would hold the error and
        ``self`` in a reference cycle.
        """
        mesh = self.mesh
        error = TraceError("seed halfedge bounds no facet")
        for h, c in ((tp.halfedge, tp.c), (mesh.opposite(tp.halfedge), 1.0 - tp.c)):
            if mesh.has_facet(h):
                try:
                    sm = self.stream_mesh(mesh.facet(h))
                    return sm, *sm.import_position(h, c, enter)
                except StreamMeshError as exc:
                    error = exc.with_traceback(None)
        raise error

    def _stop_at_vertex(self, pl, v):
        """Label a line that cannot leave vertex v.

        An interior vertex of positive index is a sink (a source, traced
        backward) the line has reached through an edge end; anywhere else
        the flow stalls.
        """
        if not self.mesh.is_boundary_vertex(v):
            index = self._index.get(v)
            if index is None:
                index = self._index[v] = vertex_index(self.mesh, self.fieldsamples, v)
            if index > INDEX_TOL:
                pl.termination = "sink-vertex"
                pl.sink_vertex = v
                return
        pl.termination = "vertex-stall"

    def _pivot_at_vertex(self, pl, o, enter):
        """Entry for a line that left its facet at ``origin(o)``, or None.

        ``o`` is the exit facet's halfedge leaving the vertex.  The vertex
        end of each edge is tried in fan order, from the next facet round to
        the exit facet, across the gap at a boundary vertex, by ``entry``
        (None where ``import_position`` raises), past facets that cannot be
        decomposed.  That none takes the line depends on v and ``enter``
        alone, so it is found once.  None comes with the line labelled:
        ``boundary`` at a boundary vertex, else by ``_stop_at_vertex``.
        """
        mesh = self.mesh
        v = mesh.origin(o)
        if (v, enter) not in self._stuck:
            for e in mesh.fan(mesh.opposite(mesh.prev(o))):
                if not mesh.has_facet(e):
                    continue
                try:
                    sm = self.stream_mesh(mesh.facet(e))
                except StreamMeshError:
                    continue
                entry = sm.entry(2 * (e % 3), 0.0, enter)
                if entry is not None:
                    return sm, *entry
            self._stuck.add((v, enter))
        if mesh.is_boundary_vertex(v):
            pl.termination = "boundary"
        else:
            self._stop_at_vertex(pl, v)
        return None


# -- separatrix seeding ---------------------------------------------------------


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
    if idx > INDEX_TOL:
        raise TraceError(
            f"vertex {v} has positive index {idx:.3f}: "
            "its separatrix family is infinite"
        )
    # vertex_index refused a boundary vertex, so every fan halfedge has a
    # facet; the corner at v of halfedge h's facet is the one before edge h
    fan = list(mesh.fan(mesh.outgoing_halfedges(v)[0]))
    events = []  # (fan position, facet, corner k, t)
    for fan_i, h in enumerate(fan):
        f, k = mesh.facet(h), (h % 3 + 2) % 3
        nodes = fieldsamples.nodes[f]
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
    n = len(fan)
    for pos, f, k, t in events:
        if seeds and pos - seeds[-1][0] <= 1e-9:
            continue
        seeds.append((pos, f, k, t))
    # wraparound duplicate: last event at fan end == first at fan start
    if len(seeds) > 1 and (seeds[0][0] + n) - seeds[-1][0] <= 1e-9:
        seeds.pop()
    return [Seed(TracePoint(3 * f + k, 1.0), direction, corner=t) for _, f, k, t in seeds]


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


def _same_point(p, q):
    """True when two border keys lie within 1e-12 around the facet border."""
    d = abs(p - q)
    return d <= 1e-12 or 3.0 - d <= 1e-12


def check_crossings(mesh, polylines):
    """Traced segments that cross inside a facet, found from one event sort.

    Cut open at vertex 0, a facet border is the interval [0, 3] of
    ``_border_keys``, and each segment is stored once as its sorted keys
    ``(lo, hi)``.  Two segments cross when exactly one endpoint of the
    second lies strictly inside ``(lo, hi)`` of the first.  Segments sharing
    an endpoint are tangential meetings and are allowed: two keys are one
    point when their gap d is at most 1e-12, or when 3 - d is (vertex 0
    reads as 0.0 or as 3.0).

    Chords of a convex facet cross only when their intervals interleave, so
    ``_interleaving_facets`` flags the facets holding two interleaving
    intervals, from one sort of every interval's open and close events:
    O(k log k) for k segments.  A facet it passes holds no violation.  Only
    flagged facets go through the pairwise scan, which applies the
    shared-endpoint rule; facets come in the order of their first segment
    and pairs in (line, segment) order, so permuting the lines permutes
    the line ids and changes nothing else.  Returns the violations found
    (empty when the no-crossing guarantee holds).
    """
    facet, lo, hi, line, seg = _segment_intervals(mesh, polylines)
    flagged = _interleaving_facets(facet, lo, hi)
    by_facet = defaultdict(list)
    picked = np.nonzero(np.isin(facet, list(flagged)))[0]
    for f, a, b, li, si in zip(
        *(col[picked].tolist() for col in (facet, lo, hi, line, seg))
    ):
        by_facet[f].append((a, b, li, si))
    violations = []
    for f, segs in by_facet.items():
        violations += _pairwise_crossings(f, segs)
    return violations


def _segment_intervals(mesh, polylines):
    """``(facet, lo, hi, line, segment)`` arrays, one row per segment.

    A point off the mesh (a halfedge that is no integer or lies outside the
    table, a c that is no real number or lies outside [0, 2]) raises
    ``TraceError``, the first in (line, point) order; only a table that
    holds one is read again, point by point, to name it.  Rows come in
    (line, segment) order and leave out segments whose ends share a key.
    A segment's facet is its end point's, or the one across when that point
    is on an outward boundary halfedge, so only a start can be a vertex
    pivot or touch no facet.  The first start in segment order that touches
    no facet raises its ``TraceError``.
    """
    fac, opp, _, _ = mesh.halfedge_tables()
    try:
        h, c = _columns(
            chain.from_iterable(pl.halfedges for pl in polylines),
            chain.from_iterable(pl.cs for pl in polylines),
        )
        on_mesh = ((h >= 0) & (h < len(fac)) & (c >= 0.0) & (c <= 2.0)).all()
    except (TypeError, OverflowError):
        on_mesh = False
    if not on_mesh:
        _refuse_points_off_the_mesh(polylines, len(fac))
    counts = np.array([len(pl) for pl in polylines], dtype=np.int64)
    first = np.cumsum(counts) - counts  # index of each line's first point
    n_seg = np.maximum(counts - 1, 0)
    line = np.repeat(np.arange(len(counts)), n_seg)
    seg = np.arange(len(line)) - np.repeat(np.cumsum(n_seg) - n_seg, n_seg)
    start = first[line] + seg
    end = start + 1
    facet = fac[h[end]]
    facet = np.where(facet < 0, fac[opp[h[end]]], facet)

    ka, astray = _border_keys(mesh, h[start], c[start], facet)
    if len(astray):
        i = int(astray[0])
        point = _point(polylines[line[i]], int(seg[i]))
        raise TraceError(f"trace point {point} does not touch facet {facet[i]}")
    kb, _ = _border_keys(mesh, h[end], c[end], facet)

    keep = ka != kb
    ka, kb = ka[keep], kb[keep]
    lo = np.where(ka < kb, ka, kb)
    hi = np.where(ka < kb, kb, ka)
    return facet[keep], lo, hi, line[keep], seg[keep]


def _columns(halfedges, cs):
    """int64 and float64 arrays of trace points' halfedges and cs.

    The ``array`` module converts each value in C and refuses what is no
    integer (a float, a str, None) as a halfedge and what is no real
    number (a str, None) as a c, with ``TypeError``, and a value too large
    for its type with ``OverflowError``.  ``np.fromiter`` would read 1.5 as
    1 and "0.5" as 0.5.
    """
    return (
        np.frombuffer(array("q", list(halfedges)), dtype=np.int64),
        np.frombuffer(array("d", list(cs)), dtype=np.float64),
    )


def _refuse_points_off_the_mesh(polylines, n_halfedges):
    """Raise ``TraceError`` at the first point, in (line, point) order, off the mesh.

    A point is on the mesh when ``_columns`` takes it and its halfedge is
    in ``[0, n_halfedges)`` and its c in [0, 2].
    """
    for i, pl in enumerate(polylines):
        for j, point in enumerate(zip(pl.halfedges, pl.cs)):
            try:
                h, c = _columns(point[:1], point[1:])
                on_mesh = 0 <= h[0] < n_halfedges and 0.0 <= c[0] <= 2.0
            except (TypeError, OverflowError):
                on_mesh = False
            if not on_mesh:
                raise TraceError(
                    f"polyline {i} point {j} is off the mesh: {_point(pl, j)}"
                )


def _point(pl, j):
    """Point j of ``pl`` as a ``TracePoint``, for an error message."""
    return TracePoint(pl.halfedges[j], pl.cs[j])


def _border_keys(mesh, h, c, facet):
    """Keys in [0, 3] of trace points ``(h, c)`` on the borders of ``facet``.

    Edge k of a facet covers [k, k + 1], so vertex j reads as j, and vertex
    0 also as 3.0.  A point on the facet's own halfedge keys as ``k + c``,
    one on its twin as ``k + 1 - c``, a sink (c > 1) as the halfedge's
    destination vertex.  A vertex pivot, at c = 0 or 1 on a halfedge of
    another facet, keys as its vertex, ``origin(h)`` or ``dest(h)``: that
    vertex's place in the facet's row of ``faces``.  Also returns the
    ascending indices of the points that touch the facet in none of these
    ways, whose keys are left unset.
    """
    fac, opp, origin, dest = mesh.halfedge_tables()
    o = opp[h]
    key = np.empty(len(h))
    sink = c > 1.0
    own = ~sink & (fac[h] == facet)
    across = ~sink & ~own & (fac[o] == facet)
    key[sink] = (h[sink] % 3 + 1.0) % 3.0
    key[own] = h[own] % 3 + c[own]
    key[across] = o[across] % 3 + (1.0 - c[across])
    rest = np.nonzero(~(sink | own | across))[0]
    if len(rest):  # pivots are rare, and every campaign is checked
        hr, cr = h[rest], c[rest]
        v = np.where(cr == 0.0, origin[hr], np.where(cr == 1.0, dest[hr], -1))
        at = mesh.faces[facet[rest]] == v[:, None]
        key[rest] = np.argmax(at, axis=1)
        rest = rest[~at.any(axis=1)]
    return key, rest


def _interleaving_facets(facet, lo, hi):
    """Facets holding two intervals ``lo1 < lo2 < hi1 < hi2``, from one event sort.

    Each interval opens at ``lo`` and closes at ``hi``.  The events are
    sorted by facet, then position; at one position closes come before
    opens, opens by ``hi`` descending and closes by ``lo`` descending, and
    identical intervals count as one.  In that order two intervals
    interleave exactly when one opens, then the other, then the first
    closes, then the second.  Between an interval's open and close, one
    nested in it adds a level and takes it away again, one that interleaves
    it from the right adds one, from the left takes one away.  So where no
    two interleave, each interval closes at the depth it opened at (a
    ``cumsum`` of the events gives both); where some do, the first to close
    of those that have a right partner has no left one, and closes deeper.

    The sort keys are exact int64s, one per event, packing the facet, the
    rank of the position among the m distinct ends, the kind of event and
    the rank of the other end: 2 m^2 keys per facet.  A table of more
    facets than one key holds is sorted a facet range at a time.
    """
    flagged = set()
    n = len(facet)
    if not n:
        return flagged
    # the rank of each end among the m distinct ends; np.unique's inverse
    # holds the same ranks, and more temporaries at its peak
    ends = np.concatenate((lo, hi))
    order = np.argsort(ends)
    ends = ends[order]
    rank = np.empty(2 * n, dtype=np.int64)
    rank[order] = np.cumsum(np.diff(ends, prepend=ends[0]) != 0)
    m = int(rank[order[-1]]) + 1
    del ends, order
    # 2 span m^2 <= 2^63; m <= 2n < 2^31 for any table that fits in memory
    span = 2**62 // (m * m)
    first, last = int(facet.min()), int(facet.max())
    for start in range(first, last + 1, span):
        rows = slice(None)
        if last - first >= span:
            rows = np.flatnonzero((facet >= start) & (facet < start + span))
        f = facet[rows] - start
        broken = _unbalanced(f, rank[:n][rows], rank[n:][rows], m)
        flagged.update((broken + start).tolist())
    return flagged


def _unbalanced(f, r_lo, r_hi, m):
    """Facets in ``[0, 2^62 // m^2)`` where an interval closes at another depth.

    ``r_lo`` and ``r_hi`` are the ranks of the interval ends among m.
    An open event's key is ``((f m + r_lo) 2 + 1) m + (m - 1 - r_hi)``, a
    close event's ``(f m + r_hi) 2 m + (m - 1 - r_lo)``.
    """
    top = m - 1
    opens = np.sort(((f * m + r_lo) * 2 + 1) * m + (top - r_hi))
    opens = opens[np.diff(opens, prepend=-1) != 0]  # one per distinct interval
    at, tie = np.divmod(opens, m)
    at >>= 1  # f m + r_lo
    r_lo = at % m  # of the distinct intervals
    closes = (at + (top - tie - r_lo)) * 2 * m + (top - r_lo)
    k = len(opens)
    order = np.argsort(np.concatenate((opens, closes)))
    del opens, closes
    steps = np.where(order < k, 1, -1)
    depth = np.empty(2 * k, dtype=np.int64)
    depth[order] = np.cumsum(steps, out=steps)
    # depth after each open, against depth before each close
    return at[depth[:k] != depth[k:] + 1] // m


def _pairwise_crossings(f, segs):
    """Violations among one facet's ``(lo, hi, line, segment)`` rows, pair by pair."""
    violations = []
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
