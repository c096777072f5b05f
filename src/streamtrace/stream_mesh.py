"""Per-facet stream mesh: the combinatorial structure used to cross a facet.

The border of a facet (edge, corner, edge, corner, edge, corner) is cut at
every point where the interpolated field runs tangent to the border, giving
a cyclic sequence of constant-behavior pieces:

* ``I``  -- the field points into the facet across the piece;
* ``O``  -- it points out of the facet;
* ``Tf`` -- tangent, along the border direction (angle 0 mod 360);
* ``Tb`` -- tangent, against it (angle 180 mod 360).

Tangency crossings in the middle of a piece produce zero-length tangent
pieces, so behavior is constant on every piece including its endpoints.
Edge pieces are always computed on the lower-id halfedge of the undirected
edge and mirrored to the other side (swap I/O and Tf/Tb, reverse the
parameter), which makes the cut parameters of the two facets sharing the
edge identical by construction rather than approximately equal.

The border is held once, as the cycle of ``nxt``/``prv`` links from
``hs[0]``.  Border element ``2k`` is edge k and ``2k + 1`` is corner k; the
cycle runs through the elements in that order and through each element's
pieces in parameter order.  Splitting a tangent links its second half right
after the first, so decomposition keeps that order.  When the links are
made, each corner piece gets its ``sink`` sign, which ``flux`` reads: +1 if
it absorbs the flow head-on (``O`` between ``Tf`` and ``Tb``), -1 if it
emits it (``I`` between ``Tb`` and ``Tf``), 0 otherwise.  Splits give both
halves of a tangent its behavior, so they never change a sign.

A face is held as its flow groups (maximal runs of same-direction flow
pieces, with the tangents among them) and the tangent separators between
consecutive groups, both computed once from the border.  A face with
exactly two groups, one inflow run and one outflow run, is *simple* and can
be crossed by flux ratio.  ``decompose`` carves simple faces off the main
face, each with a chord drawn between a split forward tangency and a split
backward tangency, updating both faces' lists in place.  Each split carves
off one inflow/outflow pair, so a border of p pairs takes exactly p - 1
splits, with no iteration cap.

A facet is decomposed one value at a time, so the work runs on Python
floats, not numpy scalars: ``_init_border`` reads the facet's node row, each
mirrored neighbour's row and the edge lengths with ``tolist()`` once.  The
values are the same IEEE doubles either way; only the per-operation cost
differs.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import accumulate, chain

import numpy as np

from .errors import StreamMeshError
from .mesh import TracePoint


class Behavior(Enum):
    IN = "I"
    OUT = "O"
    TF = "Tf"
    TB = "Tb"

    # members are singletons: hash by identity, not by Enum's Python-level
    # hash of the name, so dict and set lookups stay in C
    __hash__ = object.__hash__

    def __init__(self, value):
        self.is_tangent = value in ("Tf", "Tb")


_MIRROR = {
    Behavior.IN: Behavior.OUT,
    Behavior.OUT: Behavior.IN,
    Behavior.TF: Behavior.TB,
    Behavior.TB: Behavior.TF,
}

# split_step's (first group, three separators) patterns: is the split primal
_SPLIT_PATTERNS = {
    (Behavior.OUT, Behavior.TF, Behavior.TB, Behavior.TB): True,
    (Behavior.IN, Behavior.TB, Behavior.TF, Behavior.TF): False,
}

# snapping tolerances (parameters are dimensionless in [0, 1])
VERTEX_SNAP = 1e-12


class StreamHalfedge:
    """One stream-mesh halfedge.

    Border halfedges (kind ``edge`` or ``corner``) carry their element
    ordinal (edge k is 2k, corner k is 2k + 1), the anchor span [t0, t1] on
    it, and the border-relative field angles b0, b1 in degrees at their
    endpoints.  Chord halfedges carry the field angles relative to the chord
    direction instead, also in degrees, and their border anchors as
    ``(element, t)`` pairs in ``origin`` and ``dest``.  ``opp`` is None on
    the border (the outside is not represented) and the twin record on
    chords.  ``nxt`` and ``prv`` link border neighbours and are None on
    chords.  ``sink`` is +1 on an absorbing corner, -1 on an emitting one
    and 0 on every other piece.
    """

    __slots__ = (
        "id",
        "kind",
        "element",
        "t0",
        "t1",
        "b0",
        "b1",
        "behavior",
        "length",
        "origin",
        "dest",
        "nxt",
        "prv",
        "opp",
        "face",
        "sink",
    )

    def __init__(self, hid, kind, behavior, element, t0, t1, b0, b1, length):
        self.id = hid
        self.kind = kind
        self.behavior = behavior
        self.element = element
        self.t0 = t0
        self.t1 = t1
        self.b0 = b0
        self.b1 = b1
        self.length = length
        self.origin = None
        self.dest = None
        self.nxt = None
        self.prv = None
        self.opp = None
        self.face = 0
        self.sink = 0

    def __repr__(self):
        return (
            f"<sh{self.id} {self.kind} e{self.element} "
            f"[{self.t0:.6g},{self.t1:.6g}] {self.behavior.value}>"
        )


class Run:
    """One inflow or outflow run of a simple face, with flux prefix sums.

    ``totals[i]`` is the flux through piece i, ``starts[i]`` and ``ends[i]``
    the flux accumulated before and after it.
    """

    __slots__ = ("pieces", "totals", "starts", "ends", "total", "pos")

    def __init__(self, pieces, totals):
        self.pieces = pieces
        self.totals = totals
        self.ends = list(accumulate(totals))
        self.starts = [0.0] + self.ends[:-1]
        self.total = self.ends[-1]
        self.pos = {sh.id: i for i, sh in enumerate(pieces)}


def _classify(value_deg):
    m = value_deg % 360.0
    if m == 0.0:
        return Behavior.TF
    if m == 180.0:
        return Behavior.TB
    return Behavior.IN if m < 180.0 else Behavior.OUT


def _segment_values(d0, d1):
    """Partition [0, 1] by the tangency roots of the linear angle d0 -> d1.

    Returns 5-tuples (behavior, t0, t1, b0, b1) with angles in degrees.
    Tangency crossings interior to the interval become zero-length tangent
    pieces; endpoint tangencies become zero-length pieces at 0 or 1.
    """
    if d0 == d1:
        return [(_classify(d0), 0.0, 1.0, d0, d1)]
    span = d1 - d0
    lo, hi = (d0, d1) if d0 < d1 else (d1, d0)
    m0 = math.ceil(lo / 180.0)
    m1 = math.floor(hi / 180.0)
    cuts = []
    for m in range(m0, m1 + 1):
        level = 180.0 * m
        t = (level - d0) / span
        t = min(1.0, max(0.0, t))
        cuts.append((t, level))
    cuts.sort()
    pieces = []
    prev_t, prev_b = 0.0, d0
    for t, level in cuts:
        if t > prev_t:
            mid = 0.5 * (prev_b + level)
            pieces.append((_classify(mid), prev_t, t, prev_b, level))
        pieces.append((_classify(level), t, t, level, level))
        prev_t, prev_b = t, level
    if prev_t < 1.0:
        mid = 0.5 * (prev_b + d1)
        pieces.append((_classify(mid), prev_t, 1.0, prev_b, d1))
    return pieces


def _snap_level(value_deg):
    return 180.0 * round(value_deg / 180.0)


def _segment_element(mesh, fieldsamples, f, element, nodes):
    """Pieces (behavior, t0, t1, b0, b1) of border element ``element`` of f.

    Element ``2k`` is edge k and ``2k + 1`` corner k; ``nodes`` is
    ``fieldsamples.nodes(f)``, read once by the caller.
    """
    if element % 2 == 1:
        return _segment_values(nodes[element], nodes[element + 1])
    k = element // 2
    o = mesh.canonical_halfedge(3 * f + k)
    if o == 3 * f + k:
        return _segment_values(nodes[element], nodes[element + 1])
    # mirror the canonical side
    g, k2 = o // 3, o % 3
    ng = fieldsamples.nodes(g).tolist()
    canonical = _segment_values(ng[2 * k2], ng[2 * k2 + 1])
    d0, d1 = nodes[element], nodes[element + 1]

    def local(t, snap):
        v = d0 + t * (d1 - d0)
        return _snap_level(v) if snap else v

    out = []
    for beh, t0, t1, b0, b1 in reversed(canonical):
        s0, s1 = 1.0 - t1, 1.0 - t0
        beh2 = _MIRROR[beh]
        if beh2.is_tangent:
            lv = local(0.5 * (s0 + s1), True)
            out.append((beh2, s0, s1, lv, lv))
        else:
            e0 = local(s0, b1 % 180.0 == 0.0)
            e1 = local(s1, b0 % 180.0 == 0.0)
            out.append((beh2, s0, s1, e0, e1))
    return out


def _groups_and_separators(pieces):
    """Maximal same-direction flow groups of a face border and the tangents between.

    ``pieces`` is the face border in cycle order.  Returns (groups, seps):
    groups[i] lists the pieces of one group (flow pieces plus the tangents
    interleaved among them), seps[i] the tangent pieces between groups[i-1]
    and groups[i].  Groups alternate IN/OUT around the face; groups[0]
    starts at the first flow piece whose flow differs from the one before.
    """
    flows = [i for i, sh in enumerate(pieces) if not sh.behavior.is_tangent]
    if not flows:
        raise StreamMeshError("face has no flow pieces")
    first = next(
        (
            i
            for h, i in zip([flows[-1]] + flows, flows)
            if pieces[h].behavior != pieces[i].behavior
        ),
        flows[0],
    )
    groups, seps, pending = [], [], []
    for sh in pieces[first:] + pieces[:first]:
        if sh.behavior.is_tangent:
            pending.append(sh)
        elif groups and sh.behavior == groups[-1][0].behavior:
            groups[-1] += pending + [sh]
            pending = []
        else:
            seps.append(pending)
            groups.append([sh])
            pending = []
    seps[0] = pending
    if len(groups) > 1 and not all(seps):
        raise StreamMeshError("adjacent opposite flow groups without a tangency")
    return groups, seps


class StreamMesh:
    """Stream mesh of one facet; built as a single main face, then decomposed.

    ``faces`` maps a face id to its (groups, seps) lists, as returned by
    ``_groups_and_separators`` for the face's border cycle.  Face 0 is the
    main face, off which ``split_step`` carves the others.  Run tables and
    entry queries exist once ``decompose`` has finalized the mesh.
    """

    def __init__(self, mesh, fieldsamples, facet):
        self.mesh = mesh
        self.field = fieldsamples
        self.facet = facet
        self.hs: list[StreamHalfedge] = []
        self.faces: dict[int, tuple[list, list]] = {}
        self.split_count = 0
        self._frame = mesh.frame(facet)
        self._lens = self._frame.edge_lens.tolist()
        self._init_border()

    # -- construction -------------------------------------------------------

    def _init_border(self):
        """Segment the six border elements and link their pieces into the border."""
        mesh, f = self.mesh, self.facet
        nodes = self.field.nodes(f).tolist()
        elements = [
            _segment_element(mesh, self.field, f, ordinal, nodes)
            for ordinal in range(6)
        ]
        # two tangents meeting at an element junction (the last one wraps
        # round) repeat one tangency: drop the later element's zero-length
        # start piece, and the earlier element's zero-length end piece if a
        # tangent still starts the later element
        for prev, cur in zip(elements[-1:] + elements[:-1], elements):
            pbeh, pt0, pt1 = prev[-1][:3]
            beh, t0, t1 = cur[0][:3]
            if pbeh.is_tangent and beh.is_tangent:
                if t0 == t1:
                    del cur[0]  # an element has a piece of length > 0
                if cur[0][0].is_tangent and pt0 == pt1:
                    prev.pop()

        hs = self.hs
        for ordinal, pieces in enumerate(elements):
            kind = "corner" if ordinal % 2 else "edge"
            for beh, t0, t1, b0, b1 in pieces:
                length = self._piece_length(ordinal, t0, t1)
                hs.append(
                    StreamHalfedge(len(hs), kind, beh, ordinal, t0, t1, b0, b1, length)
                )
        for prv, sh, nxt in zip(hs[-1:] + hs[:-1], hs, hs[1:] + hs[:1]):
            sh.prv, sh.nxt = prv, nxt
            if sh.kind != "corner":
                continue
            beh, pbeh, nbeh = sh.behavior, prv.behavior, nxt.behavior
            if beh is Behavior.OUT and pbeh is Behavior.TF and nbeh is Behavior.TB:
                sh.sink = 1
            elif beh is Behavior.IN and pbeh is Behavior.TB and nbeh is Behavior.TF:
                sh.sink = -1

        groups, seps = _groups_and_separators(hs)
        if len(groups) < 2:
            raise StreamMeshError(
                f"facet {self.facet}: border lacks inflow or outflow"
            )
        self.faces = {0: (groups, seps)}
        self.initial_pairs = len(groups) // 2

    def _piece_length(self, ordinal, t0, t1):
        if ordinal % 2 == 1:
            return 0.0
        return self._lens[ordinal // 2] * (t1 - t0)

    def _anchor_position(self, element, t):
        h = 3 * self.facet + element // 2
        if element % 2 == 0:
            return self.mesh.position(TracePoint(h, t))
        # not the edge end at c = 1, where 0.0 * p0 + p1 can turn a -0.0
        # coordinate into +0.0, a sign that atan2 in _make_chord reads
        return self.mesh.vertices[self.mesh.dest(h)]

    def _anchor_alpha_rad(self, element, t, level_deg):
        """Field angle at a border anchor, in radians relative to r."""
        k = element // 2
        ang = self._frame.edge_angles[k]
        if element % 2 == 1:
            ang = ang + t * (math.pi - self._frame.betas[k])
        return math.radians(level_deg) + ang

    # -- face queries ------------------------------------------------------

    def a_sequence(self, face_id):
        """Alternation profile of a face border, one value per flow group.

        Starts at 0 on an outflow group; steps by +1 or -1 per the type of
        the tangency separating consecutive groups.  Closes one period at
        -2, which reflects that the border direction gains a full turn per
        loop; strictly decreasing over the period means the face is simple.
        """
        groups, seps = self.faces[face_id]
        if len(groups) % 2 != 0:
            raise StreamMeshError("flow groups do not alternate")
        start = None
        for gi, g in enumerate(groups):
            if g[0].behavior == Behavior.OUT:
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
            sep_type = sep[0].behavior if sep else None
            entering = groups[gi][0].behavior
            if entering == Behavior.IN:
                a += 1 if sep_type == Behavior.TF else -1
            else:
                a += 1 if sep_type == Behavior.TB else -1
            seq.append(a)
        if seq[-1] != -2:
            raise StreamMeshError(
                f"malformed border: alternation closes at {seq[-1]}, not -2"
            )
        return seq[:-1]

    def is_simple(self, face_id):
        return len(self.faces[face_id][0]) == 2

    # -- decomposition -------------------------------------------------------

    def split_step(self):
        """Carve one simple face, one inflow/outflow pair, off the main face.

        Finds three consecutive separators typed (Tf, Tb, Tb) around an
        outflow-then-inflow group pair, or the symmetric (Tb, Tf, Tf) around
        an inflow-then-outflow pair, splits the two outer tangents at their
        anchor midpoints and connects the split points with a chord.  The
        chord is typed incoming on the carved side and outgoing on the main
        side (swapped for the symmetric form).  A main face with no such
        pattern raises.
        """
        groups, seps = self.faces[0]
        m = len(groups)
        for gi in range(m):
            key = (
                groups[gi][0].behavior,
                seps[gi][0].behavior,
                seps[(gi + 1) % m][0].behavior,
                seps[(gi + 2) % m][0].behavior,
            )
            primal = _SPLIT_PATTERNS.get(key)
            if primal is not None:
                self._apply_split(gi, groups, seps, primal)
                return
        raise StreamMeshError("no splittable tangency pattern on non-simple face")

    def _apply_split(self, gi, groups, seps, primal):
        # rotate the lists so the carved group pair is groups[0], groups[1]
        groups = groups[gi:] + groups[:gi]
        seps = seps[gi:] + seps[:gi]
        # split the tangent adjacent to the carved group pair on each side
        sh_a = seps[0][-1]
        sh_b = seps[2][0]
        a2 = self._split_tangent(sh_a)  # sh_a keeps [t0,tm], a2 is [tm,t1]
        b2 = self._split_tangent(sh_b)

        if primal:
            ext_beh, main_beh = Behavior.IN, Behavior.OUT
        else:
            ext_beh, main_beh = Behavior.OUT, Behavior.IN

        # carved side runs b2 -> a2 (the split points); the main side
        # mirrors it bit-exactly
        ext = self._make_chord(b2, a2, ext_beh)
        mainc = self._mirror_chord(ext, main_beh)
        ext.opp = mainc
        mainc.opp = ext

        # carved face: a2, groups[0], seps[1], groups[1], sh_b, ext; the
        # main face keeps sh_a and continues mainc, b2, rest of seps[2].
        # Its merged group leads, as a border walk from mainc lists it, so
        # the next pattern search meets the groups in the same order.
        new_id = len(self.faces)
        for sh in (a2, *groups[0], *seps[1], *groups[1], sh_b, ext):
            sh.face = new_id
        self.faces[new_id] = ([groups[0], groups[1] + [sh_b, ext]], [[a2], seps[1]])
        merged = [mainc, b2, *seps[2][1:], *groups[2]]
        self.faces[0] = ([merged] + groups[3:], [seps[0]] + seps[3:])
        mainc.face = 0
        self.split_count += 1

    def _split_tangent(self, sh):
        if not sh.behavior.is_tangent:
            raise StreamMeshError("split target is not a tangent piece")
        tm = 0.5 * (sh.t0 + sh.t1)
        second = StreamHalfedge(
            len(self.hs),
            sh.kind,
            sh.behavior,
            sh.element,
            tm,
            sh.t1,
            sh.b1,
            sh.b1,
            self._piece_length(sh.element, tm, sh.t1),
        )
        self.hs.append(second)
        second.nxt = sh.nxt
        second.prv = sh
        second.face = sh.face
        sh.nxt.prv = second
        sh.nxt = second
        sh.t1 = tm
        sh.b1 = sh.b0
        sh.length = self._piece_length(sh.element, sh.t0, tm)
        return second

    def _make_chord(self, sh_from, sh_to, behavior):
        """Chord between the start anchors of border pieces sh_from, sh_to."""
        p0 = self._anchor_position(sh_from.element, sh_from.t0)
        d = self._anchor_position(sh_to.element, sh_to.t0) - p0
        length = float(np.linalg.norm(d))
        if length <= 0.0:
            raise StreamMeshError("degenerate zero-length chord")
        ang = math.atan2(
            float(np.dot(d, self._frame.v)), float(np.dot(d, self._frame.u))
        )
        b0, b1 = (
            self._reduce_to_band(
                self._anchor_alpha_rad(sh.element, sh.t0, sh.b0) - ang, behavior
            )
            for sh in (sh_from, sh_to)
        )
        sh = StreamHalfedge(
            len(self.hs),
            "chord",
            behavior,
            None,
            0.0,
            1.0,
            math.degrees(b0),
            math.degrees(b1),
            length,
        )
        self.hs.append(sh)
        sh.origin = (sh_from.element, sh_from.t0)
        sh.dest = (sh_to.element, sh_to.t0)
        return sh

    def _mirror_chord(self, twin, behavior):
        """Reversed copy of a chord: same angles shifted a half turn."""
        sh = StreamHalfedge(
            len(self.hs),
            "chord",
            behavior,
            None,
            0.0,
            1.0,
            twin.b1 - 180.0,
            twin.b0 - 180.0,
            twin.length,
        )
        self.hs.append(sh)
        sh.origin = twin.dest
        sh.dest = twin.origin
        return sh

    def _reduce_to_band(self, b_rad, behavior):
        """Reduce a real angle into [0, pi] for IN or [pi, 2 pi] for OUT.

        Chord endpoints are border tangencies, so the value may sit exactly
        on a band end (field along the chord itself); the representative is
        then chosen on the band, e.g. a hair below 0 becomes 2 pi for OUT.
        """
        m = b_rad % (2.0 * math.pi)
        lo, hi = (0.0, math.pi) if behavior == Behavior.IN else (math.pi, 2 * math.pi)
        tol = 1e-9
        for cand in (m, m - 2.0 * math.pi, m + 2.0 * math.pi):
            if lo - tol <= cand <= hi + tol:
                return min(max(cand, lo), hi)
        raise StreamMeshError(
            f"chord angle {m} rad falls outside its {behavior.value} band"
        )

    # -- finalized queries ---------------------------------------------------

    def finalize(self):
        """Freeze after decomposition: build run tables and border piece lists."""
        from . import flux

        self._runs = {}
        for face_id, (groups, _) in self.faces.items():
            if len(groups) != 2:
                raise StreamMeshError(f"face {face_id} is not simple")
            runs = {}
            for g in groups:
                totals = [
                    0.0 if sh.behavior.is_tangent else flux.phi(sh, 1.0) for sh in g
                ]
                runs[g[0].behavior] = Run(g, totals)
            if runs[Behavior.IN].total <= 0.0 or runs[Behavior.OUT].total <= 0.0:
                raise StreamMeshError(
                    f"simple face {face_id} has a zero-flux run"
                )
            self._runs[face_id] = runs
        # border pieces per element ordinal, walking the border from hs[0]
        self._pieces = [[] for _ in range(6)]
        first = sh = self.hs[0]
        while True:
            self._pieces[sh.element].append(sh)
            sh = sh.nxt
            if sh is first:
                return self

    def face_runs(self, face_id):
        return self._runs[face_id]

    def border_pieces(self, element):
        """Border pieces of element ``element`` (edge k is 2k), in parameter order."""
        return self._pieces[element]

    # -- conversions ---------------------------------------------------------

    def import_position(self, halfedge, c, enter):
        """Map a mesh border point into the stream mesh: (piece, local c).

        ``halfedge`` must be one of this facet's own halfedges, and ``c``
        runs along it.  ``enter`` is the behavior of the pieces a line may
        enter on: ``IN`` for forward lines, ``OUT`` for backward ones.
        Points landing on a tangency resolve to the endpoint of the adjacent
        entry piece; landing strictly inside a piece of the other flow is an
        error.
        """
        if self.mesh.facet(halfedge) != self.facet:
            raise StreamMeshError(
                f"halfedge {halfedge} is not a halfedge of facet {self.facet}"
            )
        k = halfedge % 3
        if not -VERTEX_SNAP <= c <= 1.0 + VERTEX_SNAP:
            raise StreamMeshError(f"entry parameter {c} outside [0, 1]")
        t = min(1.0, max(0.0, c))
        entry = self._enter(self._pieces[2 * k], t, enter)
        if entry is None:
            raise StreamMeshError(
                f"entry at edge {k} t={t} of facet {self.facet} "
                f"is not on an {enter.value} piece or a tangency"
            )
        return entry

    def _enter(self, pieces, t, enter, tol=0.0):
        """Entry (piece, c) at element parameter t, or None.

        The first ``enter`` piece within ``tol`` of t takes it; failing
        that, a tangent piece there resolves to its neighbors.
        """
        touching = [sh for sh in pieces if sh.t0 - tol <= t <= sh.t1 + tol]
        for sh in touching:
            if sh.behavior == enter:
                if sh.t1 == sh.t0:
                    return sh, 0.0
                return sh, min(1.0, max(0.0, (t - sh.t0) / (sh.t1 - sh.t0)))
        for sh in touching:
            if sh.behavior.is_tangent:
                return self._resolve_tangent_entry(sh, enter)
        return None

    def _resolve_tangent_entry(self, sh, enter):
        """Snap a tangency entry to the endpoint of the adjacent entry piece.

        A point on a forward tangency slides with the border orientation, so
        a forward line prefers the forward neighbor; on a backward tangency
        it prefers the backward neighbor.  A backward line slides the other
        way, so the roles of the two tangents swap.  Walks follow the
        border links ``nxt``/``prv``, not a face, so split tangents resolve
        across chord junctions correctly.
        """
        fwd = sh.nxt
        while fwd.behavior.is_tangent:
            fwd = fwd.nxt
        bwd = sh.prv
        while bwd.behavior.is_tangent:
            bwd = bwd.prv
        order = [(fwd, 0.0), (bwd, 1.0)]
        if sh.behavior == (Behavior.TB if enter == Behavior.IN else Behavior.TF):
            order.reverse()
        for cand, c in order:
            if cand.behavior == enter:
                return cand, c
        raise StreamMeshError("tangency entry with no adjacent entry piece")

    def corner_entry(self, k, t, enter):
        """Entry into the facet through corner k at corner parameter t.

        Used when a streamline starts at a vertex: the flow enters the facet
        through the corner's entry piece rather than across an edge.  A
        separatrix seed at a corner end is a root clamped onto the end,
        while the stream mesh may cut the corner a hair inside it; there
        the pieces within ``VERTEX_SNAP`` of the end are tried as well.
        """
        pieces = self._pieces[2 * k + 1]
        entry = self._enter(pieces, t, enter)
        if entry is None and t in (0.0, 1.0):
            entry = self._enter(pieces, t, enter, VERTEX_SNAP)
        if entry is None:
            raise StreamMeshError(
                f"corner {k} t={t} of facet {self.facet} is not an entry"
            )
        return entry

    def export_position(self, sh, c):
        """Map a stream-mesh border point back to the mesh: a TracePoint.

        Edge pieces yield (facet halfedge, t on it); exits through a surface
        boundary edge are flipped to the outside halfedge so the returned
        point's halfedge has no facet.  An edge point within ``VERTEX_SNAP``
        of an edge end snaps onto that vertex (c = 0 or 1).  Corner pieces
        only terminate streamlines (absorbing corners); they yield the
        halfedge pointing at the corner vertex with c = 1 + t as terminal
        encoding.  Chords cannot be exported.
        """
        kind = sh.kind
        if kind == "chord":
            raise StreamMeshError("cannot export a chord position")
        t = sh.t0 + c * (sh.t1 - sh.t0)
        h = 3 * self.facet + sh.element // 2
        if kind == "corner":
            return TracePoint(h, 1.0 + t)
        o = self.mesh.opposite(h)
        if not self.mesh.has_facet(o):
            h, t = o, 1.0 - t
        if t < VERTEX_SNAP:
            t = 0.0
        elif t > 1.0 - VERTEX_SNAP:
            t = 1.0
        return TracePoint(h, t)

    # -- diagnostics -----------------------------------------------------------

    def dump(self):
        """Stable text form: border pieces in order, then chords per face."""
        names = {0: "edge0", 1: "corner0", 2: "edge1", 3: "corner1", 4: "edge2", 5: "corner2"}
        lines = []
        for sh in chain(*self._pieces):
            lines.append(
                f"{names[sh.element]} [{sh.t0:.12g}, {sh.t1:.12g}] "
                f"{sh.behavior.value} face{sh.face}"
            )
        for sh in self.hs:
            if sh.kind == "chord":
                (e0, t0), (e1, t1) = sh.origin, sh.dest
                lines.append(
                    f"chord face{sh.face} ({names[e0]} t={t0:.12g}) -> "
                    f"({names[e1]} t={t1:.12g}) {sh.behavior.value}"
                )
        return "\n".join(lines) + "\n"


def decompose(mesh, fieldsamples, facet) -> StreamMesh:
    """Fully decompose a facet into simple stream faces.

    Each split carves one inflow/outflow pair off the main face, so a facet
    with p pairs takes exactly p - 1 splits.  A split that finds no pattern
    raises, and ``finalize`` refuses a face that is not simple.
    """
    sm = StreamMesh(mesh, fieldsamples, facet)
    for _ in range(sm.initial_pairs - 1):
        sm.split_step()
    return sm.finalize()
