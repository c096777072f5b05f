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
Edge pieces are always cut from the node values of the canonical halfedge
of the undirected edge; the other side takes the same rows in reverse (swap
I/O and Tf/Tb, reverse the parameter), which makes the cut parameters of
the two facets sharing the edge identical by construction rather than
approximately equal.

Every facet's border is cut once, when a ``BorderTable`` is built, on whole
numpy arrays, ``BLOCK_FACETS`` facets at a time.  The table holds each
facet's pieces in border order: element 0 through 5, each element's pieces
in parameter order.  Element ``2k`` is edge k and ``2k + 1`` is corner k.
There each corner piece gets its ``sink`` sign from its neighbours, which
``flux`` reads: +1 if it absorbs the flow head-on (``O`` between ``Tf`` and
``Tb``), -1 if it emits it (``I`` between ``Tb`` and ``Tf``), 0 otherwise.
The table also holds every piece's flux total and each facet's flow groups.
The array operations are the ones a loop over Python floats would make, in
the same order, so the rows hold the same doubles; the tests pin them bit
for bit, which also checks that numpy's ``sin`` and ``cos`` round as
``math``'s do.

``decompose`` builds one facet's ``StreamHalfedge`` objects from its rows
and links them into the border: the cycle of ``nxt``/``prv`` links from
``hs[0]``.  Splitting a tangent links its second half right after the
first, so decomposition keeps the border order.  Splits give both halves of
a tangent its behavior, so they never change a sign.

A face is held as its flow groups (maximal runs of same-direction flow
pieces, with the tangents among them) and the tangent separators between
consecutive groups.  A face with exactly two groups, one inflow run and one
outflow run, is *simple* and can be crossed by flux ratio.  ``decompose``
carves simple faces off the main face, each with a chord drawn between a
split forward tangency and a split backward tangency, updating both faces'
lists in place.  Each split carves off one inflow/outflow pair, so a border
of p pairs takes exactly p - 1 splits, with no iteration cap.
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


# behavior codes of the border table: a mirror flips the low bit, and the
# codes from _TF up are the tangents
_IN, _OUT, _TF, _TB = 0, 1, 2, 3
_BEHAVIORS = (Behavior.IN, Behavior.OUT, Behavior.TF, Behavior.TB)

# a row's code is element + 8 behavior + 32 (sink + 1); _DECODE maps it to
# (kind, behavior, element, sink)
_DECODE = [
    ("corner" if e % 2 else "edge", _BEHAVIORS[b], e, s - 1)
    for s in range(3)
    for b in range(4)
    for e in range(8)
]

# facets cut together while a table is built: larger blocks make fewer
# numpy calls, smaller ones keep the build's temporaries, and the heap they
# leave behind, small
BLOCK_FACETS = 256

# a border that cannot be decomposed keeps the index of its message
_BORDER_ERRORS = (
    None,
    "face has no flow pieces",
    "adjacent opposite flow groups without a tangency",
    "facet {facet}: border lacks inflow or outflow",
)

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
    and 0 on every other piece.  ``total`` is the flux through the whole
    piece, ``phi(sh, 1.0)``, and 0.0 on tangents.  ``run_index`` is the
    piece's place in the run that holds it, None outside every run.
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
        "total",
        "run_index",
    )

    def __init__(
        self, hid, kind, behavior, element, t0, t1, b0, b1, length, total=0.0, sink=0
    ):
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
        self.sink = sink
        self.total = total
        self.run_index = None

    def __repr__(self):
        return (
            f"<sh{self.id} {self.kind} e{self.element} "
            f"[{self.t0:.6g},{self.t1:.6g}] {self.behavior.value}>"
        )


class Run:
    """One inflow or outflow run of a simple face, with flux prefix sums.

    ``totals[i]`` is the flux through piece i, ``starts[i]`` and ``ends[i]``
    the flux accumulated before and after it.  Each piece's ``run_index``
    is set to its place in the run.
    """

    __slots__ = ("pieces", "totals", "starts", "ends", "total")

    def __init__(self, pieces, totals):
        self.pieces = pieces
        self.totals = totals
        self.ends = list(accumulate(totals))
        self.starts = [0.0] + self.ends[:-1]
        self.total = self.ends[-1]
        for i, sh in enumerate(pieces):
            sh.run_index = i


def _behaviors(values):
    """Behavior code of each border-relative angle in degrees."""
    m = np.mod(values, 360.0)
    return np.where(
        m == 0.0, _TF, np.where(m == 180.0, _TB, np.where(m < 180.0, _IN, _OUT))
    ).astype(np.int8)


def _segment(d0, d1):
    """Cut each linear angle ``d0[i] -> d1[i]`` on [0, 1] at its tangencies.

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
    return el[keep], _behaviors(value[keep]), t0[keep], t1[keep], b0[keep], b1[keep]


def _snap(value_deg):
    """The nearest multiple of 180; ``+ 0.0`` turns -0.0 into 0.0."""
    return 180.0 * np.rint(value_deg / 180.0) + 0.0


class BorderTable:
    """The border pieces of every facet of a mesh, cut once on whole arrays.

    ``border(f)`` returns facet f's pieces in border order, from the first
    piece of edge 0, with its flow groups.  A border that cannot be
    decomposed keeps an error code instead, and ``border`` raises its
    ``StreamMeshError``, so a facet that no line reaches raises nothing.
    """

    def __init__(self, mesh, fieldsamples):
        self.mesh = mesh
        n = mesh.n_facets
        # each block keeps its own arrays: joining them would hold the
        # table twice while it is built
        self._blocks = [
            _cut_block(mesh, fieldsamples, np.arange(a, min(a + BLOCK_FACETS, n)))
            for a in range(0, n, BLOCK_FACETS)
        ]

    def border(self, f):
        """``(rows, first, bounds)`` of facet f.

        Each row is ``(code, [t1, b0, b1, total])``: ``_DECODE[code]`` is
        the piece's (kind, behavior, element, sink) and ``total`` its flux,
        ``phi(sh, 1.0)``, 0.0 on tangents.  A piece's t0 is the t1 of the
        row before it on the same element, else 0.0.  Counted from
        row ``first``, round the border, flow group i spans rows
        ``bounds[2 i]:bounds[2 i + 1]``, and the tangents before it separate
        it from group i - 1.
        """
        codes, values, facets, bounds = self._blocks[f // BLOCK_FACETS]
        lo, hi, first, b_lo, b_hi, error = facets[f % BLOCK_FACETS].tolist()
        if error:
            raise StreamMeshError(_BORDER_ERRORS[error].format(facet=f))
        rows = zip(codes[lo:hi].tolist(), values[lo:hi].tolist())
        return rows, first, bounds[b_lo:b_hi].tolist()


def _cut_block(mesh, fieldsamples, facets):
    """``BorderTable``'s arrays for one block of facets.

    Returns the rows' codes and values, a table with one row per facet (its
    row span, group 0's first row, its span of group bounds and its error
    code) and the group bounds.
    """
    from . import flux

    nb = len(facets)
    nodes = fieldsamples.nodes(facets)
    # element e of facet i is slot 6 i + e; an edge is cut on its
    # canonical side, from that side's node values
    own0, own1 = nodes[:, :6].ravel(), nodes[:, 1:].ravel()
    h = 3 * facets[:, None] + np.arange(3)
    o = mesh.halfedge_tables()[1][h]
    mirrored = np.zeros((nb, 6), bool)
    mirrored[:, 0::2] = o < h
    mirrored = mirrored.ravel()
    o = o[o < h]
    canonical = fieldsamples.nodes(o // 3)
    d0, d1 = own0.copy(), own1.copy()
    d0[mirrored] = canonical[np.arange(len(o)), 2 * (o % 3)]
    d1[mirrored] = canonical[np.arange(len(o)), 2 * (o % 3) + 1]
    slot, beh, t0, t1, b0, b1 = _segment(d0, d1)

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
    mid = _snap(u0 + (0.5 * (s0 + s1)) * (u1 - u0))
    tangent = beh[flip] >= _TF
    snap_near = np.mod(b1[flip], 180.0) == 0.0
    snap_far = np.mod(b0[flip], 180.0) == 0.0
    b0[flip] = np.where(tangent, mid, np.where(snap_near, _snap(near), near))
    b1[flip] = np.where(tangent, mid, np.where(snap_far, _snap(far), far))
    t0[flip], t1[flip] = s0, s1
    beh[flip] ^= 1

    # two tangents meeting at an element junction (the last one wraps
    # round) repeat one tangency: drop the later element's zero-length
    # start piece, and the earlier element's zero-length end piece if a
    # tangent still starts the later element.  An element has a piece of
    # length > 0, so neither drop empties it.
    tan = beh >= _TF
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
    sink[corner & (beh == _OUT) & (beh[prv] == _TF) & (beh[nxt] == _TB)] = 1
    sink[corner & (beh == _IN) & (beh[prv] == _TB) & (beh[nxt] == _TF)] = -1

    lens = mesh.facet_edge_lengths(facets)
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
    values = np.empty((len(t1), 4))
    values[:, 0], values[:, 1], values[:, 2], values[:, 3] = t1, b0, b1, total
    bound_end = np.cumsum(2 * n_groups)
    spans = np.empty((nb, 6), np.int32)
    spans[:, 0], spans[:, 1], spans[:, 2] = row0, row0 + n_rows, group0
    spans[:, 3], spans[:, 4], spans[:, 5] = bound_end - 2 * n_groups, bound_end, error
    return codes, values, spans, bounds.astype(np.int32)


class StreamMesh:
    """Stream mesh of one facet; built as a single main face, then decomposed.

    ``faces`` maps a face id to its (groups, seps) lists: groups[i] lists
    the pieces of one flow group (flow pieces plus the tangents interleaved
    among them), seps[i] the tangent pieces between groups[i - 1] and
    groups[i].  Groups alternate IN/OUT around the face.  Face 0 is the
    main face, built from the facet's rows of ``borders``, off which
    ``split_step`` carves the others.  Run tables and entry queries exist
    once ``decompose`` has finalized the mesh.
    """

    def __init__(self, borders, facet):
        self.mesh = borders.mesh
        self.facet = facet
        self.split_count = 0
        rows, first, bounds = borders.border(facet)
        lens = self.mesh.facet_edge_lengths(facet).tolist()
        hs = self.hs = []
        t0, at = 0.0, 0
        for code, (t1, b0, b1, total) in rows:
            kind, behavior, element, sink = _DECODE[code]
            if element != at:
                # an element's pieces are contiguous from t = 0
                t0, at = 0.0, element
            length = 0.0 if element % 2 else lens[element >> 1] * (t1 - t0)
            hs.append(
                StreamHalfedge(
                    len(hs), kind, behavior, element, t0, t1, b0, b1, length, total, sink
                )
            )
            t0 = t1
        prv = hs[-1]
        for sh in hs:
            sh.prv = prv
            prv.nxt = sh
            prv = sh
        cycle = hs[first:] + hs[:first]
        starts, ends = bounds[0::2], bounds[1::2]
        groups = [cycle[a:b] for a, b in zip(starts, ends)]
        seps = [cycle[ends[-1]:]] + [cycle[b:a] for b, a in zip(ends, starts[1:])]
        self.faces = {0: (groups, seps)}
        self.initial_pairs = len(groups) // 2
        if self.initial_pairs > 1:
            # only splits read the frame and the edge lengths
            self._frame = self.mesh.frame(facet)
            self._lens = lens

    # -- construction -------------------------------------------------------

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
        from . import flux

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
        sh.total = flux.phi(sh, 1.0)
        self.hs.append(sh)
        sh.origin = (sh_from.element, sh_from.t0)
        sh.dest = (sh_to.element, sh_to.t0)
        return sh

    def _mirror_chord(self, twin, behavior):
        """Reversed copy of a chord: same angles shifted a half turn."""
        from . import flux

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
        sh.total = flux.phi(sh, 1.0)
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
        self._runs = {}
        for face_id, (groups, _) in self.faces.items():
            if len(groups) != 2:
                raise StreamMeshError(f"face {face_id} is not simple")
            runs = {g[0].behavior: Run(g, [sh.total for sh in g]) for g in groups}
            if runs[Behavior.IN].total <= 0.0 or runs[Behavior.OUT].total <= 0.0:
                raise StreamMeshError(
                    f"simple face {face_id} has a zero-flux run"
                )
            self._runs[face_id] = runs
        # border pieces per element ordinal, walking the border from hs[0]
        pieces = [[] for _ in range(6)]
        first = sh = self.hs[0]
        while True:
            pieces[sh.element].append(sh)
            sh = sh.nxt
            if sh is first:
                break
        self._pieces = tuple(map(tuple, pieces))
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


def decompose(borders, facet) -> StreamMesh:
    """Fully decompose a facet into simple stream faces.

    ``borders`` is the mesh's ``BorderTable``.  Each split carves one
    inflow/outflow pair off the main face, so a facet with p pairs takes
    exactly p - 1 splits.  A split that finds no pattern raises, and
    ``finalize`` refuses a face that is not simple.
    """
    sm = StreamMesh(borders, facet)
    for _ in range(sm.initial_pairs - 1):
        sm.split_step()
    return sm.finalize()
