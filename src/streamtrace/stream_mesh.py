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

A ``BorderTable`` cuts the facet borders on whole numpy arrays,
``BLOCK_FACETS`` facets at a time, each block when a line first reaches one
of its facets.  The table holds each facet's pieces as rows in border
order: element 0 through 5, each element's pieces in parameter order.
Element ``2k`` is edge k and ``2k + 1`` is corner k.  There each corner
piece gets its ``sink`` sign from its neighbours, which ``flux`` reads: +1
if it absorbs the flow head-on (``O`` between ``Tf`` and ``Tb``), -1 if it
emits it (``I`` between ``Tb`` and ``Tf``), 0 otherwise.  The table also
holds every piece's span, length and flux total, and each facet's flow
groups.  The array operations are the ones a loop over Python floats would
make, in the same order, so the rows hold the same doubles; the tests pin
them bit for bit, which also checks that numpy's ``sin`` and ``cos`` round
as ``math``'s do.

A face is held as its flow groups (maximal runs of same-direction flow
pieces, with the tangents among them) and the tangent separators between
consecutive groups.  A face with exactly two groups, one inflow run and one
outflow run, is *simple* and can be crossed by flux ratio.

``decompose`` returns a ``StreamMesh``: flat Python lists of rows, runs and
chord twins, which is all the trace path reads.  A border of one
inflow/outflow pair is one simple face, and its rows come straight from the
table.  A border of p > 1 pairs is first split as linked ``StreamHalfedge``
objects (``HalfedgeMesh``): each split carves one simple face, one
inflow/outflow pair, off the main face, with a chord drawn between a split
forward tangency and a split backward tangency, so the border takes exactly
p - 1 splits, with no iteration cap.  Splitting a tangent links its second
half right after the first, so decomposition keeps the border order, and
gives both halves the tangent's behavior, so it never changes a sign.  The
split objects are then compiled to the same rows and dropped.  The objects
are built again, on demand, only for the diagnostic views of a
``StreamMesh`` (``faces``, ``hs``, ``face_runs``, ``border_pieces`` and
``dump``), so the trace path allocates few objects and no reference cycles.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import accumulate, chain

import numpy as np

from .errors import StreamMeshError
from .mesh import TracePoint


# behavior codes of the rows: a mirror flips the low bit, and the codes
# from _TF up are the tangents
_IN, _OUT, _TF, _TB = 0, 1, 2, 3


class Behavior(Enum):
    IN = "I"
    OUT = "O"
    TF = "Tf"
    TB = "Tb"

    # members are singletons: hash by identity, not by Enum's Python-level
    # hash of the name, so dict and set lookups stay in C
    __hash__ = object.__hash__

    def __init__(self, value):
        self.code = ("I", "O", "Tf", "Tb").index(value)
        self.is_tangent = self.code >= _TF


_BEHAVIORS = (Behavior.IN, Behavior.OUT, Behavior.TF, Behavior.TB)

# a row's code is element + 8 behavior + 32 (sink + 1), where element 6
# marks a chord; _DECODE maps it to (kind, behavior, element, sink), the
# fields of a StreamHalfedge
_CHORD = 6
_DECODE = [
    ("chord", _BEHAVIORS[b], None, s - 1)
    if e == _CHORD
    else ("corner" if e % 2 else "edge", _BEHAVIORS[b], e, s - 1)
    for s in range(3)
    for b in range(4)
    for e in range(8)
]

# the row columns, in the order BorderTable.border returns them
_COLUMNS = ("t0", "t1", "b0", "b1", "length", "total")

# facets cut together, when a line first reaches one of them: larger
# blocks make fewer numpy calls, smaller ones cut less for a line that
# reaches few facets and keep the cut's temporaries, and the heap they
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
    piece, ``phi(sh, 1.0)``, and 0.0 on tangents.
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

    __slots__ = ("pieces", "totals", "starts", "ends", "total")

    def __init__(self, pieces, totals):
        self.pieces = pieces
        self.totals = totals
        self.ends = list(accumulate(totals))
        self.starts = [0.0] + self.ends[:-1]
        self.total = self.ends[-1]


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
    """The border pieces of every facet of a mesh, cut on whole arrays.

    The facets are cut ``BLOCK_FACETS`` at a time, each block when
    ``border`` first asks for one of its facets, so a campaign pays only
    for the blocks its lines reach.  ``border(f)`` returns facet f's rows
    in border order, from the first piece of edge 0, with its flow groups.
    A border that cannot be decomposed keeps an error code instead, and
    ``border`` raises its ``StreamMeshError``, so a facet that no line
    reaches raises nothing.
    """

    def __init__(self, mesh, fieldsamples):
        self.mesh = mesh
        self.fieldsamples = fieldsamples
        # each block's arrays, or None until border asks for one of its facets
        self._blocks = [None] * -(-mesh.n_facets // BLOCK_FACETS)

    def border(self, f):
        """``(codes, columns, elements, first, bounds)`` of facet f.

        ``codes[r]`` is row r's code: ``_DECODE[code]`` is the piece's
        (kind, behavior, element, sink).  ``columns`` holds the lists t0,
        t1, b0, b1, length and total, one entry per row; total is the
        piece's flux ``phi(sh, 1.0)``, 0.0 on tangents.  Element e holds
        rows ``elements[e]:elements[e + 1]``.  Counted from row ``first``,
        round the border, flow group i spans rows
        ``bounds[2 i]:bounds[2 i + 1]``, and the tangents before it
        separate it from group i - 1.
        """
        b, i = divmod(f, BLOCK_FACETS)
        block = self._blocks[b]
        if block is None:
            a = b * BLOCK_FACETS
            facets = np.arange(a, min(a + BLOCK_FACETS, self.mesh.n_facets))
            block = self._blocks[b] = _cut_block(self.mesh, self.fieldsamples, facets)
        codes, columns, facets, bounds = block
        lo, *elements, first, b_lo, b_hi, error = facets[i].tolist()
        if error:
            raise StreamMeshError(_BORDER_ERRORS[error].format(facet=f))
        hi = lo + elements[6]
        return (
            codes[lo:hi].tolist(),
            columns[:, lo:hi].tolist(),
            elements,
            first,
            bounds[b_lo:b_hi].tolist(),
        )


def _cut_block(mesh, fieldsamples, facets):
    """``BorderTable``'s arrays for one block of facets.

    Returns the rows' codes, their columns (t0, t1, b0, b1, length, total)
    as one ``(6, rows)`` array, a table with one row per facet (its first
    row, the start of each element and the end of the last, counted from
    that row, group 0's first row, its span of group bounds and its error
    code) and the group bounds.  A piece's t0 is the t1 of the piece before
    it on the same element, else 0.0, as the cut leaves them.
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
    columns = np.stack([t0, t1, b0, b1, length, total])
    bound_end = np.cumsum(2 * n_groups)
    spans = np.zeros((nb, 12), np.int32)
    spans[:, 0] = row0
    spans[:, 2:8] = np.cumsum(np.bincount(slot, minlength=6 * nb).reshape(nb, 6), axis=1)
    spans[:, 8], spans[:, 9], spans[:, 10] = group0, bound_end - 2 * n_groups, bound_end
    spans[:, 11] = error
    return codes, columns, spans, bounds.astype(np.int32)


class HalfedgeMesh:
    """Stream mesh of one facet as linked ``StreamHalfedge`` objects.

    Built as a single main face from the facet's rows of ``borders``, then
    split by ``split_step`` and frozen by ``finalize``.  ``faces`` maps a
    face id to its (groups, seps) lists: groups[i] lists the pieces of one
    flow group (flow pieces plus the tangents interleaved among them),
    seps[i] the tangent pieces between groups[i - 1] and groups[i].  Groups
    alternate IN/OUT around the face.  Face 0 is the main face, off which
    ``split_step`` carves the others.  Run tables exist once the mesh is
    finalized.
    """

    def __init__(self, borders, facet):
        self.mesh = borders.mesh
        self.facet = facet
        codes, columns, _, first, bounds = borders.border(facet)
        hs = self.hs = []
        for code, *values in zip(codes, *columns):
            kind, behavior, element, sink = _DECODE[code]
            hs.append(StreamHalfedge(len(hs), kind, behavior, element, *values, sink))
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
            self._lens = self.mesh.facet_edge_lengths(facet).tolist()

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
            self._runs[face_id] = {
                g[0].behavior: Run(g, [sh.total for sh in g]) for g in groups
            }
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




class StreamMesh:
    """Stream mesh of one facet as flat rows: what the trace path reads.

    Row r is one piece.  The border pieces come first, in border order from
    the first piece of edge 0, so that element e holds rows
    ``elements[e]:elements[e + 1]`` and row ``r + 1`` follows row r round
    the border; the chords of a split facet follow them.  The per-row
    lists are ``code`` (see ``decode``), ``t0``, ``t1``, ``b0``, ``b1``,
    ``length`` and ``total``, the fields of the ``StreamHalfedge`` of the
    same piece.  Face i has the inflow run ``2 i`` and the outflow run
    ``2 i + 1``: ``run_rows[k]`` lists run k's rows in run order and
    ``run_prefix[k]`` its flux prefix sums, from 0.0 to the run's total.
    ``run[r]`` is the run that holds row r, -1 outside every run, and
    ``start[r]`` the flux of that run before row r.  ``twin`` maps each
    chord row to the row of its twin.

    ``faces``, ``hs``, ``initial_pairs``, ``face_runs``, ``border_pieces``
    and ``dump`` read the same stream mesh as ``HalfedgeMesh`` objects,
    decomposed from ``borders`` when one of them is first read.
    """

    __slots__ = (
        "borders",
        "mesh",
        "facet",
        "code",
        "t0",
        "t1",
        "b0",
        "b1",
        "length",
        "total",
        "elements",
        "run",
        "start",
        "run_rows",
        "run_prefix",
        "twin",
        "_objects",
    )

    def __init__(self, borders, facet, code, columns, elements, runs, twin=None):
        self.borders = borders
        self.mesh = borders.mesh
        self.facet = facet
        self.code = code
        self.t0, self.t1, self.b0, self.b1, self.length, self.total = columns
        self.elements = elements
        self.twin = twin or {}
        self.run_rows = runs
        total = self.total
        self.run_prefix = prefixes = []
        self.run = run = [-1] * len(code)
        self.start = start = [0.0] * len(code)
        # the sums of itertools.accumulate(totals, initial=0.0), in one pass
        for k, rows in enumerate(runs):
            x = 0.0
            prefix = [x]
            for r in rows:
                run[r] = k
                start[r] = x
                x += total[r]
                prefix.append(x)
            prefixes.append(prefix)
        self._objects = None

    def decode(self, r):
        """(kind, behavior, element, sink) of row r; element is None on chords."""
        return _DECODE[self.code[r]]

    # -- the object view -------------------------------------------------------

    def objects(self):
        """This stream mesh as a decomposed ``HalfedgeMesh``, built once."""
        if self._objects is None:
            self._objects = _decompose_objects(self.borders, self.facet)
        return self._objects

    @property
    def faces(self):
        return self.objects().faces

    @property
    def hs(self):
        return self.objects().hs

    @property
    def initial_pairs(self):
        return self.objects().initial_pairs

    def face_runs(self, face_id):
        return self.objects().face_runs(face_id)

    def border_pieces(self, element):
        return self.objects().border_pieces(element)

    def dump(self):
        return self.objects().dump()

    # -- conversions ---------------------------------------------------------

    def import_position(self, halfedge, c, enter):
        """Map a mesh border point into the stream mesh: (row, local c).

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
        entry = self._enter(2 * k, t, enter.code)
        if entry is None:
            raise StreamMeshError(
                f"entry at edge {k} t={t} of facet {self.facet} "
                f"is not on an {enter.value} piece or a tangency"
            )
        return entry

    def _enter(self, element, t, enter, tol=0.0):
        """Entry (row, c) at parameter t of an element, or None.

        The first row of behavior code ``enter`` within ``tol`` of t takes
        it; failing that, a tangent row there resolves to its neighbors.
        """
        code, t0, t1 = self.code, self.t0, self.t1
        tangent = None
        for r in range(self.elements[element], self.elements[element + 1]):
            a = t0[r]
            if a - tol > t:
                # the rows of an element run in parameter order
                break
            b = t1[r]
            if t <= b + tol:
                behavior = code[r] >> 3 & 3
                if behavior == enter:
                    if b == a:
                        return r, 0.0
                    return r, min(1.0, max(0.0, (t - a) / (b - a)))
                if tangent is None and behavior >= _TF:
                    tangent = r
        if tangent is None:
            return None
        return self._resolve_tangent_entry(tangent, enter)

    def _resolve_tangent_entry(self, r, enter):
        """Snap a tangency entry to the endpoint of the adjacent entry row.

        A point on a forward tangency slides with the border orientation, so
        a forward line prefers the forward neighbor; on a backward tangency
        it prefers the backward neighbor.  A backward line slides the other
        way, so the roles of the two tangents swap.  The walks go round the
        border rows, not a face, so split tangents resolve across chord
        junctions correctly.
        """
        code = self.code
        n = self.elements[6]
        fwd = (r + 1) % n
        while code[fwd] >> 3 & 3 >= _TF:
            fwd = (fwd + 1) % n
        bwd = (r - 1) % n
        while code[bwd] >> 3 & 3 >= _TF:
            bwd = (bwd - 1) % n
        order = [(fwd, 0.0), (bwd, 1.0)]
        if code[r] >> 3 & 3 == (_TB if enter == _IN else _TF):
            order.reverse()
        for cand, c in order:
            if code[cand] >> 3 & 3 == enter:
                return cand, c
        raise StreamMeshError("tangency entry with no adjacent entry piece")

    def corner_entry(self, k, t, enter):
        """Entry (row, c) into the facet through corner k at corner parameter t.

        Used when a streamline starts at a vertex: the flow enters the facet
        through the corner's entry piece rather than across an edge.  A
        separatrix seed at a corner end is a root clamped onto the end,
        while the stream mesh may cut the corner a hair inside it; there
        the pieces within ``VERTEX_SNAP`` of the end are tried as well.
        """
        entry = self._enter(2 * k + 1, t, enter.code)
        if entry is None and t in (0.0, 1.0):
            entry = self._enter(2 * k + 1, t, enter.code, VERTEX_SNAP)
        if entry is None:
            raise StreamMeshError(
                f"corner {k} t={t} of facet {self.facet} is not an entry"
            )
        return entry

    def export_position(self, r, c):
        """Map a point of border row r back to the mesh: a TracePoint.

        Edge pieces yield (facet halfedge, t on it); exits through a surface
        boundary edge are flipped to the outside halfedge so the returned
        point's halfedge has no facet.  An edge point within ``VERTEX_SNAP``
        of an edge end snaps onto that vertex (c = 0 or 1).  Corner pieces
        only terminate streamlines (absorbing corners); they yield the
        halfedge pointing at the corner vertex with c = 1 + t as terminal
        encoding.  Chords cannot be exported.
        """
        element = self.code[r] & 7
        if element == _CHORD:
            raise StreamMeshError("cannot export a chord position")
        t0 = self.t0[r]
        t = t0 + c * (self.t1[r] - t0)
        h = 3 * self.facet + element // 2
        if element % 2:
            return TracePoint(h, 1.0 + t)
        o = self.mesh.opposite(h)
        if not self.mesh.has_facet(o):
            h, t = o, 1.0 - t
        if t < VERTEX_SNAP:
            t = 0.0
        elif t > 1.0 - VERTEX_SNAP:
            t = 1.0
        return TracePoint(h, t)


def _decompose_objects(borders, facet):
    """Facet's ``HalfedgeMesh``, split into simple faces and finalized.

    Each split carves one inflow/outflow pair off the main face, so a facet
    with p pairs takes exactly p - 1 splits.  A split that finds no pattern
    raises, and ``finalize`` refuses a face that is not simple.
    """
    hm = HalfedgeMesh(borders, facet)
    for _ in range(hm.initial_pairs - 1):
        hm.split_step()
    return hm.finalize()


def piece_rows(pieces):
    """``(codes, columns)`` of ``StreamHalfedge`` objects, one row per piece.

    The inverse of ``decode`` and of the columns ``StreamMesh`` takes.
    """
    codes = [
        (_CHORD if sh.element is None else sh.element)
        + 8 * sh.behavior.code
        + 32 * (sh.sink + 1)
        for sh in pieces
    ]
    return codes, [[getattr(sh, name) for sh in pieces] for name in _COLUMNS]


def _compile(borders, facet, hm):
    """The rows of a decomposed ``HalfedgeMesh``: its border, then its chords."""
    pieces = [*chain(*hm._pieces), *(sh for sh in hm.hs if sh.kind == "chord")]
    row = {sh.id: r for r, sh in enumerate(pieces)}
    code, columns = piece_rows(pieces)
    elements = list(accumulate(map(len, hm._pieces), initial=0))
    runs = [
        [row[sh.id] for sh in hm.face_runs(face_id)[behavior].pieces]
        for face_id in hm.faces
        for behavior in (Behavior.IN, Behavior.OUT)
    ]
    twin = {row[sh.id]: row[sh.opp.id] for sh in pieces if sh.opp is not None}
    return StreamMesh(borders, facet, code, columns, elements, runs, twin)


def decompose(borders, facet) -> StreamMesh:
    """Decompose a facet into simple stream faces, as rows.

    ``borders`` is the mesh's ``BorderTable``.  A border of one
    inflow/outflow pair is one simple face, whose two flow groups are its
    runs, and goes to rows as the table cut it.  A border of more pairs is
    split as ``HalfedgeMesh`` objects first (``_decompose_objects``), and
    then compiled to the same rows.  A face with a run that carries no
    flux raises.
    """
    codes, columns, elements, first, bounds = borders.border(facet)
    if len(bounds) == 4:
        cycle = [*range(first, len(codes)), *range(first)]
        runs = [cycle[bounds[0] : bounds[1]], cycle[bounds[2] : bounds[3]]]
        if codes[runs[0][0]] >> 3 & 3 == _OUT:
            runs.reverse()
        sm = StreamMesh(borders, facet, codes, columns, elements, runs)
    else:
        sm = _compile(borders, facet, _decompose_objects(borders, facet))
    for k, prefix in enumerate(sm.run_prefix):
        if prefix[-1] <= 0.0:
            raise StreamMeshError(f"simple face {k // 2} has a zero-flux run")
    return sm
