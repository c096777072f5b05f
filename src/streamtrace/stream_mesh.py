"""Per-facet stream mesh: the combinatorial structure used to cross a facet.

The border of a facet (edge, corner, edge, corner, edge, corner) is cut at
every point where the interpolated field runs tangent to the border, giving
a cyclic sequence of constant-behavior pieces.  A behavior is an int code,
printed as its label in ``LABELS``:

* ``IN`` (``I``)  -- the field points into the facet across the piece;
* ``OUT`` (``O``) -- it points out of the facet;
* ``TF`` (``Tf``) -- tangent, along the border direction (angle 0 mod 360);
* ``TB`` (``Tb``) -- tangent, against it (angle 180 mod 360).

A line's entry side is the code of the pieces it enters on, ``IN`` forward
and ``OUT`` backward.  Mirroring a piece flips the low bit of its code
(``^ 1``), which swaps I/O and Tf/Tb, and a simple face's exit run is its
entry run ``^ 1``.

Tangency crossings in the middle of a piece produce zero-length tangent
pieces, so behavior is constant on every piece including its endpoints.
Edge pieces are always cut from the node values of the canonical halfedge
of the undirected edge (``SurfaceMesh``'s canonical table); the other side
takes the same rows in reverse (flip the code, reverse the parameter),
which makes the cut parameters of the two facets sharing the edge
identical by construction rather than approximately equal.

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
chord twins, the one form of a stream mesh.  A border of one inflow/outflow
pair is one simple face, and its rows come straight from the table.  A
border of p > 1 pairs is split on its own rows: each split carves one simple
face, one inflow/outflow pair, off the main face, with a chord drawn
between a split forward tangency and a split backward tangency, so the
border takes exactly p - 1 splits, with no iteration cap.  The second half
of a split tangent and each chord are appended rows, and a face is lists of
rows.  Splitting a tangent places its second half right after the first in
border order, so decomposition keeps the border order, and gives both
halves the tangent's behavior, so it never changes a sign.  A last pass
puts the border rows in border order and the chords after them.  A stream
mesh holds no reference cycles.
"""

from __future__ import annotations

import math
from types import MappingProxyType

import numpy as np

from .errors import StreamMeshError


# behavior codes, the codes from TF up the tangents, and their text
IN, OUT, TF, TB = 0, 1, 2, 3
LABELS = ("I", "O", "Tf", "Tb")

# a row's code is element + 8 behavior + 32 (sink + 1), where element 6
# marks a chord: ``code & 7`` is the element, ``code >> 3 & 3`` the
# behavior and ``(code >> 5) - 1`` the sink
_CHORD = 6

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

# a split's (first group, three separators) behavior patterns: is the
# split primal
_SPLIT_PATTERNS = {(OUT, TF, TB, TB): True, (IN, TB, TF, TF): False}

# the twins of a facet of one pair, which has no chord: one shared read-only map
_NO_TWINS = MappingProxyType({})

# snapping tolerances (parameters are dimensionless in [0, 1])
VERTEX_SNAP = 1e-12


def _behaviors(values):
    """Behavior code of each border-relative angle in degrees."""
    m = np.mod(values, 360.0)
    return np.where(
        m == 0.0, TF, np.where(m == 180.0, TB, np.where(m < 180.0, IN, OUT))
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

        ``codes[r]`` is row r's code, which packs the piece's element,
        behavior and sink (see ``_CHORD``).  ``columns`` holds the lists
        t0, t1, b0, b1, length and total, one entry per row; total is the
        flux through the whole piece, 0.0 on tangents.  Element e holds
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
    tangent = beh[flip] >= TF
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


def _reduce_to_band(b_rad, behavior):
    """Reduce a real angle into [0, pi] for IN or [pi, 2 pi] for OUT.

    Chord endpoints are border tangencies, so the value may sit exactly on
    a band end (field along the chord itself); the representative is then
    chosen on the band, e.g. a hair below 0 becomes 2 pi for OUT.
    """
    m = b_rad % (2.0 * math.pi)
    lo, hi = (0.0, math.pi) if behavior == IN else (math.pi, 2 * math.pi)
    tol = 1e-9
    for cand in (m, m - 2.0 * math.pi, m + 2.0 * math.pi):
        if lo - tol <= cand <= hi + tol:
            return min(max(cand, lo), hi)
    raise StreamMeshError(
        f"chord angle {m} rad falls outside its {LABELS[behavior]} band"
    )


def _split(mesh, facet, code, columns, elements, first, bounds):
    """The ``StreamMesh`` of a border of p > 1 pairs, split into p simple faces.

    ``code``, ``columns`` and ``elements`` are the facet's table rows, which
    the split extends in place, and ``first`` and ``bounds`` its flow
    groups.  The border starts as the main face.  Each split finds three
    consecutive separators typed (Tf, Tb, Tb) around an outflow-then-inflow
    group pair, or the symmetric (Tb, Tf, Tf) around an inflow-then-outflow
    pair, splits the two outer tangents at their midpoints and joins the
    split points with a chord.  That carves the pair off the main face as a
    simple face, on whose side the chord is typed incoming (outgoing for
    the symmetric form); its twin on the main side has the other type.  A
    main face with no such pattern raises.
    """
    from . import flux

    t0, t1, b0, b1, length, _ = columns
    # the facet's table rows as floats, but the frame, which meets a chord in
    # np.dot, whose BLAS sum may round otherwise; vertex k starts edge k
    lens = mesh.edge_lens[facet].tolist()
    angles = mesh.edge_angles[facet].tolist()
    betas = mesh.betas[facet].tolist()
    corners = mesh.vertices[mesh.faces[facet]].tolist()
    u, v = mesh.frame_u[facet], mesh.frame_v[facet]
    order = list(range(len(code)))  # the border rows, in border order
    twin = {}

    def append(*row):
        for column, value in zip((code, *columns), row):
            column.append(value)
        return len(code) - 1

    def piece_length(element, a, b):
        return 0.0 if element % 2 else lens[element // 2] * (b - a)

    def split_tangent(r):
        """Cut tangent row r at its midpoint; the new row is its second half."""
        if code[r] >> 3 & 3 < TF:
            raise StreamMeshError("split target is not a tangent piece")
        element = code[r] & 7
        tm = 0.5 * (t0[r] + t1[r])
        second_length = piece_length(element, tm, t1[r])
        second = append(code[r], tm, t1[r], b1[r], b1[r], second_length, 0.0)
        order.insert(order.index(r) + 1, second)
        for e in range(element + 1, 7):
            elements[e] += 1
        t1[r], b1[r], length[r] = tm, b0[r], piece_length(element, t0[r], tm)
        return second

    def anchor(r):
        """Position of row r's start, and the field angle there in radians."""
        element = code[r] & 7
        k = element // 2
        end = corners[(k + 1) % 3]
        if element % 2 == 0:
            # SurfaceMesh.position of the edge point at t0, float by float
            t = t0[r]
            point = [(1.0 - t) * a + t * b for a, b in zip(corners[k], end)]
            return point, math.radians(b0[r]) + angles[k]
        # not the edge end at c = 1, where 0.0 * p0 + p1 can turn a -0.0
        # coordinate into +0.0, a sign that atan2 reads
        angle = angles[k] + t0[r] * (math.pi - betas[k])
        return end, math.radians(b0[r]) + angle

    def chord_row(behavior, a, b, chord_length):
        flow = flux._flow(False, 0, a, b, chord_length, 1.0)
        return append(_CHORD + 8 * behavior + 32, 0.0, 1.0, a, b, chord_length, abs(flow))

    def add_chord(r_from, r_to, behavior):
        """Chord rows between the starts of rows r_from and r_to, and its twin.

        The first is typed ``behavior`` and runs from r_from to r_to; its
        twin runs back with the same angles shifted a half turn.
        """
        (p0, alpha0), (p1, alpha1) = anchor(r_from), anchor(r_to)
        d = np.subtract(p1, p0)
        chord_length = math.sqrt(d.dot(d))
        if chord_length <= 0.0:
            raise StreamMeshError("degenerate zero-length chord")
        ang = math.atan2(float(np.dot(d, v)), float(np.dot(d, u)))
        a, b = (
            math.degrees(_reduce_to_band(alpha - ang, behavior)) for alpha in (alpha0, alpha1)
        )
        carved = chord_row(behavior, a, b, chord_length)
        main = chord_row(behavior ^ 1, b - 180.0, a - 180.0, chord_length)
        twin[carved], twin[main] = main, carved
        return carved, main

    cycle = order[first:] + order[:first]
    starts, ends = bounds[0::2], bounds[1::2]
    groups = [cycle[a:b] for a, b in zip(starts, ends)]
    seps = [cycle[ends[-1]:]] + [cycle[b:a] for b, a in zip(ends, starts[1:])]
    faces = [(groups, seps)]
    for _ in range(len(groups) // 2 - 1):
        groups, seps = faces[0]
        m = len(groups)
        for gi in range(m):
            heads = (groups[gi][0], seps[gi][0], seps[(gi + 1) % m][0], seps[(gi + 2) % m][0])
            primal = _SPLIT_PATTERNS.get(tuple(code[r] >> 3 & 3 for r in heads))
            if primal is not None:
                break
        else:
            raise StreamMeshError("no splittable tangency pattern on non-simple face")
        # rotate the lists so the carved group pair is groups[0], groups[1]
        groups = groups[gi:] + groups[:gi]
        seps = seps[gi:] + seps[:gi]
        # split the tangent next to the carved group pair on each side
        a, b = seps[0][-1], seps[2][0]
        a2, b2 = split_tangent(a), split_tangent(b)
        # the carved side runs b2 -> a2, the split points
        carved, main = add_chord(b2, a2, IN if primal else OUT)
        # carved face: a2, groups[0], seps[1], groups[1], b, carved; the
        # main face keeps a and continues main, b2, rest of seps[2].  Its
        # merged group leads, as a border walk from main lists it, so the
        # next pattern search meets the groups in the same order.
        faces.append(([groups[0], groups[1] + [b, carved]], [[a2], seps[1]]))
        merged = [main, b2, *seps[2][1:], *groups[2]]
        faces[0] = ([merged] + groups[3:], [seps[0]] + seps[3:])

    for face_id, (groups, _) in enumerate(faces):
        if len(groups) != 2:
            raise StreamMeshError(f"face {face_id} is not simple")
    # the border rows in border order, then the chords in the order drawn
    rows = order + list(twin)
    new = [0] * len(rows)
    for i, r in enumerate(rows):
        new[r] = i

    def renumber(lists):
        return [[new[r] for r in rs] for rs in lists]

    codes = [code[r] for r in rows]
    faces = [(renumber(groups), renumber(seps)) for groups, seps in faces]
    # a face's two groups are its runs, inflow first
    runs = []
    for groups, _ in faces:
        runs += groups if codes[groups[0][0]] >> 3 & 3 == IN else groups[::-1]
    return StreamMesh(
        mesh,
        facet,
        codes,
        [[column[r] for r in rows] for column in columns],
        elements,
        runs,
        {new[r]: new[t] for r, t in twin.items()},
        faces,
    )


class StreamMesh:
    """Stream mesh of one facet as flat rows.

    Row r is one piece.  The border pieces come first, in border order from
    the first piece of edge 0, so that element e holds rows
    ``elements[e]:elements[e + 1]`` and row ``r + 1`` follows row r round
    the border; the chords of a split facet follow them.  ``code[r]`` packs
    row r's element, behavior and sink into one int (see ``_CHORD``).  The
    other per-row lists are ``t0``, ``t1``, ``b0``, ``b1``, ``length`` and
    ``total``: the span, the field angles in degrees at its ends (relative
    to the border, or on chords to the chord), the length and the flux
    through the whole piece, 0.0 on tangents.  Face i has the
    inflow run ``2 i`` and the outflow run ``2 i + 1``: ``run_rows[k]``
    lists run k's rows in run order and ``run_prefix[k]`` its flux prefix
    sums, from 0.0 to the run's total.  ``run[r]`` is the run that holds
    row r, -1 outside every run, and ``start[r]`` the flux of that run
    before row r.  ``twin`` maps each chord row to the row of its twin.
    ``faces`` holds a split facet's faces as (groups, seps) lists of rows,
    in walk order: ``groups[i]`` one flow group's rows, with the tangents
    and chords among them, and ``seps[i]`` the tangents between groups
    i - 1 and i.  It is None on a facet of one pair, whose one face is its
    two runs and the tangents between them.
    """

    __slots__ = (
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
        "faces",
    )

    def __init__(self, mesh, facet, code, columns, elements, runs, twin=_NO_TWINS, faces=None):
        self.mesh = mesh
        self.facet = facet
        self.code = code
        self.t0, self.t1, self.b0, self.b1, self.length, self.total = columns
        self.elements = elements
        self.twin = twin
        self.faces = faces
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

    # -- conversions ---------------------------------------------------------

    def import_position(self, halfedge, c, enter):
        """Map a mesh border point into the stream mesh: (row, local c).

        ``halfedge`` must be one of this facet's own halfedges, and ``c``
        runs along it.  ``enter`` is the behavior code of the pieces a line
        may enter on: ``IN`` for forward lines, ``OUT`` for backward ones.
        Points landing on a tangency resolve to the endpoint of the adjacent
        entry piece; landing strictly inside a piece of the other flow is an
        error.
        """
        if halfedge // 3 != self.facet:
            raise StreamMeshError(
                f"halfedge {halfedge} is not a halfedge of facet {self.facet}"
            )
        k = halfedge % 3
        if not -VERTEX_SNAP <= c <= 1.0 + VERTEX_SNAP:
            raise StreamMeshError(f"entry parameter {c} outside [0, 1]")
        # min(1.0, max(0.0, c)), which keeps 0.0 where c is -0.0
        t = (1.0 if c > 1.0 else c) if c > 0.0 else 0.0
        entry = self.entry(2 * k, t, enter)
        if entry is None:
            raise StreamMeshError(
                f"entry at edge {k} t={t} of facet {self.facet} "
                f"is not on an {LABELS[enter]} piece or a tangency"
            )
        return entry

    def entry(self, element, t, enter, tol=0.0):
        """Entry (row, c) at parameter t of an element, or None.

        The first row of behavior code ``enter`` within ``tol`` of t takes
        it; failing that, a tangent row there resolves to its neighbors.
        None, where no row takes it, costs no exception: a vertex pivot
        probes the facets round the vertex this way.
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
                    c = (t - a) / (b - a)
                    return r, (1.0 if c > 1.0 else c) if c > 0.0 else 0.0
                if tangent is None and behavior >= TF:
                    tangent = r
        if tangent is None:
            return None
        return self._resolve_tangent_entry(tangent, enter)

    def _resolve_tangent_entry(self, r, enter):
        """Snap a tangency entry to the endpoint of the adjacent entry row, or None.

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
        while code[fwd] >> 3 & 3 >= TF:
            fwd = (fwd + 1) % n
        bwd = (r - 1) % n
        while code[bwd] >> 3 & 3 >= TF:
            bwd = (bwd - 1) % n
        order = [(fwd, 0.0), (bwd, 1.0)]
        if code[r] >> 3 & 3 == (TB if enter == IN else TF):
            order.reverse()
        for cand, c in order:
            if code[cand] >> 3 & 3 == enter:
                return cand, c
        return None

    def corner_entry(self, k, t, enter):
        """Entry (row, c) into the facet through corner k at corner parameter t.

        Used when a streamline starts at a vertex: the flow enters the facet
        through the corner's entry piece, of behavior code ``enter``,
        rather than across an edge.  A
        separatrix seed at a corner end is a root clamped onto the end,
        while the stream mesh may cut the corner a hair inside it; there
        the pieces within ``VERTEX_SNAP`` of the end are tried as well.
        """
        entry = self.entry(2 * k + 1, t, enter)
        if entry is None and t in (0.0, 1.0):
            entry = self.entry(2 * k + 1, t, enter, VERTEX_SNAP)
        if entry is None:
            raise StreamMeshError(
                f"corner {k} t={t} of facet {self.facet} is not an entry"
            )
        return entry

    def export_position(self, r, c):
        """Map a point of border row r back to the mesh: a ``(halfedge, c)`` pair.

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
            return h, 1.0 + t
        o = self.mesh._opposite_list[h]
        if self.mesh._facet_list[o] < 0:
            h, t = o, 1.0 - t
        if t < VERTEX_SNAP:
            t = 0.0
        elif t > 1.0 - VERTEX_SNAP:
            t = 1.0
        return h, t


def decompose(borders, facet) -> StreamMesh:
    """Decompose a facet into simple stream faces, as rows.

    ``borders`` is the mesh's ``BorderTable``.  A border of one
    inflow/outflow pair is one simple face, whose two flow groups are its
    runs, and goes to rows as the table cut it.  A border of more pairs is
    split on its rows first (``_split``).  A face with a run that carries
    no flux raises.
    """
    codes, columns, elements, first, bounds = borders.border(facet)
    if len(bounds) == 4:
        cycle = [*range(first, len(codes)), *range(first)]
        runs = [cycle[bounds[0] : bounds[1]], cycle[bounds[2] : bounds[3]]]
        if codes[runs[0][0]] >> 3 & 3 == OUT:
            runs.reverse()
        sm = StreamMesh(borders.mesh, facet, codes, columns, elements, runs)
    else:
        sm = _split(borders.mesh, facet, codes, columns, elements, first, bounds)
    for k, prefix in enumerate(sm.run_prefix):
        if prefix[-1] <= 0.0:
            raise StreamMeshError(f"simple face {k // 2} has a zero-flux run")
    return sm
