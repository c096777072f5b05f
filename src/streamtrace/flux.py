"""Flux across stream-mesh pieces, in closed form.

The field angle relative to a straight piece of length L interpolates
linearly from B0 to B1, so the transverse flux through the sub-piece [0, c]
has the antiderivative

    phi(c) = L * (cos(B(c)) - cos(B0)) / (B1 - B0),    B(c) = B0 + c (B1 - B0),

with the degenerate limit -L c sin(B0) when B1 == B0.  The signed value is
negative on inflow pieces and positive on outflow pieces; run accumulation
uses the magnitude.

Corner pieces carry no transverse flux except when they absorb or emit the
flow head-on: an outflow corner sandwiched between a forward and a backward
tangency soaks up everything that converges on it (phi = c), and the
time-reversed sandwich emits (phi = -c).  Every other corner is a zero-flux
pass-through.  The stream mesh fixes that rule once per corner, in the
piece's ``sink`` sign, when it cuts the facet borders.

``phi_inverse`` picks the branch of arccos from the half-turn count of the
piece's midpoint angle, so it stays exact even when B sweeps across several
multiples of pi (the piece never does after segmentation, but chords built
from raw angle differences may sit in any band copy).

Pieces are rows of a ``StreamMesh``: ``accumulate``, ``locate``,
``offset`` and ``phi_inverse`` take the stream mesh and a row or run index
and read its flat per-row lists, with the row's behavior code
(``stream_mesh.IN`` to ``TB``) read from bits 3-4 of its code; they are
row-level internals, not part of the package namespace.  ``offset`` and the
chords that splits draw evaluate a flow piece through one formula,
``_flow``, and ``phi_totals`` makes the same float operations on the arrays
of a border table.

A line crosses facets as (row, flux offset): the flux through the row from
its start to the line.  ``accumulate`` adds the row's run prefix to an
offset, ``locate`` returns the exit row's offset next to its c, and the
next entry reads that offset from the mirror row's other end, so no
crossing converts c back to flux.  Only an entry given in c (a seed, a
vertex pivot) calls ``offset``; c is computed by ``phi_inverse`` once per
face, to record the exit.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

from .errors import FluxError
from .stream_mesh import IN, TF

_DEGENERATE_SWEEP = 1e-12

# degrees to radians in one multiply: the constant and the product that
# CPython's ``math.radians`` computes, without the call
_RAD = math.pi / 180.0


def _flow(corner, sink, b0, b1, length, c):
    """Signed flux through the sub-piece [0, c] of a flow piece, from its fields."""
    if corner:
        return sink * c
    b0 *= _RAD
    b1 *= _RAD
    db = b1 - b0
    if abs(db) < _DEGENERATE_SWEEP:
        return -length * c * math.sin(b0)
    return length * (math.cos(b0 + c * db) - math.cos(b0)) / db


def phi_totals(length, b0, b1):
    """Flux magnitude through whole straight pieces, from arrays of their fields.

    The same float operations as ``_flow`` at c = 1, elementwise.
    """
    r0 = np.radians(b0)
    db = np.radians(b1) - r0
    flat = np.abs(db) < _DEGENERATE_SWEEP
    swept = np.empty_like(r0)
    swept[flat] = -length[flat] * np.sin(r0[flat])
    bent = ~flat
    r, d = r0[bent], db[bent]
    swept[bent] = length[bent] * (np.cos(r + d) - np.cos(r)) / d
    return np.abs(swept)


def phi_inverse(sm, r, x, total) -> float:
    """Parameter c with flux x through [0, c] of row r; exact at x == 0 and x == total.

    ``total`` is the row's flux, ``sm.total[r]``, which ``locate`` reads.
    Each clamp returns what ``min(hi, max(lo, v))`` would, lo for a nan.
    """
    if x < 0.0 or x > total * (1.0 + 1e-9) + 1e-300:
        raise FluxError(f"flux value {x} outside [0, {total}]")
    if x == 0.0:
        return 0.0
    if x >= total:
        return 1.0
    code = sm.code[r]
    behavior = code >> 3 & 3
    if behavior >= TF:
        raise FluxError("tangent stream-halfedges carry no flux")
    if code & 1:
        if code >> 5 == 1:
            raise FluxError("corner piece without sink flux is not invertible")
        return (1.0 if x > 1.0 else x) if x > 0.0 else 0.0
    length = sm.length[r]
    b0 = sm.b0[r] * _RAD
    b1 = sm.b1[r] * _RAD
    db = b1 - b0
    sigma = -1.0 if behavior == IN else 1.0
    if abs(db) < _DEGENERATE_SWEEP:
        denom = length * abs(math.sin(b0))
        if denom == 0.0:
            raise FluxError("degenerate piece with zero flux density")
        c = x / denom
        return (1.0 if c > 1.0 else c) if c > 0.0 else 0.0
    u = math.cos(b0) + sigma * x * db / length
    u = (1.0 if u > 1.0 else u) if u > -1.0 else -1.0
    # branch of arccos from the half-turn the mid-angle sits in
    n = math.floor((b0 + 0.5 * db) / math.pi)
    t = math.acos(u)
    bt = n * math.pi + t if n % 2 == 0 else (n + 1) * math.pi - t
    c = (bt - b0) / db
    return (1.0 if c > 1.0 else c) if c > 0.0 else 0.0


def offset(sm, r, c) -> float:
    """Flux through [0, c] of row r: the offset of an entry at parameter c.

    0.0 on tangents, which carry no flux.
    """
    code = sm.code[r]  # bits: corner 0, behaviour 3-4, sink + 1 from 5
    if code >> 3 & 3 >= TF:
        return 0.0
    if not 0.0 <= c <= 1.0:
        raise FluxError(f"piece parameter {c} outside [0, 1]")
    return abs(_flow(code & 1, (code >> 5) - 1, sm.b0[r], sm.b1[r], sm.length[r], c))


def accumulate(sm, r, x) -> float:
    """Flux collected along the run of row r up to flux offset x on r.

    The offset is clamped into the row's ``[0, total]``: ``min(total,
    max(0.0, x))``, 0.0 for a nan, so a tangent row adds nothing.
    """
    if sm.run[r] < 0:
        raise FluxError(f"row {r} is not a member of a run")
    t = sm.total[r]
    return sm.start[r] + ((t if t < x else x) if x > 0.0 else 0.0)


def locate(sm, run, x):
    """Find (row, c, offset) at accumulated flux x along run ``run`` of sm.

    Ties at piece boundaries resolve to the earlier piece; zero-flux members
    (tangents interleaved in the run, pass-through corners) are skipped.
    Matches a linear scan over the run exactly.  The row's flux total is
    read from ``sm.total`` and handed to ``phi_inverse``, with the flux
    offset into the row, clamped into ``[0, total]``, which is returned too.
    """
    rows = sm.run_rows[run]
    prefix = sm.run_prefix[run]
    total = sm.total
    if x < 0.0:
        x = 0.0
    if x > prefix[-1]:
        x = prefix[-1]
    # prefix[j + 1] is the flux up to the end of the run's piece j
    j = bisect_left(prefix, x, 1) - 1
    # a zero-flux piece ends where the piece before it does, so bisect lands
    # on one only at x == 0, ahead of the first flux-bearing piece
    while total[rows[j]] == 0.0:
        j += 1
    r = rows[j]
    t = total[r]
    # prefix-sum roundoff may land a hair outside the piece's own range:
    # min(max(x - prefix[j], 0.0), t), which passes a nan through
    rem = 0.0 if x < prefix[j] else x - prefix[j]
    if t < rem:
        rem = t
    return r, phi_inverse(sm, r, rem, t), rem
