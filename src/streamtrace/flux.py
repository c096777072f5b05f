"""Flux across stream-mesh pieces, in closed form.

The field angle relative to a straight piece of length L interpolates
linearly from B0 to B1, so the transverse flux through the sub-piece [0, c]
has the antiderivative

    phi(c) = L * (cos(B(c)) - cos(B0)) / (B1 - B0),    B(c) = B0 + c (B1 - B0),

with the degenerate limit -L c sin(B0) when B1 == B0.  The signed value is
negative on inflow pieces and positive on outflow pieces; ``phi`` returns the
magnitude, which is what run accumulation uses.

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
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

from .errors import FluxError
from .stream_mesh import Behavior

_DEGENERATE_SWEEP = 1e-12


def _check_c(c):
    if not 0.0 <= c <= 1.0:
        raise FluxError(f"piece parameter {c} outside [0, 1]")


def phi_signed(sh, c) -> float:
    _check_c(c)
    if sh.behavior.is_tangent:
        raise FluxError("tangent stream-halfedges carry no flux")
    if sh.kind == "corner":
        return sh.sink * c
    b0 = math.radians(sh.b0)
    b1 = math.radians(sh.b1)
    db = b1 - b0
    if abs(db) < _DEGENERATE_SWEEP:
        return -sh.length * c * math.sin(b0)
    return sh.length * (math.cos(b0 + c * db) - math.cos(b0)) / db


def phi(sh, c) -> float:
    """Flux magnitude through the sub-piece [0, c] of a stream-halfedge."""
    return abs(phi_signed(sh, c))


def phi_totals(length, b0, b1):
    """``phi(sh, 1.0)`` of straight pieces, from arrays of their fields.

    The same float operations as ``phi_signed`` at c = 1, elementwise.
    """
    r0 = np.radians(b0)
    db = np.radians(b1) - r0
    flat = np.abs(db) < _DEGENERATE_SWEEP
    swept = length * (np.cos(r0 + db) - np.cos(r0)) / np.where(flat, 1.0, db)
    return np.abs(np.where(flat, -length * np.sin(r0), swept))


def phi_inverse(sh, x, total) -> float:
    """Parameter c with phi(sh, c) == x; exact at x == 0 and x == total.

    ``total`` is ``phi(sh, 1.0)``, which ``locate`` reads from the run's
    ``totals``.
    """
    if x < 0.0 or x > total * (1.0 + 1e-9) + 1e-300:
        raise FluxError(f"flux value {x} outside [0, {total}]")
    if x == 0.0:
        return 0.0
    if x >= total:
        return 1.0
    if sh.behavior.is_tangent:
        raise FluxError("tangent stream-halfedges carry no flux")
    if sh.kind == "corner":
        if sh.sink == 0:
            raise FluxError("corner piece without sink flux is not invertible")
        return min(1.0, max(0.0, x))
    b0 = math.radians(sh.b0)
    b1 = math.radians(sh.b1)
    db = b1 - b0
    sigma = -1.0 if sh.behavior == Behavior.IN else 1.0
    if abs(db) < _DEGENERATE_SWEEP:
        denom = sh.length * abs(math.sin(b0))
        if denom == 0.0:
            raise FluxError("degenerate piece with zero flux density")
        return min(1.0, max(0.0, x / denom))
    u = math.cos(b0) + sigma * x * db / sh.length
    u = min(1.0, max(-1.0, u))
    # branch of arccos from the half-turn the mid-angle sits in
    n = math.floor((b0 + 0.5 * db) / math.pi)
    t = math.acos(u)
    bt = n * math.pi + t if n % 2 == 0 else (n + 1) * math.pi - t
    return min(1.0, max(0.0, (bt - b0) / db))


def accumulate(run, sh, c) -> float:
    """Flux magnitude collected along a run up to parameter c on member sh."""
    i = sh.run_index
    if i is None or i >= len(run.pieces) or run.pieces[i] is not sh:
        raise FluxError("stream-halfedge is not a member of this run")
    own = 0.0 if sh.behavior.is_tangent else phi(sh, c)
    return run.starts[i] + own


def locate(run, x):
    """Find (piece, c) at accumulated flux x along a run.

    Ties at piece boundaries resolve to the earlier piece; zero-flux members
    (tangents interleaved in the run, pass-through corners) are skipped.
    Matches a linear scan over the run exactly.  The piece's flux total is
    read from ``run.totals``, which ``finalize`` filled with ``phi(sh, 1.0)``,
    and handed to ``phi_inverse``.
    """
    if x < 0.0:
        x = 0.0
    if x > run.total:
        x = run.total
    j = bisect_left(run.ends, x)
    # a zero-flux piece ends where the piece before it does, so bisect lands
    # on one only at x == 0, ahead of the first flux-bearing piece
    while run.totals[j] == 0.0:
        j += 1
    sh = run.pieces[j]
    # prefix-sum roundoff may land a hair outside the piece's own range
    total = run.totals[j]
    rem = min(max(x - run.starts[j], 0.0), total)
    return sh, phi_inverse(sh, rem, total)
