"""Fixed-step RK4 reference integrator over the same facet fields.

This exists to benchmark the combinatorial tracer against the conventional
approach, not to be good.  The field inside a facet is evaluated by blending
per-corner direction angles with barycentric weights; steps that leave the
facet are truncated at the border, the direction is carried over the edge by
the frame rotation of the shared edge, and the remainder of the step
continues in the neighbor.  Recorded points are the border crossings, so the
output is shape-compatible with the combinatorial tracer's polylines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TraceError
from .tracer import Polyline

_EDGE_EPS = 1e-12


@dataclass(frozen=True)
class RK4Config:
    step_fraction: float = 0.05  # of the average edge length
    max_steps: int = 200000

    def __post_init__(self):
        if not (math.isfinite(self.step_fraction) and self.step_fraction > 0.0):
            raise ValueError(f"RK4 step must be finite and above 0, got {self.step_fraction}")
        if not (isinstance(self.max_steps, int) and self.max_steps >= 1):
            raise ValueError(f"RK4 max_steps must be an int >= 1, got {self.max_steps!r}")


class _FacetField:
    """Barycentric blend of per-corner mean angles, one facet."""

    __slots__ = ("origin", "inv", "u", "v", "corner_dirs")

    def __init__(self, mesh, fieldsamples, f):
        p0, p1, p2 = mesh.vertices[mesh.faces[f]]
        self.origin = p0
        self.u, self.v = mesh.frame_u[f], mesh.frame_v[f]
        e1 = p1 - p0
        e2 = p2 - p0
        a = np.array(
            [
                [np.dot(e1, e1), np.dot(e1, e2)],
                [np.dot(e1, e2), np.dot(e2, e2)],
            ]
        )
        self.inv = np.linalg.inv(a) @ np.stack([e1, e2])
        nodes = fieldsamples.nodes[f]
        edge_angles = mesh.edge_angles[f]
        # corner k sits at facet vertex (k+1) % 3; angles relative to the
        # frame reference, kept on the continuous branch of the samples
        ang = np.zeros(3)
        for k in range(3):
            base = math.degrees(edge_angles[k])
            a0 = nodes[2 * k + 1] + base
            a1 = nodes[2 * k + 2] + math.degrees(
                edge_angles[(k + 1) % 3]
                if k < 2
                else edge_angles[2] + (math.pi - mesh.betas[f, 2])
            )
            ang[(k + 1) % 3] = 0.5 * (a0 + a1)
        self.corner_dirs = ang

    def bary(self, p):
        d = p - self.origin
        s, t = self.inv @ d
        return np.array([1.0 - s - t, s, t])

    def eval(self, p):
        w = self.bary(p)
        deg = float(w @ self.corner_dirs)
        r = math.radians(deg)
        return math.cos(r) * self.u + math.sin(r) * self.v


def _transport_angle(mesh, hf, direction3d):
    """Carry a direction across edge ``hf`` into the facet on its other side."""
    ho = mesh.opposite(hf)
    f, g = mesh.facet(hf), mesh.facet(ho)
    ang_f = math.atan2(
        float(np.dot(direction3d, mesh.frame_v[f])),
        float(np.dot(direction3d, mesh.frame_u[f])),
    )
    # angle of the shared directed edge (as directed in f) in both frames
    ef = mesh.edge_angles[f, hf % 3]
    eg = mesh.edge_angles[g, ho % 3] + math.pi
    ang_g = ang_f - ef + eg
    return math.cos(ang_g) * mesh.frame_u[g] + math.sin(ang_g) * mesh.frame_v[g]


def rk4_trace(mesh, fieldsamples, seed, config=RK4Config(), direction=None):
    """Integrate a streamline from a ``Seed`` with fixed-step RK4.

    Traces in ``seed.direction`` and records the border crossings.  A
    ``direction`` given as well must agree with the seed's.
    """
    if direction not in (None, seed.direction):
        raise TraceError(f"direction {direction!r} disagrees with the seed's")
    fs = fieldsamples if seed.direction == "forward" else fieldsamples.flipped()
    h_len = config.step_fraction * mesh.average_edge_length()

    tp0 = seed.point
    h0 = tp0.halfedge
    if not mesh.has_facet(h0):
        h0 = mesh.opposite(h0)
    f = mesh.facet(h0)
    if f is None:
        raise TraceError("seed bounds no facet")

    pl = Polyline(seed)
    pl.halfedges.append(tp0.halfedge)
    pl.cs.append(tp0.c)

    fields = {}

    def field_of(fi):
        ff = fields.get(fi)
        if ff is None:
            ff = _FacetField(mesh, fs, fi)
            fields[fi] = ff
        return ff

    p = mesh.position(tp0)
    # nudge off the border so the first step starts strictly inside
    verts = [mesh.vertices[i] for i in mesh.faces[f]]
    centroid = (verts[0] + verts[1] + verts[2]) / 3.0
    p = p + 1e-9 * (centroid - p)

    steps = 0
    while pl.termination is None and steps < config.max_steps:
        ff = field_of(f)
        k1 = ff.eval(p)
        k2 = ff.eval(p + 0.5 * h_len * k1)
        k3 = ff.eval(p + 0.5 * h_len * k2)
        k4 = ff.eval(p + h_len * k3)
        q = p + (h_len / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        steps += 1

        # stay-or-cross, possibly through several facets
        guard = 0
        while True:
            ff = field_of(f)
            wq = ff.bary(q)
            if np.all(wq >= -_EDGE_EPS):
                p = q
                break
            wp = ff.bary(p)
            t_exit, k_edge = None, None
            for m in range(3):
                if wq[m] < -_EDGE_EPS and wp[m] > wq[m]:
                    t = wp[m] / (wp[m] - wq[m])
                    if t_exit is None or t < t_exit:
                        t_exit = t
                        k_edge = (m + 1) % 3  # edge k has vertex (k+2)%3 opposite
            if t_exit is None:
                p = q
                break
            t_exit = min(1.0, max(0.0, t_exit))
            x = p + t_exit * (q - p)
            he = 3 * f + k_edge
            pa = mesh.vertices[mesh.origin(he)]
            ev = mesh.vertices[mesh.dest(he)] - pa
            c = float(np.dot(x - pa, ev) / np.dot(ev, ev))
            c = min(1.0, max(0.0, c))
            x_on = mesh.position((he, c))
            pl.halfedges.append(he)
            pl.cs.append(c)
            o = mesh.opposite(he)
            if not mesh.has_facet(o):
                pl.termination = "boundary"
                break
            d = q - p
            norm = float(np.linalg.norm(d))
            rem = (1.0 - t_exit) * norm
            d_g = _transport_angle(mesh, he, d / norm) if norm > 0 else None
            f = mesh.facet(o)
            if d_g is None or rem <= 0.0:
                q = x_on
                p = x_on
                break
            p = x_on
            q = x_on + rem * d_g
            guard += 1
            if guard > 64:
                raise TraceError("step crossed too many facets")

    pl.termination = pl.termination or "step-cap"
    pl.rk4_steps = steps
    pl.positions = mesh.positions_of(pl.halfedges, pl.cs)
    return pl
