"""Halfedge triangle mesh with per-facet reference frames.

The mesh is immutable once built.  Halfedges of facet ``f`` get the ids
``3*f``, ``3*f + 1`` and ``3*f + 2``; halfedge ``3*f + k`` runs from facet
vertex ``k`` to facet vertex ``(k + 1) % 3``.  Boundary halfedges (no facet)
are appended after the interior ones so that every undirected edge has
exactly two directed halfedges.

Each facet carries a reference direction ``r`` lying in its plane.  By
default ``r`` is the normalized direction of edge 0, so the angle from ``r``
to edge 0 is exactly zero.  All per-facet angular data (border direction
angles, corner angles) is precomputed at build time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MeshError

# a facet is degenerate when its area is below this fraction of the
# squared bounding box diagonal
_DEGENERATE_AREA_FRACTION = 1e-14


@dataclass(frozen=True)
class TracePoint:
    """A point on a mesh edge addressed by halfedge and parameter.

    ``c`` in [0, 1] is the linear parameter from the halfedge origin to its
    destination.  ``c`` in (1, 2] is a terminal encoding: the point sits on
    the destination vertex and the fractional part records where on the
    absorbing corner the streamline ended.
    """

    halfedge: int
    c: float


@dataclass(frozen=True)
class FacetFrame:
    """Planar geometry of one facet, expressed against its reference r.

    ``u`` and ``v`` span the facet plane (``u`` is the reference direction
    r), ``edge_angles[k]`` is the unwrapped angle from r to edge k
    (``edge_angles[0] == 0`` when r is not rotated), ``betas[k]`` is the
    interior corner angle between edge k and edge k+1, in (0, pi).
    """

    u: np.ndarray
    v: np.ndarray
    edge_lens: np.ndarray
    edge_angles: np.ndarray
    betas: np.ndarray


class SurfaceMesh:
    """Manifold, consistently oriented triangle mesh."""

    def __init__(self, vertices, faces):
        vertices = np.asarray(vertices, dtype=np.float64)
        try:
            faces = np.asarray(faces, dtype=np.int64)
        except OverflowError:
            raise MeshError("face references a vertex that does not exist") from None
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise MeshError("vertices must be an (n, 3) array")
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise MeshError("faces must be an (m, 3) array")
        if faces.size and (faces.min() < 0 or faces.max() >= len(vertices)):
            raise MeshError("face references a vertex that does not exist")
        bad = np.nonzero(~np.isfinite(vertices).all(axis=1))[0]
        if len(bad):
            raise MeshError(f"vertex {bad[0]} has a non-finite coordinate")
        self.vertices = vertices
        self.faces = faces
        self._build_connectivity()
        self._build_frames()
        self.vertices.setflags(write=False)
        self.faces.setflags(write=False)

    # -- construction ---------------------------------------------------

    def _build_connectivity(self):
        nf = len(self.faces)
        n_interior = 3 * nf
        directed = {}  # (origin, dest) -> halfedge, in ascending halfedge order
        for f, (a, b, c) in enumerate(self.faces.tolist()):
            for k, (u, v) in enumerate(((a, b), (b, c), (c, a))):
                if u == v:
                    raise MeshError(f"facet {f} repeats vertex {u}")
                if (u, v) in directed:
                    raise MeshError(
                        f"non-manifold or inconsistently oriented edge "
                        f"({u}, {v}) at facet {f}"
                    )
                directed[(u, v)] = 3 * f + k

        opposite = np.full(n_interior, -1, dtype=np.int64)
        boundary_pairs = []  # (origin, dest) of boundary halfedges to create
        for (u, v), h in directed.items():
            twin = directed.get((v, u))
            if twin is not None:
                opposite[h] = twin
            else:
                boundary_pairs.append((v, u))

        nb = len(boundary_pairs)
        n = n_interior + nb
        self._origin = np.empty(n, dtype=np.int64)
        self._dest = np.empty(n, dtype=np.int64)
        self._opposite = np.empty(n, dtype=np.int64)
        self._next = np.empty(n, dtype=np.int64)
        self._prev = np.empty(n, dtype=np.int64)
        self._facet = np.empty(n, dtype=np.int64)

        self._origin[:n_interior] = self.faces.ravel()
        self._dest[:n_interior] = np.roll(self.faces, -1, axis=1).ravel()
        self._opposite[:n_interior] = opposite
        h = np.arange(n_interior)
        first = h - h % 3  # 3 * facet
        self._next[:n_interior] = first + (h + 1) % 3
        self._prev[:n_interior] = first + (h + 2) % 3
        self._facet[:n_interior] = h // 3

        boundary_by_origin = {}
        for i, (u, v) in enumerate(boundary_pairs):
            b = n_interior + i
            if u in boundary_by_origin:
                raise MeshError(f"non-manifold boundary at vertex {u}")
            boundary_by_origin[u] = b
            self._origin[b] = u
            self._dest[b] = v
            self._facet[b] = -1
            h = directed[(v, u)]
            self._opposite[b] = h
            self._opposite[h] = b
        for i, (u, v) in enumerate(boundary_pairs):
            b = n_interior + i
            nxt = boundary_by_origin.get(v)
            if nxt is None:
                raise MeshError(f"open boundary fan at vertex {v}")
            self._next[b] = nxt
            self._prev[nxt] = b

        # outgoing halfedges per vertex; remember which vertices touch the
        # boundary (those get a boundary halfedge as well)
        self._vertex_out = [[] for _ in range(len(self.vertices))]
        for h, u in enumerate(self._origin.tolist()):
            self._vertex_out[u].append(h)
        self._vertex_on_boundary = np.zeros(len(self.vertices), dtype=bool)
        self._vertex_on_boundary[self._origin[n_interior:]] = True
        self._vertex_on_boundary[self._dest[n_interior:]] = True
        self._vertex_on_boundary.setflags(write=False)
        self.n_interior_halfedges = n_interior

    def _build_frames(self, reference_offsets=None):
        """Precompute per-facet frames as ``(n_facets, 3)`` arrays.

        ``reference_offsets`` rotates each facet's reference direction r by
        the given angle (radians, counterclockwise in the facet plane).  The
        default of zero pins r to edge 0.  Rotated references exist so tests
        can check that traced points do not depend on the choice of r.

        Every facet is computed at once, yet each value is bit-identical to
        a per-facet loop over 3-vectors: ``np.vecdot`` (new in NumPy 2.0)
        runs the same BLAS ``dot`` as ``np.dot`` and ``np.linalg.norm`` on
        one vector, and the corner angles and offset rotations go through
        ``math.acos``, ``math.cos`` and ``math.sin`` one value at a time,
        since the numpy ufuncs may round those differently.
        """
        nf = len(self.faces)
        if reference_offsets is None:
            reference_offsets = np.zeros(nf)
        offs = np.asarray(reference_offsets, dtype=float)

        tri = self.vertices[self.faces]  # (nf, 3 corners, 3 coordinates)
        es = np.roll(tri, -1, axis=1) - tri  # edge k runs corner k -> k + 1
        lens = np.sqrt(np.vecdot(es, es))
        normal = np.cross(es[:, 0], -es[:, 2])
        norms = np.sqrt(np.vecdot(normal, normal))
        if nf:
            # reject degenerate facets before dividing by their zero norms
            lo, hi = self.vertices.min(axis=0), self.vertices.max(axis=0)
            bbox_sq = float(np.dot(hi - lo, hi - lo))
            bad = np.nonzero(0.5 * norms < _DEGENERATE_AREA_FRACTION * bbox_sq)[0]
            if len(bad):
                raise MeshError(f"degenerate facet {bad[0]}")
        normal /= norms[:, None]
        u0 = es[:, 0] / lens[:, :1]
        v0 = np.cross(normal, u0)
        turned = offs != 0.0
        cos = np.array([math.cos(o) for o in offs[turned].tolist()])[:, None]
        sin = np.array([math.sin(o) for o in offs[turned].tolist()])[:, None]
        u, v = u0.copy(), v0.copy()
        u[turned] = cos * u0[turned] + sin * v0[turned]
        v[turned] = cos * v0[turned] - sin * u0[turned]

        # corner k sits between edge k and edge k + 1
        es1 = np.roll(es, -1, axis=1)
        cosb = np.vecdot(-es, es1) / (lens * np.roll(lens, -1, axis=1))
        betas = np.array(
            [math.acos(min(1.0, max(-1.0, c))) for c in cosb.ravel().tolist()]
        ).reshape(nf, 3)

        # unwrapped angles from r to the edge directions: the turn at each
        # corner is pi - beta in (0, pi), accumulated, never reduced
        angles = np.empty((nf, 3))
        angles[:, 0] = -offs  # angle from r to edge 0
        angles[:, 1] = angles[:, 0] + (math.pi - betas[:, 0])
        angles[:, 2] = angles[:, 1] + (math.pi - betas[:, 1])

        for table in (u, v, lens, betas, angles):
            table.setflags(write=False)
        self._frame_u = u
        self._frame_v = v
        self._edge_lens = lens
        self._betas = betas
        self._edge_angles = angles

    # -- basic queries ----------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_facets(self):
        return len(self.faces)

    @property
    def n_halfedges(self):
        return len(self._origin)

    @property
    def n_edges(self):
        return self.n_halfedges // 2

    def euler_characteristic(self):
        return self.n_vertices - self.n_edges + self.n_facets

    def origin(self, h):
        return int(self._origin[h])

    def dest(self, h):
        return int(self._dest[h])

    def next(self, h):
        return int(self._next[h])

    def prev(self, h):
        return int(self._prev[h])

    def opposite(self, h):
        return int(self._opposite[h])

    def facet(self, h):
        """Facet id of a halfedge, or None for boundary halfedges."""
        f = int(self._facet[h])
        return None if f < 0 else f

    def has_facet(self, h):
        return self._facet[h] >= 0

    def is_boundary_vertex(self, v):
        return bool(self._vertex_on_boundary[v])

    def interior_edge_pairs(self):
        """Halfedges ``(h, o)`` of every edge between two facets, as arrays.

        Each such edge appears once, with ``h < o``, in ascending ``h``.
        """
        h = np.arange(self.n_interior_halfedges)
        o = self._opposite[: self.n_interior_halfedges]
        keep = (o > h) & (self._facet[o] >= 0)
        return h[keep], o[keep]

    def vertex_valence(self, v):
        return len(self._vertex_out[v])

    def outgoing_halfedges(self, v):
        return list(self._vertex_out[v])

    def fan(self, h):
        """Outgoing halfedges around ``origin(h)`` in fan order, from ``h``.

        Steps ``e -> opposite(prev(e))``, counterclockwise about the vertex,
        and stops after the first halfedge without a facet or before ``h``.
        """
        e = h
        while True:
            yield e
            if self._facet[e] < 0:
                return
            e = int(self._opposite[self._prev[e]])
            if e == h:
                return

    def edge_length(self, h):
        if not self.has_facet(h):
            h = self.opposite(h)
        return float(self._edge_lens[h // 3, h % 3])

    def average_edge_length(self):
        total = 0.0
        count = 0
        for h in range(self.n_halfedges):
            if self.has_facet(h) and (
                self.opposite(h) > h or not self.has_facet(self.opposite(h))
            ):
                total += self.edge_length(h)
                count += 1
        return total / count if count else 0.0

    def bbox_diagonal(self):
        lo, hi = self.vertices.min(axis=0), self.vertices.max(axis=0)
        return float(np.linalg.norm(hi - lo))

    def frame(self, f) -> FacetFrame:
        return FacetFrame(
            u=self._frame_u[f],
            v=self._frame_v[f],
            edge_lens=self._edge_lens[f],
            edge_angles=self._edge_angles[f],
            betas=self._betas[f],
        )

    def set_reference_offsets(self, offsets):
        """Rebuild frames with rotated per-facet reference directions.

        Testing hook: all traced positions must be invariant under this.
        """
        self._build_frames(reference_offsets=offsets)

    # -- angular queries --------------------------------------------------

    def corner_angle(self, h):
        """Interior angle, in (0, pi), at the corner halfedge ``h`` points to.

        Raises MeshError for boundary halfedges.
        """
        if not self.has_facet(h):
            raise MeshError(f"corner angle undefined on boundary halfedge {h}")
        return float(self._betas[h // 3, h % 3])

    def corner_angle_sum(self, v):
        total = 0.0
        for h in self._vertex_out[v]:
            if self.has_facet(h):
                # corner sitting at origin(h) inside facet(h)
                total += self._betas[h // 3, (h % 3 + 2) % 3]
        return total

    def angle_defect(self, v):
        """2*pi minus the sum of incident corner angles, interior vertices only."""
        if self._vertex_on_boundary[v]:
            raise MeshError(f"angle defect undefined for boundary vertex {v}")
        return 2.0 * math.pi - self.corner_angle_sum(v)

    # -- positions ----------------------------------------------------------

    def position(self, tp: TracePoint) -> np.ndarray:
        """World position of a trace point.

        For c in [0, 1] the point is interpolated along the halfedge; for
        c in (1, 2] it is the destination vertex (terminal sink encoding).
        """
        c = tp.c
        if c < 0.0 or c > 2.0:
            raise MeshError(f"trace point parameter {c} outside [0, 2]")
        p0 = self.vertices[self._origin[tp.halfedge]]
        p1 = self.vertices[self._dest[tp.halfedge]]
        if c <= 1.0:
            return (1.0 - c) * p0 + c * p1
        return p1.copy()


def load_obj(path) -> SurfaceMesh:
    """Load a triangle mesh from a Wavefront OBJ file.

    Supports ``v x y z`` and ``f i j k`` statements (1-based indices;
    ``i/j/k`` attribute suffixes are tolerated and ignored).  Everything
    else is skipped.  Faces must be triangles.
    """
    vertices = []
    faces = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "v":
                if len(parts) < 4:
                    raise MeshError(f"line {lineno}: vertex needs 3 coordinates")
                try:
                    vertices.append([float(x) for x in parts[1:4]])
                except ValueError as exc:
                    raise MeshError(f"line {lineno}: bad vertex: {exc}") from None
            elif parts[0] == "f":
                idx = []
                for tok in parts[1:]:
                    head = tok.split("/")[0]
                    try:
                        i = int(head)
                    except ValueError:
                        raise MeshError(
                            f"line {lineno}: bad face index {head!r}"
                        ) from None
                    if i <= 0:
                        raise MeshError(f"line {lineno}: face indices are 1-based")
                    idx.append(i - 1)
                if len(idx) != 3:
                    raise MeshError(
                        f"line {lineno}: face needs 3 vertex indices, got {len(idx)}"
                    )
                faces.append(idx)
    return SurfaceMesh(np.array(vertices, dtype=float).reshape(-1, 3), faces)


def save_obj(path, mesh, polylines=None):
    """Write a mesh (or None) and optional ``l`` polylines to an OBJ file."""
    if mesh is None:
        vertices, faces = [], []
    else:
        vertices, faces = mesh.vertices, mesh.faces
    with open(path, "w") as fh:
        for p in vertices:
            fh.write(f"v {float(p[0])!r} {float(p[1])!r} {float(p[2])!r}\n")
        for tri in faces:
            fh.write(f"f {int(tri[0]) + 1} {int(tri[1]) + 1} {int(tri[2]) + 1}\n")
        if polylines:
            base = len(vertices) + 1
            for pts in polylines:
                ids = []
                for p in pts:
                    fh.write(f"v {float(p[0])!r} {float(p[1])!r} {float(p[2])!r}\n")
                    ids.append(base)
                    base += 1
                if len(ids) >= 2:
                    fh.write("l " + " ".join(str(i) for i in ids) + "\n")
