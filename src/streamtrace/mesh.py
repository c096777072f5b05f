"""Halfedge triangle mesh with per-facet reference frames.

The mesh is immutable once built: each of its tables is a read-only array,
its vertices and faces copies of the arrays it was given.  Halfedges of
facet ``f`` get the ids ``3*f``, ``3*f + 1`` and ``3*f + 2``; halfedge
``3*f + k`` runs from facet vertex ``k`` to facet vertex ``(k + 1) % 3``.
Boundary halfedges (no facet) are appended after the interior ones so that
every undirected edge has exactly two directed halfedges.

Each facet's reference direction ``r`` is the normalized direction of its
edge 0, so the angle from ``r`` to edge 0 is zero.  All per-facet geometry
(frames, edge lengths, corner and border direction angles) is precomputed
at build time as tables that callers read directly.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

import numpy as np

from .errors import MeshError

# a facet is degenerate when its area is below this fraction of the
# squared bounding box diagonal
_DEGENERATE_AREA_FRACTION = 1e-14


class TracePoint(NamedTuple):
    """A point on a mesh edge addressed by halfedge and parameter.

    ``c`` in [0, 1] is the linear parameter from the halfedge origin to its
    destination.  ``c`` in (1, 2] is a terminal encoding: the point sits on
    the destination vertex and the fractional part records where on the
    absorbing corner the streamline ended.  It equals and unpacks as ``(h, c)``.
    """

    halfedge: int
    c: float


class SurfaceMesh:
    """Manifold, consistently oriented triangle mesh.

    Each facet's planar geometry, against its reference direction r (edge
    0), is a read-only ``(n_facets, 3)`` table: rows of ``frame_u`` (along
    r) and ``frame_v`` span the facet plane; ``edge_lens[f, k]`` is edge
    k's length, ``edge_angles[f, k]`` the unwrapped angle from r to edge k
    (-0.0 on edge 0) and ``betas[f, k]`` the interior corner angle, in
    (0, pi), between edges k and k + 1, at facet vertex k + 1.
    """

    def __init__(self, vertices, faces):
        # copies: a caller's array, or another view of its memory, stays
        # writable and cannot change the mesh
        vertices = np.array(vertices, dtype=np.float64)
        try:
            faces = np.array(faces, dtype=np.int64)
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
        for table in vars(self).values():
            if isinstance(table, np.ndarray):
                table.setflags(write=False)

    # -- construction ---------------------------------------------------

    def _build_connectivity(self):
        """Halfedge tables from one stable sort of the ``(origin, dest)`` keys.

        Boundary halfedge ``n_interior + i`` is the twin of the i-th facet
        halfedge without one, in ascending id.
        """
        nv = len(self.vertices)
        n_interior = 3 * len(self.faces)
        origin = self.faces.ravel()
        dest = np.roll(self.faces, -1, axis=1).ravel()
        key = origin * nv + dest
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        # a repeated key follows its first halfedge in the stable order
        repeated = order[1:][sorted_key[1:] == sorted_key[:-1]]
        bad = np.concatenate([np.nonzero(origin == dest)[0], repeated])
        if len(bad):
            h = int(bad.min())
            f, u, v = h // 3, int(origin[h]), int(dest[h])
            if u == v:
                raise MeshError(f"facet {f} repeats vertex {u}")
            edge = f"non-manifold or inconsistently oriented edge ({u}, {v})"
            raise MeshError(f"{edge} at facet {f}")

        twin_key = dest * nv + origin
        at = np.minimum(np.searchsorted(sorted_key, twin_key), n_interior - 1)
        twin = np.where(sorted_key[at] == twin_key, order[at], -1)
        lone = np.nonzero(twin < 0)[0]
        n = n_interior + len(lone)
        b = np.arange(n_interior, n)
        twin[lone] = b

        h = np.arange(n_interior)
        first = h - h % 3  # 3 * facet
        self._origin = np.concatenate([origin, dest[lone]])
        self._dest = np.concatenate([dest, origin[lone]])
        self._opposite = np.concatenate([twin, lone])
        self._next = np.concatenate([first + (h + 1) % 3, np.empty_like(b)])
        self._prev = np.concatenate([first + (h + 2) % 3, np.empty_like(b)])
        self._facet = np.concatenate([h // 3, np.full_like(b, -1)])

        # outgoing halfedges of vertex v: _out[_out_start[v]:_out_start[v + 1]],
        # ascending by id, so boundary halfedges come last
        self._out = np.argsort(self._origin, kind="stable")
        self._out_start = np.cumsum(np.bincount(self._origin + 1, minlength=nv + 1))
        out_b = self._out[self._out >= n_interior]
        again = out_b[1:][self._origin[out_b[1:]] == self._origin[out_b[:-1]]]
        if len(again):
            u = int(self._origin[again.min()])
            raise MeshError(f"non-manifold boundary at vertex {u}")
        # a boundary halfedge enters a vertex one leaves: the facet halfedges
        # without a twin, which they reverse, enter and leave it equally often
        leaving = np.empty(nv, dtype=np.int64)
        leaving[self._origin[b]] = b
        self._next[b] = leaving[self._dest[b]]
        self._prev[self._next[b]] = b

        self._canonical = self._opposite > np.arange(n)
        # the trace path asks for one halfedge at a time: a list item is
        # an int already, where each numpy read builds a scalar
        self._opposite_list = self._opposite.tolist()
        self._facet_list = self._facet.tolist()
        self._vertex_on_boundary = np.bincount(self._origin[b], minlength=nv) > 0
        self.n_interior_halfedges = n_interior

    def _build_frames(self):
        """Precompute per-facet frames as ``(n_facets, 3)`` arrays.

        Every facet is computed at once, yet each value is bit-identical to
        a per-facet loop over 3-vectors: ``np.vecdot`` (new in NumPy 2.0)
        runs the same BLAS ``dot`` as ``np.dot`` and ``np.linalg.norm`` on
        one vector, and the corner angles go through ``math.acos`` one
        value at a time, since the numpy ufunc may round them differently.
        """
        nf = len(self.faces)
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
        u = es[:, 0] / lens[:, :1]
        v = np.cross(normal, u)

        # corner k sits between edge k and edge k + 1
        es1 = np.roll(es, -1, axis=1)
        cosb = np.vecdot(-es, es1) / (lens * np.roll(lens, -1, axis=1))
        cosb = np.clip(cosb, -1.0, 1.0).ravel().tolist()
        betas = np.fromiter(map(math.acos, cosb), np.float64, 3 * nf).reshape(nf, 3)

        # unwrapped angles from r to the edge directions: the turn at each
        # corner is pi - beta in (0, pi), accumulated, never reduced
        angles = np.empty((nf, 3))
        angles[:, 0] = -0.0  # r is edge 0, as a reference turned by +0.0
        angles[:, 1] = angles[:, 0] + (math.pi - betas[:, 0])
        angles[:, 2] = angles[:, 1] + (math.pi - betas[:, 1])

        self.frame_u = u
        self.frame_v = v
        self.edge_lens = lens
        self.betas = betas
        self.edge_angles = angles

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
        return self._opposite_list[h]

    def facet(self, h):
        """Facet id of a halfedge, or None for boundary halfedges."""
        f = self._facet_list[h]
        return None if f < 0 else f

    def has_facet(self, h):
        return self._facet_list[h] >= 0

    def halfedge_tables(self):
        """Read-only ``(facet, opposite, origin, dest)`` arrays indexed by halfedge id.

        ``facet`` is -1 on boundary halfedges, where ``facet(h)`` is None.
        """
        return self._facet, self._opposite, self._origin, self._dest

    def is_boundary_vertex(self, v):
        return bool(self._vertex_on_boundary[v])

    def edge_halfedges(self):
        """Canonical halfedge of every undirected edge, in ascending id.

        It is the lower id, so the facet side of a boundary edge.
        """
        return np.nonzero(self._canonical)[0]

    def canonical_halfedge(self, h):
        """The canonical halfedge of the edge of ``h``: ``h`` or its twin."""
        return h if self._canonical[h] else self._opposite_list[h]

    def interior_edge_pairs(self):
        """Halfedges ``(h, o)`` of each edge between two facets, ``h`` canonical."""
        h = self.edge_halfedges()
        o = self._opposite[h]
        keep = self._facet[o] >= 0
        return h[keep], o[keep]

    def vertex_valence(self, v):
        return int(self._out_start[v + 1] - self._out_start[v])

    def outgoing_halfedges(self, v):
        """Halfedges leaving ``v``, in ascending id."""
        return self._out[self._out_start[v] : self._out_start[v + 1]].tolist()

    def fan(self, h):
        """Every outgoing halfedge of ``origin(h)`` in fan order, from ``h``.

        Steps ``e -> opposite(prev(e))``, counterclockwise about the vertex
        from a halfedge with a facet, and stops before ``h``.  At a boundary
        vertex the step from the boundary halfedge crosses the gap to the
        first facet halfedge past it.
        """
        e = h
        while True:
            yield e
            e = int(self._opposite[self._prev[e]])
            if e == h:
                return

    def average_edge_length(self):
        # canonical halfedges have facets; cumsum adds in order, as a loop would
        lens = self.edge_lens.ravel()[self.edge_halfedges()]
        return float(np.cumsum(lens)[-1] / len(lens)) if len(lens) else 0.0

    def bbox_diagonal(self):
        lo, hi = self.vertices.min(axis=0), self.vertices.max(axis=0)
        return float(np.linalg.norm(hi - lo))

    def vertex_corners(self, v):
        """``(facet, corner k)`` of each corner at ``v``, by outgoing halfedge."""
        out = self.outgoing_halfedges(v)
        return [(h // 3, (h % 3 + 2) % 3) for h in out if self.has_facet(h)]

    # -- positions ----------------------------------------------------------

    def position(self, tp: TracePoint) -> np.ndarray:
        """World position of one trace point, a new 3-vector: ``positions_of``'s row."""
        h, c = tp
        return self.positions_of([h], [c])[0]

    def positions_of(self, halfedges, cs) -> np.ndarray:
        """World positions of the points ``(halfedges[i], cs[i])``, an ``(n, 3)`` array.

        For c in [0, 1] a point is ``(1 - c) * origin + c * dest`` along its
        halfedge; for c in (1, 2] it is the destination vertex (terminal
        sink encoding).  A c outside [0, 2] raises MeshError.
        """
        c = np.array(cs, dtype=float)
        bad = (c < 0.0) | (c > 2.0)  # a nan c is neither: its row is nan
        if np.count_nonzero(bad):
            raise MeshError(f"trace point parameter {c[bad][0]} outside [0, 2]")
        h = np.array(halfedges, dtype=np.int64)
        p0 = self.vertices[self._origin[h]]
        p1 = self.vertices[self._dest[h]]
        c = c[:, None]
        return np.where(c > 1.0, p1, (1.0 - c) * p0 + c * p1)


# the body of each ``v`` and ``f`` statement: the rest of a line whose first
# token is the keyword.  Lines end only at "\n", as they do for ``str.split``
# after universal newlines, and ``[^\S\n]`` is the whitespace that splits.
# A pattern that starts with a literal is searched for by a fast scan, so
# each line is matched from the "\n" before it.
_BODIES = {
    kw: re.compile(rf"\n[^\S\n]*{kw}(?:[^\S\n]+(.*))?$", re.MULTILINE) for kw in "vf"
}
# the attribute suffix of a face token, from the first "/" after its index
_SUFFIX = re.compile(r"(?<=\S)/\S*")


def load_obj(path) -> SurfaceMesh:
    """Load a triangle mesh from a Wavefront OBJ file.

    Supports ``v x y z`` and ``f i j k`` statements (1-based indices;
    ``i/j/k`` attribute suffixes are tolerated and ignored).  Everything
    else is skipped.  Faces must be triangles.  Numbers are ASCII decimal
    literals without ``_`` separators.

    The text is split once into the bodies of its ``v`` and ``f``
    statements, and each kind is converted by one ``np.loadtxt`` call.
    Only a file that fails is read again, line by line, to name its first
    bad line.
    """
    with open(path) as fh:
        text = "\n" + fh.read()
    vbodies, fbodies = (_BODIES[kw].findall(text) for kw in "vf")
    if "/" in text:
        fbodies = [_SUFFIX.sub("", body) for body in fbodies]
    coords = _parse_bodies(vbodies, np.float64, (0, 1, 2))
    faces = _parse_bodies(fbodies, np.int64, None)
    if (
        coords is None
        or faces is None
        or faces.shape[1] != 3
        or (faces.size and faces.min() <= 0)
    ):
        _raise_first_bad_line(path)
    if not faces.size:  # as SurfaceMesh refuses an empty list of faces
        raise MeshError("faces must be an (m, 3) array")
    return SurfaceMesh(coords, faces - 1)


def _parse_bodies(bodies, dtype, usecols):
    """``(len(bodies), k)`` numbers of statement bodies, ``k = 3`` for none.

    None if a body is blank (``np.loadtxt`` would skip it) or a token of
    its columns is not a number of ``dtype``.
    """
    if not bodies:
        return np.empty((0, 3), dtype)
    if "" in bodies:
        return None
    try:
        return np.loadtxt(bodies, dtype, comments=None, usecols=usecols, ndmin=2)
    except ValueError:
        return None


def decimal_literal(convert, token):
    """``convert(token)``, ``float`` or ``int``, as ``np.loadtxt`` parses it.

    Raises ValueError for a token that ``convert`` refuses, and for one it
    accepts that numpy refuses: with ``_`` separators or non-ASCII digits.
    """
    value = convert(token)
    if "_" in token or not token.isascii():
        raise ValueError(f"{token!r} is not an ASCII decimal literal without '_'")
    return value


def _raise_first_bad_line(path):
    """Raise the MeshError of the first OBJ line that fails a check of the loader."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                if len(parts) < 4:
                    raise MeshError(f"line {lineno}: vertex needs 3 coordinates")
                try:
                    for x in parts[1:4]:
                        decimal_literal(float, x)
                except ValueError as exc:
                    raise MeshError(f"line {lineno}: bad vertex: {exc}") from None
            elif parts[0] == "f":
                for tok in parts[1:]:
                    head = tok.split("/")[0]
                    try:
                        i = decimal_literal(int, head)
                    except ValueError:
                        raise MeshError(
                            f"line {lineno}: bad face index {head!r}"
                        ) from None
                    if i <= 0:
                        raise MeshError(f"line {lineno}: face indices are 1-based")
                if len(parts) != 4:
                    raise MeshError(
                        f"line {lineno}: face needs 3 vertex indices, "
                        f"got {len(parts) - 1}"
                    )
    # every line parses, so a face index did not fit int64
    raise MeshError("face references a vertex that does not exist")


def save_obj(path, mesh, polylines=None):
    """Write a mesh (or None) and optional ``l`` polylines of [x, y, z] rows to OBJ."""
    vertices = [] if mesh is None else mesh.vertices.tolist()
    faces = [] if mesh is None else mesh.faces.tolist()
    with open(path, "w") as fh:
        fh.write(_obj_vertex_lines(vertices))
        fh.write("".join(f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in faces))
        base = len(vertices) + 1
        for pts in polylines or ():
            rows = np.asarray(pts, dtype=float).tolist()
            block = _obj_vertex_lines(rows)
            if len(rows) >= 2:
                block += "l " + " ".join(map(str, range(base, base + len(rows)))) + "\n"
            fh.write(block)
            base += len(rows)


def _obj_vertex_lines(rows):
    return "".join(f"v {x!r} {y!r} {z!r}\n" for x, y, z in rows)
