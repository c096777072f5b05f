"""Procedural meshes: grids, discs, icospheres and tori.

Planar generators emit z = 0 meshes oriented counterclockwise as seen from
+z (what the planar field synthesizers expect).  Closed generators fix their
orientation by signed volume so normals point outward.
"""

from __future__ import annotations

import numpy as np

from .mesh import SurfaceMesh


def _mesh(vertices, faces):
    return SurfaceMesh(np.asarray(vertices, float), np.asarray(faces, np.int64))


def _planar(vertices, faces, what):
    """The planar mesh, once every facet is counterclockwise from +z.

    A distortion too large for the sizes folds facets; the ValueError names
    the first one and ``what``, the generator call.
    """
    tri = np.asarray(vertices, float)[np.asarray(faces, np.int64)]
    ab, ac = tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]
    area2 = ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0]
    folded = np.nonzero(~(area2 > 0.0))[0]
    if len(folded):
        raise ValueError(f"{what} folds facet {folded[0]}: its area is not positive")
    return _mesh(vertices, faces)


def grid(nx, ny, width=1.0, height=1.0, distortion=0.0, seed=0):
    """Triangulated rectangle: (nx+1) x (ny+1) vertices, 2 nx ny facets.

    ``distortion`` jitters interior vertices by that fraction of the cell
    spacing, keeping the boundary rectangle intact; one that folds a facet
    raises ValueError.
    """
    if nx < 1 or ny < 1:
        raise ValueError("grid needs at least one cell per side")
    if not distortion >= 0.0:
        raise ValueError(f"distortion must be at least 0, got {distortion}")
    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    verts = np.zeros(((nx + 1) * (ny + 1), 3))
    vid = lambda i, j: j * (nx + 1) + i
    rng = np.random.default_rng(seed)
    dx, dy = width / nx, height / ny
    for j in range(ny + 1):
        for i in range(nx + 1):
            x, y = xs[i], ys[j]
            if distortion > 0.0 and 0 < i < nx and 0 < j < ny:
                x += distortion * dx * rng.uniform(-0.5, 0.5)
                y += distortion * dy * rng.uniform(-0.5, 0.5)
            verts[vid(i, j)] = (x, y, 0.0)
    faces = []
    for j in range(ny):
        for i in range(nx):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            if (i + j) % 2 == 0:
                faces += [[a, b, c], [a, c, d]]
            else:
                faces += [[a, b, d], [b, c, d]]
    what = f"grid({nx} x {ny} cells, distortion {distortion}, seed {seed})"
    return _planar(verts, faces, what)


def disc(rings, sectors, distortion=0.0, seed=0):
    """Fan-and-ring triangulated unit disc centered at the origin.

    ``distortion`` perturbs the interior ring vertices radially and
    angularly by that fraction of the local spacing; the same seed gives the
    same connectivity across a distortion ladder, so drift comparisons see
    geometry changes only.  A distortion that folds a facet raises
    ValueError; coarse sector counts fold first.
    """
    if rings < 1 or sectors < 3:
        raise ValueError("disc needs rings >= 1 and sectors >= 3")
    if not distortion >= 0.0:
        raise ValueError(f"distortion must be at least 0, got {distortion}")
    rng = np.random.default_rng(seed)
    verts = [np.zeros(3)]
    ring_start = []
    for r in range(1, rings + 1):
        ring_start.append(len(verts))
        rho = r / rings
        for s in range(sectors):
            ang = 2.0 * np.pi * s / sectors
            if distortion > 0.0 and r < rings:
                rho_j = rho + distortion * (1.0 / rings) * rng.uniform(-0.5, 0.5)
                ang_j = ang + distortion * (2 * np.pi / sectors) * rng.uniform(
                    -0.5, 0.5
                )
            else:
                rho_j, ang_j = rho, ang
            verts.append(np.array([rho_j * np.cos(ang_j), rho_j * np.sin(ang_j), 0.0]))
    faces = []
    for s in range(sectors):
        faces.append([0, ring_start[0] + s, ring_start[0] + (s + 1) % sectors])
    for r in range(rings - 1):
        a0, b0 = ring_start[r], ring_start[r + 1]
        for s in range(sectors):
            s1 = (s + 1) % sectors
            faces.append([a0 + s, b0 + s, b0 + s1])
            faces.append([a0 + s, b0 + s1, a0 + s1])
    what = f"disc({rings} rings, {sectors} sectors, distortion {distortion}, seed {seed})"
    return _planar(verts, faces, what)


def _signed_volume(verts, faces):
    v = verts[faces]
    return float(np.einsum("ij,ij->", np.cross(v[:, 0], v[:, 1]), v[:, 2]) / 6.0)


def _outward(verts, faces):
    faces = np.asarray(faces, np.int64)
    if _signed_volume(np.asarray(verts, float), faces) < 0.0:
        faces = faces[:, ::-1]
    return _mesh(verts, faces)


def icosphere(subdivisions=1):
    """Icosahedron subdivided ``subdivisions`` times, projected to the unit sphere.

    A negative ``subdivisions`` raises ValueError.
    """
    if subdivisions < 0:
        raise ValueError(f"subdivisions must be at least 0, got {subdivisions}")
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = [
        (-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
        (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
        (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1),
    ]
    verts = [np.array(v, float) / np.linalg.norm(v) for v in verts]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    for _ in range(subdivisions):
        cache = {}

        def midpoint(a, b):
            key = (min(a, b), max(a, b))
            m = cache.get(key)
            if m is None:
                p = verts[a] + verts[b]
                verts.append(p / np.linalg.norm(p))
                m = len(verts) - 1
                cache[key] = m
            return m

        nf = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            nf += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = nf
    return _outward(np.array(verts), np.array(faces))


def torus(n_major=24, n_minor=12):
    """Torus of ``n_major`` x ``n_minor`` quads, each split in two facets.

    Its center circle has radius 2, its tube radius 0.7.
    """
    major, minor = 2.0, 0.7
    verts = []
    for i in range(n_major):
        u = 2.0 * np.pi * i / n_major
        for j in range(n_minor):
            v = 2.0 * np.pi * j / n_minor
            w = major + minor * np.cos(v)
            verts.append((w * np.cos(u), w * np.sin(u), minor * np.sin(v)))
    vid = lambda i, j: (i % n_major) * n_minor + (j % n_minor)
    faces = []
    for i in range(n_major):
        for j in range(n_minor):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            faces += [[a, b, c], [a, c, d]]
    return _outward(np.array(verts, float), faces)

