import math

import numpy as np
import pytest

from streamtrace import FieldSamples, StreamMeshError, SurfaceMesh, meshgen, synth_field
from streamtrace.field import normalize_sample
from streamtrace.stream_mesh import Behavior


@pytest.fixture(scope="session")
def strip10():
    return meshgen.strip(10)


@pytest.fixture(scope="session")
def grid10():
    return meshgen.grid(10, 10)


@pytest.fixture(scope="session")
def disc_mesh():
    return meshgen.disc(6, 24)


@pytest.fixture(scope="session")
def icosphere2():
    return meshgen.icosphere(2)


@pytest.fixture(scope="session")
def torus_mesh():
    return meshgen.torus()


@pytest.fixture(scope="session")
def sphere_random_field(icosphere2):
    return synth_field(icosphere2, "smoothed-random", seed=0)


def single_triangle(rng, min_area2=0.05):
    """One ccw triangle in the z = 0 plane, rejection-sampled to stay fat."""
    while True:
        pts = rng.uniform(-1.0, 1.0, (3, 3))
        pts[:, 2] = 0.0
        e1 = pts[1] - pts[0]
        e2 = pts[2] - pts[0]
        if e1[0] * e2[1] - e1[1] * e2[0] > min_area2:
            return SurfaceMesh(pts, [[0, 1, 2]])


def random_samples(rng, winding_span=2):
    """Random 6-sample row with windings in [-span, span]."""
    vals = rng.uniform(0.0, 360.0, 6) + 360.0 * rng.integers(
        -winding_span, winding_span + 1, 6
    )
    ang = np.empty((1, 6))
    wnd = np.empty((1, 6), dtype=np.int64)
    for i in range(6):
        a, w = normalize_sample(float(vals[i]))
        ang[0, i] = a
        wnd[0, i] = w
    return FieldSamples(ang, wnd)


def wound_config(rng, winding_span=2):
    return single_triangle(rng), random_samples(rng, winding_span)


def samples_from_reals(values):
    """FieldSamples for one facet from six real angles in degrees."""
    ang = np.empty((1, 6))
    wnd = np.empty((1, 6), dtype=np.int64)
    for i, v in enumerate(values):
        a, w = normalize_sample(float(v))
        ang[0, i] = a
        wnd[0, i] = w
    return FieldSamples(ang, wnd)


def right_triangle():
    """Unit right triangle (0,0) (1,0) (0,1), ccw in the plane."""
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return SurfaceMesh(verts, [[0, 1, 2]])


def constant_samples(mesh, angle_deg):
    return synth_field(mesh, "constant", angle_deg=angle_deg)


def boundary_halfedges(mesh):
    return [
        h
        for h in range(mesh.n_interior_halfedges)
        if not mesh.has_facet(mesh.opposite(h))
    ]


def assert_close(a, b, tol, msg=""):
    assert abs(a - b) <= tol, f"{msg} |{a} - {b}| = {abs(a - b)} > {tol}"


# -- stream-mesh face queries, over ``sm.faces`` -------------------------------


def a_sequence(sm, face_id):
    """Alternation profile of a face border, one value per flow group.

    Starts at 0 on an outflow group; steps by +1 or -1 per the type of
    the tangency separating consecutive groups.  Closes one period at
    -2, which reflects that the border direction gains a full turn per
    loop; strictly decreasing over the period means the face is simple.
    """
    groups, seps = sm.faces[face_id]
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


def is_simple(sm, face_id):
    return len(sm.faces[face_id][0]) == 2


def split_count(sm):
    """Splits a decomposition made: each one carved off one face."""
    return len(sm.faces) - 1
