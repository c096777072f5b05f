import math

import numpy as np
import pytest

from streamtrace import MeshError, SurfaceMesh, TracePoint, load_obj, save_obj
from streamtrace import meshgen

from conftest import boundary_halfedges, right_triangle


def test_halfedge_ids_follow_facet_layout(grid10):
    m = grid10
    for f in range(m.n_facets):
        for k in range(3):
            h = 3 * f + k
            assert m.facet(h) == f
            assert m.origin(h) == m.faces[f][k]
            assert m.dest(h) == m.faces[f][(k + 1) % 3]
            assert m.next(h) == 3 * f + (k + 1) % 3
            assert m.prev(h) == 3 * f + (k + 2) % 3


def test_opposite_is_involutive_and_reversed(grid10):
    m = grid10
    for h in range(m.n_halfedges):
        o = m.opposite(h)
        assert m.opposite(o) == h
        assert m.origin(h) == m.dest(o)
        assert m.dest(h) == m.origin(o)


def test_boundary_halfedges_have_no_facet(strip10):
    m = strip10
    for h in range(m.n_interior_halfedges, m.n_halfedges):
        assert not m.has_facet(h)
    # a 10 x 1 strip has 22 border edges
    assert m.n_halfedges - m.n_interior_halfedges == 22


def test_closed_mesh_has_no_boundary(icosphere2):
    m = icosphere2
    assert m.n_halfedges == m.n_interior_halfedges
    assert m.euler_characteristic() == 2
    assert not any(m.is_boundary_vertex(v) for v in range(m.n_vertices))


def test_torus_euler_characteristic(torus_mesh):
    assert torus_mesh.euler_characteristic() == 0


def test_nonmanifold_edge_rejected():
    verts = np.zeros((5, 3))
    verts[:4, :2] = [(0, 0), (1, 0), (0, 1), (1, 1)]
    verts[4] = (0.5, 0.5, 1.0)
    with pytest.raises(MeshError):
        SurfaceMesh(verts, [[0, 1, 2], [1, 0, 3], [0, 1, 4]])


def test_corner_angles_of_right_triangle():
    m = right_triangle()
    # corner k sits at facet-vertex (k+1)%3, so the right angle is corner 2
    assert math.isclose(m.corner_angle(0), math.pi / 4)
    assert math.isclose(m.corner_angle(1), math.pi / 4)
    assert math.isclose(m.corner_angle(2), math.pi / 2)
    assert math.isclose(sum(m.corner_angle(k) for k in range(3)), math.pi)


def test_angle_defect_flat_interior_vertex(grid10):
    m = grid10
    inner = [v for v in range(m.n_vertices) if not m.is_boundary_vertex(v)]
    assert inner
    for v in inner[:10]:
        assert abs(m.angle_defect(v)) < 1e-12


def test_angle_defect_icosphere_sums_to_4pi(icosphere2):
    m = icosphere2
    total = sum(m.angle_defect(v) for v in range(m.n_vertices))
    assert abs(total - 4 * math.pi) < 1e-9


def test_frame_angles_unwrap_by_exterior_angles():
    rng = np.random.default_rng(5)
    from conftest import single_triangle

    for _ in range(50):
        m = single_triangle(rng)
        fr = m.frame(0)
        assert abs(fr.edge_angles[0]) < 1e-15
        for k in range(2):
            step = fr.edge_angles[k + 1] - fr.edge_angles[k]
            assert math.isclose(step, math.pi - fr.betas[k], abs_tol=1e-12)
        # the frame u axis is edge 0 normalized
        e0 = m.vertices[m.faces[0][1]] - m.vertices[m.faces[0][0]]
        assert np.allclose(fr.u, e0 / np.linalg.norm(e0))


def test_position_interpolates_along_edges(strip10):
    m = strip10
    h = 7
    a = m.vertices[m.origin(h)]
    b = m.vertices[m.dest(h)]
    p = m.position(TracePoint(h, 0.25))
    assert np.allclose(p, 0.75 * a + 0.25 * b)


def test_position_sink_encoding_lands_on_corner_vertex(strip10):
    m = strip10
    h = 4
    tp = TracePoint(h, 1.7)  # sink corner, any t
    v = m.dest(h)
    assert np.allclose(m.position(tp), m.vertices[v])


def test_obj_round_trip(tmp_path, disc_mesh):
    p = tmp_path / "disc.obj"
    save_obj(p, disc_mesh)
    again = load_obj(p)
    assert np.array_equal(again.vertices, disc_mesh.vertices)
    assert np.array_equal(again.faces, disc_mesh.faces)


def test_obj_polyline_export(tmp_path, strip10):
    p = tmp_path / "lines.obj"
    save_obj(p, strip10, polylines=[[(0.0, 0.0, 0.0), (1.0, 2.0, 3.0)]])
    text = p.read_text()
    assert "l " in text
    assert "np." not in text


def test_load_obj_rejects_garbage(tmp_path):
    p = tmp_path / "bad.obj"
    p.write_text("v 0 0 0\nf 1 2 3\n")
    with pytest.raises(MeshError):
        load_obj(p)


def test_fan_turns_counterclockwise_once_around_a_vertex(disc_mesh):
    m = disc_mesh
    for v in range(m.n_vertices):
        for h in m.outgoing_halfedges(v):
            fan = list(m.fan(h))
            assert fan[0] == h and len(set(fan)) == len(fan)
            assert all(m.origin(e) == v for e in fan)
            if m.is_boundary_vertex(v):
                assert not m.has_facet(fan[-1])
                assert all(m.has_facet(e) for e in fan[:-1])
            else:
                assert sorted(fan) == m.outgoing_halfedges(v)
            d = [m.vertices[m.dest(e)] - m.vertices[v] for e in fan]
            assert all(np.cross(a, b)[2] > 0.0 for a, b in zip(d, d[1:]))


def test_boundary_loop_of_disc(disc_mesh):
    m = disc_mesh
    border = boundary_halfedges(m)
    # one rim: 24 sectors
    assert len(border) == 24


def test_meshgen_outward_orientation(icosphere2, torus_mesh):
    for m in (icosphere2, torus_mesh):
        vol = 0.0
        for f in range(m.n_facets):
            a, b, c = (m.vertices[i] for i in m.faces[f])
            vol += np.dot(a, np.cross(b, c))
        assert vol > 0.0


def test_cube_corner_has_right_angle_defect():
    m = meshgen.cube_corner()
    inner = [v for v in range(m.n_vertices) if not m.is_boundary_vertex(v)]
    assert len(inner) == 1
    assert math.isclose(m.angle_defect(inner[0]), math.pi / 2, abs_tol=1e-12)


def loop_frames(m, reference_offsets=None):
    """Per-facet loop oracle for ``SurfaceMesh._build_frames``.

    Returns (u, v, edge_lens, betas, edge_angles), each ``(n_facets, 3)``,
    computed one facet at a time on 3-vectors with ``np.linalg.norm`` and
    ``np.dot``, as the frames were built before they were vectorised.
    """
    nf = m.n_facets
    u_all, v_all = np.empty((nf, 3)), np.empty((nf, 3))
    lens_all, betas, angles = np.empty((nf, 3)), np.empty((nf, 3)), np.empty((nf, 3))
    offs = np.zeros(nf) if reference_offsets is None else reference_offsets
    p = m.vertices
    for f, (a, b, c) in enumerate(m.faces):
        pts = (p[a], p[b], p[c])
        es = [pts[(k + 1) % 3] - pts[k] for k in range(3)]
        lens = lens_all[f]
        for k in range(3):
            lens[k] = np.linalg.norm(es[k])
        normal = np.cross(es[0], -es[2])
        normal /= np.linalg.norm(normal)
        u0 = es[0] / lens[0]
        v0 = np.cross(normal, u0)
        off = offs[f]
        if off:
            u = math.cos(off) * u0 + math.sin(off) * v0
            v = math.cos(off) * v0 - math.sin(off) * u0
        else:
            u, v = u0, v0
        u_all[f] = u
        v_all[f] = v
        for k in range(3):
            k1 = (k + 1) % 3
            cosb = np.dot(-es[k], es[k1]) / (lens[k] * lens[k1])
            betas[f, k] = math.acos(min(1.0, max(-1.0, cosb)))
        base = -off
        angles[f, 0] = base
        angles[f, 1] = base + (math.pi - betas[f, 0])
        angles[f, 2] = base + (math.pi - betas[f, 0]) + (math.pi - betas[f, 1])
    return u_all, v_all, lens_all, betas, angles


def _frame_arrays(m):
    return m._frame_u, m._frame_v, m._edge_lens, m._betas, m._edge_angles


@pytest.mark.parametrize(
    "make",
    [
        lambda: meshgen.grid(12, 9, distortion=0.3, seed=2),
        lambda: meshgen.disc(6, 20, distortion=0.25, seed=1),
        lambda: meshgen.icosphere(3),
        lambda: meshgen.torus(),
    ],
    ids=["grid", "disc", "icosphere3", "torus"],
)
def test_frames_are_bit_identical_to_the_facet_loop(make):
    m = make()
    rng = np.random.default_rng(17)
    offsets = rng.uniform(-math.pi, math.pi, m.n_facets)
    offsets[::7] = 0.0  # unrotated facets among rotated ones
    for ref in (None, offsets):
        if ref is not None:
            m.set_reference_offsets(ref)
        want = loop_frames(m, ref)
        for got, exp in zip(_frame_arrays(m), want):
            assert got.shape == exp.shape
            assert np.array_equal(got.view(np.int64), exp.view(np.int64))
