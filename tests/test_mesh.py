import hashlib
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


def test_trace_point_is_an_immutable_halfedge_c_pair():
    tp = TracePoint(1, 0.5)
    # the CLI's error messages print trace points this way
    assert repr(tp) == "TracePoint(halfedge=1, c=0.5)"
    assert hash(tp) == hash((1, 0.5))
    assert {tp: "a"}[TracePoint(1, 0.5)] == "a"
    # the one widening over a frozen dataclass: a plain pair equals it
    assert tp == (1, 0.5)
    h, c = tp
    assert (h, c) == (tp.halfedge, tp.c) == (1, 0.5)
    for field in ("halfedge", "c"):
        with pytest.raises(AttributeError):
            setattr(tp, field, 0)
    assert tp == TracePoint(1, 0.5)


def test_positions_equal_position_bit_for_bit():
    m = meshgen.torus()
    rng = np.random.default_rng(8)
    hs = rng.integers(0, m.n_halfedges, 600).tolist()
    cs = rng.uniform(0.0, 2.0, 600).tolist()
    # edge ends, the sink encoding's ends and a negative zero as well
    cs[:6] = [0.0, 1.0, 2.0, -0.0, 1.0 + 1e-16, 5e-324]
    points = [TracePoint(h, c) for h, c in zip(hs, cs)]
    rows = m.positions(points)
    assert rows.shape == (600, 3)
    for tp, row in zip(points, rows):
        assert [x.hex() for x in row.tolist()] == [
            x.hex() for x in m.position(tp).tolist()
        ]
    assert m.positions([]).shape == (0, 3)
    with pytest.raises(MeshError, match="outside"):
        m.positions(points[:3] + [TracePoint(0, 2.5)])


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


@pytest.fixture(scope="module")
def grid32_obj_lines(tmp_path_factory):
    """OBJ lines of a 32 x 32 grid: 1089 ``v`` lines, then 2048 ``f`` lines."""
    p = tmp_path_factory.mktemp("obj") / "grid.obj"
    save_obj(p, meshgen.grid(32, 32))
    return p.read_text().splitlines()


@pytest.mark.parametrize(
    "edits,message",
    [
        pytest.param(
            "v 0 0 0\nf 1 2 3\n",
            "face references a vertex that does not exist",
            id="index-past-last-vertex",
        ),
        pytest.param(
            "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999\n",
            "face references a vertex that does not exist",
            id="index-past-int64",
        ),
        pytest.param("", "faces must be an (m, 3) array", id="empty-file"),
        pytest.param(
            "v 0 0 0\n# no faces\n",
            "faces must be an (m, 3) array",
            id="no-faces",
        ),
        pytest.param(
            "# only\n\n# comments\n",
            "faces must be an (m, 3) array",
            id="comments-only",
        ),
        pytest.param(
            {2: "v 0 0"},
            "line 2: vertex needs 3 coordinates",
            id="short-vertex",
        ),
        pytest.param({2: "v"}, "line 2: vertex needs 3 coordinates", id="bare-v"),
        pytest.param(
            {2: "v 0 x 0"},
            "line 2: bad vertex: could not convert string to float: 'x'",
            id="bad-coordinate",
        ),
        # float() and int() accept these, numpy's text reader does not
        pytest.param(
            {2: "v 0 1_0 0"},
            "line 2: bad vertex: '1_0' is not an ASCII decimal literal without '_'",
            id="underscore-coordinate",
        ),
        pytest.param(
            {2: "v \u0661 0 0"},
            "line 2: bad vertex: '\u0661' is not an ASCII decimal literal without '_'",
            id="non-ascii-coordinate",
        ),
        pytest.param(
            {1090: "f 1 2_0 3"},
            "line 1090: bad face index '2_0'",
            id="underscore-face-index",
        ),
        pytest.param(
            {1090: "f 1 \u0662 3"},
            "line 1090: bad face index '\u0662'",
            id="non-ascii-face-index",
        ),
        pytest.param(
            {1090: "f 1 a 3"},
            "line 1090: bad face index 'a'",
            id="bad-face-index",
        ),
        pytest.param(
            {1090: "f 1/2 x/3 3"},
            "line 1090: bad face index 'x'",
            id="bad-face-index-with-slash",
        ),
        pytest.param(
            {1090: "f /1 2 3"},
            "line 1090: bad face index ''",
            id="empty-face-index",
        ),
        pytest.param(
            {1090: "f 1 2 3 # note"},
            "line 1090: bad face index '#'",
            id="face-comment",
        ),
        pytest.param(
            {1090: "f 0 2 3"},
            "line 1090: face indices are 1-based",
            id="zero-index",
        ),
        pytest.param(
            {1090: "f 1 -2 3"},
            "line 1090: face indices are 1-based",
            id="negative-index",
        ),
        pytest.param(
            {1090: "f 0 1 2 3"},
            "line 1090: face indices are 1-based",
            id="zero-index-in-quad",
        ),
        pytest.param(
            {1090: "f 1 2 3 4"},
            "line 1090: face needs 3 vertex indices, got 4",
            id="quad-face",
        ),
        pytest.param(
            {1090: "f 1 2"},
            "line 1090: face needs 3 vertex indices, got 2",
            id="two-index-face",
        ),
        pytest.param(
            {1090: "f"},
            "line 1090: face needs 3 vertex indices, got 0",
            id="bare-f",
        ),
        # the first bad line wins, whatever comes after it
        pytest.param(
            {3000: "v 1 2", 2500: "f 1 2 x", 1500: "f 1 2"},
            "line 1500: face needs 3 vertex indices, got 2",
            id="first-bad-line-wins",
        ),
        pytest.param(
            {2000: "f 1 2 x"},
            "line 2000: bad face index 'x'",
            id="late-bad-face-index",
        ),
    ],
)
def test_load_obj_rejects_garbage(tmp_path, grid32_obj_lines, edits, message):
    if isinstance(edits, str):
        text = edits
    else:
        lines = list(grid32_obj_lines)
        for lineno, line in edits.items():
            lines[lineno - 1] = line
        text = "\n".join(lines) + "\n"
    p = tmp_path / "bad.obj"
    p.write_text(text)
    with pytest.raises(MeshError) as exc:
        load_obj(p)
    assert str(exc.value) == message


def test_fan_turns_counterclockwise_once_around_a_vertex(disc_mesh):
    m = disc_mesh
    for v in range(m.n_vertices):
        for h in m.outgoing_halfedges(v):
            fan = list(m.fan(h))
            assert fan[0] == h and len(set(fan)) == len(fan)
            assert sorted(fan) == m.outgoing_halfedges(v)
            d = [m.vertices[m.dest(e)] - m.vertices[v] for e in fan]
            turns = [np.cross(a, b)[2] > 0.0 for a, b in zip(d, d[1:])]
            if m.is_boundary_vertex(v):
                # every turn from a facet halfedge crosses its facet; the
                # turn from the boundary halfedge crosses the gap, which is
                # wider than a half turn on the disc's convex rim
                assert turns == [m.has_facet(e) for e in fan[:-1]]
            else:
                assert all(turns)


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


@pytest.mark.parametrize(
    "faces,message",
    [
        ([[0, 0, 1]], "facet 0 repeats vertex 0"),
        (
            [[0, 1, 2], [0, 1, 3]],
            "non-manifold or inconsistently oriented edge (0, 1) at facet 1",
        ),
        ([[0, 1, 2], [0, 3, 4]], "non-manifold boundary at vertex 0"),
        (
            [[0, 1, 2], [0, 1, 3], [4, 4, 5]],
            "non-manifold or inconsistently oriented edge (0, 1) at facet 1",
        ),
        ([[0, 1, 2], [3, 3, 4], [0, 1, 5]], "facet 1 repeats vertex 3"),
    ],
    ids=["repeat", "edge", "bowtie", "edge-before-repeat", "repeat-before-edge"],
)
def test_mesh_errors_name_the_first_offending_halfedge(faces, message):
    verts = np.random.default_rng(0).normal(size=(6, 3))
    with pytest.raises(MeshError) as exc:
        SurfaceMesh(verts, faces)
    assert str(exc.value) == message


def test_mesh_without_facets_has_empty_tables():
    m = SurfaceMesh(np.zeros((2, 3)), np.zeros((0, 3), dtype=np.int64))
    assert m.n_halfedges == 0 and m.average_edge_length() == 0.0
    assert [m.outgoing_halfedges(v) for v in range(2)] == [[], []]
    assert not m.is_boundary_vertex(0) and m.vertex_valence(1) == 0


def loop_connectivity(n_vertices, faces):
    """Dict-and-loop oracle for ``SurfaceMesh._build_connectivity``.

    Builds the halfedge tables one halfedge at a time, as they were built
    before the sort.  Returns the ``MeshError`` text, or ``(rows, verts)``
    in the layout of ``_tables``.
    """
    directed = {}
    for f, (a, b, c) in enumerate(faces):
        for k, (u, v) in enumerate(((a, b), (b, c), (c, a))):
            if u == v:
                return f"facet {f} repeats vertex {u}"
            if (u, v) in directed:
                return (
                    f"non-manifold or inconsistently oriented edge "
                    f"({u}, {v}) at facet {f}"
                )
            directed[(u, v)] = 3 * f + k
    n_interior = 3 * len(faces)
    origin, dest = [], []
    for f, (a, b, c) in enumerate(faces):
        origin += [a, b, c]
        dest += [b, c, a]
    opposite = [directed.get((v, u)) for u, v in zip(origin, dest)]
    nxt = [3 * (h // 3) + (h + 1) % 3 for h in range(n_interior)]
    prv = [3 * (h // 3) + (h + 2) % 3 for h in range(n_interior)]
    facet = [h // 3 for h in range(n_interior)]
    leaving = {}
    for h in range(n_interior):
        if opposite[h] is None:
            b = len(origin)
            if dest[h] in leaving:
                return f"non-manifold boundary at vertex {dest[h]}"
            leaving[dest[h]] = b
            origin.append(dest[h])
            dest.append(origin[h])
            opposite.append(h)
            opposite[h] = b
            facet.append(None)
    for b in range(n_interior, len(origin)):
        if dest[b] not in leaving:
            return f"open boundary fan at vertex {dest[b]}"
        nxt.append(leaving[dest[b]])
    prv += [None] * (len(origin) - n_interior)
    for b in range(n_interior, len(origin)):
        prv[nxt[b]] = b
    rows = list(zip(origin, dest, opposite, nxt, prv, facet))
    on_boundary = set(origin[n_interior:]) | set(dest[n_interior:])
    verts = [
        (v in on_boundary, [h for h in range(len(origin)) if origin[h] == v])
        for v in range(n_vertices)
    ]
    return rows, verts


def _tables(m):
    rows = [
        (m.origin(h), m.dest(h), m.opposite(h), m.next(h), m.prev(h), m.facet(h))
        for h in range(m.n_halfedges)
    ]
    verts = [
        (m.is_boundary_vertex(v), m.outgoing_halfedges(v))
        for v in range(m.n_vertices)
    ]
    return rows, verts


def test_connectivity_equals_loop_oracle_on_random_soups():
    rng = np.random.default_rng(11)
    outcomes = set()
    for i in range(3000):
        nv, nf = int(rng.integers(3, 7)), int(rng.integers(1, 7))
        verts = rng.normal(size=(nv, 3))
        if i % 4 == 0:
            faces = rng.integers(0, nv, size=(nf, 3)).tolist()
        else:
            faces = [rng.choice(nv, 3, replace=False).tolist() for _ in range(nf)]
        want = loop_connectivity(nv, faces)
        try:
            got = _tables(SurfaceMesh(verts, faces))
        except MeshError as exc:
            got = str(exc)
        assert got == want, faces
        kinds = ("repeats vertex", "oriented edge", "boundary at")
        outcomes.add(next((k for k in kinds if k in str(want)), "built"))
    assert outcomes == {"repeats vertex", "oriented edge", "boundary at", "built"}


def test_average_edge_length_adds_edges_in_halfedge_order(icosphere2, disc_mesh):
    for m in (icosphere2, disc_mesh, meshgen.grid(7, 5, distortion=0.3, seed=2)):
        total, count = 0.0, 0
        for h in range(m.n_halfedges):
            o = m.opposite(h)
            if m.has_facet(h) and (o > h or not m.has_facet(o)):
                total += m.edge_length(h)
                count += 1
        assert m.average_edge_length() == total / count


def _table_digest(m):
    """sha256 over every halfedge and vertex table, through public accessors."""
    rows, verts = _tables(m)
    text = repr((rows, verts, m.average_edge_length().hex()))
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of ``_table_digest``, taken before the tables were built by sorting
_PINNED_TABLES = {
    "grid": (
        lambda: meshgen.grid(7, 5, distortion=0.3, seed=2),
        "fe575c4bad45471b54e06c2cfdda8d55a59ec7d487623fc41f61f8fd806a0cfc",
    ),
    "disc": (
        lambda: meshgen.disc(4, 10),
        "ed1c906b8adac9c072afa3537a64330aadee28044fa4489845abb88a27026442",
    ),
    "strip": (
        lambda: meshgen.strip(6),
        "830e055aac81dce4533774343c27866d8b068907e424332e9d02ef3ab0eb4454",
    ),
    "icosphere2": (
        lambda: meshgen.icosphere(2),
        "bce63a54582c20e705d72d14a7f5a491c4fbf642aeb032f1edc50d2b3d5177c1",
    ),
    "torus": (
        lambda: meshgen.torus(n_major=10, n_minor=6),
        "58e6d40d9bff05017d491e2764818103f704569d6e5b59bd167a0283c0f586bb",
    ),
    "cube-corner": (
        meshgen.cube_corner,
        "43654c640b0ed345cea3585131dcfdc52b88a0a436beccd8df7698096f9c65c0",
    ),
}


@pytest.mark.parametrize("name", list(_PINNED_TABLES))
def test_halfedge_tables_are_pinned(name):
    # boundary halfedges follow the facet halfedges, in the order of the
    # facet halfedges they pair with; outgoing lists ascend by id
    make, digest = _PINNED_TABLES[name]
    assert _table_digest(make()) == digest


def test_planar_generators_refuse_folded_facets():
    disc = r"disc\(3 rings, 3 sectors, distortion 0.3, seed 0\) folds facet 4:"
    with pytest.raises(ValueError, match=disc):
        meshgen.disc(3, 3, distortion=0.3, seed=0)
    grid = r"grid\(3 x 3 cells, distortion 3.0, seed 0\) folds facet"
    with pytest.raises(ValueError, match=grid):
        meshgen.grid(3, 3, distortion=3.0, seed=0)
    # 83 of 150 three-sector discs fold at distortion 0.3
    folded = 0
    for rings in range(1, 6):
        for seed in range(30):
            try:
                meshgen.disc(rings, 3, distortion=0.3, seed=seed)
            except ValueError:
                folded += 1
    assert folded == 83


@pytest.mark.parametrize(
    "make,sha256",
    [
        (
            lambda: meshgen.grid(12, 12, distortion=0.3, seed=0),
            "efb0c8c9344b8aaaf9850fd65673ef7010d59386224551f9e3a6efce59867c91",
        ),
        (
            lambda: meshgen.disc(5, 16, distortion=0.2, seed=1),
            "b957c31b0013a0e1935bac6d184d2b8d6d5455a53605849e4bcf8f1d47a3adad",
        ),
        (
            lambda: meshgen.disc(3, 6, distortion=0.3, seed=7),
            "2c860bf940d2a4da9e1e188f25376182def650a52ad67aa9791aeb43e3365d39",
        ),
    ],
)
def test_unfolded_distorted_meshes_are_unchanged(make, sha256):
    m = make()
    assert hashlib.sha256(m.vertices.tobytes() + m.faces.tobytes()).hexdigest() == sha256
