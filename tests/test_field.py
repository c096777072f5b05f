import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamtrace import (
    FieldError,
    FieldSamples,
    SurfaceMesh,
    load_field,
    load_obj,
    meshgen,
    save_field,
    save_obj,
    synth_field,
    validate,
    vertex_index,
)
import streamtrace.field as field_mod
from streamtrace.field import (
    CONTINUITY_TOL_DEG,
    EVENNESS_TOL,
    INDEX_TOL,
    Violation,
    normalize_samples,
)

from conftest import (
    corner_jump_deg,
    geometric_vertex_index,
    interpolated_angle,
    normalize_sample,
    reference_field,
    reference_obj,
    right_triangle,
    samples_from_reals,
)


@given(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
@example(-5e-324)  # v / 360 underflows to -0.0
@example(-0.0)  # stays -0.0
def test_normalize_sample_preserves_real_angle(v):
    a, w = normalize_sample(v)
    assert 0.0 <= a < 360.0
    assert abs((a + 360.0 * w) - v) < 1e-9
    # the array form the loader uses agrees bit for bit
    angles, windings = normalize_samples(np.array([v]))
    assert windings.dtype == np.int64
    assert (angles.tolist()[0].hex(), windings.tolist()[0]) == (a.hex(), w)


def test_nodes_wrap_closes_the_border_loop():
    fs = samples_from_reals([10.0, 50.0, 420.0, -30.0, 90.0, 180.0])
    n = fs.nodes[0]
    assert n.shape == (7,)
    assert n[6] == n[0] - 360.0
    assert n[2] == 420.0  # windings keep real values


def test_flipped_rotates_every_sample_half_turn():
    fs = samples_from_reals([10.0, 350.0, 420.0, 0.0, 181.0, 90.0])
    fl = fs.flipped()
    for i in range(6):
        a = fs.nodes[0][i]
        b = fl.nodes[0][i]
        assert b == a + 180.0


def test_samples_reject_bad_shapes():
    with pytest.raises(FieldError):
        FieldSamples(np.zeros((2, 5)), np.zeros((2, 5), dtype=np.int64))
    with pytest.raises(FieldError):
        FieldSamples(np.full((1, 6), 360.0), np.zeros((1, 6), dtype=np.int64))


def test_field_file_round_trip(tmp_path, disc_mesh):
    fs = synth_field(disc_mesh, "circular")
    p = tmp_path / "f.field"
    save_field(p, fs)
    again = load_field(p, disc_mesh)
    assert np.array_equal(again.angles, fs.angles)
    assert np.array_equal(again.windings, fs.windings)


def test_field_file_normalizes_out_of_range_angles(tmp_path):
    m = right_triangle()
    p = tmp_path / "f.field"
    p.write_text(
        "streamfield 1\n"
        "0 370.0 0 -10.0 1 0.0 0 90.0 0 180.0 0 270.0 0\n"
    )
    fs = load_field(p, m)
    assert fs.angles[0, 0] == 10.0 and fs.windings[0, 0] == 1
    assert fs.angles[0, 1] == 350.0 and fs.windings[0, 1] == 0


# OBJ statements other than v and f are skipped; v rows may carry a w
_CORPUS_OBJ = (
    b"# two facets, CRLF on some lines\r\n"
    b"o corpus\r\n"
    b"g part\n"
    b"s off\n"
    b"v 0 0 -0.0\n"
    b"   v 1.0 0 0 1.0\r\n"
    b"vn 0 0 1\n"
    b"vt 0.5 0.5\n"
    b"\n"
    b"v\t0\t1\t0\n"
    b"v 1e0 +1.0 0.25 \r\n"
    b"\r\n"
    b"f 1/1/1 2/2/1 3/3/1\n"
    b"f 2//1 4//1 3//1\n"
)
_CORPUS_FIELD = (
    b"# facets out of order\r\n"
    b"\n"
    b"streamfield 1   # header\r\n"
    b"1 370 9223372036854775806 -10 -9223372036854775806 -5e-324 0"
    b" 0 -9223372036854775808 5 9223372036854775807 -0.0 0\r\n"
    b"   \n"
    b"0\t10.5 -1 720 0 359.99999999999994 3 180.0 -9223372036854775807"
    b" -370 9223372036854775807 1e2 0#comment\n"
)
# sha256 of each loaded array's bytes
_CORPUS_DIGESTS = {
    "vertices": "9e83b3212b015c5e1b462edc8b6bbd62ea0b884f9a7c3eaa137cc2eadec4b20c",
    "faces": "d6a9739dc30beec3cb2f030eec378bf28b83db704d0735f5849e72cae3ccb7f9",
    "angles": "a352896de96954ef752e2eef5afce5b46649e11d82bc3e687fc17d2228f9c29c",
    "windings": "51c9cc5178e4ed74113a949a7991edc94e6dd0971b905442dc25486520afc5e6",
}


def test_loaders_accept_the_corpus_as_pinned(tmp_path):
    obj, fld = tmp_path / "c.obj", tmp_path / "c.field"
    obj.write_bytes(_CORPUS_OBJ)
    fld.write_bytes(_CORPUS_FIELD)
    m = load_obj(obj)
    fs = load_field(fld, m)
    arrays = {
        "vertices": (m.vertices, (4, 3), np.float64),
        "faces": (m.faces, (2, 3), np.int64),
        "angles": (fs.angles, (2, 6), np.float64),
        "windings": (fs.windings, (2, 6), np.int64),
    }
    digests = {}
    for name, (a, shape, dtype) in arrays.items():
        assert a.shape == shape and a.dtype == dtype, name
        digests[name] = hashlib.sha256(a.tobytes()).hexdigest()
    assert digests == _CORPUS_DIGESTS
    assert fs.windings[1, 0] == 2**63 - 1 and fs.windings[1, 1] == -(2**63 - 1)
    assert np.signbit(fs.angles[1, 5]) and np.signbit(m.vertices[0, 2])


def _assert_bits_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _assert_loaders_match_reference(obj, fld):
    m = load_obj(obj)
    fs = load_field(fld, m)
    for got, want in zip(
        (m.vertices, m.faces, fs.angles, fs.windings),
        reference_obj(obj) + reference_field(fld),
    ):
        _assert_bits_equal(got, want)


@pytest.mark.parametrize(
    "make",
    [
        lambda: meshgen.grid(12, 9, distortion=0.3, seed=2),
        lambda: meshgen.torus(),
        lambda: meshgen.icosphere(2),
    ],
    ids=["grid", "torus", "icosphere"],
)
def test_loaders_match_the_reference_readers_on_scenes(tmp_path, make):
    mesh = make()
    if mesh.n_halfedges > mesh.n_interior_halfedges:
        fs = synth_field(mesh, "constant", angle_deg=33.0)
    else:
        fs = synth_field(mesh, "smoothed-random", seed=1)
    obj, fld = tmp_path / "s.obj", tmp_path / "s.field"
    save_obj(obj, mesh)
    save_field(fld, fs)
    _assert_loaders_match_reference(obj, fld)


# edge-case tokens, line ends and separators that both loaders accept
_EDGE_OBJ = (
    "# edge cases\r\n"
    "\r\n"
    "v -0.0 4.9e-324 .5\r\n"
    "v\t5.\t+5\t1E5 1.0\r"
    "\u00a0v 0005\u00a01e-3\u2003-2.5 # values after z are skipped\n"
    "v 1 1 0\n"
    "f 1/1/1 2/2/2 3/3/3\r\n"
    "f 0002//1\t+4\u2003003/9\n"
)
_EDGE_FIELD = (
    "# comment before the header\r"
    "\r\n"
    "   \t\n"
    "streamfield 1 # header\r\n"
    "0001 -0.0 0 4.9e-324 -0 .5 +2 5. 0005 +5 -3 1E5 0 # trailing\r\n"
    "# a comment line\n"
    "+0\t370\u00a00\u2003-10 1 359.99999999999994 0 1e-3 7 -5e-324 0 720 -1#c\r"
)


def test_loaders_match_the_reference_readers_on_edge_cases(tmp_path):
    obj, fld = tmp_path / "e.obj", tmp_path / "e.field"
    obj.write_bytes(_EDGE_OBJ.encode())
    fld.write_bytes(_EDGE_FIELD.encode())
    _assert_loaders_match_reference(obj, fld)
    m = load_obj(obj)
    assert np.signbit(m.vertices[0, 0]) and m.vertices[0, 1] == 5e-324
    assert m.faces.tolist() == [[0, 1, 2], [1, 3, 2]]


@pytest.fixture(scope="module")
def grid32():
    return meshgen.grid(32, 32)  # 2048 facets, so a field file of 2049 lines


def _row(fid, angle="0.0", winding="0"):
    return f"{fid} {angle} {winding}" + " 90.0 0" * 5


_NOT_REPRESENTABLE = "is not a finite angle with a 64-bit winding"


@pytest.mark.parametrize(
    "edits,message",
    [
        pytest.param("", "empty field file", id="empty-file"),
        pytest.param("# only a comment\n\n", "empty field file", id="comments-only"),
        pytest.param(
            "streamfield 1\n",
            "missing samples for 2048 facet(s): 0, 1, 2, 3, 4, 5, 6, 7",
            id="header-only",
        ),
        pytest.param(
            "# comment\nstreamfield 1\n# no rows\n\n",
            "missing samples for 2048 facet(s): 0, 1, 2, 3, 4, 5, 6, 7",
            id="header-and-comments-only",
        ),
        pytest.param(
            {1: "streamfield 2"},
            "line 1: expected header 'streamfield 1', got 'streamfield 2'",
            id="bad-header",
        ),
        pytest.param(
            {1: "streamfield\t1  # tab"},
            "line 1: expected header 'streamfield 1', got 'streamfield\\t1'",
            id="header-with-tab",
        ),
        pytest.param(
            {2: "0 1 2 3"},
            "line 2: expected facet id and 6 angle/winding pairs",
            id="four-tokens",
        ),
        pytest.param(
            {2: _row(0) + " 7"},
            "line 2: expected facet id and 6 angle/winding pairs",
            id="fourteen-tokens",
        ),
        pytest.param(
            {2: _row("x")},
            "line 2: invalid literal for int() with base 10: 'x'",
            id="bad-facet-id",
        ),
        pytest.param(
            {2: _row("0.0")},
            "line 2: invalid literal for int() with base 10: '0.0'",
            id="float-facet-id",
        ),
        pytest.param(
            {2: _row(0, "abc")},
            "line 2: could not convert string to float: 'abc'",
            id="bad-angle",
        ),
        pytest.param(
            {2: _row(0, "1", "1.5")},
            "line 2: invalid literal for int() with base 10: '1.5'",
            id="float-winding",
        ),
        # float() and int() accept these, numpy's text reader does not
        pytest.param(
            {2: _row(0, "1_0")},
            "line 2: '1_0' is not an ASCII decimal literal without '_'",
            id="underscore-angle",
        ),
        pytest.param(
            {2: _row(0, "10", "\u0663")},
            "line 2: '\u0663' is not an ASCII decimal literal without '_'",
            id="non-ascii-winding",
        ),
        pytest.param(
            {2: _row("\u0660")},
            "line 2: '\u0660' is not an ASCII decimal literal without '_'",
            id="non-ascii-facet-id",
        ),
        pytest.param(
            {2: _row(2048)},
            "line 2: facet id 2048 out of range",
            id="facet-id-past-last",
        ),
        pytest.param(
            {2: _row(-1)},
            "line 2: facet id -1 out of range",
            id="negative-facet-id",
        ),
        pytest.param(
            {2: _row(10**20)},
            "line 2: facet id 100000000000000000000 out of range",
            id="facet-id-past-int64",
        ),
        pytest.param(
            {3: _row(0)},
            "line 3: duplicate facet id 0",
            id="duplicate-facet",
        ),
        pytest.param(
            {2049: _row(5)},
            "line 2049: duplicate facet id 5",
            id="late-duplicate-facet",
        ),
        pytest.param({2: ""}, "missing samples for 1 facet(s): 0", id="missing-facet"),
        pytest.param(
            {2: _row(0, "inf")},
            f"line 2: angle inf with winding 0 {_NOT_REPRESENTABLE}",
            id="inf-angle",
        ),
        pytest.param(
            {2: _row(0, "-nan")},
            f"line 2: angle nan with winding 0 {_NOT_REPRESENTABLE}",
            id="nan-angle",
        ),
        pytest.param(
            {2: _row(0, "1e308")},
            f"line 2: angle 1e+308 with winding 0 {_NOT_REPRESENTABLE}",
            id="1e308-angle",
        ),
        pytest.param(
            {2: _row(0, "370", str(2**63 - 1))},
            f"line 2: angle 370.0 with winding {2**63 - 1} {_NOT_REPRESENTABLE}",
            id="winding-overflow",
        ),
        pytest.param(
            {2: _row(0, "-10", str(-(2**63)))},
            f"line 2: angle -10.0 with winding {-(2**63)} {_NOT_REPRESENTABLE}",
            id="winding-underflow",
        ),
        pytest.param(
            {2: _row(0, "10", str(10**20))},
            f"line 2: angle 10.0 with winding {10**20} {_NOT_REPRESENTABLE}",
            id="winding-past-int64",
        ),
        # refused although the sum fits: the turns of 2e21 degrees pass 2**62
        pytest.param(
            {2: _row(0, "2e21", str(-(5 * 10**18)))},
            f"line 2: angle 2e+21 with winding {-(5 * 10**18)} {_NOT_REPRESENTABLE}",
            id="angle-past-limit",
        ),
        # the first bad line wins, whatever comes after it
        pytest.param(
            {5: "3 1 2", 4: _row(1), 2000: _row(1998, "zz")},
            "line 4: duplicate facet id 1",
            id="first-bad-line-wins",
        ),
        pytest.param(
            {2000: _row(1998, "zz")},
            "line 2000: could not convert string to float: 'zz'",
            id="late-bad-angle",
        ),
    ],
)
def test_field_file_errors(tmp_path, grid32, edits, message):
    if isinstance(edits, str):
        text = edits
    else:
        lines = ["streamfield 1"] + [_row(f) for f in range(grid32.n_facets)]
        for lineno, line in edits.items():
            lines[lineno - 1] = line
        text = "\n".join(lines) + "\n"
    p = tmp_path / "f.field"
    p.write_text(text)
    with pytest.raises(FieldError) as exc:
        load_field(p, grid32)
    assert str(exc.value) == message


def test_constant_field_validates_and_has_zero_jumps(grid10):
    fs = synth_field(grid10, "constant", angle_deg=33.0)
    assert validate(grid10, fs) == []
    for f in range(grid10.n_facets):
        for k in range(3):
            assert abs(corner_jump_deg(grid10, fs, f, k)) < 1e-9


def test_planar_singular_kinds_have_unit_indices(disc_mesh):
    for kind, expect in (("circular", 1), ("source", 1), ("sink", 1), ("saddle", -1)):
        fs = synth_field(disc_mesh, kind)
        assert validate(disc_mesh, fs) == []
        assert abs(vertex_index(disc_mesh, fs, 0) - expect) < 1e-9
        # every other interior vertex is regular
        for v in range(1, disc_mesh.n_vertices):
            if not disc_mesh.is_boundary_vertex(v):
                assert abs(vertex_index(disc_mesh, fs, v)) < 1e-9


def test_validate_flags_broken_endpoint():
    m = meshgen.grid(2, 1)
    fs = synth_field(m, "constant", angle_deg=10.0)
    h = next(
        h for h in range(m.n_interior_halfedges) if m.has_facet(m.opposite(h))
    )
    ang = fs.angles.copy()
    ang.setflags(write=True)
    ang[h // 3, 2 * (h % 3) + 1] = (ang[h // 3, 2 * (h % 3) + 1] + 7.0) % 360.0
    bad = FieldSamples(ang, fs.windings)
    kinds = {v.kind for v in validate(m, bad)}
    assert "edge-continuity" in kinds


def test_validate_flags_uneven_corner_distribution(disc_mesh):
    fs = synth_field(disc_mesh, "circular")
    wnd = fs.windings.copy()
    wnd.setflags(write=True)
    # a whole turn on part of a facet keeps every mod-360 check green and
    # every edge rotation intact, but dumps the turn into two corner jumps
    wnd[3, 2:] += 1
    bad = FieldSamples(fs.angles, wnd)
    kinds = {v.kind for v in validate(disc_mesh, bad)}
    assert kinds == {"uneven-corner-distribution"}


def test_validate_accepts_whole_turn_on_both_sides(disc_mesh):
    # rotating BOTH sides of the mesh coherently must stay valid: windings
    # are a branch choice, not a field property
    fs = synth_field(disc_mesh, "circular")
    wnd = fs.windings.copy()
    wnd.setflags(write=True)
    wnd += 2
    assert validate(disc_mesh, FieldSamples(fs.angles, wnd)) == []


def test_smoothed_random_closed_surfaces(icosphere2, torus_mesh, sphere_random_field):
    assert validate(icosphere2, sphere_random_field) == []
    total = sum(
        vertex_index(icosphere2, sphere_random_field, v)
        for v in range(icosphere2.n_vertices)
    )
    assert abs(total - 2.0) < 1e-6

    fs = synth_field(torus_mesh, "smoothed-random", seed=4)
    assert validate(torus_mesh, fs) == []
    total = sum(vertex_index(torus_mesh, fs, v) for v in range(torus_mesh.n_vertices))
    assert abs(total) < 1e-6


def test_smoothed_random_needs_closed_mesh(disc_mesh):
    with pytest.raises(FieldError):
        synth_field(disc_mesh, "smoothed-random")


def test_smoothed_random_has_one_spelling(icosphere2):
    with pytest.raises(FieldError, match="unknown field kind 'smoothed_random'"):
        synth_field(icosphere2, "smoothed_random")


@pytest.mark.parametrize(
    "kind, params, name",
    [
        ("circular", {"center": (0.5, 0.5), "angle_deg": 45.0}, "angle_deg"),
        ("saddle", {"angle_deg": 0.0}, "angle_deg"),
        ("source", {"seed": 1}, "seed"),
        ("constant", {"angle_deg": 10.0, "center": (3.0, 3.0)}, "center"),
        ("constant", {"phase_deg": 90.0}, "phase_deg"),
        ("constant", {"seed": 0}, "seed"),
        ("smoothed-random", {"angle_deg": 10.0}, "angle_deg"),
        ("smoothed-random", {"seed": 0, "center": (0.0, 0.0)}, "center"),
        ("sink", {"radius": 1.0}, "radius"),
    ],
)
def test_synth_field_refuses_a_parameter_its_kind_does_not_read(
    grid10, icosphere2, kind, params, name
):
    mesh = icosphere2 if kind == "smoothed-random" else grid10
    with pytest.raises(FieldError, match=f"field kind '{kind}' takes no parameter '{name}'"):
        synth_field(mesh, kind, **params)


def test_phase_turns_every_radial_kind(grid10):
    for kind in ("circular", "source", "sink", "saddle"):
        plain = synth_field(grid10, kind, center=(0.5, 0.5))
        turned = synth_field(grid10, kind, center=(0.5, 0.5), phase_deg=30.0)
        assert not np.array_equal(plain.angles, turned.angles)


def test_smoothed_random_is_deterministic(icosphere2, sphere_random_field):
    again = synth_field(icosphere2, "smoothed-random", seed=0)
    assert np.array_equal(again.angles, sphere_random_field.angles)
    assert np.array_equal(again.windings, sphere_random_field.windings)


_SYNTH_MESHES = {
    "grid": lambda: meshgen.grid(12, 12),
    "distorted grid": lambda: meshgen.grid(12, 12, distortion=0.2, seed=3),
    "disc": lambda: meshgen.disc(4, 16),
    "distorted disc": lambda: meshgen.disc(4, 16, distortion=0.2, seed=3),
    "grid10": lambda: meshgen.grid(10, 10),
    "icosphere2": lambda: meshgen.icosphere(2),
    "torus": meshgen.torus,
}


def _synth_cases():
    """``(name, mesh, kind, params)`` of each pinned synthetic field."""
    for mesh in ("grid", "distorted grid"):
        for angle in (0.0, 33.0, -30.0, 135.0, 1e6 + 0.3, 359.99999999999994):
            yield f"constant {angle!r} on {mesh}", mesh, "constant", {"angle_deg": angle}
    for mesh in ("disc", "distorted disc"):
        for kind in ("circular", "source", "sink", "saddle"):
            for phase in (0.0, 11.0):
                yield f"{kind} phase {phase!r} on {mesh}", mesh, kind, {"phase_deg": phase}
    for kind in ("circular", "source", "sink", "saddle"):
        yield f"{kind} at a vertex of grid10", "grid10", kind, {"center": (0.5, 0.5)}
    for mesh in ("icosphere2", "torus"):
        yield f"smoothed-random seed 1 on {mesh}", mesh, "smoothed-random", {"seed": 1}


# sha256 of the save_field bytes of each synthetic field
SYNTH_SHA256 = {
    "constant 0.0 on grid": "8edf8747463d7b0bb909778b16dcf83ea75c4475808dac02d18934001888037e",
    "constant 33.0 on grid": "a49ce35bcbe10f3024811db58d3c2fe171d7eb6986e6dd126f4891985f08f66e",
    "constant -30.0 on grid": "cab23caedbadccd2689e73cfa46e5a8975268478f4a60096dd5a99b749750ee3",
    "constant 135.0 on grid": "8cc9a4a43c78580e6bd286677f2db80ed3c93073c15387b7fa6fdaabd4f1bf81",
    "constant 1000000.3 on grid": "adbdeaea07ac705423dadab3d1e81c6e3140089900b182acd51e105f3ed3cb3f",
    "constant 359.99999999999994 on grid": "1fef976e0f180b9a5815b5a5c277bd649c7caf61ac55a14723f65372c23751cd",
    "constant 0.0 on distorted grid": "02f8b26fcd96b5a5609751121541fd907f585f17cdd1d5895e17d25b6e5ac97c",
    "constant 33.0 on distorted grid": "adb45082ae58348ee9bf53e6360391ecc99ee4ac885ff1dfa426ca17b81007f0",
    "constant -30.0 on distorted grid": "e768720f784727d582d9a27941e2967f4b1e7dd645113e335f1085909a4f636b",
    "constant 135.0 on distorted grid": "1970eaf256340f9218ebd7c60d4b1e59b65536dcee3168f6eec10935207a33c1",
    "constant 1000000.3 on distorted grid": "5d680fb22efa6385970408ab27f06af34666eb3010d5cad49702a4c7ef83454a",
    "constant 359.99999999999994 on distorted grid": "73fe13c2d308327677707b3a7b13b5cdce630957e87a02ff11312ae85190c1b0",
    "circular phase 0.0 on disc": "af0e110682661f43c918184f2a80d2cb9a8136409c3d7109452449932447585d",
    "circular phase 11.0 on disc": "50d6a0b666ad355d319806c121da770959bef9f929e454ec94a4f0d152178d6b",
    "source phase 0.0 on disc": "ea648708c2852ea8aec9343be48d36e49dc15403a254345103e78a9af077db77",
    "source phase 11.0 on disc": "df721c2f3def9a01eb094b473a5807d3709012855962c9cadb888c8c0f05113e",
    "sink phase 0.0 on disc": "3090dbc071fa7bad6b49245632ac012aba7e1a62655319af1e6ac843c5cd2db3",
    "sink phase 11.0 on disc": "ea0829a7d32307a3135dd877984edfafe13f3819a308927102ebe1a6ab05186f",
    "saddle phase 0.0 on disc": "87bd12055ab204a7631e594ddae815910fecff128bd6fd4e2a4d6b9282aa5daa",
    "saddle phase 11.0 on disc": "132b412f8b5c04818ec2969764d3e82ef6bc4f7a43eb22f81bd74b70f5cf7c48",
    "circular phase 0.0 on distorted disc": "74fbeba14204ba9291cf9e12a6d1064465c1c453b6a9c9249359f306d2f8a7eb",
    "circular phase 11.0 on distorted disc": "0b066e5c7af563821771869159d4d5ce1742513e7bfb2f321c8d70016f0c33e0",
    "source phase 0.0 on distorted disc": "e724a624013d0649c9ccbac3f6a00fc9d0f99f24b4821b833cf464eec3b12bf7",
    "source phase 11.0 on distorted disc": "60571b166367dbb257d60b8b914edb5c55fdafdd636b76e975560c973441fa37",
    "sink phase 0.0 on distorted disc": "de31fe18d0b3f94b7b83d4df789a2a45521f684312e8c399fe23e49c7a2a9dc5",
    "sink phase 11.0 on distorted disc": "55d8cd1fd0ab81cf63050d2ac2654a2b36c11564bf243fca541b0f23ba65a6b0",
    "saddle phase 0.0 on distorted disc": "56576bd644d775a8e3feff298596dd89ba5ee9978a7df1af182b05d9bafca4a0",
    "saddle phase 11.0 on distorted disc": "d710b5b3b2eba39ccf5f67e9921ecdd0479d622944a3d6c4a52fcc947202edb4",
    "circular at a vertex of grid10": "6e9bd905b6d0d0077cfadc462379570a1dc2060e3ddf0d532b35e1e914da1bdb",
    "source at a vertex of grid10": "46130307738053b5c9086b6137df457861e877e44bc34243e903dc6bbb1d71c4",
    "sink at a vertex of grid10": "31d8805245fe2e8490e1cf036fe5326c1dd8b6ad619049790153783f0a61e765",
    "saddle at a vertex of grid10": "31417dac84a513fcafde878f1a65a93125df74f109ed88f0d88738b88b5d7a6f",
    "smoothed-random seed 1 on icosphere2": "e825c3c558239f8e9e9742f35642f2c35d240b34b5a8b599ef0e6510cda5e55b",
    "smoothed-random seed 1 on torus": "07d776af38b31375ae9ecb5321eefddd5f6c70920c42b0eac17216aa7df69e6e",
}


@pytest.mark.parametrize(
    "name, mesh, kind, params", [pytest.param(*case, id=case[0]) for case in _synth_cases()]
)
def test_synthetic_fields_are_pinned(tmp_path, name, mesh, kind, params):
    m = _SYNTH_MESHES[mesh]()
    p = tmp_path / "f.field"
    save_field(p, synth_field(m, kind, **params))
    assert hashlib.sha256(p.read_bytes()).hexdigest() == SYNTH_SHA256[name]


@pytest.mark.parametrize("angle", [field_mod.ANGLE_LIMIT, -1e22])
def test_synth_refuses_an_angle_past_the_winding_range(grid10, angle):
    # its whole turns would not fit the int64 windings
    with pytest.raises(FieldError, match=r"is 360 \* 2\*\*62 degrees or more"):
        synth_field(grid10, "constant", angle_deg=angle)


@pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", ["circular", "source", "sink", "saddle"])
def test_synth_refuses_a_non_finite_phase(kind, phase):
    with pytest.raises(FieldError, match=r"field phase must be a finite number of degrees"):
        synth_field(meshgen.disc(3, 8), kind, phase_deg=phase)


@pytest.mark.parametrize("size", [1e10, -1e12, 1e15, 360.0 * 2.0**61])
def test_synth_huge_offset_angles_give_fields_that_validate(size):
    # the offset less each edge angle rounds to the spacing of doubles at
    # the offset's size: 1.9e-6 degrees at 1e10, past the tolerances
    grid = meshgen.grid(6, 6, distortion=0.2)
    fs = synth_field(grid, "constant", angle_deg=size)
    assert validate(grid, fs) == []
    # the same directions as the angle less its whole turns
    turned = synth_field(grid, "constant", angle_deg=math.fmod(size, 360.0))
    assert np.array_equal(fs.angles, turned.angles)
    disc = meshgen.disc(4, 12, distortion=0.2)
    for kind in ("circular", "saddle"):
        assert validate(disc, synth_field(disc, kind, phase_deg=size)) == []


def test_interpolated_angle_matches_nodes_at_sample_points():
    rng = np.random.default_rng(11)
    from conftest import single_triangle, random_samples

    for _ in range(40):
        m = single_triangle(rng)
        fs = random_samples(rng)
        edge_angles = m.edge_angles[0]
        n = fs.nodes[0]
        for k in range(3):
            a = interpolated_angle(m, fs, 0, 2 * k, 0.0)
            assert math.isclose(
                a, math.radians(n[2 * k]) + edge_angles[k], abs_tol=1e-9
            )
            b = interpolated_angle(m, fs, 0, 2 * k, 1.0)
            assert math.isclose(
                b, math.radians(n[2 * k + 1]) + edge_angles[k], abs_tol=1e-9
            )
        # corner ends meet the next edge's start, modulo 2 pi
        for k in range(3):
            end = interpolated_angle(m, fs, 0, 2 * k + 1, 1.0)
            if k < 2:
                nxt = interpolated_angle(m, fs, 0, 2 * k + 2, 0.0)
            else:
                nxt = interpolated_angle(m, fs, 0, 0, 0.0)
            gap = (end - nxt) % (2 * math.pi)
            gap = min(gap, 2 * math.pi - gap)
            assert gap < 1e-9


def test_interpolated_angle_rejects_bad_t(grid10):
    fs = synth_field(grid10, "constant")
    with pytest.raises(FieldError):
        interpolated_angle(grid10, fs, 0, 0, 1.5)


def test_constant_field_direction_is_uniform(grid10):
    fs = synth_field(grid10, "constant", angle_deg=25.0)
    want = math.radians(25.0)
    for f in range(0, grid10.n_facets, 13):
        u, v = grid10.frame_u[f], grid10.frame_v[f]
        for k in range(3):
            a = interpolated_angle(grid10, fs, 0 if False else f, 2 * k, 0.3)
            d = u * math.cos(a) + v * math.sin(a)
            assert math.isclose(
                math.atan2(d[1], d[0]), want, abs_tol=1e-9
            ), f"facet {f} edge {k}"


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(0, 5))
def test_vertex_index_is_near_integer_on_random_valid_fields(seed, which):
    # any field accepted by validate() has integer vertex indices
    m = meshgen.disc(3, 8, distortion=0.2, seed=which)
    kinds = ["circular", "source", "sink", "saddle", "constant"]
    fs = synth_field(m, kinds[seed % len(kinds)])
    assert validate(m, fs) == []
    for v in range(m.n_vertices):
        if not m.is_boundary_vertex(v):
            idx = vertex_index(m, fs, v)
            assert abs(idx - round(idx)) < 1e-6


def index_corpus():
    """Closed random fields, the radial kinds on plain and distorted discs,
    and a constant field on a distorted grid."""
    for make in (lambda: meshgen.icosphere(3), meshgen.torus):
        m = make()
        for seed in range(4):
            yield m, synth_field(m, "smoothed-random", seed=seed)
    for distortion in (0.0, 0.2):
        m = meshgen.disc(8, 24, distortion=distortion, seed=1)
        for kind in ("circular", "source", "sink", "saddle"):
            yield m, synth_field(m, kind)
    m = meshgen.grid(40, 40, distortion=0.3, seed=0)
    yield m, synth_field(m, "constant", angle_deg=30.0)


def test_vertex_index_from_samples_is_the_geometric_index():
    # the corner angles of the jumps and of the angle defect cancel: the
    # index read from the samples alone takes every INDEX_TOL decision the
    # geometric sum takes
    checked = 0
    for m, fs in index_corpus():
        for v in range(m.n_vertices):
            if m.is_boundary_vertex(v):
                continue
            got, want = vertex_index(m, fs, v), geometric_vertex_index(m, fs, v)
            assert abs(got - want) <= 1e-12, (v, got, want)
            assert (got > INDEX_TOL) == (want > INDEX_TOL), (v, got, want)
            assert (abs(got) <= INDEX_TOL) == (abs(want) <= INDEX_TOL), (v, got, want)
            checked += 1
    assert checked == 6593


def test_nodes_rows_are_the_read_only_node_table(sphere_random_field, disc_mesh):
    for fs in (sphere_random_field, synth_field(disc_mesh, "saddle")):
        for f in range(fs.n_facets):
            th = fs.angles[f] + 360.0 * fs.windings[f]
            want = np.append(th, th[0] - 360.0)
            got = fs.nodes[f]
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert not got.flags.writeable
        with pytest.raises(ValueError):
            fs.nodes[0][3] = 1.0


def test_samples_reject_nan_angles():
    ang = np.zeros((1, 6))
    ang[0, 2] = np.nan
    with pytest.raises(FieldError):
        FieldSamples(ang, np.zeros((1, 6), dtype=np.int64))


def loop_validate(mesh, fieldsamples):
    """Per-halfedge and per-vertex loop oracle for ``validate``.

    This is how ``validate`` checked fields before it worked on arrays: one
    Python loop over interior halfedges, then one over vertices and their
    corners, with Python ``round`` and ``max``/``min``.
    """

    def gap(delta_deg):
        return abs(delta_deg - 360.0 * round(delta_deg / 360.0))

    violations = []
    for h in range(mesh.n_interior_halfedges):
        o = mesh.opposite(h)
        if o < h or not mesh.has_facet(o):
            continue
        f, k = h // 3, h % 3
        g, k2 = o // 3, o % 3
        na, nb = fieldsamples.nodes[f], fieldsamples.nodes[g]
        d1 = gap(nb[2 * k2 + 1] - na[2 * k] - 180.0)
        d2 = gap(nb[2 * k2] - na[2 * k + 1] - 180.0)
        d3 = abs((na[2 * k + 1] - na[2 * k]) + (nb[2 * k2 + 1] - nb[2 * k2]))
        worst = max(d1, d2, d3)
        if worst > CONTINUITY_TOL_DEG:
            u, v = mesh.origin(h), mesh.dest(h)
            violations.append(
                Violation("edge-continuity", f"edge ({u}, {v})", worst, edge=(u, v))
            )
    for v in range(mesh.n_vertices):
        if mesh.is_boundary_vertex(v):
            continue
        ratios = []
        for h in mesh.outgoing_halfedges(v):
            f = mesh.facet(h)
            if f is None:
                continue
            k = (h % 3 + 2) % 3
            beta = float(mesh.betas[f, k])
            ratios.append(corner_jump_deg(mesh, fieldsamples, f, k) / beta)
        if ratios and max(ratios) - min(ratios) > EVENNESS_TOL:
            violations.append(
                Violation(
                    "uneven-corner-distribution",
                    f"vertex {v}",
                    max(ratios) - min(ratios),
                    vertex=v,
                )
            )
    return violations


def _broken(fs, rng, n):
    """``fs`` with n random samples overwritten; half of them are nudges."""
    ang = fs.angles.copy()
    wnd = fs.windings.copy()
    for _ in range(n):
        f = int(rng.integers(fs.n_facets))
        i = int(rng.integers(6))
        way = int(rng.integers(4))
        if way == 0:  # any angle, any nearby winding
            ang[f, i] = rng.uniform(0.0, 360.0)
            wnd[f, i] += int(rng.integers(-2, 3))
        elif way == 1:  # a whole turn: only corner distributions can see it
            wnd[f, i] += int(rng.choice([-1, 1]))
        else:  # a nudge on either side of the tolerances
            step = rng.choice([0.3e-6, 0.9e-6, 1.1e-6, 3e-6, 1e-3])
            a = ang[f, i] + rng.choice([-1.0, 1.0]) * step
            ang[f, i] = min(max(a, 0.0), np.nextafter(360.0, 0.0))
    return FieldSamples(ang, wnd)


def test_validate_equals_loop_oracle_on_consistent_fields(
    disc_mesh, icosphere2, torus_mesh, sphere_random_field
):
    grid = meshgen.grid(9, 7, distortion=0.3, seed=4)
    cases = [
        (grid, synth_field(grid, "constant", angle_deg=33.0)),
        (disc_mesh, synth_field(disc_mesh, "circular")),
        (disc_mesh, synth_field(disc_mesh, "saddle")),
        (icosphere2, sphere_random_field),
        (torus_mesh, synth_field(torus_mesh, "smoothed-random", seed=4)),
    ]
    for m, fs in cases:
        assert validate(m, fs) == loop_validate(m, fs) == []


def test_validate_equals_loop_oracle_on_broken_fields():
    grid = meshgen.grid(9, 7, distortion=0.3, seed=4)
    disc = meshgen.disc(5, 16, distortion=0.2, seed=3)
    sphere = meshgen.icosphere(3)
    torus = meshgen.torus()
    scenes = [
        (grid, synth_field(grid, "constant", angle_deg=33.0)),
        (disc, synth_field(disc, "sink")),
        (sphere, synth_field(sphere, "smoothed-random", seed=2)),
        (torus, synth_field(torus, "smoothed-random", seed=5)),
    ]
    rng = np.random.default_rng(23)
    sizes = []
    kinds = set()
    for m, fs in scenes:
        for n in (1, 2, 5, 20, 80):
            bad = _broken(fs, rng, n)
            want = loop_validate(m, bad)
            assert validate(m, bad) == want
            sizes.append(len(want))
            kinds.update(v.kind for v in want)
    assert kinds == {"edge-continuity", "uneven-corner-distribution"}
    assert sum(s >= 50 for s in sizes) >= 4
    assert min(sizes) <= 2


def test_smoothed_random_repairs_handle_loops(monkeypatch):
    # on a noisy torus the spanning-tree propagation picks up fractional
    # holonomy around the handles; the repair adds one loop row per
    # non-tree edge that disagrees and solves again
    m = meshgen.torus(n_major=10, n_minor=6)
    rng = np.random.default_rng(0)
    m = SurfaceMesh(m.vertices + rng.normal(0.0, 0.03, m.vertices.shape), m.faces)
    rows = []
    defect_row = field_mod._defect_row

    def counted(*args):
        rows.append(defect_row(*args))
        return rows[-1]

    monkeypatch.setattr(field_mod, "_defect_row", counted)
    fs = synth_field(m, "smoothed-random", seed=0)
    assert len(rows) == 20
    assert validate(m, fs) == []
