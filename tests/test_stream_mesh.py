import hashlib
import math
from functools import cache
from itertools import chain

import numpy as np
import pytest

from streamtrace import FieldSamples, StreamMeshError, meshgen, stream_mesh, synth_field
from streamtrace.mesh import SurfaceMesh
from streamtrace.tracer import Tracer
from streamtrace.stream_mesh import IN, LABELS, OUT, TB, TF, BorderTable, decompose
from streamtrace.stream_mesh import _behaviors, _segment

from conftest import TANGENTS, a_sequence, border_face, faces_of, initial_pairs, is_simple, phi
from conftest import _DECODE, decode, dump, split_count
from conftest import samples_from_reals, single_triangle, random_samples, wound_config
from conftest import normalize_sample


def _classify(value_deg):
    return int(_behaviors(np.array([value_deg]))[0])


def _segment_values(d0, d1):
    """(behavior, t0, t1, b0, b1) of each piece of the linear angle d0 -> d1."""
    _, beh, *columns = _segment(np.array([d0]), np.array([d1]))
    rows = zip(beh.tolist(), *(c.tolist() for c in columns))
    return list(rows)


def test_classify_levels():
    assert _classify(0.0) == TF
    assert _classify(720.0) == TF
    assert _classify(180.0) == TB
    assert _classify(-180.0) == TB
    assert _classify(90.0) == IN
    assert _classify(350.0) == OUT
    assert _classify(-350.0) == IN


def test_segment_values_constant_inflow():
    pieces = _segment_values(30.0, 150.0)
    assert len(pieces) == 1
    beh, t0, t1, b0, b1 = pieces[0]
    assert (beh, t0, t1, b0, b1) == (IN, 0.0, 1.0, 30.0, 150.0)


def test_segment_values_tangency_roots_are_exact():
    # value runs 90 -> -90, tangent to the border exactly at t = 0.5
    pieces = _segment_values(90.0, -90.0)
    assert [p[0] for p in pieces] == [IN, TF, OUT]
    assert pieces[1][1] == pieces[1][2] == 0.5
    # root parameter is computed from the level equation, not bisected
    pieces = _segment_values(10.0, 370.0)
    tf = [p for p in pieces if p[0] == TF]
    assert len(tf) == 1
    assert tf[0][1] == (360.0 - 10.0) / 360.0


def test_segment_values_endpoint_tangencies_are_zero_length():
    pieces = _segment_values(0.0, 120.0)
    assert pieces[0][0] == TF
    assert pieces[0][1] == pieces[0][2] == 0.0
    assert pieces[1][0] == IN
    pieces = _segment_values(45.0, 180.0)
    assert pieces[-1][0] == TB
    assert pieces[-1][1] == pieces[-1][2] == 1.0


def test_segment_values_cover_unit_interval_and_alternate():
    rng = np.random.default_rng(2)
    for _ in range(500):
        d0 = float(rng.uniform(-720.0, 720.0))
        d1 = float(rng.uniform(-720.0, 720.0))
        pieces = _segment_values(d0, d1)
        assert pieces[0][1] == 0.0
        assert pieces[-1][2] == 1.0
        for a, b in zip(pieces, pieces[1:]):
            assert a[2] == b[1]
        # dense classification oracle at interior points
        for beh, t0, t1, b0, b1 in pieces:
            if t1 > t0:
                for t in np.linspace(t0 + 1e-9, t1 - 1e-9, 5):
                    v = d0 + (d1 - d0) * float(t)
                    assert _classify(v) == beh or abs(
                        v - 360.0 * round(v / 360.0)
                    ) < 1e-6 or abs(v - 180.0 - 360.0 * round((v - 180.0) / 360.0)) < 1e-6


def segment_interval(mesh, fieldsamples, f, element):
    """(behavior, t0, t1) of each piece of border element ``element`` of f."""
    codes, columns, elements, _, _ = BorderTable(mesh, fieldsamples).border(f)
    rows = range(elements[element], elements[element + 1])
    return [(_DECODE[codes[r]][1], columns[0][r], columns[1][r]) for r in rows]


def test_segment_interval_mirrors_exactly():
    m = meshgen.grid(1, 1)
    fs = synth_field(m, "constant", angle_deg=77.0)
    # shared diagonal between facets 0 and 1
    shared = next(
        h
        for h in range(m.n_interior_halfedges)
        if m.has_facet(m.opposite(h)) and m.opposite(h) < m.n_interior_halfedges
    )
    o = m.opposite(shared)
    a = segment_interval(m, fs, shared // 3, 2 * (shared % 3))
    b = segment_interval(m, fs, o // 3, 2 * (o % 3))
    assert len(a) == len(b)
    for pa, pb in zip(a, reversed(b)):
        assert pa[1] == 1.0 - pb[2]  # bit-exact reversed cuts
        assert pa[2] == 1.0 - pb[1]
        assert pa[0] == {
            IN: OUT,
            OUT: IN,
            TF: TB,
            TB: TF,
        }[pb[0]]


def test_mirrored_cuts_identical_on_random_meshes():
    rng = np.random.default_rng(6)
    for seed in range(10):
        m = meshgen.grid(4, 4, distortion=0.3, seed=seed)
        fs = synth_field(m, "circular")
        for h in range(m.n_interior_halfedges):
            ohe = m.opposite(h)
            if ohe < h or not m.has_facet(ohe):
                continue
            a = segment_interval(m, fs, h // 3, 2 * (h % 3))
            b = segment_interval(m, fs, ohe // 3, 2 * (ohe % 3))
            # h < ohe, so side a is canonical and side b stores exactly 1 - t.
            cuts_a = sorted({1.0 - p[1] for p in a} | {1.0 - p[2] for p in a})
            cuts_b = sorted({p[2] for p in b} | {p[1] for p in b})
            assert cuts_a == cuts_b


def fan_mesh():
    verts = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.5, 1.5, 0.0]])
    return SurfaceMesh(verts, [[0, 1, 2]])


WOUND = [45.0, 415.0, 170.0, -130.0, 95.0, -340.0]

GOLDEN_DUMP = """\
edge0 [0, 0.364864864865] I face2
edge0 [0.364864864865, 0.364864864865] Tb face2
edge0 [0.364864864865, 0.364864864865] Tb face3
edge0 [0.364864864865, 0.851351351351] O face3
edge0 [0.851351351351, 0.851351351351] Tf face3
edge0 [0.851351351351, 0.851351351351] Tf face0
edge0 [0.851351351351, 1] I face0
corner0 [0, 0.224489795918] I face0
corner0 [0.224489795918, 0.224489795918] Tf face0
corner0 [0.224489795918, 0.959183673469] O face0
corner0 [0.959183673469, 0.959183673469] Tb face0
corner0 [0.959183673469, 0.959183673469] Tb face3
corner0 [0.959183673469, 0.959183673469] Tb face1
corner0 [0.959183673469, 1] I face1
edge1 [0, 0.566666666667] I face1
edge1 [0.566666666667, 0.566666666667] Tf face1
edge1 [0.566666666667, 1] O face1
corner1 [0, 0.577777777778] O face1
corner1 [0.577777777778, 0.577777777778] Tf face1
corner1 [0.577777777778, 0.577777777778] Tf face3
corner1 [0.577777777778, 1] I face3
edge2 [0, 0.218390804598] I face3
edge2 [0.218390804598, 0.218390804598] Tf face3
edge2 [0.218390804598, 0.218390804598] Tf face2
edge2 [0.218390804598, 0.632183908046] O face2
edge2 [0.632183908046, 0.632183908046] Tb face2
edge2 [0.632183908046, 1] I face2
corner2 [0, 1] I face2
chord face1 (corner1 t=0.577777777778) -> (corner0 t=0.959183673469) O
chord face3 (corner0 t=0.959183673469) -> (corner1 t=0.577777777778) I
chord face2 (edge0 t=0.364864864865) -> (edge2 t=0.218390804598) I
chord face3 (edge2 t=0.218390804598) -> (edge0 t=0.364864864865) O
chord face3 (edge0 t=0.851351351351) -> (corner0 t=0.959183673469) O
chord face0 (corner0 t=0.959183673469) -> (edge0 t=0.851351351351) I
"""


# (b0, b1, length) of each chord of GOLDEN_DUMP, in the same order
GOLDEN_CHORDS = [
    ("0x1.eeb2885020aafp+7", "0x1.627d6343eb1a2p+8", "0x1.0f876ccdf6cd9p+1"),
    ("0x1.5cfac687d6344p+7", "0x1.0d6510a04155ep+6", "0x1.0f876ccdf6cd9p+1"),
    ("0x1.27815685bfc96p+6", "0x1.22e1f9a62c203p+7", "0x1.386d6da08b202p+0"),
    ("-0x1.147819674f7f4p+5", "-0x1.a87ea97a4036ap+6", "0x1.386d6da08b202p+0"),
    ("0x1.6800000000000p+8", "0x1.357d6343eb1a2p+8", "0x1.306eb3e453070p-2"),
    ("0x1.02fac687d6344p+7", "0x1.6800000000000p+7", "0x1.306eb3e453070p-2"),
]

# (face, behavior) -> (starts, total) of each run of the golden decomposition
GOLDEN_RUNS = {
    (0, "I"): (
        ["0x0.0p+0", "0x1.f6e1e57b653b1p-4", "0x1.f6e1e57b653b1p-4",
         "0x1.04f4de8b1d3ddp-2"],
        "0x1.04f4de8b1d3ddp-2",
    ),
    (0, "O"): (["0x0.0p+0"], "0x1.0000000000000p+0"),
    (1, "I"): (["0x0.0p+0", "0x0.0p+0"], "0x1.9bb6e2102c738p-1"),
    (1, "O"): (
        ["0x0.0p+0", "0x1.54c4a663066fcp-1", "0x1.54c4a663066fcp-1",
         "0x1.54c4a663066fcp-1"],
        "0x1.1da5f25077a27p+1",
    ),
    (2, "I"): (
        ["0x0.0p+0", "0x1.9da72f7b21186p-2", "0x1.9da72f7b21186p-2",
         "0x1.dd85b91e60d87p-1", "0x1.dd85b91e60d87p-1"],
        "0x1.011c6bd78553ep+1",
    ),
    (2, "O"): (["0x0.0p+0"], "0x1.aa8398240bbe9p-2"),
    (3, "I"): (
        ["0x0.0p+0", "0x1.90e9916f6c0d1p+0", "0x1.90e9916f6c0d1p+0",
         "0x1.90e9916f6c0d1p+0"],
        "0x1.cadf8ee189836p+0",
    ),
    (3, "O"): (
        ["0x0.0p+0", "0x1.1375fb1fda3b9p+0", "0x1.1375fb1fda3b9p+0",
         "0x1.b207e2c9727ddp+0", "0x1.b207e2c9727ddp+0"],
        "0x1.d176012128d18p+0",
    ),
}


def test_golden_decomposition_dump():
    borders = BorderTable(fan_mesh(), samples_from_reals(WOUND))
    sm = decompose(borders, 0)
    assert dump(sm) == GOLDEN_DUMP
    assert split_count(sm) == 3
    assert initial_pairs(borders, 0) == 4
    chords = [
        (float(sm.b0[r]).hex(), float(sm.b1[r]).hex(), float(sm.length[r]).hex())
        for r in range(len(sm.code))
        if decode(sm, r)[0] == "chord"
    ]
    assert chords == GOLDEN_CHORDS
    # face i has the inflow run 2 i and the outflow run 2 i + 1
    runs = {
        (k // 2, LABELS[k % 2]): (hexes(prefix[:-1]), float(prefix[-1]).hex())
        for k, prefix in enumerate(sm.run_prefix)
    }
    assert runs == GOLDEN_RUNS


def test_initial_a_sequence_closes_at_minus_two():
    borders = BorderTable(fan_mesh(), samples_from_reals(WOUND))
    face = border_face(borders, 0)
    a = a_sequence(borders.border(0)[0], face)
    assert a[0] == 0
    full = a + [-2]  # one value per group, closing value validated internally
    steps = [b - a_ for a_, b in zip(full, full[1:])]
    assert all(s in (-1, 1) for s in steps)
    assert sum(steps) == -2
    assert not is_simple(face)


def test_decompose_produces_simple_faces_with_flux():
    borders = BorderTable(fan_mesh(), samples_from_reals(WOUND))
    sm = decompose(borders, 0)
    for face_id, face in enumerate(faces_of(borders, sm)):
        assert is_simple(face)
        seq = a_sequence(sm.code, face)
        assert all(b < a for a, b in zip(seq, seq[1:]))
        runs = sm.run_rows[2 * face_id : 2 * face_id + 2]
        assert [decode(sm, rows[0])[1] for rows in runs] == [IN, OUT]
        assert sm.run_prefix[2 * face_id][-1] > 0.0
        assert sm.run_prefix[2 * face_id + 1][-1] > 0.0


def test_simple_config_needs_no_split():
    m = fan_mesh()
    for angle in (17.0, 37.0, 130.0):
        borders = BorderTable(m, synth_field(m, "constant", angle_deg=angle))
        sm = decompose(borders, 0)
        assert split_count(sm) == 0
        assert initial_pairs(borders, 0) == 1
        assert sm.faces is None


def test_border_always_carries_both_flows():
    # the border direction gains a full turn per loop, so even edge samples
    # that all point inward leave tangencies (and outflow) inside the corners
    m = fan_mesh()
    fs = samples_from_reals([30.0, 40.0, 50.0, 60.0, 70.0, 80.0])
    behaviors = set()
    for element in range(6):
        for b, t0, t1 in segment_interval(m, fs, 0, element):
            if t1 > t0:
                behaviors.add(b)
    assert {IN, OUT} <= behaviors
    borders = BorderTable(m, fs)
    decompose(borders, 0)
    assert initial_pairs(borders, 0) >= 1


def test_decompose_random_stress():
    rng = np.random.default_rng(42)
    hist = {}
    for _ in range(1500):
        borders = BorderTable(*wound_config(rng))
        sm = decompose(borders, 0)
        assert split_count(sm) == initial_pairs(borders, 0) - 1
        hist[split_count(sm)] = hist.get(split_count(sm), 0) + 1
        for face in faces_of(borders, sm):
            seq = a_sequence(sm.code, face)
            assert all(b < a for a, b in zip(seq, seq[1:])), seq
        for prefix in sm.run_prefix:
            assert prefix[-1] > 0.0
    # the corpus must actually exercise multi-split configurations
    assert max(hist) >= 8


# fan-mesh samples along which whole border elements run tangent, so that a
# split meets a separator of two or three tangent pieces
MULTI_TANGENT = [
    [-270.0, 180.0, 180.0, 180.0, 180.0, 540.0],
    [-270.0, -90.0, 0.0, 0.0, 0.0, 540.0],
]


def test_every_stream_face_closes():
    rng = np.random.default_rng(21)
    tables = [BorderTable(*wound_config(rng)) for _ in range(300)]
    tables += [BorderTable(fan_mesh(), samples_from_reals(v)) for v in MULTI_TANGENT]
    # and unsplit facets, whose one face is their border
    m = fan_mesh()
    for angle in (17.0, 37.0, 130.0):
        tables.append(BorderTable(m, synth_field(m, "constant", angle_deg=angle)))
    for borders in tables:
        sm = decompose(borders, 0)
        n = sm.elements[6]
        owner, origin, dest = {}, {}, {}
        for face_id, (groups, seps) in enumerate(faces_of(borders, sm)):
            walk = [r for sep, g in zip(seps, groups) for r in sep + g]
            for r in walk:
                assert r not in owner
                owner[r] = face_id
                assert sm.run[r] in (-1, 2 * face_id, 2 * face_id + 1)
            for a, b in zip(walk, walk[1:] + walk[:1]):
                if a < n and b < n:
                    assert b == (a + 1) % n
                # a chord runs from where the row before it ends to where
                # the row after it starts
                if b >= n:
                    origin[b] = (decode(sm, a)[2], sm.t1[a])
                if a >= n:
                    dest[a] = (decode(sm, b)[2], sm.t0[b])
        assert sorted(owner) == list(range(len(sm.code)))
        # twins span the same two anchors in opposite directions
        assert sorted(sm.twin) == list(range(n, len(sm.code)))
        for r, t in sm.twin.items():
            assert (origin[r], dest[r]) == (dest[t], origin[t])
        # each run's rows know their run and the flux before them
        for k, rows in enumerate(sm.run_rows):
            assert [sm.run[r] for r in rows] == [k] * len(rows)
            assert hexes(sm.start[r] for r in rows) == hexes(sm.run_prefix[k][:-1])


def test_chord_twins_carry_equal_flux():
    rng = np.random.default_rng(13)
    seen = 0
    while seen < 200:
        mesh, fs = wound_config(rng)
        sm = decompose(BorderTable(mesh, fs), 0)
        for r, t in sm.twin.items():
            if r < t:
                assert phi(sm, r, 1.0) == pytest.approx(phi(sm, t, 1.0), abs=1e-12)
                assert decode(sm, r)[1] != decode(sm, t)[1]
                seen += 1


def test_import_export_round_trip_on_edges():
    m = fan_mesh()
    fs = samples_from_reals(WOUND)
    sm = decompose(BorderTable(m, fs), 0)
    rng = np.random.default_rng(14)
    for _ in range(200):
        k = int(rng.integers(0, 3))
        c = float(rng.uniform(0.0, 1.0))
        try:
            r, csm = sm.import_position(3 * 0 + k, c, IN)
        except StreamMeshError:
            continue  # outflow point: not importable
        kind, _, element, _ = decode(sm, r)
        assert kind in ("edge", "corner")
        h, _ = sm.export_position(r, csm)
        # exporting an edge piece lands back on the same undirected edge
        if kind == "edge":
            assert h % 3 == element // 2 or not m.has_facet(h)


def test_export_position_returns_a_plain_pair():
    m = fan_mesh()
    sm = decompose(BorderTable(m, samples_from_reals(WOUND)), 0)
    kinds = set()
    for r in range(len(sm.code)):
        kind = decode(sm, r)[0]
        if kind != "chord":
            point = sm.export_position(r, 0.5)
            assert type(point) is tuple and len(point) == 2
            kinds.add(kind)
    assert kinds == {"edge", "corner"}


def test_import_prefers_inflow_at_shared_cut():
    m = fan_mesh()
    fs = samples_from_reals(WOUND)
    sm = decompose(BorderTable(m, fs), 0)
    # t = 0.364864... on edge 0 is an exact cut between I and O pieces
    r, c = sm.import_position(0, 27.0 / 74.0, IN)
    assert decode(sm, r)[1] == IN
    # a backward line enters the same stream mesh on the outflow side
    r, c = sm.import_position(0, 27.0 / 74.0, OUT)
    assert decode(sm, r)[1] == OUT


@pytest.mark.parametrize("enter, c, label", [(IN, 0.6, "I"), (OUT, 0.2, "O")])
def test_import_refuses_a_point_inside_a_piece_of_the_other_flow(enter, c, label):
    # edge 0 of the wound facet is I on [0, 27/74] and O on [27/74, 63/74]
    sm = decompose(BorderTable(fan_mesh(), samples_from_reals(WOUND)), 0)
    message = f"entry at edge 0 t={c} of facet 0 is not on an {label} piece or a tangency"
    with pytest.raises(StreamMeshError) as exc:
        sm.import_position(0, c, enter)
    assert str(exc.value) == message


def test_package_namespace_leaves_out_the_row_level_internals():
    import streamtrace

    assert len(streamtrace.__all__) == len(set(streamtrace.__all__)) == 26
    assert all(hasattr(streamtrace, name) for name in streamtrace.__all__)
    internals = {
        "Behavior", "BorderTable", "StreamMesh", "decompose",
        "accumulate", "locate", "phi_inverse",
    }
    assert internals.isdisjoint(streamtrace.__all__)


def test_import_takes_only_the_facets_own_halfedges():
    m = fan_mesh()
    fs = samples_from_reals(WOUND)
    sm = decompose(BorderTable(m, fs), 0)
    rng = np.random.default_rng(16)
    imported = 0
    for _ in range(60):
        k = int(rng.integers(0, 3))
        c = float(rng.uniform(0.0, 1.0))
        try:
            sm.import_position(k, c, IN)
        except StreamMeshError:
            continue  # outflow point: not importable
        imported += 1
        # the same point named from the other side of the edge
        with pytest.raises(StreamMeshError):
            sm.import_position(m.opposite(k), 1.0 - c, IN)
    assert imported >= 10


def test_reference_rotation_leaves_cuts_invariant():
    m = fan_mesh()
    fs = samples_from_reals(WOUND)
    before = dump(decompose(BorderTable(m, fs), 0))
    m.set_reference_offsets([1.2345])
    after = dump(decompose(BorderTable(m, fs), 0))
    m.set_reference_offsets([0.0])
    assert before == after


def test_corner_sink_pieces_have_zero_length():
    rng = np.random.default_rng(15)
    found = 0
    while found < 50:
        mesh, fs = wound_config(rng)
        sm = decompose(BorderTable(mesh, fs), 0)
        for r in range(len(sm.code)):
            if decode(sm, r)[0] == "corner":
                assert sm.length[r] == 0.0
                found += 1


@cache
def corpus_borders():
    """Border tables of 300 random wound facets (rng seed 5) and the MULTI_TANGENT fans."""
    rng = np.random.default_rng(5)
    tables = [BorderTable(*wound_config(rng)) for _ in range(300)]
    return tables + [BorderTable(fan_mesh(), samples_from_reals(v)) for v in MULTI_TANGENT]


@cache
def decomposition_corpus():
    """The decomposed facet 0 of each of ``corpus_borders()``."""
    return [decompose(borders, 0) for borders in corpus_borders()]


# sha256 of decomposition_digest over decomposition_corpus(); it pins the
# dump, runs, piece angles, lengths, twins and fluxes bit for bit
CORPUS_SHA256 = "b038477e893842a49c52f61a1b98663f57c4d379f21a1a89852c7447e5a1fe99"


def decomposition_digest(meshes):
    h = hashlib.sha256()
    for sm in meshes:
        h.update(dump(sm).encode())
        face = {}
        for face_id, (groups, seps) in enumerate(sm.faces or ()):
            face.update(dict.fromkeys(chain(*groups, *seps), face_id))
        for k, rows in enumerate(sm.run_rows):
            prefix = sm.run_prefix[k]
            h.update(
                f"face{k // 2} {LABELS[k % 2]} {rows} {hexes(prefix[:-1])} "
                f"{float(prefix[-1]).hex()}\n".encode()
            )
        for r in range(len(sm.code)):
            flux = "-" if decode(sm, r)[1] in TANGENTS else float(phi(sm, r, 1.0)).hex()
            h.update(
                f"{r} face{face.get(r, 0)} {float(sm.b0[r]).hex()} {float(sm.b1[r]).hex()} "
                f"{float(sm.length[r]).hex()} {sm.twin.get(r)} {flux}\n".encode()
            )
    return h.hexdigest()


def test_decomposition_corpus_is_pinned():
    assert decomposition_digest(decomposition_corpus()) == CORPUS_SHA256


def whole_mesh_scenes():
    """(name, mesh, field) of the scenes whose every facet is pinned."""
    grid = meshgen.grid(12, 12, distortion=0.3, seed=0)
    yield "grid-constant", grid, synth_field(grid, "constant", angle_deg=0.0)
    for s in range(3):
        disc = meshgen.disc(5, 16, distortion=0.2, seed=s)
        yield f"disc-saddle-{s}", disc, synth_field(disc, "saddle")
    for name, closed in (("torus", meshgen.torus()), ("icosphere3", meshgen.icosphere(3))):
        yield f"{name}-random", closed, synth_field(closed, "smoothed-random", seed=1)


# sha256 of decomposition_digest over every facet of each scene, in facet
# order.  A mirrored edge reads its canonical side, and junction tangents
# are merged across elements, so these pin what single-facet fans cannot.
WHOLE_MESH_SHA256 = {
    "grid-constant": "3f47dfdf1a16dccbb06b43b37fe8b7fae8c6abd4c58699e6422e62a66e568e0d",
    "disc-saddle-0": "19a55b5a885ab6f40f14c03b75436438b7bc89a88b28beb98e1c4b1b000371e0",
    "disc-saddle-1": "d1b707316bb8a529d20605db2d05f327f779bfa204fb1f277f6e1c4f1549dad3",
    "disc-saddle-2": "7c7086b9624ffe919cee1c5b8939a381e6e2b85e27dcd919ebd70e43c0794b8b",
    "torus-random": "be644f6796e5e6c5a69327695beee6e221ad804a96c276955f8cf6b2dd2a717e",
    "icosphere3-random": "412c7da9d1c1359b736f641a8e26a03b7d0f7d446fd0c01e6c139fba5c4fed7a",
}


def test_whole_mesh_decompositions_are_pinned():
    got = {}
    for name, mesh, fs in whole_mesh_scenes():
        tr = Tracer(mesh, fs)
        got[name] = decomposition_digest([tr.stream_mesh(f) for f in range(mesh.n_facets)])
    assert got == WHOLE_MESH_SHA256


def test_every_interior_edge_flow_row_has_its_mirror_across():
    # a line crosses an edge from its exit row to the row that holds the
    # same piece in the facet across: the j-th flow row of the edge's
    # element here is the j-th from the end there, whatever tangents a
    # split or a junction added on either side
    pairs = split_sides = uneven = 0  # uneven: edges whose sides hold unequal rows
    for name, mesh, fs in whole_mesh_scenes():
        tr = Tracer(mesh, fs)
        for h in mesh.edge_halfedges().tolist():
            o = mesh.opposite(h)
            if not (mesh.has_facet(h) and mesh.has_facet(o)):
                continue
            sides = []
            for g in (h, o):
                sm = tr.stream_mesh(mesh.facet(g))
                e = 2 * (g % 3)
                rows = range(sm.elements[e], sm.elements[e + 1])
                sides.append((sm, [r for r in rows if decode(sm, r)[1] not in TANGENTS], len(rows)))
                split_sides += sm.faces is not None
            (a, rows_a, n_a), (b, rows_b, n_b) = sides
            uneven += n_a != n_b
            assert len(rows_a) == len(rows_b), (name, h)
            for ra, rb in zip(rows_a, reversed(rows_b)):
                assert decode(b, rb)[1] == decode(a, ra)[1] ^ 1, (name, h)
                gap = max(abs(a.t0[ra] - (1.0 - b.t1[rb])), abs(a.t1[ra] - (1.0 - b.t0[rb])))
                assert gap <= 1e-12, (name, h)
                ta, tb = a.total[ra], b.total[rb]
                assert abs(ta - tb) <= max(1e-9 * max(ta, tb), 1e-15), (name, h, ta, tb)
                pairs += 1
    # measured: spans within 5.6e-17 and totals within 3.0e-11 relative;
    # each side computes its totals from its own node angles
    assert (pairs, split_sides, uneven) == (3942, 366, 126)


def test_border_rows_do_not_depend_on_the_block_size(monkeypatch):
    def borders(mesh, fs):
        table, out = BorderTable(mesh, fs), []
        for f in range(mesh.n_facets):
            try:
                out.append(repr(table.border(f)))
            except StreamMeshError as exc:
                out.append(str(exc))
        return out

    chosen = stream_mesh.BLOCK_FACETS
    for name, mesh, fs in whole_mesh_scenes():
        got = {}
        for size in (1, 7, chosen, mesh.n_facets):
            monkeypatch.setattr(stream_mesh, "BLOCK_FACETS", size)
            got[size] = borders(mesh, fs)
        # repr tells -0.0 from 0.0 and prints each double exactly
        assert [size for size, rows in got.items() if rows != got[1]] == [], name


def test_a_broken_border_raises_only_when_its_facet_is_decomposed():
    # random samples with random windings disagree across edges: some
    # borders cannot be decomposed, and each raises only for its own facet
    mesh = meshgen.grid(8, 8, distortion=0.2, seed=0)
    rng = np.random.default_rng(100)
    vals = rng.uniform(0.0, 360.0, (mesh.n_facets, 6))
    vals += 360.0 * rng.integers(-2, 3, (mesh.n_facets, 6))
    tr = Tracer(mesh, samples_of(vals))
    out = []
    for f in range(mesh.n_facets):
        try:
            out.append(dump(tr.stream_mesh(f)))
        except StreamMeshError as exc:
            out.append(f"facet {f}: {exc}")
    failed = [o for o in out if o.startswith("facet")]
    assert len(failed) == 121
    assert any(o.endswith("adjacent opposite flow groups without a tangency") for o in failed)
    assert hashlib.sha256("\n".join(out).encode()).hexdigest() == (
        "4edf1618d32ba5bb3b798e2c0f42279485ea5d13a3b79b95deb9ac316748ce3e"
    )


def samples_of(vals):
    """FieldSamples of a ``(facets, 6)`` array of real angles in degrees."""
    ang, wnd = zip(*(normalize_sample(float(v)) for v in vals.ravel()))
    return FieldSamples(np.reshape(ang, vals.shape), np.reshape(wnd, vals.shape))


def snapped_grid(seed):
    """A 6 x 6 grid with random samples, a fifth of them multiples of 180."""
    mesh = meshgen.grid(6, 6, distortion=0.2, seed=seed)
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.0, 360.0, (mesh.n_facets, 6))
    vals += 360.0 * rng.integers(-2, 3, (mesh.n_facets, 6))
    snap = rng.random(vals.shape) < 0.2
    vals[snap] = 180.0 * rng.integers(-4, 5, snap.sum())
    return mesh, samples_of(vals)


def tangent_edged_disc(corner):
    """A disc whose facet 17 reads every edge from a tangent canonical side.

    All three halfedges of facet 17 have a smaller opposite, so its edges
    are cut from its neighbours' samples, set to 0 there; its own samples
    are all ``corner``, which its corners then run along.
    """
    mesh = meshgen.disc(2, 6)
    vals = np.full((mesh.n_facets, 6), 30.0)
    for k in range(3):
        o = mesh.opposite(3 * 17 + k)
        assert o < 3 * 17 + k
        vals[o // 3, 2 * (o % 3) : 2 * (o % 3) + 2] = 0.0
    vals[17] = [corner + 360.0] + [corner] * 5
    return mesh, samples_of(vals)


# one facet for each message decompose raises on a border it cannot
# decompose; "split target is not a tangent piece" and "face i is not
# simple" guard states no border reaches
DECOMPOSE_ERRORS = [
    pytest.param(tangent_edged_disc, 0.0, 17, "face has no flow pieces", id="no-flow"),
    pytest.param(
        tangent_edged_disc, 90.0, 17, "facet 17: border lacks inflow or outflow",
        id="one-flow",
    ),
    pytest.param(
        snapped_grid, 0, 1, "adjacent opposite flow groups without a tangency",
        id="no-tangency",
    ),
    pytest.param(
        snapped_grid, 0, 2, "no splittable tangency pattern on non-simple face",
        id="no-pattern",
    ),
    pytest.param(
        snapped_grid, 0, 12, "chord angle 1.200706085858764 rad falls outside its O band",
        id="outflow-band",
    ),
    pytest.param(
        snapped_grid, 0, 18, "chord angle 3.777320720537185 rad falls outside its I band",
        id="inflow-band",
    ),
    pytest.param(snapped_grid, 1, 26, "degenerate zero-length chord", id="zero-chord"),
    pytest.param(snapped_grid, 3, 57, "simple face 3 has a zero-flux run", id="zero-flux"),
]


@pytest.mark.parametrize("scene,arg,facet,message", DECOMPOSE_ERRORS)
def test_decompose_names_each_broken_border(scene, arg, facet, message):
    with pytest.raises(StreamMeshError) as exc:
        decompose(BorderTable(*scene(arg)), facet)
    assert str(exc.value) == message


def loop_t0_length(codes, t1, lens):
    """t0 and length of a facet's table rows, one row at a time.

    A piece's t0 is the t1 of the row before it on the same element, else
    0.0; its length is 0.0 on corners and edge length times (t1 - t0) on
    edges.
    """
    t0s, lengths = [], []
    t0, at = 0.0, 0
    for code, b in zip(codes, t1):
        element = _DECODE[code][2]
        if element != at:
            t0, at = 0.0, element
        lengths.append(0.0 if element % 2 else lens[element >> 1] * (b - t0))
        t0s.append(t0)
        t0 = b
    return t0s, lengths


def hexes(values):
    return [float(x).hex() for x in values]


def scene_borders():
    """(BorderTable, facet) of every facet of the corpus and the whole-mesh scenes."""
    yield from ((borders, 0) for borders in corpus_borders())
    for _, mesh, fs in whole_mesh_scenes():
        borders = BorderTable(mesh, fs)
        yield from ((borders, f) for f in range(mesh.n_facets))


def test_table_rows_match_a_loop_over_the_border():
    # t0 and length, computed on arrays, equal the loop's, and each
    # element's span of rows matches the rows' codes
    for borders, f in scene_borders():
        codes, columns, elements, _, _ = borders.border(f)
        lens = borders.mesh.edge_lens[f].tolist()
        t0s, lengths = loop_t0_length(codes, columns[1], lens)
        assert hexes(columns[0]) == hexes(t0s)
        assert hexes(columns[4]) == hexes(lengths)
        assert elements == [sum(1 for c in codes if _DECODE[c][2] < e) for e in range(7)]
