import gc
import hashlib
import json
import math
import re
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamtrace import (
    RK4Config,
    TraceError,
    flux,
    meshgen,
    rk4_trace,
    stream_mesh,
    synth_field,
)
from streamtrace.cli import _boundary_loop_seeds, _spread_edge_seeds, make_seeds
from streamtrace.errors import StreamMeshError
from streamtrace.field import vertex_index
from streamtrace.mesh import TracePoint
import streamtrace.tracer as tracer_mod
from streamtrace.tracer import (
    CrossingViolation,
    Polyline,
    Seed,
    Tracer,
    _interleaving_facets,
    _pairwise_crossings,
    _segment_intervals,
    check_crossings,
    load_polylines,
    save_polylines,
    seed_from_vertex,
)

from conftest import (
    _border_key, assert_close, constant_samples, decode, interpolated_angle,
    oracle_interleaving_facets, oracle_trace, polyline_of, strip, wound_config,
)


def boundary_seed(mesh, axis, level, s, direction="forward"):
    """Seed where the boundary line ``axis = level`` crosses coordinate s."""
    other = 1 - axis
    best = None
    for h in range(mesh.n_interior_halfedges):
        if mesh.has_facet(mesh.opposite(h)):
            continue
        a = mesh.vertices[mesh.origin(h)]
        b = mesh.vertices[mesh.dest(h)]
        if abs(a[axis] - level) > 1e-12 or abs(b[axis] - level) > 1e-12:
            continue
        lo, hi = sorted((a[other], b[other]))
        if lo - 1e-12 <= s <= hi + 1e-12 and hi > lo:
            c = (s - a[other]) / (b[other] - a[other])
            best = TracePoint(h, min(1.0, max(0.0, c)))
    assert best is not None
    return Seed(best, direction)


def left_edge_seed(mesh, y, direction="forward"):
    return boundary_seed(mesh, 0, 0.0, y, direction)


def ray_distance(positions, origin, direction):
    d = np.asarray(direction, dtype=float)
    d /= np.linalg.norm(d)
    rel = np.asarray(positions) - np.asarray(origin, dtype=float)
    return np.max(np.abs(rel[:, 0] * d[1] - rel[:, 1] * d[0]))


def test_constant_field_runs_straight():
    mesh = strip(10)
    ang = 3.5
    fs = synth_field(mesh, "constant", angle_deg=ang)
    tr = Tracer(mesh, fs)
    pl = tr.trace(left_edge_seed(mesh, 0.2))
    assert pl.termination == "boundary"
    assert len(pl) > 10
    d = (math.cos(math.radians(ang)), math.sin(math.radians(ang)))
    assert ray_distance(pl.positions, pl.positions[0], d) < 1e-9 * mesh.bbox_diagonal()


def test_backward_retraces_forward():
    mesh = meshgen.grid(8, 8, distortion=0.2, seed=3)
    fs = synth_field(mesh, "constant", angle_deg=12.0)
    tr = Tracer(mesh, fs)
    fwd = tr.trace(left_edge_seed(mesh, 0.312))
    assert fwd.termination == "boundary"
    back = tr.trace(Seed(fwd.points[-1], "backward"))
    assert back.termination == "boundary"
    assert np.linalg.norm(back.positions[-1] - fwd.positions[0]) < 1e-9


def test_circular_field_closes_orbit():
    mesh = meshgen.disc(6, 24)
    fs = synth_field(mesh, "circular")
    tr = Tracer(mesh, fs, max_steps=300)
    # start mid-radius on some interior edge
    start = None
    for h in range(mesh.n_interior_halfedges):
        if not mesh.has_facet(mesh.opposite(h)):
            continue
        p = mesh.position(TracePoint(h, 0.5))
        if abs(np.linalg.norm(p[:2]) - 0.5) < 0.05:
            start = TracePoint(h, 0.5)
            break
    pl = tr.trace(Seed(start))
    # the per-facet border map drifts slightly per lap, so the orbit either
    # recloses or keeps spinning into the step cap; it never leaves the disc
    assert pl.termination in ("closed-orbit", "step-cap")
    assert len(pl) > 80
    r0 = np.linalg.norm(pl.positions[0][:2])
    radii = np.linalg.norm(np.asarray(pl.positions)[:, :2], axis=1)
    assert np.all(np.abs(radii - r0) < 0.05 * r0)


def test_sink_terminates_with_corner_coordinate():
    mesh = meshgen.disc(5, 20)
    fs = synth_field(mesh, "sink")
    tr = Tracer(mesh, fs)
    center = int(np.argmin(np.linalg.norm(mesh.vertices[:, :2], axis=1)))
    hits = 0
    for h in range(mesh.n_interior_halfedges):
        if mesh.has_facet(mesh.opposite(h)):
            continue
        pl = tr.trace(Seed(TracePoint(h, 0.37)))
        assert pl.termination == "sink-vertex"
        assert pl.sink_vertex == center
        assert 1.0 < pl.points[-1].c <= 2.0
        hits += 1
    assert hits == 20


def test_sink_reached_through_an_edge_end_is_a_sink():
    # every line of this field converges on the index +1 vertex through
    # edge ends, where no pivot can continue it
    mesh = meshgen.icosphere(2)
    fs = synth_field(mesh, "smoothed-random", seed=1)
    plus_one = [v for v in range(mesh.n_vertices) if vertex_index(mesh, fs, v) > 0.5]
    tr = Tracer(mesh, fs)
    ends = set()
    for seed in _spread_edge_seeds(mesh, 20):
        pl = tr.trace(seed)
        assert pl.termination == "sink-vertex"
        assert pl.points[-1].c in (0.0, 1.0)  # an edge end, not a corner
        ends.add(pl.sink_vertex)
    assert len(ends) == 1 and ends <= set(plus_one)


# a known mislabel: the laps round a spiral sink (phase 45) exit one
# halfedge within ORBIT_TOL of each other before an exit snaps onto the
# vertex, so the orbit check fires first and its lines end closed-orbit
@pytest.mark.parametrize(
    "phase", [0.0, pytest.param(45.0, marks=pytest.mark.xfail(strict=True))]
)
def test_a_sink_ends_its_lines_at_its_vertex(phase):
    mesh = meshgen.disc(5, 16)
    tr = Tracer(mesh, synth_field(mesh, "sink", center=(0.0, 0.0), phase_deg=phase))
    lines = [tr.trace(s) for s in make_seeds(tr, 20, "forward")]
    ends = Counter((pl.termination, pl.sink_vertex) for pl in lines)
    assert ends == {("sink-vertex", 0): 20}


def test_only_a_positive_index_vertex_stops_a_line_as_sink():
    mesh = meshgen.disc(5, 20)
    fs = synth_field(mesh, "sink")
    tr = Tracer(mesh, fs)
    center = int(np.argmin(np.linalg.norm(mesh.vertices[:, :2], axis=1)))
    rim = next(v for v in range(mesh.n_vertices) if mesh.is_boundary_vertex(v))
    ring = next(
        v
        for v in range(mesh.n_vertices)
        if v != center and not mesh.is_boundary_vertex(v)
    )
    assert abs(vertex_index(mesh, fs, ring)) < 1e-9
    labels = []
    for v in (center, rim, ring):
        pl = Polyline(Seed(TracePoint(0, 0.5)))
        tr._stop_at_vertex(pl, v)
        labels.append((pl.termination, pl.sink_vertex))
    assert labels == [
        ("sink-vertex", center),
        ("vertex-stall", None),
        ("vertex-stall", None),
    ]


def test_positive_index_vertex_is_refused():
    mesh = meshgen.disc(5, 20)
    center = int(np.argmin(np.linalg.norm(mesh.vertices[:, :2], axis=1)))
    for kind in ("source", "sink"):
        fs = synth_field(mesh, kind)
        with pytest.raises(TraceError):
            seed_from_vertex(mesh, fs, center)


# (facet, corner k, t.hex()) of the saddle's separatrix seeds, in the order
# seed_from_vertex returns them; the order follows the walk around the vertex
SADDLE_SEEDS = {
    "forward": [(72, 2, "0x1.8e38e38e38e39p-1"), (55, 0, "0x1.8e38e38e38e39p-1")],
    "backward": [(56, 1, "0x1.8e38e38e38e39p-1"), (71, 2, "0x1.8e38e38e38e39p-1")],
}


def test_saddle_emits_two_separatrices_per_direction():
    mesh = meshgen.grid(8, 8)
    fs = synth_field(mesh, "saddle", center=(0.5, 0.5), phase_deg=20.0)
    saddle = int(
        np.argmin(np.linalg.norm(mesh.vertices[:, :2] - [0.5, 0.5], axis=1))
    )
    assert round(vertex_index(mesh, fs, saddle)) == -1
    for direction in ("forward", "backward"):
        seeds = seed_from_vertex(mesh, fs, saddle, direction)
        entries = [(*divmod(s.point.halfedge, 3), s.corner.hex()) for s in seeds]
        assert entries == SADDLE_SEEDS[direction]
        tr = Tracer(mesh, fs)
        for s in seeds:
            pl = tr.trace(s)
            assert pl.termination == "boundary"
            assert len(pl) > 2


# angle -> (continuing vertex pivots, sha256) of the lines traced from every
# boundary halfedge of grid(10, 10) at c in {0, 0.5, 1} under a constant
# field; the digest covers each line's (halfedge, c.hex()) points and its
# termination, and marks the seeds that no facet takes.  Diagonal lines run
# through vertices, so the pivots pin the direction of the walk around them.
# At each angle, 9 seeds sit on rim vertices where the field enters: the
# pivot walks across the boundary gap into the grid and traces them on.
GRID_PIVOT_DIGESTS = {
    45.0: (470, "62629a82efc808a2e59d15e32e764c7b1d7d35bcc7d9d07f4e1e324767383de5"),
    135.0: (462, "9b99f7d8e10b08d8039c5f8af3788f0fd65024e48059ca929923234c5903b7ae"),
}


@pytest.mark.parametrize("angle", sorted(GRID_PIVOT_DIGESTS))
def test_vertex_pivots_on_grid_diagonals_are_pinned(grid10, angle):
    tr = Tracer(grid10, constant_samples(grid10, angle))
    digest = hashlib.sha256()
    pivots = 0
    for h in range(grid10.n_halfedges):
        if grid10.has_facet(h):
            continue
        for c in (0.0, 0.5, 1.0):
            try:
                pl = tr.trace(Seed(TracePoint(h, c)))
            except StreamMeshError:
                digest.update(f"{h} {c.hex()} refused\n".encode())
                continue
            pts = " ".join(f"{tp.halfedge}:{tp.c.hex()}" for tp in pl.points)
            digest.update(f"{h} {c.hex()} {pl.termination} {pts}\n".encode())
            # every vertex exit but a line's last one continues by a pivot
            pivots += sum(tp.c in (0.0, 1.0) for tp in pl.points[1:-1])
    assert (pivots, digest.hexdigest()) == GRID_PIVOT_DIGESTS[angle]


@pytest.mark.parametrize("scene", ["sink", "source", "saddle", "grid 45", "grid 135"])
def test_lines_cross_edges_as_the_c_crossing_does(scene):
    # the disc lines end at sinks, sources and the boundary, and the grid
    # lines pivot through vertices; carried in flux offsets or crossing in
    # c, they take the same halfedges to the same ends, with c moved by
    # at most 3.8e-14 (saddle)
    if scene.startswith("grid"):
        mesh = meshgen.grid(10, 10)
        fs = constant_samples(mesh, float(scene.split()[1]))
        seeds = [
            Seed(TracePoint(h, c))
            for h in range(mesh.n_halfedges)
            if not mesh.has_facet(h)
            for c in (0.0, 0.5, 1.0)
        ]
    else:
        mesh = meshgen.disc(5, 20)
        fs = synth_field(mesh, scene)
        seeds = [s for d in ("forward", "backward") for s in _spread_edge_seeds(mesh, 40, d)]
    tr, oracle = Tracer(mesh, fs), Tracer(mesh, fs)
    worst, ends, pivots = 0.0, Counter(), 0
    for seed in seeds:
        try:
            pl = tr.trace(seed)
        except StreamMeshError:
            with pytest.raises(StreamMeshError):
                oracle_trace(oracle, seed)
            continue
        want = oracle_trace(oracle, seed)
        assert (pl.halfedges, pl.termination, pl.sink_vertex) == (
            want.halfedges, want.termination, want.sink_vertex
        )
        worst = max(worst, *(abs(a - b) for a, b in zip(pl.cs, want.cs, strict=True)))
        ends[pl.termination] += 1
        pivots += sum(c in (0.0, 1.0) for c in pl.cs[1:-1])
    assert worst <= 1e-13
    assert ends["sink-vertex" if scene in ("sink", "source") else "boundary"] > 30
    if scene.startswith("grid"):
        assert pivots > 400


def fan_walk(mesh, v):
    h0 = next(h for h in mesh.outgoing_halfedges(v) if mesh.has_facet(h))
    out = []
    h = h0
    while True:
        out.append((mesh.facet(h), (h % 3 + 2) % 3))
        h = mesh.opposite(mesh.prev(h))
        if h == h0:
            return out
        if not mesh.has_facet(h):
            raise AssertionError("boundary vertex")


def sweep_seed_count(mesh, fs, v, samples=512):
    """Count field-aligned outward rays at v by dense angular sweep.

    Walks every corner of the vertex fan, sampling the angle between the
    interpolated field and the outward ray, and counts wrapped zero
    crossings; junction duplicates collapse by fan coordinate.
    """
    events = []
    for i, (f, k) in enumerate(fan_walk(mesh, v)):
        def delta(t):
            field = interpolated_angle(mesh, fs, f, 2 * k + 1, t)
            ray = mesh.edge_angles[f, k] + math.pi - t * mesh.betas[f, k]
            return field - ray

        ts = np.linspace(0.0, 1.0, samples)
        vals = np.array([delta(t) for t in ts])
        wrapped = (vals + math.pi) % (2.0 * math.pi) - math.pi
        for j in range(samples - 1):
            a, b = wrapped[j], wrapped[j + 1]
            if abs(a) < 1e-12:
                events.append(i + (1.0 - ts[j]))
            elif a * b < 0.0 and abs(a) < 1.5 and abs(b) < 1.5:
                lo, hi = ts[j], ts[j + 1]
                fa = a
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    fm = (delta(mid) + math.pi) % (2.0 * math.pi) - math.pi
                    if fa * fm <= 0.0:
                        hi = mid
                    else:
                        lo, fa = mid, fm
                events.append(i + (1.0 - 0.5 * (lo + hi)))
        if abs(wrapped[-1]) < 1e-12:
            events.append(i + 0.0)
    if not events:
        return 0
    events.sort()
    n = len(fan_walk(mesh, v))
    kept = [events[0]]
    for e in events[1:]:
        if e - kept[-1] > 1e-6:
            kept.append(e)
    if len(kept) > 1 and kept[0] + n - kept[-1] <= 1e-6:
        kept.pop()
    return len(kept)


def interior_vertices(mesh):
    boundary = set()
    for h in range(mesh.n_interior_halfedges):
        if not mesh.has_facet(mesh.opposite(h)):
            boundary.add(mesh.origin(h))
            boundary.add(mesh.dest(h))
    return [v for v in range(len(mesh.vertices)) if v not in boundary]


def test_seed_counts_match_angular_sweep():
    # singular centers must land on a vertex (or outside the mesh entirely)
    cases = [
        (meshgen.grid(7, 7, distortion=0.25, seed=5), "circular", (1.4, -0.3)),
        (meshgen.grid(7, 7), "saddle", (3.0 / 7.0, 4.0 / 7.0)),
    ]
    rng = np.random.default_rng(0)
    for mesh, kind, center in cases:
        fs = synth_field(mesh, kind, center=center, phase_deg=11.0)
        verts = interior_vertices(mesh)
        rng.shuffle(verts)
        picks = verts[:12]
        if kind == "saddle":
            c = np.array([center[0], center[1], 0.0])
            picks.append(
                int(np.argmin(np.linalg.norm(mesh.vertices - c, axis=1)))
            )
        for v in picks:
            idx = vertex_index(mesh, fs, v)
            for direction in ("forward", "backward"):
                fdir = fs if direction == "forward" else fs.flipped()
                want = sweep_seed_count(mesh, fdir, v)
                if idx > 1e-9:
                    with pytest.raises(TraceError):
                        seed_from_vertex(mesh, fs, v, direction)
                    continue
                got = len(seed_from_vertex(mesh, fs, v, direction))
                assert got == want == 1 - round(idx)


def test_seed_counts_on_random_sphere_field(icosphere2, sphere_random_field):
    mesh, fs = icosphere2, sphere_random_field
    rng = np.random.default_rng(4)
    picks = rng.choice(len(mesh.vertices), size=15, replace=False)
    for v in picks:
        v = int(v)
        idx = vertex_index(mesh, fs, v)
        if idx > 1e-9:
            with pytest.raises(TraceError):
                seed_from_vertex(mesh, fs, v)
            continue
        got = len(seed_from_vertex(mesh, fs, v))
        assert got == sweep_seed_count(mesh, fs, v) == 1 - round(idx)


def test_polyline_record_round_trip(tmp_path):
    mesh = strip(6)
    fs = synth_field(mesh, "constant", angle_deg=25.0)
    tr = Tracer(mesh, fs)
    pls = [tr.trace(left_edge_seed(mesh, y)) for y in (0.21, 0.55, 0.83)]
    path = tmp_path / "lines.jsonl"
    save_polylines(path, pls)
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    assert [rec.keys() for rec in recs] == [
        {"seed", "termination", "sink_vertex", "points"}
    ] * len(pls)
    loaded = load_polylines(path)
    assert len(loaded) == len(pls)
    for a, b in zip(pls, loaded):
        assert a.seed == b.seed
        assert a.termination == b.termination
        assert a.sink_vertex == b.sink_vertex
        assert [(tp.halfedge, tp.c) for tp in a.points] == [
            (tp.halfedge, tp.c) for tp in b.points
        ]
        # the file holds no positions: the points give them bit for bit
        assert b.positions is None
        assert a.positions.shape == (len(a), 3)
        assert mesh.positions_of(b.halfedges, b.cs).tobytes() == a.positions.tobytes()


def test_polyline_append_takes_one_xyz_row():
    mesh = strip(4)
    pl = Polyline(left_edge_seed(mesh, 0.3))
    assert pl.positions.shape == (0, 3)
    pl.append(pl.seed.point, [0.0, 0.3, 0.0])
    assert pl.positions.tolist() == [[0.0, 0.3, 0.0]]
    for bad in ([0.0, 0.3], [[0.0, 0.3, 0.0]], 1.0):
        with pytest.raises(ValueError, match="is not 3 numbers"):
            pl.append(pl.seed.point, bad)
    assert len(pl) == 1 and pl.positions.shape == (1, 3)


def test_lines_built_by_append_and_by_points_read_back_alike():
    mesh = strip(4)
    points = [TracePoint(0, 0.25), TracePoint(1, 0.5), (4, 1.0), [2, 0]]
    by_append = Polyline(Seed(TracePoint(0, 0.25)))
    for tp in points:
        by_append.append(tp, mesh.position(tp))
    by_points = polyline_of(points, Seed(TracePoint(0, 0.25)))
    want = [TracePoint(h, c) for h, c in points]
    for pl in (by_append, by_points):
        assert pl.points == want
        assert all(type(tp) is TracePoint for tp in pl.points)
        assert len(pl) == 4
        assert (pl.halfedges, pl.cs) == ([0, 1, 4, 2], [0.25, 0.5, 1.0, 0])
        assert mesh.positions_of(pl.halfedges, pl.cs).tobytes() == (
            by_append.positions.tobytes()
        )


def test_points_is_a_fresh_list_on_each_read():
    pl = polyline_of([(0, 0.25), (1, 0.5)], Seed(TracePoint(0, 0.25)))
    view = pl.points
    assert view is not pl.points
    view.append(TracePoint(2, 0.75))
    view[0] = TracePoint(3, 0.0)
    assert pl.points == [TracePoint(0, 0.25), TracePoint(1, 0.5)]
    assert len(pl) == 2


def test_a_trace_keeps_columns_and_builds_no_trace_point(monkeypatch):
    # a grid whose lines leave through the boundary, and a sphere whose
    # lines pivot round vertices and end at a sink
    scenes = [
        (meshgen.grid(8, 8, distortion=0.2, seed=3), "constant", {"angle_deg": 12.0}),
        (meshgen.icosphere(2), "smoothed-random", {"seed": 1}),
    ]
    built = []
    new = TracePoint.__new__

    def counting_new(cls, *args):
        built.append(args)
        return new(cls, *args)

    for mesh, kind, params in scenes:
        tr = Tracer(mesh, synth_field(mesh, kind, **params))
        seeds = make_seeds(tr, 20)
        with monkeypatch.context() as m:
            m.setattr(TracePoint, "__new__", staticmethod(counting_new))
            lines = [tr.trace(s) for s in seeds]
            violations = check_crossings(mesh, lines)
            assert built == []
            TracePoint(0, 0.5)
            assert built == [(0, 0.5)]  # the patch sees the points built
        built.clear()
        assert violations == []
        assert sum(len(pl) - 1 for pl in lines) > 100
        for pl in lines:
            assert all(type(h) is int for h in pl.halfedges)
            assert all(type(c) is float for c in pl.cs)
            assert pl.positions.tobytes() == (
                mesh.positions_of(pl.halfedges, pl.cs).tobytes()
            )


def test_a_record_with_an_int_c_round_trips_byte_for_byte(tmp_path):
    rec = {
        "seed": {"halfedge": 2, "c": 1, "direction": "backward"},
        "termination": "sink-vertex",
        "sink_vertex": 7,
        "points": [[2, 1], [5, 0.5], [9, 0], [11, 2]],
    }
    src = tmp_path / "in.json"
    src.write_text(json.dumps(rec) + "\n")
    (pl,) = load_polylines(src)
    assert pl.cs == [1, 0.5, 0, 2]
    assert [type(c) for c in pl.cs] == [int, float, int, int]
    assert pl.points == [(2, 1), (5, 0.5), (9, 0), (11, 2)]
    out = tmp_path / "out.json"
    save_polylines(out, [pl])
    assert out.read_bytes() == src.read_bytes()


def test_check_crossings_flags_interleaving():
    mesh = strip(4)
    fs = synth_field(mesh, "constant", angle_deg=0.0)
    tr = Tracer(mesh, fs)
    a = tr.trace(left_edge_seed(mesh, 0.3))
    b = tr.trace(left_edge_seed(mesh, 0.7))
    assert check_crossings(mesh, [a, b]) == []
    # forge a crossing: swap the tails of the two lines
    cut = min(len(a), len(b)) // 2
    fa, fb = Polyline(a.seed), Polyline(b.seed)
    for tp, p in list(zip(a.points, a.positions))[:cut] + list(
        zip(b.points, b.positions)
    )[cut:]:
        fa.append(tp, p)
    for tp, p in list(zip(b.points, b.positions))[:cut] + list(
        zip(a.points, a.positions)
    )[cut:]:
        fb.append(tp, p)
    fa.termination = fb.termination = "boundary"
    assert len(check_crossings(mesh, [fa, fb])) >= 1


def test_traced_scene_has_no_crossings():
    mesh = meshgen.grid(10, 10, distortion=0.3, seed=2)
    fs = synth_field(mesh, "circular", center=(0.0, 0.0))
    tr = Tracer(mesh, fs)
    pls = []
    for x in np.linspace(0.05, 0.95, 40):
        try:
            pls.append(tr.trace(boundary_seed(mesh, 1, 0.0, float(x))))
        except Exception:
            pass
    assert len(pls) >= 15
    assert check_crossings(mesh, pls) == []


def arc_check_crossings(mesh, polylines):
    """Modular-arc form of ``check_crossings``: the oracle it must equal.

    Keys are read as points on a circle of length 3; two keys share a point
    when their circular distance is at most 1e-12, and a pair crosses when
    exactly one endpoint of the second segment lies on the open arc running
    from the first segment's start to its end.
    """
    by_facet = defaultdict(list)
    for li, pl in enumerate(polylines):
        pts = pl.points
        for si in range(len(pts) - 1):
            tp_a, tp_b = pts[si], pts[si + 1]
            f = mesh.facet(tp_b.halfedge)
            if f is None:
                f = mesh.facet(mesh.opposite(tp_b.halfedge))
            ka = _border_key(mesh, f, tp_a)
            kb = _border_key(mesh, f, tp_b)
            if ka != kb:
                by_facet[f].append((ka, kb, li, si))

    def in_open_arc(x, a, b):
        return 0.0 < (x - a) % 3.0 < (b - a) % 3.0

    violations = []
    for f, segs in by_facet.items():
        for i, (a1, b1, l1, s1) in enumerate(segs):
            for a2, b2, l2, s2 in segs[i + 1:]:
                shared = any(
                    min((p - q) % 3.0, (q - p) % 3.0) <= 1e-12
                    for p in (a1, b1)
                    for q in (a2, b2)
                )
                if not shared and in_open_arc(a2, a1, b1) != in_open_arc(
                    b2, a1, b1
                ):
                    violations.append(CrossingViolation(f, l1, s1, l2, s2))
    return violations


def edge_point_names(mesh, f, k, t):
    """Trace points naming parameter t of facet f's edge k.

    Each comes with whether it may end a segment: ``check_crossings`` reads
    a segment's facet from its end point, so the neighbour's halfedge may
    end one only when it is an outward boundary halfedge.
    """
    h = 3 * f + k
    o = mesh.opposite(h)
    return [(TracePoint(h, t), True), (TracePoint(o, 1.0 - t), not mesh.has_facet(o))]


def vertex_point_names(mesh, f, j, rng):
    """Trace points naming corner j of facet f (the origin of edge j)."""
    h_out, h_in = 3 * f + j, 3 * f + (j + 2) % 3
    v = mesh.origin(h_out)
    names = edge_point_names(mesh, f, j, 0.0)
    names += edge_point_names(mesh, f, (j + 2) % 3, 1.0)
    # sink encodings: the edge that ends at v, with c in (1, 2]
    names.append((TracePoint(h_in, float(rng.choice([1.5, 2.0, 1.0 + 1e-9]))), True))
    # vertex pivots: halfedges of the fan around v that do not bound f
    for g in mesh.outgoing_halfedges(v):
        o = mesh.opposite(g)
        if f not in (mesh.facet(g), mesh.facet(o)):
            names += [(TracePoint(g, 0.0), False), (TracePoint(o, 1.0), False)]
    return names


def random_one_facet_lines(mesh, rng):
    """Random polylines whose segments all lie in one facet.

    Points cluster around a few anchors (corners and edge points) at gaps
    of 0, 0.5e-12, 1e-12 and 2e-12, so shared-endpoint decisions sit on
    both sides of the checker's 1e-12 tolerance, across vertex 0 too.
    """
    f = int(rng.integers(mesh.n_facets))
    names = []
    for _ in range(int(rng.integers(2, 6))):
        gap = float(rng.choice([0.5e-12, 1e-12, 2e-12]))
        if rng.random() < 0.5:
            j = int(rng.integers(3))
            names += vertex_point_names(mesh, f, j, rng)
            names += edge_point_names(mesh, f, j, gap)
            names += edge_point_names(mesh, f, (j + 2) % 3, 1.0 - gap)
        else:
            k = int(rng.integers(3))
            t = float(rng.uniform(0.01, 0.99))
            for tk in (t, t - gap, t + gap):
                names += edge_point_names(mesh, f, k, tk)
    ends = [tp for tp, can_end in names if can_end]
    lines = []
    for _ in range(int(rng.integers(2, 10))):
        pl = Polyline(None)
        pts = [names[rng.integers(len(names))][0]]
        pts += [ends[rng.integers(len(ends))] for _ in range(int(rng.integers(1, 3)))]
        for tp in pts:
            pl.append(tp, mesh.position(tp))
        lines.append(pl)
    return lines


def test_check_crossings_equals_arc_oracle_on_random_facets():
    mesh = meshgen.grid(3, 3, distortion=0.2, seed=4)
    rng = np.random.default_rng(31)
    crossing_sets = 0
    for _ in range(3000):
        lines = random_one_facet_lines(mesh, rng)
        got = check_crossings(mesh, lines)
        assert got == arc_check_crossings(mesh, lines)
        crossing_sets += bool(got)
    # the corpus holds both crossing and non-crossing sets
    assert 0 < crossing_sets < 3000


def test_check_crossings_equals_arc_oracle_on_reference_lines():
    # criterion 9's shear, where RK4 lines cross by the thousand
    from test_acceptance import planar_angle_field

    mesh = meshgen.grid(12, 12)
    fs = planar_angle_field(mesh, lambda x, y: 90.0 + 36000.0 * (y - 0.503))
    seeds = [
        boundary_seed(mesh, 0, 1.0, float(y)) for y in np.linspace(0.451, 0.549, 30)
    ]
    counts = []
    for fraction in (0.05, 0.1, 0.3):
        cfg = RK4Config(step_fraction=fraction, max_steps=20000)
        ref = [rk4_trace(mesh, fs, s, cfg) for s in seeds]
        got = check_crossings(mesh, ref)
        assert got == arc_check_crossings(mesh, ref)
        counts.append(len(got))
    assert max(counts) >= 1000


def test_segment_intervals_hold_the_scalar_border_keys_bit_for_bit():
    # every point kind: own, opposite and outward boundary halfedges, sinks,
    # vertex pivots, and vertex 0 read as 0.0 and as 3.0
    mesh = meshgen.grid(3, 3, distortion=0.2, seed=4)
    rng = np.random.default_rng(5)
    lines, expected, kinds = [], [], Counter()
    for f in range(mesh.n_facets):
        names = []
        for j in range(3):
            names += vertex_point_names(mesh, f, j, rng)
            names += edge_point_names(mesh, f, j, float(rng.uniform(0.01, 0.99)))
        ends = [tp for tp, can_end in names if can_end]
        for tp_a, _ in names:
            ka = _border_key(mesh, f, tp_a)
            if tp_a.c > 1.0:
                kinds["sink"] += 1
            elif mesh.facet(tp_a.halfedge) == f:
                kinds["own"] += 1
            elif mesh.has_facet(mesh.opposite(tp_a.halfedge)):
                kinds["opposite" if mesh.has_facet(tp_a.halfedge) else "outward"] += 1
            else:
                kinds["pivot"] += 1
            for tp_b in ends:
                kb = _border_key(mesh, f, tp_b)
                if ka != kb:
                    lo, hi = sorted((ka, kb))
                    expected.append((f, lo.hex(), hi.hex(), len(lines), 0))
                lines.append(polyline_of([tp_a, tp_b]))
    assert set(kinds) == {"sink", "own", "opposite", "outward", "pivot"}
    facet, lo, hi, line, seg = _segment_intervals(mesh, lines)
    got = list(zip(
        facet.tolist(),
        [k.hex() for k in lo.tolist()],
        [k.hex() for k in hi.tolist()],
        line.tolist(),
        seg.tolist(),
    ))
    assert got == expected
    assert lo.min() == 0.0 and hi.max() == 3.0


def test_a_facet_the_sweep_passes_has_no_pairwise_violation():
    mesh = meshgen.grid(3, 3, distortion=0.2, seed=4)
    rng = np.random.default_rng(31)
    outcomes = Counter()  # (sweep flags the facet, pairwise scan finds one)
    for _ in range(3000):
        facet, lo, hi, line, seg = _segment_intervals(mesh, random_one_facet_lines(mesh, rng))
        flagged = _interleaving_facets(facet, lo, hi)
        rows = defaultdict(list)
        for f, *row in zip(facet.tolist(), lo.tolist(), hi.tolist(), line.tolist(), seg.tolist()):
            rows[f].append(row)
        for f, segs in rows.items():
            outcomes[f in flagged, bool(_pairwise_crossings(f, segs))] += 1
    assert outcomes[False, True] == 0
    # the 1e-12 shared-endpoint rule clears some flagged facets
    assert outcomes[True, True] and outcomes[True, False] and outcomes[False, False]


def test_interleaving_facets_equal_the_stack_pass_on_random_facets():
    mesh = meshgen.grid(3, 3, distortion=0.2, seed=4)
    rng = np.random.default_rng(31)
    flagged_sets = 0
    for _ in range(3000):
        facet, lo, hi, _, _ = _segment_intervals(mesh, random_one_facet_lines(mesh, rng))
        flagged = _interleaving_facets(facet, lo, hi)
        assert flagged == oracle_interleaving_facets(facet, lo, hi)
        flagged_sets += bool(flagged)
    assert 0 < flagged_sets < 3000


def lattice_table(rng):
    """``(facet, lo, hi)`` of a few facets' intervals, with ends on a half-step lattice.

    Ends in {0, 0.5, ..., 3} make intervals share starts and ends, touch
    and repeat exactly; vertex 0 reads as 0.0 in some and 3.0 in others.
    Facet ids are spread, as a mesh's facets are.
    """
    n = int(rng.integers(1, 14))
    a, b = rng.integers(0, 7, size=(2, n)) / 2.0
    keep = a != b
    a, b = a[keep], b[keep]
    facet = rng.choice([0, 1, 7, 4096], size=int(rng.integers(1, 5)), replace=False)
    return facet[rng.integers(0, len(facet), len(a))], np.minimum(a, b), np.maximum(a, b)


def test_interleaving_facets_equal_the_stack_pass_on_lattice_tables():
    rng = np.random.default_rng(12)
    outcomes = Counter()  # (table holds identical intervals, a facet is flagged)
    for _ in range(20000):
        facet, lo, hi = lattice_table(rng)
        flagged = _interleaving_facets(facet, lo, hi)
        assert flagged == oracle_interleaving_facets(facet, lo, hi)
        rows = list(zip(facet.tolist(), lo.tolist(), hi.tolist()))
        outcomes[len(set(rows)) < len(rows), bool(flagged)] += 1
    assert len(outcomes) == 4 and min(outcomes.values()) > 500


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from([0, 1, 5]), st.integers(0, 6), st.integers(0, 6)).filter(
            lambda row: row[1] != row[2]
        ),
        max_size=16,
    )
)
def test_interleaving_facets_equal_the_stack_pass_on_any_lattice_table(rows):
    facet = np.array([f for f, _, _ in rows], dtype=np.int64)
    lo = np.array([min(a, b) / 2.0 for _, a, b in rows])
    hi = np.array([max(a, b) / 2.0 for _, a, b in rows])
    assert _interleaving_facets(facet, lo, hi) == oracle_interleaving_facets(facet, lo, hi)


def test_interleaving_facets_split_a_table_one_key_cannot_hold():
    # facet ids 2^41 apart and about 4000 distinct ends: a key packing the
    # whole table would need 2^41 facets of 2 m^2 keys each, past 2^63
    rng = np.random.default_rng(3)
    tables = []
    for f in (0, 1, 2**40, 2**41, 2**41 + 3):
        if f in (1, 2**41):  # nested intervals only
            lo = np.arange(1, 1001) / 1000.0
            hi = 3.0 - lo
        else:
            a, b = rng.integers(0, 3001, size=(2, 1000)) / 1000.0
            a, b = a[a != b], b[a != b]
            lo, hi = np.minimum(a, b), np.maximum(a, b)
        tables.append((np.full(len(lo), f, dtype=np.int64), lo, hi))
    facet, lo, hi = (np.concatenate(col) for col in zip(*tables))
    m = len(np.unique(np.concatenate((lo, hi))))
    assert (int(facet.max()) - int(facet.min()) + 1) * 2 * m * m > 2**63
    flagged = _interleaving_facets(facet, lo, hi)
    assert flagged == oracle_interleaving_facets(facet, lo, hi) == {0, 2**40, 2**41 + 3}


def test_first_point_off_its_facet_raises_in_segment_order():
    mesh = meshgen.grid(4, 4)
    # halfedge 93 bounds facet 31, which halfedges 1 and 2 do not touch;
    # each line starts with a vertex pivot into facet 0, which is fine
    pivot = next(
        TracePoint(g, 0.0)
        for g in mesh.outgoing_halfedges(mesh.origin(1))
        if 0 not in (mesh.facet(g), mesh.facet(mesh.opposite(g)))
    )
    a = polyline_of([pivot, TracePoint(0, 0.5), TracePoint(1, 0.5), TracePoint(93, 0.5)])
    b = polyline_of([pivot, TracePoint(1, 0.25), TracePoint(2, 0.5), TracePoint(93, 0.25)])
    for lines, bad in (([a, b], TracePoint(1, 0.5)), ([b, a], TracePoint(2, 0.5))):
        message = f"trace point {bad} does not touch facet 31"
        with pytest.raises(TraceError, match=re.escape(message)):
            check_crossings(mesh, lines)


@pytest.mark.parametrize(
    "halfedge,c",
    [(-1, 0.5), ("past-end", 0.5), (10**30, 0.5), (1, 2.5), (1, -0.5), (1, float("nan"))],
)
def test_check_crossings_refuses_a_point_off_the_mesh(halfedge, c):
    mesh = meshgen.grid(2, 2)
    if halfedge == "past-end":
        halfedge = mesh.n_halfedges + 5
    good = polyline_of([TracePoint(0, 0.5), TracePoint(1, 0.5)])
    bad = polyline_of([TracePoint(0, 0.25), TracePoint(halfedge, c), TracePoint(1, 2.5)])
    message = f"polyline 1 point 1 is off the mesh: {TracePoint(halfedge, c)}"
    with pytest.raises(TraceError, match=re.escape(message)):
        check_crossings(mesh, [good, bad])


@pytest.mark.parametrize("halfedge,c", [(1.5, 0.5), (2.0, 0.5), (1, "0.5"), (1, None)])
def test_check_crossings_refuses_a_point_of_another_type(halfedge, c):
    # numpy would read halfedge 1.5 as 1, or fail on a str or None c
    mesh = meshgen.grid(3, 3)
    line = polyline_of([(0, 0.5), (halfedge, c)])
    message = f"polyline 0 point 1 is off the mesh: {TracePoint(halfedge, c)}"
    with pytest.raises(TraceError, match=re.escape(message)):
        check_crossings(mesh, [line])


def test_check_crossings_names_the_first_point_off_the_mesh_of_any_kind():
    mesh = meshgen.grid(3, 3)
    out_of_range = polyline_of([(0, 0.5), (1, 0.5), (1, 2.5)])
    mistyped = polyline_of([(0, 0.5), (1, "0.5")])
    for lines, bad in (
        ([out_of_range, mistyped], "polyline 0 point 2"),
        ([mistyped, out_of_range], "polyline 0 point 1"),
    ):
        with pytest.raises(TraceError, match=f"^{bad} is off the mesh"):
            check_crossings(mesh, lines)


def test_torus_campaign_of_50k_crossings_has_no_crossings():
    mesh = meshgen.torus()
    fs = synth_field(mesh, "smoothed-random", seed=1)
    tr = Tracer(mesh, fs)
    pls = [tr.trace(s) for s in _spread_edge_seeds(mesh, 25)]
    assert sum(len(pl) - 1 for pl in pls) > 45000
    assert check_crossings(mesh, pls) == []


def test_campaign_of_196k_crossings_flags_what_the_stack_pass_flags():
    # the campaign-scale recipe of BENCH_check.json at 100 seeds
    mesh = meshgen.torus()
    fs = synth_field(mesh, "smoothed-random", seed=1)
    tr = Tracer(mesh, fs)
    pls = [tr.trace(s) for s in _spread_edge_seeds(mesh, 100)]
    assert sum(len(pl) - 1 for pl in pls) > 190000
    facet, lo, hi, _, _ = _segment_intervals(mesh, pls)
    assert _interleaving_facets(facet, lo, hi) == oracle_interleaving_facets(facet, lo, hi)
    assert check_crossings(mesh, pls) == []


def violation_pairs(violations, line_ids):
    """Each violation as its facet and unordered pair of (line id, segment)."""
    return Counter(
        (v.facet, frozenset({(line_ids[v.line_a], v.segment_a),
                             (line_ids[v.line_b], v.segment_b)}))
        for v in violations
    )


def assert_permuting_lines_renames_only_line_ids(mesh, lines, rng):
    want = violation_pairs(check_crossings(mesh, lines), range(len(lines)))
    perm = rng.permutation(len(lines))
    got = check_crossings(mesh, [lines[k] for k in perm])
    assert violation_pairs(got, perm.tolist()) == want
    return sum(want.values())


def test_permuting_rk4_shear_lines_renames_only_their_line_ids():
    from test_acceptance import planar_angle_field

    mesh = meshgen.grid(12, 12)
    fs = planar_angle_field(mesh, lambda x, y: 90.0 + 36000.0 * (y - 0.503))
    seeds = [
        boundary_seed(mesh, 0, 1.0, float(y)) for y in np.linspace(0.451, 0.549, 30)
    ]
    cfg = RK4Config(step_fraction=0.1, max_steps=20000)
    ref = [rk4_trace(mesh, fs, s, cfg) for s in seeds]
    rng = np.random.default_rng(8)
    assert assert_permuting_lines_renames_only_line_ids(mesh, ref, rng) == 3563


def test_permuting_random_one_facet_lines_renames_only_their_line_ids():
    mesh = meshgen.grid(3, 3, distortion=0.2, seed=4)
    rng = np.random.default_rng(31)
    found = [
        assert_permuting_lines_renames_only_line_ids(
            mesh, random_one_facet_lines(mesh, rng), rng
        )
        for _ in range(1000)
    ]
    assert 0 < sum(map(bool, found)) < 1000


def test_step_cap_termination():
    mesh = meshgen.disc(6, 24)
    fs = synth_field(mesh, "circular")
    tr = Tracer(mesh, fs, max_steps=7)
    start = TracePoint(0, 0.5)
    if not mesh.has_facet(mesh.opposite(0)):
        start = TracePoint(3, 0.5)
    pl = tr.trace(Seed(start))
    assert pl.termination == "step-cap"
    assert len(pl.points) <= 9


@pytest.mark.parametrize("max_steps", [0, -5, 7.0])
def test_tracer_rejects_a_step_cap_that_is_not_an_int_of_at_least_1(max_steps):
    mesh = meshgen.disc(6, 24)
    fs = synth_field(mesh, "circular")
    assert Tracer(mesh, fs).max_steps == 100 * mesh.n_facets
    with pytest.raises(ValueError, match="max_steps must be an int of at least 1"):
        Tracer(mesh, fs, max_steps=max_steps)


def test_seed_rejects_an_unknown_direction():
    with pytest.raises(TraceError, match="unknown trace direction 'sideways'"):
        Seed(TracePoint(0, 0.5), "sideways")


@pytest.mark.parametrize("c", [-6.661338147750939e-16, 1.0 + 1e-15, 1.5, float("nan")])
def test_seed_rejects_a_point_off_its_edge(c):
    with pytest.raises(TraceError, match="is not on its edge"):
        Seed(TracePoint(0, c))
    Seed(TracePoint(0, 0.0))
    Seed(TracePoint(0, 1.0))


def separatrix_seeds(mesh, fs, direction):
    return [
        s
        for v in range(mesh.n_vertices)
        if not mesh.is_boundary_vertex(v) and vertex_index(mesh, fs, v) <= 1e-9
        for s in seed_from_vertex(mesh, fs, v, direction)
    ]


def test_mixed_directions_share_one_stream_mesh_without_crossings():
    # The field and its half-turn reverse cut a corner of facet 9 here
    # 3e-16 apart and type it differently, so lines of the two directions
    # only stay apart when both are traced on one stream mesh.
    mesh = meshgen.disc(8, 24, distortion=0.3, seed=2)
    fs = synth_field(mesh, "sink")
    inner = [
        h
        for h in range(mesh.n_interior_halfedges)
        if mesh.has_facet(mesh.opposite(h)) and h < mesh.opposite(h)
    ][:60]
    seeds = []
    for d in ("forward", "backward"):
        seeds += separatrix_seeds(mesh, fs, d)
        seeds += [Seed(TracePoint(h, 0.5), d) for h in inner]
    tr = Tracer(mesh, fs, max_steps=1500)
    pls = [tr.trace(s) for s in seeds]
    assert {pl.seed.direction for pl in pls} == {"forward", "backward"}
    assert check_crossings(mesh, pls) == []


def test_both_directions_decompose_each_facet_once(monkeypatch):
    mesh = meshgen.grid(8, 8, distortion=0.2, seed=3)
    fs = synth_field(mesh, "constant", angle_deg=12.0)
    calls = []
    real = stream_mesh.decompose

    def counting(borders, facet):
        calls.append(facet)
        return real(borders, facet)

    monkeypatch.setattr(stream_mesh, "decompose", counting)
    tr = Tracer(mesh, fs)
    fwd = [tr.trace(left_edge_seed(mesh, y)) for y in (0.11, 0.312, 0.57, 0.83)]
    built = len(calls)
    assert built > 0 and len(set(calls)) == built
    # walking the forward lines in reverse crosses only facets already built
    for pl in fwd:
        back = tr.trace(Seed(pl.points[-1], "backward"))
        assert back.termination == "boundary"
        assert np.linalg.norm(back.positions[-1] - pl.positions[0]) < 1e-9
    assert len(calls) == built


@pytest.mark.parametrize("scene", ["icosphere2 random", "grid10 at 45"])
def test_pivot_probe_takes_what_import_takes_and_none_where_it_raises(scene):
    # a pivot probes the vertex end of each fan edge, c = 0, by the entry
    # that import_position wraps, instead of catching its raise
    if scene == "icosphere2 random":
        mesh = meshgen.icosphere(2)
        tr = Tracer(mesh, synth_field(mesh, "smoothed-random", seed=1))
    else:
        mesh = meshgen.grid(10, 10)
        tr = Tracer(mesh, synth_field(mesh, "constant", angle_deg=45.0))
    outcomes = Counter()
    for v in range(mesh.n_vertices):
        if mesh.is_boundary_vertex(v):
            continue
        for e in mesh.outgoing_halfedges(v):
            sm = tr.stream_mesh(mesh.facet(e))
            for enter in (stream_mesh.IN, stream_mesh.OUT):
                try:
                    want = sm.import_position(e, 0.0, enter)
                except StreamMeshError:
                    want = None
                assert sm.entry(2 * (e % 3), 0.0, enter) == want
                outcomes[want is None] += 1
    # both outcomes occur
    assert outcomes[True] and outcomes[False]


def test_a_campaign_evaluates_each_sink_index_once(monkeypatch):
    mesh = meshgen.icosphere(2)
    fs = synth_field(mesh, "smoothed-random", seed=1)
    calls, stops = [], []
    real_index, real_stop = tracer_mod.vertex_index, Tracer._stop_at_vertex

    def counting_index(mesh, fieldsamples, v):
        calls.append(v)
        return real_index(mesh, fieldsamples, v)

    def counting_stop(self, pl, v):
        stops.append(v)
        return real_stop(self, pl, v)

    monkeypatch.setattr(tracer_mod, "vertex_index", counting_index)
    monkeypatch.setattr(Tracer, "_stop_at_vertex", counting_stop)
    tr = Tracer(mesh, fs)
    pls = [
        tr.trace(s) for d in ("forward", "backward") for s in _spread_edge_seeds(mesh, 30, d)
    ]
    sinks = [pl.sink_vertex for pl in pls if pl.termination == "sink-vertex"]
    # many lines stop at a vertex, each sink's index is evaluated once
    assert len(stops) > len(set(stops)) > 0
    assert sorted(calls) == sorted(set(stops)) and set(sinks) <= set(calls)


def test_a_vertex_no_facet_takes_a_line_from_is_probed_once(monkeypatch):
    mesh = meshgen.icosphere(2)
    tr = Tracer(mesh, synth_field(mesh, "smoothed-random", seed=1))
    seeds = _spread_edge_seeds(mesh, 10)
    first = [tr.trace(s) for s in seeds]
    assert Counter(pl.termination for pl in first)["sink-vertex"] == 10
    walks = []
    real = type(mesh).fan

    def counting(self, h):
        walks.append(h)
        return real(self, h)

    monkeypatch.setattr(type(mesh), "fan", counting)
    again = [tr.trace(s) for s in seeds]
    # the sink's fan was walked once, by the first line that reached it
    assert walks == []
    for a, b in zip(first, again):
        assert (a.points, a.termination, a.sink_vertex) == (b.points, b.termination, b.sink_vertex)


def test_one_seed_cuts_only_the_blocks_its_facets_lie_in():
    # a 40 x 40 grid has 3200 facets; a line at 3 degrees crosses the
    # grid in a band of a few cell rows, 80 facets each
    mesh = meshgen.grid(40, 40)
    fs = synth_field(mesh, "constant", angle_deg=3.0)
    tr = Tracer(mesh, fs)
    pl = tr.trace(left_edge_seed(mesh, 0.5))
    assert pl.termination == "boundary"
    cut = {b for b, block in enumerate(tr.borders._blocks) if block is not None}
    assert cut == {f // stream_mesh.BLOCK_FACETS for f in tr._cache}
    n_blocks = -(-3200 // stream_mesh.BLOCK_FACETS)
    assert len(cut) < len(tr.borders._blocks) == n_blocks


def test_a_campaign_leaves_no_reference_cycles():
    grid = meshgen.grid(12, 12)
    fs = synth_field(grid, "constant", angle_deg=30.0)
    sphere = meshgen.icosphere(2)
    sphere_fs = synth_field(sphere, "smoothed-random", seed=1)
    sphere_seeds = [
        s for d in ("forward", "backward") for s in _spread_edge_seeds(sphere, 40, d)
    ]
    # a seed on the downstream side of its edge is refused by its own facet
    # and enters from the one across, after a caught StreamMeshError
    refused = 0
    probe = Tracer(sphere, sphere_fs)
    for s in sphere_seeds:
        h, c = s.point
        sm = probe.stream_mesh(sphere.facet(h))
        try:
            sm.import_position(h, c, tracer_mod._ENTRY[s.direction])
        except StreamMeshError:
            refused += 1
    assert 0 < refused < len(sphere_seeds)
    del probe
    gc.collect()
    gc.disable()
    try:
        tr = Tracer(grid, fs)
        pls = [tr.trace(s) for s in _boundary_loop_seeds(tr, 24)]
        assert {pl.termination for pl in pls} == {"boundary"}
        assert len(tr._cache) > 100
        del tr, pls
        # the stream meshes hold no reference cycles: freeing the tracer
        # frees them, and the collector finds nothing left
        unreachable = [gc.collect()]
        tr = Tracer(sphere, sphere_fs)
        pls = [tr.trace(s) for s in sphere_seeds]
        assert len(tr._cache) > 100
        del tr, pls
        # nor do the errors of refused seeds
        unreachable.append(gc.collect())
    finally:
        gc.enable()
    assert unreachable == [0, 0]


@pytest.mark.parametrize("kind", ["sink", "saddle"])
def test_every_separatrix_seed_enters(kind):
    mesh = meshgen.disc(8, 24)
    fs = synth_field(mesh, kind)
    tr = Tracer(mesh, fs)
    pls = []
    for d in ("forward", "backward"):
        seeds = separatrix_seeds(mesh, fs, d)
        assert seeds
        pls += [tr.trace(s) for s in seeds]
    assert check_crossings(mesh, pls) == []


def test_backward_crossing_inverts_forward_crossing():
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 300:
        mesh, fs = wound_config(rng)
        tr = Tracer(mesh, fs)
        sm = tr.stream_mesh(0)
        for face_id in range(len(sm.run_rows) // 2):
            # face i's inflow run is run 2 i
            rin = 2 * face_id
            for r in sm.run_rows[rin]:
                if decode(sm, r)[0] == "chord" or sm.total[r] == 0.0:
                    continue
                x = flux.offset(sm, r, float(rng.uniform(0.0, 1.0)))
                out, _, rem = tr.cross_facet(sm, r, x)
                back, _, rem_back = tr.cross_facet(sm, out, rem)
                assert sm.run[back] // 2 == face_id
                # the run flux before the entry, and before the return
                x_in = flux.accumulate(sm, r, x)
                x_back = flux.accumulate(sm, back, rem_back)
                assert abs(x_back - x_in) <= 1e-9 * sm.run_prefix[rin][-1]
                checked += 1


def campaign_digest(mesh, fs, n_seeds, max_steps):
    """sha256 of a forward and a backward campaign from spread edge seeds.

    Covers every point's ``(halfedge, c.hex())``, every position's
    coordinates in hex and each line's termination; a seed that no facet
    takes counts as one rejection.
    """
    sha = hashlib.sha256()
    tr = Tracer(mesh, fs, max_steps=max_steps)
    edges = mesh.edge_halfedges().tolist()
    picks = [edges[i] for i in np.linspace(0, len(edges) - 1, n_seeds).round().astype(int)]
    for d in ("forward", "backward"):
        for h in picks:
            try:
                pl = tr.trace(Seed(TracePoint(h, 0.5), d))
            except StreamMeshError:
                sha.update(b"rejected|")
                continue
            for tp, p in zip(pl.points, pl.positions, strict=True):
                sha.update(f"{tp.halfedge}:{float(tp.c).hex()}@".encode())
                sha.update(",".join(float(x).hex() for x in p).encode())
            sha.update(f"={pl.termination}:{pl.sink_vertex}|".encode())
    return sha.hexdigest()


@pytest.mark.parametrize(
    "scene, n_seeds, max_steps, digest",
    [
        ("torus", 6, 2000, "ccc1c069f41b811d2ba1f3d2ebd5e23ac870304fcac63114da3520c241bde1f1"),
        ("icosphere2", 12, 400, "5c8af2f0b5508b9679deb6cabd731013d0b7ca430ffe12040d66415535310254"),
        ("distorted-grid", 12, 400, "25cfc77c34a8ba34c9a775044b79a37ed701ae086079b78f278e75251c07330b"),
    ],
    ids=["torus", "icosphere2", "distorted-grid"],
)
def test_campaign_points_and_positions_are_pinned(scene, n_seeds, max_steps, digest):
    # lines end by closed orbit and step cap on the torus, by sink vertex and
    # closed orbit on the sphere, at the boundary on the grid
    if scene == "torus":
        mesh = meshgen.torus()
        fs = synth_field(mesh, "smoothed-random", seed=1)
    elif scene == "icosphere2":
        mesh = meshgen.icosphere(2)
        fs = synth_field(mesh, "smoothed-random", seed=1)
    else:
        mesh = meshgen.grid(12, 12, distortion=0.4, seed=7)
        fs = synth_field(mesh, "circular", center=(0.0, 0.0))
    assert campaign_digest(mesh, fs, n_seeds, max_steps) == digest
