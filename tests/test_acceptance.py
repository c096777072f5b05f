"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single scorecard line (run with ``pytest -s`` to see them
all); the same condition backs the assert, so a FAIL line and a red test
always agree.  Tolerances sit next to the assertions they guard.
"""

import math
import time

import numpy as np

from streamtrace import (
    FieldSamples,
    RK4Config,
    Seed,
    Tracer,
    check_crossings,
    meshgen,
    rk4_trace,
    seed_from_vertex,
    synth_field,
    validate,
    vertex_index,
)
from streamtrace.errors import StreamMeshError, TraceError
from streamtrace.flux import locate, phi_inverse
from streamtrace.mesh import TracePoint
from streamtrace.stream_mesh import BorderTable, decompose

from conftest import TANGENTS, a_sequence, decode, faces_of, initial_pairs, phi, split_count
from conftest import cube_corner, wound_config
from test_flux import linear_scan_locate, random_run
from test_tracer import boundary_seed, interior_vertices, ray_distance, sweep_seed_count


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


def boundary_ladder(mesh, per_edge):
    seeds = []
    for h in range(mesh.n_interior_halfedges):
        if mesh.has_facet(mesh.opposite(h)):
            continue
        for i in range(per_edge):
            seeds.append(Seed(TracePoint(h, (i + 1) / (per_edge + 1))))
    return seeds


def trace_all(tracer, seeds):
    """Trace every seed, dropping the ones that sit on outgoing flow."""
    lines = []
    for s in seeds:
        try:
            lines.append(tracer.trace(s))
        except (TraceError, StreamMeshError):
            pass
    return lines


def vertex_at(mesh, x, y):
    d = np.linalg.norm(mesh.vertices[:, :2] - np.array([x, y]), axis=1)
    i = int(np.argmin(d))
    assert d[i] < 1e-9
    return i


def planar_angle_field(mesh, theta_deg):
    """Samples for a planar mesh from a continuous angle function (degrees).

    Walks each facet border accumulating real angle differences between the
    function values at the three corners, so edge rotations come out exact
    and every corner jump is zero.
    """
    ang = np.zeros((mesh.n_facets, 6))
    wnd = np.zeros((mesh.n_facets, 6), dtype=np.int64)
    for f in range(mesh.n_facets):
        vs = [mesh.vertices[mesh.origin(3 * f + k)] for k in range(3)]
        th = [theta_deg(v[0], v[1]) for v in vs]
        betas = mesh.betas[f]
        e0 = math.degrees(math.atan2(vs[1][1] - vs[0][1], vs[1][0] - vs[0][0]))
        b = np.empty(6)
        b[0] = th[0] - e0
        b[1] = b[0] + (th[1] - th[0])
        b[2] = b[1] - (180.0 - math.degrees(betas[0]))
        b[3] = b[2] + (th[2] - th[1])
        b[4] = b[3] - (180.0 - math.degrees(betas[1]))
        b[5] = b[4] + (th[0] - th[2])
        a = np.mod(b, 360.0)
        a[a >= 360.0] = 0.0
        ang[f] = a
        wnd[f] = np.round((b - a) / 360.0).astype(int)
    return FieldSamples(ang, wnd)


def zero_rotation_samples(mesh):
    """No rotation along any edge, no jump at any corner, per facet."""
    ang = np.zeros((mesh.n_facets, 6))
    wnd = np.zeros((mesh.n_facets, 6), dtype=np.int64)
    for f in range(mesh.n_facets):
        betas = mesh.betas[f]
        b = np.empty(6)
        b[0] = b[1] = 0.0
        b[2] = b[3] = b[1] - (180.0 - math.degrees(betas[0]))
        b[4] = b[5] = b[3] - (180.0 - math.degrees(betas[1]))
        a = np.mod(b, 360.0)
        a[a >= 360.0] = 0.0
        ang[f] = a
        wnd[f] = np.round((b - a) / 360.0).astype(int)
    return FieldSamples(ang, wnd)


def test_criterion_1_no_crossings_on_three_scenes():
    t0 = time.perf_counter()
    counts, violations = [], []

    mesh = meshgen.grid(12, 12)
    fs = synth_field(mesh, "constant", angle_deg=33.0)
    lines = trace_all(Tracer(mesh, fs), boundary_ladder(mesh, 5))
    counts.append(len(lines))
    violations.append(len(check_crossings(mesh, lines)))

    mesh = meshgen.grid(10, 10, distortion=0.3, seed=2)
    fs = synth_field(mesh, "circular", center=(0.0, 0.0))
    lines = trace_all(Tracer(mesh, fs), boundary_ladder(mesh, 6))
    counts.append(len(lines))
    violations.append(len(check_crossings(mesh, lines)))

    mesh = meshgen.icosphere(2)
    fs = synth_field(mesh, "smoothed-random", seed=0)
    tr = Tracer(mesh, fs)
    rng = np.random.default_rng(7)
    lines = []
    tries = 0
    while len(lines) < 120 and tries < 2000:
        tries += 1
        h = int(rng.integers(0, mesh.n_interior_halfedges))
        c = float(rng.uniform(0.1, 0.9))
        try:
            lines.append(tr.trace(Seed(TracePoint(h, c))))
        except (TraceError, StreamMeshError):
            pass
    counts.append(len(lines))
    violations.append(len(check_crossings(mesh, lines)))

    dt = time.perf_counter() - t0
    ok = all(n >= 100 for n in counts) and violations == [0, 0, 0] and dt < 30.0
    report(1, ok, f"lines {counts}, crossing violations {violations}, {dt:.1f}s")


def test_criterion_2_constant_field_rays():
    mesh = meshgen.grid(10, 10)
    ang = 33.4
    fs = synth_field(mesh, "constant", angle_deg=ang)
    tr = Tracer(mesh, fs)
    d = (math.cos(math.radians(ang)), math.sin(math.radians(ang)))
    tol = 1e-9 * mesh.bbox_diagonal()
    worst = 0.0
    for y in np.linspace(0.05, 0.95, 12):
        pl = tr.trace(boundary_seed(mesh, 0, 0.0, float(y)))
        assert pl.termination == "boundary"
        worst = max(worst, ray_distance(pl.positions, pl.positions[0], d))
    report(2, worst < tol, f"12 rays, worst vertex deviation {worst:.2e} < {tol:.2e}")


def orbit_drift_per_rev(mesh, fs, target_radius=0.6):
    # seed on the +x axis near the target radius and follow the orbit
    best = None
    for h in range(mesh.n_interior_halfedges):
        if not mesh.has_facet(mesh.opposite(h)):
            continue
        a = mesh.vertices[mesh.origin(h)][:2]
        b = mesh.vertices[mesh.dest(h)][:2]
        if (a[1] < 0) == (b[1] < 0):
            continue
        c = (0.0 - a[1]) / (b[1] - a[1])
        x = a[0] + c * (b[0] - a[0])
        if x <= 0:
            continue
        if best is None or abs(x - target_radius) < abs(best[0] - target_radius):
            best = (x, TracePoint(h, c))
    pl = Tracer(mesh, fs, max_steps=400).trace(Seed(best[1]))
    pos = np.asarray(pl.positions)[:, :2]
    r = np.hypot(pos[:, 0], pos[:, 1])
    turn = np.unwrap(np.arctan2(pos[:, 1], pos[:, 0]))
    revs = abs(turn[-1] - turn[0]) / (2.0 * math.pi)
    assert revs > 2.0
    return abs((r[-1] / r[0]) ** (1.0 / revs) - 1.0)


def test_criterion_3_circular_orbit_fidelity():
    drifts = []
    for d in (0.0, 0.12, 0.25, 0.4):
        mesh = meshgen.disc(8, 28, distortion=d, seed=0)
        fs = synth_field(mesh, "circular", center=(0.0, 0.0))
        drifts.append(orbit_drift_per_rev(mesh, fs))
    ok = drifts[0] < 0.05 and all(b > a for a, b in zip(drifts, drifts[1:]))
    report(3, ok, "drift/rev " + ", ".join(f"{d:.4%}" for d in drifts)
           + " over the distortion ladder (first < 5%, monotone)")


def test_criterion_4_speed_against_reference():
    mesh = meshgen.grid(10, 10)
    fs = synth_field(mesh, "constant", angle_deg=21.0)
    tr = Tracer(mesh, fs)
    seeds = [boundary_seed(mesh, 0, 0.0, float(y)) for y in np.linspace(0.04, 0.96, 24)]
    per_crossing = []
    for s in seeds:
        t0 = time.perf_counter()
        pl = tr.trace(s)
        dt = time.perf_counter() - t0
        if len(pl) > 1:
            per_crossing.append(dt / (len(pl) - 1))
    cfg = RK4Config(step_fraction=0.05)
    per_step = []
    for s in seeds[::4]:
        t0 = time.perf_counter()
        pl = rk4_trace(mesh, fs, s, cfg)
        per_step.append((time.perf_counter() - t0) / pl.rk4_steps)
    ratio = float(np.median(per_crossing)) / float(np.median(per_step))
    part_a = ratio <= 50.0

    # full traces on the circular scene, reference at 1/1000 average edge
    mesh = meshgen.grid(10, 10, distortion=0.3, seed=2)
    fs = synth_field(mesh, "circular", center=(0.0, 0.0))
    tr = Tracer(mesh, fs)
    seeds = [boundary_seed(mesh, 1, 0.0, float(x)) for x in np.linspace(0.3, 0.8, 6)]
    t0 = time.perf_counter()
    for s in seeds:
        tr.trace(s)
    t_stream = time.perf_counter() - t0
    cfg = RK4Config(step_fraction=0.001)
    t0 = time.perf_counter()
    for s in seeds:
        rk4_trace(mesh, fs, s, cfg)
    t_ref = time.perf_counter() - t0
    part_b = t_ref >= 10.0 * t_stream
    report(4, part_a and part_b,
           f"crossing/step time ratio {ratio:.2f} (limit 50), "
           f"full-trace speedup {t_ref / t_stream:.0f}x (need 10x)")


def test_criterion_5_decomposition_storm():
    rng = np.random.default_rng(11)
    n_cfg = 10_000
    splits_ok = seq_ok = flux_ok = 0
    for _ in range(n_cfg):
        borders = BorderTable(*wound_config(rng))
        sm = decompose(borders, 0)
        if split_count(sm) == initial_pairs(borders, 0) - 1:
            splits_ok += 1
        good_seq = True
        for face in faces_of(borders, sm):
            seq = a_sequence(sm.code, face) + [-2]
            if not all(b < a for a, b in zip(seq, seq[1:])):
                good_seq = False
        # face i has the inflow run 2 i and the outflow run 2 i + 1
        good_flux = all(prefix[-1] > 0.0 for prefix in sm.run_prefix)
        seq_ok += good_seq
        flux_ok += good_flux
    ok = splits_ok == seq_ok == flux_ok == n_cfg
    report(5, ok, f"{n_cfg} wound configs: split counts {splits_ok}, "
                  f"decreasing borders {seq_ok}, positive run flux {flux_ok}")


def test_criterion_6_flux_oracles():
    from scipy.integrate import quad

    rng = np.random.default_rng(13)
    worst_quad = worst_inv = 0.0
    checked = 0
    while checked < 1000:
        mesh, fs = wound_config(rng)
        sm = decompose(BorderTable(mesh, fs), 0)
        for rows in sm.run_rows:
            for r in rows:
                if decode(sm, r)[1] in TANGENTS or sm.length[r] == 0.0:
                    continue
                c = float(rng.uniform(0.05, 1.0))
                b0 = sm.b0[r]
                db = sm.b1[r] - b0
                want, _ = quad(
                    lambda t: math.sin(math.radians(b0 + t * db)),
                    0.0, c, epsabs=1e-14, epsrel=1e-13,
                )
                x = phi(sm, r, c)
                worst_quad = max(worst_quad, abs(x - abs(sm.length[r] * want)))
                worst_inv = max(worst_inv, abs(phi_inverse(sm, r, x, phi(sm, r, 1.0)) - c))
                checked += 1

    mismatches = probes = 0
    for _ in range(150):
        run = random_run(rng, int(rng.integers(1, 9)))
        total = run.run_prefix[0][-1]
        if total <= 0.0:
            continue
        for x in rng.uniform(-0.1, total * 1.1, 14):
            got = locate(run, 0, float(x))
            want = linear_scan_locate(run, float(x))
            probes += 1
            if got != want:
                mismatches += 1
    ok = worst_quad < 1e-9 and worst_inv < 1e-9 and mismatches == 0
    report(6, ok, f"{checked} pieces: quadrature gap {worst_quad:.1e}, "
                  f"inverse gap {worst_inv:.1e}, locate mismatches "
                  f"{mismatches}/{probes}")


def test_criterion_7_index_arithmetic():
    g = meshgen.grid(8, 8)
    vc = vertex_at(g, 0.5, 0.5)
    src = vertex_index(g, synth_field(g, "source", center=(0.5, 0.5)), vc)
    sad = vertex_index(g, synth_field(g, "saddle", center=(0.5, 0.5)), vc)

    # a field with zero rotation everywhere leaves only the apex angle defect
    cc = cube_corner()
    corner = vertex_index(cc, zero_rotation_samples(cc), 0)

    sph = meshgen.icosphere(2)
    fsph = synth_field(sph, "smoothed-random", seed=0)
    sphere_sum = sum(vertex_index(sph, fsph, v) for v in range(sph.n_vertices))
    tor = meshgen.torus()
    ftor = synth_field(tor, "smoothed-random", seed=1)
    torus_sum = sum(vertex_index(tor, ftor, v) for v in range(tor.n_vertices))

    ok = (
        abs(src - 1.0) < 1e-9
        and abs(sad + 1.0) < 1e-9
        and abs(corner - 0.25) < 1e-9
        and abs(sphere_sum - 2.0) < 1e-6
        and abs(torus_sum) < 1e-6
    )
    report(7, ok, f"source {src:.3f}, saddle {sad:.3f}, corner {corner:.4f} "
                  f"(apex defect over a full turn), sphere sum {sphere_sum:.8f}, "
                  f"torus sum {torus_sum:.1e}")


def test_criterion_8_singular_terminations():
    mesh = meshgen.disc(5, 20)
    fs = synth_field(mesh, "sink", center=(0.0, 0.0))
    tr = Tracer(mesh, fs)
    center = vertex_at(mesh, 0.0, 0.0)
    n_seeds = sunk = 0
    for h in range(mesh.n_interior_halfedges):
        if mesh.has_facet(mesh.opposite(h)):
            continue
        n_seeds += 1
        pl = tr.trace(Seed(TracePoint(h, 0.4)))
        last = pl.points[-1]
        if (pl.termination == "sink-vertex" and pl.sink_vertex == center
                and 1.0 <= last.c <= 2.0):
            sunk += 1
    part_sink = n_seeds > 0 and sunk == n_seeds

    g = meshgen.grid(8, 8)
    sad = synth_field(g, "saddle", center=(0.5, 0.5), phase_deg=20.0)
    mismatched = 0
    for v in interior_vertices(g):
        if len(seed_from_vertex(g, sad, v, "forward")) != sweep_seed_count(g, sad, v):
            mismatched += 1
        if len(seed_from_vertex(g, sad, v, "backward")) != sweep_seed_count(
            g, sad.flipped(), v
        ):
            mismatched += 1
    part_oracle = mismatched == 0

    refused = False
    try:
        seed_from_vertex(g, synth_field(g, "source", center=(0.5, 0.5)),
                         vertex_at(g, 0.5, 0.5))
    except TraceError:
        refused = True
    ok = part_sink and part_oracle and refused
    report(8, ok, f"sink terminations {sunk}/{n_seeds} with c in [1,2], "
                  f"separatrix count mismatches {mismatched}, "
                  f"source refused {refused}")


def test_criterion_9_reference_integrator_crosses():
    # shear steep enough that a tenth-of-an-edge step spans several radians
    # of direction change; exact traces settle onto horizontal lines instead
    mesh = meshgen.grid(12, 12)
    fs = planar_angle_field(mesh, lambda x, y: 90.0 + 36000.0 * (y - 0.503))
    assert validate(mesh, fs) == []

    seeds = [boundary_seed(mesh, 0, 1.0, float(y))
             for y in np.linspace(0.451, 0.549, 30)]
    kept, stream = [], []
    tr = Tracer(mesh, fs, max_steps=6000)
    for s in seeds:
        try:
            stream.append(tr.trace(s))
            kept.append(s)
        except (TraceError, StreamMeshError):
            pass
    stream_bad = len(check_crossings(mesh, stream))
    short = [Tracer(mesh, fs, max_steps=123).trace(s) for s in kept]
    stream_bad_alt = len(check_crossings(mesh, short))

    cfg = RK4Config(step_fraction=0.1, max_steps=20000)
    ref = [rk4_trace(mesh, fs, s, cfg) for s in kept]
    ref_bad = len(check_crossings(mesh, ref))

    ok = len(stream) >= 10 and stream_bad == 0 and stream_bad_alt == 0 and ref_bad >= 1
    report(9, ok, f"{len(stream)} seed pairs: reference crossings {ref_bad} "
                  f"(need >= 1), stream crossings {stream_bad} and "
                  f"{stream_bad_alt} at two step caps (need 0)")
