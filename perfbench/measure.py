"""Timed `streamtrace trace` pipeline over one generated scene.

Run as its own process by ``run.py``, so that peak RSS and cold caches
mean the same in every run:

    python3 perfbench/measure.py --scene DIR --out DIR --seconds N --trace 0|1

One campaign is what ``streamtrace trace`` does: load the mesh and field
and validate them (setup), trace every seed on a fresh ``Tracer`` (trace),
run ``check_crossings`` on the polylines (check), and write the JSON, OBJ
and, on planar scenes, SVG outputs (export).  Campaigns repeat until
``--seconds`` have passed.  Each campaign passes the correctness gate or
counts as failed and is left out of the timings.

Every phase time is calibrated for machine speed.  A fixed pure-Python
probe, independent of the program, runs between the segments of a phase:
each load, each ``SEGMENT_S`` of tracing or checking, each export.  Each
segment's wall time is scaled by ``PROBE_REF_S`` over the mean of the
probes around it, so the result reads as seconds on a machine where the
probe takes ``PROBE_REF_S``.  On a shared host the CPU speed one process
gets drifts by up to 2x over seconds; calibration takes most of that out.
Raw wall times are kept in the result as well.

With ``--trace 1`` untraced and traced campaigns alternate; the traced ones
give the per-layer metrics, the untraced ones the tracing overhead.  A warm
re-trace and the RK4 reference run after the timed loop.

The result goes to ``DIR/result.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from streamtrace import cli, field, mesh, rk4, tracer  # noqa: E402
from streamtrace.errors import StreamMeshError, TraceError  # noqa: E402
from streamtrace.mesh import TracePoint  # noqa: E402

from spans import SpanRecorder  # noqa: E402

MIN_CAMPAIGNS = 3
# the trace and check phases are repeated in-process until this much time
# has passed and timed per call, so that a short phase is still timed over
# a steady interval
REPEAT_MIN_S = 0.5
MAX_TRACE_REPS = 10
# tracing and repeated checks run in segments of about this many seconds,
# with a speed probe between two segments
SEGMENT_S = 0.03
RK4_STEP_FRACTION = 0.1
RK4_MAX_STEPS = 1000
ORBIT_TOL = getattr(tracer, "ORBIT_TOL", 1e-9)
TERMINATIONS = ("boundary", "closed-orbit", "sink-vertex", "vertex-stall", "step-cap")

# probe time, in seconds, that calibrated times are scaled to
PROBE_REF_S = 0.004

clock = time.perf_counter


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def _probe_work():
    """Fixed mix of float math, attribute, list and dict work."""
    pts = [_Point(i * 0.5, i * 0.25) for i in range(200)]
    table = {}
    acc = 0.0
    for _ in range(120):
        for i, p in enumerate(pts):
            acc += math.cos(p.x) * p.y
            k = i % 31
            table[k] = table.get(k, 0.0) + acc
    return acc + sum(table.values())


def probe():
    """Seconds one run of the speed probe takes now."""
    t0 = clock()
    _probe_work()
    return clock() - t0


def load_seeds(path):
    seeds = []
    with open(path) as fh:
        for line in fh:
            h, c, d = line.split()
            seeds.append(tracer.Seed(TracePoint(int(h), float(c)), d))
    return seeds


def digest(polylines):
    """sha256 over every polyline's (halfedge, c) points, c in full precision."""
    sha = hashlib.sha256()
    for pl in polylines:
        for tp in pl.points:
            sha.update(f"{tp.halfedge}:{float(tp.c).hex()};".encode())
        sha.update(b"|")
    return sha.hexdigest()


def crossings(polylines):
    return sum(max(0, len(pl.points) - 1) for pl in polylines)


# -- one campaign ----------------------------------------------------------------


class PhaseTimer:
    """Times a phase as a series of segments, each calibrated on its own.

    A probe runs after every segment; the segment's wall time is scaled by
    ``PROBE_REF_S`` over the mean of the probes before and after it.
    """

    def __init__(self):
        self.last = probe()
        self.probes = [self.last]
        self.raw = defaultdict(float)
        self.cal = defaultdict(float)

    def run(self, phase, fn, *args):
        t0 = clock()
        out = fn(*args)
        dt = clock() - t0
        p = probe()
        self.raw[phase] += dt
        self.cal[phase] += dt * PROBE_REF_S * 2.0 / (self.last + p)
        self.last = p
        self.probes.append(p)
        return out


def _trace_segment(tr, seeds, start, polylines):
    """Trace seeds from ``start`` for ``SEGMENT_S``; (next index, failures)."""
    t0 = clock()
    failed = 0
    i = start
    while i < len(seeds) and (i == start or clock() - t0 < SEGMENT_S):
        try:
            polylines.append(tr.trace(seeds[i]))
        except (TraceError, StreamMeshError):
            failed += 1
        i += 1
    return i, failed


def _check_segment(m, polylines):
    """check_crossings, repeated for ``SEGMENT_S``; (violations, calls)."""
    t0 = clock()
    violations = tracer.check_crossings(m, polylines)
    reps = 1
    while clock() - t0 < SEGMENT_S:
        tracer.check_crossings(m, polylines)
        reps += 1
    return violations, reps


def _trace_all(run, m, fs, seeds):
    """Every seed on a fresh Tracer, in timed segments; (polylines, failures)."""
    tr = run("trace_s", tracer.Tracer, m, fs)
    polylines = []
    failed = 0
    i = 0
    while i < len(seeds):
        i, n = run("trace_s", _trace_segment, tr, seeds, i, polylines)
        failed += n
    return polylines, failed


def campaign(scene_dir, out_dir, seeds, planar, repeat_trace=True):
    """Run the trace pipeline once; return its phase times and outputs.

    ``raw`` holds wall seconds per phase, ``times`` the calibrated ones.
    The check, and with ``repeat_trace`` the trace on a fresh ``Tracer``,
    are repeated until ``REPEAT_MIN_S`` and timed per call; every repeated
    trace must give the same points.  A trace with failed seeds is not
    repeated, and a trace at most ``MAX_TRACE_REPS`` times.
    """
    timer = PhaseTimer()
    run = timer.run
    m = run("setup_s", mesh.load_obj, os.path.join(scene_dir, "scene.obj"))
    fs = run("setup_s", field.load_field, os.path.join(scene_dir, "scene.field"), m)
    field_violations = run("setup_s", field.validate, m, fs)
    polylines, failed = _trace_all(run, m, fs, seeds)
    first = digest(polylines)
    trace_reps = 1
    repeats_agree = True
    while (
        repeat_trace
        and not failed
        and trace_reps < MAX_TRACE_REPS
        and timer.raw["trace_s"] < REPEAT_MIN_S
    ):
        # free the previous repetition first, so that a repetition holds no
        # more memory than the first trace and peak RSS does not depend on
        # how many repetitions fit in REPEAT_MIN_S
        polylines = None
        gc.collect()
        polylines, _ = _trace_all(run, m, fs, seeds)
        repeats_agree = repeats_agree and digest(polylines) == first
        trace_reps += 1
    # the Tracer's caches are cyclic garbage now; collect them here, outside
    # the timing, so that peak RSS does not depend on when the collector
    # would have run during check or export
    gc.collect()
    violations, reps = run("check_s", _check_segment, m, polylines)
    while timer.raw["check_s"] < REPEAT_MIN_S:
        reps += run("check_s", _check_segment, m, polylines)[1]
    json_path = os.path.join(out_dir, "lines.json")
    obj_path = os.path.join(out_dir, "lines.obj")
    run("export_s", tracer.save_polylines, json_path, polylines)
    run("export_s", cli.write_obj_polylines, obj_path, polylines)
    if planar:
        run("export_s", cli.write_svg, os.path.join(out_dir, "lines.svg"), m, polylines)
    raw, times = dict(timer.raw), dict(timer.cal)
    for d in (raw, times):
        d["trace_s"] /= trace_reps
        d["check_s"] /= reps
        d["total_s"] = sum(d.values())
    return {
        "times": times,
        "raw": raw,
        "scale": PROBE_REF_S / statistics.mean(timer.probes),
        "mesh": m,
        "polylines": polylines,
        "failed_seeds": failed,
        "field_violations": len(field_violations),
        "violations": violations,
        "repeats_agree": repeats_agree,
        "json_path": json_path,
        "obj_path": obj_path,
    }


def gate(run, n_seeds, expected=None):
    """Correctness problems of one campaign; an empty list means it passed.

    Requires a valid field, every seed traced, no crossing violation, the
    same points from every repeated trace, the JSON export to read back to
    the same points, one OBJ polyline per traced line, and the same
    crossing count and digest as ``expected``.
    """
    problems = []
    polylines = run["polylines"]
    if run["field_violations"]:
        problems.append(f"{run['field_violations']} field violation(s)")
    if run["failed_seeds"] or len(polylines) != n_seeds:
        problems.append(f"{run['failed_seeds']} of {n_seeds} seed(s) failed")
    if run["violations"]:
        problems.append(f"{len(run['violations'])} crossing violation(s)")
    if not run["repeats_agree"]:
        problems.append("a repeated trace gave other points")
    dig = digest(polylines)
    if digest(tracer.load_polylines(run["json_path"])) != dig:
        problems.append("JSON export does not read back to the traced points")
    with open(run["obj_path"]) as fh:
        n_obj = sum(1 for line in fh if line.startswith("l "))
    if n_obj != sum(1 for pl in polylines if len(pl.points) >= 2):
        problems.append(f"OBJ export holds {n_obj} polylines")
    if expected is not None and expected != (crossings(polylines), dig):
        problems.append("output differs from the run's first campaign")
    return problems


# -- metrics derived from the output -------------------------------------------------


def output_counts(m, polylines):
    """Exact counts computed from the traced points alone."""
    terms = Counter(pl.termination for pl in polylines)
    pivots = vertex_exits = 0
    orbit = 0
    for pl in polylines:
        pts = pl.points
        at_vertex = [bool(tp.c == 0.0 or tp.c == 1.0) for tp in pts[1:]]
        vertex_exits += sum(at_vertex)
        pivots += sum(at_vertex[:-1])  # the last exit does not continue
        steps = pts[1:]
        if pl.termination == "sink-vertex":
            steps = steps[:-1]
        visited = defaultdict(list)
        for i, tp in enumerate(steps):
            prior = visited[tp.halfedge]
            if pl.termination == "closed-orbit" and i == len(steps) - 1:
                hit = next(
                    (j for j, c in enumerate(prior) if abs(c - tp.c) <= ORBIT_TOL),
                    len(prior) - 1,
                )
                orbit += hit + 1
            else:
                orbit += len(prior)
            prior.append(tp.c)
    per_facet = Counter()
    for pl in polylines:
        pts = pl.points
        for a, b in zip(pts, pts[1:]):
            f = m.facet(b.halfedge)
            if f is None:
                f = m.facet(m.opposite(b.halfedge))
            per_facet[f] += 1
    pairs = sum(k * (k - 1) // 2 for k in per_facet.values())
    out = {
        "tracer.crossings": crossings(polylines),
        "tracer.vertex_exits": vertex_exits,
        "tracer.vertex_pivots": pivots,
        "tracer.orbit_compares": orbit,
        "tracer.check_pairs": pairs,
        "tracer.check_segments_max_per_facet": max(per_facet.values(), default=0),
    }
    for cause in TERMINATIONS:
        out[f"tracer.terminations.{cause}"] = terms.get(cause, 0)
    return out, terms


def layer_metrics(run, spans, n_facets):
    """Per-layer figures of one traced campaign, times calibrated."""
    scale = run["scale"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total(name, key="total_s"):
        return spans.get(name, {}).get(key, 0.0) * scale

    def per_call_us(name):
        n = calls(name)
        return total(name) / n * 1e6 if n else 0.0

    counts, _ = output_counts(run["mesh"], run["polylines"])
    decompose_calls = calls("stream_mesh.decompose")
    lookups = calls("tracer.stream_mesh")
    out = {
        "mesh.load_obj_s": total("mesh.load_obj"),
        "mesh.load_obj_us_per_facet": total("mesh.load_obj") / n_facets * 1e6,
        "field.load_field_s": total("field.load_field"),
        "field.validate_s": total("field.validate"),
        "field.validate_us_per_facet": total("field.validate") / n_facets * 1e6,
        "stream_mesh.decompose_calls": decompose_calls,
        "stream_mesh.decompose_us": per_call_us("stream_mesh.decompose"),
        "stream_mesh.decompose_self_s": total("stream_mesh.decompose", "self_s"),
        "stream_mesh.cache_hit_ratio": (
            1.0 - decompose_calls / lookups if lookups else 0.0
        ),
        "stream_mesh.import_us": per_call_us("stream_mesh.import_position"),
        "stream_mesh.export_us": per_call_us("stream_mesh.export_position"),
        "flux.accumulate_calls": calls("flux.accumulate"),
        "flux.accumulate_us": per_call_us("flux.accumulate"),
        "flux.locate_calls": calls("flux.locate"),
        "flux.locate_us": per_call_us("flux.locate"),
        "flux.phi_inverse_us": per_call_us("flux.phi_inverse"),
        "tracer.cross_facet_calls": calls("tracer.cross_facet"),
        "tracer.cross_facet_us": per_call_us("tracer.cross_facet"),
        "tracer.chord_hops": calls("flux.locate") - calls("tracer.cross_facet"),
        "tracer.trace_self_s": total("tracer.trace", "self_s"),
        "tracer.check_ns_per_pair": (
            run["times"]["check_s"] / max(1, counts["tracer.check_pairs"]) * 1e9
        ),
        "cli.save_polylines_s": total("cli.save_polylines"),
        "cli.write_obj_polylines_s": total("cli.write_obj_polylines"),
        "cli.write_svg_s": total("cli.write_svg"),
        "cli.json_bytes": os.path.getsize(run["json_path"]),
    }
    out.update(counts)
    return out


def rk4_reference(scene_dir, seeds, rk4_idx):
    """Warm stream re-trace and RK4 over a subset of the seeds, calibrated."""
    m = mesh.load_obj(os.path.join(scene_dir, "scene.obj"))
    fs = field.load_field(os.path.join(scene_dir, "scene.field"), m)
    tr = tracer.Tracer(m, fs)
    for s in seeds:
        tr.trace(s)  # fills the decomposition caches
    p0 = probe()
    t0 = clock()
    warm = [tr.trace(s) for s in seeds]
    warm_us = (clock() - t0) / max(1, crossings(warm)) * 1e6
    warm_us *= PROBE_REF_S * 2.0 / (p0 + probe())
    cfg = rk4.RK4Config(step_fraction=RK4_STEP_FRACTION, max_steps=RK4_MAX_STEPS)
    steps = 0
    p0 = probe()
    t0 = clock()
    for i in rk4_idx:
        s = seeds[i]
        try:
            pl = rk4.rk4_trace(m, fs, s, cfg, direction=s.direction)
        except TraceError:
            continue
        steps += getattr(pl, "rk4_steps", max(1, len(pl.points) - 1))
    us_per_step = (clock() - t0) / max(1, steps) * 1e6
    us_per_step *= PROBE_REF_S * 2.0 / (p0 + probe())
    return {
        "rk4.steps": steps,
        "rk4.us_per_step": us_per_step,
        "rk4.stream_ratio": warm_us / us_per_step if us_per_step else 0.0,
    }


# -- the timed loop ---------------------------------------------------------------


def measure(scene_dir, out_dir, seconds, traced):
    with open(os.path.join(scene_dir, "scene.json")) as fh:
        meta = json.load(fh)
    seeds = load_seeds(os.path.join(scene_dir, "seeds.txt"))
    os.makedirs(out_dir, exist_ok=True)
    samples = defaultdict(list)  # untraced campaigns
    traced_samples = defaultdict(list)
    traced_totals = []
    problems = []
    attempted = failed = 0
    expected = None
    recorder = None
    terms = Counter()
    failed_seeds = 0
    start = clock()
    while True:
        # start every campaign from a collected heap, so that peak RSS is
        # one campaign's and not a matter of when garbage was collected
        gc.collect()
        use_spans = traced and attempted % 2 == 1
        rec = SpanRecorder() if use_spans else None
        attempted += 1
        if rec is not None:
            # traced once, so that span counts are one campaign's
            with rec:
                run = campaign(scene_dir, out_dir, seeds, meta["planar"], False)
        else:
            run = campaign(scene_dir, out_dir, seeds, meta["planar"])
        failed_seeds += run["failed_seeds"]
        bad = gate(run, len(seeds), expected)
        if expected is None and not bad:
            expected = (crossings(run["polylines"]), digest(run["polylines"]))
            terms = output_counts(run["mesh"], run["polylines"])[1]
        if bad:
            failed += 1
            problems.extend(bad)
        elif rec is not None:
            traced_totals.append(run["times"]["total_s"])
            for k, v in layer_metrics(run, rec.summary(), meta["facets"]).items():
                traced_samples[k].append(v)
            recorder = rec
        else:
            for k, v in run["times"].items():
                samples[k].append(v)
            for k, v in run["raw"].items():
                samples["raw_" + k].append(v)
            samples["crossings_per_s"].append(
                crossings(run["polylines"]) / run["times"]["trace_s"]
            )
        done = clock() - start >= seconds
        if done and attempted >= MIN_CAMPAIGNS * (2 if traced else 1):
            break
        run = None
    result = {
        "workload": meta["workload"],
        "seed": meta["seed"],
        "facets": meta["facets"],
        "seeds": len(seeds),
        "attempted": attempted,
        "failed": failed,
        "problems": sorted(set(problems)),
        "failed_seeds": failed_seeds,
        "seeds_attempted": attempted * len(seeds),
        "crossings": expected[0] if expected else 0,
        "digest": expected[1] if expected else "",
        "terminations": dict(sorted(terms.items())),
        "samples": dict(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced and recorder is not None and samples:
        layers = {}
        for k, vals in traced_samples.items():
            layers[k] = statistics.median(vals)
        layers.update(rk4_reference(scene_dir, seeds, meta["rk4_seeds"]))
        layers["trace_overhead"] = (
            statistics.median(traced_totals) / statistics.median(samples["total_s"])
            - 1.0
        )
        result["layers"] = layers
        recorder.write(os.path.join(out_dir, "spans.tsv"))
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    result = measure(args.scene, args.out, args.seconds, bool(args.trace))
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
