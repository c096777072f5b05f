"""Command-line front end.

Subcommands: validate, trace, bench, synth, check-crossings.
Exit codes: 0 ok, 1 property failure (violations found), 2 input error.
Seeds are traced one after another, so output is deterministic.
"""

from __future__ import annotations

import argparse
import functools
import statistics
import sys
import time
from dataclasses import dataclass, field as dfield

import numpy as np

from . import meshgen
from .errors import FieldError, MeshError, StreamMeshError, TraceError
from .field import INDEX_TOL, load_field, save_field, synth_field, validate, vertex_index
from .mesh import TracePoint, load_obj, save_obj
from .rk4 import RK4Config, rk4_trace
from .tracer import (
    _ENTRY, Seed, Tracer, check_crossings, save_polylines, load_polylines, seed_from_vertex,
)

SPREAD_SEEDS = 20  # per ``trace`` or ``bench`` run that names no other seeding
BENCH_RK4_STEPS = 1000  # per RK4 line in ``bench``, which times per step

@dataclass
class RunReport:
    polylines: int = 0
    crossings: int = 0
    terminations: dict = dfield(default_factory=dict)
    rejected_seeds: int = 0
    total_time: float = 0.0
    median_crossing_time: float = 0.0
    violations: int = 0

    def print(self):
        print(f"polylines:            {self.polylines}")
        print(f"facet crossings:      {self.crossings}")
        for reason in sorted(self.terminations):
            print(f"  ended by {reason}: {self.terminations[reason]}")
        if self.rejected_seeds:
            print(f"rejected seeds:       {self.rejected_seeds}")
        print(f"total time:           {self.total_time:.3f} s")
        if self.median_crossing_time:
            print(f"median per crossing:  {self.median_crossing_time * 1e6:.1f} us")
        print(f"crossing violations:  {self.violations}")


def _load_inputs(args):
    mesh = load_obj(args.mesh)
    fs = load_field(args.field, mesh)
    return mesh, fs


# -- seeding -----------------------------------------------------------------


def _boundary_loop_seeds(tracer, n, direction="forward"):
    """n seeds spaced by arc length over the boundary a line can start on.

    Only the stream-mesh pieces of the boundary edges where the field
    enters the surface count: ``IN`` pieces for forward lines, ``OUT``
    pieces for backward ones.  The loops are walked in order, each from its
    lowest boundary halfedge; a seed sits on the facet side of its edge.
    The pieces come from ``tracer``'s stream meshes, which its lines reuse.
    """
    mesh = tracer.mesh
    enter = _ENTRY[direction]
    spans = []  # (facet halfedge, t0, t1, arc length), in walk order
    seen = set()
    for h in range(mesh.n_interior_halfedges, mesh.n_halfedges):
        while h not in seen:
            seen.add(h)
            o = mesh.opposite(h)
            sm = tracer.stream_mesh(mesh.facet(o))
            length = mesh.edge_length(h)
            e = 2 * (o % 3)
            # the facet side runs against the walk
            for r in reversed(range(sm.elements[e], sm.elements[e + 1])):
                t0, t1 = sm.t0[r], sm.t1[r]
                if sm.code[r] >> 3 & 3 == enter and t1 > t0:
                    spans.append((o, t1, t0, length * (t1 - t0)))
            h = mesh.next(h)
    total = sum(span[3] for span in spans)
    seeds = []
    targets = [(i + 0.5) * total / n for i in range(n)]
    acc = 0.0
    ti = 0
    for o, t0, t1, l in spans:
        while ti < n and targets[ti] <= acc + l:
            # roundoff can carry a target at a span end past it; the span
            # runs down from t0 to t1
            t = min(t0, max(t1, t0 + (targets[ti] - acc) / l * (t1 - t0)))
            seeds.append(Seed(TracePoint(o, t), direction))
            ti += 1
        acc += l
    return seeds


def _spread_edge_seeds(mesh, n, direction="forward"):
    """n seeds spread over the mesh's undirected edges (closed meshes)."""
    canon = mesh.edge_halfedges().tolist()
    idx = np.linspace(0, len(canon) - 1, n).round().astype(int)
    return [Seed(TracePoint(canon[i], 0.5), direction) for i in idx]


def make_seeds(tracer, n=None, direction=None, points=None, singularities=False):
    """Seeds of one seeding: the explicit ``h:c,...`` ``points``, the singular
    vertices in both directions, or ``n`` spread seeds (None: ``SPREAD_SEEDS``).

    A direction is an error with ``singularities``, which trace both.
    """
    if singularities and direction is not None:
        raise ValueError("--seed-singularities traces both directions: drop --direction")
    mesh, fs = tracer.mesh, tracer.fieldsamples
    direction = direction or "forward"
    seeds = []
    if points is not None:
        for tok in points.split(","):
            try:
                h_s, c_s = tok.split(":")
                h, c = int(h_s), float(c_s)
                ok = 0 <= h < mesh.n_halfedges and 0.0 <= c <= 1.0
            except ValueError:  # not an int:float pair
                ok = False
            if not ok:
                raise ValueError(
                    f"seed point {tok!r}: need h:c with 0 <= h < {mesh.n_halfedges} "
                    f"and 0 <= c <= 1"
                )
            seeds.append(Seed(TracePoint(h, c), direction))
    elif singularities:
        for v in range(mesh.n_vertices):
            if mesh.is_boundary_vertex(v):
                continue
            idx = vertex_index(mesh, fs, v)
            if idx > INDEX_TOL:
                continue
            if abs(idx) <= INDEX_TOL and not _has_vertex_tangency(mesh, fs, v):
                continue
            for d in ("forward", "backward"):
                seeds.extend(seed_from_vertex(mesh, fs, v, d))
    else:
        n = SPREAD_SEEDS if n is None else n
        if n < 1:
            raise ValueError(f"--seeds must be at least 1, got {n}")
        if mesh.n_halfedges > mesh.n_interior_halfedges:
            seeds = _boundary_loop_seeds(tracer, n, direction)
        else:
            seeds = _spread_edge_seeds(mesh, n, direction)
    if not seeds:
        raise ValueError("no seeds produced")
    return seeds


def _has_vertex_tangency(mesh, fs, v):
    # v is interior, so every outgoing halfedge h starts edge h % 3 of a facet
    out = mesh.outgoing_halfedges(v)
    return any(fs.nodes(h // 3)[2 * (h % 3)] % 180.0 == 0.0 for h in out)


# -- trace running ------------------------------------------------------------


def _run_campaign(seeds, trace):
    """Trace every seed with ``trace``; seeds that fail count as rejected."""
    report = RunReport()
    polylines = []
    per_line = []
    t_start = time.perf_counter()
    for seed in seeds:
        t0 = time.perf_counter()
        try:
            pl = trace(seed)
        except (TraceError, StreamMeshError):
            report.rejected_seeds += 1
            continue
        dt = time.perf_counter() - t0
        polylines.append(pl)
        nx = max(1, len(pl.points) - 1)
        report.crossings += nx
        per_line.append(dt / nx)
        report.terminations[pl.termination] = (
            report.terminations.get(pl.termination, 0) + 1
        )
    report.total_time = time.perf_counter() - t_start
    report.polylines = len(polylines)
    if per_line:
        report.median_crossing_time = statistics.median(per_line)
    return polylines, report


# -- exporters ----------------------------------------------------------------


def write_svg(path, mesh, polylines):
    z = mesh.vertices[:, 2]
    if z.size and (z.max() != 0.0 or z.min() != 0.0):
        raise MeshError("SVG export requires an all-zero z extent")
    lo = mesh.vertices[:, :2].min(axis=0)
    hi = mesh.vertices[:, :2].max(axis=0)
    span = max(float((hi - lo).max()), 1e-12)
    margin = 0.05 * span
    lo = lo - margin
    size = (hi - lo) + margin

    def screen(points):
        """SVG ``[x, y]`` rows of an ``(n, 3)`` array of world points."""
        x = (points[:, 0] - lo[0]) / span * 1000.0
        y = (size[1] - (points[:, 1] - lo[1])) / span * 1000.0
        return np.column_stack([x, y]).tolist()

    palette = ["#d33", "#36c", "#293", "#a3c", "#e80", "#087"]
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {size[0] / span * 1000:.1f} {size[1] / span * 1000:.1f}">'
    ]
    # each vertex is formatted once, as either end of a wireframe line
    xy = screen(mesh.vertices)
    ends1 = [f'x1="{x:.2f}" y1="{y:.2f}"' for x, y in xy]
    ends2 = [f'x2="{x:.2f}" y2="{y:.2f}"' for x, y in xy]
    h = mesh.edge_halfedges()
    parts.extend(
        f'<line {ends1[a]} {ends2[b]} stroke="#ddd" stroke-width="0.7"/>'
        for a, b in zip(mesh._origin[h].tolist(), mesh._dest[h].tolist())
    )
    for i, pl in enumerate(polylines):
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in screen(pl.positions))
        color = palette[i % len(palette)]
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            'stroke-width="1.6"/>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def write_obj_polylines(path, polylines):
    save_obj(path, None, polylines=[pl.positions for pl in polylines])


# -- subcommands ----------------------------------------------------------------


def cmd_validate(args):
    mesh, fs = _load_inputs(args)
    violations = validate(mesh, fs)
    for v in violations:
        print(v)
    print(f"{len(violations)} violation(s)")
    return 1 if violations else 0


def cmd_trace(args):
    if args.max_steps is not None and args.max_steps < 1:
        raise ValueError(f"--max-steps must be at least 1, got {args.max_steps}")
    mesh, fs = _load_inputs(args)
    tracer = Tracer(mesh, fs, max_steps=args.max_steps)
    seeds = make_seeds(
        tracer, args.seeds, args.direction, args.seed_points, args.seed_singularities
    )
    trace = tracer.trace
    if args.engine == "rk4":
        caps = {} if args.max_steps is None else {"max_steps": args.max_steps}
        trace = functools.partial(rk4_trace, mesh, fs, config=RK4Config(args.rk4_h, **caps))
    polylines, report = _run_campaign(seeds, trace)
    violations = check_crossings(mesh, polylines)
    report.violations = len(violations)
    # the lines file comes last, so that a failed export leaves none
    if args.svg:
        write_svg(args.svg, mesh, polylines)
    if args.obj:
        write_obj_polylines(args.obj, polylines)
    save_polylines(args.out, polylines)
    report.print()
    for v in violations[:20]:
        print(v)
    return 1 if violations else 0


def cmd_bench(args):
    cfg = RK4Config(step_fraction=args.rk4_h, max_steps=BENCH_RK4_STEPS)
    mesh, fs = _load_inputs(args)
    tracer = Tracer(mesh, fs)
    seeds = make_seeds(tracer, args.seeds)
    # the cold pass builds the decompositions seeding did not, the warm
    # pass reuses them
    trace = tracer.trace
    _, cold = _run_campaign(seeds, trace)
    _, warm = _run_campaign(seeds, trace)
    stream_t = min(cold.median_crossing_time, warm.median_crossing_time)

    t0 = time.perf_counter()
    rk4_steps = sum(rk4_trace(mesh, fs, s, cfg).rk4_steps for s in seeds)
    rk4_per_step = (time.perf_counter() - t0) / max(1, rk4_steps)

    print(f"stream: median {stream_t * 1e6:.2f} us per facet crossing")
    print(f"        (cold {cold.median_crossing_time * 1e6:.2f} us, "
          f"warm {warm.median_crossing_time * 1e6:.2f} us)")
    print(f"rk4:    {rk4_per_step * 1e6:.2f} us per step (h = {cfg.step_fraction} avg edge)")
    print(f"ratio:  {stream_t / rk4_per_step:.2f} stream crossings per rk4 step")
    return 0


def cmd_synth(args):
    kind = args.kind
    seed = args.seed
    if kind == "grid":
        mesh = meshgen.grid(args.nx, args.ny, distortion=args.distort, seed=seed)
        fs = synth_field(mesh, "constant", angle_deg=args.angle)
    elif kind in ("circular", "saddle", "source", "sink"):
        mesh = meshgen.disc(args.rings, args.sectors, distortion=args.distort, seed=seed)
        fs = synth_field(mesh, kind)
    else:  # icosphere-random or torus-random; argparse rejects any other kind
        mesh = meshgen.icosphere(args.subdiv) if kind == "icosphere-random" else meshgen.torus()
        fs = synth_field(mesh, "smoothed-random", seed=seed)
    save_obj(args.out + ".obj", mesh)
    save_field(args.out + ".field", fs)
    bad = validate(mesh, fs)
    print(f"wrote {args.out}.obj and {args.out}.field ({len(bad)} violations)")
    return 1 if bad else 0


def cmd_check_crossings(args):
    mesh = load_obj(args.mesh)
    polylines = load_polylines(args.lines)
    try:
        violations = check_crossings(mesh, polylines)
    except TraceError as exc:  # a point off the mesh, or a segment off its facet
        raise ValueError(f"{args.lines}: {exc}") from None
    for v in violations:
        print(v)
    print(f"{len(violations)} crossing violation(s) in {len(polylines)} polylines")
    return 1 if violations else 0


# -- argument parsing --------------------------------------------------------------


def _build_parser():
    p = argparse.ArgumentParser(
        prog="streamtrace",
        description="Streamline tracing on triangle meshes without numerical integration",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_io(q):
        q.add_argument("--mesh", required=True)
        q.add_argument("--field", required=True)

    q = sub.add_parser("validate", help="check field continuity invariants")
    add_io(q)
    q.set_defaults(fn=cmd_validate)

    q = sub.add_parser("trace", help="trace streamlines")
    add_io(q)
    seeding = q.add_mutually_exclusive_group()
    seeding.add_argument("--seeds", type=int, help=f"N spread seeds (default {SPREAD_SEEDS})")
    seeding.add_argument("--seed-points", help="explicit h:c,h:c,... seeds")
    seeding.add_argument("--seed-singularities", action="store_true",
                         help="separatrices of the singular vertices, both directions")
    q.add_argument("--direction", choices=("forward", "backward"),
                   help="default forward")
    q.add_argument("--engine", choices=("stream", "rk4"), default="stream")
    q.add_argument("--rk4-h", type=float, default=RK4Config.step_fraction,
                   help="rk4 step, fraction of avg edge")
    q.add_argument("--max-steps", type=int, default=None,
                   help="per-line cap: facet crossings (stream), steps (rk4)")
    q.add_argument("--out", required=True, help="polylines JSON (one per line)")
    q.add_argument("--svg", default=None)
    q.add_argument("--obj", default=None)
    q.set_defaults(fn=cmd_trace)

    q = sub.add_parser("bench", help=f"stream vs rk4 ({BENCH_RK4_STEPS} rk4 steps a line)")
    add_io(q)
    q.add_argument("--seeds", type=int, help=f"N spread seeds (default {SPREAD_SEEDS})")
    q.add_argument("--rk4-h", type=float, default=0.1, help="rk4 step, fraction of avg edge")
    q.set_defaults(fn=cmd_bench)

    q = sub.add_parser("synth", help="generate a test mesh + field")
    q.add_argument("kind", choices=(
        "grid", "circular", "saddle", "source", "sink",
        "icosphere-random", "torus-random",
    ))
    q.add_argument("--out", required=True, help="output path prefix")
    q.add_argument("--nx", type=int, default=10)
    q.add_argument("--ny", type=int, default=10)
    q.add_argument("--rings", type=int, default=8)
    q.add_argument("--sectors", type=int, default=24)
    q.add_argument("--subdiv", type=int, default=2)
    q.add_argument("--distort", type=float, default=0.0)
    q.add_argument("--angle", type=float, default=30.0)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(fn=cmd_synth)

    q = sub.add_parser("check-crossings", help="verify traced polylines do not cross")
    q.add_argument("--mesh", required=True)
    q.add_argument("--lines", required=True)
    q.set_defaults(fn=cmd_check_crossings)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (MeshError, FieldError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TraceError, StreamMeshError) as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
