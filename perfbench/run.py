"""streamtrace benchmark driver.

One workload, as the benchmark contract runs it:

    python3 perfbench/run.py --workload torus-orbits --seed 1 --seconds 30 --trace 0

All workloads, untraced and traced, with a table per workload:

    python3 perfbench/run.py --all --seed 1 --seconds 30

Run from the repository root.  A ``workloads.py`` process generates the
inputs from ``--seed`` into ``.perfbench/scenes/`` (untimed), then a fresh
``measure.py`` process times the pipeline over them.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
CHILD_TIMEOUT_S = 170
WORKLOADS = ("grid-sweep", "torus-orbits", "sphere-both")

# name -> unit; the end-to-end metrics, reported by untraced runs
END_TO_END = {
    "setup_s": "s",
    "trace_s": "s",
    "check_s": "s",
    "total_s": "s",
    "crossings_per_s": "1/s",
    "peak_rss_mb": "MB",
}


# name -> unit; the per-layer metrics, reported by traced runs
PER_LAYER = {
    "mesh.load_obj_s": "s",
    "mesh.load_obj_us_per_facet": "us",
    "field.load_field_s": "s",
    "field.validate_s": "s",
    "field.validate_us_per_facet": "us",
    "stream_mesh.decompose_calls": "count",
    "stream_mesh.decompose_us": "us",
    "stream_mesh.decompose_self_s": "s",
    "stream_mesh.cache_hit_ratio": "ratio",
    "stream_mesh.import_us": "us",
    "stream_mesh.export_us": "us",
    "flux.accumulate_calls": "count",
    "flux.accumulate_us": "us",
    "flux.locate_calls": "count",
    "flux.locate_us": "us",
    "flux.phi_inverse_us": "us",
    "tracer.cross_facet_calls": "count",
    "tracer.cross_facet_us": "us",
    "tracer.chord_hops": "count",
    "tracer.trace_self_s": "s",
    "tracer.orbit_compares": "count",
    "tracer.check_pairs": "count",
    "tracer.check_segments_max_per_facet": "count",
    "tracer.check_ns_per_pair": "ns",
    "tracer.vertex_exits": "count",
    "tracer.vertex_pivots": "count",
    "tracer.crossings": "count",
    "tracer.terminations.boundary": "count",
    "tracer.terminations.closed-orbit": "count",
    "tracer.terminations.sink-vertex": "count",
    "tracer.terminations.vertex-stall": "count",
    "tracer.terminations.step-cap": "count",
    "cli.save_polylines_s": "s",
    "cli.write_obj_polylines_s": "s",
    "cli.write_svg_s": "s",
    "cli.json_bytes": "bytes",
    "rk4.steps": "count",
    "rk4.us_per_step": "us",
    "rk4.stream_ratio": "ratio",
    "trace_overhead": "ratio",
}


def tail(values):
    """(k, value) of the highest k-th percentile with ten samples beyond it."""
    n = len(values)
    k = (100 * (n - 10)) // n if n > 10 else 0
    if k < 50:
        return None
    rank = -(-k * n // 100)  # nearest rank, ceil(k n / 100)
    return k, sorted(values)[rank - 1]


def scene_dir(workload, seed, tiny):
    return os.path.join(WORK, "scenes", f"{workload}-s{seed}{'-tiny' if tiny else ''}")


def run_one(workload, seed, seconds, traced, tiny=False):
    """Generate the scene, time it in a fresh process; return the result dict.

    Both steps are child processes of this one, which imports neither
    numpy nor the program: a child's ``ru_maxrss`` starts from its parent's
    RSS, so a large parent would hide the measured process's own peak.
    """
    scene = scene_dir(workload, seed, tiny)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", workload,
         "--seed", str(seed), "--out", scene] + (["--tiny"] if tiny else []),
        check=True, timeout=CHILD_TIMEOUT_S,
    )
    out = os.path.join(WORK, "runs", f"{workload}-s{seed}-t{int(traced)}")
    os.makedirs(out, exist_ok=True)
    result_path = os.path.join(out, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    env = dict(os.environ)
    env.pop("STREAMTRACE_THREADS", None)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "measure.py"), "--scene", scene,
         "--out", out, "--seconds", str(seconds), "--trace", str(int(traced))],
        check=True, timeout=CHILD_TIMEOUT_S, env=env,
    )
    with open(result_path) as fh:
        result = json.load(fh)
    result["out_dir"] = out
    return result


def end_to_end(result):
    s = result["samples"]
    metrics = {k: statistics.median(s[k]) for k in END_TO_END if k in s}
    metrics["peak_rss_mb"] = result["peak_rss_mb"]
    return metrics


def report(result, traced, out=sys.stdout):
    """Human-readable lines; the metrics dict for the final JSON line."""
    w = out.write
    n_seeds = result["seeds_attempted"]
    w(f"workload {result['workload']}  seed {result['seed']}  "
      f"facets {result['facets']}  seeds {result['seeds']}\n")
    w(f"campaigns {result['attempted']}  failed {result['failed']}  "
      f"crossings {result['crossings']}  digest {result['digest'][:16]}\n")
    w(f"failed_frac {result['failed_seeds'] / max(1, n_seeds):.6g} "
      f"({result['failed_seeds']} of {n_seeds} seeds)\n")
    for problem in result["problems"]:
        w(f"GATE FAILED: {problem}\n")
    w("terminations " + " ".join(
        f"{k}={v}" for k, v in result["terminations"].items()) + "\n")
    if traced:
        layers = result.get("layers", {})
        metrics = {
            k: {"value": layers[k], "unit": unit}
            for k, unit in PER_LAYER.items() if k in layers
        }
        for k, m in sorted(metrics.items()):
            w(f"  {k:40s} {m['value']:.6g} {m['unit']}\n")
        w(f"spans of the last traced campaign: {result['out_dir']}/spans.tsv\n")
        return metrics
    metrics = {}
    for k, v in end_to_end(result).items():
        metrics[k] = {"value": v, "unit": END_TO_END[k]}
        vals = result["samples"].get(k, [v])
        tl = tail(vals)
        tl_s = f"p{tl[0]} {tl[1]:.6g}" if tl else "p-  (n <= 10)"
        raw = result["samples"].get("raw_" + k)
        raw_s = f"  (wall median {statistics.median(raw):.6g})" if raw else ""
        w(f"  {k:16s} median {v:.6g} {END_TO_END[k]:5s} {tl_s}  n={len(vals)}{raw_s}\n")
    return metrics


def main(argv=None):
    p = argparse.ArgumentParser(description="streamtrace benchmark")
    p.add_argument("--workload")
    p.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "streamtrace", "__init__.py")):
        print("error: src/streamtrace not found; run from a streamtrace checkout",
              file=sys.stderr)
        return 2
    if args.all:
        summary = {}
        for name in WORKLOADS:
            for traced in (False, True):
                res = run_one(name, args.seed, args.seconds, traced, args.tiny)
                metrics = report(res, traced)
                entry = summary.setdefault(name, {"correct": True})
                entry["correct"] = entry["correct"] and res["failed"] == 0
                entry["layers" if traced else "end_to_end"] = metrics
        path = os.path.join(WORK, "report.json")
        with open(path, "w") as fh:
            json.dump(summary, fh, indent=1)
        print(f"per-workload metrics written to {path}")
        print(json.dumps({"correct": all(v["correct"] for v in summary.values())}))
        return 0

    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    res = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    metrics = report(res, bool(args.trace))
    correct = res["failed"] == 0 and res["attempted"] > 0
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
