"""Scene generation for the benchmark workloads.

Each workload is a mesh, a field and a seed list, written to
``scene.obj``, ``scene.field`` and ``seeds.txt`` in a scene directory, plus
``scene.json`` with what the measuring process needs to know about it.
Generation uses ``streamtrace.meshgen`` and ``streamtrace.field`` and is
never timed; the measuring process only reads the files.

The workload seed moves the inputs without changing how much work they
hold: it jitters the grid vertices and the seed positions along their
edges.  The two curved scenes keep a fixed field (seed 1), because their
point is a traffic pattern that this field has: limit cycles on the torus,
and sinks reached from both directions on the sphere.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from streamtrace import meshgen  # noqa: E402
from streamtrace.field import save_field, synth_field  # noqa: E402
from streamtrace.mesh import save_obj  # noqa: E402

# full sizes; TINY_SIZES are for the smoke test only
SIZES = {
    "grid-sweep": {"cells": 40, "seeds": 32},
    "torus-orbits": {"n_major": 24, "n_minor": 12, "seeds": 3},
    "sphere-both": {"subdiv": 3, "seeds": 40},
}
TINY_SIZES = {
    "grid-sweep": {"cells": 6, "seeds": 4},
    "torus-orbits": {"n_major": 24, "n_minor": 12, "seeds": 1},
    "sphere-both": {"subdiv": 1, "seeds": 4},
}
NAMES = tuple(SIZES)

GRID_ANGLE_DEG = 33.0
GRID_DISTORTION = 0.2
CURVED_FIELD_SEED = 1
RK4_SUBSET = 10  # seeds of the campaign that are also traced with RK4


def _jittered_c(rng, n):
    return rng.uniform(0.3, 0.7, n)


def _grid_scene(size, seed, rng):
    n = size["cells"]
    mesh = meshgen.grid(n, n, distortion=GRID_DISTORTION, seed=seed)
    fs = synth_field(mesh, "constant", angle_deg=GRID_ANGLE_DEG)
    # a 33 degree flow enters through the bottom (y = 0) and left (x = 0)
    # sides; walk them from the top-left corner to the bottom-right one
    inflow = []
    for h in range(mesh.n_halfedges):
        if mesh.has_facet(h):
            continue
        a = mesh.vertices[mesh.origin(h)]
        b = mesh.vertices[mesh.dest(h)]
        if a[1] == 0.0 and b[1] == 0.0:
            inflow.append((a[0] + b[0], h))
        elif a[0] == 0.0 and b[0] == 0.0:
            inflow.append((-(a[1] + b[1]), h))
    inflow = [h for _, h in sorted(inflow)]
    idx = np.linspace(0, len(inflow) - 1, size["seeds"]).round().astype(int)
    cs = _jittered_c(rng, len(idx))
    seeds = [(inflow[i], float(c), "forward") for i, c in zip(idx, cs)]
    return mesh, fs, seeds, True


def _spread_seeds(mesh, rng, n, directions):
    """n seeds over the undirected edges, each traced in every direction."""
    canon = [
        h
        for h in range(mesh.n_halfedges)
        if mesh.has_facet(h) and h < mesh.opposite(h)
    ]
    idx = np.linspace(0, len(canon) - 1, n).round().astype(int)
    cs = _jittered_c(rng, n)
    return [
        (canon[i], float(c), d) for d in directions for i, c in zip(idx, cs)
    ]


def _torus_scene(size, seed, rng):
    mesh = meshgen.torus(n_major=size["n_major"], n_minor=size["n_minor"])
    fs = synth_field(mesh, "smoothed-random", seed=CURVED_FIELD_SEED)
    return mesh, fs, _spread_seeds(mesh, rng, size["seeds"], ("forward",)), False


def _sphere_scene(size, seed, rng):
    mesh = meshgen.icosphere(size["subdiv"])
    fs = synth_field(mesh, "smoothed-random", seed=CURVED_FIELD_SEED)
    seeds = _spread_seeds(mesh, rng, size["seeds"], ("forward", "backward"))
    return mesh, fs, seeds, False


_BUILDERS = {
    "grid-sweep": _grid_scene,
    "torus-orbits": _torus_scene,
    "sphere-both": _sphere_scene,
}


def write_scene(workload, seed, out_dir, tiny=False):
    """Generate the workload's inputs for ``seed`` into ``out_dir``.

    Returns the scene description also written to ``scene.json``.  A
    directory that already holds a complete scene of this size is reused.
    """
    size = (TINY_SIZES if tiny else SIZES)[workload]
    meta_path = os.path.join(out_dir, "scene.json")
    if os.path.exists(meta_path):
        with open(meta_path) as fh:
            meta = json.load(fh)
        if meta.get("size") == size:
            return meta
        os.remove(meta_path)
    rng = np.random.default_rng([seed, NAMES.index(workload)])
    mesh, fs, seeds, planar = _BUILDERS[workload](size, seed, rng)
    os.makedirs(out_dir, exist_ok=True)
    save_obj(os.path.join(out_dir, "scene.obj"), mesh)
    save_field(os.path.join(out_dir, "scene.field"), fs)
    with open(os.path.join(out_dir, "seeds.txt"), "w") as fh:
        for h, c, d in seeds:
            fh.write(f"{h} {c!r} {d}\n")
    forward = [i for i, (_, _, d) in enumerate(seeds) if d == "forward"]
    pick = np.linspace(0, len(forward) - 1, min(RK4_SUBSET, len(forward)))
    meta = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "planar": planar,
        "facets": mesh.n_facets,
        "seeds": len(seeds),
        "rk4_seeds": sorted({forward[i] for i in pick.round().astype(int)}),
    }
    # scene.json last: its presence marks the directory complete
    tmp = meta_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(meta, fh)
    os.replace(tmp, meta_path)
    return meta


def main(argv=None):
    p = argparse.ArgumentParser(description="write one workload's scene")
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)
    write_scene(args.workload, args.seed, args.out, tiny=args.tiny)
    return 0


if __name__ == "__main__":
    sys.exit(main())
