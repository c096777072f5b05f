"""The benchmark's seed-1 campaigns trace to their pinned output.

``perfbench/measure.py`` gates every timed campaign on the crossing count
and the points digest of its first one, but only within a run; these pins
hold them across changes.  The scenes come from ``perfbench/workloads.py``,
imported read-only, and each is traced on a fresh ``Tracer`` as a campaign
traces it.
"""

import hashlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from streamtrace import Seed, TracePoint, Tracer, load_field, load_obj

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

# crossings, sha256 of the points and termination counts of each seed-1 campaign
PINNED = {
    "grid-sweep": (
        1956,
        "18157f31e2eb5d357cbf38de2e6616fed36adb6bc882201a60831028e97511ae",
        {"boundary": 32},
    ),
    "torus-orbits": (
        6828,
        "1f1e7b167f8943d33f95ae2d0743e1cf311dfd5d0da46396b1408080141ec1dd",
        {"closed-orbit": 3},
    ),
    "sphere-both": (
        3218,
        "1d06795b9aa590ed5e3360039ff8741734ef5320b1c67ad4dadcd31a0e519bc4",
        {"sink-vertex": 80},
    ),
}


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def points_digest(polylines):
    """``measure.digest``: sha256 over each line's ``halfedge:c.hex();``, then ``|``."""
    sha = hashlib.sha256()
    for pl in polylines:
        for tp in pl.points:
            sha.update(f"{tp.halfedge}:{float(tp.c).hex()};".encode())
        sha.update(b"|")
    return sha.hexdigest()


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_seed_one_campaign_is_pinned(tmp_path, workload):
    load_workloads().write_scene(workload, 1, str(tmp_path))
    mesh = load_obj(tmp_path / "scene.obj")
    fs = load_field(tmp_path / "scene.field", mesh)
    seeds = []
    for line in (tmp_path / "seeds.txt").read_text().splitlines():
        h, c, direction = line.split()
        seeds.append(Seed(TracePoint(int(h), float(c)), direction))
    tracer = Tracer(mesh, fs)
    polylines = [tracer.trace(s) for s in seeds]
    crossings = sum(len(pl.points) - 1 for pl in polylines)
    terminations = dict(Counter(pl.termination for pl in polylines))
    assert (crossings, points_digest(polylines), terminations) == PINNED[workload]
