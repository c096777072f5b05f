"""The benchmark's seed-1 campaigns trace to their pinned output.

``perfbench/measure.py`` gates every timed campaign on the crossing count
and the points digest of its first one, but only within a run; these pins
hold them across changes, with the bytes of the lines file and of the OBJ
export each campaign writes.  The scenes come from ``perfbench/workloads.py``,
imported read-only, and each is traced once, on a fresh ``Tracer``, as a
campaign traces it.
"""

import hashlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from streamtrace import (
    Seed,
    TracePoint,
    Tracer,
    check_crossings,
    load_field,
    load_obj,
    save_polylines,
)
from streamtrace.cli import write_obj_polylines

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

# sha256 of the save_polylines and of the write_obj_polylines bytes of each
# seed-1 campaign
EXPORTS = {
    "grid-sweep": (
        "71c52271411874d177e0464266788f638ee4bfce432e2b899705f66e5d960e7b",
        "76df024d94bf00414b566ad554f5d33eea25e50a4452b830a34d22b9f1ddcc32",
    ),
    "torus-orbits": (
        "225dbb367a189c2909586002096bf2f393068172ba4e851d30c2302519174277",
        "fbc9ec277d299f7c630231b5d02f506ecbec140cbbb51662f4c7d5ab467762ea",
    ),
    "sphere-both": (
        "2f5dbaf9d8649a601026bd383879aa5d2ff9747065af5170e9b6face04e958e1",
        "dbb45f91761c13f46ec0b877f1c21f60e138aa53b506342bc926b7b010769045",
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


@pytest.fixture(scope="module", params=sorted(PINNED))
def campaign(request, tmp_path_factory):
    """(workload, mesh, polylines) of one seed-1 campaign."""
    workload = request.param
    scene = tmp_path_factory.mktemp(workload)
    load_workloads().write_scene(workload, 1, str(scene))
    mesh = load_obj(scene / "scene.obj")
    fs = load_field(scene / "scene.field", mesh)
    seeds = []
    for line in (scene / "seeds.txt").read_text().splitlines():
        h, c, direction = line.split()
        seeds.append(Seed(TracePoint(int(h), float(c)), direction))
    tracer = Tracer(mesh, fs)
    return workload, mesh, [tracer.trace(s) for s in seeds]


def test_seed_one_campaign_is_pinned(campaign):
    workload, _, polylines = campaign
    crossings = sum(len(pl.points) - 1 for pl in polylines)
    terminations = dict(Counter(pl.termination for pl in polylines))
    assert (crossings, points_digest(polylines), terminations) == PINNED[workload]


def test_seed_one_campaign_exports_are_pinned(campaign, tmp_path):
    workload, mesh, polylines = campaign
    assert check_crossings(mesh, polylines) == []
    save_polylines(tmp_path / "lines.json", polylines)
    write_obj_polylines(tmp_path / "lines.obj", polylines)
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("lines.json", "lines.obj")
    )
    assert digests == EXPORTS[workload]
