"""The benchmark's seed-1 campaigns trace to their pinned output.

``perfbench/measure.py`` gates every timed campaign on the crossing count
and the points digest of its first one, but only within a run; these pins
hold them across changes, with the bytes of the lines file and of the OBJ
export each campaign writes.  The scenes come from ``perfbench/workloads.py``,
imported read-only, and each is traced once, on a fresh ``Tracer``, as a
campaign traces it.
"""

import hashlib
from collections import Counter

import pytest

from conftest import load_workloads, oracle_interleaving_facets, oracle_trace
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
from streamtrace.tracer import _interleaving_facets, _segment_intervals

# crossings, sha256 of the points and termination counts of each seed-1 campaign
PINNED = {
    "grid-sweep": (
        1956,
        "acc5006ea9fbe1279c33a724f53e00019c5ec278d2b99d66f6dacf70417c4ad7",
        {"boundary": 32},
    ),
    "torus-orbits": (
        6828,
        "694272d868b54c71f7d59414994d21938960e4e3aa10e75d6f5652d6408709c1",
        {"closed-orbit": 3},
    ),
    "sphere-both": (
        3218,
        "7534de59b2a52d3963e65da41cfe14db8ab4b6f421790efe6e75cbaf3d10a7b3",
        {"sink-vertex": 80},
    ),
}

# the largest change in c of any point from the c crossing of
# ``oracle_trace``, measured 1.6e-14, 7.6e-9 and 4.0e-10: near a tangency
# phi_inverse magnifies the roundoff that the c round trip adds
C_TOLERANCE = {"grid-sweep": 1e-13, "torus-orbits": 1e-8, "sphere-both": 1e-9}

# sha256 of the save_polylines and of the write_obj_polylines bytes of each
# seed-1 campaign
EXPORTS = {
    "grid-sweep": (
        "15b27ab72bb321ae60cb89a43e1e9413496a5c04081e41b88e5790c2995a7403",
        "7cac1c7fd902b852b34450c9f369cdcc6ca960d442089d6c5d02d712010cd437",
    ),
    "torus-orbits": (
        "5f0a29862a65b54faf41f642c6dc6d45f02d25fc35652d48f587d066706233bb",
        "d04f11afaa4eba7b07481c824eb725da4e13bdd0ff6d1c587f7cf2379599db14",
    ),
    "sphere-both": (
        "667f62309c2071706be9953d606d2e6a32a5863c11f7754f992888ef2cdfc4c0",
        "0690e356ee183910c04afd11cbc48e30240a0dc2fa63f00e4469c8b8e717aee0",
    ),
}


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
    """(workload, mesh, field, polylines) of one seed-1 campaign."""
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
    return workload, mesh, fs, [tracer.trace(s) for s in seeds]


def test_seed_one_campaign_is_pinned(campaign):
    workload, _, _, polylines = campaign
    crossings = sum(len(pl.points) - 1 for pl in polylines)
    terminations = dict(Counter(pl.termination for pl in polylines))
    assert (crossings, points_digest(polylines), terminations) == PINNED[workload]


def test_seed_one_campaign_exports_are_pinned(campaign, tmp_path):
    workload, mesh, _, polylines = campaign
    assert check_crossings(mesh, polylines) == []
    save_polylines(tmp_path / "lines.json", polylines)
    write_obj_polylines(tmp_path / "lines.obj", polylines)
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("lines.json", "lines.obj")
    )
    assert digests == EXPORTS[workload]


def test_seed_one_campaign_flags_what_the_stack_pass_flags(campaign):
    _, mesh, _, polylines = campaign
    facet, lo, hi, _, _ = _segment_intervals(mesh, polylines)
    assert _interleaving_facets(facet, lo, hi) == oracle_interleaving_facets(facet, lo, hi)


def test_seed_one_campaign_crosses_edges_as_the_c_crossing_does(campaign):
    # a line carries its flux offset across each edge; crossing in c instead
    # gives the same halfedges, terminations and sinks, with c moved in
    # the last bits
    workload, mesh, fs, polylines = campaign
    oracle = Tracer(mesh, fs)
    worst = orbit_end = 0.0
    for pl in polylines:
        want = oracle_trace(oracle, pl.seed)
        assert (pl.halfedges, pl.termination, pl.sink_vertex) == (
            want.halfedges, want.termination, want.sink_vertex
        )
        moved = [abs(a - b) for a, b in zip(pl.cs, want.cs, strict=True)]
        worst = max(worst, *moved)
        if pl.termination == "closed-orbit":
            orbit_end = max(orbit_end, *moved[-100:])
    assert worst <= C_TOLERANCE[workload]
    # the torus lines' changes above 1e-10 come early, at exits 0.09 or
    # more from every earlier exit on their halfedge; each lap's flux map
    # has slope 0.449, which shrinks them to 2.1e-11 or less over the last
    # 100 exits.  An exit's gap to its
    # nearest earlier exit on the halfedge moves by at most twice that,
    # less than its distance from ORBIT_TOL = 1e-9: 6.0e-11 or more for
    # the gap that closes each orbit, 8.4e-11 or more for every earlier
    # one.  So the orbit check fires at the same exit
    assert orbit_end <= 1e-10
