"""Whole campaigns driven by Hypothesis, on planar and on closed scenes.

A planar scene is a ``meshgen.grid`` under a constant field or a
``meshgen.disc`` under one of the radial or circulating synth kinds, seeded
the way ``trace`` seeds it.  A closed scene is a small icosphere or torus
under a smoothed-random field, seeded on random edges in both directions;
there every edge has two facets, so every crossing enters a facet through
an edge cut on the other side.  Every seed must trace without error, the
lines must not cross, and a fresh ``Tracer`` must trace the same points.

The benchmark's three scenes are also traced a second time with every
facet's reference direction turned: the lines must stay where they were.
"""

import math
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamtrace import meshgen, synth_field
from streamtrace.cli import make_seeds
from streamtrace.mesh import TracePoint
from streamtrace.tracer import Seed, Tracer, check_crossings

# boundary seeding finds no entry piece when the flow only leaves
NO_ENTRY = {("source", "forward"), ("sink", "backward")}


@st.composite
def scenes(draw):
    """(kind, size a, size b, distortion, mesh seed, angle) of one planar scene."""
    kind = draw(st.sampled_from(["constant", "circular", "saddle", "source", "sink"]))
    if kind == "constant":
        a, b = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        angle = draw(st.floats(0.0, 360.0, exclude_max=True))
    else:
        # fewer sectors, or more distortion, can fold a disc facet, which
        # meshgen.disc refuses
        a, b = draw(st.integers(1, 5)), draw(st.integers(6, 16))
        angle = None
    distortion = draw(st.sampled_from([0.0, 0.1, 0.2]))
    return kind, a, b, distortion, draw(st.integers(0, 100)), angle


def build(kind, a, b, distortion, mesh_seed, angle):
    if kind == "constant":
        mesh = meshgen.grid(a, b, distortion=distortion, seed=mesh_seed)
        return mesh, synth_field(mesh, "constant", angle_deg=angle)
    mesh = meshgen.disc(a, b, distortion=distortion, seed=mesh_seed)
    return mesh, synth_field(mesh, kind)


def campaign(mesh, fs, n, direction):
    tracer = Tracer(mesh, fs)
    return [tracer.trace(seed) for seed in make_seeds(tracer, n, direction)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    scene=scenes(),
    n=st.integers(1, 20),
    direction=st.sampled_from(["forward", "backward"]),
)
# boundary targets on span ends, where roundoff once put seeds off their
# entry pieces: off the edge on the sink, on an outflow piece on the circle
@example(scene=("sink", 5, 16, 0.0, 0, None), n=20, direction="forward")
@example(scene=("circular", 5, 16, 0.0, 0, None), n=20, direction="forward")
@example(scene=("circular", 5, 16, 0.0, 0, None), n=8, direction="forward")
def test_random_campaign_traces_every_seed_without_crossings(scene, n, direction):
    mesh, fs = build(*scene)
    try:
        lines = campaign(mesh, fs, n, direction)
    except ValueError as exc:
        if (scene[0], direction) in NO_ENTRY and str(exc) == "no seeds produced":
            return
        raise
    assert check_crossings(mesh, lines) == []
    again = campaign(mesh, fs, n, direction)
    assert [pl.points for pl in again] == [pl.points for pl in lines]
    assert [pl.termination for pl in again] == [pl.termination for pl in lines]


CLOSED_MESHES = {
    "icosphere1": lambda: meshgen.icosphere(1),
    "icosphere2": lambda: meshgen.icosphere(2),
    "torus": lambda: meshgen.torus(n_major=12, n_minor=6),
}


@cache
def closed_scene(name, field_seed):
    mesh = CLOSED_MESHES[name]()
    return mesh, synth_field(mesh, "smoothed-random", seed=field_seed)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(CLOSED_MESHES)),
    field_seed=st.integers(0, 20),
    picks=st.lists(
        st.tuples(
            st.integers(0, 10**6),
            st.floats(0.3, 0.7),
            st.sampled_from(["forward", "backward"]),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_closed_mesh_campaign_traces_every_seed_without_crossings(name, field_seed, picks):
    mesh, fs = closed_scene(name, field_seed)
    edges = mesh.edge_halfedges().tolist()
    seeds = [Seed(TracePoint(edges[i % len(edges)], c), d) for i, c, d in picks]
    tracer = Tracer(mesh, fs, max_steps=5000)
    lines = [tracer.trace(s) for s in seeds]
    assert check_crossings(mesh, lines) == []
    fresh = Tracer(mesh, fs, max_steps=5000)
    again = [fresh.trace(s) for s in seeds]
    assert [pl.points for pl in again] == [pl.points for pl in lines]
    assert [pl.termination for pl in again] == [pl.termination for pl in lines]


# the benchmark's scenes: a jittered grid under a constant field, and a torus
# and an icosphere under smoothed-random field 1; seeds, directions
WORKLOAD_SCENES = {
    "grid": (
        lambda: meshgen.grid(40, 40, distortion=0.2, seed=1),
        lambda mesh: synth_field(mesh, "constant", angle_deg=33.0),
        32,
        ("forward",),
    ),
    "torus": (
        lambda: meshgen.torus(n_major=24, n_minor=12),
        lambda mesh: synth_field(mesh, "smoothed-random", seed=1),
        3,
        ("forward",),
    ),
    "icosphere": (
        lambda: meshgen.icosphere(3),
        lambda mesh: synth_field(mesh, "smoothed-random", seed=1),
        40,
        ("forward", "backward"),
    ),
}


@pytest.mark.parametrize("name", sorted(WORKLOAD_SCENES))
def test_traced_lines_do_not_depend_on_the_reference_frames(name):
    make_mesh, make_field, n, directions = WORKLOAD_SCENES[name]
    mesh = make_mesh()
    fs = make_field(mesh)

    def trace_all():
        tracer = Tracer(mesh, fs)
        return [
            tracer.trace(seed)
            for direction in directions
            for seed in make_seeds(tracer, n, direction)
        ]

    lines = trace_all()
    offsets = np.random.default_rng(6).uniform(-math.pi, math.pi, mesh.n_facets)
    offsets[offsets == 0.0] = 1.0  # rotate every facet's reference
    mesh.set_reference_offsets(offsets)
    turned = trace_all()
    assert len(turned) == len(lines)
    for a, b in zip(lines, turned):
        assert [tp.halfedge for tp in b.points] == [tp.halfedge for tp in a.points]
        assert (b.termination, b.sink_vertex) == (a.termination, a.sink_vertex)
        assert np.max(np.abs(b.positions - a.positions), initial=0.0) <= 1e-12


def retrace_scene(shape, kind):
    """(mesh, field) of a planar retrace scene."""
    if shape == "grid":
        if kind == "saddle":
            mesh = meshgen.grid(8, 8)
            return mesh, synth_field(mesh, kind, center=(0.5, 0.5), phase_deg=20.0)
        mesh = meshgen.grid(8, 8, distortion=0.2, seed=3)
        return mesh, synth_field(mesh, kind, angle_deg=12.0)
    mesh = meshgen.disc(*shape)
    if kind == "constant":
        return mesh, synth_field(mesh, kind, angle_deg=30.0)
    return mesh, synth_field(mesh, kind)


# ROADMAP item 9: boundary seeds on a circular disc sit exactly on rim
# tangencies, where the face a seed enters is decided by roundoff.  1 of
# the 40 lines returns 1.27 from its seed; 2 did, by as much, before lines
# carried flux offsets across edges
RIM_TANGENCY_SEEDS = pytest.mark.xfail(
    strict=True, reason="rim-tangency seeds on a circular disc (ROADMAP item 9)"
)
# on the coarser saddle disc two backward lines seeded 1e-16 from a rim
# vertex end exactly at another rim vertex; traced back from there, each
# leaves along another separatrix and ends 2.0 away, as it did before
RIM_VERTEX_ENDS = pytest.mark.xfail(
    strict=True, reason="a line that ends at a rim vertex retraces another separatrix"
)


@pytest.mark.parametrize(
    "shape, kind",
    [
        ("grid", "constant"),
        ("grid", "saddle"),
        ((6, 24), "constant"),
        ((6, 24), "saddle"),
        pytest.param((6, 24), "circular", marks=RIM_TANGENCY_SEEDS),
        pytest.param((5, 16), "saddle", marks=RIM_VERTEX_ENDS),
    ],
    ids=["grid-constant", "grid-saddle", "disc-constant", "disc-saddle", "disc-circular",
         "coarse-disc-saddle"],
)
def test_a_backward_trace_from_a_boundary_end_returns_to_its_seed(shape, kind):
    # every line seeded the way trace seeds it, both ways, that leaves
    # through the boundary is traced back from its end
    mesh, fs = retrace_scene(shape, kind)
    tracer = Tracer(mesh, fs)
    lines = misses = 0
    for direction, back in (("forward", "backward"), ("backward", "forward")):
        for seed in make_seeds(tracer, 20, direction):
            pl = tracer.trace(seed)
            if pl.termination != "boundary":
                continue
            end = tracer.trace(Seed(TracePoint(pl.halfedges[-1], pl.cs[-1]), back))
            lines += 1
            misses += bool(np.linalg.norm(end.positions[-1] - pl.positions[0]) > 1e-9)
    assert lines >= 30
    assert misses == 0
