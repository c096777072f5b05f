"""Whole campaigns driven by Hypothesis, on planar and on closed scenes.

A planar scene is a ``meshgen.grid`` under a constant field or a
``meshgen.disc`` under one of the radial or circulating synth kinds, seeded
the way ``trace`` seeds it.  A closed scene is a small icosphere or torus
under a smoothed-random field, seeded on random edges in both directions;
there every edge has two facets, so every crossing enters a facet through
an edge cut on the other side.  Every seed must trace without error, the
lines must not cross, and a fresh ``Tracer`` must trace the same points.
"""

from functools import cache

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
