"""Whole campaigns driven by Hypothesis: random planar scenes, boundary seeds.

Each scene is a ``meshgen.grid`` under a constant field or a ``meshgen.disc``
under one of the radial or circulating synth kinds, seeded the way ``trace``
seeds it.  Every seed must trace without error, the lines must not cross,
and a fresh ``Tracer`` must trace the same points.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamtrace import meshgen, synth_field
from streamtrace.cli import make_seeds
from streamtrace.tracer import Tracer, check_crossings

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
        # the planar synth kinds refuse
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
