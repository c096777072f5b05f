import hashlib
import math

import numpy as np
import pytest

from streamtrace import (
    RK4Config,
    TraceError,
    meshgen,
    rk4_trace,
    synth_field,
)
from streamtrace.mesh import TracePoint
from streamtrace.rk4 import _FacetField
from streamtrace.tracer import Seed, Tracer

from conftest import strip
from test_tracer import boundary_seed, left_edge_seed, ray_distance


def test_constant_field_is_exact_everywhere():
    mesh = meshgen.grid(5, 5, distortion=0.3, seed=1)
    ang = 77.0
    fs = synth_field(mesh, "constant", angle_deg=ang)
    want = np.array([math.cos(math.radians(ang)), math.sin(math.radians(ang)), 0.0])
    rng = np.random.default_rng(2)
    for f in rng.choice(mesh.n_facets, size=10, replace=False):
        f = int(f)
        w = rng.dirichlet([1.0, 1.0, 1.0])
        p = w @ mesh.vertices[mesh.faces[f]]
        d = _FacetField(mesh, fs, f).eval(p)
        assert np.linalg.norm(d - want) < 1e-12


def test_circular_field_roughly_tangent():
    mesh = meshgen.disc(8, 32)
    fs = synth_field(mesh, "circular")
    rng = np.random.default_rng(3)
    for f in rng.choice(mesh.n_facets, size=20, replace=False):
        f = int(f)
        w = rng.dirichlet([2.0, 2.0, 2.0])
        p = w @ mesh.vertices[mesh.faces[f]]
        r = np.linalg.norm(p[:2])
        if r < 0.2:
            continue
        tangent = np.array([-p[1], p[0], 0.0]) / r
        d = _FacetField(mesh, fs, f).eval(p)
        assert float(tangent @ d) > math.cos(math.radians(5.0))


def test_rk4_straight_on_constant_field():
    mesh = strip(10)
    ang = 3.5
    fs = synth_field(mesh, "constant", angle_deg=ang)
    pl = rk4_trace(mesh, fs, left_edge_seed(mesh, 0.2))
    assert pl.termination == "boundary"
    assert pl.rk4_steps > 50
    d = (math.cos(math.radians(ang)), math.sin(math.radians(ang)))
    assert ray_distance(pl.positions, pl.positions[0], d) < 1e-8


def test_rk4_straight_through_distorted_transport():
    # a straight world line crosses many differently oriented facets, so any
    # error in carrying the direction over an edge would show up as a kink
    mesh = meshgen.grid(8, 8, distortion=0.35, seed=7)
    ang = 12.0
    fs = synth_field(mesh, "constant", angle_deg=ang)
    pl = rk4_trace(mesh, fs, left_edge_seed(mesh, 0.31))
    assert pl.termination == "boundary"
    assert len(pl) > 8
    d = (math.cos(math.radians(ang)), math.sin(math.radians(ang)))
    assert ray_distance(pl.positions, pl.positions[0], d) < 1e-8


def test_rk4_step_cap_and_step_count():
    mesh = meshgen.disc(6, 24)
    fs = synth_field(mesh, "circular")
    h = 0
    while not mesh.has_facet(mesh.opposite(h)):
        h += 3
    seed = Seed(TracePoint(h, 0.5))
    pl = rk4_trace(mesh, fs, seed, RK4Config(step_fraction=0.05, max_steps=40))
    assert pl.termination == "step-cap"
    assert pl.rk4_steps == 40
    assert Tracer(mesh, fs).trace(seed).rk4_steps == 0


def test_rk4_circular_orbit_stays_on_radius():
    mesh = meshgen.disc(8, 32)
    fs = synth_field(mesh, "circular")
    start = None
    for h in range(mesh.n_interior_halfedges):
        if not mesh.has_facet(mesh.opposite(h)):
            continue
        p = mesh.position(TracePoint(h, 0.5))
        if abs(np.linalg.norm(p[:2]) - 0.6) < 0.03:
            start = TracePoint(h, 0.5)
            break
    pl = rk4_trace(
        mesh, fs, Seed(start), RK4Config(step_fraction=0.02, max_steps=2000)
    )
    r0 = np.linalg.norm(pl.positions[0][:2])
    radii = np.linalg.norm(np.asarray(pl.positions)[:, :2], axis=1)
    assert len(pl) > 60
    assert np.all(np.abs(radii - r0) < 0.05 * r0)


def test_rk4_and_stream_agree_on_constant_field():
    mesh = meshgen.grid(10, 10, distortion=0.2, seed=4)
    fs = synth_field(mesh, "constant", angle_deg=8.0)
    seed = boundary_seed(mesh, 0, 0.0, 0.44)
    a = Tracer(mesh, fs).trace(seed)
    b = rk4_trace(mesh, fs, seed, RK4Config(step_fraction=0.01))
    assert a.termination == b.termination == "boundary"
    assert np.linalg.norm(a.positions[-1] - b.positions[-1]) < 1e-5


def test_rk4_traces_a_backward_seed_backward():
    mesh = meshgen.grid(6, 6)
    fs = synth_field(mesh, "constant", angle_deg=30.0)
    seed = boundary_seed(mesh, 0, 1.0, 0.4, "backward")
    pl = rk4_trace(mesh, fs, seed)
    assert pl.seed.direction == "backward"
    assert pl.termination == "boundary"
    assert len(pl) > 4
    forward = rk4_trace(mesh, fs, Seed(seed.point))
    assert [tp.halfedge for tp in pl.points] != [tp.halfedge for tp in forward.points]
    # a constant field is exact, so the line ends where the stream engine's does
    exact = Tracer(mesh, fs).trace(seed)
    assert np.linalg.norm(pl.positions[-1] - exact.positions[-1]) < 1e-5


def rk4_lines():
    """A step-capped RK4 orbit on a disc and a backward RK4 line across a grid."""
    disc = meshgen.disc(6, 24)
    h = next(h for h in range(0, disc.n_interior_halfedges, 3)
             if disc.has_facet(disc.opposite(h)))
    grid = meshgen.grid(6, 6)
    cases = [
        (disc, synth_field(disc, "circular"), Seed(TracePoint(h, 0.5)),
         RK4Config(max_steps=40)),
        (grid, synth_field(grid, "constant", angle_deg=30.0),
         boundary_seed(grid, 0, 1.0, 0.4, "backward"), RK4Config()),
    ]
    return [(mesh, seed, rk4_trace(mesh, fs, seed, config)) for mesh, fs, seed, config in cases]


def test_rk4_positions_are_the_mesh_positions_of_its_points():
    for (mesh, _, pl), end in zip(rk4_lines(), ["step-cap", "boundary"]):
        assert pl.termination == end
        assert pl.positions.shape == (len(pl), 3)
        assert pl.positions.tobytes() == mesh.positions_of(pl.halfedges, pl.cs).tobytes()


# (points, sha256 over each point's "halfedge:c.hex();") of ``rk4_lines``
RK4_POINTS = [
    (16, "114c4b3e4c151c0ef5ac72e0e4975e8400efb3533de3bba6b240dc81e2ab4322"),
    (13, "793c2a80f957e3ee0a0560c8f2125b826ab0fa45d75d88264ea6578910275484"),
]


def test_rk4_lines_keep_their_points_in_columns():
    for (mesh, seed, pl), (n, want) in zip(rk4_lines(), RK4_POINTS):
        assert pl.points[0] == seed.point
        assert pl.points == list(zip(pl.halfedges, pl.cs))
        assert all(type(tp) is TracePoint for tp in pl.points)
        text = "".join(f"{h}:{c.hex()};" for h, c in zip(pl.halfedges, pl.cs))
        assert (len(pl), hashlib.sha256(text.encode()).hexdigest()) == (n, want)
        assert pl.positions.tobytes() == mesh.positions_of(pl.halfedges, pl.cs).tobytes()


def test_rk4_rejects_a_direction_that_disagrees_with_the_seed():
    mesh = meshgen.grid(6, 6)
    fs = synth_field(mesh, "constant", angle_deg=30.0)
    seed = boundary_seed(mesh, 0, 1.0, 0.4, "backward")
    assert len(rk4_trace(mesh, fs, seed, direction="backward")) > 4
    with pytest.raises(TraceError):
        rk4_trace(mesh, fs, seed, direction="forward")
    # as Tracer.trace does, an unknown direction is an error, not backward
    with pytest.raises(TraceError):
        rk4_trace(mesh, fs, boundary_seed(mesh, 0, 1.0, 0.4, "sideways"))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"step_fraction": 0.0}, "RK4 step must be finite and above 0, got 0.0"),
        ({"step_fraction": -0.05}, "RK4 step must be finite and above 0, got -0.05"),
        ({"step_fraction": math.nan}, "RK4 step must be finite and above 0, got nan"),
        ({"step_fraction": math.inf}, "RK4 step must be finite and above 0, got inf"),
        ({"max_steps": 0}, "RK4 max_steps must be an int >= 1, got 0"),
        ({"max_steps": 10.0}, "RK4 max_steps must be an int >= 1, got 10.0"),
    ],
    ids=["h-zero", "h-negative", "h-nan", "h-inf", "cap-zero", "cap-float"],
)
def test_rk4_config_rejects_a_step_or_cap_out_of_range(kwargs, message):
    with pytest.raises(ValueError) as exc:
        RK4Config(**kwargs)
    assert str(exc.value) == message
