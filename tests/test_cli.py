import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from streamtrace import FieldSamples, load_field, load_obj, load_polylines, save_field
from streamtrace import Polyline, Seed, TracePoint, cli
from streamtrace.cli import main


def synth(tmp_path, kind, *extra):
    prefix = str(tmp_path / kind.replace("-", "_"))
    rc = main(["synth", kind, "--out", prefix, *extra])
    assert rc == 0
    return prefix + ".obj", prefix + ".field"


def test_synth_writes_valid_scene(tmp_path):
    obj, field = synth(tmp_path, "grid", "--nx", "6", "--ny", "5", "--angle", "20")
    mesh = load_obj(obj)
    assert mesh.n_facets == 60
    load_field(field, mesh)
    assert main(["validate", "--mesh", obj, "--field", field]) == 0


@pytest.mark.parametrize(
    "kind,extra",
    [
        ("grid", ("--nx", "4", "--ny", "3", "--distort", "0.3")),
        ("circular", ("--rings", "4", "--sectors", "12")),
        ("saddle", ("--rings", "4", "--sectors", "12")),
        ("source", ("--rings", "3", "--sectors", "10")),
        ("sink", ("--rings", "3", "--sectors", "10")),
        ("icosphere-random", ("--subdiv", "1", "--seed", "3")),
        ("torus-random", ("--seed", "1",)),
    ],
)
def test_synth_kinds_all_validate(tmp_path, kind, extra):
    synth(tmp_path, kind, *extra)


def test_trace_writes_lines_svg_and_obj(tmp_path):
    obj, field = synth(tmp_path, "circular", "--rings", "5", "--sectors", "18")
    lines = str(tmp_path / "lines.jsonl")
    svg = str(tmp_path / "scene.svg")
    wire = str(tmp_path / "lines.obj")
    rc = main([
        "trace", "--mesh", obj, "--field", field,
        "--seeds", "30", "--out", lines, "--svg", svg, "--obj", wire,
    ])
    assert rc == 0
    recs = [json.loads(l) for l in Path(lines).read_text().splitlines() if l.strip()]
    assert len(recs) >= 10
    assert all(r["termination"] for r in recs)
    svg_text = Path(svg).read_text()
    assert svg_text.startswith("<svg") or "<svg" in svg_text
    assert "polyline" in svg_text or "path" in svg_text
    obj_text = Path(wire).read_text()
    assert "\nl " in obj_text and "np." not in obj_text
    assert main(["check-crossings", "--mesh", obj, "--lines", lines]) == 0


# sha256 of the lines, SVG and OBJ files; the sink scene's lines end on
# sink rows with c in (1, 2], and the grid is shaped like the benchmark's
# grid-sweep scene, whose SVG is mostly the wireframe
@pytest.mark.parametrize(
    "kind,extra,seeds,digests",
    [
        (
            "circular", ("--rings", "5", "--sectors", "18"), "30",
            (
                "53742bf497f6ed8904f3e79f1fe6a88fa2fd6186ca21d5dc7fea74e87d37d894",
                "340e49eb568766ef9851f60d24aa489ba19da8f6545ca4bb6d0eee657f3fc096",
                "0c74a9edbcddf124426f9441c449d478a8ae6eb941b6872e2cded73ac14efb1a",
            ),
        ),
        (
            "sink", ("--rings", "4", "--sectors", "12"), "12",
            (
                "67483129352679b4d3bb43e3bbeaa615164a4129f8f82abba0f042c3c893c57d",
                "4aea0e9b72d4dd65012446e051bf47509929d0ad5bfefa936b339e78886c350a",
                "c7d8ba1eeccf9fa24988701b67173c66559a799593a460b62e6fa2be56e36ee6",
            ),
        ),
        (
            "grid", ("--nx", "12", "--ny", "12", "--angle", "30"), "20",
            (
                "72860ddaa7ac4ac790ccc912561d23d386706f107b29e9f1a3a83d6e090c3e68",
                "d8a0ba4cc46368169cbdeb6eb15e0fbf8385835c63d738abfc2726a4594c9751",
                "a39392562d5f26b5e84e9d566061f57a608e13669d2ff2f64ff86394aa16529b",
            ),
        ),
    ],
)
def test_trace_export_bytes_are_pinned(tmp_path, kind, extra, seeds, digests):
    obj, field = synth(tmp_path, kind, *extra)
    outs = [str(tmp_path / name) for name in ("lines.jsonl", "lines.svg", "lines.obj")]
    rc = main([
        "trace", "--mesh", obj, "--field", field, "--seeds", seeds,
        "--out", outs[0], "--svg", outs[1], "--obj", outs[2],
    ])
    assert rc == 0
    got = tuple(hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in outs)
    assert got == digests


RECORD_KEYS = {"seed", "termination", "sink_vertex", "points"}


@pytest.mark.parametrize(
    "kind,extra,flags",
    [
        ("circular", ("--rings", "5", "--sectors", "18"), ("--seeds", "30")),
        ("sink", ("--rings", "4", "--sectors", "12"), ("--seeds", "12")),
        ("torus-random", ("--seed", "1"), ("--seeds", "6", "--max-steps", "2000")),
        ("icosphere-random", ("--subdiv", "3", "--seed", "1"), ("--seeds", "20")),
        ("circular", ("--rings", "4", "--sectors", "12"), ("--seeds", "6", "--engine", "rk4")),
    ],
    ids=["circular", "sink", "torus", "icosphere", "rk4"],
)
def test_lines_file_loses_nothing(tmp_path, monkeypatch, kind, extra, flags):
    # the points give back every traced position bit for bit, so the lines
    # file holds points only
    obj, field = synth(tmp_path, kind, *extra)
    traced = []
    real = cli.save_polylines

    def keeping(path, polylines):
        traced.extend(polylines)
        real(path, polylines)

    monkeypatch.setattr(cli, "save_polylines", keeping)
    lines = tmp_path / "lines.jsonl"
    rc = main(["trace", "--mesh", obj, "--field", field, *flags, "--out", str(lines)])
    assert rc == 0
    recs = [json.loads(l) for l in lines.read_text().splitlines()]
    assert len(recs) == len(traced) > 0
    assert all(rec.keys() == RECORD_KEYS for rec in recs)
    mesh = load_obj(obj)
    loaded = load_polylines(lines)
    for a, b in zip(traced, loaded, strict=True):
        assert b.positions is None
        assert b.points == a.points
        assert mesh.positions(b.points).tobytes() == a.positions.tobytes()


def test_readme_lists_the_record_keys():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("JSON object per line, with these keys")[1].split("\n\n")[1]
    listed = {line.split("`")[1] for line in section.splitlines() if line.startswith("- `")}
    pl = Polyline(Seed(TracePoint(0, 0.5)))
    assert listed == pl.to_record().keys() == RECORD_KEYS


def test_trace_explicit_seed_backward(tmp_path):
    obj, field = synth(tmp_path, "grid", "--nx", "5", "--ny", "5", "--angle", "10")
    mesh = load_obj(obj)
    h = next(
        h for h in range(mesh.n_interior_halfedges)
        if mesh.has_facet(mesh.opposite(h))
    )
    lines = str(tmp_path / "one.jsonl")
    rc = main([
        "trace", "--mesh", obj, "--field", field,
        "--seed-points", f"{h}:0.5", "--direction", "backward", "--out", lines,
    ])
    assert rc == 0
    recs = [json.loads(l) for l in Path(lines).read_text().splitlines() if l.strip()]
    assert len(recs) == 1
    assert recs[0]["seed"]["direction"] == "backward"


@pytest.mark.parametrize(
    "tok", ["99999:0.5", "-1:0.5", "0:1.5", "0:nan", "abc", "0:0.5:1", "x:0.5", "0:x"]
)
def test_malformed_seed_point_exits_2(tmp_path, capsys, tok):
    obj, field = synth(tmp_path, "grid", "--nx", "4", "--ny", "4")
    rc = main([
        "trace", "--mesh", obj, "--field", field,
        f"--seed-points={tok}", "--out", str(tmp_path / "bad.jsonl"),
    ])
    assert rc == 2
    assert f"seed point {tok!r}: need h:c" in capsys.readouterr().err


def test_failed_export_leaves_no_lines_file(tmp_path, capsys):
    obj, field = synth(tmp_path, "grid", "--nx", "4", "--ny", "4")
    lines = tmp_path / "z.jsonl"
    rc = main([
        "trace", "--mesh", obj, "--field", field, "--seeds", "3",
        "--svg", str(tmp_path / "missing" / "x.svg"), "--out", str(lines),
    ])
    assert rc == 2
    assert "No such file or directory" in capsys.readouterr().err
    assert not lines.exists()


def test_trace_rk4_engine(tmp_path):
    obj, field = synth(tmp_path, "grid", "--nx", "5", "--ny", "4", "--angle", "25")
    lines = str(tmp_path / "rk4.jsonl")
    rc = main([
        "trace", "--mesh", obj, "--field", field, "--engine", "rk4",
        "--rk4-h", "0.05", "--seeds", "8", "--out", lines,
    ])
    assert rc == 0
    assert sum(1 for l in Path(lines).read_text().splitlines() if l.strip()) >= 4


def test_seed_singularities_on_saddle(tmp_path):
    obj, field = synth(tmp_path, "saddle", "--rings", "4", "--sectors", "12")
    lines = str(tmp_path / "sep.jsonl")
    rc = main([
        "trace", "--mesh", obj, "--field", field,
        "--seed-singularities", "--out", lines,
    ])
    assert rc == 0
    recs = [json.loads(l) for l in Path(lines).read_text().splitlines() if l.strip()]
    # the saddle contributes 2 + 2 separatrices; regular vertices sitting
    # exactly on them carry vertex tangencies and get seeded too
    assert len(recs) >= 4
    assert {r["seed"]["direction"] for r in recs} == {"forward", "backward"}


def test_seed_singularities_with_none_found_exits_2(tmp_path):
    # generic constant field: no negative vertices, no vertex tangencies
    obj, field = synth(tmp_path, "grid", "--nx", "4", "--ny", "4", "--angle", "20")
    rc = main([
        "trace", "--mesh", obj, "--field", field,
        "--seed-singularities", "--out", str(tmp_path / "none.jsonl"),
    ])
    assert rc == 2


def test_validate_flags_corrupt_field(tmp_path):
    obj, field = synth(tmp_path, "grid", "--nx", "4", "--ny", "4")
    mesh = load_obj(obj)
    fs = load_field(field, mesh)
    h = next(
        h for h in range(mesh.n_interior_halfedges)
        if mesh.has_facet(mesh.opposite(h))
    )
    ang = fs.angles.copy()
    ang[h // 3, 2 * (h % 3)] = (ang[h // 3, 2 * (h % 3)] + 7.0) % 360.0
    bad = str(tmp_path / "bad.field")
    save_field(bad, FieldSamples(ang, fs.windings.copy()))
    assert main(["validate", "--mesh", obj, "--field", field]) == 0
    assert main(["validate", "--mesh", obj, "--field", bad]) == 1


def test_missing_inputs_exit_2(tmp_path):
    rc = main([
        "validate", "--mesh", str(tmp_path / "no.obj"),
        "--field", str(tmp_path / "no.field"),
    ])
    assert rc == 2
    garbage = tmp_path / "junk.obj"
    garbage.write_text("not a mesh\n")
    rc = main([
        "validate", "--mesh", str(garbage), "--field", str(tmp_path / "no.field")
    ])
    assert rc == 2


def test_bench_reports_ratio(tmp_path, capsys):
    obj, field = synth(tmp_path, "circular", "--rings", "4", "--sectors", "12")
    rc = main([
        "bench", "--mesh", obj, "--field", field, "--seeds", "6", "--rk4-h", "0.1",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ratio:" in out and "per facet crossing" in out


def test_bench_warm_pass_decomposes_nothing(tmp_path, monkeypatch):
    from streamtrace import stream_mesh

    obj, field = synth(tmp_path, "circular", "--rings", "6", "--sectors", "16")
    calls = []
    real = stream_mesh.decompose

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(stream_mesh, "decompose", counting)
    io = ["--mesh", obj, "--field", field, "--seeds", "12"]
    assert main(["trace", *io, "--out", str(tmp_path / "lines.jsonl")]) == 0
    one_pass = len(calls)
    calls.clear()
    assert main(["bench", *io]) == 0
    # the warm pass reuses every decomposition the cold pass built
    assert len(calls) == one_pass > 0


def test_trace_rk4_obeys_max_steps(tmp_path):
    obj, field = synth(tmp_path, "torus-random", "--seed", "1")
    lines = str(tmp_path / "rk4.jsonl")
    rc = main([
        "trace", "--mesh", obj, "--field", field, "--engine", "rk4",
        "--seeds", "1", "--max-steps", "10", "--out", lines,
    ])
    assert rc == 0
    (rec,) = [json.loads(l) for l in Path(lines).read_text().splitlines() if l.strip()]
    assert rec["termination"] == "step-cap"
    # ten steps of 0.05 average edge cross a few facets at most
    assert len(rec["points"]) <= 10


def test_bench_caps_rk4_lines_on_a_torus(tmp_path, monkeypatch):
    obj, field = synth(tmp_path, "torus-random", "--seed", "1")
    steps = []
    real = cli.rk4_trace

    def recording(*args, **kwargs):
        pl = real(*args, **kwargs)
        steps.append(pl.rk4_steps)
        return pl

    monkeypatch.setattr(cli, "rk4_trace", recording)
    assert main(["bench", "--mesh", obj, "--field", field, "--seeds", "2"]) == 0
    assert len(steps) == 2
    assert all(0 < n <= 1000 for n in steps)


@pytest.mark.parametrize("coord", ["nan", "inf", "-inf"])
def test_non_finite_vertex_exits_2(tmp_path, capsys, coord):
    obj, field = synth(tmp_path, "grid", "--nx", "3", "--ny", "3")
    lines = Path(obj).read_text().splitlines()
    i = [n for n, line in enumerate(lines) if line.startswith("v ")][4]
    lines[i] = f"v {coord} 0 0"
    bad = tmp_path / "bad.obj"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(["validate", "--mesh", str(bad), "--field", field])
    assert rc == 2
    assert "vertex 4 has a non-finite coordinate" in capsys.readouterr().err


@pytest.mark.parametrize(
    "angle,winding",
    [
        ("inf", "0"),
        ("-inf", "0"),
        ("nan", "0"),
        ("1e308", "0"),
        ("-1e308", "0"),
        ("10.0", str(2**63)),
        ("370.0", str(2**63 - 1)),
        ("-10.0", str(-(2**63))),
    ],
)
def test_unrepresentable_field_sample_exits_2_with_line(
    tmp_path, capsys, angle, winding
):
    obj, field = synth(tmp_path, "grid", "--nx", "3", "--ny", "3")
    lines = Path(field).read_text().splitlines()
    parts = lines[3].split()
    parts[1], parts[2] = angle, winding
    lines[3] = " ".join(parts)
    bad = tmp_path / "bad.field"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(["validate", "--mesh", obj, "--field", str(bad)])
    assert rc == 2
    assert "error: line 4:" in capsys.readouterr().err


def test_largest_windings_still_load(tmp_path):
    obj, field = synth(tmp_path, "grid", "--nx", "3", "--ny", "3")
    lines = Path(field).read_text().splitlines()
    parts = lines[3].split()
    parts[1], parts[2] = "10.0", str(2**63 - 1)
    parts[3], parts[4] = "-10.0", str(-(2**63) + 1)
    lines[3] = " ".join(parts)
    p = tmp_path / "edge.field"
    p.write_text("\n".join(lines) + "\n")
    fs = load_field(p, load_obj(obj))
    assert fs.windings[2, 0] == 2**63 - 1
    assert fs.angles[2, 1] == 350.0 and fs.windings[2, 1] == -(2**63)


@pytest.mark.parametrize(
    "obj_text,message",
    [
        (
            "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999\n",
            "error: face references a vertex that does not exist",
        ),
        (
            "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3 4\n",
            "error: line 5: face needs 3 vertex indices, got 4",
        ),
        (
            "v 0 0 0\nv 1 1 1\nv 3 3 3\nf 1 2 3\n",
            "error: degenerate facet 0",
        ),
    ],
    ids=["index-past-int64", "quad-face", "collinear-facet"],
)
def test_malformed_obj_exits_2(tmp_path, capsys, obj_text, message):
    bad = tmp_path / "bad.obj"
    bad.write_text(obj_text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["validate", "--mesh", str(bad), "--field", str(tmp_path / "no")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def _record(points, **extra):
    rec = {
        "seed": {"halfedge": 0, "c": 0.5, "direction": "forward"},
        "termination": "boundary",
        "sink_vertex": None,
        "points": points,
    }
    rec.update(extra)
    return json.dumps(rec)


@pytest.mark.parametrize(
    "records,message",
    [
        (["{}"], "line 1: polyline record lacks 'seed'"),
        (
            [_record([[0, "x"]])],
            "line 1: malformed polyline record: [0, 'x'] is not a [halfedge, c] pair",
        ),
        (
            [_record([[0, 0.5]]), _record([[0, 0.5], [99999, 0.5]])],
            "polyline 1 point 1 is off the mesh: TracePoint(halfedge=99999, c=0.5)",
        ),
        (
            [_record([[0, 0.5], [1, 2.5]])],
            "polyline 0 point 1 is off the mesh: TracePoint(halfedge=1, c=2.5)",
        ),
        # halfedges 0 and 93 of the 4 x 4 grid share no facet
        ([_record([[0, 0.5], [93, 0.5]])], "does not touch facet 31"),
        (
            [
                _record([[0, 0.5]]),
                _record([[0, 0.5]], seed={"halfedge": 0, "c": 0.5, "direction": "sideways"}),
            ],
            "line 2: malformed polyline record: unknown trace direction 'sideways'",
        ),
        (
            [_record([[0, 0.5]], seed={"halfedge": 0, "c": 0.5})],
            "line 1: polyline record lacks 'direction'",
        ),
        (
            [
                _record([[0, 0.5]]),
                '{"seed": {"halfedge": 0, "c": 0.5, "direction": "forward"}, '
                '"termination": "boundary", "points": [[0, 0.5]]}',
            ],
            "line 2: polyline record lacks 'sink_vertex'",
        ),
        (
            # the first segment in file order whose start misses its facet
            [
                _record([[0, 0.5], [1, 0.5], [93, 0.5]]),
                _record([[2, 0.5], [93, 0.25]]),
            ],
            "TracePoint(halfedge=1, c=0.5) does not touch facet 31",
        ),
        (
            [_record([[0, 0.5]], seed={"halfedge": 0, "c": 1.5, "direction": "forward"})],
            "line 1: malformed polyline record: seed point "
            "TracePoint(halfedge=0, c=1.5) is not on its edge",
        ),
    ],
    ids=[
        "no-seed", "bad-point", "halfedge-off-mesh", "c-off-mesh", "no-shared-facet",
        "unknown-direction", "no-direction", "no-sink-vertex", "two-bad-segments",
        "seed-off-edge",
    ],
)
def test_malformed_lines_file_exits_2(tmp_path, capsys, records, message):
    obj, _ = synth(tmp_path, "grid", "--nx", "4", "--ny", "4")
    lines = tmp_path / "bad.jsonl"
    lines.write_text("\n".join(records) + "\n")
    rc = main(["check-crossings", "--mesh", obj, "--lines", str(lines)])
    assert rc == 2
    assert message in capsys.readouterr().err


# the positions that older lines files carried: one row of zeros per point,
# and the payloads their reader refused
OLD_POSITIONS = {
    "zeros": None,
    "ragged": [[0, 0], [1]],
    "short": [[0.0, 0.5, 0.0]],
    "null": [[None, 0, 0], [True, "1", 0]],
    "bool": [[0, 0, 0], [True, 1, 0]],
    "string": [[0, 0, 0], [1, "1", 0]],
    "nan": [[0, float("nan"), 0]],
    "too-large": [[10**400, 0, 0]],
}


@pytest.mark.parametrize("payload", list(OLD_POSITIONS))
@pytest.mark.parametrize("lines_kind,exit_code", [("traced", 0), ("crossing", 1), ("off-mesh", 2)])
def test_older_lines_file_checks_the_same(tmp_path, capsys, lines_kind, exit_code, payload):
    # a positions key is ignored like any other extra key, whatever it holds
    obj, field = synth(tmp_path, "grid", "--nx", "4", "--ny", "4")
    lines = tmp_path / "lines.jsonl"
    if lines_kind == "traced":
        main(["trace", "--mesh", obj, "--field", field, "--seeds", "6", "--out", str(lines)])
        recs = [json.loads(l) for l in lines.read_text().splitlines()]
    elif lines_kind == "crossing":
        recs = [json.loads(_record([[0, 0.5], [1, 0.5]])), json.loads(_record([[1, 0.2], [2, 0.5]]))]
    else:
        recs = [json.loads(_record([[0, 0.5], [1, 2.5]]))]

    def check(recs):
        lines.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
        capsys.readouterr()
        rc = main(["check-crossings", "--mesh", obj, "--lines", str(lines)])
        return rc, capsys.readouterr()

    rows = OLD_POSITIONS[payload]
    old = [
        {**rec, "positions": rows or [[0.0, 0.0, 0.0] for _ in rec["points"]]}
        for rec in recs
    ]
    new = check(recs)
    assert new[0] == exit_code
    assert check(old) == new


@pytest.mark.parametrize("kind,seeds", [("sink", None), ("circular", None), ("circular", 8)])
def test_boundary_seeds_at_span_ends_all_trace(tmp_path, capsys, kind, seeds):
    # the symmetric boundary puts seed targets on span ends, where roundoff
    # once carried a seed off its edge (sink) or onto an outflow piece
    obj, field = synth(tmp_path, kind, "--rings", "5", "--sectors", "16")
    out = tmp_path / "lines.jsonl"
    argv = ["trace", "--mesh", obj, "--field", field, "--out", str(out)]
    if seeds is not None:
        argv += ["--seeds", str(seeds)]
    capsys.readouterr()
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert f"polylines:            {seeds or 20}\n" in stdout
    assert "rejected seeds" not in stdout
    assert len(out.read_text().splitlines()) == (seeds or 20)


def test_a_line_that_exits_at_a_rim_vertex_goes_on(tmp_path, capsys):
    # seed 12 (halfedge 373, c = 1 - 1.1e-15) exits at rim vertex 72 after a
    # zero-length step; the facet that takes it lies across the boundary
    # gap from its exit facet, so the fan walk must cross the gap
    obj, field = synth(tmp_path, "sink", "--rings", "5", "--sectors", "16")
    lines = str(tmp_path / "lines.jsonl")
    assert main(["trace", "--mesh", obj, "--field", field, "--out", lines]) == 0
    pls = load_polylines(lines)
    assert [pl.termination for pl in pls] == ["sink-vertex"] * 20
    assert len(pls[12]) > 2


@pytest.mark.parametrize("cmd", ["trace", "bench"])
def test_seed_count_below_one_exits_2(tmp_path, capsys, cmd):
    obj, field = synth(tmp_path, "grid", "--nx", "4", "--ny", "4")
    argv = [cmd, "--mesh", obj, "--field", field, "--seeds", "0"]
    if cmd == "trace":
        argv += ["--out", str(tmp_path / "lines.jsonl")]
    assert main(argv) == 2
    assert "--seeds must be at least 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "lines.jsonl").exists()


def test_trace_prints_its_summary_to_the_current_stdout(tmp_path, capsys):
    obj, field = synth(tmp_path, "circular", "--rings", "4", "--sectors", "12")
    rc = main([
        "trace", "--mesh", obj, "--field", field,
        "--seeds", "6", "--out", str(tmp_path / "lines.jsonl"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "polylines:            6\n" in out
    assert "crossing violations:  0\n" in out


@pytest.mark.parametrize("direction, sides", [("forward", (0.0,)), ("backward", (1.0,))])
def test_boundary_seeds_start_only_where_lines_enter(tmp_path, capsys, direction, sides):
    # a 30 degree flow enters a unit grid through x = 0 and y = 0 and leaves
    # through x = 1 and y = 1; every seed must sit where its lines enter
    obj, field = synth(tmp_path, "grid", "--nx", "10", "--ny", "10", "--angle", "30")
    lines = str(tmp_path / "lines.jsonl")
    rc = main([
        "trace", "--mesh", obj, "--field", field, "--seeds", "20",
        "--direction", direction, "--out", lines,
    ])
    assert rc == 0
    assert "rejected seeds" not in capsys.readouterr().out
    mesh = load_obj(obj)
    pls = load_polylines(lines)
    assert len(pls) == 20
    for pl in pls:
        x, y, _ = mesh.positions(pl.points[:1])[0]
        assert x in sides or y in sides
        assert pl.termination == "boundary"


@pytest.mark.parametrize("engine", ["stream", "rk4"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_max_steps_below_one_exits_2(tmp_path, capsys, engine, value):
    obj, field = synth(tmp_path, "grid", "--nx", "4", "--ny", "4")
    lines = tmp_path / "lines.jsonl"
    rc = main([
        "trace", "--mesh", obj, "--field", field, "--engine", engine,
        "--max-steps", value, "--out", str(lines),
    ])
    assert rc == 2
    assert f"--max-steps must be at least 1, got {value}" in capsys.readouterr().err
    assert not lines.exists()


def test_check_crossings_prints_a_violation_and_exits_1(tmp_path, capsys):
    obj, _ = synth(tmp_path, "grid", "--nx", "4", "--ny", "4")
    lines = tmp_path / "crossing.jsonl"
    # halfedges 0, 1 and 2 border facet 0: border keys 0.5 -> 1.5 and
    # 1.2 -> 2.5 interleave, so the two segments cross inside it
    lines.write_text(
        _record([[0, 0.5], [1, 0.5]]) + "\n" + _record([[1, 0.2], [2, 0.5]]) + "\n"
    )
    rc = main(["check-crossings", "--mesh", obj, "--lines", str(lines)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "facet 0: line 0 segment 0 crosses line 1 segment 0" in out
    assert "1 crossing violation(s) in 2 polylines" in out


def test_trace_counts_a_rejected_seed(tmp_path, capsys):
    # the 30 degree field leaves the 6 x 6 grid through halfedge 33 (x = 1)
    # and enters it through halfedge 0 (y = 0): no line starts on the first
    obj, field = synth(tmp_path, "grid", "--nx", "6", "--ny", "6")
    lines = tmp_path / "lines.jsonl"
    rc = main([
        "trace", "--mesh", obj, "--field", field,
        "--seed-points", "33:0.5,0:0.5", "--out", str(lines),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "polylines:            1\n" in out
    assert "rejected seeds:       1\n" in out
    assert len(lines.read_text().splitlines()) == 1


@pytest.mark.parametrize(
    "cmd, h",
    [("trace", "0"), ("trace", "-0.05"), ("bench", "0"), ("bench", "-0.1")],
)
def test_rk4_step_not_above_zero_exits_2(tmp_path, capsys, cmd, h):
    obj, field = synth(tmp_path, "grid", "--nx", "6", "--ny", "6")
    capsys.readouterr()
    lines = tmp_path / "lines.jsonl"
    argv = [cmd, "--mesh", obj, "--field", field, f"--rk4-h={h}"]
    if cmd == "trace":
        argv += ["--engine", "rk4", "--out", str(lines)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert f"error: RK4 step must be finite and above 0, got {float(h)}" in err
    assert out == ""
    assert not lines.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--seed-singularities", "--seed-points", "0:0.5"],
        ["--seed-singularities", "--seeds", "20"],
        ["--seeds", "20", "--seed-points", "0:0.5"],
    ],
    ids=["singularities-points", "singularities-seeds", "seeds-points"],
)
def test_two_seedings_exit_2(tmp_path, capsys, flags):
    obj, field = synth(tmp_path, "saddle", "--rings", "4", "--sectors", "12")
    lines = tmp_path / "lines.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--mesh", obj, "--field", field, *flags, "--out", str(lines)])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not lines.exists()


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_seed_singularities_with_a_direction_exits_2(tmp_path, capsys, direction):
    obj, field = synth(tmp_path, "saddle", "--rings", "4", "--sectors", "12")
    lines = tmp_path / "lines.jsonl"
    rc = main([
        "trace", "--mesh", obj, "--field", field, "--seed-singularities",
        "--direction", direction, "--out", str(lines),
    ])
    assert rc == 2
    assert "--seed-singularities traces both directions" in capsys.readouterr().err
    assert not lines.exists()


@pytest.mark.parametrize("kind", ["grid", "circular"])
@pytest.mark.parametrize("distort", ["-0.3", "nan"])
def test_negative_distortion_exits_2(tmp_path, capsys, kind, distort):
    prefix = tmp_path / "scene"
    rc = main(["synth", kind, f"--distort={distort}", "--out", str(prefix)])
    assert rc == 2
    assert f"error: distortion must be at least 0, got {float(distort)}" in capsys.readouterr().err
    assert not (tmp_path / "scene.obj").exists()


def test_negative_subdivisions_exits_2(tmp_path, capsys):
    prefix = tmp_path / "scene"
    rc = main(["synth", "icosphere-random", "--subdiv", "-1", "--out", str(prefix)])
    assert rc == 2
    assert "error: subdivisions must be at least 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "scene.obj").exists()


@pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
def test_non_finite_angle_exits_2(tmp_path, capsys, angle):
    prefix = tmp_path / "scene"
    rc = main(["synth", "grid", f"--angle={angle}", "--out", str(prefix)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: field angle must be a finite number of degrees, got {float(angle)}" in err
    assert not (tmp_path / "scene.obj").exists()


def test_folding_distortion_exits_2(tmp_path, capsys):
    prefix = tmp_path / "scene"
    rc = main(
        ["synth", "circular", "--sectors", "3", "--distort", "0.3", "--out", str(prefix)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: disc(8 rings, 3 sectors, distortion 0.3, seed 0) folds facet 4" in err
    assert not (tmp_path / "scene.obj").exists()


def test_cli_pipeline_runs_clean_under_dev_mode(tmp_path):
    # -X dev -W error turns every warning of the whole run into an error:
    # unclosed files and deprecations, wherever they are raised, which the
    # in-process filterwarnings setting does not see
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def run(*argv):
        done = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "streamtrace.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert (done.returncode, done.stderr) == (0, ""), argv

    io = ["--mesh", "circular.obj", "--field", "circular.field"]
    run("synth", "circular", "--out", "circular")
    run("validate", *io)
    run("trace", *io, "--seeds", "8", "--out", "lines.jsonl", "--svg", "s.svg", "--obj", "l.obj")
    run("check-crossings", "--mesh", "circular.obj", "--lines", "lines.jsonl")
    run("synth", "torus-random", "--out", "torus")
    run(
        "trace", "--mesh", "torus.obj", "--field", "torus.field", "--engine", "rk4",
        "--max-steps", "500", "--out", "rk4.jsonl",
    )
