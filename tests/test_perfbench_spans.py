"""The benchmark's span wrappers must find, and see calls to, every entry point.

``perfbench/spans.py`` skips an entry point the program no longer has, so a
renamed or moved function would make its per-layer metrics read 0 without
any error.  A function the program stops calling through the wrapped name
reads 0 the same way.  This checks both here, where the tier-1 suite runs.
"""

import importlib.util
from pathlib import Path

from streamtrace import cli, field, meshgen, mesh, synth_field, tracer

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_benchmark_entry_point_resolves():
    spans = load_spans()
    missing = [
        name
        for owner, attr, name in spans.ENTRY_POINTS
        if owner is None or not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_a_tiny_campaign_calls_every_benchmark_entry_point(tmp_path):
    # the benchmark's pipeline: load, validate, trace, check, three exports
    grid = meshgen.grid(4, 4)
    obj, fld = str(tmp_path / "scene.obj"), str(tmp_path / "scene.field")
    mesh.save_obj(obj, grid)
    field.save_field(fld, synth_field(grid, "constant", angle_deg=30.0))
    spans = load_spans()
    with spans.SpanRecorder() as rec:
        m = mesh.load_obj(obj)
        fs = field.load_field(fld, m)
        assert field.validate(m, fs) == []
        tr = tracer.Tracer(m, fs)
        polylines = [tr.trace(s) for s in cli._boundary_loop_seeds(tr, 8)]
        assert len(polylines) == 8
        assert tracer.check_crossings(m, polylines) == []
        tracer.save_polylines(str(tmp_path / "lines.json"), polylines)
        cli.write_obj_polylines(str(tmp_path / "lines.obj"), polylines)
        cli.write_svg(str(tmp_path / "lines.svg"), m, polylines)
    calls = {name: row["calls"] for name, row in rec.summary().items()}
    silent = [name for _, _, name in spans.ENTRY_POINTS if not calls.get(name)]
    assert silent == []
    # perfbench/measure.py counts a chord hop as a locate beyond a crossing
    assert (
        calls["flux.accumulate"] == calls["flux.locate"] == calls["flux.phi_inverse"]
    )
    # cross_facet_us and export_us are per crossing: one call each per exit
    crossings = sum(len(pl) - 1 for pl in polylines)
    assert crossings > 0
    assert calls["tracer.cross_facet"] == calls["stream_mesh.export_position"] == crossings
    # cache_hit_ratio counts Tracer.stream_mesh calls: one before every import
    assert calls["tracer.stream_mesh"] >= calls["stream_mesh.import_position"]
