"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from streamtrace import tracer  # noqa: E402
from streamtrace.mesh import TracePoint  # noqa: E402


def bench(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_reported_with_its_unit(workload, trace, kind):
    res = bench(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: m["unit"] for k, m in res["metrics"].items()} == declared(kind)
    for m in res["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_driver_and_generator_name_the_same_workloads():
    assert run.WORKLOADS == workloads.NAMES


def crossing_pair(m, facet):
    """Two one-segment polylines that cross inside ``facet``."""
    out = []
    for (h0, c0), (h1, c1) in (((0, 0.3), (1, 0.5)), ((0, 0.6), (2, 0.5))):
        a = TracePoint(3 * facet + h0, c0)
        b = TracePoint(3 * facet + h1, c1)
        pl = tracer.Polyline(tracer.Seed(a))
        pl.append(a, m.position(a))
        pl.append(b, m.position(b))
        pl.termination = "boundary"
        out.append(pl)
    return out


def test_gate_fires_on_an_injected_crossing(tmp_path, monkeypatch):
    scene = str(tmp_path / "scene")
    workloads.write_scene("grid-sweep", 3, scene, tiny=True)
    out = str(tmp_path / "out")
    os.makedirs(out)
    seeds = measure.load_seeds(os.path.join(scene, "seeds.txt"))

    clean = measure.campaign(scene, out, seeds, planar=True)
    assert measure.gate(clean, len(seeds)) == []

    real_trace = tracer.Tracer.trace

    def trace(self, seed):
        # the first two seeds trace to lines that cross, in every repetition
        if seed in seeds[:2]:
            return crossing_pair(self.mesh, 0)[seeds.index(seed)]
        return real_trace(self, seed)

    monkeypatch.setattr(tracer.Tracer, "trace", trace)
    bad = measure.campaign(scene, out, seeds, planar=True)
    problems = measure.gate(bad, len(seeds))
    assert any("crossing violation" in p for p in problems), problems


def test_a_failing_campaign_is_counted_and_not_timed(tmp_path, monkeypatch):
    scene = str(tmp_path / "scene")
    workloads.write_scene("grid-sweep", 3, scene, tiny=True)

    def trace(self, seed):
        raise tracer.TraceError("injected")

    monkeypatch.setattr(tracer.Tracer, "trace", trace)
    res = measure.measure(scene, str(tmp_path / "out"), 0.0, traced=False)
    assert res["attempted"] >= 1 and res["failed"] == res["attempted"]
    assert res["failed_seeds"] == res["seeds_attempted"]
    assert not res["samples"]


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    (bare / "BENCHMARK.json").write_bytes(open(os.path.join(ROOT, "BENCHMARK.json"), "rb").read())
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bare / "perfbench" / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=bare,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
