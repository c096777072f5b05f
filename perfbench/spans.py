"""In-memory span recording around the program's public entry points.

``SpanRecorder.install()`` replaces each entry point named in ``ENTRY_POINTS``
with a wrapper that records a span (name, start, end, parent) and restores
the originals on ``uninstall()``.  An entry point the program no longer has
is skipped, so its counts read zero.  Nothing is recorded unless installed.
"""

from __future__ import annotations

import time
from collections import defaultdict

from streamtrace import cli, field, flux, mesh, stream_mesh, tracer

# (owner, attribute, span name); owners are modules or classes
ENTRY_POINTS = (
    (mesh, "load_obj", "mesh.load_obj"),
    (field, "load_field", "field.load_field"),
    (field, "validate", "field.validate"),
    (tracer.Tracer, "trace", "tracer.trace"),
    (tracer.Tracer, "stream_mesh", "tracer.stream_mesh"),
    (tracer.Tracer, "cross_facet", "tracer.cross_facet"),
    (stream_mesh, "decompose", "stream_mesh.decompose"),
    (getattr(stream_mesh, "StreamMesh", None), "import_position",
     "stream_mesh.import_position"),
    (getattr(stream_mesh, "StreamMesh", None), "export_position",
     "stream_mesh.export_position"),
    (flux, "accumulate", "flux.accumulate"),
    (flux, "locate", "flux.locate"),
    (flux, "phi_inverse", "flux.phi_inverse"),
    (tracer, "check_crossings", "tracer.check_crossings"),
    (tracer, "save_polylines", "cli.save_polylines"),
    (cli, "write_obj_polylines", "cli.write_obj_polylines"),
    (cli, "write_svg", "cli.write_svg"),
)


class SpanRecorder:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = [-1]
        self._saved = []

    def _wrap(self, name, fn):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for owner, attr, name in ENTRY_POINTS:
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))
        return self

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self):
        """Per span name: calls, total seconds, self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans nest on one thread, so children never overlap.
        """
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for name, d, c in zip(self.names, dur, child):
            row = out[name]
            row[0] += 1
            row[1] += d
            row[2] += d - c
        return {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in out.items()}

    def write(self, path):
        """Write the spans as tab-separated rows, times relative to the first."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\n")
            for i, (n, s, e, p) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents)
            ):
                fh.write(f"{i}\t{n}\t{s - t0:.9f}\t{e - t0:.9f}\t{p}\n")
