"""Combinatorial streamline tracing on triangle meshes.

Streamlines aligned with a per-triangle sampled direction field are carried
across each facet by a closed-form flux-ratio mapping on a per-facet
combinatorial decomposition, with no numerical integration; traced lines
cannot cross.  A fixed-step RK4 integrator over the same fields is included
as the reference baseline.
"""

from .errors import FieldError, FluxError, MeshError, StreamMeshError, TraceError
from .field import (
    FieldSamples,
    Violation,
    load_field,
    save_field,
    synth_field,
    validate,
    vertex_index,
)
from .flux import accumulate, locate, phi_inverse
from .mesh import SurfaceMesh, TracePoint, load_obj, save_obj
from .rk4 import RK4Config, rk4_trace
from .stream_mesh import Behavior, BorderTable, StreamMesh, decompose
from .tracer import (
    CrossingViolation,
    Polyline,
    Seed,
    Tracer,
    check_crossings,
    load_polylines,
    save_polylines,
    seed_from_vertex,
)

__version__ = "0.1.0"

__all__ = [
    "Behavior",
    "BorderTable",
    "CrossingViolation",
    "FieldError",
    "FieldSamples",
    "FluxError",
    "MeshError",
    "Polyline",
    "RK4Config",
    "Seed",
    "StreamMesh",
    "StreamMeshError",
    "SurfaceMesh",
    "TraceError",
    "TracePoint",
    "Tracer",
    "Violation",
    "accumulate",
    "check_crossings",
    "decompose",
    "load_field",
    "load_obj",
    "load_polylines",
    "locate",
    "phi_inverse",
    "rk4_trace",
    "save_field",
    "save_obj",
    "save_polylines",
    "seed_from_vertex",
    "synth_field",
    "validate",
    "vertex_index",
]
