"""The benchmark's span wrappers must find every entry point they wrap.

``perfbench/spans.py`` skips an entry point the program no longer has, so a
renamed or moved function would make its per-layer metrics read 0 without
any error.  This checks the names here, where the tier-1 suite runs.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_benchmark_entry_point_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        name
        for owner, attr, name in spans.ENTRY_POINTS
        if owner is None or not callable(getattr(owner, attr, None))
    ]
    assert missing == []
