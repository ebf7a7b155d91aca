"""The benchmark tracer still finds every engine name it wraps.

``bench/tracing.py`` swaps its wrappers in by attribute name on the
``grid``, ``market`` and ``fileio`` modules and classes. A rename in the
engine would otherwise fail only a traced benchmark run; here it fails
the tests. The tracer is read, not installed.
"""

import importlib.util

from conftest import DATA

TRACING = DATA.parent / "bench" / "tracing.py"


def test_every_traced_name_is_where_the_tracer_looks():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.Tracer().targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in targets
        if attr not in vars(owner)
    ]
    assert missing == []
