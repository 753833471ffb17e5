"""The benchmark's tracer reads the cache statistics of tautrel's
memoised functions and wraps some of its methods by name; every name
it lists must still resolve, or a traced benchmark run fails."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_resolve():
    tracer = _tracer()
    assert tracer.CACHES
    for name, (layer, attr) in tracer.CACHES.items():
        fn = getattr(importlib.import_module("tautrel." + layer), attr)
        assert callable(getattr(fn, "cache_info", None)), name
    for layer, cls, method in tracer.METHODS:
        assert callable(getattr(getattr(importlib.import_module("tautrel." + layer), cls), method))
