"""Guards on the public surface: every exported name exists, and every
function the benchmark's tracer wraps is still there."""

import importlib
import importlib.util
import os
import pkgutil

import pytest

import rgcl

MODULES = ["rgcl"] + ["rgcl." + m.name for m in pkgutil.iter_modules(rgcl.__path__)]
SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "spans.py")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_bench_trace_targets_exist():
    # a renamed or removed target would silently null per-layer metrics
    spec = importlib.util.spec_from_file_location("rgcl_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.Tracer().missing == {}
