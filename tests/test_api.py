"""Guards on the public surface: every exported name exists, and every
function the benchmark's tracer wraps is still there."""

import importlib
import importlib.util
import os
import pkgutil
import time

import pytest

import rgcl
from rgcl import optimizer
from rgcl.encoder import init_encoder_params
from rgcl.loss import RgclConfig
from rgcl.numerics import RandomStream

MODULES = ["rgcl"] + ["rgcl." + m.name for m in pkgutil.iter_modules(rgcl.__path__)]
SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "spans.py")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def load_spans():
    spec = importlib.util.spec_from_file_location("rgcl_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_bench_trace_targets_exist():
    # a renamed or removed target would silently null per-layer metrics
    assert load_spans().Tracer().missing == {}


def test_bench_tracer_times_the_steps_score_blocks():
    # loss.hardness_rows.step_us_p50 reads the h_rows spans directly under a
    # step span, so a step that stopped calling h_rows through the names
    # rgcl.optimizer binds would read 0 with a note instead of a time
    spans = load_spans()
    cfg = RgclConfig()
    stream = RandomStream(0, ("tracer",))
    inputs, texts = stream.split("x").normal(12, 3), stream.split("t").normal(12, 2)
    params = init_encoder_params(3, 4, 3, "tanh", stream.split("enc"))
    params_txt = init_encoder_params(2, 4, 3, "tanh", stream.split("txt"))
    uni = optimizer.init_optimizer_state(12, params.n_params, cfg, 0)
    bi = optimizer.init_optimizer_state(12, params.n_params + params_txt.n_params, cfg, 0, sides=2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        start = time.perf_counter_ns()
        for _ in range(2):
            params = optimizer.step_unimodal(uni, params, inputs, cfg, 4, 0.5)
        optimizer.step_bimodal(bi, params, params_txt, inputs, texts, cfg, 4)
        tracer.op_windows.append((start, time.perf_counter_ns()))
    finally:
        tracer.uninstall()
    assert len(spans._Spans(tracer).durations("loss.hardness_rows", "optimizer.step")) == 3
    value, note = spans.layer_metrics(tracer)["loss.hardness_rows.step_us_p50"]
    assert value > 0 and note is None
