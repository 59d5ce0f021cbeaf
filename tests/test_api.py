"""Guards on the public surface: every exported name exists, every
function the benchmark's tracer wraps is still there, the paper's
per-anchor definitions live in rgcl.oracle alone, and the demo that uses
them runs."""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
import time

import pytest

import rgcl
from rgcl import optimizer
from rgcl.encoder import init_encoder_params
from rgcl.loss import RgclConfig
from rgcl.numerics import RandomStream

MODULES = ["rgcl"] + ["rgcl." + m.name for m in pkgutil.iter_modules(rgcl.__path__)]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPANS = os.path.join(ROOT, "bench", "spans.py")
# the per-anchor definitions rgcl.oracle owns, public and private
DEFINITIONS = {"hardness_scores", "g_value", "dual_loss_anchor", "p_star", "kl_uniform", "primal_rgcl_value",
               "_log_sum_exp", "_softmax_shifted"}


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


def module_ast(name):
    return ast.parse(inspect.getsource(importlib.import_module(name)))


def test_oracle_owns_the_per_anchor_definitions():
    # the oracle judges rgcl.loss, so it takes from it only the config, the
    # bound, the view layout and the length check, never a formula
    taken = set()
    for node in ast.walk(module_ast("rgcl.oracle")):
        if isinstance(node, ast.Import):
            assert not [a.name for a in node.names if a.name.startswith("rgcl")]
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            assert node.module is not None, "oracle imports a whole rgcl module"
            if node.module == "loss":
                taken |= {a.name for a in node.names}
    assert taken == {"HARDNESS_BOUND", "RgclConfig", "ViewPairs", "require_same_length"}
    for name in ("rgcl.loss", "rgcl.numerics"):
        defined = {node.name for node in module_ast(name).body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert defined & (DEFINITIONS | {"log_sum_exp", "softmax_shifted", "DistributionalWeights"}) == set()
    oracle = importlib.import_module("rgcl.oracle")
    exported = DEFINITIONS & set(rgcl.__all__)
    assert exported == {"hardness_scores", "dual_loss_anchor", "p_star", "kl_uniform", "primal_rgcl_value"}
    assert all(getattr(rgcl, name) is getattr(oracle, name) for name in exported)


def test_hardness_weighting_demo_runs():
    src = os.path.dirname(os.path.dirname(rgcl.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", "hardness_weighting.py")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
