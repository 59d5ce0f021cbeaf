"""Module-boundary tracing for the rgcl benchmark.

Each wrapper is installed on the name the *caller* looks up, because the
rgcl modules import functions by name: the step's encoder calls go through
``rgcl.optimizer.encode``, the evaluation's through ``rgcl.loss.encode``.
A call records one span (id, parent id, name, start, end) in memory; the
spans are written out when the run ends.  Parents are tracked per thread,
so a span's parent is the innermost traced call of the same thread.

A target that no longer exists is recorded as missing, and every metric
that depends only on missing targets reads ``null`` with the reason in the
run's record (and 0 on the result line, which holds only numbers).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import threading
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# span name -> the "module:attribute" names its callers look up
TARGETS = {
    "optimizer.step": [
        "rgcl.optimizer:step_unimodal",
        "rgcl.optimizer:step_bimodal",
        "rgcl.optimizer:step_sogclr_baseline",
    ],
    "optimizer.sample_batch": ["rgcl.optimizer:sample_batch"],
    "optimizer.checkpoint": ["rgcl.optimizer:save_optimizer_state"],
    "encoder.forward": [
        "rgcl.optimizer:encode",
        "rgcl.loss:encode",
        "rgcl.harness:encode",
        "rgcl.oracle:encode",
    ],
    "encoder.backward": [
        "rgcl.optimizer:encode_backward",
        "rgcl.loss:encode_backward",
        "rgcl.oracle:encode_backward",
    ],
    # every forward pass, including the one encode_backward re-runs
    "encoder.forward_pass": ["rgcl.encoder:_forward"],
    "loss.hardness_rows": ["rgcl.optimizer:_anchor_h_rows", "rgcl.optimizer:_bimodal_h_rows"],
    "loss.eval": ["rgcl.loss:unimodal_value_and_grads", "rgcl.loss:bimodal_value_and_grads"],
    "loss.dual_anchor": ["rgcl.oracle:dual_loss_anchor"],
    "numerics.stream_init": ["rgcl.numerics:RandomStream.__init__"],
    "oracle.grid": ["rgcl.oracle:grid_search_simplex"],
    "oracle.primal": ["rgcl.oracle:solve_primal"],
    "oracle.dual": ["rgcl.oracle:solve_dual_tau"],
    "oracle.finite_diff": ["rgcl.oracle:finite_diff_grad"],
    "oracle.full_batch_ref": [
        "rgcl.oracle:full_batch_reference",
        "rgcl.oracle:full_batch_reference_bimodal",
    ],
    "harness.knn": ["rgcl.harness:knn_accuracy"],
    "harness.verify": ["rgcl.harness:run_verify"],
    "harness.artifacts": [
        "rgcl.harness:_write_report",
        "rgcl.harness:_write_metrics_csv",
        "rgcl.harness:export_tau_csv",
        "rgcl.harness:save_params",
    ],
    "datasynth.gen": ["rgcl.datasynth:gen_longtail_clusters", "rgcl.datasynth:gen_bimodal_pairs"],
}

# spans whose tracemalloc peak is recorded (traced runs only)
MEMORY_SPANS = {"loss.eval"}


def _resolve(target: str):
    """(owner, attribute) for "module:attr" or "module:Class.attr"; raises
    LookupError when the name no longer exists."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError("module %s is gone" % module_name) from exc
    *parents, attr = path.split(".")
    for name in parents:
        if not hasattr(owner, name):
            raise LookupError("%s is gone" % target)
        owner = getattr(owner, name)
    present = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
    if not present:
        raise LookupError("%s is gone" % target)
    return owner, attr


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers, so
    that traced and untraced operations can alternate in one process."""

    def __init__(self):
        self.spans = []  # (id, parent id, name, start ns, end ns)
        self.peak_bytes = {}  # span id -> tracemalloc peak during the call
        self.op_windows = []  # (start ns, end ns) of each traced operation
        self.missing = {}  # span name -> missing targets
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._saved = []
        for name, targets in TARGETS.items():
            for target in targets:
                try:
                    _resolve(target)
                except LookupError as exc:
                    self.missing.setdefault(name, []).append(str(exc))

    def install(self):
        for name, targets in TARGETS.items():
            for target in targets:
                try:
                    owner, attr = _resolve(target)
                except LookupError:
                    continue
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, name in MEMORY_SPANS))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, memory):
        spans, peaks, local, ids = self.spans, self.peak_bytes, self._local, self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            if memory:
                tracemalloc.start()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                if memory:
                    peaks[sid] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
                spans.append((sid, parent, name, start, end))

        return traced

    def write(self, path: str) -> None:
        """Gzipped, one JSON object per line: the operation windows, then
        the spans."""
        with gzip.open(path, "wt") as fh:
            for start, end in self.op_windows:
                fh.write(json.dumps({"op": [start, end]}) + "\n")
            for sid, parent, name, start, end in self.spans:
                row = {"id": sid, "parent": parent, "name": name, "start": start, "end": end}
                if sid in self.peak_bytes:
                    row["peak_bytes"] = self.peak_bytes[sid]
                fh.write(json.dumps(row) + "\n")


class _Spans:
    """Queries over the recorded spans of the traced operations."""

    def __init__(self, tracer: Tracer):
        self.by_id = {s[0]: s for s in tracer.spans}
        self.child_ns = defaultdict(int)
        self.by_name = defaultdict(list)
        for sid, parent, name, start, end in tracer.spans:
            if parent:
                self.child_ns[parent] += end - start
            self.by_name[name].append((sid, parent, start, end))
        self.ops = tracer.op_windows
        self.peak_bytes = tracer.peak_bytes

    def durations(self, name, parent=None):
        return [
            end - start
            for sid, p, start, end in self.by_name[name]
            if parent is None or (p and self.by_id[p][2] == parent)
        ]

    def self_times(self, name):
        return [end - start - self.child_ns[sid] for sid, _, start, end in self.by_name[name]]

    def child_times(self, name):
        return [self.child_ns[sid] for sid, _, _, _ in self.by_name[name]]

    def per_op(self, *names):
        """Total span time of the named spans inside each operation window
        (by time, so spans of worker threads are counted too)."""
        totals = []
        for op_start, op_end in self.ops:
            totals.append(sum(
                end - start
                for name in names
                for _, _, start, end in self.by_name[name]
                if op_start <= start and end <= op_end
            ))
        return totals

    def calls_per_op(self, name):
        return len(self.by_name[name]) / len(self.ops)

    def count_under(self, name, ancestor):
        """Number of `name` spans with an `ancestor` span above them."""
        count = 0
        for _, parent, _, _ in self.by_name[name]:
            while parent:
                span = self.by_id[parent]
                if span[2] == ancestor:
                    count += 1
                    break
                parent = span[1]
        return count


def _pct(values, q, scale):
    return float(np.percentile(values, q)) * scale if values else None


_US, _MS, _S = 1e-3, 1e-6, 1e-9


def _eval_share(sp):
    shares = [ev / (end - start) for ev, (start, end) in zip(sp.per_op("loss.eval"), sp.ops)]
    return float(np.median(shares))


def _inits_per_step(sp):
    steps = len(sp.by_name["optimizer.step"])
    return sp.count_under("numerics.stream_init", "optimizer.step") / steps if steps else None


def _peak_mb(sp):
    peaks = [sp.peak_bytes[sid] for sid, _, _, _ in sp.by_name["loss.eval"]]
    return float(np.median(peaks)) / 2**20 if peaks else None


# per-layer metric -> (spans it reads, function of the span queries).  A
# function returns None when the workload made no such call.
LAYER_METRICS = {
    "optimizer.step.calls": (["optimizer.step"], lambda sp: sp.calls_per_op("optimizer.step")),
    "optimizer.step.us_p50": (["optimizer.step"], lambda sp: _pct(sp.durations("optimizer.step"), 50, _US)),
    "optimizer.step.us_p90": (["optimizer.step"], lambda sp: _pct(sp.durations("optimizer.step"), 90, _US)),
    "optimizer.step.self_us_p50": (["optimizer.step"], lambda sp: _pct(sp.self_times("optimizer.step"), 50, _US)),
    "optimizer.step.children_us_p50": (["optimizer.step"], lambda sp: _pct(sp.child_times("optimizer.step"), 50, _US)),
    "optimizer.sample_batch.us_p50": (["optimizer.sample_batch"], lambda sp: _pct(sp.durations("optimizer.sample_batch"), 50, _US)),
    "optimizer.checkpoint.ms": (["optimizer.checkpoint"], lambda sp: _pct(sp.per_op("optimizer.checkpoint"), 50, _MS)),
    "encoder.forward.calls": (["encoder.forward_pass"], lambda sp: sp.calls_per_op("encoder.forward_pass")),
    "encoder.forward.step_us_p50": (["encoder.forward", "optimizer.step"], lambda sp: _pct(sp.durations("encoder.forward", "optimizer.step"), 50, _US)),
    "encoder.backward.step_us_p50": (["encoder.backward", "optimizer.step"], lambda sp: _pct(sp.durations("encoder.backward", "optimizer.step"), 50, _US)),
    "encoder.forward.eval_ms_p50": (["encoder.forward", "loss.eval"], lambda sp: _pct(sp.durations("encoder.forward", "loss.eval"), 50, _MS)),
    "encoder.backward.eval_ms_p50": (["encoder.backward", "loss.eval"], lambda sp: _pct(sp.durations("encoder.backward", "loss.eval"), 50, _MS)),
    "loss.hardness_rows.step_us_p50": (["loss.hardness_rows", "optimizer.step"], lambda sp: _pct(sp.durations("loss.hardness_rows", "optimizer.step"), 50, _US)),
    "loss.eval.calls": (["loss.eval"], lambda sp: sp.calls_per_op("loss.eval")),
    "loss.eval.ms_p50": (["loss.eval"], lambda sp: _pct(sp.durations("loss.eval"), 50, _MS)),
    "loss.eval.self_ms_p50": (["loss.eval"], lambda sp: _pct(sp.self_times("loss.eval"), 50, _MS)),
    "loss.eval.peak_mb": (["loss.eval"], _peak_mb),
    "loss.dual_anchor.calls": (["loss.dual_anchor"], lambda sp: sp.calls_per_op("loss.dual_anchor")),
    "numerics.stream.inits_per_step": (["numerics.stream_init", "optimizer.step"], _inits_per_step),
    "numerics.stream.init_us_p50": (["numerics.stream_init"], lambda sp: _pct(sp.durations("numerics.stream_init"), 50, _US)),
    "oracle.grid.calls": (["oracle.grid"], lambda sp: sp.calls_per_op("oracle.grid")),
    "oracle.grid.ms_p50": (["oracle.grid"], lambda sp: _pct(sp.durations("oracle.grid"), 50, _MS)),
    "oracle.primal.us_p50": (["oracle.primal"], lambda sp: _pct(sp.durations("oracle.primal"), 50, _US)),
    "oracle.dual.us_p50": (["oracle.dual"], lambda sp: _pct(sp.durations("oracle.dual"), 50, _US)),
    "oracle.finite_diff.ms_p50": (["oracle.finite_diff"], lambda sp: _pct(sp.durations("oracle.finite_diff"), 50, _MS)),
    "oracle.full_batch_ref.ms_p50": (["oracle.full_batch_ref"], lambda sp: _pct(sp.durations("oracle.full_batch_ref"), 50, _MS)),
    "harness.knn.ms": (["harness.knn"], lambda sp: _pct(sp.per_op("harness.knn"), 50, _MS)),
    "harness.verify.s": (["harness.verify"], lambda sp: _pct(sp.per_op("harness.verify"), 50, _S)),
    "harness.artifacts.ms": (["harness.artifacts", "optimizer.checkpoint"], lambda sp: _pct(sp.per_op("harness.artifacts", "optimizer.checkpoint"), 50, _MS)),
    "harness.eval_share": (["loss.eval"], _eval_share),
    "datasynth.gen.ms": (["datasynth.gen"], lambda sp: _pct(sp.per_op("datasynth.gen"), 50, _MS)),
}


def layer_metrics(tracer: Tracer) -> dict:
    """name -> (value, reason).  The value is None only when every target
    of a span the metric reads is gone; it is 0 with a reason when the
    targets exist but the workload never called them."""
    sp = _Spans(tracer)
    out = {}
    for name, (span_names, fn) in LAYER_METRICS.items():
        gone = [n for n in span_names if len(tracer.missing.get(n, [])) == len(TARGETS[n])]
        if gone:
            out[name] = (None, "; ".join(r for n in gone for r in tracer.missing[n]))
            continue
        value = fn(sp)
        notes = [r for n in span_names for r in tracer.missing.get(n, [])]
        if value is None:
            value = 0.0
            notes.insert(0, "no call of %s on this workload" % " under ".join(span_names))
        out[name] = (value, "; ".join(notes) or None)
    return out
