"""Experiment orchestration: configuration, training loops, metrics, the
verification runner, and file outputs (report.json, tau.csv, metrics.csv,
dataset.csv).

Everything is deterministic per (config, seed); reports are written with
sorted keys so identical runs produce byte-identical files (the wall-clock
field is the one exception and comparisons should strip it).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
import os
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import datasynth, loss, optimizer, oracle
from .encoder import encode, encode_backward, init_encoder_params, save_params
from .loss import RgclConfig, ViewPairs
from .numerics import RandomStream, spearman_rank_corr

__all__ = [
    "ExperimentConfig",
    "load_config",
    "apply_overrides",
    "knn_accuracy",
    "export_tau_csv",
    "run_train_unimodal",
    "run_train_bimodal",
    "run_verify",
    "run_gen_data",
    "run_dump_tau",
]


@dataclass
class ExperimentConfig:
    """Flat experiment configuration.  Loaded from a single JSON object;
    unknown keys are rejected so typos fail loudly."""

    mode: str = "isogclr"  # isogclr | sogclr-baseline | bimodal
    seed: int = 0
    out: str = "runs/default"

    # dataset
    k: int = 10
    n: int = 2000
    ratio: float = 100.0
    d_in: int = 16
    noise: float = 0.25
    aug_strength: float = 0.35
    # bimodal dataset
    d_latent: int = 16
    d_img: int = 16
    d_txt: int = 16
    mirrored: bool = False

    # encoder; the narrow hidden layer keeps the desk-scale task from
    # being fit perfectly, which keeps the temperature dynamics alive
    d_hidden: int = 3
    d_embed: int = 16
    activation: str = "tanh"

    # optimizer / loss
    rho: float = 0.8
    tau0: float = 0.05
    tau_init: float = 0.7
    beta0: float = 0.9
    beta1: float = 0.9
    eta_w: float = 0.05
    eta_tau: float = 0.01
    tau_grad_scale: float | None = None
    log_epsilon: float = 0.0
    param_update: str = "momentum"  # momentum | adam

    # loop
    batch_size: int = 128
    epochs: int = 500
    eval_every: int = 10

    # evaluation
    knn_k: int = 5
    held_out_fraction: float = 0.25

    def __post_init__(self):
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            # bool is an Integral, but only a bool field takes one
            if not isinstance(value, _ACCEPTS[kind]) or (isinstance(value, bool) and kind != "bool"):
                raise ValueError("%s must be of type %s, not %r" % (name, kind, value))
            if isinstance(value, np.generic):
                setattr(self, name, value.item())  # so the report serialises it
        loss.require_finite(self)
        if self.mode not in ("isogclr", "sogclr-baseline", "bimodal"):
            raise ValueError("unknown mode %r" % self.mode)
        if self.param_update not in ("momentum", "adam"):
            raise ValueError("unknown param_update %r" % self.param_update)
        if self.epochs < 0 or self.eval_every < 1:
            raise ValueError("epochs must be >= 0 and eval_every >= 1")
        if not (0 < self.held_out_fraction < 1):
            raise ValueError("held_out_fraction must be in (0, 1)")
        self.rgcl_config()  # validate loss hyperparameters early

    def rgcl_config(self) -> RgclConfig:
        return RgclConfig(**{f.name: getattr(self, f.name) for f in fields(RgclConfig)})


_FIELD_TYPES = {f.name: f.type for f in ExperimentConfig.__dataclass_fields__.values()}
# the values each declared field type takes; an int in a float field stays an int
_ACCEPTS = {"int": numbers.Integral, "float": numbers.Real, "float | None": (numbers.Real, type(None)),
            "str": str, "bool": (bool, np.bool_)}
_PARSERS = {"int": int, "float": float, "float | None": float, "str": str}
_BOOLEANS = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _coerce(key: str, value: str):
    """Parse a string override as the field's declared type."""
    kind = _FIELD_TYPES[key]
    if kind == "float | None" and value.lower() in ("none", "null"):
        return None
    if kind == "bool":
        if value.lower() in _BOOLEANS:
            return _BOOLEANS[value.lower()]
        raise ValueError("%s must be one of %s, not %r" % (key, "/".join(_BOOLEANS), value))
    try:
        return _PARSERS[kind](value)
    except ValueError:
        raise ValueError("%s must be of type %s, not %r" % (key, kind, value)) from None


def load_config(path: str | None = None, data: dict | None = None) -> ExperimentConfig:
    """Build a config from a JSON file and/or an override dict."""
    merged = {}
    if path is not None:
        with open(path) as fh:
            merged.update(json.load(fh))
    if data is not None:
        merged.update(data)
    known = set(_FIELD_TYPES)
    unknown = set(merged) - known
    if unknown:
        raise ValueError("unknown config keys: %s" % ", ".join(sorted(unknown)))
    return ExperimentConfig(**merged)


def apply_overrides(cfg: ExperimentConfig, overrides: list[str]) -> ExperimentConfig:
    """Apply repeatable key=value overrides on top of a config."""
    d = asdict(cfg)
    for item in overrides:
        if "=" not in item:
            raise ValueError("override must look like key=value: %r" % item)
        key, value = item.split("=", 1)
        if key not in _FIELD_TYPES:
            raise ValueError("unknown config keys: %s" % key)
        d[key] = _coerce(key, value)
    return ExperimentConfig(**d)


def _config_code_hash(cfg: ExperimentConfig) -> str:
    """Hash of the config plus the package source, for provenance."""
    h = hashlib.sha256()
    h.update(json.dumps(asdict(cfg), sort_keys=True).encode())
    pkg_dir = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(pkg_dir)):
        if name.endswith(".py"):
            with open(os.path.join(pkg_dir, name), "rb") as fh:
                h.update(name.encode())
                h.update(fh.read())
    return h.hexdigest()


def knn_accuracy(embeddings, labels, k: int, held_out_fraction: float, stream: RandomStream) -> float:
    """Cosine k-nearest-neighbor accuracy on a held-out split.

    Majority vote among the k most similar training embeddings; vote ties
    broken by the lowest class id.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError("k must be odd and >= 1")
    emb = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    n = emb.shape[0]
    n_test = max(1, int(round(held_out_fraction * n)))
    test_idx = np.sort(stream.choice_without_replacement(n, n_test))
    mask = np.zeros(n, dtype=bool)
    mask[test_idx] = True
    train_idx = np.nonzero(~mask)[0]
    if len(train_idx) < k:
        raise ValueError("fewer than k training points")

    sims = emb[test_idx] @ emb[train_idx].T
    np.negative(sims, out=sims)  # ascending order is nearest first
    # sorting blocks of rows keeps the index array small next to sims
    nn = np.empty((len(sims), k), dtype=np.intp)
    for r in range(0, len(sims), 64):
        nn[r : r + 64] = np.argsort(sims[r : r + 64], axis=1, kind="stable")[:, :k]
    # classes ascend, so the first of the tied maxima is the lowest class id
    classes, votes = np.unique(labels[train_idx[nn]], return_inverse=True)
    counts = (votes.reshape(nn.shape)[:, :, None] == np.arange(len(classes))).sum(axis=1)
    return float(np.mean(classes[counts.argmax(axis=1)] == labels[test_idx]))


def export_tau_csv(opt, labels, path: str) -> None:
    """CSV with header index,label,tau,s (plus tau_t,s_t for the text side
    of a bimodal state); one row per sample, sorted by index; values printed
    with repr so parsing round-trips exactly.  labels must hold one label
    per anchor."""
    labels = np.asarray(labels)
    if len(labels) != opt.n:
        raise ValueError("%d labels for %d anchors" % (len(labels), opt.n))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "label"] + ["tau", "s", "tau_t", "s_t"][: 2 * opt.sides])
        for i in range(opt.n):
            row = [i, int(labels[i])]
            for side in range(opt.sides):
                row += [repr(float(opt.tau[side, i])), repr(float(opt.s[side, i]))]
            writer.writerow(row)


def _per_cluster_mean(values: np.ndarray, labels: np.ndarray, k: int) -> list[float]:
    return [float(values[labels == j].mean()) for j in range(k)]


def _safe_spearman(a, b):
    """Spearman, or None when one input is constant (no ranking exists)."""
    try:
        return spearman_rank_corr(a, b)
    except ValueError:
        return None


def _write_report(report: dict, out_dir: str) -> None:
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_metrics_csv(out_dir: str, series: dict[str, list]) -> None:
    epochs = len(series["objective_estimate"])
    with open(os.path.join(out_dir, "metrics.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        names = sorted(series)
        writer.writerow(["epoch"] + names)
        for e in range(epochs):
            row = [e + 1]
            for name in names:
                v = series[name][e]
                row.append("" if v is None else repr(float(v)))
            writer.writerow(row)


def _objective_estimate(opt, cfg: RgclConfig):
    """Cheap objective proxy from the moving averages: mean over touched
    anchors of tau log s + (tau - tau0) rho, summed over the sides."""
    init = opt.initialized
    if not np.any(init):
        return None
    terms = 0.0
    for tau, s in zip(opt.tau[:, init], opt.s[:, init]):
        # left to right, so two sides add as ((A + B) + C) + D
        terms = terms + tau * np.log(s) + (tau - cfg.tau0) * cfg.rho
    return float(terms.mean())


def _tau_summary(tau: np.ndarray) -> dict:
    return {"min": float(tau.min()), "max": float(tau.max()), "mean": float(tau.mean())}


def _grad_mapping_sq(params, eval_views, taus, rcfg: RgclConfig):
    """Squared gradient-mapping norm of the exact full-batch gradient:
    parameters are unconstrained, temperatures project onto the box."""
    value, grad_w, grad_tau = loss.unimodal_value_and_grads(params, eval_views, taus, rcfg)
    # parameters are unconstrained, so their mapping is the gradient itself
    eta_t = rcfg.eta_tau if rcfg.eta_tau > 0 else 1.0
    tau_next = np.clip(taus - eta_t * grad_tau, rcfg.tau0, rcfg.tau_max)
    gm = float(np.sum(grad_w * grad_w)) + float(np.sum(((taus - tau_next) / eta_t) ** 2))
    return value, gm


def _dataset(cfg: ExperimentConfig):
    """The configured synthetic data: paired views for a bimodal run,
    long-tail clusters otherwise."""
    if cfg.mode == "bimodal":
        return datasynth.gen_bimodal_pairs(
            cfg.k, cfg.n, cfg.ratio, cfg.d_latent, cfg.d_img, cfg.d_txt, cfg.noise, cfg.seed,
            mirrored=cfg.mirrored,
        )
    return datasynth.gen_longtail_clusters(cfg.k, cfg.n, cfg.ratio, cfg.d_in, cfg.noise, cfg.seed)


# by side count: the report-key suffix of each side, the checkpoint of each tower
_SIDE_SUFFIXES = (("",), ("_v", "_t"))
_ENCODER_FILES = (("encoder.ckpt",), ("encoder_img.ckpt", "encoder_txt.ckpt"))


def _setup(cfg: ExperimentConfig, towers):
    """The output directory, the loss config, one encoder per (d_in, init
    stream path) tower and an optimizer state with one side per tower."""
    os.makedirs(cfg.out, exist_ok=True)
    rcfg = cfg.rgcl_config()
    params = [
        init_encoder_params(d_in, cfg.d_hidden, cfg.d_embed, cfg.activation, RandomStream(cfg.seed, path))
        for d_in, path in towers
    ]
    opt = optimizer.init_optimizer_state(
        cfg.n, sum(p.n_params for p in params), rcfg, cfg.seed, cfg.param_update, sides=len(params)
    )
    return rcfg, params, opt


def _finish(cfg: ExperimentConfig, t_start: float, opt, data, params, knn_inputs, series, **fields) -> dict:
    """kNN accuracy on tower 0, the report with per-side temperature
    statistics, then every run artifact.  fields are extra report entries."""
    emb = encode(params[0], knn_inputs).embeddings
    acc = knn_accuracy(emb, data.labels, cfg.knn_k, cfg.held_out_fraction, RandomStream(cfg.seed, ("eval", "knn")))
    report = dict(
        fields,
        **series,
        mode=cfg.mode,
        config=asdict(cfg),
        config_code_hash=_config_code_hash(cfg),
        epochs=cfg.epochs,
        steps=opt.t,
        knn_accuracy=acc,
        cluster_sizes=data.cluster_sizes.tolist(),
        min_g_seen=None if math.isinf(opt.min_g_seen) else opt.min_g_seen,
        min_s_seen=None if math.isinf(opt.min_s_seen) else opt.min_s_seen,
        g_floor=cfg.rgcl_config().g_floor,
    )
    sizes = data.cluster_sizes.astype(float)
    for suffix, tau in zip(_SIDE_SUFFIXES[opt.sides - 1], opt.tau):
        cluster_tau = _per_cluster_mean(tau, data.labels, cfg.k)
        report["per_cluster_mean_tau" + suffix] = cluster_tau
        # constant temperatures have no ranking
        constant = tau.min() == tau.max()
        report["spearman_size_tau" + suffix] = None if constant else _safe_spearman(sizes, np.asarray(cluster_tau))
        report["tau%s_summary" % suffix] = _tau_summary(tau)
    report["wall_clock_sec"] = time.monotonic() - t_start
    _write_report(report, cfg.out)
    _write_metrics_csv(cfg.out, series)
    export_tau_csv(opt, data.labels, os.path.join(cfg.out, "tau.csv"))
    for p, name in zip(params, _ENCODER_FILES[opt.sides - 1]):
        save_params(p, os.path.join(cfg.out, name))
    optimizer.save_optimizer_state(opt, os.path.join(cfg.out, "optimizer.ckpt"))
    return report


def run_train_unimodal(cfg: ExperimentConfig) -> dict:
    """Train on the synthetic long-tail task and write the run artifacts
    (report.json, tau.csv, metrics.csv, checkpoints) into cfg.out."""
    if cfg.mode == "bimodal":
        raise ValueError("mode bimodal trains with run_train_bimodal (rgcl train-bimodal)")
    t_start = time.monotonic()
    data = _dataset(cfg)
    rcfg, (params,), opt = _setup(cfg, [(cfg.d_in, ("init",))])

    ev = RandomStream(cfg.seed, ("eval", "views"))
    eval_views = ViewPairs(
        datasynth.augment(data.inputs, cfg.aug_strength, ev.split("a")),
        datasynth.augment(data.inputs, cfg.aug_strength, ev.split("b")),
    )
    step_fn = optimizer.step_sogclr_baseline if cfg.mode == "sogclr-baseline" else optimizer.step_unimodal

    tau = opt.tau[0]
    initial_objective, initial_gm = _grad_mapping_sq(params, eval_views, tau, rcfg)
    series = {"objective_estimate": [], "exact_objective": [], "grad_mapping_sq": []}
    for epoch in range(1, cfg.epochs + 1):
        for _ in range(max(1, cfg.n // cfg.batch_size)):
            params = step_fn(opt, params, data.inputs, rcfg, cfg.batch_size, cfg.aug_strength)
        series["objective_estimate"].append(_objective_estimate(opt, rcfg))
        if epoch % cfg.eval_every == 0 or epoch == cfg.epochs:
            value, gm = _grad_mapping_sq(params, eval_views, tau, rcfg)
        else:
            value = gm = None
        series["exact_objective"].append(value)
        series["grad_mapping_sq"].append(gm)
    return _finish(cfg, t_start, opt, data, [params], data.inputs, series,
                   initial_objective=initial_objective, initial_grad_mapping_sq=initial_gm)


def run_train_bimodal(cfg: ExperimentConfig) -> dict:
    """Two-tower training on synthetic paired views of a long-tail latent."""
    if cfg.mode != "bimodal":
        raise ValueError("run_train_bimodal needs mode bimodal, not %r" % cfg.mode)
    t_start = time.monotonic()
    data = _dataset(cfg)
    # a mirrored run starts both towers identical, so the two directions
    # stay exactly symmetric
    txt_path = ("init", "img") if cfg.mirrored else ("init", "txt")
    rcfg, (params_img, params_txt), opt = _setup(cfg, [(cfg.d_img, ("init", "img")), (cfg.d_txt, txt_path)])

    series = {"objective_estimate": []}
    for _ in range(cfg.epochs):
        for _ in range(max(1, cfg.n // cfg.batch_size)):
            params_img, params_txt = optimizer.step_bimodal(
                opt, params_img, params_txt, data.image_views, data.text_views, rcfg, cfg.batch_size
            )
        series["objective_estimate"].append(_objective_estimate(opt, rcfg))
    return _finish(cfg, t_start, opt, data, [params_img, params_txt], data.image_views, series)


def run_gen_data(cfg: ExperimentConfig) -> str:
    """Generate the configured long-tail dataset and export it as dataset.csv."""
    if cfg.mode == "bimodal":
        raise ValueError("gen-data writes long-tail clusters; dataset.csv has no format for bimodal views")
    os.makedirs(cfg.out, exist_ok=True)
    data = _dataset(cfg)
    path = os.path.join(cfg.out, "dataset.csv")
    datasynth.export_dataset_csv(data, path)
    return path


def run_dump_tau(cfg: ExperimentConfig) -> str:
    """Rewrite tau.csv from the optimizer checkpoint in cfg.out.  The labels
    come from the dataset of the config recorded in the run's report.json,
    not from cfg, so overrides given now cannot mislabel the rows."""
    opt = optimizer.load_optimizer_state(os.path.join(cfg.out, "optimizer.ckpt"))
    report_path = os.path.join(cfg.out, "report.json")
    if not os.path.exists(report_path):
        raise ValueError("%s is missing; the labels of tau.csv come from the run's config" % report_path)
    with open(report_path) as fh:
        run = load_config(data=json.load(fh)["config"])
    sides = 2 if run.mode == "bimodal" else 1
    if opt.sides != sides:
        raise ValueError("the checkpoint holds %d sides, a %s run has %d" % (opt.sides, run.mode, sides))
    path = os.path.join(cfg.out, "tau.csv")
    export_tau_csv(opt, _dataset(run).labels, path)
    return path


# ---------------------------------------------------------------------------
# verification runner


def _check(name, passed, detail):
    return {"name": name, "passed": bool(passed), "detail": detail}


def _random_instance(stream, m):
    # hardness scores stay in [-2, 2] by construction
    return np.clip(stream.normal(m), -2.0, 2.0)


def _vcheck_primal_feasibility(seed):
    stream = RandomStream(seed, ("verify", "primal"))
    worst = 0.0
    for i in range(20):
        m = 2 + int(stream.integers(0, 5))
        h = _random_instance(stream.split("h%d" % i), m)
        rho = 0.1 + 0.9 * float(stream.uniform())
        sol = oracle.solve_primal(h, rho, 0.05)
        kl = loss.kl_uniform(sol.p)
        worst = max(worst, kl - rho, abs(sol.lam) * max(0.0, kl - rho))
        if sol.lam > loss.HARDNESS_BOUND / rho:
            return _check("primal_feasibility", False, {"lambda_over_bound": sol.lam})
    return _check("primal_feasibility", worst <= 1e-8, {"worst_violation": worst})


def _vcheck_primal_dual(seed):
    stream = RandomStream(seed, ("verify", "dual"))
    worst = 0.0
    for m in range(2, 7):
        for rho in (0.1, 0.5, 1.0):
            for i in range(5):
                h = _random_instance(stream.split("h%d-%d-%s" % (m, i, rho)), m)
                cfg = RgclConfig(rho=rho, tau0=0.05, tau_init=0.05)
                _, dual_value = oracle.solve_dual_tau(h, cfg)
                sol = oracle.solve_primal(h, rho, cfg.tau0)
                worst = max(worst, abs(dual_value - sol.value))
    return _check("primal_dual_equivalence", worst <= 1e-6, {"worst_gap": worst})


def _vcheck_grid(seed):
    stream = RandomStream(seed, ("verify", "grid"))
    worst = 0.0
    for i in range(10):
        h = _random_instance(stream.split("h%d" % i), 2)
        rho = 0.1 + 0.5 * float(stream.uniform())
        _, gv = oracle.grid_search_simplex(h, rho, 0.05)
        sol = oracle.solve_primal(h, rho, 0.05)
        worst = max(worst, abs(gv - sol.value))
    return _check("grid_cross_check", worst <= 1e-3, {"worst_gap": worst})


def _vcheck_weight_concentration():
    sol = oracle.solve_primal(np.array([0.0, -1.0]), 0.2, 0.0)
    p1 = float(sol.p[0])
    return _check("weight_concentration_reference", abs(p1 - 0.80) <= 0.02, {"p1": p1})


def _vcheck_hardness_monotone():
    p1s = [float(oracle.solve_primal(np.array([0.0, -1.0]), r, 0.0).p[0]) for r in (0.05, 0.1, 0.2, 0.4)]
    ok = all(b >= a - 1e-12 for a, b in zip(p1s, p1s[1:]))
    return _check("hardness_awareness_monotone", ok, {"p1_by_rho": p1s})


def _vcheck_tau_bound(seed):
    stream = RandomStream(seed, ("verify", "taubound"))
    worst = -np.inf
    for i in range(20):
        m = 2 + int(stream.integers(0, 5))
        h = _random_instance(stream.split("h%d" % i), m)
        rho = 0.1 + 0.9 * float(stream.uniform())
        cfg = RgclConfig(rho=rho, tau0=0.05, tau_init=0.05)
        tau_star, _ = oracle.solve_dual_tau(h, cfg)
        worst = max(worst, tau_star - cfg.tau_max)
    return _check("tau_upper_bound", worst <= 1e-8, {"worst_excess": worst})


def _small_instance(seed, n=5, d=4):
    stream = RandomStream(seed, ("verify", "instance"))
    params = init_encoder_params(d, 5, 3, "tanh", stream.split("enc"))
    views = ViewPairs(stream.split("va").normal(n, d), stream.split("vb").normal(n, d))
    cfg = RgclConfig(rho=0.4, tau0=0.05, tau_init=0.6)
    taus = 0.2 + 0.6 * stream.split("tau").uniform(n)
    return params, views, taus, cfg


def _vcheck_finite_diff(seed):
    """grad_w_finite_diff and grad_tau_finite_diff on one small instance and
    its exact full-batch gradients."""
    params, views, taus, cfg = _small_instance(seed)
    _, grad_w, grad_tau = oracle.full_batch_reference(params, views, taus, cfg)
    cases = [
        ("grad_w_finite_diff", grad_w, params.flatten(),
         lambda flat: loss.objective_unimodal(params.from_flat(flat), views, taus, cfg)),
        ("grad_tau_finite_diff", grad_tau, taus, lambda tv: loss.objective_unimodal(params, views, tv, cfg)),
    ]
    checks = []
    for name, exact, point, func in cases:
        fd = oracle.finite_diff_grad(func, point)
        rel = float(np.linalg.norm(exact - fd) / max(np.linalg.norm(fd), 1e-12))
        checks.append(_check(name, rel <= 1e-6, {"rel_err": rel}))
    return checks


def _vcheck_degeneration(seed):
    """The step's parameter direction, built from its own pieces over the
    whole set with every s exact, must be the exact gradient.  (A real step
    would draw augmentation noise and so change the fixed views.)"""
    params, views, taus, cfg0 = _small_instance(seed, n=6, d=4)
    cfg = RgclConfig(rho=cfg0.rho, tau0=cfg0.tau0, tau_init=0.6, beta0=1.0, beta1=1.0,
                     eta_w=0.05, eta_tau=0.05, tau_grad_scale=1.0)
    n = views.n
    tau = np.full(n, cfg.tau_init)
    p = params.copy()
    worst = 0.0
    for _ in range(5):
        _, ref_gw, ref_gt = oracle.full_batch_reference(p, views, tau, cfg)
        ea, eb = encode(p, views.views_a), encode(p, views.views_b)
        hmat, _ = loss._anchor_h_rows(ea.embeddings, eb.embeddings)
        s = np.array([loss.g_value(hmat[i], tau[i], cfg.log_epsilon) for i in range(n)])
        w = loss._softmax_rows(hmat, tau, cfg.log_epsilon, n, lambda g: s)[-1]
        wa, wb = np.zeros((n, n)), np.zeros((n, n))
        loss._offdiag_rows([wa, wb], 0, n, w, scatter=True)
        dya, dyb = loss._unimodal_embedding_grads(wa, wb, ea.embeddings, eb.embeddings)
        gw = encode_backward(p, ea, dya).flatten() + encode_backward(p, eb, dyb).flatten()
        rel = float(np.linalg.norm(gw - ref_gw) / max(np.linalg.norm(ref_gw), 1e-12))
        worst = max(worst, rel)
        p = p.from_flat(p.flatten() - cfg.eta_w * gw)
        tau = np.clip(tau - cfg.eta_tau * ref_gt, cfg.tau0, cfg.tau_max)
    return _check("estimator_degeneration", worst <= 1e-10, {"worst_rel_err": worst})


def _short_training(seed, steps=40, eta_tau=0.01):
    stream = RandomStream(seed, ("verify", "train"))
    data = datasynth.gen_longtail_clusters(4, 60, 10.0, 6, 0.3, seed)
    cfg = RgclConfig(rho=2.0, tau0=0.05, tau_init=0.7, eta_tau=eta_tau, eta_w=0.03)
    params = init_encoder_params(6, 8, 4, "tanh", stream.split("enc"))
    opt = optimizer.init_optimizer_state(60, params.n_params, cfg, seed)
    for _ in range(steps):
        params = optimizer.step_unimodal(opt, params, data.inputs, cfg, 16, 0.6)
    return opt, cfg


def _vcheck_tau_containment(seed):
    # deliberately oversized temperature step: with the projection on, the
    # clamp must hold the temperatures in the box anyway
    opt, cfg = _short_training(seed, steps=6, eta_tau=2.0)
    lo, hi = opt.min_tau_seen, opt.max_tau_seen
    ok = lo >= cfg.tau0 - 1e-15 and hi <= cfg.tau_max + 1e-15
    return _check("tau_containment", ok, {"min_tau": lo, "max_tau": hi, "bounds": [cfg.tau0, cfg.tau_max]})


def _vcheck_g_floor(opt, cfg):
    floor = cfg.g_floor - 1e-12
    ok = opt.min_g_seen >= floor and opt.min_s_seen >= floor
    return _check("g_lower_bound", ok, {"min_g": opt.min_g_seen, "min_s": opt.min_s_seen, "floor": cfg.g_floor})


def _vcheck_fixed_tau_identity(seed):
    stream = RandomStream(seed, ("verify", "gcl"))
    worst = 0.0
    for i in range(20):
        m = 3 + int(stream.integers(0, 6))
        h = _random_instance(stream.split("h%d" % i), m)
        tau = 0.1 + float(stream.uniform())
        cfg = RgclConfig(rho=0.5, tau0=0.05, tau_init=0.1)
        gcl = tau * math.log(float(np.sum(np.exp(h / tau))))
        dual = loss.dual_loss_anchor(h, tau, cfg)
        ident = gcl - tau * math.log(m) + (tau - cfg.tau0) * cfg.rho
        worst = max(worst, abs(dual - ident))
    return _check("fixed_tau_identity", worst <= 1e-12, {"worst_gap": worst})


def _vcheck_unbiasedness(seed):
    stream = RandomStream(seed, ("verify", "unbias"))
    n, d = 20, 5
    params = init_encoder_params(d, 6, 4, "tanh", stream.split("enc"))
    views = ViewPairs(stream.split("va").normal(n, d), stream.split("vb").normal(n, d))
    ya = encode(params, views.views_a).embeddings
    yb = encode(params, views.views_b).embeddings
    hmat, _ = loss._anchor_h_rows(ya, yb)
    tau = 0.5
    anchor = 0
    g_full = loss.g_value(hmat[anchor], tau)
    draws = []
    bstream = stream.split("batches")
    all_negs = np.concatenate([np.delete(ya, anchor, 0), np.delete(yb, anchor, 0)])
    pos = float(ya[anchor] @ yb[anchor])
    for _ in range(2000):
        pick = bstream.choice_without_replacement(all_negs.shape[0], 8)
        hb = all_negs[pick] @ ya[anchor] - pos
        draws.append(loss.g_value(hb, tau))
    draws = np.asarray(draws)
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    dev = abs(draws.mean() - g_full)
    return _check("estimator_unbiasedness", dev <= 3 * se, {"deviation": dev, "three_se": 3 * se})


def _vcheck_determinism(seed, a):
    """a is a finished _short_training(seed) state; a second run must match it."""
    b, _ = _short_training(seed)
    ok = np.array_equal(a.tau, b.tau) and np.array_equal(a.s, b.s) and np.array_equal(a.v, b.v)
    return _check("determinism_rerun", ok, {"tau_equal": np.array_equal(a.tau, b.tau)})


def run_verify(cfg: ExperimentConfig) -> dict:
    """Run the named verification checks in order and write a JSON report;
    the CLI exit code is 0 iff every check passed."""
    os.makedirs(cfg.out, exist_ok=True)
    seed = cfg.seed
    # the g-floor check's run is also the determinism check's first run
    trained = _short_training(seed)
    checks = [
        _vcheck_primal_feasibility(seed),
        _vcheck_primal_dual(seed),
        _vcheck_grid(seed),
        _vcheck_weight_concentration(),
        _vcheck_hardness_monotone(),
        _vcheck_tau_bound(seed),
        *_vcheck_finite_diff(seed),
        _vcheck_degeneration(seed),
        _vcheck_tau_containment(seed),
        _vcheck_g_floor(*trained),
        _vcheck_fixed_tau_identity(seed),
        _vcheck_unbiasedness(seed),
        _vcheck_determinism(seed, trained[0]),
    ]
    report = {
        "checks": checks,
        "n_checks": len(checks),
        "all_passed": all(c["passed"] for c in checks),
        "seed": seed,
    }
    _write_report(report, cfg.out)
    return report
