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
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import datasynth, loss, optimizer, oracle
from .encoder import encode, init_encoder_params, save_params
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
class ExperimentConfig(RgclConfig):
    """Flat experiment configuration: RgclConfig's loss fields, with the
    long-tail run's rho, eta_w and eta_tau, plus the run settings.  Loaded
    from a single JSON object; unknown keys are rejected so typos fail loudly."""

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

    # optimizer / loss: RgclConfig's fields, with the long-tail defaults here
    rho: float = 0.8
    eta_w: float = 0.05
    eta_tau: float = 0.01
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
        super().__post_init__()
        optimizer._checked_seed(self.seed)
        if self.mode not in ("isogclr", "sogclr-baseline", "bimodal"):
            raise ValueError("unknown mode %r" % self.mode)
        if self.param_update not in optimizer._MODES:
            raise ValueError("unknown param_update %r" % self.param_update)
        if self.epochs < 0 or self.eval_every < 1:
            raise ValueError("epochs must be >= 0 and eval_every >= 1")
        if not (0 < self.held_out_fraction < 1):
            raise ValueError("held_out_fraction must be in (0, 1)")
        for name in ("d_in", "d_latent", "d_img", "d_txt", "d_hidden", "d_embed"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be >= 1, not %d" % (name, getattr(self, name)))
        for name in ("noise", "aug_strength"):
            if getattr(self, name) < 0:
                raise ValueError("%s must be nonnegative, not %r" % (name, getattr(self, name)))
        # knn_accuracy would refuse these only after training
        if self.knn_k < 1 or self.knn_k % 2 == 0:
            raise ValueError("knn_k must be odd and >= 1, not %d" % self.knn_k)
        n_train = self.n - _held_out_count(self.n, self.held_out_fraction)
        if n_train < self.knn_k:
            raise ValueError("knn_k %d exceeds the %d training points of the held-out split" % (self.knn_k, n_train))
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2, not %d" % self.batch_size)

    def rgcl_config(self) -> RgclConfig:
        """The loss fields alone, so a step's replace skips the run checks."""
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
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config must be a JSON object: %s" % path)
        merged.update(loaded)
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


def _held_out_count(n: int, held_out_fraction: float) -> int:
    """Rows of n that knn_accuracy holds out; the other rows vote."""
    return max(1, int(round(held_out_fraction * n)))


# Held-out rows scored per block of knn_accuracy: its similarity rows then
# take 16 * n_train floats, never n_test * n_train.
_KNN_ROWS = 16


def _nearest(sims: np.ndarray, k: int) -> np.ndarray:
    """Per row of similarities, the column indices of the k most similar
    training points, ascending: every column above the row's k-th largest
    value, then the lowest columns equal to it.  That is the set the first k
    entries of a stable argsort of the negated row hold."""
    kth = np.partition(sims, -k, axis=1)[:, -k, None]
    keep = sims >= kth
    # a row with more than k such columns is tied at its k-th largest value;
    # it keeps only its lowest tied columns, so the lower training index wins
    over = np.flatnonzero(np.count_nonzero(keep, axis=1) > k)
    rows, at = sims[over], kth[over]
    tied = rows == at
    open_slots = k - np.count_nonzero(rows > at, axis=1, keepdims=True)
    keep[over] &= (np.cumsum(tied, axis=1) <= open_slots) | ~tied
    return np.flatnonzero(keep).reshape(len(sims), k) % sims.shape[1]


def knn_accuracy(embeddings, labels, k: int, held_out_fraction: float, stream: RandomStream) -> float:
    """k-nearest-neighbor accuracy on a held-out split, ranking training
    embeddings by their dot product with a held-out row: cosine similarity
    for unit-norm rows, which every training run passes.

    Majority vote among the k most similar training embeddings, the lower
    training index first among equal similarities; vote ties broken by the
    lowest class id.  Held-out rows are scored in blocks of _KNN_ROWS, so
    memory grows as 16 * n, not as n_test * n_train, and votes are counted
    from each row's k neighbour labels, in n_test * k * k.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError("k must be odd and >= 1")
    emb = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    n = emb.shape[0]
    if labels.shape != (n,):
        raise ValueError("labels of shape %s for %d embedding rows" % (labels.shape, n))
    if not np.isfinite(emb).all():
        raise ValueError("embeddings must be finite")
    test_idx = np.sort(stream.choice_without_replacement(n, _held_out_count(n, held_out_fraction)))
    mask = np.zeros(n, dtype=bool)
    mask[test_idx] = True
    train_idx = np.nonzero(~mask)[0]
    if len(train_idx) < k:
        raise ValueError("fewer than k training points")

    test, train_t = emb[test_idx], emb[train_idx].T.copy()
    nn = np.empty((len(test_idx), k), dtype=np.intp)
    for r in range(0, len(test_idx), _KNN_ROWS):
        nn[r : r + _KNN_ROWS] = _nearest(test[r : r + _KNN_ROWS] @ train_t, k)
    # each neighbour's votes are the count of its label among the row's k;
    # labels ascend, so the first of the tied maxima is the lowest class id
    voted = np.sort(labels[train_idx[nn]], axis=1)
    counts = np.count_nonzero(voted[:, :, None] == voted[:, None, :], axis=2)
    winner = np.take_along_axis(voted, counts.argmax(axis=1)[:, None], axis=1)[:, 0]
    return float(np.mean(winner == labels[test_idx]))


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
    tau_next = optimizer._project_tau(taus - eta_t * grad_tau, rcfg)
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
    stream path) tower and an optimizer state with one side per tower.
    A batch larger than the data is refused before the directory exists;
    the config allows one, since gen-data and verify take no batches."""
    if cfg.batch_size > cfg.n:
        raise ValueError("batch_size %d exceeds the n = %d samples" % (cfg.batch_size, cfg.n))
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
        g_floor=cfg.g_floor,
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
    step_cfg = replace(rcfg, eta_tau=0.0) if cfg.mode == "sogclr-baseline" else rcfg

    tau = opt.tau[0]
    initial_objective, initial_gm = _grad_mapping_sq(params, eval_views, tau, rcfg)
    series = {"objective_estimate": [], "exact_objective": [], "grad_mapping_sq": []}
    for epoch in range(1, cfg.epochs + 1):
        for _ in range(max(1, cfg.n // cfg.batch_size)):
            params = optimizer.step_unimodal(opt, params, data.inputs, step_cfg, cfg.batch_size, cfg.aug_strength)
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


def _oracle_battery(stream, per_pair):
    """The random instances of the oracle checks, as (h, cfg): m = 2..6
    negatives and rho in {0.1, 0.5, 1.0}, per_pair of each pair."""
    for m in range(2, 7):
        for rho in (0.1, 0.5, 1.0):
            cfg = RgclConfig(rho=rho, tau0=0.05, tau_init=0.05)
            for i in range(per_pair):
                yield _random_instance(stream.split("h%d-%d-%s" % (m, i, rho)), m), cfg


def _vcheck_oracle_battery(instances, grid_negatives):
    """primal_feasibility, primal_dual_equivalence, grid_cross_check and
    tau_upper_bound, read from the primal and dual solution of each (h, cfg)
    of instances, folded in their order; the grid runs on those with at most
    grid_negatives negatives.  Each solver solves the m-negative ones at once."""
    instances, solved = list(instances), {}
    for m in dict.fromkeys(len(h) for h, _ in instances):
        idx = [i for i, (h, _) in enumerate(instances) if len(h) == m]
        hv, cfgs = np.array([instances[i][0] for i in idx], dtype=np.float64), [instances[i][1] for i in idx]
        primals = oracle._primal_rows(hv, [c.rho for c in cfgs], [c.tau0 for c in cfgs])
        solved.update(zip(idx, zip(oracle._dual_tau_rows(hv, cfgs), primals)))
    violation, dual_gap, grid_gap, excess, over_bound = 0.0, 0.0, 0.0, -np.inf, None
    for (h, cfg), ((tau_star, dual_value), sol) in zip(instances, [solved[i] for i in range(len(instances))]):
        kl = oracle.kl_uniform(sol.p)
        violation = max(violation, kl - cfg.rho, abs(sol.lam) * max(0.0, kl - cfg.rho))
        if over_bound is None and sol.lam > loss.HARDNESS_BOUND / cfg.rho:
            over_bound = sol.lam
        dual_gap = max(dual_gap, abs(dual_value - sol.value))
        if len(h) <= grid_negatives:
            grid_gap = max(grid_gap, abs(oracle.grid_search_simplex(h, cfg.rho, cfg.tau0)[1] - sol.value))
        excess = max(excess, tau_star - cfg.tau_max)
    feasible = {"worst_violation": violation} if over_bound is None else {"lambda_over_bound": over_bound}
    return [_check("primal_feasibility", over_bound is None and violation <= 1e-8, feasible),
            _check("primal_dual_equivalence", dual_gap <= 1e-6, {"worst_gap": dual_gap}),
            _check("grid_cross_check", grid_gap <= 1e-3, {"worst_gap": grid_gap}),
            _check("tau_upper_bound", excess <= 1e-8, {"worst_excess": excess})]


def _vcheck_fixed_instance():
    """weight_concentration_reference (at rho = 0.2) and
    hardness_awareness_monotone, from the primal solutions of h = (0, -1)."""
    p1s = [float(s.p[0]) for s in oracle._primal_rows(np.tile([0.0, -1.0], (4, 1)), (0.05, 0.1, 0.2, 0.4), [0.0] * 4)]
    ok = all(b >= a - 1e-12 for a, b in zip(p1s, p1s[1:]))
    return [_check("weight_concentration_reference", abs(p1s[2] - 0.80) <= 0.02, {"p1": p1s[2]}),
            _check("hardness_awareness_monotone", ok, {"p1_by_rho": p1s})]


def _small_instance(seed, n=5, d=4):
    stream = RandomStream(seed, ("verify", "instance"))
    params = init_encoder_params(d, 5, 3, "tanh", stream.split("enc"))
    views = ViewPairs(stream.split("va").normal(n, d), stream.split("vb").normal(n, d))
    cfg = RgclConfig(rho=0.4, tau0=0.05, tau_init=0.6)
    taus = 0.2 + 0.6 * stream.split("tau").uniform(n)
    return params, views, taus, cfg


def _finite_diff_cases(seed):
    """verify's two finite-difference cases: _small_instance(seed) and its exact gradients."""
    params, views, taus, cfg = _small_instance(seed)
    _, grad_w, grad_tau = oracle.full_batch_reference(params, views, taus, cfg)
    return [("grad_w_finite_diff", grad_w, params.flatten(),
             lambda flat: loss.objective_unimodal(params.from_flat(flat), views, taus, cfg)),
            ("grad_tau_finite_diff", grad_tau, taus, lambda tv: loss.objective_unimodal(params, views, tv, cfg))]


def _vcheck_finite_diff(cases):
    """One check per (name, exact, point, func) of cases: the gradient exact
    against oracle.finite_diff_grad(func, point), at 1e-6 relative."""
    checks = []
    for name, exact, point, func in cases:
        fd = oracle.finite_diff_grad(func, point)
        rel = float(np.linalg.norm(exact - fd) / max(np.linalg.norm(fd), 1e-12))
        checks.append(_check(name, rel <= 1e-6, {"rel_err": rel}))
    return checks


def _degeneration_instance(seed):
    """verify's _vcheck_degeneration arguments: 5 optimizer._step calls on all
    6 anchors of the fixed views of _small_instance(seed, n=6, d=4), which
    step_unimodal would augment, with beta0 = beta1 = 1, tau_grad_scale = 1, eta_w != eta_tau."""
    params, views, _, cfg = _small_instance(seed, n=6, d=4)
    cfg = replace(cfg, beta0=1.0, beta1=1.0, eta_w=0.05, eta_tau=0.03, tau_grad_scale=1.0)
    opt, idx = optimizer.init_optimizer_state(views.n, params.n_params, cfg, seed), np.arange(views.n)
    return (opt, [params], lambda ps: optimizer._step(opt, ps, [views.views], idx, loss._anchor_h_rows, cfg),
            lambda ps: oracle.full_batch_reference(ps[0], views, opt.tau[0], cfg)[1:], cfg, 5)


def _vcheck_degeneration(opt, towers, step, reference, cfg, steps):
    """estimator_degeneration: each of steps calls of step(towers), which
    returns the new towers, moves each tower, then each temperature side, by
    eta_w or eta_tau times the gradients reference(towers) gave before it,
    to 1e-10 relative.  Nothing is projected, so a clamped step fails."""
    worst = 0.0
    for _ in range(steps):
        want = reference(towers)
        before = [p.flatten() for p in towers] + list(opt.tau.copy())
        towers = step(towers)
        etas = [cfg.eta_w] * len(towers) + [cfg.eta_tau] * opt.sides
        for b, a, eta, w in zip(before, [p.flatten() for p in towers] + list(opt.tau), etas, want):
            worst = max(worst, float(np.linalg.norm((b - a) / eta - w) / max(np.linalg.norm(w), 1e-12)))
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


def _vcheck_tau_box(opt, cfg):
    lo, hi = opt.min_tau_seen, opt.max_tau_seen
    ok = lo >= cfg.tau0 - 1e-15 and hi <= cfg.tau_max + 1e-15
    return _check("tau_containment", ok, {"min_tau": lo, "max_tau": hi, "bounds": [cfg.tau0, cfg.tau_max]})


def _vcheck_g_floor(opt, cfg):
    floor = cfg.g_floor - 1e-12
    ok = opt.min_g_seen >= floor and opt.min_s_seen >= floor
    return _check("g_lower_bound", ok, {"min_g": opt.min_g_seen, "min_s": opt.min_s_seen, "floor": cfg.g_floor})


def _vcheck_fixed_tau_identity(stream, count):
    cfg = RgclConfig(rho=0.5, tau0=0.05, tau_init=0.1)
    worst = 0.0
    for i in range(count):
        m = 3 + int(stream.integers(0, 6))
        h = _random_instance(stream.split("h%d" % i), m)
        tau = 0.1 + float(stream.uniform())
        gcl = tau * math.log(float(np.sum(np.exp(h / tau))))
        dual = oracle.dual_loss_anchor(h, tau, cfg)
        ident = gcl - tau * math.log(m) + (tau - cfg.tau0) * cfg.rho
        worst = max(worst, abs(dual - ident))
    return _check("fixed_tau_identity", worst <= 1e-12, {"worst_gap": worst})


def _vcheck_unbiasedness(seed):
    stream = RandomStream(seed, ("verify", "unbias"))
    n, d = 20, 5
    params = init_encoder_params(d, 6, 4, "tanh", stream.split("enc"))
    views = ViewPairs(stream.split("va").normal(n, d), stream.split("vb").normal(n, d))
    y = encode(params, views.views).embeddings
    ya, yb = y[0::2], y[1::2]
    tau = 0.5
    anchor = 0
    bstream = stream.split("batches")
    all_negs = np.concatenate([np.delete(ya, anchor, 0), np.delete(yb, anchor, 0)])
    pos = float(ya[anchor] @ yb[anchor])
    scores = all_negs @ ya[anchor]
    g_full = oracle.g_value(scores - pos, tau)
    # 2000 batches of 8 negatives, drawn one by one; each batch's g is the
    # mean of exp(h / tau) over its row of picks
    picks = np.empty((2000, 8), dtype=np.intp)
    for pick in picks:
        pick[:] = bstream.choice_without_replacement(len(all_negs), 8)
    draws = np.exp((scores[picks] - pos) / tau).mean(axis=1)
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
    the CLI exit code is 0 iff every check passed.  The four oracle checks
    share one battery of 75 instances from ("verify", "dual"), five per (m,
    rho), each solved once by each solver, with the grid at m = 2;
    fixed_tau_identity takes 20 from ("verify", "gcl"), the finite differences
    _small_instance(seed), estimator_degeneration 5 optimizer._step calls.
    Criteria 01-05, 07 and 08 call these checks on their own instances."""
    os.makedirs(cfg.out, exist_ok=True)
    seed = cfg.seed
    # the g-floor check's run is also the determinism check's first run
    trained = _short_training(seed)
    battery = _oracle_battery(RandomStream(seed, ("verify", "dual")), 5)
    feasible, dual, grid, tau_bound = _vcheck_oracle_battery(battery, 2)
    checks = [
        feasible,
        dual,
        grid,
        *_vcheck_fixed_instance(),
        tau_bound,
        *_vcheck_finite_diff(_finite_diff_cases(seed)),
        _vcheck_degeneration(*_degeneration_instance(seed)),
        # a deliberately oversized temperature step, which the box projection must contain
        _vcheck_tau_box(*_short_training(seed, steps=6, eta_tau=2.0)),
        _vcheck_g_floor(*trained),
        _vcheck_fixed_tau_identity(RandomStream(seed, ("verify", "gcl")), 20),
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
