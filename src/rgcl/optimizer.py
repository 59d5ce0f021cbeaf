"""Stochastic training loop with individualized temperatures.

Each anchor i keeps a scalar s_i, a moving average of mini-batch estimates
of g_i = mean_j exp(h_ij / tau_i), plus a momentum buffer u_i and its own
temperature tau_i.  Every step:

    g      <- batch estimate of g_i over the batch negatives
    s      <- (1 - beta0) s + beta0 g            (first touch: s <- g)
    G(tau) <- tau dg/dtau / s + log s + rho
    u      <- (1 - beta1) u + beta1 G(tau)
    tau    <- clamp(tau - eta_tau u, [tau0, tau_max])
    G(w)   <- (1/B) sum_i (tau_i / s_i) grad_w g_i(batch)
    v      <- (1 - beta1) v + beta1 G(w)
    w      <- w - eta_w v

With a full batch and beta0 = beta1 = 1, G(tau) is n times the objective's
gradient in tau_i: the step is exact gradient descent, with step eta_w on w
and eta_tau n on the temperatures.  Both modalities' steps run _step, which
scores the batch as one block of loss._encoder_pass; its kernel _tables runs
the row kernel once over the (sides, B) arrays of every side, and writes the
tables only once one check has found all of them finite.  The
fixed-temperature baseline is the same step with eta_tau = 0.  Parameters
update by momentum or an Adam-style rule; temperatures always by momentum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# encode and encode_backward are bound here too: bench/spans.py looks them up in this module
from .encoder import EncoderParams, encode, encode_backward
from .loss import _ANCHOR_NAMES, RgclConfig, ViewPairs, _anchor_h_rows, _bimodal_h_rows, _encoder_pass
from .loss import _require_finite_rows, _softmax_rows
from .numerics import RandomStream, _read_record, _write_record

__all__ = [
    "OptimizerState",
    "init_optimizer_state",
    "sample_batch",
    "step_unimodal",
    "step_bimodal",
    "step_sogclr_baseline",
    "save_optimizer_state",
    "load_optimizer_state",
]

_MODES = ("momentum", "adam")
# Adam-style parameter update (temperatures always use momentum).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# checkpoint magic by side count
_MAGICS = (b"RGCLOPT1", b"RGCLOPB1")


@dataclass
class OptimizerState:
    """Whole-run optimizer state.

    s, u and tau are (sides, n) per-anchor tables indexed by dataset index:
    one side for a unimodal run, two for a bimodal run (image anchors, then
    text anchors).  The sides share initialized, the parameter momentum v
    (over the concatenated parameters of both towers), the Adam second
    moment and the extrema.  min_g_seen / min_s_seen track the smallest
    batch estimate and moving average ever produced, for checking the lower
    bound on g.
    """

    mode: str
    seed: int
    t: int
    s: np.ndarray
    u: np.ndarray
    tau: np.ndarray
    initialized: np.ndarray  # bool per anchor
    v: np.ndarray  # parameter momentum, flat
    adam_m2: np.ndarray | None = None
    min_g_seen: float = math.inf
    min_s_seen: float = math.inf
    min_tau_seen: float = math.inf
    max_tau_seen: float = -math.inf

    @property
    def sides(self) -> int:
        return self.s.shape[0]

    @property
    def n(self) -> int:
        return self.s.shape[1]


def _checked_seed(seed) -> int:
    """seed as an int, which the checkpoint stores as a signed 64-bit integer."""
    if not -(2**63) <= seed < 2**63:
        raise ValueError("seed must be in [-2**63, 2**63), not %d" % seed)
    return int(seed)


def init_optimizer_state(
    n: int, n_params: int, cfg: RgclConfig, seed: int, mode: str = "momentum", sides: int = 1
) -> OptimizerState:
    """Fresh state for n anchors per side; a bimodal run passes sides=2 and
    the summed parameter count of both towers."""
    if mode not in _MODES:
        raise ValueError("unknown mode %r" % mode)
    if sides not in (1, 2):
        raise ValueError("sides must be 1 or 2, not %r" % (sides,))
    return OptimizerState(
        mode=mode,
        seed=_checked_seed(seed),
        t=0,
        s=np.ones((sides, n)),
        u=np.zeros((sides, n)),
        tau=np.full((sides, n), cfg.tau_init),
        initialized=np.zeros(n, dtype=bool),
        v=np.zeros(n_params),
        adam_m2=np.zeros(n_params) if mode == "adam" else None,
    )


def _batch_indices(stream: RandomStream, n: int, batch_size: int) -> np.ndarray:
    """Sorted distinct batch indices from the stream's "indices" sub-stream."""
    if not (2 <= batch_size <= n):
        raise ValueError("need 2 <= batch_size <= n, not batch_size %d with n %d" % (batch_size, n))
    return np.sort(stream.split("indices").choice_without_replacement(n, batch_size))


def sample_batch(stream: RandomStream, n: int, batch_size: int, d_in: int):
    """Distinct batch indices plus two standard-normal augmentation draws
    per index (scaled by the caller's augmentation strength)."""
    indices = _batch_indices(stream, n, batch_size)
    noise_a = stream.split("aug-a").normal(batch_size, d_in)
    noise_b = stream.split("aug-b").normal(batch_size, d_in)
    return indices, noise_a, noise_b


def _param_update(opt, params_flat: np.ndarray, grad: np.ndarray, cfg: RgclConfig) -> np.ndarray:
    """Momentum or Adam-style update of the flat parameter vector."""
    if opt.mode == "adam":
        opt.v = ADAM_BETA1 * opt.v + (1.0 - ADAM_BETA1) * grad
        opt.adam_m2 = ADAM_BETA2 * opt.adam_m2 + (1.0 - ADAM_BETA2) * grad * grad
        t = opt.t + 1
        m_hat = opt.v / (1.0 - ADAM_BETA1**t)
        v_hat = opt.adam_m2 / (1.0 - ADAM_BETA2**t)
        return params_flat - cfg.eta_w * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    opt.v = (1.0 - cfg.beta1) * opt.v + cfg.beta1 * grad
    return params_flat - cfg.eta_w * opt.v


def _project_tau(tau: np.ndarray, cfg: RgclConfig) -> np.ndarray:
    """Clamp updated temperatures onto the box [tau0, tau_max]; NaN stays NaN."""
    return np.minimum(np.maximum(tau, cfg.tau0), cfg.tau_max)


def _tables(opt: OptimizerState, idx, taus, stats, cfg: RgclConfig):
    """The step's kernel: one run of the row kernel over every side's batch
    rows stats, a (3, sides, B) array (see loss._exp_rows), at the batch
    anchors' (sides, B) temperatures taus, opt.tau[:, idx]; in-place updates of the batch anchors' s, u
    and projected tau; and the (sides, B) pair-weight scales at the fresh s.
    A non-finite g, s or new tau raises ValueError naming the first such
    side and its dataset index before any table is written."""
    init, s_old = opt.initialized[idx], opt.s[:, idx]
    g, s_new, _, dtau, c = _softmax_rows(
        stats, taus, cfg, len(idx), lambda g: np.where(init, (1.0 - cfg.beta0) * s_old + cfg.beta0 * g, g))
    u_new = (1.0 - cfg.beta1) * opt.u[:, idx] + cfg.beta1 * dtau
    tau_new = _project_tau(taus - cfg.eta_tau * u_new, cfg)
    _require_finite_rows(_ANCHOR_NAMES[opt.sides], idx, g=g, s=s_new, tau=tau_new)
    opt.s[:, idx], opt.u[:, idx], opt.tau[:, idx] = s_new, u_new, tau_new
    opt.min_g_seen = float(np.minimum.reduce(g, axis=None, initial=opt.min_g_seen))
    opt.min_s_seen = float(np.minimum.reduce(s_new, axis=None, initial=opt.min_s_seen))
    opt.min_tau_seen = float(np.minimum.reduce(tau_new, axis=None, initial=opt.min_tau_seen))
    opt.max_tau_seen = float(np.maximum.reduce(tau_new, axis=None, initial=opt.max_tau_seen))
    return c


def _check_rows(opt: OptimizerState, n: int) -> None:
    if n < 2:
        raise ValueError("dataset must have at least 2 samples")
    if opt.n != n:
        raise ValueError("the optimizer state holds %d anchors, the dataset %d rows" % (opt.n, n))


def _step(opt: OptimizerState, params, inputs, idx, h_rows, cfg: RgclConfig):
    """The step of both modalities: one _encoder_pass over the towers' batch
    rows inputs, one tower per encoder in params, that scores the batch as
    one block at its temperatures with the kernel _tables, then one update
    of the concatenated parameters of every encoder; returns the new ones."""
    taus = opt.tau[:, idx]
    grads = _encoder_pass(params, inputs, idx, h_rows, len(idx), taus,
                          lambda lo, hi, stats: _tables(opt, idx, taus, stats, cfg))
    opt.initialized[idx] = True
    new_flat = _param_update(opt, np.concatenate([p.flatten() for p in params]), np.concatenate(grads), cfg)
    opt.t += 1
    ends = [sum(p.n_params for p in params[: k + 1]) for k in range(len(params))]
    return tuple(p.from_flat(new_flat[end - p.n_params : end]) for p, end in zip(params, ends))


def step_unimodal(opt: OptimizerState, params: EncoderParams, inputs: np.ndarray, cfg: RgclConfig,
                  batch_size: int, aug_strength: float) -> EncoderParams:
    """One optimizer step; returns the new parameters and mutates opt.

    Deterministic given (opt.seed, opt.t): the batch and augmentations are
    drawn from a stream keyed by the step counter, so a resumed run
    continues bit-identically.
    """
    if opt.sides != 1:
        raise ValueError("a unimodal step needs a one-sided state, not %d sides" % opt.sides)
    n = inputs.shape[0]
    _check_rows(opt, n)
    step_stream = RandomStream(opt.seed, ("train", str(opt.t)))
    idx, noise_a, noise_b = sample_batch(step_stream, n, batch_size, inputs.shape[1])
    rows = inputs[idx]
    views = ViewPairs(rows + aug_strength * noise_a, rows + aug_strength * noise_b)
    [new_params] = _step(opt, [params], [views.views], idx, _anchor_h_rows, cfg)
    return new_params


def step_sogclr_baseline(opt: OptimizerState, params: EncoderParams, inputs: np.ndarray, cfg: RgclConfig,
                         batch_size: int, aug_strength: float) -> EncoderParams:
    """Fixed-temperature baseline: the same step with the tau update
    disabled (eta_tau = 0), so every tau stays at tau_init."""
    return step_unimodal(opt, params, inputs, replace(cfg, eta_tau=0.0), batch_size, aug_strength)


def step_bimodal(
    opt: OptimizerState,
    params_img: EncoderParams,
    params_txt: EncoderParams,
    images: np.ndarray,
    texts: np.ndarray,
    cfg: RgclConfig,
    batch_size: int,
):
    """One two-tower step over a batch of pairs; negatives of an image
    anchor are the other batch texts and vice versa (no augmentation).
    Returns (new_params_img, new_params_txt)."""
    n = images.shape[0]
    if opt.sides != 2:
        raise ValueError("a bimodal step needs a two-sided state, not %d sides" % opt.sides)
    _check_rows(opt, n)
    _check_rows(opt, texts.shape[0])
    idx = _batch_indices(RandomStream(opt.seed, ("train", str(opt.t))), n, batch_size)
    return _step(opt, [params_img, params_txt], [images[idx], texts[idx]], idx, _bimodal_h_rows, cfg)


# per-anchor tables, written side by side in this order
_TABLES = ("s", "u", "tau")
_EXTREMA = ("min_g_seen", "min_s_seen", "min_tau_seen", "max_tau_seen")


def save_optimizer_state(opt: OptimizerState, path: str) -> None:
    """Write opt as a numerics record: magic RGCLOPT1 for one side, RGCLOPB1
    for two; header mode flag, seed, step, n, len(v) and Adam flag;
    sections the four extrema, v, then s, u and tau of each side in turn,
    all float64, initialized as uint8, and the Adam second moment (float64)
    when present."""
    adam = [] if opt.adam_m2 is None else [("f8", opt.adam_m2)]
    _write_record(path, _MAGICS[opt.sides - 1],
                  [_MODES.index(opt.mode), opt.seed, opt.t, opt.n, opt.v.shape[0], len(adam)],
                  [("f8", [getattr(opt, name) for name in _EXTREMA]), ("f8", opt.v),
                   *(("f8", getattr(opt, name)[side]) for side in range(opt.sides) for name in _TABLES),
                   ("u1", opt.initialized), *adam])


def load_optimizer_state(path: str) -> OptimizerState:
    """Read a checkpoint written by save_optimizer_state.  Beside the
    record's own refusals, an unknown mode flag, a negative step or size,
    an Adam flag that disagrees with the mode flag, an initialized flag
    other than 0 or 1 or a NaN extremum is rejected with ValueError."""

    def layout(side_index, mode_flag, seed, t, n, nv, has_adam):
        # an adam state, and only an adam state, holds a second moment
        if not (0 <= mode_flag < len(_MODES) and t >= 0 and n >= 0 and nv >= 0
                and has_adam == (_MODES[mode_flag] == "adam")):
            raise ValueError("corrupt checkpoint header: mode %d, step %d, n %d, len(v) %d, adam flag %d"
                             % (mode_flag, t, n, nv, has_adam))
        # the extrema may be infinite, so their section goes unnamed past the finite check
        return [(None, len(_EXTREMA), "f8"), ("v", nv, "f8"),
                *((name, n, "f8") for _ in range(side_index + 1) for name in _TABLES),
                ("initialized", n, "u1"), *[("adam_m2", nv, "f8")] * has_adam]

    _, (mode_flag, seed, t, *_, has_adam), arrays = _read_record(path, "optimizer", _MAGICS, 6, layout)
    extrema, v, *tables, flags, adam_m2 = arrays + [None] * (1 - has_adam)
    if np.any(flags > 1):
        raise ValueError("checkpoint initialized flags must be 0 or 1")
    extrema = dict(zip(_EXTREMA, extrema.tolist()))
    for name, value in extrema.items():
        if math.isnan(value):
            raise ValueError("checkpoint %s is NaN" % name)
    return OptimizerState(mode=_MODES[mode_flag], seed=seed, t=t, initialized=flags.astype(bool), v=v, adam_m2=adam_m2,
                          **{name: np.array(tables[k :: len(_TABLES)]) for k, name in enumerate(_TABLES)}, **extrema)
