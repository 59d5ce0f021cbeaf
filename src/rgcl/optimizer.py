"""Stochastic training loop with individualized temperatures.

Each anchor i keeps a scalar s_i, a moving average of mini-batch estimates
of g_i = mean_j exp(h_ij / tau_i), plus a momentum buffer u_i and its own
temperature tau_i.  Every step:

    g      <- batch estimate of g_i over the batch negatives
    s      <- (1 - beta0) s + beta0 g            (first touch: s <- g)
    G(tau) <- (1/n)[tau dg/dtau / s + log s + rho] * tau_grad_scale
    u      <- (1 - beta1) u + beta1 G(tau)
    tau    <- clamp(tau - eta_tau u, [tau0, tau_max])
    G(w)   <- (1/B) sum_i (tau_i / s_i) grad_w g_i(batch)
    v      <- (1 - beta1) v + beta1 G(w)
    w      <- w - eta_w v

With a full batch and beta0 = beta1 = 1 this degenerates to exact gradient
descent on the objective.  The fixed-temperature baseline mode runs the
same step with eta_tau forced to 0.  Parameter updates optionally use an
Adam-style rule instead of momentum; temperatures always use momentum.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .encoder import EncoderParams, encode, encode_backward
from .loss import RgclConfig, _anchor_h_rows, _bimodal_h_rows, _offdiag_rows, _softmax_rows
from .loss import _bimodal_embedding_grads, _unimodal_embedding_grads
from .numerics import RandomStream

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
    # test hook: disables the temperature clamp so the bound check can be
    # demonstrated to catch violations
    _disable_tau_projection: bool = field(default=False, repr=False)

    @property
    def sides(self) -> int:
        return self.s.shape[0]

    @property
    def n(self) -> int:
        return self.s.shape[1]


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
        seed=int(seed),
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
        raise ValueError("need 2 <= batch_size <= n")
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


def _side_step(opt: OptimizerState, side: int, idx, hmat, cfg: RgclConfig, eta_tau: float):
    """One side's share of a step: the row kernel on the batch hardness
    rows, then in-place updates of the batch anchors' s, u and projected tau
    in row `side` of the tables.  Returns the (B, B) pair-weight matrices,
    one per score matrix the rows came from, computed with the temperatures
    the batch was scored with and the fresh s."""
    s_arr, u_arr, tau_arr = opt.s[side], opt.u[side], opt.tau[side]
    n = opt.n
    scale = cfg.resolved_tau_grad_scale(n)
    taus = tau_arr[idx].copy()
    init = opt.initialized[idx]
    s_old = s_arr[idx]
    g, s_new, ratio, eph, w = _softmax_rows(
        hmat, taus, cfg.log_epsilon, len(idx),
        lambda g: np.where(init, (1.0 - cfg.beta0) * s_old + cfg.beta0 * g, g),
    )
    s_arr[idx] = s_new
    opt.min_g_seen = min(opt.min_g_seen, float(np.min(g)))
    opt.min_s_seen = min(opt.min_s_seen, float(np.min(s_new)))

    grad_tau = (-ratio * eph / taus + np.log(s_new) + cfg.rho) / n * scale
    u_new = (1.0 - cfg.beta1) * u_arr[idx] + cfg.beta1 * grad_tau
    u_arr[idx] = u_new
    tau_new = taus - eta_tau * u_new
    if not opt._disable_tau_projection:
        tau_new = np.clip(tau_new, cfg.tau0, cfg.tau_max)
    tau_arr[idx] = tau_new
    opt.min_tau_seen = min(opt.min_tau_seen, float(np.min(tau_new)))
    opt.max_tau_seen = max(opt.max_tau_seen, float(np.max(tau_new)))
    mats = [np.zeros((len(idx), len(idx))) for _ in range(hmat.shape[1] // (len(idx) - 1))]
    _offdiag_rows(mats, 0, len(idx), w, scatter=True)
    return mats


def _check_rows(opt: OptimizerState, n: int) -> None:
    if n < 2:
        raise ValueError("dataset must have at least 2 samples")
    if opt.n != n:
        raise ValueError("the optimizer state holds %d anchors, the dataset %d rows" % (opt.n, n))


def _step_unimodal_core(
    opt: OptimizerState,
    params: EncoderParams,
    inputs: np.ndarray,
    cfg: RgclConfig,
    batch_size: int,
    aug_strength: float,
    eta_tau: float,
) -> EncoderParams:
    if opt.sides != 1:
        raise ValueError("a unimodal step needs a one-sided state, not %d sides" % opt.sides)
    n = inputs.shape[0]
    _check_rows(opt, n)
    step_stream = RandomStream(opt.seed, ("train", str(opt.t)))
    idx, noise_a, noise_b = sample_batch(step_stream, n, batch_size, inputs.shape[1])
    views_a = inputs[idx] + aug_strength * noise_a
    views_b = inputs[idx] + aug_strength * noise_b

    ea = encode(params, views_a)
    eb = encode(params, views_b)
    hmat, _ = _anchor_h_rows(ea.embeddings, eb.embeddings)
    wa, wb = _side_step(opt, 0, idx, hmat, cfg, eta_tau)
    opt.initialized[idx] = True

    dya, dyb = _unimodal_embedding_grads(wa, wb, ea.embeddings, eb.embeddings)
    grad_w = encode_backward(params, ea, dya).flatten() + encode_backward(params, eb, dyb).flatten()

    new_flat = _param_update(opt, params.flatten(), grad_w, cfg)
    opt.t += 1
    return params.from_flat(new_flat)


def step_unimodal(
    opt: OptimizerState,
    params: EncoderParams,
    inputs: np.ndarray,
    cfg: RgclConfig,
    batch_size: int,
    aug_strength: float,
) -> EncoderParams:
    """One optimizer step; returns the new parameters and mutates opt.

    Deterministic given (opt.seed, opt.t): the batch and augmentations are
    drawn from a stream keyed by the step counter, so a resumed run
    continues bit-identically.
    """
    return _step_unimodal_core(opt, params, inputs, cfg, batch_size, aug_strength, cfg.eta_tau)


def step_sogclr_baseline(
    opt: OptimizerState,
    params: EncoderParams,
    inputs: np.ndarray,
    cfg: RgclConfig,
    batch_size: int,
    aug_strength: float,
) -> EncoderParams:
    """Fixed-temperature baseline: the same step with the tau update
    disabled (eta_tau = 0), so every tau stays at tau_init."""
    return _step_unimodal_core(opt, params, inputs, cfg, batch_size, aug_strength, 0.0)


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

    ex = encode(params_img, images[idx])
    et = encode(params_txt, texts[idx])
    hx, ht, _ = _bimodal_h_rows(ex.embeddings, et.embeddings)
    (wv,) = _side_step(opt, 0, idx, hx, cfg, cfg.eta_tau)
    (wt,) = _side_step(opt, 1, idx, ht, cfg, cfg.eta_tau)
    opt.initialized[idx] = True

    dx, dt = _bimodal_embedding_grads(wv, wt, ex.embeddings, et.embeddings)
    grad = np.concatenate(
        [encode_backward(params_img, ex, dx).flatten(), encode_backward(params_txt, et, dt).flatten()]
    )

    flat = np.concatenate([params_img.flatten(), params_txt.flatten()])
    new_flat = _param_update(opt, flat, grad, cfg)
    opt.t += 1
    n_img = params_img.n_params
    return params_img.from_flat(new_flat[:n_img]), params_txt.from_flat(new_flat[n_img:])


# per-anchor tables, written side by side in this order
_TABLES = ("s", "u", "tau")
_HEADER_BYTES = 8 + 6 * 8 + 4 * 8


def save_optimizer_state(opt: OptimizerState, path: str) -> None:
    """Binary checkpoint.  Layout: 8-byte magic (RGCLOPT1 for one side,
    RGCLOPB1 for two), little-endian int64 header (mode flag, seed, step, n,
    len(v), adam flag), four float64 extrema, then the flat float64 arrays:
    v, s, u and tau of each side in turn, initialized as uint8, and the Adam
    second moment when present."""
    with open(path, "wb") as fh:
        fh.write(_MAGICS[opt.sides - 1])
        fh.write(
            struct.pack(
                "<qqqqqq",
                _MODES.index(opt.mode),
                opt.seed,
                opt.t,
                opt.n,
                opt.v.shape[0],
                0 if opt.adam_m2 is None else 1,
            )
        )
        fh.write(struct.pack("<dddd", opt.min_g_seen, opt.min_s_seen, opt.min_tau_seen, opt.max_tau_seen))
        fh.write(opt.v.astype("<f8").tobytes())
        for side in range(opt.sides):
            for name in _TABLES:
                fh.write(getattr(opt, name)[side].astype("<f8").tobytes())
        fh.write(opt.initialized.astype(np.uint8).tobytes())
        if opt.adam_m2 is not None:
            fh.write(opt.adam_m2.astype("<f8").tobytes())


def load_optimizer_state(path: str) -> OptimizerState:
    """Read a checkpoint written by save_optimizer_state.  The header fixes
    the exact file size; any other size, an unknown magic or mode flag, a
    negative size or a malformed flag is rejected with ValueError."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:8]
    if len(data) < _HEADER_BYTES or magic not in _MAGICS:
        raise ValueError("not an optimizer checkpoint")
    sides = _MAGICS.index(magic) + 1
    mode_flag, seed, t, n, nv, has_adam = struct.unpack_from("<qqqqqq", data, 8)
    min_g, min_s, min_tau, max_tau = struct.unpack_from("<dddd", data, 56)
    if not (0 <= mode_flag < len(_MODES) and n >= 0 and nv >= 0 and has_adam in (0, 1)):
        raise ValueError("corrupt checkpoint header: mode %d, n %d, len(v) %d, adam flag %d"
                         % (mode_flag, n, nv, has_adam))
    size = _HEADER_BYTES + 8 * nv * (1 + has_adam) + 8 * n * len(_TABLES) * sides + n
    if len(data) != size:
        raise ValueError("checkpoint is %d bytes, its header implies %d" % (len(data), size))
    offset = _HEADER_BYTES

    def take(count, dtype="<f8"):
        nonlocal offset
        out = np.frombuffer(data, dtype, count, offset)
        offset += out.nbytes
        return out

    v = take(nv).astype(np.float64)
    tables = {name: np.empty((sides, n)) for name in _TABLES}
    for side in range(sides):
        for name in _TABLES:
            tables[name][side] = take(n)
    flags = take(n, np.uint8)
    if np.any(flags > 1):
        raise ValueError("checkpoint initialized flags must be 0 or 1")
    return OptimizerState(
        mode=_MODES[mode_flag],
        seed=seed,
        t=t,
        initialized=flags.astype(bool),
        v=v,
        adam_m2=take(nv).astype(np.float64) if has_adam else None,
        min_g_seen=min_g,
        min_s_seen=min_s,
        min_tau_seen=min_tau,
        max_tau_seen=max_tau,
        **tables,
    )
