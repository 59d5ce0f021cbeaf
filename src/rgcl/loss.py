"""Robust contrastive loss mathematics.

For an anchor with hardness scores h over its m negatives, the per-anchor
loss in its dual form is

    L(h, tau) = tau * log( mean_j exp(h_j / tau) ) + (tau - tau0) * rho,

minimized over tau in [tau0, tau_max].  The worst-case weights over the
KL ball are the softmax p*_j = exp(h_j/tau) / sum_k exp(h_k/tau).  The
full objective averages the per-anchor dual losses, each with its own
learnable temperature.

This module also provides the exact full-batch objective and its gradients
with respect to encoder parameters and temperatures, computed analytically
through the hardness scores and the encoder backward pass.  One encoder
pass, _encoder_pass, serves the exact evaluation, both stochastic steps and
verify's degeneration check.  A unimodal pass encodes both views as one
interleaved tower (see ViewPairs); a bimodal pass encodes an image and a
text tower.  Its block pass _contrast gives per block of anchors the
hardness rows of each direction of the loss, a caller's kernel that turns
them into pair weights, and the embedding gradients: per direction one GEMM
each for the scores, the anchor role and the negative role, with the
off-diagonal entries gathered and scattered in place by strides.  Every
block of a pass reuses one workspace of a score block, hardness rows, pair
weights and one gradient buffer over the negative tower, allocated by the
first block and sliced by a short last one.  The exact objective and
evaluation use blocks of _EVAL_ROWS anchors, so memory is
O(n * (_EVAL_ROWS + d)); the block size fixes the order of the negative-role
gradient sums, and so the last bits of the parameter gradient.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .encoder import EncoderParams, encode, encode_backward
from .numerics import log_sum_exp, softmax_shifted

__all__ = [
    "HARDNESS_BOUND",
    "RgclConfig",
    "DistributionalWeights",
    "ViewPairs",
    "hardness_scores",
    "g_value",
    "dual_loss_anchor",
    "p_star",
    "primal_rgcl_value",
    "kl_uniform",
    "objective_unimodal",
    "objective_bimodal",
    "unimodal_value_and_grads",
    "bimodal_value_and_grads",
]

# h is a difference of two inner products of unit vectors, so |h| <= 2.
HARDNESS_BOUND = 2.0
# g <= exp(C / tau) fits in a float64 for every tau >= tau0 at or above this.
_TAU0_MIN = HARDNESS_BOUND / math.log(sys.float_info.max)


def require_finite(config) -> None:
    """Reject NaN and infinite values in a config dataclass's float fields."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, (float, np.floating)) and not math.isfinite(value):
            raise ValueError("%s must be finite, not %r" % (f.name, value))


@dataclass
class RgclConfig:
    """Loss and optimizer hyperparameters with their derived bounds.

    tau_max = tau0 + C/rho bounds the optimal temperature, and
    g_floor = exp(-C/tau_max) is the claimed lower bound on g over full
    negative sets.  Both are properties so they track rho and tau0.

    tau_grad_scale multiplies the temperature gradient estimator; None
    means "use the dataset size n", which cancels the 1/n factor in the
    estimator and makes the temperature step size independent of n.
    """

    rho: float = 0.3
    tau0: float = 0.05
    tau_init: float = 0.7
    beta0: float = 0.9
    beta1: float = 0.9
    eta_w: float = 0.1
    eta_tau: float = 0.1
    tau_grad_scale: float | None = None
    log_epsilon: float = 0.0

    def __post_init__(self):
        require_finite(self)
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.tau0 < _TAU0_MIN:
            raise ValueError(
                "tau0 must be >= C / log(DBL_MAX) = %.6g, so that g <= exp(C / tau) fits in a float64, not %r"
                % (_TAU0_MIN, self.tau0)
            )
        if not (0 < self.beta0 <= 1 and 0 < self.beta1 <= 1):
            raise ValueError("beta0 and beta1 must lie in (0, 1]")
        if self.eta_w < 0 or self.eta_tau < 0:
            raise ValueError("learning rates must be nonnegative")
        if self.tau_grad_scale is not None and self.tau_grad_scale < 0:
            raise ValueError("tau_grad_scale must be nonnegative, not %r" % self.tau_grad_scale)
        if self.log_epsilon < 0:
            raise ValueError("log_epsilon must be nonnegative")
        if not (self.tau0 <= self.tau_init <= self.tau_max):
            raise ValueError("need tau0 <= tau_init <= tau_max")

    @property
    def tau_max(self) -> float:
        return self.tau0 + HARDNESS_BOUND / self.rho

    @property
    def g_floor(self) -> float:
        return math.exp(-HARDNESS_BOUND / self.tau_max)

    def resolved_tau_grad_scale(self, n: int) -> float:
        return float(n) if self.tau_grad_scale is None else float(self.tau_grad_scale)


@dataclass
class DistributionalWeights:
    """A point on the simplex over an anchor's negatives."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-10:
            raise ValueError("weights must lie on the simplex")
        self.p = p


class ViewPairs:
    """Fixed augmented views of a dataset, interleaved in one (2n, d_in)
    array views: row 2i is the anchor view of sample i and row 2i+1 its
    positive view, so one encoder pass embeds both.  views_a and views_b are
    strided views of its even and odd rows.  The negative set of anchor i is
    both views of every other sample."""

    def __init__(self, views_a, views_b):
        if np.shape(views_a) != np.shape(views_b):
            raise ValueError("view matrices must have identical shape")
        self.views = np.stack([views_a, views_b], axis=1).reshape(-1, *np.shape(views_a)[1:])

    @property
    def views_a(self) -> np.ndarray:
        return self.views[0::2]

    @property
    def views_b(self) -> np.ndarray:
        return self.views[1::2]

    @property
    def n(self) -> int:
        return self.views.shape[0] // 2


def hardness_scores(anchor, positive, negatives) -> np.ndarray:
    """h_j = anchor.neg_j - anchor.positive for every negative."""
    neg = np.asarray(negatives, dtype=np.float64)
    if neg.size == 0:
        raise ValueError("no negatives")
    anchor = np.asarray(anchor, dtype=np.float64)
    positive = np.asarray(positive, dtype=np.float64)
    return neg @ anchor - float(anchor @ positive)


def g_value(h, tau: float, log_epsilon: float = 0.0) -> float:
    """Mean of exp(h_j / tau), plus the optional smoothing constant."""
    e = np.exp(np.asarray(h, dtype=np.float64) / tau)
    return float(np.add.reduce(e, axis=None) / e.size) + log_epsilon


def dual_loss_anchor(h, tau: float, cfg: RgclConfig) -> float:
    """tau * log g(h, tau) + (tau - tau0) * rho, via log-sum-exp."""
    v = np.asarray(h, dtype=np.float64)
    lme = log_sum_exp(v / tau) - math.log(len(v))
    if cfg.log_epsilon > 0.0:
        log_g = np.logaddexp(lme, math.log(cfg.log_epsilon))
    else:
        log_g = lme
    return tau * float(log_g) + (tau - cfg.tau0) * cfg.rho


def p_star(h, tau: float) -> DistributionalWeights:
    """Closed-form worst-case weights: softmax of h / tau."""
    return DistributionalWeights(softmax_shifted(np.asarray(h, dtype=np.float64) / tau))


def kl_uniform(p) -> float:
    """KL(p, uniform) = sum p_j log(m p_j), with 0 log 0 = 0."""
    pv = p.p if isinstance(p, DistributionalWeights) else np.asarray(p, dtype=np.float64)
    m = len(pv)
    nz = pv[pv > 0.0]
    return float(np.add.reduce(nz * np.log(m * nz)))


def primal_rgcl_value(h, p, tau0: float) -> float:
    """sum p_j h_j - tau0 * KL(p, uniform)."""
    v = np.asarray(h, dtype=np.float64)
    pv = p.p if isinstance(p, DistributionalWeights) else np.asarray(p, dtype=np.float64)
    if len(pv) != len(v):
        raise ValueError("dimension mismatch")
    return float(pv @ v) - tau0 * kl_uniform(pv)


# Anchors per block of the full-batch evaluation, whose score rows, pair
# weights and gradient pieces then stay in cache.  The negative-role
# gradient sums run block by block, so the block size fixes their
# summation order, and the parameter gradient depends on it in its last bits.
_EVAL_ROWS = 16

# what a non-finite error calls the anchors of each side, by side count
_ANCHOR_NAMES = {1: ("anchor",), 2: ("image anchor", "text anchor")}


def _require_finite_rows(what: str, index, **vectors) -> None:
    """Raise ValueError naming index[k] for the first k at which one of the
    per-anchor vectors is not finite."""
    bad = ~np.logical_and.reduce([np.isfinite(v) for v in vectors.values()])
    if bad.any():
        k = int(np.argmax(bad))
        values = ", ".join("%s = %r" % (name, float(v[k])) for name, v in vectors.items())
        raise ValueError("%s %d has a non-finite value: %s" % (what, index[k], values))


def _rows(work, key, r: int, width: int) -> np.ndarray:
    """Rows 0..r-1 of buffer `key` in the workspace dict work, which the first
    block of a pass allocates as (r, width): blocks run in order and only the
    last may be short, so every later block slices it."""
    if key not in work:
        work[key] = np.empty((r, width))
    return work[key][:r]


def _own_groups(block: np.ndarray, p: int, lo: int) -> np.ndarray:
    """The (r, p) view of each row's own group in the C-ordered (r, p*n) score
    or weight block of the anchors lo..lo+r-1: row k's group is its anchor's
    columns p*(lo+k) .. p*(lo+k)+p-1, the last of them its positive."""
    return block.reshape(-1, p)[lo :: block.shape[1] // p + 1]


def _offdiag_rows(block: np.ndarray, p: int, lo: int, rows: np.ndarray, scatter: bool = False) -> None:
    """Gather the entries of a C-ordered (r, p*n) block outside each row's own
    group (see _own_groups) into rows (r, p*(n-1)), in column order, or
    scatter rows back into them.  Taken in groups of p entries, row-major,
    those are the head of row 0, r-1 stretches of n groups between
    consecutive own groups, and the tail of row r-1; for p = 1 and a square
    matrix, a.reshape(-1)[1:].reshape(n-1, n+1)[:, :n]."""
    r, n = block.shape[0], block.shape[1] // p
    groups, out = block.reshape(-1, p), rows.reshape(-1, p)
    k, last = lo + (r - 1) * n, lo + (r - 1) * (n + 1)
    for part, out_part in (
        (groups[:lo], out[:lo]),
        (groups[lo + 1 : last + 1].reshape(-1, n + 1, p)[:, :n], out[lo:k].reshape(-1, n, p)),
        (groups[last + 1 :], out[k:]),
    ):
        if scatter:
            part[...] = out_part
        else:
            out_part[...] = part


def _h_rows(y, neg, p: int, lo: int, hi: int, work, key):
    """Hardness rows (hi-lo, len(neg)-p) of the anchors lo..hi-1, anchor i
    being row p*i of y, into buffer `key` of the workspace dict work (see
    _rows): anchor i's scores against neg, one GEMM into the workspace's
    score block, outside its own group of rows p*i .. p*i+p-1 of neg (see
    _own_groups), minus the score of its positive, the group's last row."""
    block = np.matmul(y[p * lo : p * hi : p], neg.T, out=_rows(work, "scores", hi - lo, len(neg)))
    h = _rows(work, key, hi - lo, len(neg) - p)
    _offdiag_rows(block, p, lo, h)
    h -= _own_groups(block, p, lo)[:, -1:]
    return h


def _anchor_h_rows(towers, lo: int, hi: int, work):
    """The one direction of the unimodal loss over the anchors lo..hi-1 of the
    interleaved tower towers = [y] (see ViewPairs), as (anchor tower, negative
    tower, group size, hardness rows): anchor i is row 2i of y, its positive
    row 2i+1, its negatives both views of every other sample."""
    [y] = towers
    return [(0, 0, 2, _h_rows(y, y, 2, lo, hi, work, ("hardness", 0)))]


def _bimodal_h_rows(towers, lo: int, hi: int, work):
    """Both directions of the bimodal loss over the pairs lo..hi-1 of towers =
    [x, t], as in _anchor_h_rows: image anchor i over the texts, its positive
    t_i, and text anchor i over the images, its positive x_i.  Both come from
    the same code path, so mirrored towers give bitwise-equal rows."""
    x, t = towers
    return [(0, 1, 1, _h_rows(x, t, 1, lo, hi, work, ("hardness", 0))),
            (1, 0, 1, _h_rows(t, x, 1, lo, hi, work, ("hardness", 1)))]


def _softmax_rows(h, taus, log_epsilon: float, count, denom=None, out=None):
    """The row kernel of every full-batch evaluation and stochastic step.

    h (k, m) holds each anchor's hardness scores over its m negatives and is
    overwritten.  With p the row softmax of h / tau and mean_exp the
    max-shifted mean_j exp(h_ij / tau_i), returns (g, d, ratio, eph, w):
    g = mean_exp + log_epsilon; d = denom(g), or g when denom is None (the
    step passes its moving-average update of s); ratio = mean_exp / d;
    eph = E_p[h]; and the pair weights w = p * ratio / count of the
    parameter gradient, written into out when it is given.
    """
    m = h.shape[1]
    z = np.divide(h, taus[:, None], out=out)
    shift = z.max(axis=1, keepdims=True)
    np.subtract(z, shift, out=z)
    np.exp(z, out=z)
    sez = z.sum(axis=1)
    mean_exp = np.exp((shift[:, 0] + np.log(sez)) - math.log(m))
    g = mean_exp + log_epsilon
    d = g if denom is None else denom(g)
    ratio = mean_exp / d
    np.divide(z, sez[:, None], out=z)
    eph = np.multiply(z, h, out=h).sum(axis=1)
    np.multiply(z, ratio[:, None], out=z)
    np.divide(z, count, out=z)
    return g, d, ratio, eph, z


def _contrast(towers, h_rows, rows: int, kernel):
    """The block pass of every contrastive computation.  For each block of up
    to `rows` anchors, h_rows(towers, lo, hi, work) gives each direction of
    the loss as (anchor tower, negative tower, group size, hardness rows),
    towers by index and laid out as in _h_rows; kernel(lo, hi, hs, ws) turns
    the hardness rows hs into pair weights w written into ws.  Returns per
    tower the embedding gradient of the weighted hardness sum.

    Each direction scatters w into one weight block W over its negative
    tower, zero in each anchor's own group but minus the row sum of w at its
    positive, so that the anchor role W @ neg and the negative and positive
    roles W.T @ anchors take one GEMM each.  Every block runs in one
    workspace (see _rows) that serves every direction; the anchor roles of a
    block are added after every direction's negative roles, so mirrored
    bimodal towers see the same operations in the same order."""
    n = sum(map(len, towers)) // 2  # every sample has two rows among the towers
    dys, work = [np.zeros_like(y) for y in towers], {}
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        directions = h_rows(towers, lo, hi, work)
        ws = [_rows(work, ("weights", k), *h.shape) for k, (_, _, _, h) in enumerate(directions)]
        kernel(lo, hi, [d[3] for d in directions], ws)
        anchor_roles = []
        for k, ((a, b, p, _), w) in enumerate(zip(directions, ws)):
            neg = towers[b]
            block = _rows(work, "scores", hi - lo, len(neg))
            _offdiag_rows(block, p, lo, w, scatter=True)
            own = _own_groups(block, p, lo)
            own[...] = 0.0
            own[:, -1] = -w.sum(axis=1)
            dys[b] += np.matmul(block.T, towers[a][p * lo : p * hi : p], out=_rows(work, "role", *neg.shape))
            anchor_roles.append((a, p, np.matmul(block, neg, out=_rows(work, ("anchor", k), hi - lo, neg.shape[1]))))
        for a, p, role in anchor_roles:
            dys[a][p * lo : p * hi : p] += role
    return dys


def _encoder_pass(params, inputs, h_rows, rows: int, kernel):
    """Encode each tower's input rows with its encoder in params, run
    _contrast over the embeddings with h_rows, rows and kernel, and
    back-propagate each tower's embedding gradient.  Returns per encoder its
    flat parameter gradient."""
    batches = [encode(p, x) for p, x in zip(params, inputs)]
    dys = _contrast([b.embeddings for b in batches], h_rows, rows, kernel)
    return [encode_backward(p, batch, dy).flatten() for p, batch, dy in zip(params, batches, dys)]


def _full_batch(params, inputs, h_rows, taus, cfg: RgclConfig):
    """Exact objective terms and gradients of either modality, in blocks of
    _EVAL_ROWS anchors; params, inputs and h_rows are as in _encoder_pass,
    taus the temperatures of each direction of the loss.  Returns per
    direction the terms tau log g + (tau - tau0) rho and the temperature
    gradient, and per encoder its flat parameter gradient."""
    taus = [np.asarray(t, dtype=np.float64) for t in taus]
    n = len(taus[0])
    if n < 2:
        raise ValueError("need at least 2 samples")
    stats = [(np.empty(n), np.empty(n), np.empty(n)) for _ in taus]

    def kernel(lo, hi, hs, ws):
        for h, w, tau, (g, ratio, eph) in zip(hs, ws, taus, stats):
            g[lo:hi], _, ratio[lo:hi], eph[lo:hi], _ = _softmax_rows(h, tau[lo:hi], cfg.log_epsilon, n, out=w)

    grads = _encoder_pass(params, inputs, h_rows, _EVAL_ROWS, kernel)
    out = []
    for what, tau, (g, ratio, eph) in zip(_ANCHOR_NAMES[len(taus)], taus, stats):
        log_g = np.log(g)
        grad_tau = (-ratio * eph / tau + log_g + cfg.rho) / n
        _require_finite_rows(what, range(n), g=g, grad_tau=grad_tau)
        out.append((tau * log_g + (tau - cfg.tau0) * cfg.rho, grad_tau))
    return out, grads


def _objective(towers, h_rows, taus, cfg: RgclConfig) -> float:
    """Exact objective: the dual losses of every direction of the loss, per
    anchor in order, summed over the hardness rows of blocks of _EVAL_ROWS
    anchors and divided by n."""
    n = len(taus[0])
    if n < 2:
        raise ValueError("need at least 2 samples")
    total, work = 0.0, {}
    for lo in range(0, n, _EVAL_ROWS):
        hs = [d[3] for d in h_rows(towers, lo, min(lo + _EVAL_ROWS, n), work)]
        for k in range(len(hs[0])):
            for h, tau in zip(hs, taus):
                total += dual_loss_anchor(h[k], tau[lo + k], cfg)
    return total / n


def require_same_length(**arrays) -> None:
    """Raise ValueError naming every count unless the named per-sample
    arrays all have the same length."""
    counts = {name: len(a) for name, a in arrays.items()}
    if len(set(counts.values())) > 1:
        raise ValueError("%s must all have the same length, not %s"
                         % (", ".join(counts), ", ".join("%d" % c for c in counts.values())))


def objective_unimodal(params: EncoderParams, views: ViewPairs, taus, cfg: RgclConfig) -> float:
    """Exact full-batch objective: mean over anchors of the dual loss."""
    require_same_length(views=views.views_a, taus=taus)
    return _objective([encode(params, views.views).embeddings], _anchor_h_rows, [taus], cfg)


def unimodal_value_and_grads(params: EncoderParams, views: ViewPairs, taus, cfg: RgclConfig):
    """Objective value plus exact gradients w.r.t. the flattened encoder
    parameters and the temperature vector.  Vectorized over anchors."""
    require_same_length(views=views.views_a, taus=taus)
    [(terms, grad_tau)], [grad_w] = _full_batch([params], [views.views], _anchor_h_rows, [taus], cfg)
    return float(np.mean(terms)), grad_w, grad_tau


def objective_bimodal(
    params_img: EncoderParams,
    params_txt: EncoderParams,
    images: np.ndarray,
    texts: np.ndarray,
    taus_v,
    taus_t,
    cfg: RgclConfig,
) -> float:
    """Exact two-way full-batch objective over n image-text pairs."""
    require_same_length(images=images, texts=texts, taus_v=taus_v, taus_t=taus_t)
    towers = [encode(params_img, images).embeddings, encode(params_txt, texts).embeddings]
    return _objective(towers, _bimodal_h_rows, [taus_v, taus_t], cfg)


def bimodal_value_and_grads(
    params_img: EncoderParams,
    params_txt: EncoderParams,
    images: np.ndarray,
    texts: np.ndarray,
    taus_v,
    taus_t,
    cfg: RgclConfig,
):
    """Objective value and exact gradients for the bimodal objective.

    Returns (value, grad_w_img_flat, grad_w_txt_flat, grad_tau_v, grad_tau_t).
    """
    require_same_length(images=images, texts=texts, taus_v=taus_v, taus_t=taus_t)
    [(terms_v, grad_tau_v), (terms_t, grad_tau_t)], (gx, gt) = _full_batch(
        [params_img, params_txt], [images, texts], _bimodal_h_rows, [taus_v, taus_t], cfg
    )
    return float(np.mean(terms_v + terms_t)), gx, gt, grad_tau_v, grad_tau_t
