"""Robust contrastive loss mathematics.

For an anchor with hardness scores h over its m negatives, the per-anchor
loss in its dual form is

    L(h, tau) = tau * log( mean_j exp(h_j / tau) ) + (tau - tau0) * rho,

minimized over tau in [tau0, tau_max].  The worst-case weights over the
KL ball are the softmax p*_j = exp(h_j/tau) / sum_k exp(h_k/tau).  The
full objective averages the per-anchor dual losses, each with its own
learnable temperature.

This module also provides the exact full-batch gradients of the objective
with respect to encoder parameters and temperatures, computed analytically
through the hardness scores and the encoder backward pass.  The evaluation
runs one row kernel, shared with the stochastic step, over fixed blocks of
anchors, so its memory is O(n^2) only for the two (n, n) weight matrices
(and the score matrices they come from); everything else is O(n) per block.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .encoder import EmbeddingBatch, EncoderParams, encode, encode_backward
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


@dataclass
class ViewPairs:
    """Fixed augmented views of a dataset: row i of views_a is the anchor
    view of sample i and row i of views_b is its positive view.  The
    negative set of anchor i is both views of every other sample."""

    views_a: np.ndarray  # (n, d_in)
    views_b: np.ndarray  # (n, d_in)

    def __post_init__(self):
        if self.views_a.shape != self.views_b.shape:
            raise ValueError("view matrices must have identical shape")

    @property
    def n(self) -> int:
        return self.views_a.shape[0]


def hardness_scores(anchor, positive, negatives) -> np.ndarray:
    """h_j = anchor.neg_j - anchor.positive for every negative."""
    if isinstance(negatives, EmbeddingBatch):
        neg = negatives.embeddings
    else:
        neg = np.asarray(negatives, dtype=np.float64)
    if neg.size == 0:
        raise ValueError("no negatives")
    anchor = np.asarray(anchor, dtype=np.float64)
    positive = np.asarray(positive, dtype=np.float64)
    return neg @ anchor - float(anchor @ positive)


def g_value(h, tau: float, log_epsilon: float = 0.0) -> float:
    """Mean of exp(h_j / tau), plus the optional smoothing constant."""
    v = np.asarray(h, dtype=np.float64)
    return float(np.mean(np.exp(v / tau))) + log_epsilon


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
    nz = pv > 0.0
    return float(np.sum(pv[nz] * np.log(m * pv[nz])))


def primal_rgcl_value(h, p, tau0: float) -> float:
    """sum p_j h_j - tau0 * KL(p, uniform)."""
    v = np.asarray(h, dtype=np.float64)
    pv = p.p if isinstance(p, DistributionalWeights) else np.asarray(p, dtype=np.float64)
    if len(pv) != len(v):
        raise ValueError("dimension mismatch")
    return float(pv @ v) - tau0 * kl_uniform(pv)


# Anchors per block of the full-batch evaluation.  Blocks change only the
# order in which independent rows are processed, never an operand or a
# reduction, so results do not depend on it; 64 to 512 rows run alike.
_EVAL_ROWS = 256


def _offdiag_rows(mats, lo: int, hi: int, rows: np.ndarray, scatter: bool = False, tmp=None) -> None:
    """Gather the off-diagonal entries of rows lo..hi-1 of each square
    C-ordered matrix in mats side by side into rows (hi-lo, len(mats)*(n-1)),
    or scatter rows back into them.  Row-major, those entries are the head of
    row lo, hi-lo-1 stretches of n entries between consecutive diagonal
    entries (over all rows: a.reshape(-1)[1:].reshape(n-1, n+1)[:, :n]), and
    the tail of row hi-1.  tmp is optional contiguous (hi-lo, n-1) scratch."""
    n = mats[0].shape[0]
    tmp = np.empty((hi - lo, n - 1)) if tmp is None else tmp
    buf, k = tmp.reshape(-1), lo + (hi - lo - 1) * n
    for j, a in enumerate(mats):
        flat = a.reshape(-1)
        block = rows[:, j * (n - 1) : (j + 1) * (n - 1)]
        if scatter:
            np.copyto(tmp, block)
        for part, tmp_part in (
            (flat[lo * n : lo * (n + 1)], buf[:lo]),
            (flat[lo * (n + 1) + 1 : (hi - 1) * (n + 1) + 1].reshape(-1, n + 1)[:, :n], buf[lo:k].reshape(-1, n)),
            (flat[(hi - 1) * (n + 1) + 1 : hi * n], buf[k:]),
        ):
            if scatter:
                part[...] = tmp_part
            else:
                tmp_part[...] = part
        if not scatter:
            np.copyto(block, tmp)


def _anchor_h_rows(ya: np.ndarray, yb: np.ndarray):
    """Hardness rows for every anchor over the full negative sets.

    Anchor i is row i of ya, its positive is row i of yb, and its
    negatives are both views of every other sample (m = 2(n-1)).
    Returns (H, pos) where H is (n, 2(n-1)).
    """
    n = ya.shape[0]
    sab = ya @ yb.T
    pos = np.diag(sab).copy()
    hmat = np.empty((n, 2 * (n - 1)))
    _offdiag_rows([ya @ ya.T, sab], 0, n, hmat)
    hmat -= pos[:, None]
    return hmat, pos


def _softmax_rows(h, taus, log_epsilon: float, count, denom=None, out=None):
    """The row kernel of every full-batch evaluation and stochastic step.

    h (k, m) holds each anchor's hardness scores over its m negatives and is
    overwritten.  With p the row softmax of h / tau and mean_exp the
    max-shifted mean_j exp(h_ij / tau_i), returns (g, d, ratio, eph, w):
    g = mean_exp + log_epsilon; d = denom(g), or g when denom is None (the
    step passes its moving-average update of s); ratio = mean_exp / d;
    eph = E_p[h]; and the pair weights w = p * ratio / count of the
    parameter gradient, written into out (k, m) when it is given.
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


def _eval_rows(mats, pos, taus, cfg: RgclConfig):
    """The row kernel over all anchors, in blocks of _EVAL_ROWS.  Anchor i's
    negatives are the off-diagonal entries of row i of each (n, n) score
    matrix in mats, side by side, less pos[i].  Returns the objective terms
    tau log g + (tau - tau0) rho, the temperature gradient, and per score
    matrix the (n, n) pair weights; other memory is O(_EVAL_ROWS * n)."""
    n = pos.shape[0]
    c = min(_EVAL_ROWS, n)
    h, z, tmp = np.empty((c, len(mats) * (n - 1))), np.empty((c, len(mats) * (n - 1))), np.empty((c, n - 1))
    g, ratio, eph = np.empty(n), np.empty(n), np.empty(n)
    weights = [np.zeros((n, n)) for _ in mats]
    for lo in range(0, n, c):
        hi = min(lo + c, n)
        r = hi - lo
        _offdiag_rows(mats, lo, hi, h[:r], tmp=tmp[:r])
        h[:r] -= pos[lo:hi, None]
        g[lo:hi], _, ratio[lo:hi], eph[lo:hi], w = _softmax_rows(
            h[:r], taus[lo:hi], cfg.log_epsilon, n, out=z[:r]
        )
        _offdiag_rows(weights, lo, hi, w, scatter=True, tmp=tmp[:r])
    log_g = np.log(g)
    grad_tau = (-ratio * eph / taus + log_g + cfg.rho) / n
    return taus * log_g + (taus - cfg.tau0) * cfg.rho, grad_tau, weights


def _unimodal_embedding_grads(wa, wb, ya, yb):
    """Embedding gradients of sum_ij w_ij h_ij in the two-view layout, where
    wa and wb weight anchor i's a-view and b-view negatives."""
    rs = wa.sum(axis=1) + wb.sum(axis=1)
    # anchor role: dL/d ya_i += sum_j w_ij (neg_j - pos_i); then the negative
    # role of the a-views; the b-views take the positive and negative roles
    dya = wa @ ya + wb @ yb - rs[:, None] * yb + wa.T @ ya
    dyb = -rs[:, None] * ya + wb.T @ ya
    return dya, dyb


def _bimodal_embedding_grads(wv, wt, x_emb, t_emb):
    """Embedding gradients of both directions' weighted hardness, where wv
    weights image anchors over texts and wt text anchors over images."""
    rv = wv.sum(axis=1)
    rt = wt.sum(axis=1)
    # anchor-role term first, negative/positive-role term second, in the
    # same order for both towers so mirrored inputs stay bitwise symmetric
    dx = (wv @ t_emb - rv[:, None] * t_emb) + (wt.T @ t_emb - rt[:, None] * t_emb)
    dt = (wt @ x_emb - rt[:, None] * x_emb) + (wv.T @ x_emb - rv[:, None] * x_emb)
    return dx, dt


def objective_unimodal(params: EncoderParams, views: ViewPairs, taus, cfg: RgclConfig) -> float:
    """Exact full-batch objective: mean over anchors of the dual loss."""
    n = views.n
    if n < 2:
        raise ValueError("need at least 2 samples")
    taus = np.asarray(taus, dtype=np.float64)
    ya = encode(params, views.views_a).embeddings
    yb = encode(params, views.views_b).embeddings
    hmat, _ = _anchor_h_rows(ya, yb)
    total = 0.0
    for i in range(n):
        total += dual_loss_anchor(hmat[i], taus[i], cfg)
    return total / n


def unimodal_value_and_grads(params: EncoderParams, views: ViewPairs, taus, cfg: RgclConfig):
    """Objective value plus exact gradients w.r.t. the flattened encoder
    parameters and the temperature vector.  Vectorized over anchors."""
    n = views.n
    if n < 2:
        raise ValueError("need at least 2 samples")
    taus = np.asarray(taus, dtype=np.float64)
    ea = encode(params, views.views_a)
    eb = encode(params, views.views_b)
    ya, yb = ea.embeddings, eb.embeddings
    sab = ya @ yb.T
    terms, grad_tau, (wa, wb) = _eval_rows([ya @ ya.T, sab], np.diag(sab).copy(), taus, cfg)
    value = float(np.mean(terms))
    dya, dyb = _unimodal_embedding_grads(wa, wb, ya, yb)
    grad_w = encode_backward(params, ea, dya).flatten() + encode_backward(params, eb, dyb).flatten()
    return value, grad_w, grad_tau


def _bimodal_h_rows(x_emb: np.ndarray, t_emb: np.ndarray):
    """Hardness rows for both directions of the bimodal loss.

    hx[i, .] ranges over negative texts (m = n-1), ht[i, .] over negative
    images.  pos_i = x_i . t_i.
    """
    n = x_emb.shape[0]
    # both directions are computed by the same code path so that mirrored
    # modalities (x_emb identical to t_emb) give bitwise-identical rows
    sx = x_emb @ t_emb.T
    st = t_emb @ x_emb.T
    pos = np.diag(sx).copy()
    hx, ht = np.empty((n, n - 1)), np.empty((n, n - 1))
    _offdiag_rows([sx], 0, n, hx)
    _offdiag_rows([st], 0, n, ht)
    hx -= pos[:, None]
    ht -= np.diag(st)[:, None]
    return hx, ht, pos


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
    n = images.shape[0]
    if n < 2:
        raise ValueError("need at least 2 pairs")
    taus_v = np.asarray(taus_v, dtype=np.float64)
    taus_t = np.asarray(taus_t, dtype=np.float64)
    x_emb = encode(params_img, images).embeddings
    t_emb = encode(params_txt, texts).embeddings
    hx, ht, _ = _bimodal_h_rows(x_emb, t_emb)
    total = 0.0
    for i in range(n):
        total += dual_loss_anchor(hx[i], taus_v[i], cfg)
        total += dual_loss_anchor(ht[i], taus_t[i], cfg)
    return total / n


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
    n = images.shape[0]
    if n < 2:
        raise ValueError("need at least 2 pairs")
    taus_v = np.asarray(taus_v, dtype=np.float64)
    taus_t = np.asarray(taus_t, dtype=np.float64)
    ex = encode(params_img, images)
    et = encode(params_txt, texts)
    x_emb, t_emb = ex.embeddings, et.embeddings
    sx = x_emb @ t_emb.T
    st = t_emb @ x_emb.T
    terms_v, grad_tau_v, (wv,) = _eval_rows([sx], np.diag(sx).copy(), taus_v, cfg)
    terms_t, grad_tau_t, (wt,) = _eval_rows([st], np.diag(st).copy(), taus_t, cfg)
    value = float(np.mean(terms_v + terms_t))
    dx, dt = _bimodal_embedding_grads(wv, wt, x_emb, t_emb)
    gx = encode_backward(params_img, ex, dx).flatten()
    gt = encode_backward(params_txt, et, dt).flatten()
    return value, gx, gt, grad_tau_v, grad_tau_t
