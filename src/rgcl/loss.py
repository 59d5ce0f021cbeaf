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
verify's degeneration check; its block pass _contrast gives per block of
anchors the hardness rows of each direction of the loss, a caller's kernel
that turns them into pair weights, and the embedding gradients.  Every
block of a pass reuses one workspace of score blocks, hardness rows, pair
weights and one (n, d) gradient buffer, allocated by the first block and
sliced by a short last one.  The exact objective and evaluation use blocks
of _EVAL_ROWS anchors, so memory is O(n * (_EVAL_ROWS + d)); the block size
fixes the order of the negative-role gradient sums, and so the last bits of
the parameter gradient.
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


def _offdiag_rows(mats, lo: int, rows: np.ndarray, scratch, scatter: bool = False) -> None:
    """Gather the off-diagonal entries of each C-ordered (r, n) block in mats,
    whose row k holds its diagonal entry in column lo + k, side by side into
    rows (r, len(mats)*(n-1)), or scatter rows back into them.  A square
    matrix is the block r = n, lo = 0.  Row-major, those entries are the head
    of row 0, r-1 stretches of n entries between consecutive diagonal entries
    (for a square matrix: a.reshape(-1)[1:].reshape(n-1, n+1)[:, :n]), and
    the tail of row r-1.  One block is copied straight to or from rows, and
    scratch is not used; with more, each passes through the head of scratch,
    a contiguous array of at least r*(n-1) entries."""
    r, n = mats[0].shape
    staged = len(mats) > 1
    tmp = scratch.reshape(-1)[: r * (n - 1)].reshape(r, n - 1) if staged else rows
    buf, k, last = tmp.reshape(-1), lo + (r - 1) * n, lo + (r - 1) * (n + 1)
    for j, a in enumerate(mats):
        flat = a.reshape(-1)
        block = rows[:, j * (n - 1) : (j + 1) * (n - 1)]
        if scatter and staged:
            np.copyto(tmp, block)
        for part, tmp_part in (
            (flat[:lo], buf[:lo]),
            (flat[lo + 1 : last + 1].reshape(-1, n + 1)[:, :n], buf[lo:k].reshape(-1, n)),
            (flat[last + 1 :], buf[k:]),
        ):
            if scatter:
                part[...] = tmp_part
            else:
                tmp_part[...] = part
        if staged and not scatter:
            np.copyto(block, tmp)


def _h_rows(y, negs, lo: int, hi: int, work):
    """Hardness rows (hi-lo, len(negs)*(n-1)) of the anchors at rows lo..hi-1
    of y, and their score blocks y[lo:hi] @ neg.T, one GEMM each, all in
    buffers of the workspace dict work (see _rows).  Anchor i's negatives are
    the rows j != i of each matrix in negs, side by side, and its positive is
    row i of negs[-1]."""
    r, n = hi - lo, y.shape[0]
    blocks = [np.matmul(y[lo:hi], neg.T, out=_rows(work, ("scores", k), r, n)) for k, neg in enumerate(negs)]
    h = _rows(work, "hardness", r, len(negs) * (n - 1))
    # the pair weights are written only later (see _contrast)
    _offdiag_rows(blocks, lo, h, _rows(work, "weights", *h.shape) if len(negs) > 1 else None)
    h -= blocks[-1].diagonal(lo)[:, None]
    return h, blocks


def _anchor_h_rows(towers, lo: int, hi: int, work):
    """The one direction of the unimodal loss over the anchors at rows lo..hi-1
    of towers = [ya, yb], as (anchor tower, negative towers, hardness rows,
    score blocks): anchor i is row i of ya, its positive row i of yb, its
    negatives both views of every other sample.  work holds one workspace
    dict per anchor tower."""
    return [(0, (0, 1), *_h_rows(towers[0], towers, lo, hi, work[0]))]


def _bimodal_h_rows(towers, lo: int, hi: int, work):
    """Both directions of the bimodal loss over the pairs at rows lo..hi-1 of
    towers = [x, t], as in _anchor_h_rows: image anchor i over the texts other
    than t_i, text anchor i over the images other than x_i.  Both come from
    the same code path, so mirrored towers give bitwise-equal rows."""
    x, t = towers
    return [(0, (1,), *_h_rows(x, [t], lo, hi, work[0])), (1, (0,), *_h_rows(t, [x], lo, hi, work[1]))]


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


def _add_embedding_grads(blocks, lo: int, y, negs, anchor_rows, other, role) -> None:
    """Embedding gradients of sum_ij w_ij h_ij over the anchors at rows
    lo..hi-1 of y, laid out as in _h_rows; blocks holds one (hi-lo, n) weight
    block per matrix in negs, zero where j = i.  Writes the anchor role of
    those rows, sum_k blocks[k] @ negs[k] - rs * negs[-1][lo:hi] with rs the
    weights' row sums, into anchor_rows.  Per matrix in negs, builds its
    negative role blocks[k].T @ y[lo:hi], the last plus the positive role
    -rs * y[lo:hi] on rows lo..hi-1, in the (n, d) buffer role and adds it
    into other[k]."""
    hi = lo + blocks[0].shape[0]
    rs = blocks[0].sum(axis=1)
    np.matmul(blocks[0], negs[0], out=anchor_rows)
    for w, neg in zip(blocks[1:], negs[1:]):
        rs = rs + w.sum(axis=1)
        anchor_rows += w @ neg
    anchor_rows -= rs[:, None] * negs[-1][lo:hi]
    for k, w in enumerate(blocks):
        np.matmul(w.T, y[lo:hi], out=role)
        if k == len(blocks) - 1:
            role[lo:hi] += -rs[:, None] * y[lo:hi]
        other[k] += role


def _contrast(towers, h_rows, rows: int, kernel):
    """The block pass of every contrastive computation.  For each block of up
    to `rows` anchors, h_rows(towers, lo, hi, work) gives each direction of
    the loss as (anchor tower, negative towers, hardness rows, score blocks),
    towers by index and laid out as in _h_rows; kernel(lo, hi, hs, ws) turns
    the hardness rows hs into pair weights written into ws, which are
    scattered into the score blocks.  Returns per tower the embedding
    gradient of the weighted hardness sum.

    Every block runs in one workspace, one dict per anchor tower plus an
    (n, d) role buffer, which a short last block slices; it is dropped on
    return, before the caller back-propagates.  The unimodal pass stages its
    off-diagonal copies through rows that are free at that moment: the
    gather in _h_rows through the weight rows, so the kernel must write every
    entry of ws, and the scatter through the hardness rows, so hs hold
    nothing once the kernel returns.  A separate staging buffer would add
    0.24 MB traced and about 0.7 MB to the peak RSS of a default unimodal
    training run."""
    n = towers[0].shape[0]
    # the anchor-role rows of each tower that anchors a direction, kept apart
    # from every tower's summed negative and positive roles so mirrored
    # bimodal towers see the same operations in the same order
    anchor, other = {}, [np.zeros_like(y) for y in towers]
    work, role = [{} for _ in towers], np.empty_like(towers[0])
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        directions = h_rows(towers, lo, hi, work)
        ws = [_rows(work[a], "weights", *h.shape) for a, _, h, _ in directions]
        kernel(lo, hi, [d[2] for d in directions], ws)
        for (a, negs, h, blocks), w in zip(directions, ws):
            _offdiag_rows(blocks, lo, w, h, scatter=True)
            for block in blocks:
                block.reshape(-1)[lo :: n + 1] = 0.0
            if a not in anchor:
                anchor[a] = np.empty_like(towers[a])  # every block writes its rows
            _add_embedding_grads(blocks, lo, towers[a], [towers[j] for j in negs], anchor[a][lo:hi],
                                 [other[j] for j in negs], role)
    for a, rows_a in anchor.items():
        other[a] += rows_a
    return other


def _encoder_pass(params, towers, h_rows, rows: int, kernel):
    """Encode each tower, given as (index into params, input rows), run
    _contrast over the embeddings with h_rows, rows and kernel, and
    back-propagate each tower's embedding gradient.  Returns per encoder in
    params its flat parameter gradient, summed over the towers it encodes."""
    batches = [encode(params[e], inputs) for e, inputs in towers]
    dys = _contrast([b.embeddings for b in batches], h_rows, rows, kernel)
    grads = [None] * len(params)
    for (e, _), batch, dy in zip(towers, batches, dys):
        grad = encode_backward(params[e], batch, dy).flatten()
        grads[e] = grad if grads[e] is None else grads[e] + grad
    return grads


def _full_batch(params, towers, h_rows, taus, cfg: RgclConfig):
    """Exact objective terms and gradients of either modality, in blocks of
    _EVAL_ROWS anchors; params, towers and h_rows are as in _encoder_pass,
    taus the temperatures of each direction of the loss.  Returns per
    direction the terms tau log g + (tau - tau0) rho and the temperature
    gradient, and per encoder its flat parameter gradient."""
    n = len(towers[0][1])
    if n < 2:
        raise ValueError("need at least 2 samples")
    taus = [np.asarray(t, dtype=np.float64) for t in taus]
    stats = [(np.empty(n), np.empty(n), np.empty(n)) for _ in taus]

    def kernel(lo, hi, hs, ws):
        for h, w, tau, (g, ratio, eph) in zip(hs, ws, taus, stats):
            g[lo:hi], _, ratio[lo:hi], eph[lo:hi], _ = _softmax_rows(h, tau[lo:hi], cfg.log_epsilon, n, out=w)

    grads = _encoder_pass(params, towers, h_rows, _EVAL_ROWS, kernel)
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
    n = towers[0].shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples")
    total, work = 0.0, [{} for _ in towers]
    for lo in range(0, n, _EVAL_ROWS):
        hs = [d[2] for d in h_rows(towers, lo, min(lo + _EVAL_ROWS, n), work)]
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
    towers = [encode(params, views.views_a).embeddings, encode(params, views.views_b).embeddings]
    return _objective(towers, _anchor_h_rows, [taus], cfg)


def unimodal_value_and_grads(params: EncoderParams, views: ViewPairs, taus, cfg: RgclConfig):
    """Objective value plus exact gradients w.r.t. the flattened encoder
    parameters and the temperature vector.  Vectorized over anchors."""
    require_same_length(views=views.views_a, taus=taus)
    [(terms, grad_tau)], [grad_w] = _full_batch([params], [(0, views.views_a), (0, views.views_b)],
                                                _anchor_h_rows, [taus], cfg)
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
        [params_img, params_txt], [(0, images), (1, texts)], _bimodal_h_rows, [taus_v, taus_t], cfg
    )
    return float(np.mean(terms_v + terms_t)), gx, gt, grad_tau_v, grad_tau_t
