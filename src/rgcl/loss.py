"""The training path of the robust contrastive loss.

The per-anchor loss is the dual tau log g + (tau - tau0) rho, with g the
mean of exp(h_j / tau) over the hardness scores h of the anchor's
negatives, and the full objective averages it over anchors, each with its
own learnable temperature in [tau0, tau_max].  The paper's scalar
per-anchor definitions, primal and dual, live in rgcl.oracle, which
checks this module against them.

This module provides the exact full-batch objective and its gradients
with respect to encoder parameters and temperatures.  One encoder pass,
_encoder_pass, serves the exact evaluation, both stochastic steps and
verify's degeneration check; a unimodal pass encodes both views as one
interleaved tower (see ViewPairs), a bimodal pass an image and a text
tower.  Its block pass _contrast scores a block of anchors, each row
divided by its temperature, against the negative tower with one GEMM; one
exp, one row sum and one row dot give the softmax statistics, a caller's
kernel turns them into one scale per row, and two GEMMs give the embedding
gradients, every per-row factor riding on an r x d matrix.  The exact
evaluations run blocks of _EVAL_ROWS anchors in one workspace, so memory
is O(n * (_EVAL_ROWS + d)); the block size fixes the order of the
negative-role gradient sums, and so the last bits of the parameter
gradient.  One row kernel, _softmax_rows, turns a block's softmax
statistics into the dual terms, their temperature derivatives and the pair
weights for every exact value and every step; the exact objective runs the
same score blocks and sums the kernel's dual terms, with no gradient GEMM,
a value apart from the gradients for finite differences.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .encoder import EncoderParams, _NonFiniteRow, encode, encode_backward

__all__ = [
    "HARDNESS_BOUND",
    "RgclConfig",
    "ViewPairs",
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


# Anchors per block of the full-batch evaluation, whose score and exponential
# blocks and gradient pieces then stay in cache.  The negative-role
# gradient sums run block by block, so the block size fixes their
# summation order, and the parameter gradient depends on it in its last bits.
_EVAL_ROWS = 16

# what a non-finite error calls the anchors of each side, by side count
_ANCHOR_NAMES = {1: ("anchor",), 2: ("image anchor", "text anchor")}
# and the rows of each tower's samples: the unimodal tower interleaves two views
_TOWER_ROWS = {1: (("view a", "view b"),), 2: (("image",), ("text",))}


def _require_finite_rows(names, index, **tables) -> None:
    """Raise ValueError naming names[side] and index[k] for the first (side,
    k) at which one of the (sides, len(index)) per-anchor tables is not finite."""
    ok = np.logical_and.reduce([np.isfinite(v) for v in tables.values()])
    if not ok.all():
        side, k = divmod(int(np.argmin(ok)), ok.shape[1])
        values = ", ".join("%s = %r" % (name, float(v[side, k])) for name, v in tables.items())
        raise ValueError("%s %d has a non-finite value: %s" % (names[side], index[k], values))


def _rows(work, key, r: int, width: int) -> np.ndarray:
    """Rows 0..r-1 of buffer `key` in the workspace dict work, which the first
    block of a pass allocates as (r, width): blocks run in order and only the
    last may be short, so every later block slices it."""
    if key not in work:
        work[key] = np.empty((r, width))
    return work[key][:r]


def _own_groups(block: np.ndarray, p: int, lo: int) -> np.ndarray:
    """The (r, p) view of each row's own group in the C-ordered (r, p*n) score
    or exponential block of the anchors lo..lo+r-1: row k's group is its
    anchor's columns p*(lo+k) .. p*(lo+k)+p-1, the last of them its positive."""
    return block.reshape(-1, p)[lo :: block.shape[1] // p + 1]


def _scores(y, neg, p: int, lo: int, hi: int, scale, work, key):
    """The scores (hi-lo, len(neg)) of the anchors lo..hi-1, anchor i being
    row p*i of y, each times its entry of scale, against every row of neg:
    one GEMM into buffer `key` of work (see _rows)."""
    anchors = np.multiply(y[p * lo : p * hi : p], scale[:, None], out=_rows(work, "scaled", hi - lo, y.shape[1]))
    return np.matmul(anchors, neg.T, out=_rows(work, key, hi - lo, len(neg)))


def _anchor_h_rows(towers, lo: int, hi: int, work, scales):
    """The one direction of the unimodal loss over the anchors lo..hi-1 of the
    interleaved tower towers = [y] (see ViewPairs), as (anchor tower, negative
    tower, group size, scores scaled by scales[0]): anchor i is row 2i of y,
    its positive row 2i+1, its negatives both views of every other sample."""
    [y] = towers
    return [(0, 0, 2, _scores(y, y, 2, lo, hi, scales[0], work, ("scores", 0)))]


def _bimodal_h_rows(towers, lo: int, hi: int, work, scales):
    """Both directions of the bimodal loss over the pairs lo..hi-1 of towers =
    [x, t], as in _anchor_h_rows: image anchor i over the texts, its positive
    t_i, and text anchor i over the images, its positive x_i.  Both come from
    the same code path, so mirrored towers give bitwise-equal blocks."""
    x, t = towers
    return [(0, 1, 1, _scores(x, t, 1, lo, hi, scales[0], work, ("scores", 0))),
            (1, 0, 1, _scores(t, x, 1, lo, hi, scales[1], work, ("scores", 1)))]


def _exp_rows(directions, lo: int, work):
    """Returns the blocks e = exp(z) of each direction's scaled scores z (r,
    p*n), z_ij = s_ij / tau_i (see _contrast), zeroed on each row's own group
    (see _own_groups), the first in buffer "exp" of work, each later one over
    the spent z before it; and the row kernel's input (3, directions, r), (S,
    log mean_exp, E_p[h] / tau): S sums e over the m negatives, p = e / S,
    and mean_exp = S exp(-z_iq) / m, q the positive.  No max is subtracted:
    unit rows score in [-1, 1] and tau >= _TAU0_MIN, so |z| <= log(DBL_MAX)
    / 2 and every e is a normal float."""
    es = [_rows(work, "exp", *directions[0][3].shape)] + [z for *_, z in directions[:-1]]
    stats = np.empty((3, len(directions), len(directions[0][3])))
    for (_, _, p, z), e, (sums, log_mean_exp, ehz) in zip(directions, es, stats.transpose(1, 0, 2)):
        np.exp(z, out=e)
        _own_groups(e, p, lo)[...] = 0.0
        e.sum(axis=1, out=sums)
        zq = _own_groups(z, p, lo)[:, -1]
        np.subtract(np.log(sums) - math.log(e.shape[1] - p), zq, out=log_mean_exp)
        np.subtract(np.vecdot(e, z) / sums, zq, out=ehz)
    return es, stats


def _softmax_rows(stats, taus, cfg: RgclConfig, count, denom=None):
    """The row kernel of every exact value and stochastic step, on _exp_rows'
    stats of all directions at the temperatures taus.  Returns (g, d, terms,
    dtau, c): g = mean_exp + log_epsilon; d = denom(g), or g when denom is
    None (the step passes its moving-average update of s); the dual terms tau
    log d + (tau - tau0) rho; their temperature derivatives dtau = log d + rho
    - ratio E_p[h] / tau, with ratio = mean_exp / d; and c = ratio / (S
    count), which turns e into the pair weights p * ratio / count."""
    sums, log_mean_exp, ehz = stats
    mean_exp = np.exp(log_mean_exp)
    g = mean_exp + cfg.log_epsilon
    d = g if denom is None else denom(g)
    ratio, log_d = mean_exp / d, np.log(d)
    return g, d, taus * log_d + (taus - cfg.tau0) * cfg.rho, log_d + cfg.rho - ratio * ehz, ratio / (sums * count)


def _contrast(towers, h_rows, rows: int, taus, kernel):
    """The block pass of every contrastive computation.  For each block of up
    to `rows` anchors, h_rows(towers, lo, hi, work, scales) gives each
    direction of the loss as (anchor tower, negative tower, group size,
    score block), towers by index and laid out as in _scores, each anchor's
    scores divided by its temperature in taus[direction], a (directions, n)
    array; _exp_rows turns each block into e and the kernel's input, and
    kernel(lo, hi, stats) returns per direction one scale c per row.
    Returns per tower the embedding gradient of the hardness sum weighted by
    c * e.  With e set to -S at each positive, the anchor role c * (e @ neg)
    and the negative and positive roles e.T @ (c * anchors) take one GEMM
    each; the anchor roles come after every direction's negative roles, so
    mirrored bimodal towers see the same operations in the same order."""
    n = sum(map(len, towers)) // 2  # every sample has two rows among the towers
    scales = 1.0 / np.asarray(taus, dtype=np.float64)
    dys, work = [np.zeros_like(y) for y in towers], {}
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        directions = h_rows(towers, lo, hi, work, scales[:, lo:hi])
        es, stats = _exp_rows(directions, lo, work)
        anchor_roles = []
        for k, ((a, b, p, _), e, sums, c) in enumerate(zip(directions, es, stats[0], kernel(lo, hi, stats))):
            neg, c = towers[b], c[:, None]
            _own_groups(e, p, lo)[:, -1] = -sums
            anchors = np.multiply(towers[a][p * lo : p * hi : p], c, out=_rows(work, "scaled", hi - lo, neg.shape[1]))
            dys[b] += np.matmul(e.T, anchors, out=_rows(work, "role", *neg.shape))
            anchor_roles.append((a, p, c, np.matmul(e, neg, out=_rows(work, ("anchor", k), hi - lo, neg.shape[1]))))
        for a, p, c, role in anchor_roles:
            dys[a][p * lo : p * hi : p] += np.multiply(role, c, out=role)
    return dys


def _encode_towers(params, inputs, index):
    """encode(p, x) for each encoder p in params and its tower's input rows
    x.  A non-finite row raises ValueError naming its sample, index[k] for the
    tower's k-th sample, and its view (see ViewPairs) or its tower."""
    batches = []
    for p, x, names in zip(params, inputs, _TOWER_ROWS[len(params)]):
        try:
            batches.append(encode(p, x))
        except _NonFiniteRow as err:
            k, row = divmod(err.row, len(names))
            raise ValueError("sample %d has a non-finite %s input" % (index[k], names[row])) from None
    return batches


def _encoder_pass(params, inputs, index, h_rows, rows: int, taus, kernel):
    """Encode each tower's input rows with its encoder in params (see
    _encode_towers for index), run _contrast over the embeddings with
    h_rows, rows, taus and kernel, and back-propagate each tower's embedding
    gradient.  Returns per encoder its flat parameter gradient."""
    batches = _encode_towers(params, inputs, index)
    dys = _contrast([b.embeddings for b in batches], h_rows, rows, taus, kernel)
    return [encode_backward(p, batch, dy).flatten() for p, batch, dy in zip(params, batches, dys)]


def _checked_taus(taus):
    """taus, the temperatures of each direction, as a (directions, n) float64
    array, after refusing fewer than 2 anchors or a temperature that is not
    finite or is below _TAU0_MIN (see _exp_rows) with ValueError naming its
    side and anchor.  The unimodal evaluations pass a (1, n) view of their
    vector, which a float64 vector needs no copy for."""
    taus = np.asarray(taus, dtype=np.float64)
    if taus.shape[1] < 2:
        raise ValueError("need at least 2 samples")
    for what, tau in zip(_ANCHOR_NAMES[len(taus)], taus):
        bad = ~np.isfinite(tau) | (tau < _TAU0_MIN)
        if np.any(bad):
            k = int(np.argmax(bad))
            why = "below C / log(DBL_MAX) = %.6g" % _TAU0_MIN if tau[k] < _TAU0_MIN else "not finite"
            raise ValueError("%s %d has tau = %r, %s" % (what, k, float(tau[k]), why))
    return taus


def _full_batch(params, inputs, h_rows, taus, cfg: RgclConfig):
    """Exact objective terms and gradients of either modality, in blocks of
    _EVAL_ROWS anchors; params, inputs and h_rows are as in _encoder_pass,
    taus the temperatures of each direction (see _checked_taus).  Returns per
    direction the terms tau log g + (tau - tau0) rho and the temperature
    gradient, and per encoder its parameter gradient."""
    taus = _checked_taus(taus)
    n = taus.shape[1]
    stats = np.empty((5, *taus.shape))  # (g, d, terms, dtau, c) of _softmax_rows

    def kernel(lo, hi, rows):
        stats[:, :, lo:hi] = _softmax_rows(rows, taus[:, lo:hi], cfg, n)
        return stats[4, :, lo:hi]

    grads = _encoder_pass(params, inputs, range(n), h_rows, _EVAL_ROWS, taus, kernel)
    grad_tau = stats[3] / n
    _require_finite_rows(_ANCHOR_NAMES[len(taus)], range(n), g=stats[0], grad_tau=grad_tau)
    return list(zip(stats[2], grad_tau)), grads


def _objective(params, inputs, h_rows, taus, cfg: RgclConfig) -> float:
    """Exact objective: the mean over anchors of the row kernel's dual terms,
    summed over the directions of the loss, on the score blocks that h_rows
    gives for blocks of _EVAL_ROWS anchors at their temperatures (see
    _checked_taus) of the towers params and inputs give (see _encoder_pass);
    the exp blocks are _exp_rows', and no gradient GEMM runs."""
    taus = _checked_taus(taus)
    n = taus.shape[1]
    towers = [batch.embeddings for batch in _encode_towers(params, inputs, range(n))]
    scales = 1.0 / taus
    terms, work = np.zeros(n), {}
    for lo in range(0, n, _EVAL_ROWS):
        hi = min(lo + _EVAL_ROWS, n)
        _, stats = _exp_rows(h_rows(towers, lo, hi, work, scales[:, lo:hi]), lo, work)
        terms[lo:hi] += np.add.reduce(_softmax_rows(stats, taus[:, lo:hi], cfg, n)[2])
    return float(np.mean(terms))


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
    return _objective([params], [views.views], _anchor_h_rows, np.asarray(taus, dtype=np.float64)[None], cfg)


def unimodal_value_and_grads(params: EncoderParams, views: ViewPairs, taus, cfg: RgclConfig):
    """Objective value plus exact gradients w.r.t. the flattened encoder
    parameters and the temperature vector.  Vectorized over anchors."""
    require_same_length(views=views.views_a, taus=taus)
    taus = np.asarray(taus, dtype=np.float64)[None]
    [(terms, grad_tau)], [grad_w] = _full_batch([params], [views.views], _anchor_h_rows, taus, cfg)
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
    return _objective([params_img, params_txt], [images, texts], _bimodal_h_rows, [taus_v, taus_t], cfg)


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
