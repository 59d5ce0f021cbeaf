"""Verbatim copies of the original full-batch evaluations and step cores,
of the original loop-based simplex grid oracle, and of rgcl verify's
estimator_degeneration check with the test-only full-batch estimator and
exact-s helper it ran on.

The suite compares the shared row kernel and the blocked evaluation with
these, bit for bit: the rewrite may change memory layout, allocation and
the order in which independent rows are processed, but never an operand,
an operation order or a reduction length.  The copies keep the original
boolean-mask gathers and scatters and the encode_backward that re-runs the
forward pass.  The grid copy scores one point at a time; the vectorised
grid must return the same point and the same value.  The copied check
calls the copied estimator, whose hardness rows come from the
_anchor_h_rows copy above; the production check builds the same direction
from the step's own pieces and must report the same figure.  Not collected
as tests; do not edit the copied bodies.
"""

from __future__ import annotations

import math

import numpy as np

from rgcl import loss, oracle
from rgcl.encoder import EncoderParams, encode, encode_backward
from rgcl.harness import _check, _small_instance
from rgcl.loss import RgclConfig, ViewPairs, kl_uniform, primal_rgcl_value
from rgcl.loss import _offdiag_rows, _softmax_rows, _unimodal_embedding_grads
from rgcl.numerics import RandomStream
from rgcl.optimizer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    OptimizerState,
    sample_batch,
)


def _anchor_h_rows(ya: np.ndarray, yb: np.ndarray):
    """Hardness rows for every anchor over the full negative sets.

    Anchor i is row i of ya, its positive is row i of yb, and its
    negatives are both views of every other sample (m = 2(n-1)).
    Returns (H, pos) where H is (n, 2(n-1)).
    """
    n = ya.shape[0]
    saa = ya @ ya.T
    sab = ya @ yb.T
    pos = np.diag(sab).copy()
    off = ~np.eye(n, dtype=bool)
    ha = saa[off].reshape(n, n - 1)
    hb = sab[off].reshape(n, n - 1)
    return np.concatenate([ha, hb], axis=1) - pos[:, None], pos


def unimodal_value_and_grads(params: EncoderParams, views: ViewPairs, taus, cfg: RgclConfig):
    """Objective value plus exact gradients w.r.t. the flattened encoder
    parameters and the temperature vector.  Vectorized over anchors."""
    n = views.n
    if n < 2:
        raise ValueError("need at least 2 samples")
    taus = np.asarray(taus, dtype=np.float64)
    ya = encode(params, views.views_a).embeddings
    yb = encode(params, views.views_b).embeddings
    hmat, _ = _anchor_h_rows(ya, yb)
    m = 2 * (n - 1)
    eps = cfg.log_epsilon

    hz = hmat / taus[:, None]
    shift = hz.max(axis=1, keepdims=True)
    ez = np.exp(hz - shift)
    sez = ez.sum(axis=1)
    lme = (shift[:, 0] + np.log(sez)) - math.log(m)  # log mean exp per anchor
    mean_exp = np.exp(lme)
    g = mean_exp + eps
    log_g = np.log(g)

    value = float(np.mean(taus * log_g + (taus - cfg.tau0) * cfg.rho))

    p = ez / sez[:, None]  # softmax rows
    eph = np.sum(p * hmat, axis=1)
    grad_tau = (-(mean_exp / g) * eph / taus + log_g + cfg.rho) / n

    # weights_ij = exp(h_ij/tau_i) / (m * g_i * n), split back into the
    # a-view and b-view negative blocks
    w = p * (mean_exp / g)[:, None] / n
    wa = np.zeros((n, n))
    wb = np.zeros((n, n))
    off = ~np.eye(n, dtype=bool)
    wa[off] = w[:, : n - 1].ravel()
    wb[off] = w[:, n - 1 :].ravel()

    row_a = wa.sum(axis=1)
    row_b = wb.sum(axis=1)
    rs = row_a + row_b
    # anchor role: dL/d ya_i += sum_j w_ij (neg_j - pos_i)
    dya = wa @ ya + wb @ yb - rs[:, None] * yb
    # negative role of the a-views
    dya += wa.T @ ya
    # positive role and negative role of the b-views
    dyb = -rs[:, None] * ya + wb.T @ ya

    ga = encode_backward(params, views.views_a, dya)
    gb = encode_backward(params, views.views_b, dyb)
    grad_w = ga.flatten() + gb.flatten()
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
    off = ~np.eye(n, dtype=bool)
    hx = sx[off].reshape(n, n - 1) - pos[:, None]
    ht = st[off].reshape(n, n - 1) - np.diag(st)[:, None]
    return hx, ht, pos


def _direction_grads(hmat, taus, cfg, n):
    """Shared per-direction weight computation: softmax-style weights and
    the temperature gradient, for hardness rows over m negatives."""
    m = hmat.shape[1]
    eps = cfg.log_epsilon
    hz = hmat / taus[:, None]
    shift = hz.max(axis=1, keepdims=True)
    ez = np.exp(hz - shift)
    sez = ez.sum(axis=1)
    lme = (shift[:, 0] + np.log(sez)) - math.log(m)
    mean_exp = np.exp(lme)
    g = mean_exp + eps
    log_g = np.log(g)
    p = ez / sez[:, None]
    eph = np.sum(p * hmat, axis=1)
    grad_tau = (-(mean_exp / g) * eph / taus + log_g + cfg.rho) / n
    weights = p * (mean_exp / g)[:, None] / n
    value_terms = taus * log_g + (taus - cfg.tau0) * cfg.rho
    return weights, grad_tau, value_terms


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
    x_emb = encode(params_img, images).embeddings
    t_emb = encode(params_txt, texts).embeddings
    hx, ht, _ = _bimodal_h_rows(x_emb, t_emb)

    wv, grad_tau_v, terms_v = _direction_grads(hx, taus_v, cfg, n)
    wt, grad_tau_t, terms_t = _direction_grads(ht, taus_t, cfg, n)
    value = float(np.mean(terms_v + terms_t))

    off = ~np.eye(n, dtype=bool)
    wvm = np.zeros((n, n))
    wtm = np.zeros((n, n))
    wvm[off] = wv.ravel()
    wtm[off] = wt.ravel()
    rv = wvm.sum(axis=1)
    rt = wtm.sum(axis=1)

    # anchor-role term first, negative/positive-role term second, in the
    # same order for both towers so mirrored inputs stay bitwise symmetric
    dx = (wvm @ t_emb - rv[:, None] * t_emb) + (wtm.T @ t_emb - rt[:, None] * t_emb)
    dt = (wtm @ x_emb - rt[:, None] * x_emb) + (wvm.T @ x_emb - rv[:, None] * x_emb)

    gx = encode_backward(params_img, images, dx).flatten()
    gt = encode_backward(params_txt, texts, dt).flatten()
    return value, gx, gt, grad_tau_v, grad_tau_t


def _batch_g_terms(hmat: np.ndarray, taus: np.ndarray, log_epsilon: float):
    """Shared per-row quantities: batch g, softmax rows, E_p[h], log-mean-exp
    kept shift-stable for temperatures down to the floor."""
    m = hmat.shape[1]
    hz = hmat / taus[:, None]
    shift = hz.max(axis=1, keepdims=True)
    ez = np.exp(hz - shift)
    sez = ez.sum(axis=1)
    lme = (shift[:, 0] + np.log(sez)) - math.log(m)
    mean_exp = np.exp(lme)
    g = mean_exp + log_epsilon
    p = ez / sez[:, None]
    eph = np.sum(p * hmat, axis=1)
    return g, mean_exp, p, eph


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


def _tau_side_update(
    opt, idx, taus, s_arr, u_arr, tau_arr, g, mean_exp, eph, cfg: RgclConfig, eta_tau: float
):
    """Shared per-anchor updates for one direction: s, u, and projected tau.

    Returns the fresh s values for the batch (used by the parameter
    gradient).  Mutates the state arrays in place.
    """
    n = s_arr.shape[0]
    scale = cfg.resolved_tau_grad_scale(n)
    init = opt.initialized[idx]
    s_new = np.where(init, (1.0 - cfg.beta0) * s_arr[idx] + cfg.beta0 * g, g)
    s_arr[idx] = s_new
    opt.min_g_seen = min(opt.min_g_seen, float(np.min(g)))
    opt.min_s_seen = min(opt.min_s_seen, float(np.min(s_new)))

    grad_tau = (-(mean_exp / s_new) * eph / taus + np.log(s_new) + cfg.rho) / n * scale
    u_new = (1.0 - cfg.beta1) * u_arr[idx] + cfg.beta1 * grad_tau
    u_arr[idx] = u_new
    tau_new = taus - eta_tau * u_new
    if not opt._disable_tau_projection:
        tau_new = np.clip(tau_new, cfg.tau0, cfg.tau_max)
    tau_arr[idx] = tau_new
    opt.min_tau_seen = min(opt.min_tau_seen, float(np.min(tau_new)))
    opt.max_tau_seen = max(opt.max_tau_seen, float(np.max(tau_new)))
    return s_new


def _step_unimodal_core(
    opt: OptimizerState,
    params: EncoderParams,
    inputs: np.ndarray,
    cfg: RgclConfig,
    batch_size: int,
    aug_strength: float,
    eta_tau: float,
) -> EncoderParams:
    n = inputs.shape[0]
    step_stream = RandomStream(opt.seed, ("train", str(opt.t)))
    idx, noise_a, noise_b = sample_batch(step_stream, n, batch_size, inputs.shape[1])
    views_a = inputs[idx] + aug_strength * noise_a
    views_b = inputs[idx] + aug_strength * noise_b

    ya = encode(params, views_a).embeddings
    yb = encode(params, views_b).embeddings
    hmat, _ = _anchor_h_rows(ya, yb)
    taus = opt.tau[idx].copy()
    g, mean_exp, p, eph = _batch_g_terms(hmat, taus, cfg.log_epsilon)

    s_new = _tau_side_update(
        opt, idx, taus, opt.s, opt.u, opt.tau, g, mean_exp, eph, cfg, eta_tau
    )
    opt.initialized[idx] = True

    # parameter gradient uses the temperatures the batch was scored with
    # and the freshly updated s
    w = p * (mean_exp / s_new)[:, None] / batch_size
    wa = np.zeros((batch_size, batch_size))
    wb = np.zeros((batch_size, batch_size))
    off = ~np.eye(batch_size, dtype=bool)
    wa[off] = w[:, : batch_size - 1].ravel()
    wb[off] = w[:, batch_size - 1 :].ravel()
    row_sum = wa.sum(axis=1) + wb.sum(axis=1)
    dya = wa @ ya + wb @ yb - row_sum[:, None] * yb + wa.T @ ya
    dyb = -row_sum[:, None] * ya + wb.T @ ya
    grad_w = (
        encode_backward(params, views_a, dya).flatten()
        + encode_backward(params, views_b, dyb).flatten()
    )

    new_flat = _param_update(opt, params.flatten(), grad_w, cfg)
    opt.t += 1
    return params.from_flat(new_flat)


def step_bimodal(
    opt: BimodalOptimizerState,
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
    if n < 2:
        raise ValueError("dataset must have at least 2 pairs")
    step_stream = RandomStream(opt.seed, ("train", str(opt.t)))
    if not (2 <= batch_size <= n):
        raise ValueError("need 2 <= batch_size <= n")
    idx = np.sort(step_stream.split("indices").choice_without_replacement(n, batch_size))

    x_emb = encode(params_img, images[idx]).embeddings
    t_emb = encode(params_txt, texts[idx]).embeddings
    hx, ht, _ = _bimodal_h_rows(x_emb, t_emb)

    taus_v = opt.tau_v[idx].copy()
    taus_t = opt.tau_t[idx].copy()
    gv, mev, pv, ephv = _batch_g_terms(hx, taus_v, cfg.log_epsilon)
    gt_, met, pt, epht = _batch_g_terms(ht, taus_t, cfg.log_epsilon)

    sv_new = _tau_side_update(
        opt, idx, taus_v, opt.s_v, opt.u_v, opt.tau_v, gv, mev, ephv, cfg, cfg.eta_tau
    )
    st_new = _tau_side_update(
        opt, idx, taus_t, opt.s_t, opt.u_t, opt.tau_t, gt_, met, epht, cfg, cfg.eta_tau
    )
    opt.initialized[idx] = True

    wv = pv * (mev / sv_new)[:, None] / batch_size
    wt = pt * (met / st_new)[:, None] / batch_size
    off = ~np.eye(batch_size, dtype=bool)
    wvm = np.zeros((batch_size, batch_size))
    wtm = np.zeros((batch_size, batch_size))
    wvm[off] = wv.ravel()
    wtm[off] = wt.ravel()
    rv = wvm.sum(axis=1)
    rt = wtm.sum(axis=1)

    # mirror-symmetric evaluation order (see bimodal_value_and_grads)
    dx = (wvm @ t_emb - rv[:, None] * t_emb) + (wtm.T @ t_emb - rt[:, None] * t_emb)
    dt = (wtm @ x_emb - rt[:, None] * x_emb) + (wvm.T @ x_emb - rv[:, None] * x_emb)

    gx = encode_backward(params_img, images[idx], dx).flatten()
    gtx = encode_backward(params_txt, texts[idx], dt).flatten()
    grad = np.concatenate([gx, gtx])

    flat = np.concatenate([params_img.flatten(), params_txt.flatten()])
    new_flat = _param_update(opt, flat, grad, cfg)
    opt.t += 1
    n_img = params_img.n_params
    return params_img.from_flat(new_flat[:n_img]), params_txt.from_flat(new_flat[n_img:])


def _grid_best(hv, rho, tau0, lows, highs, res):
    """Best feasible grid point in a box of the free coordinates."""
    axes = [np.arange(lo, hi + 0.5 * res, res) for lo, hi in zip(lows, highs)]
    axes = [np.clip(a, 0.0, 1.0) for a in axes]
    if len(axes) == 1:
        free = axes[0][:, None]
    else:
        a, b = np.meshgrid(axes[0], axes[1], indexing="ij")
        keep = a + b <= 1.0 + 1e-12
        free = np.stack([a[keep], b[keep]], axis=1)
    best_p, best_v = None, -np.inf
    for row in free:
        last = 1.0 - row.sum()
        if last < -1e-12:
            continue
        p = np.append(row, max(last, 0.0))
        if kl_uniform(p) > rho:
            continue
        v = primal_rgcl_value(hv, p, tau0)
        if v > best_v:
            best_v, best_p = v, p
    return best_p, best_v


def grid_search_simplex(h, rho: float, tau0: float, step: float = 0.005, refine: int = 4):
    """Brute-force grid search over the simplex, m in {2, 3} only.

    The optimum often sits on the KL-ball boundary where the objective has
    nonzero slope, so a single pass at resolution `step` only gets within
    O(step) in value; each refinement round re-grids a shrinking window
    around the incumbent at 10x finer resolution.
    """
    hv = np.asarray(h, dtype=np.float64)
    m = len(hv)
    if m > 3:
        raise ValueError("grid oracle limited")
    if step > 0.01:
        raise ValueError("step must be <= 0.01")
    k = m - 1  # free coordinates
    lows, highs = [0.0] * k, [1.0] * k
    res = step
    best_p, best_v = _grid_best(hv, rho, tau0, lows, highs, res)
    for _ in range(refine):
        # near the KL-ball boundary the feasible grid points are sparse, so
        # the incumbent can sit several coarse steps from the optimum; keep
        # the re-grid window wide enough to cover that
        lows = [max(0.0, best_p[i] - 4.0 * res) for i in range(k)]
        highs = [min(1.0, best_p[i] + 4.0 * res) for i in range(k)]
        res /= 10.0
        p, v = _grid_best(hv, rho, tau0, lows, highs, res)
        if v > best_v:
            best_p, best_v = p, v
    return best_p, best_v


def grad_w_estimator(
    params: EncoderParams,
    views_a: np.ndarray,
    views_b: np.ndarray,
    taus: np.ndarray,
    s_values: np.ndarray,
    log_epsilon: float = 0.0,
):
    """(1/B) sum_i (tau_i / s_i) grad_w g_i over the batch, as a flat vector.

    The batch negatives of anchor i are both views of every other batch
    member; the gradient flows through anchor, positive, and negative roles.
    """
    batch = views_a.shape[0]
    taus = np.asarray(taus, dtype=np.float64)
    s_values = np.asarray(s_values, dtype=np.float64)
    if taus.shape[0] != batch or s_values.shape[0] != batch:
        raise ValueError("per-anchor state length does not match the batch")
    if np.any(s_values <= 0):
        raise ValueError("s must be positive")
    ea = encode(params, views_a)
    eb = encode(params, views_b)
    hmat, _ = _anchor_h_rows(ea.embeddings, eb.embeddings)
    # pair weight exp(h_ij/tau_i) / (m * s_i * B) = p_ij * mean_exp_i / (s_i B)
    w = _softmax_rows(hmat, taus, log_epsilon, batch, lambda g: s_values)[-1]
    wa, wb = np.zeros((batch, batch)), np.zeros((batch, batch))
    _offdiag_rows([wa, wb], 0, batch, w, scatter=True)
    dya, dyb = _unimodal_embedding_grads(wa, wb, ea.embeddings, eb.embeddings)
    return encode_backward(params, ea, dya).flatten() + encode_backward(params, eb, dyb).flatten()


def _vcheck_degeneration(seed):
    params, views, taus, cfg0 = _small_instance(seed, n=6, d=4)
    cfg = RgclConfig(rho=cfg0.rho, tau0=cfg0.tau0, tau_init=0.6, beta0=1.0, beta1=1.0,
                     eta_w=0.05, eta_tau=0.05, tau_grad_scale=1.0)
    n = views.n
    tau = np.full(n, cfg.tau_init)
    p = params.copy()
    worst = 0.0
    for _ in range(5):
        _, ref_gw, ref_gt = oracle.full_batch_reference(p, views, tau, cfg)
        before_v = p.flatten()
        # full batch with zero augmentation noise would change the views;
        # feed the fixed views through a one-step manual equivalent instead
        gw = grad_w_estimator(p, views.views_a, views.views_b, tau,
                             _exact_s(p, views, tau, cfg))
        rel = float(np.linalg.norm(gw - ref_gw) / max(np.linalg.norm(ref_gw), 1e-12))
        worst = max(worst, rel)
        p = p.from_flat(before_v - cfg.eta_w * gw)
        tau = np.clip(tau - cfg.eta_tau * ref_gt, cfg.tau0, cfg.tau_max)
    return _check("estimator_degeneration", worst <= 1e-10, {"worst_rel_err": worst})


def _exact_s(params, views, taus, cfg):
    ya = encode(params, views.views_a).embeddings
    yb = encode(params, views.views_b).embeddings
    hmat, _ = loss._anchor_h_rows(ya, yb)
    return np.array([loss.g_value(hmat[i], taus[i], cfg.log_epsilon) for i in range(views.n)])
