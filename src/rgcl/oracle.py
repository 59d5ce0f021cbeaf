"""The paper's per-anchor definitions, and independent solvers that check
the training code against them.

hardness_scores, g_value, dual_loss_anchor, p_star, kl_uniform and
primal_rgcl_value define one anchor's robust loss in its dual form, in the
temperature, and its primal form, over weights on the simplex within KL
rho of uniform.  Training runs none of them, only rgcl.loss's block pass.

The solvers deliberately avoid the code paths they are used to check:

* solve_primal works on the constrained weight problem directly, by
  bisecting the Lagrange multiplier of the KL constraint, and
  solve_dual_tau minimizes the one-dimensional dual by derivative-free
  golden-section search; each is the one-row case of a routine that runs
  the searches of a (k, m) batch in _lockstep, one array call per pass;
* grid_search_simplex enumerates the simplex (m <= 3), scoring each pass
  with array operations but returning the point a point-by-point loop of
  kl_uniform and primal_rgcl_value would; its m = 3 refinement windows
  re-centre to follow the curved KL boundary;
* finite_diff_grad is plain central differences;
* full_batch_reference and full_batch_reference_bimodal recompute the
  full objective and its gradients in one straight-line per-anchor loop,
  _reference_loop, which uses none of loss's block machinery.

The three solvers refuse a NaN or infinite score, naming its index.  A
row's solution is the same, bit for bit, alone or in any batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoder import EncoderParams, encode, encode_backward
from .loss import HARDNESS_BOUND, RgclConfig, ViewPairs, require_same_length

__all__ = [
    "hardness_scores",
    "g_value",
    "dual_loss_anchor",
    "p_star",
    "kl_uniform",
    "primal_rgcl_value",
    "PrimalSolution",
    "solve_primal",
    "grid_search_simplex",
    "solve_dual_tau",
    "finite_diff_grad",
    "full_batch_reference",
    "full_batch_reference_bimodal",
]

_FULL_BATCH_CAP = 256
# solver settings, each described in the docstring of the solver using it
_PRIMAL_TOL = 1e-10
_PRIMAL_MAX_ITER = 200
_DUAL_TOL = 1e-10
_GRID_STEP = 0.005
_GRID_REFINE = 4
_FD_STEP = 1e-5


# The definitions take one row or a (k, m) batch of rows and reduce over the
# last axis by the ufunc calls ndarray.max and .sum make, without their Python
# wrappers; one row is scaled by floats, which numpy broadcasts at less cost.


def _floats(x) -> list:
    """The per-row figures x as a list of floats, one row's too."""
    return x.tolist() if x.ndim else [float(x)]


def _log_sum_exp(values):
    """log(sum(exp(v_j))) of each row, shifted by the row's max; safe for
    |v_j| up to ~700."""
    v = np.asarray(values, dtype=np.float64)
    top = np.maximum.reduce(v, -1)
    return top + np.log(np.add.reduce(np.exp(v - (top[..., None] if v.ndim > 1 else top)), -1))


def _softmax_shifted(values) -> np.ndarray:
    """Softmax of each row computed after subtracting the row's max, so it is
    invariant to adding a constant to a row and never overflows."""
    v = np.asarray(values, dtype=np.float64)
    e = np.exp(v - np.maximum.reduce(v, -1, None, None, v.ndim > 1))  # a batch keeps a column per row
    return e / np.add.reduce(e, -1, None, None, v.ndim > 1)


def _simplex(p) -> np.ndarray:
    """p as a float64 array, after refusing a point off the simplex over an
    anchor's negatives: a weight below -1e-12 or a sum more than 1e-10 from 1."""
    pv = np.asarray(p, dtype=np.float64)
    if not (np.all(pv >= -1e-12) and abs(np.add.reduce(pv, axis=None) - 1.0) <= 1e-10):  # NaN fails both
        raise ValueError("weights must lie on the simplex")
    return pv


def _finite_scores(h) -> np.ndarray:
    """h as a float64 array, after refusing a NaN or infinite score by the
    index of the first."""
    hv = np.asarray(h, dtype=np.float64)
    ok = np.isfinite(hv)
    if not ok.all():
        k = int(np.argmin(ok))
        raise ValueError("hardness score %d is %r: the solvers take finite scores only" % (k, float(hv[k])))
    return hv


def _kl(pv: np.ndarray):
    """KL(p, uniform) of each row of float64 weights the caller knows are on
    the simplex: sum p_j log(m p_j) over the row's positive weights."""
    if pv.ndim > 1 and not np.minimum.reduce(pv, None) > 0.0:
        # a zero left in place would shift the pairwise sum's blocks (m >= 8)
        return np.array([_kl(row) for row in pv])
    nz = pv[pv > 0.0] if pv.ndim == 1 else pv
    return np.add.reduce(nz * np.log(float(pv.shape[-1]) * nz), -1)


def _dual_rows(v, cfgs, taus) -> list:
    """tau log g + (tau - tau0) rho, log g by log-sum-exp, of each row of the
    scores v at its tau in taus under its config in cfgs: a list of floats."""
    log_m = math.log(v.shape[-1])
    lse = _floats(_log_sum_exp(v / (np.array(taus)[:, None] if v.ndim > 1 else taus[0])))
    return [tau * (x - log_m if not c.log_epsilon > 0.0 else float(np.logaddexp(x - log_m, math.log(c.log_epsilon))))
            + (tau - c.tau0) * c.rho for x, tau, c in zip(lse, taus, cfgs)]


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
    return _dual_rows(np.asarray(h, dtype=np.float64), [cfg], [tau])[0]


def p_star(h, tau: float) -> np.ndarray:
    """Closed-form worst-case weights: softmax of h / tau, checked to lie on
    the simplex (a NaN score or a zero tau does not)."""
    return _simplex(_softmax_shifted(np.asarray(h, dtype=np.float64) / tau))


def kl_uniform(p) -> float:
    """KL(p, uniform) = sum p_j log(m p_j), with 0 log 0 = 0, of weights p
    on the simplex."""
    return float(_kl(_simplex(p)))


def primal_rgcl_value(h, p, tau0: float) -> float:
    """sum p_j h_j - tau0 * KL(p, uniform), for weights p on the simplex."""
    v = np.asarray(h, dtype=np.float64)
    pv = _simplex(p)
    if len(pv) != len(v):
        raise ValueError("dimension mismatch")
    return float(pv @ v - tau0 * _kl(pv))


@dataclass
class PrimalSolution:
    p: np.ndarray
    lam: float
    value: float
    constraint_active: bool


def solve_primal(h, rho: float, tau0: float) -> PrimalSolution:
    """Maximize sum p_j h_j - tau0 KL(p, 1/m) subject to KL(p, 1/m) <= rho.

    The optimum has the form p(lam) = softmax(h / (lam + tau0)) with
    lam >= 0; KL(p(lam)) is decreasing in lam, so either lam = 0 is
    feasible or we bisect lam until KL(p(lam)) = rho, to a bracket of
    _PRIMAL_TOL within _PRIMAL_MAX_ITER halvings.  tau0 = 0 is allowed
    (the lam -> 0 limit puts uniform mass on the argmax of h).
    """
    return _primal_rows(_finite_scores(h)[None], [rho], [tau0])[0]


def _weights_at(hv, t):
    """p(lam) of each row of the scores hv at its t = lam + tau0 (a list):
    softmax(h / t), or for t <= 0 the limit, uniform over the row's maximizers."""
    if min(t) > 0.0 or not any(x <= 0.0 for x in t):  # a NaN t takes the softmax
        return _softmax_shifted(hv / (np.array(t)[:, None] if hv.ndim > 1 else t[0]))
    if hv.ndim > 1:
        return np.array([_weights_at(h, [x]) for h, x in zip(hv, t)])
    p = np.where(hv >= np.maximum.reduce(hv, None), 1.0, 0.0)
    return p / np.add.reduce(p, None)


def _lockstep(searches, score, hv, args) -> list:
    """The results of one search per row of the (k, m) array hv, run together:
    a search is a generator that yields each point it needs scored and is sent
    the score; each pass makes one score(open rows, their args, points) call."""
    points, results, rows, still = [next(s) for s in searches], [None] * len(hv), [], list(range(len(hv)))
    while still:
        if len(still) != len(rows):
            rows, at = still, (hv[still[0]] if len(still) == 1 else hv[still], [args[i] for i in still])
        still, pending = [], []
        for i, value in zip(rows, score(*at, points)):
            try:
                pending.append(searches[i].send(value))
                still.append(i)
            except StopIteration as done:
                results[i] = done.value
        points = pending
    return results


def _bisection(rho: float):
    """solve_primal's search for one row: yields each lam whose KL(p(lam)) it needs; returns (lam, active)."""
    if (yield 0.0) <= rho:
        return 0.0, False
    lo, hi, it = 0.0, HARDNESS_BOUND / rho + 1.0, 0
    if (kl := (yield hi)) > rho:
        raise RuntimeError("bisection bracket does not contain the multiplier: KL(%g) = %g > rho = %g"
                           % (hi, kl, rho))
    while hi - lo > _PRIMAL_TOL and it < _PRIMAL_MAX_ITER:
        mid, it = 0.5 * (lo + hi), it + 1
        if (yield mid) > rho:
            lo = mid
        else:
            hi = mid
    if hi - lo > _PRIMAL_TOL:
        raise RuntimeError("bisection failed to converge: bracket width %g, residual KL %g"
                           % (hi - lo, (yield 0.5 * (lo + hi)) - rho))
    return 0.5 * (lo + hi), True


def _primal_rows(hv, rho, tau0) -> list:
    """solve_primal of each row of the (k, m) finite scores hv, with its own rho and tau0 (lists)."""
    for r, t in zip(rho, tau0):
        if r <= 0 or t < 0:
            raise ValueError("rho must be positive" if r <= 0 else "tau0 must be nonnegative")
    if hv.shape[1] < 2:
        raise ValueError("need at least 2 negatives")
    found = _lockstep([_bisection(r) for r in rho], lambda h, t0, lams: _floats(_kl(_weights_at(
        h, [lam + t for lam, t in zip(lams, t0)]))), hv, tau0)
    p = _weights_at(hv, [lam + t for (lam, _), t in zip(found, tau0)])
    return [PrimalSolution(p[i], lam, primal_rgcl_value(hv[i], p[i], tau0[i]), active)
            for i, (lam, active) in enumerate(found)]


# The vectorised KL and value of a grid point can differ from kl_uniform and
# primal_rgcl_value by a few ulps; within this slack of rho or of the top
# value the scalar functions decide.
_GRID_SLACK = 1e-12
# Most times one refinement window re-centres on its incumbent.
_MAX_RECENTRES = 50


def _xlogmx(x, m):
    """x log(m x) elementwise with 0 log 0 = 0: one term of kl_uniform."""
    t = np.where(x > 0.0, x, 1.0)
    t *= m
    np.log(t, out=t)
    t *= x
    return t


def _grid_best(hv, rho, tau0, lows, highs, res):
    """Best feasible grid point in a box of the free coordinates: the first
    point, in grid order, with the greatest primal_rgcl_value.

    Every point is scored at once on an open mesh of the axes; kl_uniform's
    _kl and primal_rgcl_value settle the points within _GRID_SLACK of rho or
    of the top value, so the result is the one a point-by-point loop finds.
    """
    m = len(hv)
    axes = [np.clip(np.arange(lo, hi + 0.5 * res, res), 0.0, 1.0) for lo, hi in zip(lows, highs)]
    free = np.ix_(*axes)  # (n0,), or (n0, 1) and (1, n1)
    last = sum(free)
    # the loop's two tests: sum of the free coordinates, then last coordinate
    ok = last <= 1.0 + 1e-12
    np.subtract(1.0, last, out=last)
    ok &= last >= -1e-12
    np.maximum(last, 0.0, out=last)
    kl = sum(_xlogmx(c, m) for c in free) + _xlogmx(last, m)
    value = last * hv[-1]
    for c, h in zip(free, hv):
        value += c * h
    value -= tau0 * kl

    def point(i):
        at = np.unravel_index(i, last.shape)
        return np.array([a[j] for a, j in zip(axes, at)] + [last[at]])

    feasible = np.flatnonzero(ok & (kl <= rho + _GRID_SLACK))
    keep = np.ones(feasible.size, dtype=bool)
    near = np.flatnonzero(kl.flat[feasible] > rho - _GRID_SLACK)
    keep[near] = [_kl(point(i)) <= rho for i in feasible[near]]
    feasible = feasible[keep]
    top = value.flat[feasible]
    best_p, best_v = None, -np.inf
    for i in feasible[top >= top.max(initial=-np.inf) - _GRID_SLACK]:
        p = point(i)
        v = primal_rgcl_value(hv, p, tau0)
        if v > best_v:
            best_v, best_p = v, p
    return best_p, best_v


def grid_search_simplex(h, rho: float, tau0: float):
    """Brute-force grid search over the simplex, m in {2, 3} only.

    The optimum often sits on the KL-ball boundary where the objective has
    nonzero slope, so a single pass at resolution _GRID_STEP only gets
    within O(_GRID_STEP) in value; each of _GRID_REFINE refinement rounds
    re-grids a shrinking window around the incumbent at 10x finer
    resolution.  Along the curved
    boundary (m = 3) the objective is flat and the window may stop short
    of the optimum, so a round re-centres its window, at the same
    resolution, while the incumbent improves and lands in the window's
    outer half.  With one free coordinate (m = 2) the coarse incumbent is
    within one step of the optimum and no window re-centres.  Raises
    ValueError when no point of the first pass lies in the KL ball.
    """
    hv = _finite_scores(h)
    m = len(hv)
    if m > 3:
        raise ValueError("grid oracle limited")
    k = m - 1  # free coordinates
    res = _GRID_STEP
    best_p, best_v = _grid_best(hv, rho, tau0, [0.0] * k, [1.0] * k, res)
    if best_p is None:
        raise ValueError("no point of the %g-step grid lies within KL rho = %g of uniform" % (res, rho))
    for _ in range(_GRID_REFINE):
        # near the KL-ball boundary the feasible grid points are sparse, so
        # the incumbent can sit several coarse steps from the optimum; keep
        # the re-grid window wide enough to cover that
        half = 4.0 * res
        res /= 10.0
        for _ in range(1 + _MAX_RECENTRES):
            centre = best_p
            lows = [max(0.0, centre[i] - half) for i in range(k)]
            highs = [min(1.0, centre[i] + half) for i in range(k)]
            p, v = _grid_best(hv, rho, tau0, lows, highs, res)
            if not v > best_v:
                break
            best_p, best_v = p, v
            if np.max(np.abs(p[:k] - centre[:k])) <= 0.5 * half:
                break
    return best_p, best_v


def solve_dual_tau(h, cfg: RgclConfig):
    """Golden-section minimization of the dual loss over [tau0, tau_max],
    to a bracket of _DUAL_TOL.

    The dual objective is convex in tau (a perspective of log-sum-exp),
    so golden-section search is reliable.  Returns (tau_star, value).
    """
    return _dual_tau_rows(_finite_scores(h)[None], [cfg])[0]


def _golden_section(a: float, b: float):
    """solve_dual_tau's search over [a, b]: yields each tau whose dual loss it needs; returns (tau*, value)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - (b - a) * invphi
    d = a + (b - a) * invphi
    fc, fd = (yield c), (yield d)
    while b - a > _DUAL_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * invphi
            fc = yield c
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * invphi
            fd = yield d
    tau_star = 0.5 * (a + b)
    return tau_star, (yield tau_star)


def _dual_tau_rows(hv, cfgs) -> list:
    """solve_dual_tau of each row of the (k, m) finite scores hv under its config in cfgs."""
    return _lockstep([_golden_section(cfg.tau0, cfg.tau_max) for cfg in cfgs], _dual_rows, hv, cfgs)


def finite_diff_grad(func, point) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector,
    with step _FD_STEP."""
    x = np.asarray(point, dtype=np.float64)
    grad = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += _FD_STEP
        xm[i] -= _FD_STEP
        fp, fm = func(xp), func(xm)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError("non-finite evaluation in finite differences")
        grad[i] = (fp - fm) / (2.0 * _FD_STEP)
    return grad


def _reference_loop(n: int, directions, cfg: RgclConfig) -> float:
    """The objective over n anchors as one straight-line per-anchor loop,
    which adds its gradients into the buffers of each direction of the loss
    (anchor, positive, negatives, taus, (grad_tau, d_anchor, d_positive,
    d_negatives)): anchor i is row i of anchor, its positive row i of
    positive, its negatives the rows j != i of each matrix in negatives, and
    each d_ buffer is the embedding gradient of the matrix in its place."""
    if n > _FULL_BATCH_CAP:
        raise ValueError("full-batch reference capped at n <= %d" % _FULL_BATCH_CAP)
    value = 0.0
    for i in range(n):
        others = [j for j in range(n) if j != i]
        for anchor, positive, negatives, taus, (grad_tau, d_anchor, d_positive, d_negatives) in directions:
            h = hardness_scores(anchor[i], positive[i], np.concatenate([neg[others] for neg in negatives]))
            m = len(h)
            tau = taus[i]
            g = g_value(h, tau, cfg.log_epsilon)
            value += tau * math.log(g) + (tau - cfg.tau0) * cfg.rho
            dg_dtau = float(np.mean(np.exp(h / tau) * (-h / tau**2)))
            grad_tau[i] = (tau * dg_dtau / g + math.log(g) + cfg.rho) / n
            w = np.exp(h / tau) / (m * g * n)
            for b, (neg, d_neg) in enumerate(zip(negatives, d_negatives)):
                for k, j in enumerate(others):
                    wk = w[k + b * (n - 1)]
                    d_anchor[i] += wk * (neg[j] - positive[i])
                    d_neg[j] += wk * anchor[i]
            d_positive[i] -= float(np.sum(w)) * anchor[i]
    return value / n


def full_batch_reference(params: EncoderParams, views: ViewPairs, taus, cfg: RgclConfig):
    """Exact objective and gradients, written as an unvectorized loop.

    Reference implementation for verifying the production path and the
    stochastic estimators.  Returns (value, grad_w_flat, grad_tau).
    """
    require_same_length(views=views.views_a, taus=taus)
    taus = np.asarray(taus, dtype=np.float64)
    ea, eb = encode(params, views.views_a), encode(params, views.views_b)
    ya, yb = ea.embeddings, eb.embeddings
    grad_tau = np.zeros(views.n)
    dya, dyb = np.zeros_like(ya), np.zeros_like(yb)
    value = _reference_loop(views.n, [(ya, yb, (ya, yb), taus, (grad_tau, dya, dyb, (dya, dyb)))], cfg)
    ga = encode_backward(params, ea, dya)
    gb = encode_backward(params, eb, dyb)
    return value, ga.flatten() + gb.flatten(), grad_tau


def full_batch_reference_bimodal(
    params_img: EncoderParams,
    params_txt: EncoderParams,
    images: np.ndarray,
    texts: np.ndarray,
    taus_v,
    taus_t,
    cfg: RgclConfig,
):
    """Loop implementation of the bimodal objective and gradients: per pair,
    the image anchor over the other texts, then the text anchor over the
    other images.

    Returns (value, grad_w_img, grad_w_txt, grad_tau_v, grad_tau_t).
    """
    require_same_length(images=images, texts=texts, taus_v=taus_v, taus_t=taus_t)
    n = images.shape[0]
    taus_v = np.asarray(taus_v, dtype=np.float64)
    taus_t = np.asarray(taus_t, dtype=np.float64)
    ex, et = encode(params_img, images), encode(params_txt, texts)
    x_emb, t_emb = ex.embeddings, et.embeddings
    grad_tau_v, grad_tau_t = np.zeros(n), np.zeros(n)
    dx, dt = np.zeros_like(x_emb), np.zeros_like(t_emb)
    value = _reference_loop(n, [
        (x_emb, t_emb, (t_emb,), taus_v, (grad_tau_v, dx, dt, (dt,))),
        (t_emb, x_emb, (x_emb,), taus_t, (grad_tau_t, dt, dx, (dx,))),
    ], cfg)
    gx = encode_backward(params_img, ex, dx).flatten()
    gt = encode_backward(params_txt, et, dt).flatten()
    return value, gx, gt, grad_tau_v, grad_tau_t
