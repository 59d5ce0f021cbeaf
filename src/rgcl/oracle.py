"""Independent verification solvers.

These deliberately avoid the code paths they are used to check:

* solve_primal works on the constrained weight problem directly, by
  bisecting the Lagrange multiplier of the KL constraint;
* grid_search_simplex enumerates the simplex (m <= 3), scoring each pass
  with array operations but returning the point a point-by-point loop of
  kl_uniform and primal_rgcl_value would; its m = 3 refinement windows
  re-centre to follow the curved KL boundary;
* solve_dual_tau minimizes the one-dimensional dual by derivative-free
  golden-section search;
* finite_diff_grad is plain central differences;
* full_batch_reference recomputes the full objective and its gradients
  as straight-line per-anchor loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoder import EncoderParams, encode, encode_backward
from .loss import (
    HARDNESS_BOUND,
    RgclConfig,
    ViewPairs,
    dual_loss_anchor,
    kl_uniform,
    primal_rgcl_value,
)
from .numerics import softmax_shifted

__all__ = [
    "PrimalSolution",
    "solve_primal",
    "grid_search_simplex",
    "solve_dual_tau",
    "finite_diff_grad",
    "full_batch_reference",
    "full_batch_reference_bimodal",
]

_FULL_BATCH_CAP = 256


@dataclass
class PrimalSolution:
    p: np.ndarray
    lam: float
    value: float
    constraint_active: bool
    iterations: int


def solve_primal(h, rho: float, tau0: float, tol: float = 1e-10, max_iter: int = 200) -> PrimalSolution:
    """Maximize sum p_j h_j - tau0 KL(p, 1/m) subject to KL(p, 1/m) <= rho.

    The optimum has the form p(lam) = softmax(h / (lam + tau0)) with
    lam >= 0; KL(p(lam)) is decreasing in lam, so either lam = 0 is
    feasible or we bisect lam until KL(p(lam)) = rho.  tau0 = 0 is allowed
    (the lam -> 0 limit puts uniform mass on the argmax of h).
    """
    hv = np.asarray(h, dtype=np.float64)
    m = len(hv)
    if rho <= 0:
        raise ValueError("rho must be positive")
    if tau0 < 0:
        raise ValueError("tau0 must be nonnegative")
    if m < 2:
        raise ValueError("need at least 2 negatives")

    def weights_at(lam: float) -> np.ndarray:
        t = lam + tau0
        if t <= 0.0:
            # limit: uniform over the maximizers of h
            mask = hv >= hv.max() - 0.0
            p = np.where(mask, 1.0, 0.0)
            return p / p.sum()
        return softmax_shifted(hv / t)

    p0 = weights_at(0.0)
    if kl_uniform(p0) <= rho:
        return PrimalSolution(p0, 0.0, primal_rgcl_value(hv, p0, tau0), False, 0)

    lo, hi = 0.0, HARDNESS_BOUND / rho + 1.0
    if kl_uniform(weights_at(hi)) > rho:
        raise RuntimeError(
            "bisection bracket does not contain the multiplier: KL(%g) = %g > rho = %g"
            % (hi, kl_uniform(weights_at(hi)), rho)
        )
    it = 0
    while hi - lo > tol and it < max_iter:
        mid = 0.5 * (lo + hi)
        if kl_uniform(weights_at(mid)) > rho:
            lo = mid
        else:
            hi = mid
        it += 1
    if hi - lo > tol:
        raise RuntimeError(
            "bisection failed to converge: bracket width %g, residual KL %g"
            % (hi - lo, kl_uniform(weights_at(0.5 * (lo + hi))) - rho)
        )
    lam = 0.5 * (lo + hi)
    p = weights_at(lam)
    return PrimalSolution(p, lam, primal_rgcl_value(hv, p, tau0), True, it)


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

    Every point is scored at once on an open mesh of the axes; kl_uniform
    and primal_rgcl_value settle the points within _GRID_SLACK of rho or
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
    keep[near] = [kl_uniform(point(i)) <= rho for i in feasible[near]]
    feasible = feasible[keep]
    top = value.flat[feasible]
    best_p, best_v = None, -np.inf
    for i in feasible[top >= top.max(initial=-np.inf) - _GRID_SLACK]:
        p = point(i)
        v = primal_rgcl_value(hv, p, tau0)
        if v > best_v:
            best_v, best_p = v, p
    return best_p, best_v


def grid_search_simplex(h, rho: float, tau0: float, step: float = 0.005, refine: int = 4):
    """Brute-force grid search over the simplex, m in {2, 3} only.

    The optimum often sits on the KL-ball boundary where the objective has
    nonzero slope, so a single pass at resolution `step` only gets within
    O(step) in value; each refinement round re-grids a shrinking window
    around the incumbent at 10x finer resolution.  Along the curved
    boundary (m = 3) the objective is flat and the window may stop short
    of the optimum, so a round re-centres its window, at the same
    resolution, while the incumbent improves and lands in the window's
    outer half.  With one free coordinate (m = 2) the coarse incumbent is
    within one step of the optimum and no window re-centres.
    """
    hv = np.asarray(h, dtype=np.float64)
    m = len(hv)
    if m > 3:
        raise ValueError("grid oracle limited")
    if step > 0.01:
        raise ValueError("step must be <= 0.01")
    k = m - 1  # free coordinates
    res = step
    best_p, best_v = _grid_best(hv, rho, tau0, [0.0] * k, [1.0] * k, res)
    for _ in range(refine):
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


def solve_dual_tau(h, cfg: RgclConfig, tol: float = 1e-10):
    """Golden-section minimization of the dual loss over [tau0, tau_max].

    The dual objective is convex in tau (a perspective of log-sum-exp),
    so golden-section search is reliable.  Returns (tau_star, value).
    """
    hv = np.asarray(h, dtype=np.float64)
    a, b = cfg.tau0, cfg.tau_max
    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def f(t):
        return dual_loss_anchor(hv, t, cfg)

    c = b - (b - a) * invphi
    d = a + (b - a) * invphi
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * invphi
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * invphi
            fd = f(d)
    tau_star = 0.5 * (a + b)
    return tau_star, f(tau_star)


def finite_diff_grad(func, point, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    if not (1e-7 <= step <= 1e-3):
        raise ValueError("step must lie in [1e-7, 1e-3]")
    x = np.asarray(point, dtype=np.float64)
    grad = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += step
        xm[i] -= step
        fp, fm = func(xp), func(xm)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError("non-finite evaluation in finite differences")
        grad[i] = (fp - fm) / (2.0 * step)
    return grad


def full_batch_reference(params: EncoderParams, views: ViewPairs, taus, cfg: RgclConfig):
    """Exact objective and gradients, written as an unvectorized loop.

    Reference implementation for verifying the production path and the
    stochastic estimators.  Returns (value, grad_w_flat, grad_tau).
    """
    n = views.n
    if n > _FULL_BATCH_CAP:
        raise ValueError("full-batch reference capped at n <= %d" % _FULL_BATCH_CAP)
    taus = np.asarray(taus, dtype=np.float64)
    ya = encode(params, views.views_a).embeddings
    yb = encode(params, views.views_b).embeddings

    value = 0.0
    grad_tau = np.zeros(n)
    dya = np.zeros_like(ya)
    dyb = np.zeros_like(yb)
    for i in range(n):
        others = [j for j in range(n) if j != i]
        negs = np.concatenate([ya[others], yb[others]], axis=0)
        h = negs @ ya[i] - float(ya[i] @ yb[i])
        m = len(h)
        tau = taus[i]
        mean_exp = float(np.mean(np.exp(h / tau)))
        g = mean_exp + cfg.log_epsilon
        value += tau * math.log(g) + (tau - cfg.tau0) * cfg.rho
        dg_dtau = float(np.mean(np.exp(h / tau) * (-h / tau**2)))
        grad_tau[i] = (tau * dg_dtau / g + math.log(g) + cfg.rho) / n
        w = np.exp(h / tau) / (m * g * n)
        for k, j in enumerate(others):
            dya[i] += w[k] * (ya[j] - yb[i])
            dya[j] += w[k] * ya[i]
        for k, j in enumerate(others):
            wk = w[k + n - 1]
            dya[i] += wk * (yb[j] - yb[i])
            dyb[j] += wk * ya[i]
        dyb[i] -= float(np.sum(w)) * ya[i]
    value /= n

    ga = encode_backward(params, views.views_a, dya)
    gb = encode_backward(params, views.views_b, dyb)
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
    """Loop implementation of the bimodal objective and gradients.

    Returns (value, grad_w_img, grad_w_txt, grad_tau_v, grad_tau_t).
    """
    n = images.shape[0]
    if n > _FULL_BATCH_CAP:
        raise ValueError("full-batch reference capped at n <= %d" % _FULL_BATCH_CAP)
    taus_v = np.asarray(taus_v, dtype=np.float64)
    taus_t = np.asarray(taus_t, dtype=np.float64)
    x_emb = encode(params_img, images).embeddings
    t_emb = encode(params_txt, texts).embeddings

    value = 0.0
    grad_tau_v = np.zeros(n)
    grad_tau_t = np.zeros(n)
    dx = np.zeros_like(x_emb)
    dt = np.zeros_like(t_emb)
    for i in range(n):
        others = [j for j in range(n) if j != i]
        pos = float(x_emb[i] @ t_emb[i])

        hx = t_emb[others] @ x_emb[i] - pos
        tau = taus_v[i]
        mean_exp = float(np.mean(np.exp(hx / tau)))
        g = mean_exp + cfg.log_epsilon
        value += tau * math.log(g) + (tau - cfg.tau0) * cfg.rho
        dg = float(np.mean(np.exp(hx / tau) * (-hx / tau**2)))
        grad_tau_v[i] = (tau * dg / g + math.log(g) + cfg.rho) / n
        w = np.exp(hx / tau) / (len(hx) * g * n)
        for k, j in enumerate(others):
            dx[i] += w[k] * (t_emb[j] - t_emb[i])
            dt[j] += w[k] * x_emb[i]
        dt[i] -= float(np.sum(w)) * x_emb[i]

        ht = x_emb[others] @ t_emb[i] - pos
        tau = taus_t[i]
        mean_exp = float(np.mean(np.exp(ht / tau)))
        g = mean_exp + cfg.log_epsilon
        value += tau * math.log(g) + (tau - cfg.tau0) * cfg.rho
        dg = float(np.mean(np.exp(ht / tau) * (-ht / tau**2)))
        grad_tau_t[i] = (tau * dg / g + math.log(g) + cfg.rho) / n
        w = np.exp(ht / tau) / (len(ht) * g * n)
        for k, j in enumerate(others):
            dt[i] += w[k] * (x_emb[j] - x_emb[i])
            dx[j] += w[k] * t_emb[i]
        dx[i] -= float(np.sum(w)) * t_emb[i]
    value /= n

    gx = encode_backward(params_img, images, dx).flatten()
    gt = encode_backward(params_txt, texts, dt).flatten()
    return value, gx, gt, grad_tau_v, grad_tau_t
