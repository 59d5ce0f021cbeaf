import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgcl import loss
from rgcl.encoder import EncoderParams, init_encoder_params
from rgcl.loss import (
    HARDNESS_BOUND,
    RgclConfig,
    ViewPairs,
    bimodal_value_and_grads,
    _anchor_h_rows,
    _bimodal_h_rows,
    _TAU0_MIN,
    _contrast,
    _encoder_pass,
    _exp_rows,
    _softmax_rows,
    objective_bimodal,
    objective_unimodal,
    unimodal_value_and_grads,
)
from rgcl.harness import _vcheck_finite_diff
from rgcl.numerics import RandomStream
from rgcl.oracle import (
    dual_loss_anchor,
    full_batch_reference,
    full_batch_reference_bimodal,
    g_value,
    hardness_scores,
    kl_uniform,
    p_star,
    primal_rgcl_value,
)

hvals = st.lists(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), min_size=2, max_size=8
)


def assert_finite_diff(*cases):
    """rgcl verify's finite-difference check passes each (name, exact, point, func) of cases."""
    assert [check for check in _vcheck_finite_diff(cases) if not check["passed"]] == []


def unit(v):
    return np.asarray(v, dtype=np.float64) / np.linalg.norm(v)


class TestConfig:
    def test_tau_max_and_floor(self):
        cfg = RgclConfig(rho=0.3, tau0=0.05, tau_init=0.1)
        assert cfg.tau_max == pytest.approx(0.05 + 2.0 / 0.3)
        assert cfg.g_floor == pytest.approx(math.exp(-2.0 / cfg.tau_max))

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            RgclConfig(rho=-1.0)
        with pytest.raises(ValueError):
            RgclConfig(tau0=0.0)
        with pytest.raises(ValueError):
            RgclConfig(beta0=0.0)
        with pytest.raises(ValueError):
            RgclConfig(rho=2.0, tau0=0.05, tau_init=5.0)  # above tau_max
        # a negative scale would turn the temperature update into ascent on the dual
        with pytest.raises(ValueError, match="tau_grad_scale must be nonnegative, not -1.0"):
            RgclConfig(tau_grad_scale=-1.0)
        RgclConfig(tau_grad_scale=0.0)  # like eta_tau = 0, freezes the temperatures
        for key in ["rho", "tau0", "tau_init", "beta0", "beta1", "eta_w", "eta_tau",
                    "tau_grad_scale", "log_epsilon"]:
            for bad in [float("nan"), float("inf"), np.float32("nan")]:
                with pytest.raises(ValueError, match=key):
                    RgclConfig(**{key: bad})

    def test_tau0_float64_bound(self):
        # g <= exp(C / tau0) must fit in a float64
        bound = HARDNESS_BOUND / math.log(sys.float_info.max)
        assert math.isfinite(math.exp(HARDNESS_BOUND / bound))
        RgclConfig(tau0=bound, tau_init=0.1)
        RgclConfig(tau0=0.005, tau_init=0.1)
        for tau0 in (0.0002, 0.001, np.nextafter(bound, 0.0)):
            with pytest.raises(ValueError, match=r"tau0 must be >= C / log\(DBL_MAX\) = 0\.00281776"):
                RgclConfig(tau0=tau0, tau_init=0.1)

    def test_resolved_scale(self):
        assert RgclConfig(tau_grad_scale=None).resolved_tau_grad_scale(37) == 37.0
        assert RgclConfig(tau_grad_scale=1.0).resolved_tau_grad_scale(37) == 1.0


class TestHardness:
    def test_arithmetic(self):
        anchor = np.array([1.0, 0.0])
        positive = unit([0.9, np.sqrt(1 - 0.81)])
        negative = unit([0.3, np.sqrt(1 - 0.09)])
        h = hardness_scores(anchor, positive, [negative])
        assert isinstance(h, np.ndarray) and h.shape == (1,)
        assert h[0] == pytest.approx(0.3 - 0.9, abs=1e-12)

    def test_negative_equal_positive(self):
        anchor = unit([1.0, 1.0])
        positive = unit([0.0, 1.0])
        h = hardness_scores(anchor, positive, [positive])
        assert h[0] == pytest.approx(0.0, abs=1e-15)

    def test_matches_independent_dot_products(self):
        stream = RandomStream(0, ("hard",))
        anchor = unit(stream.normal(4))
        positive = unit(stream.normal(4))
        negatives = np.stack([unit(stream.normal(4)) for _ in range(5)])
        h = hardness_scores(anchor, positive, negatives)
        want = np.array([float(n @ anchor) - float(anchor @ positive) for n in negatives])
        np.testing.assert_allclose(h, want, atol=1e-14)
        assert np.all(np.abs(h) <= HARDNESS_BOUND)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hardness_scores(np.ones(2), np.ones(2), np.zeros((0, 2)))


class TestGValue:
    def test_zero_hardness(self):
        assert g_value([0.0, 0.0], 0.5) == pytest.approx(1.0, abs=1e-15)
        assert g_value([0.0, 0.0], 0.5, log_epsilon=0.1) == pytest.approx(1.1, abs=1e-15)

    def test_constant_hardness(self):
        assert g_value([0.7, 0.7, 0.7], 0.35) == pytest.approx(math.exp(2.0), rel=1e-12)

    def test_reference_value(self):
        assert g_value([0.0, -1.0], 1.0) == pytest.approx(0.68394, abs=1e-5)


class TestDualLoss:
    def test_constant_hardness_collapses(self):
        cfg = RgclConfig(rho=0.3, tau0=0.05, tau_init=0.1)
        for c in (-1.0, 0.0, 0.5):
            for tau in (0.2, 1.0):
                want = c + (tau - cfg.tau0) * cfg.rho
                assert dual_loss_anchor([c, c, c], tau, cfg) == pytest.approx(want, abs=1e-12)

    def test_fixed_tau_identity_with_plain_contrastive(self):
        stream = RandomStream(1, ("dual",))
        cfg = RgclConfig(rho=0.5, tau0=0.05, tau_init=0.1)
        for i in range(20):
            m = 3 + int(stream.integers(0, 5))
            h = np.clip(stream.normal(m), -2, 2)
            tau = 0.1 + float(stream.uniform())
            plain = tau * math.log(float(np.sum(np.exp(h / tau))))
            want = plain - tau * math.log(m) + (tau - cfg.tau0) * cfg.rho
            assert dual_loss_anchor(h, tau, cfg) == pytest.approx(want, abs=1e-12)

    def test_reference_value(self):
        cfg = RgclConfig(rho=0.3, tau0=0.05, tau_init=0.1)
        # 1 * ln((1 + e^-1)/2) + (1 - 0.05) * 0.3, evaluated independently
        want = math.log((1.0 + math.exp(-1.0)) / 2.0) + 0.95 * 0.3
        assert want == pytest.approx(-0.0949, abs=1e-4)
        assert dual_loss_anchor([0.0, -1.0], 1.0, cfg) == pytest.approx(want, abs=1e-12)


class TestPStar:
    def test_reference_value(self):
        p = p_star([0.0, -1.0], 1.0)
        assert p[0] == pytest.approx(0.7311, abs=1e-4)
        assert p[1] == pytest.approx(0.2689, abs=1e-4)

    def test_monotone_in_hardness(self):
        p = p_star([0.5, -0.3, 1.2, 0.0], 0.7)
        h = np.array([0.5, -0.3, 1.2, 0.0])
        order = np.argsort(h)
        assert np.all(np.diff(p[order]) > 0)

    @given(hvals, st.floats(min_value=0.05, max_value=5.0))
    @settings(deadline=None)
    def test_on_simplex(self, h, tau):
        p = p_star(h, tau)
        assert np.all(p >= 0)
        assert np.sum(p) == pytest.approx(1.0, abs=1e-12)


class TestKlUniform:
    def test_uniform_is_zero(self):
        assert kl_uniform(np.ones(7) / 7) == pytest.approx(0.0, abs=1e-15)

    def test_reference_value(self):
        want = 0.8 * math.log(1.6) + 0.2 * math.log(0.4)
        assert kl_uniform([0.8, 0.2]) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.1927, abs=1e-4)

    def test_one_hot(self):
        assert kl_uniform([0.0, 0.0, 1.0, 0.0]) == pytest.approx(math.log(4), abs=1e-12)

    @given(hvals, st.floats(min_value=0.05, max_value=5.0))
    @settings(deadline=None)
    def test_nonnegative(self, h, tau):
        assert kl_uniform(p_star(h, tau)) >= -1e-12


class TestPrimalValue:
    def test_uniform_weights(self):
        h = np.array([0.4, -0.2, 1.0])
        assert primal_rgcl_value(h, np.ones(3) / 3, 0.5) == pytest.approx(h.mean(), abs=1e-12)

    def test_two_point(self):
        assert primal_rgcl_value([0.0, -1.0], [0.8, 0.2], 0.0) == pytest.approx(-0.2, abs=1e-12)

    def test_one_hot_on_argmax(self):
        h = np.array([0.3, 1.1, -0.4])
        p = np.array([0.0, 1.0, 0.0])
        assert primal_rgcl_value(h, p, 0.0) == pytest.approx(1.1, abs=1e-12)

    def test_simplex_validated(self):
        # weights off the simplex are refused, not dropped or scored: a NaN
        # fails every comparison, so it must not slip past the bounds
        for weights in ([0.7, 0.7], [-0.5, 1.5], [np.nan, np.nan], [np.nan, 1.0], [np.inf, 1.0],
                        [np.inf, -np.inf], [1.0, np.inf]):
            with pytest.raises(ValueError, match="simplex"):
                kl_uniform(weights)
            with pytest.raises(ValueError, match="simplex"):
                primal_rgcl_value([0.0, -1.0], weights, 0.05)
        with np.errstate(divide="ignore", invalid="ignore"):
            for h, tau in (([0.4, -0.2, 1.0], 0.0), ([0.1, np.nan], 0.5)):
                with pytest.raises(ValueError, match="simplex"):
                    p_star(h, tau)


class TestExactGradTau:
    """The temperature gradient of unimodal_value_and_grads."""

    def test_constant_hardness(self):
        # two samples with identical views: each anchor's two negatives are
        # the same vector, so its hardness is constant, the -c/tau and
        # +log(g) terms cancel, and rho/n is left
        params = EncoderParams(np.eye(3), np.zeros(3), np.eye(3), np.zeros(3), "identity")
        cfg = RgclConfig(rho=0.7, tau0=0.05, tau_init=0.4)
        stream = RandomStream(2, ("const",))
        for i in range(3):
            x = stream.split(str(i)).normal(2, 3)
            _, _, gt = unimodal_value_and_grads(params, ViewPairs(x, x.copy()), np.full(2, 0.4), cfg)
            np.testing.assert_allclose(gt, 0.7 / 2, atol=1e-14)

    def test_finite_difference(self):
        stream = RandomStream(2, ("gtau",))
        cfg = RgclConfig(rho=0.3, tau0=0.05, tau_init=0.1, log_epsilon=0.05)
        for i in range(5):
            params, views, _, _ = small_unimodal(20 + i)
            taus = 0.15 + stream.split(str(i)).uniform(views.n)
            _, _, exact = unimodal_value_and_grads(params, views, taus, cfg)
            assert_finite_diff(("tau", exact, taus, lambda t: objective_unimodal(params, views, t, cfg)))


def exp_rows(s, taus, sq=0.0):
    """_exp_rows on the scores s (k, m) of each row's m negatives and sq of
    its positive, at the temperatures taus, each row scored as a one-row
    block whose own group is its first column, the positive.  Returns the
    row kernel's input (3, k) and e over the negatives, (k, m)."""
    s = np.asarray(s, dtype=np.float64)
    stats, es = np.empty((3, len(s))), []
    for k, (row, tau, q) in enumerate(zip(s, taus, np.broadcast_to(sq, len(s)))):
        [e], block = _exp_rows([(0, 0, 1, np.concatenate([[q], row])[None] / tau)], 0, {})
        stats[:, k] = block[:, 0, 0]
        es.append(e[0, 1:])
    return stats, np.array(es)


def hardness_rows(anchors, positives, *negatives):
    """Row i: hardness_scores of anchor i, with positive i, against every
    row but row i of each tower of negatives in turn."""
    return np.array([hardness_scores(a, q, np.concatenate([np.delete(t, i, 0) for t in negatives]))
                     for i, (a, q) in enumerate(zip(anchors, positives))])


class TestPairWeights:
    """The pair weights w = c * e = p * (mean_exp / d) / count of the row kernel."""

    def test_sum_with_exact_g(self):
        # d = g (no denominator given, log_epsilon 0): each row sums to 1/count
        h = np.clip(RandomStream(3).normal(5, 6), -2, 2)
        taus = np.linspace(0.2, 1.5, 5)
        stats, e = exp_rows(h, taus)
        g, d, _, _, c = _softmax_rows(stats, taus, RgclConfig(), 7)
        np.testing.assert_array_equal(g, d)
        np.testing.assert_allclose((c[:, None] * e).sum(axis=1), 1.0 / 7, atol=1e-12)
        np.testing.assert_allclose(g, [g_value(row, t) for row, t in zip(h, taus)], rtol=1e-12)

    def test_uniform_hardness_equal_weights(self):
        taus = np.array([0.5, 0.9])
        stats, e = exp_rows(np.full((2, 3), 0.3), taus, -0.2)
        w = _softmax_rows(stats, taus, RgclConfig(), 4, lambda g: np.ones(2))[-1][:, None] * e
        assert np.all(w == w[:, :1])


class TestRowKernelProperties:
    @given(st.integers(1, 4), st.integers(1, 8), st.sampled_from([0.0, 0.25]), st.integers(0, 2**16))
    @settings(deadline=None, max_examples=60)
    def test_shift_invariance(self, k, m, log_epsilon, seed):
        # adding c_i to every score of row i, its positive's too, leaves h and
        # so the kernel's outputs unchanged; adding it to the negatives' scores
        # alone adds it to h, which leaves p unchanged, shifts E_p[h] by c_i
        # and, with log_epsilon = 0, scales g_i by exp(c_i / tau_i)
        stream = RandomStream(seed, ("shift",))
        s, sq = stream.split("s").uniform(k, m) * 2.0 - 1.0, stream.split("q").uniform(k) * 2.0 - 1.0
        taus, c = 0.05 + 5.0 * stream.split("tau").uniform(k), stream.split("c").uniform(k) * 2.0 - 1.0
        cfg = RgclConfig(log_epsilon=log_epsilon)
        stats, e = exp_rows(s, taus, sq)
        g, _, terms, dtau, w = _softmax_rows(stats, taus, cfg, 3)
        w = w[:, None] * e
        stats_all, e_all = exp_rows(s + c[:, None], taus, sq + c)
        g_all, _, terms_all, dtau_all, w_all = _softmax_rows(stats_all, taus, cfg, 3)
        np.testing.assert_allclose(g_all, g, rtol=1e-12)
        np.testing.assert_allclose(terms_all, terms, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dtau_all, dtau, rtol=0, atol=1e-12)
        np.testing.assert_allclose(taus * stats_all[2], taus * stats[2], rtol=0, atol=1e-12)
        np.testing.assert_allclose(w_all[:, None] * e_all, w, rtol=1e-12)
        stats_c, e_c = exp_rows(s + c[:, None], taus, sq)
        g_c, _, _, _, w_c = _softmax_rows(stats_c, taus, cfg, 3)
        w_c = w_c[:, None] * e_c
        np.testing.assert_allclose(w_c / w_c.sum(axis=1, keepdims=True), w / w.sum(axis=1, keepdims=True),
                                   rtol=1e-12)
        np.testing.assert_allclose(taus * stats_c[2], taus * stats[2] + c, rtol=0, atol=1e-12)
        if log_epsilon == 0.0:
            np.testing.assert_allclose(g_c, g * np.exp(c / taus), rtol=1e-12)

    @given(st.integers(1, 8), st.integers(0, 2**16))
    @settings(deadline=None, max_examples=60)
    def test_expected_hardness_falls_with_tau(self, m, seed):
        # dE_p[h]/dtau = -Var_p(h) / tau^2, from max h as tau -> 0 to mean h
        stream = RandomStream(seed, ("tau-order",))
        s, sq = stream.split("s").uniform(m) * 2.0 - 1.0, float(stream.split("q").uniform()) * 2.0 - 1.0
        taus = np.sort(0.05 + 5.0 * stream.split("tau").uniform(12))
        eph = taus * exp_rows(np.tile(s, (12, 1)), taus, sq)[0][2]
        h = s - sq
        assert np.all(np.diff(eph) <= 1e-12)
        assert np.all(eph >= h.mean() - 1e-12) and np.all(eph <= h.max() + 1e-12)

    @given(st.integers(1, 8), st.integers(0, 2**16))
    @settings(deadline=None, max_examples=60)
    def test_tau0_limit(self, m, seed):
        # tau log sum_j exp(h_j / tau) = E_p[h] + tau H(p) lies in [max h, max h
        # + tau log m], so E_p[h] and tau log g lie within tau log m below max h
        # and reach it as tau -> tau0 -> 0; the rows run tau down to the
        # smallest tau0 RgclConfig admits, where scores of +-1, the extremes of
        # unit rows, put exp(z) near exp(+-log(DBL_MAX) / 2) and g near
        # DBL_MAX or 1 / DBL_MAX
        stream = RandomStream(seed, ("tau0-limit",))
        taus = np.geomspace(1.0, _TAU0_MIN, 12)
        signs = np.where(stream.split("sign").uniform(m) < 0.5, -1.0, 1.0)
        rows = [(stream.split("s").uniform(m) * 2.0 - 1.0, float(stream.split("q").uniform()) * 2.0 - 1.0),
                (np.ones(m), -1.0), (-np.ones(m), 1.0), (signs, -signs[0])]
        for s, sq in rows:
            stats = exp_rows(np.tile(s, (12, 1)), taus, sq)[0]
            g = _softmax_rows(stats, taus, RgclConfig(), 1)[0]
            eph = taus * stats[2]
            h = s - sq
            gap = taus * math.log(m) + 1e-12
            assert np.all(eph <= h.max() + 1e-12) and np.all(eph >= h.max() - gap)
            tau_log_g = taus * np.log(g)
            assert np.all(tau_log_g <= h.max() + 1e-12) and np.all(tau_log_g >= h.max() - gap)

    @given(st.integers(2, 8), st.integers(1, 4), st.sampled_from([0.0, 0.25]), st.integers(0, 2**16))
    @settings(deadline=None, max_examples=30)
    def test_one_block_of_every_anchor_equals_oracle(self, n, d, log_epsilon, seed):
        # a unimodal step's batch of B = n anchors with s = g: the row kernel
        # on one block of every anchor gives the loop oracle's value and
        # gradients
        params, views, taus, cfg = small_unimodal(seed, n=n, d=d)
        cfg = RgclConfig(rho=cfg.rho, tau0=cfg.tau0, tau_init=cfg.tau_init, log_epsilon=log_epsilon)
        rows = []

        def kernel(lo, hi, stats):
            _, _, terms, dtau, c = _softmax_rows(stats[:, 0], taus, cfg, n)
            rows.append((terms, dtau))
            return [c]

        [grad_w] = _encoder_pass([params], [views.views], range(n), _anchor_h_rows, n, [taus], kernel)
        [(terms, dtau)] = rows
        ref_value, ref_grad_w, ref_grad_tau = full_batch_reference(params, views, taus, cfg)
        assert float(np.mean(terms)) == pytest.approx(ref_value, rel=1e-12, abs=1e-14)
        np.testing.assert_allclose(grad_w, ref_grad_w, rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(dtau / n, ref_grad_tau, rtol=1e-10, atol=1e-13)


def small_unimodal(seed, n=4, d=3, hidden=5, embed=3):
    stream = RandomStream(seed, ("inst",))
    params = init_encoder_params(d, hidden, embed, "tanh", stream.split("enc"))
    views = ViewPairs(stream.split("a").normal(n, d), stream.split("b").normal(n, d))
    taus = 0.2 + 0.6 * stream.split("tau").uniform(n)
    cfg = RgclConfig(rho=0.4, tau0=0.05, tau_init=0.6)
    return params, views, taus, cfg


class TestObjectiveUnimodal:
    def test_symmetric_two_sample(self):
        # with identical views per sample the two anchors see mirrored
        # negative sets, so their loss terms agree
        params, _, _, cfg = small_unimodal(4, d=3)
        x = RandomStream(5).normal(1, 3)
        views = ViewPairs(np.vstack([x, x]), np.vstack([x, x]))
        taus = np.array([0.5, 0.5])
        v = objective_unimodal(params, views, taus, cfg)
        single = dual_loss_anchor([0.0, 0.0], 0.5, cfg)
        assert v == pytest.approx(single, abs=1e-12)

    def test_lower_bound(self):
        params, views, taus, cfg = small_unimodal(6)
        assert objective_unimodal(params, views, taus, cfg) >= -HARDNESS_BOUND

    def test_matches_straight_line_reference(self):
        params, views, taus, cfg = small_unimodal(7)
        v = objective_unimodal(params, views, taus, cfg)
        ref, _, _ = full_batch_reference(params, views, taus, cfg)
        assert v == pytest.approx(ref, abs=1e-12)

    def test_single_sample_rejected(self):
        params, _, _, cfg = small_unimodal(8)
        views = ViewPairs(np.ones((1, 3)), np.ones((1, 3)))
        with pytest.raises(ValueError):
            objective_unimodal(params, views, np.array([0.5]), cfg)


class TestUnimodalGrads:
    def test_value_consistent_with_objective(self):
        params, views, taus, cfg = small_unimodal(9)
        v1, _, _ = unimodal_value_and_grads(params, views, taus, cfg)
        v2 = objective_unimodal(params, views, taus, cfg)
        assert v1 == pytest.approx(v2, abs=1e-12)

    def test_matches_loop_reference(self):
        params, views, taus, cfg = small_unimodal(10, n=6)
        v, gw, gt = unimodal_value_and_grads(params, views, taus, cfg)
        rv, rgw, rgt = full_batch_reference(params, views, taus, cfg)
        assert v == pytest.approx(rv, abs=1e-12)
        np.testing.assert_allclose(gw, rgw, atol=1e-12)
        np.testing.assert_allclose(gt, rgt, atol=1e-12)

    def test_grad_w_finite_difference(self):
        params, views, taus, cfg = small_unimodal(11)
        _, gw, _ = unimodal_value_and_grads(params, views, taus, cfg)
        assert_finite_diff(("w", gw, params.flatten(),
                            lambda flat: objective_unimodal(params.from_flat(flat), views, taus, cfg)))

    def test_grad_tau_finite_difference(self):
        params, views, taus, cfg = small_unimodal(12)
        _, _, gt = unimodal_value_and_grads(params, views, taus, cfg)
        assert_finite_diff(("tau", gt, taus, lambda t: objective_unimodal(params, views, t, cfg)))


def small_bimodal(seed, n=3, d=3, hidden=5, embed=3):
    stream = RandomStream(seed, ("binst",))
    p_img = init_encoder_params(d, hidden, embed, "tanh", stream.split("img"))
    p_txt = init_encoder_params(d, hidden, embed, "tanh", stream.split("txt"))
    images = stream.split("x").normal(n, d)
    texts = stream.split("t").normal(n, d)
    taus_v = 0.2 + 0.6 * stream.split("tv").uniform(n)
    taus_t = 0.2 + 0.6 * stream.split("tt").uniform(n)
    cfg = RgclConfig(rho=0.4, tau0=0.05, tau_init=0.6)
    return p_img, p_txt, images, texts, taus_v, taus_t, cfg


class TestBimodal:
    def test_mirrored_halves_equal(self):
        p_img, _, images, _, taus_v, _, cfg = small_bimodal(13)
        # identical towers and identical data: both directions coincide
        v, gx, gt, gtv, gtt = bimodal_value_and_grads(
            p_img, p_img.copy(), images, images.copy(), taus_v, taus_v, cfg
        )
        np.testing.assert_allclose(gx, gt, atol=1e-14)
        np.testing.assert_allclose(gtv, gtt, atol=1e-14)

    def test_matches_loop_reference(self):
        p_img, p_txt, images, texts, taus_v, taus_t, cfg = small_bimodal(14)
        got = bimodal_value_and_grads(p_img, p_txt, images, texts, taus_v, taus_t, cfg)
        ref = full_batch_reference_bimodal(p_img, p_txt, images, texts, taus_v, taus_t, cfg)
        assert got[0] == pytest.approx(ref[0], abs=1e-12)
        for a, b in zip(got[1:], ref[1:]):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_penalty_vanishes_at_tau0(self):
        p_img, p_txt, images, texts, _, _, cfg = small_bimodal(15)
        n = images.shape[0]
        taus = np.full(n, cfg.tau0)
        v = objective_bimodal(p_img, p_txt, images, texts, taus, taus, cfg)
        # recompute without the (tau - tau0) rho terms: they must be zero
        from rgcl.encoder import encode

        x = encode(p_img, images).embeddings
        t = encode(p_txt, texts).embeddings
        hx, ht = hardness_rows(x, t, t), hardness_rows(t, x, x)
        want = sum(
            cfg.tau0 * math.log(g_value(hx[i], cfg.tau0))
            + cfg.tau0 * math.log(g_value(ht[i], cfg.tau0))
            for i in range(n)
        ) / n
        assert v == pytest.approx(want, abs=1e-12)

    def test_grads_finite_difference(self):
        # both towers and both sides' temperatures
        p_img, p_txt, images, texts, taus_v, taus_t, cfg = small_bimodal(16)
        _, gx, gt, gtv, gtt = bimodal_value_and_grads(
            p_img, p_txt, images, texts, taus_v, taus_t, cfg
        )
        assert_finite_diff(
            ("w_img", gx, p_img.flatten(),
             lambda f: objective_bimodal(p_img.from_flat(f), p_txt, images, texts, taus_v, taus_t, cfg)),
            ("w_txt", gt, p_txt.flatten(),
             lambda f: objective_bimodal(p_img, p_txt.from_flat(f), images, texts, taus_v, taus_t, cfg)),
            ("tau_img", gtv, taus_v, lambda tv: objective_bimodal(p_img, p_txt, images, texts, tv, taus_t, cfg)),
            ("tau_txt", gtt, taus_t, lambda tt: objective_bimodal(p_img, p_txt, images, texts, taus_v, tt, cfg)),
        )


class TestContrastBlocks:
    """_contrast in blocks of any size against one block of every anchor."""

    @given(
        st.integers(min_value=2, max_value=40).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
        st.integers(min_value=2, max_value=8),
        st.sampled_from([_anchor_h_rows, _bimodal_h_rows]),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(deadline=None, max_examples=60)
    def test_blocked_equals_unblocked(self, n_rows, d, h_rows, seed):
        n, rows = n_rows
        stream = RandomStream(seed, ("blocks",))
        towers = [stream.split(name).normal(n, d) for name in ("a", "b")]
        towers = [y / np.linalg.norm(y, axis=1, keepdims=True) for y in towers]
        if h_rows is _anchor_h_rows:
            towers = [ViewPairs(*towers).views]  # one interleaved tower
        taus = 0.05 + np.array([stream.split(name).uniform(n) for name in ("ta", "tb")])

        def run(rows):
            """The blocks and row statistics a recording kernel sees, and the
            embedding gradients of its softmax weights."""
            seen = []

            def kernel(lo, hi, stats):
                seen.append((lo, hi, stats.copy()))
                return _softmax_rows(stats, taus[: stats.shape[1], lo:hi], RgclConfig(), n)[-1]

            return seen, _contrast(towers, h_rows, rows, taus, kernel)

        (whole,), want = run(n)
        blocked, got = run(rows)
        assert [(lo, hi) for lo, hi, _ in blocked] == [(lo, min(lo + rows, n)) for lo in range(0, n, rows)]
        # a block's score GEMM may round an entry differently from the whole
        # matrix's (BLAS picks its kernel by shape): a few ulps of |s| <= 1,
        # over tau >= 0.05
        np.testing.assert_allclose(np.concatenate([stats for _, _, stats in blocked], axis=2), whole[2],
                                   rtol=1e-13, atol=1e-12)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


class TestEvaluationMemory:
    def test_peak_below_one_square_matrix(self):
        # the blocked evaluations and exact objectives hold no (n, n) array:
        # one float64 (n, n) array at n = 1500 is 18 MB
        n = 1500
        params, views, taus, cfg = small_unimodal(17, n=n, d=16, hidden=3, embed=16)
        p_img, p_txt, images, texts, taus_v, taus_t, _ = small_bimodal(18, n=n, d=16, hidden=3, embed=16)
        for call in (
            lambda: unimodal_value_and_grads(params, views, taus, cfg),
            lambda: bimodal_value_and_grads(p_img, p_txt, images, texts, taus_v, taus_t, cfg),
            lambda: objective_unimodal(params, views, taus, cfg),
            lambda: objective_bimodal(p_img, p_txt, images, texts, taus_v, taus_t, cfg),
        ):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < n * n * 8

    @pytest.mark.parametrize("evaluate, instance, limit_mb", [
        (unimodal_value_and_grads, small_unimodal, 3.25),
        (bimodal_value_and_grads, small_bimodal, 2.9),
        (objective_unimodal, small_unimodal, 1.7),
        (objective_bimodal, small_bimodal, 1.4),
    ], ids=["unimodal", "bimodal", "objective_unimodal", "objective_bimodal"])
    def test_peak_at_n2000(self, evaluate, instance, limit_mb):
        # one n = 2000 evaluation runs its 125 blocks in one workspace that
        # serves every direction, and traces 2.67 MB (unimodal), 2.52 MB
        # (bimodal), 1.49 MB (the unimodal objective) and 1.26 MB (the
        # bimodal objective, whose directions share one exp buffer)
        args = instance(17, n=2000, d=16, hidden=3, embed=16)
        tracemalloc.start()
        try:
            evaluate(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mb * 2**20


class TestLengthMismatch:
    """Every exact evaluation and both oracle references reject per-sample
    inputs of different lengths and name the counts."""

    @pytest.mark.parametrize("evaluate", [objective_unimodal, unimodal_value_and_grads, full_batch_reference])
    def test_unimodal_extra_temperature(self, evaluate):
        params, views, taus, cfg = small_unimodal(22, n=5)
        with pytest.raises(ValueError, match="^views, taus must all have the same length, not 5, 6$"):
            evaluate(params, views, np.append(taus, 0.5), cfg)

    @pytest.mark.parametrize("evaluate", [objective_bimodal, bimodal_value_and_grads, full_batch_reference_bimodal])
    @pytest.mark.parametrize("short, counts", [(3, "5, 4, 5, 5"), (5, "5, 5, 5, 4")], ids=["texts", "taus_t"])
    def test_bimodal_short_input(self, evaluate, short, counts):
        # 5 images with 4 texts, or 5 pairs with 4 text temperatures
        args = list(small_bimodal(23, n=5))
        args[short] = args[short][:4]
        with pytest.raises(ValueError, match="^images, texts, taus_v, taus_t must all have the same length, not %s$" % counts):
            evaluate(*args)


class TestTemperatureBound:
    """The exact evaluations and objectives refuse a temperature below
    _TAU0_MIN, where exp(s / tau) of a unit-row score s may leave the float64
    range."""

    def test_unimodal_names_the_anchor(self):
        params, views, taus, cfg = small_unimodal(24, n=5)
        for evaluate in (unimodal_value_and_grads, objective_unimodal):
            taus[2] = np.nextafter(_TAU0_MIN, 0.0)
            with pytest.raises(ValueError, match=r"^anchor 2 has tau = 0\.0028177.*, below C / log\(DBL_MAX\) = 0\.00281776$"):
                evaluate(params, views, taus, cfg)
            taus[2] = _TAU0_MIN
            out = evaluate(params, views, taus, cfg)
            assert np.all(np.isfinite(np.hstack(out if isinstance(out, tuple) else [out])))

    def test_bimodal_names_the_side_and_anchor(self):
        p_img, p_txt, images, texts, taus_v, taus_t, cfg = small_bimodal(25, n=4)
        taus_t[[1, 3]] = -0.5
        for evaluate in (bimodal_value_and_grads, objective_bimodal):
            with pytest.raises(ValueError, match=r"^text anchor 1 has tau = -0\.5, below C / log\(DBL_MAX\)"):
                evaluate(p_img, p_txt, images, texts, taus_v, taus_t, cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_unimodal_refuses_non_finite(self, bad):
        params, views, taus, cfg = small_unimodal(26, n=5)
        taus[1] = bad
        for evaluate in (unimodal_value_and_grads, objective_unimodal):
            with pytest.raises(ValueError, match=r"^anchor 1 has tau = %s, not finite$" % bad):
                evaluate(params, views, taus, cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_bimodal_refuses_non_finite(self, bad):
        p_img, p_txt, images, texts, taus_v, taus_t, cfg = small_bimodal(27, n=4)
        for side, what in ((0, "image"), (1, "text")):
            taus = [taus_v.copy(), taus_t.copy()]
            taus[side][2] = bad
            for evaluate in (bimodal_value_and_grads, objective_bimodal):
                with pytest.raises(ValueError, match=r"^%s anchor 2 has tau = %s, not finite$" % (what, bad)):
                    evaluate(p_img, p_txt, images, texts, *taus, cfg)


class TestNonFinite:
    def test_unimodal_names_the_anchor(self):
        params, views, taus, cfg = small_unimodal(19, n=5)
        taus[3] = np.nan
        with pytest.raises(ValueError, match="^anchor 3 has tau = nan, not finite$"):
            unimodal_value_and_grads(params, views, taus, cfg)

    def test_bimodal_names_the_side_and_anchor(self):
        p_img, p_txt, images, texts, taus_v, taus_t, cfg = small_bimodal(20, n=4)
        taus_t[2] = np.nan
        with pytest.raises(ValueError, match="^text anchor 2 has tau = nan, not finite$"):
            bimodal_value_and_grads(p_img, p_txt, images, texts, taus_v, taus_t, cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_unimodal_view_row_named(self, bad):
        # the encoder sees the interleaved views: positive view 1 is row 3
        params, views, taus, cfg = small_unimodal(19, n=5)
        views.views_b[1, 2] = bad
        for evaluate in (unimodal_value_and_grads, objective_unimodal):
            with pytest.raises(ValueError, match="^sample 1 has a non-finite view b input$"):
                evaluate(params, views, taus, cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_bimodal_text_row_named(self, bad):
        p_img, p_txt, images, texts, taus_v, taus_t, cfg = small_bimodal(20, n=4)
        texts[2, 0] = bad
        for evaluate in (bimodal_value_and_grads, objective_bimodal):
            with pytest.raises(ValueError, match="^sample 2 has a non-finite text input$"):
                evaluate(p_img, p_txt, images, texts, taus_v, taus_t, cfg)

    @staticmethod
    def nan_g_at(monkeypatch, side, anchor):
        """Make the row kernel's first call, which runs every direction of
        the first block, return g = nan for anchor of direction side."""
        calls, kernel = itertools.count(), loss._softmax_rows

        def nan_g(*args, **kwargs):
            g, *rest = kernel(*args, **kwargs)
            if next(calls) == 0:
                g = g.copy()
                g[side, anchor] = np.nan
            return g, *rest

        monkeypatch.setattr(loss, "_softmax_rows", nan_g)

    def test_unimodal_non_finite_g_named(self, monkeypatch):
        params, views, taus, cfg = small_unimodal(19, n=5)
        self.nan_g_at(monkeypatch, 0, 3)
        with pytest.raises(ValueError, match=r"^anchor 3 has a non-finite value: g = nan, grad_tau = "):
            unimodal_value_and_grads(params, views, taus, cfg)

    @pytest.mark.parametrize("side, what", [(0, "image"), (1, "text")])
    def test_bimodal_non_finite_g_named(self, monkeypatch, side, what):
        # one block of both directions, scored by one kernel call
        p_img, p_txt, images, texts, taus_v, taus_t, cfg = small_bimodal(20, n=4)
        self.nan_g_at(monkeypatch, side, 1)
        with pytest.raises(ValueError, match=r"^%s anchor 1 has a non-finite value: g = nan, grad_tau = " % what):
            bimodal_value_and_grads(p_img, p_txt, images, texts, taus_v, taus_t, cfg)
