import math

import numpy as np
import pytest

from rgcl import loss, optimizer, oracle
from rgcl.encoder import init_encoder_params
from rgcl.harness import _oracle_battery, _vcheck_fixed_instance, _vcheck_oracle_battery
from rgcl.loss import HARDNESS_BOUND, RgclConfig, ViewPairs, unimodal_value_and_grads
from rgcl.numerics import RandomStream
from rgcl.oracle import (
    _log_sum_exp,
    _softmax_shifted,
    finite_diff_grad,
    full_batch_reference,
    full_batch_reference_bimodal,
    grid_search_simplex,
    kl_uniform,
    primal_rgcl_value,
    solve_dual_tau,
    solve_primal,
)
from test_loss import assert_finite_diff


def random_h(stream, m):
    return np.clip(stream.normal(m), -2.0, 2.0)


def loop_grid_best(hv, rho, tau0, lows, highs, res):
    """The reference for oracle._grid_best: the best feasible grid point in
    a box of the free coordinates, scoring one point at a time."""
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


def loop_grid_search(h, rho, tau0, step=0.005):
    """The reference for oracle.grid_search_simplex with m = 2: a pass at
    resolution step, then four passes, each over four steps either side of
    the incumbent at a tenth of the previous resolution."""
    res = step
    best_p, best_v = loop_grid_best(h, rho, tau0, [0.0], [1.0], res)
    for _ in range(4):
        lows, highs = [max(0.0, best_p[0] - 4.0 * res)], [min(1.0, best_p[0] + 4.0 * res)]
        res /= 10.0
        p, v = loop_grid_best(h, rho, tau0, lows, highs, res)
        if v > best_v:
            best_p, best_v = p, v
    return best_p, best_v


class TestSolvePrimal:
    def test_constant_hardness_uniform(self):
        sol = solve_primal(np.full(5, 0.3), rho=0.5, tau0=0.05)
        np.testing.assert_allclose(sol.p, np.ones(5) / 5, atol=1e-12)
        assert sol.lam == 0.0
        assert not sol.constraint_active

    def test_feasibility(self):
        # rgcl verify's primal_feasibility; each instance draws m, h, then rho
        stream = RandomStream(0, ("primal",))
        instances = ((random_h(stream.split("h%d" % i), 2 + int(stream.integers(0, 6))),
                      RgclConfig(rho=0.05 + float(stream.uniform()), tau0=0.05, tau_init=0.05)) for i in range(30))
        assert _vcheck_oracle_battery(instances, 0)[0]["detail"]["worst_violation"] <= 1e-8

    def test_multiplier_bound(self):
        # at the optimum lam <= C / rho (from the dual temperature bound)
        stream = RandomStream(1, ("lam",))
        for i in range(20):
            h = random_h(stream.split("h%d" % i), 4)
            rho = 0.1 + 0.9 * float(stream.uniform())
            sol = solve_primal(h, rho, 0.0)
            assert sol.lam <= HARDNESS_BOUND / rho + 1e-6

    def test_tau0_zero_slack_constraint(self):
        # huge rho: the constraint is slack and with tau0 = 0 the optimum
        # is one-hot on the argmax
        h = np.array([0.3, 1.4, -0.2])
        sol = solve_primal(h, rho=10.0, tau0=0.0)
        assert sol.value == pytest.approx(1.4, abs=1e-9)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            solve_primal(np.array([0.0, 1.0]), rho=0.0, tau0=0.05)
        with pytest.raises(ValueError):
            solve_primal(np.array([0.0]), rho=0.5, tau0=0.05)
        with pytest.raises(ValueError):
            solve_primal(np.array([0.0, 1.0]), rho=0.5, tau0=-0.1)


class TestGridSearch:
    def test_agrees_with_primal_solver(self):
        # rgcl verify's grid_cross_check
        stream = RandomStream(2, ("grid",))
        instances = ((random_h(stream.split("h%d" % i), 2),
                      RgclConfig(rho=0.1 + 0.5 * float(stream.uniform()), tau0=0.05, tau_init=0.05)) for i in range(20))
        assert _vcheck_oracle_battery(instances, 2)[2]["detail"]["worst_gap"] <= 1e-3

    def test_three_point_instances(self):
        stream = RandomStream(3, ("grid3",))
        instances = ((random_h(stream.split("h%d" % i), 3), RgclConfig(rho=0.3, tau0=0.05, tau_init=0.05)) for i in range(5))
        assert _vcheck_oracle_battery(instances, 3)[2]["detail"]["worst_gap"] <= 1e-3

    def test_slack_constraint_one_hot(self):
        h = np.array([0.1, 0.9])
        p, v = grid_search_simplex(h, rho=10.0, tau0=0.0)
        assert v == pytest.approx(0.9, abs=1e-6)
        assert p[1] == pytest.approx(1.0, abs=1e-6)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            grid_search_simplex(np.zeros(4), 0.3, 0.05)

    def test_infeasible_first_pass_named(self):
        # no m=3 point of the 0.005-step grid lies within KL 1e-6 of uniform
        with pytest.raises(ValueError, match=r"0\.005-step grid.*rho = 1e-06"):
            grid_search_simplex([0.1, 0.2, 0.3], 1e-6, 0.05)

    def test_three_point_boundary_regression(self):
        # the optimum lies on the curved KL boundary, where the objective is
        # flat; refining around the coarse incumbent alone missed it by 1.03e-3
        h = [1.2594305358615232, -1.1864826980432668, -1.2355646956832338]
        _, gv = grid_search_simplex(h, 0.5, 0.05)
        assert abs(gv - solve_primal(h, 0.5, 0.05).value) <= 1e-4

    def test_three_point_random_instances(self):
        stream = RandomStream(8, ("grid3-many",))
        cfgs = [RgclConfig(rho=rho, tau0=0.05, tau_init=0.05) for rho in (0.1, 0.5, 1.0)]
        instances = ((random_h(stream.split("h%d" % i), 3), cfgs[i % 3]) for i in range(200))
        assert _vcheck_oracle_battery(instances, 3)[2]["detail"]["worst_gap"] <= 3e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_two_point_matches_loop_on_verify_instances(self, seed):
        # the instances of rgcl verify's grid_cross_check: the battery's
        # two-negative ones
        pairs = [(h, cfg) for h, cfg in _oracle_battery(RandomStream(seed, ("verify", "dual")), 5) if len(h) == 2]
        assert len(pairs) == 15
        for h, cfg in pairs:
            p, v = grid_search_simplex(h, cfg.rho, cfg.tau0)
            want_p, want_v = loop_grid_search(h, cfg.rho, cfg.tau0)
            np.testing.assert_array_equal(p, want_p)
            assert v == want_v


def _axis(lo, hi, res):
    return np.clip(np.arange(lo, hi + 0.5 * res, res), 0.0, 1.0)


def assert_same_best(hv, rho, tau0, lows, highs, res):
    p, v = oracle._grid_best(hv, rho, tau0, lows, highs, res)
    want_p, want_v = loop_grid_best(hv, rho, tau0, lows, highs, res)
    if want_p is None:
        assert p is None
    else:
        np.testing.assert_array_equal(p, want_p)
    assert v == want_v
    return p, v


class TestGridBestMatchesLoop:
    """The vectorised pass returns the loop's point and value, bit for bit."""

    @pytest.mark.parametrize("m", [2, 3])
    def test_random_boxes(self, m):
        stream = RandomStream(9, ("grid-box", str(m)))
        for i in range(40):
            s = stream.split("box%d" % i)
            hv = random_h(s.split("h"), m)
            if i % 4 == 0:
                hv[1] = hv[0]  # equal entries tie values
            rho = (1e-6, 0.05, 0.3, 1.0, 10.0)[i % 5]
            tau0 = (0.0, 0.05, 0.5)[i % 3]
            res = (0.005, 5e-4, 5e-5, 5e-6)[i % 4]
            centre = s.split("c").uniform(m - 1) / (m - 1)
            half = 20.0 * res
            lows = [max(0.0, c - half) for c in centre]
            highs = [min(1.0, c + half) for c in centre]
            assert_same_best(hv, rho, tau0, lows, highs, res)

    @pytest.mark.parametrize("m", [2, 3])
    def test_whole_simplex(self, m):
        for hv in ([0.4, -1.3, 0.9][:m], [0.7, 0.7, 0.7][:m], [-2.0, 2.0, 0.0][:m]):
            for rho, tau0 in [(0.3, 0.05), (10.0, 0.0)]:
                assert_same_best(np.array(hv), rho, tau0, [0.0] * (m - 1), [1.0] * (m - 1), 0.01)

    @pytest.mark.parametrize("m", [2, 3])
    def test_all_infeasible(self, m):
        # a box far from the uniform point holds no point of a tiny KL ball
        p, v = assert_same_best(np.array([0.5, -0.5, 0.1][:m]), 1e-4, 0.05, [0.8] * (m - 1),
                                [0.9] * (m - 1), 0.005)
        assert p is None and v == -np.inf

    @pytest.mark.parametrize("m", [2, 3])
    def test_tiny_rho(self, m):
        # only points next to the uniform one are feasible
        lows, highs = [1.0 / m - 0.0125] * (m - 1), [1.0 / m + 0.0125] * (m - 1)
        p, _ = assert_same_best(np.array([1.0, -1.0, 0.5][:m]), 1e-6, 0.05, lows, highs, 0.0005)
        assert p is not None and kl_uniform(p) <= 1e-6

    # rho is the scalar KL of grid points, which then sit exactly on the
    # boundary; a vectorised KL a few ulps off (scale) must not move them
    # across it
    @pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-14, 1.0 - 1e-14])
    def test_two_point_exact_boundary(self, monkeypatch, scale):
        xlogmx = oracle._xlogmx
        monkeypatch.setattr(oracle, "_xlogmx", lambda x, m: xlogmx(x, m) * scale)
        res = 0.005
        hv = np.array([0.8, -0.4])
        for a in _axis(0.0, 1.0, res)[[3, 17, 60, 99]]:
            rho = kl_uniform(np.array([a, max(1.0 - a, 0.0)]))
            for tau0 in (0.0, 0.05):
                assert_same_best(hv, rho, tau0, [0.0], [1.0], res)
                # -hv wants the smallest feasible first weight: the boundary point
                p, _ = assert_same_best(-hv, rho, tau0, [0.0], [1.0], res)
                assert p[0] == a

    @pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-14, 1.0 - 1e-14])
    def test_three_point_exact_boundary(self, monkeypatch, scale):
        xlogmx = oracle._xlogmx
        monkeypatch.setattr(oracle, "_xlogmx", lambda x, m: xlogmx(x, m) * scale)
        res = 0.0005
        hv = np.array([0.9, -0.2, -0.6])
        a_axis, b_axis = _axis(0.2, 0.22, res), _axis(0.1, 0.12, res)
        for i, j in [(10, 30), (35, 3), (40, 40), (0, 0)]:
            a, b = a_axis[i], b_axis[j]
            rho = kl_uniform(np.array([a, b, max(1.0 - (a + b), 0.0)]))
            for tau0 in (0.0, 0.05):
                assert_same_best(hv, rho, tau0, [0.2, 0.1], [0.22, 0.12], res)


class TestSolveDualTau:
    def test_equivalence_with_primal(self):
        # rgcl verify's battery check, on 20 instances per (m, rho)
        _, dual, _, _ = _vcheck_oracle_battery(_oracle_battery(RandomStream(4, ("dual",)), 20), 0)
        assert dual["detail"]["worst_gap"] <= 1e-6

    def test_constant_hardness_minimizer_at_tau0(self):
        cfg = RgclConfig(rho=0.4, tau0=0.05, tau_init=0.05)
        tau_star, value = solve_dual_tau(np.full(4, 0.6), cfg)
        assert tau_star == pytest.approx(cfg.tau0, abs=1e-6)
        assert value == pytest.approx(0.6, abs=1e-8)

    def test_tau_within_bound(self):
        stream = RandomStream(5, ("bound",))
        for i in range(20):
            h = random_h(stream.split("h%d" % i), 5)
            rho = 0.1 + 0.9 * float(stream.uniform())
            cfg = RgclConfig(rho=rho, tau0=0.05, tau_init=0.05)
            tau_star, _ = solve_dual_tau(h, cfg)
            assert cfg.tau0 - 1e-9 <= tau_star <= cfg.tau_max + 1e-9


class TestHardnessAwareWeighting:
    def test_reference_weight(self):
        # rgcl verify's check of h = [0, -1], tau0 = 0: the harder negative
        # carries p1 = 0.80 of the mass at rho = 0.2
        assert _vcheck_fixed_instance()[0]["detail"]["p1"] == pytest.approx(0.80, abs=0.02)

    def test_weight_monotone_in_rho(self):
        p1 = _vcheck_fixed_instance()[1]["detail"]["p1_by_rho"]
        assert all(b >= a - 1e-12 for a, b in zip(p1, p1[1:]))


def mixed_rows(seed, m, k=8):
    """k score rows with m negatives and mixed settings: spreads from 0.3 to
    3 before clipping to [-2, 2], rho up to near log m, tau0 = 0 for some
    primal rows and log_epsilon > 0 for some dual rows.  Two rows are built
    so that the primal weights underflow to exact zeros: a tie at the top,
    whose tau0 = 0 limit is uniform over the tie, and a near-tie with rho
    just under log m, which bisects the multiplier down to about 2e-3."""
    rng = np.random.default_rng([seed, m])
    hv = np.clip(rng.normal(size=(k, m)) * rng.choice([0.3, 1.0, 3.0], size=(k, 1)), -2.0, 2.0)
    hv[0] = np.r_[2.0, 2.0, np.full(m - 2, -2.0)]
    hv[1] = np.r_[2.0, 1.99, np.full(m - 2, -2.0)]
    rho = [float(rng.choice([0.05, 0.5, 1.5, 0.9 * math.log(m)])) for _ in range(k)]
    rho[:2] = [math.log(m) - 0.05] * 2
    tau0 = [float(rng.choice([0.0, 0.05, 0.2])) for _ in range(k)]
    tau0[:2] = [0.0, 0.0]
    cfgs = [RgclConfig(rho=r, tau0=float(rng.choice([0.01, 0.05, 0.3])), tau_init=0.5,
                       log_epsilon=float(rng.choice([0.0, 1e-3, 0.25])))
            for r in rho]
    return hv, rho, tau0, cfgs


def per_instance_fold(instances, grid_negatives):
    """The four oracle checks of _vcheck_oracle_battery, with each instance
    solved alone by the public solvers and folded as it is solved."""
    violation, dual_gap, grid_gap, excess, over_bound = 0.0, 0.0, 0.0, -np.inf, None
    for h, cfg in instances:
        tau_star, dual_value = solve_dual_tau(h, cfg)
        sol = solve_primal(h, cfg.rho, cfg.tau0)
        kl = kl_uniform(sol.p)
        violation = max(violation, kl - cfg.rho, abs(sol.lam) * max(0.0, kl - cfg.rho))
        if over_bound is None and sol.lam > HARDNESS_BOUND / cfg.rho:
            over_bound = sol.lam
        dual_gap = max(dual_gap, abs(dual_value - sol.value))
        if len(h) <= grid_negatives:
            grid_gap = max(grid_gap, abs(grid_search_simplex(h, cfg.rho, cfg.tau0)[1] - sol.value))
        excess = max(excess, tau_star - cfg.tau_max)
    feasible = {"worst_violation": violation} if over_bound is None else {"lambda_over_bound": over_bound}
    return [feasible, {"worst_gap": dual_gap}, {"worst_gap": grid_gap}, {"worst_excess": excess}]


class TestBatchRows:
    """The batch routines behind solve_dual_tau and solve_primal solve each
    row as a one-row call does, bit for bit, whatever else is in the batch."""

    def test_row_definitions_match_one_row_calls(self):
        # log-sum-exp, softmax and KL of each row of a batch equal their 1-D
        # values, KL on weights with exact zeros too (m up to 40)
        rng = np.random.default_rng(7)
        for m in range(2, 41):
            v = rng.normal(size=(6, m)) * 5.0
            p = _softmax_shifted(v)
            zero = rng.random(size=p.shape) < 0.3
            zero[:, 0] = False
            p[zero] = 0.0
            p /= p.sum(axis=1, keepdims=True)
            assert _log_sum_exp(v).tolist() == [_log_sum_exp(row) for row in v]
            assert np.array_equal(_softmax_shifted(v), [_softmax_shifted(row) for row in v])
            assert oracle._kl(p).tolist() == [kl_uniform(row) for row in p]

    @pytest.mark.parametrize("m", range(2, 13))
    def test_dual_rows_match_one_row_calls(self, m):
        hv, _, _, cfgs = mixed_rows(0, m)
        batch = oracle._dual_tau_rows(hv, cfgs)
        assert batch == [solve_dual_tau(h, cfg) for h, cfg in zip(hv, cfgs)]

    @pytest.mark.parametrize("m", range(2, 13))
    def test_primal_rows_match_one_row_calls(self, m):
        hv, rho, tau0, _ = mixed_rows(1, m)
        batch = oracle._primal_rows(hv, rho, tau0)
        for got, h, r, t in zip(batch, hv, rho, tau0):
            want = solve_primal(h, r, t)
            assert (got.lam, got.value, got.constraint_active, got.kl) == (
                want.lam, want.value, want.constraint_active, want.kl)
            assert np.array_equal(got.p, want.p)
            # the KL the search scored is the one kl_uniform gives, and the
            # value is primal_rgcl_value's
            assert (got.kl, got.value) == (kl_uniform(got.p), primal_rgcl_value(h, got.p, t))
        # the rows built to underflow do, so _kl's sum over a row's positive
        # weights alone is exercised, at m >= 8 on blocks the zeros would shift
        assert not batch[0].p[2:].any() and not batch[1].p[2:].any()
        assert batch[1].constraint_active and not batch[0].constraint_active

    def test_grouped_battery_matches_per_instance_fold(self):
        # instances of mixed m in shuffled order, mixed rho, one m-group of one
        stream = RandomStream(6, ("fold",))
        order = np.random.default_rng(6).permutation(40)
        ms = [2 + i % 5 for i in order] + [9]
        instances = [(random_h(stream.split("h%d" % i), m),
                      RgclConfig(rho=0.1 + 0.9 * float(stream.uniform()), tau0=0.05, tau_init=0.05))
                     for i, m in enumerate(ms)]
        checks = _vcheck_oracle_battery(iter(instances), 3)
        assert [c["detail"] for c in checks] == per_instance_fold(instances, 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("solve", [lambda h: solve_primal(h, 0.5, 0.05), lambda h: grid_search_simplex(h, 0.5, 0.05),
                                   lambda h: solve_dual_tau(h, RgclConfig(rho=0.5, tau0=0.05, tau_init=0.05))])
def test_solvers_refuse_a_non_finite_score(solve, bad):
    # each solver names the first bad score, not a symptom of it downstream
    with pytest.raises(ValueError, match="hardness score 1 is %r" % float(bad)):
        solve([0.1, bad, -0.3])


class TestFiniteDiff:
    def test_quadratic(self):
        x = np.array([0.3, -1.2, 2.0])
        grad = finite_diff_grad(lambda v: float(v @ v), x)
        np.testing.assert_allclose(grad, 2 * x, atol=1e-9)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda v: float("nan"), np.zeros(2))


class TestFullBatchReference:
    def test_matches_production_path(self):
        stream = RandomStream(6, ("fb",))
        params = init_encoder_params(4, 5, 3, "tanh", stream.split("enc"))
        views = ViewPairs(stream.split("a").normal(5, 4), stream.split("b").normal(5, 4))
        taus = 0.2 + 0.6 * stream.split("tau").uniform(5)
        cfg = RgclConfig(rho=0.4, tau0=0.05, tau_init=0.6)
        rv, rgw, rgt = full_batch_reference(params, views, taus, cfg)
        v, gw, gt = unimodal_value_and_grads(params, views, taus, cfg)
        assert rv == pytest.approx(v, abs=1e-12)
        np.testing.assert_allclose(rgw, gw, atol=1e-12)
        np.testing.assert_allclose(rgt, gt, atol=1e-12)

    @pytest.mark.parametrize("log_epsilon", [0.0, 0.25])
    def test_grads_finite_difference(self, log_epsilon):
        # every gradient of both references against central differences of
        # the reference's own value, so the loop is judged against calculus
        stream = RandomStream(8, ("fd",))
        p_img = init_encoder_params(4, 5, 3, "tanh", stream.split("img"))
        p_txt = init_encoder_params(3, 4, 3, "tanh", stream.split("txt"))
        images, texts = stream.split("x").normal(5, 4), stream.split("t").normal(5, 3)
        taus_v, taus_t = 0.2 + 0.6 * stream.split("tv").uniform(5), 0.2 + 0.6 * stream.split("tt").uniform(5)
        cfg = RgclConfig(rho=0.4, tau0=0.05, tau_init=0.6, log_epsilon=log_epsilon)
        views = ViewPairs(images, stream.split("b").normal(5, 4))

        def uni(params=p_img, taus=taus_v):
            return full_batch_reference(params, views, taus, cfg)[0]

        def bi(p_img=p_img, p_txt=p_txt, taus_v=taus_v, taus_t=taus_t):
            return full_batch_reference_bimodal(p_img, p_txt, images, texts, taus_v, taus_t, cfg)[0]

        _, gw, gtau = full_batch_reference(p_img, views, taus_v, cfg)
        _, gx, gt, gtv, gtt = full_batch_reference_bimodal(p_img, p_txt, images, texts, taus_v, taus_t, cfg)
        assert_finite_diff(
            ("w", gw, p_img.flatten(), lambda f: uni(params=p_img.from_flat(f))),
            ("tau", gtau, taus_v, lambda t: uni(taus=t)),
            ("w_img", gx, p_img.flatten(), lambda f: bi(p_img=p_img.from_flat(f))),
            ("w_txt", gt, p_txt.flatten(), lambda f: bi(p_txt=p_txt.from_flat(f))),
            ("tau_img", gtv, taus_v, lambda t: bi(taus_v=t)),
            ("tau_txt", gtt, taus_t, lambda t: bi(taus_t=t)),
        )

    def test_size_cap(self):
        stream = RandomStream(7, ("cap",))
        params = init_encoder_params(3, 4, 2, "tanh", stream.split("enc"))
        big = ViewPairs(np.ones((300, 3)), np.ones((300, 3)))
        taus = np.full(300, 0.5)
        with pytest.raises(ValueError, match="capped at n <= 256"):
            full_batch_reference(params, big, taus, RgclConfig())
        with pytest.raises(ValueError, match="capped at n <= 256"):
            full_batch_reference_bimodal(params, params, big.views_a, big.views_b, taus, taus, RgclConfig())


def test_independent_of_the_block_machinery():
    # the oracle judges the production path, so it must not run any of it
    names = {"_contrast", "_softmax_rows", "_scores", "_exp_rows", "_checked_taus", "_objective",
             "_encoder_pass", "_full_batch", "_tables", "_step"}
    machinery = [getattr(loss, name, None) or getattr(optimizer, name) for name in names]
    assert not names & vars(oracle).keys()
    assert not [value for value in vars(oracle).values() if any(value is m for m in machinery)]
