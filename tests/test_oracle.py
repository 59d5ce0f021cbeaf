import numpy as np
import original_reference as original
import pytest

from rgcl import oracle
from rgcl.encoder import init_encoder_params
from rgcl.harness import _random_instance
from rgcl.loss import (
    HARDNESS_BOUND,
    RgclConfig,
    ViewPairs,
    kl_uniform,
    unimodal_value_and_grads,
)
from rgcl.numerics import RandomStream
from rgcl.oracle import (
    finite_diff_grad,
    full_batch_reference,
    grid_search_simplex,
    solve_dual_tau,
    solve_primal,
)


def random_h(stream, m):
    return np.clip(stream.normal(m), -2.0, 2.0)


class TestSolvePrimal:
    def test_constant_hardness_uniform(self):
        sol = solve_primal(np.full(5, 0.3), rho=0.5, tau0=0.05)
        np.testing.assert_allclose(sol.p, np.ones(5) / 5, atol=1e-12)
        assert sol.lam == 0.0
        assert not sol.constraint_active

    def test_feasibility(self):
        stream = RandomStream(0, ("primal",))
        for i in range(30):
            m = 2 + int(stream.integers(0, 6))
            h = random_h(stream.split("h%d" % i), m)
            rho = 0.05 + float(stream.uniform())
            sol = solve_primal(h, rho, 0.05)
            assert kl_uniform(sol.p) <= rho + 1e-8

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
        stream = RandomStream(2, ("grid",))
        for i in range(20):
            h = random_h(stream.split("h%d" % i), 2)
            rho = 0.1 + 0.5 * float(stream.uniform())
            _, gv = grid_search_simplex(h, rho, 0.05)
            sol = solve_primal(h, rho, 0.05)
            assert abs(gv - sol.value) <= 1e-3

    def test_three_point_instances(self):
        stream = RandomStream(3, ("grid3",))
        for i in range(5):
            h = random_h(stream.split("h%d" % i), 3)
            _, gv = grid_search_simplex(h, 0.3, 0.05)
            sol = solve_primal(h, 0.3, 0.05)
            assert abs(gv - sol.value) <= 1e-3

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
        worst = 0.0
        for i in range(200):
            h = random_h(stream.split("h%d" % i), 3)
            rho = (0.1, 0.5, 1.0)[i % 3]
            _, gv = grid_search_simplex(h, rho, 0.05)
            worst = max(worst, abs(gv - solve_primal(h, rho, 0.05).value))
        assert worst <= 3e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_two_point_matches_loop_on_verify_instances(self, seed):
        # the instances of rgcl verify's grid_cross_check
        stream = RandomStream(seed, ("verify", "grid"))
        for i in range(10):
            h = _random_instance(stream.split("h%d" % i), 2)
            rho = 0.1 + 0.5 * float(stream.uniform())
            p, v = grid_search_simplex(h, rho, 0.05)
            want_p, want_v = original.grid_search_simplex(h, rho, 0.05)
            np.testing.assert_array_equal(p, want_p)
            assert v == want_v


def _axis(lo, hi, res):
    return np.clip(np.arange(lo, hi + 0.5 * res, res), 0.0, 1.0)


def assert_same_best(hv, rho, tau0, lows, highs, res):
    p, v = oracle._grid_best(hv, rho, tau0, lows, highs, res)
    want_p, want_v = original._grid_best(hv, rho, tau0, lows, highs, res)
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
        stream = RandomStream(4, ("dual",))
        worst = 0.0
        for m in range(2, 7):
            for rho in (0.1, 0.5, 1.0):
                for i in range(20):
                    h = random_h(stream.split("h%d-%d-%s" % (m, i, rho)), m)
                    cfg = RgclConfig(rho=rho, tau0=0.05, tau_init=0.05)
                    _, dv = solve_dual_tau(h, cfg)
                    sol = solve_primal(h, rho, cfg.tau0)
                    worst = max(worst, abs(dv - sol.value))
        assert worst <= 1e-6

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
        # h = [0, -1], rho = 0.2, tau0 -> 0: the harder negative carries
        # p1 = 0.80 of the mass
        sol = solve_primal(np.array([0.0, -1.0]), 0.2, 0.0)
        assert float(sol.p[0]) == pytest.approx(0.80, abs=0.02)

    def test_weight_monotone_in_rho(self):
        p1 = [
            float(solve_primal(np.array([0.0, -1.0]), rho, 0.0).p[0])
            for rho in (0.05, 0.1, 0.2, 0.4)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(p1, p1[1:]))


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

    def test_size_cap(self):
        stream = RandomStream(7, ("cap",))
        params = init_encoder_params(3, 4, 2, "tanh", stream.split("enc"))
        big = ViewPairs(np.ones((300, 3)), np.ones((300, 3)))
        with pytest.raises(ValueError):
            full_batch_reference(params, big, np.full(300, 0.5), RgclConfig())
