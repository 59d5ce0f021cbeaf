import copy
import struct
from dataclasses import replace

import numpy as np
import pytest

from rgcl import optimizer
from rgcl.datasynth import gen_longtail_clusters
from rgcl.encoder import encode, init_encoder_params
from rgcl.harness import _vcheck_degeneration, _vcheck_tau_box
from rgcl.loss import RgclConfig, ViewPairs, unimodal_value_and_grads
from rgcl.numerics import RandomStream
from rgcl.optimizer import (
    _MODES,
    OptimizerState,
    _tables,
    init_optimizer_state,
    load_optimizer_state,
    sample_batch,
    save_optimizer_state,
    step_bimodal,
    step_sogclr_baseline,
    step_unimodal,
)
from rgcl.oracle import full_batch_reference, full_batch_reference_bimodal, g_value
from test_loss import exp_rows, hardness_rows


def assert_states_equal(got, want):
    """Every field of two optimizer states equal, arrays in dtype too."""
    for name in OptimizerState.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b, err_msg=name)
        else:
            assert a == b, name


class TestSampleBatch:
    def test_full_batch_covers_all(self):
        idx, na, nb = sample_batch(RandomStream(0, ("b",)), 10, 10, 4)
        assert idx.tolist() == list(range(10))
        assert na.shape == (10, 4) and nb.shape == (10, 4)
        assert np.any(na != nb)

    def test_deterministic(self):
        a = sample_batch(RandomStream(1, ("b",)), 50, 8, 3)
        b = sample_batch(RandomStream(1, ("b",)), 50, 8, 3)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_index_frequencies_uniform(self):
        n, b, draws = 10, 2, 10000
        counts = np.zeros(n)
        for t in range(draws):
            idx, _, _ = sample_batch(RandomStream(2, ("f", str(t))), n, b, 1)
            counts[idx] += 1
        expect = draws * b / n
        sigma = np.sqrt(draws * (b / n) * (1 - b / n))
        assert np.all(np.abs(counts - expect) <= 3 * sigma)

    def test_size_validation(self):
        with pytest.raises(ValueError, match="not batch_size 1 with n 10$"):
            sample_batch(RandomStream(0), 10, 1, 2)
        with pytest.raises(ValueError, match="not batch_size 11 with n 10$"):
            sample_batch(RandomStream(0), 10, 11, 2)


def side_state(n, cfg, s=None, initialized=False):
    """A one-sided state for n anchors with the given s and first-touch
    flags, for driving _tables directly."""
    opt = init_optimizer_state(n, 1, cfg, seed=0)
    if s is not None:
        opt.s[0] = s
    opt.initialized[:] = initialized
    return opt


def side_step(opt, hmat, cfg, eta_tau=0.0):
    """_tables on every anchor of opt with the hardness rows hmat (n, n-1)
    of its one side (scored against a positive at 0), at the step size
    eta_tau."""
    idx = np.arange(opt.n)
    _tables(opt, idx, opt.tau[:, idx], exp_rows(hmat, opt.tau[0])[0][:, None], replace(cfg, eta_tau=eta_tau))


class TestUpdateS:
    """The moving-average update of s inside the step's kernel, _tables."""

    def test_first_touch_takes_batch_value(self):
        cfg = RgclConfig(rho=0.5, tau0=0.05, tau_init=0.5, beta0=0.1)
        h = np.array([[0.2, -0.4], [0.7, 0.1], [-1.0, 0.3]])
        opt = side_state(3, cfg, s=5.0)
        side_step(opt, h, cfg)
        want = [g_value(row, 0.5) for row in h]
        np.testing.assert_allclose(opt.s[0], want, rtol=1e-14)
        assert not opt.initialized.any()  # the step, not _tables, sets the flags

    def test_arithmetic(self):
        # g = exp(c / tau) = 3 on every row, s = 1, beta0 = 0.5 -> s = 2
        cfg = RgclConfig(rho=0.5, tau0=0.05, tau_init=0.5, beta0=0.5)
        c = 0.5 * np.log(3.0)
        opt = side_state(3, cfg, s=1.0, initialized=True)
        side_step(opt, np.full((3, 2), c), cfg)
        np.testing.assert_allclose(opt.s[0], 2.0, rtol=1e-14)

    def test_geometric_convergence(self):
        cfg = RgclConfig(rho=0.5, tau0=0.05, tau_init=0.5, beta0=0.25)
        h = np.array([[0.3, -0.2], [0.0, 0.6], [-0.5, -0.1]])
        g = np.array([g_value(row, 0.5) for row in h])
        opt = side_state(3, cfg, s=10.0, initialized=True)
        gap = opt.s[0] - g
        for _ in range(5):
            side_step(opt, h, cfg)  # eta_tau = 0 keeps tau, hence g, fixed
            gap *= 1.0 - cfg.beta0
            np.testing.assert_allclose(opt.s[0] - g, gap, atol=1e-12)


class TestGradTauEstimator:
    """The temperature gradient that _tables feeds into the momentum u;
    with beta1 = 1 and u = 0, u holds the gradient itself."""

    def test_constant_hardness(self):
        # with s = g the -c/tau and +log(s) terms cancel: rho * scale / n
        c, tau = 0.4, 0.5
        cfg = RgclConfig(rho=0.7, tau0=0.05, tau_init=tau, beta1=1.0, tau_grad_scale=5.0)
        opt = side_state(7, cfg, s=float(np.exp(c / tau)), initialized=True)
        side_step(opt, np.full((7, 6), c), cfg)
        np.testing.assert_allclose(opt.u[0], 0.7 * 5.0 / 7, atol=1e-12)

    def test_full_batch_equals_exact(self):
        # a full batch on first touch (s = g) with scale 1 is the exact
        # full-batch temperature gradient
        stream = RandomStream(3, ("gtau",))
        params = init_encoder_params(4, 5, 3, "tanh", stream.split("enc"))
        views = ViewPairs(stream.split("a").normal(6, 4), stream.split("b").normal(6, 4))
        cfg = RgclConfig(rho=0.3, tau0=0.05, tau_init=0.45, beta1=1.0, tau_grad_scale=1.0)
        taus = np.full(6, 0.45)
        _, _, want = unimodal_value_and_grads(params, views, taus, cfg)
        opt = side_state(6, cfg)
        y = encode(params, views.views).embeddings
        h = hardness_rows(y[0::2], y[1::2], y[0::2], y[1::2])
        _tables(opt, np.arange(6), taus[None], exp_rows(h, taus)[0][:, None], replace(cfg, eta_tau=0.0))
        np.testing.assert_allclose(opt.u[0], want, rtol=0, atol=1e-12)

    def test_scale_linearity(self):
        h = np.clip(RandomStream(4).normal(5, 4), -2, 2)
        us = []
        for scale in (1.0, 7.0):
            cfg = RgclConfig(rho=0.3, tau0=0.05, tau_init=0.6, beta1=1.0, tau_grad_scale=scale)
            opt = side_state(5, cfg, s=1.3, initialized=True)
            side_step(opt, h, cfg)
            us.append(opt.u[0].copy())
        np.testing.assert_allclose(us[1], 7.0 * us[0], rtol=1e-12)


class TestHardnessRows:
    def test_duplicated_anchor_symmetry(self):
        # two identical samples in the batch must contribute identically,
        # which shows up as equal hardness rows and equal weights
        stream = RandomStream(6, ("dup",))
        params = init_encoder_params(3, 4, 2, "tanh", stream.split("enc"))
        row_a = stream.split("ra").normal(1, 3)
        row_b = stream.split("rb").normal(1, 3)
        other = stream.split("o").normal(1, 3)
        va = np.vstack([row_a, row_a, other])
        vb = np.vstack([row_b, row_b, other + 0.1])
        y = encode(params, ViewPairs(va, vb).views).embeddings
        hmat = hardness_rows(y[0::2], y[1::2], y[0::2], y[1::2])
        np.testing.assert_allclose(np.sort(hmat[0]), np.sort(hmat[1]), atol=1e-14)


class TestProjectTau:
    """The step clamps each updated temperature onto [tau0, tau_max]."""

    def test_below_floor(self):
        # constant hardness with s = g: the gradient is rho > 0, and an
        # oversized step drives tau below the floor
        cfg = RgclConfig(rho=0.3, tau0=0.005, tau_init=0.05, beta1=1.0)
        opt = side_state(3, cfg, s=1.0, initialized=True)
        side_step(opt, np.zeros((3, 2)), cfg, eta_tau=1e6)
        assert np.all(opt.tau[0] == 0.005)
        assert opt.min_tau_seen == 0.005

    def test_interior_unchanged(self):
        cfg = RgclConfig(rho=0.3, tau0=0.05, tau_init=0.5)
        opt = side_state(3, cfg)
        side_step(opt, np.zeros((3, 2)), cfg, eta_tau=0.0)
        assert np.all(opt.tau[0] == 0.5)

    def test_above_ceiling(self):
        # a small moving average (log s << 0) makes the gradient negative,
        # and an oversized step drives tau above the ceiling
        cfg = RgclConfig(rho=0.3, tau0=0.05, tau_init=0.5, beta0=0.1, beta1=1.0)
        opt = side_state(3, cfg, s=1e-6, initialized=True)
        side_step(opt, np.zeros((3, 2)), cfg, eta_tau=1e6)
        assert np.all(opt.tau[0] == cfg.tau_max)
        assert cfg.tau_max == pytest.approx(0.05 + 2.0 / 0.3)
        assert cfg.tau_max == pytest.approx(6.7167, abs=1e-4)


def training_setup(seed, n=24, d=5, beta0=0.9, beta1=0.9, eta_w=0.05, eta_tau=0.02,
                   tau_grad_scale=None, mode="momentum"):
    data = gen_longtail_clusters(3, n, 5.0, d, 0.3, seed)
    cfg = RgclConfig(rho=0.5, tau0=0.05, tau_init=0.6, beta0=beta0, beta1=beta1,
                     eta_w=eta_w, eta_tau=eta_tau, tau_grad_scale=tau_grad_scale)
    params = init_encoder_params(d, 6, 4, "tanh", RandomStream(seed, ("enc",)))
    opt = init_optimizer_state(n, params.n_params, cfg, seed, mode)
    return data, cfg, params, opt


# full batch, beta0 = beta1 = 1, scale 1 and no augmentation: every step is
# exact gradient descent
EXACT_CFG = RgclConfig(rho=0.5, tau0=0.05, tau_init=0.6, beta0=1.0, beta1=1.0,
                       eta_w=0.05, eta_tau=0.02, tau_grad_scale=1.0)


class TestStepUnimodal:
    @staticmethod
    def exact_descent(step_cfg, cfg):
        """The state after 5 full-batch steps under step_cfg, and verify's check of them at cfg."""
        n = 12
        data, _, params, _ = training_setup(0, n=n)
        opt = init_optimizer_state(n, params.n_params, cfg, seed=0)
        views = ViewPairs(data.inputs, data.inputs)
        return opt, _vcheck_degeneration(
            opt, [params], lambda ps: [step_unimodal(opt, ps[0], data.inputs, step_cfg, n, 0.0)],
            lambda ps: full_batch_reference(ps[0], views, opt.tau[0], cfg)[1:], cfg, 5)

    def test_exact_degeneration(self):
        assert self.exact_descent(EXACT_CFG, EXACT_CFG)[1]["detail"]["worst_rel_err"] <= 1e-10

    @pytest.mark.parametrize("step_cfg,cfg", [(replace(EXACT_CFG, eta_w=EXACT_CFG.eta_w / 2), EXACT_CFG),
                                              (replace(EXACT_CFG, eta_tau=100.0),) * 2])
    def test_degeneration_check_fails_a_wrong_step(self, step_cfg, cfg):
        # half the parameter step, or a temperature step that the box clamps
        opt, check = self.exact_descent(step_cfg, cfg)
        assert not check["passed"]
        assert (opt.min_tau_seen == cfg.tau0 or opt.max_tau_seen == cfg.tau_max) == (step_cfg is cfg)

    def test_zero_learning_rates_freeze_model(self):
        data, _, params, _ = training_setup(1)
        cfg = RgclConfig(rho=0.5, tau0=0.05, tau_init=0.6, eta_w=0.0, eta_tau=0.0)
        opt = init_optimizer_state(24, params.n_params, cfg, seed=1)
        new_params = step_unimodal(opt, params, data.inputs, cfg, 8, 0.3)
        np.testing.assert_array_equal(new_params.flatten(), params.flatten())
        np.testing.assert_array_equal(opt.tau, np.full((1, 24), 0.6))
        assert np.any(opt.initialized)  # bookkeeping still ran

    def test_deterministic_trajectory(self):
        runs = []
        for _ in range(2):
            data, cfg, params, opt = training_setup(2)
            for _ in range(10):
                params = step_unimodal(opt, params, data.inputs, cfg, 8, 0.3)
            runs.append((params.flatten(), opt))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        assert_states_equal(runs[0][1], runs[1][1])

    def test_tau_stays_in_box(self):
        data, _, params, _ = training_setup(3)
        # oversized temperature step: the projection must still contain tau
        cfg = RgclConfig(rho=0.5, tau0=0.05, tau_init=0.6, eta_tau=5.0, eta_w=0.05)
        opt = init_optimizer_state(24, params.n_params, cfg, seed=3)
        for _ in range(8):
            params = step_unimodal(opt, params, data.inputs, cfg, 8, 0.3)
        assert _vcheck_tau_box(opt, cfg)["passed"]

    def test_projection_fault_injection(self, monkeypatch):
        data, _, params, _ = training_setup(3)
        cfg = RgclConfig(rho=0.5, tau0=0.05, tau_init=0.6, eta_tau=5.0, eta_w=0.05)
        opt = init_optimizer_state(24, params.n_params, cfg, seed=3)
        monkeypatch.setattr(optimizer, "_project_tau", lambda tau, cfg: tau)
        for _ in range(8):
            params = step_unimodal(opt, params, data.inputs, cfg, 8, 0.3)
        assert opt.min_tau_seen < cfg.tau0 or opt.max_tau_seen > cfg.tau_max

    def test_adam_mode_runs_and_differs(self):
        data, cfg, params, opt = training_setup(4, mode="adam")
        data2, cfg2, params2, opt2 = training_setup(4, mode="momentum")
        p1 = step_unimodal(opt, params, data.inputs, cfg, 8, 0.3)
        p2 = step_unimodal(opt2, params2, data2.inputs, cfg2, 8, 0.3)
        assert np.any(p1.flatten() != p2.flatten())


class TestBaseline:
    def test_eta_tau_zero_matches_baseline_bitwise(self):
        data, cfg0, params_a, _ = training_setup(5)
        cfg_zero = replace(cfg0, eta_tau=0.0)
        opt_a = init_optimizer_state(24, params_a.n_params, cfg_zero, seed=5)
        params_b = params_a.copy()
        opt_b = init_optimizer_state(24, params_b.n_params, cfg0, seed=5)
        for _ in range(10):
            params_a = step_unimodal(opt_a, params_a, data.inputs, cfg_zero, 8, 0.3)
            params_b = step_sogclr_baseline(opt_b, params_b, data.inputs, cfg0, 8, 0.3)
            np.testing.assert_array_equal(params_a.flatten(), params_b.flatten())
            assert_states_equal(opt_a, opt_b)

    def test_tau_variance_zero(self):
        data, cfg, params, opt = training_setup(6)
        for _ in range(10):
            params = step_sogclr_baseline(opt, params, data.inputs, cfg, 8, 0.3)
        assert float(np.var(opt.tau)) == 0.0
        assert np.all(opt.tau == cfg.tau_init)


class TestStepBimodal:
    def mirrored_setup(self, seed, n=20, d=4):
        stream = RandomStream(seed, ("bi",))
        images = stream.split("x").normal(n, d)
        texts = images.copy()
        cfg = RgclConfig(rho=0.5, tau0=0.05, tau_init=0.6, eta_w=0.05, eta_tau=0.02)
        p_img = init_encoder_params(d, 6, 4, "tanh", stream.split("enc"))
        p_txt = p_img.copy()
        opt = init_optimizer_state(n, p_img.n_params + p_txt.n_params, cfg, seed, sides=2)
        return images, texts, cfg, p_img, p_txt, opt

    def test_mirrored_temperatures_identical_per_step(self):
        images, texts, cfg, p_img, p_txt, opt = self.mirrored_setup(7)
        for _ in range(6):
            p_img, p_txt = step_bimodal(opt, p_img, p_txt, images, texts, cfg, 8)
            np.testing.assert_array_equal(opt.tau[0], opt.tau[1])
            np.testing.assert_array_equal(opt.s[0], opt.s[1])
            np.testing.assert_array_equal(p_img.flatten(), p_txt.flatten())

    def test_deterministic(self):
        results = []
        for _ in range(2):
            images, texts, cfg, p_img, p_txt, opt = self.mirrored_setup(8)
            for _ in range(5):
                p_img, p_txt = step_bimodal(opt, p_img, p_txt, images, texts, cfg, 8)
            results.append((p_img.flatten(), opt.tau.copy()))
        np.testing.assert_array_equal(results[0][0], results[1][0])
        np.testing.assert_array_equal(results[0][1], results[1][1])

    def test_exact_degeneration(self):
        # both towers and both temperature sides
        n, d = 10, 4
        stream = RandomStream(10, ("bi-exact",))
        images, texts = stream.split("x").normal(n, d), stream.split("t").normal(n, d)
        towers = [init_encoder_params(d, 6, 4, "tanh", stream.split("enc-x")),
                  init_encoder_params(d, 5, 4, "tanh", stream.split("enc-t"))]
        opt = init_optimizer_state(n, sum(p.n_params for p in towers), EXACT_CFG, seed=10, sides=2)
        assert _vcheck_degeneration(
            opt, towers, lambda ps: step_bimodal(opt, *ps, images, texts, EXACT_CFG, n),
            lambda ps: full_batch_reference_bimodal(*ps, images, texts, *opt.tau, EXACT_CFG)[1:], EXACT_CFG, 5,
        )["detail"]["worst_rel_err"] <= 1e-10

    def test_batch_size_validation(self):
        images, texts, cfg, p_img, p_txt, opt = self.mirrored_setup(9)
        with pytest.raises(ValueError):
            step_bimodal(opt, p_img, p_txt, images, texts, cfg, 1)


class TestNonFinite:
    """A non-finite g, s or tau stops the step before it writes any table,
    naming the dataset index of the first such anchor in the batch."""

    def test_unimodal_step(self):
        data, cfg, params, opt = training_setup(10)
        opt.tau[0, 12:] = np.nan
        before = [opt.s.copy(), opt.u.copy(), opt.tau.copy()]
        with pytest.raises(ValueError, match=r"^anchor (\d+) has a non-finite value: g = nan, s = nan, tau = nan$") as err:
            step_unimodal(opt, params, data.inputs, cfg, 8, 0.3)
        assert int(err.value.args[0].split()[1]) >= 12
        for got, want in zip([opt.s, opt.u, opt.tau], before):
            np.testing.assert_array_equal(got, want)
        assert opt.t == 0

    def test_bimodal_step_names_the_side(self):
        images, texts, cfg, p_img, p_txt, opt = TestStepBimodal().mirrored_setup(11)
        opt.tau[1, 10:] = np.nan
        names = ("s", "u", "tau", "initialized", "v", "t")
        before = {name: copy.copy(getattr(opt, name)) for name in names}
        with pytest.raises(ValueError, match=r"^text anchor (\d+) has a non-finite value") as err:
            step_bimodal(opt, p_img, p_txt, images, texts, cfg, 8)
        assert int(err.value.args[0].split()[2]) >= 10
        # the image side comes first, yet no table of either side is written
        for name in names:
            np.testing.assert_array_equal(getattr(opt, name), before[name])

    def test_bimodal_step_names_the_image_side_first(self):
        # both sides fault: the image side is named, and no field is written
        images, texts, cfg, p_img, p_txt, opt = TestStepBimodal().mirrored_setup(11)
        opt.tau[:] = np.nan
        before = copy.deepcopy(opt)
        with pytest.raises(ValueError, match=r"^image anchor (\d+) has a non-finite value: g = nan, s = nan, tau = nan$"):
            step_bimodal(opt, p_img, p_txt, images, texts, cfg, 8)
        assert_states_equal(opt, before)

    @staticmethod
    def first_batch(opt, n, batch_size):
        """The dataset indices of opt's next batch."""
        return optimizer._batch_indices(RandomStream(opt.seed, ("train", str(opt.t))), n, batch_size)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_unimodal_step_input_row(self, bad):
        # the interleaved views put the anchor view of the batch's third
        # sample at encoder row 4; the error names its dataset index
        data, cfg, params, opt = training_setup(10)
        idx = self.first_batch(opt, 24, 8)
        assert idx[2] != 2
        data.inputs[idx[2], 1] = bad
        before = copy.deepcopy(opt)
        with pytest.raises(ValueError, match="^sample %d has a non-finite view a input$" % idx[2]):
            step_unimodal(opt, params, data.inputs, cfg, 8, 0.3)
        assert_states_equal(opt, before)

    def test_bimodal_step_input_row(self):
        images, texts, cfg, p_img, p_txt, opt = TestStepBimodal().mirrored_setup(12)
        idx = self.first_batch(opt, 20, 8)
        assert idx[3] != 3
        texts[idx[3], 0] = np.inf
        before = copy.deepcopy(opt)
        with pytest.raises(ValueError, match="^sample %d has a non-finite text input$" % idx[3]):
            step_bimodal(opt, p_img, p_txt, images, texts, cfg, 8)
        assert_states_equal(opt, before)


class TestStateSizeChecked:
    """A state must hold one anchor per dataset row: a larger one would
    leave anchors untouched and scale the temperature gradient by the wrong
    n, a smaller one would index past its tables."""

    def setup(self, n_state, sides=1):
        data = gen_longtail_clusters(3, 24, 5.0, 5, 0.3, 0)
        cfg = RgclConfig(rho=0.5, tau0=0.05, tau_init=0.6)
        params = init_encoder_params(5, 6, 4, "tanh", RandomStream(0, ("enc",)))
        opt = init_optimizer_state(n_state, sides * params.n_params, cfg, seed=0, sides=sides)
        return data.inputs, cfg, params, opt

    @pytest.mark.parametrize("n_state", [40, 10])
    @pytest.mark.parametrize("step", ["step_unimodal", "step_sogclr_baseline"])
    def test_unimodal_steps(self, n_state, step):
        inputs, cfg, params, opt = self.setup(n_state)
        with pytest.raises(ValueError, match="holds %d anchors, the dataset 24 rows" % n_state):
            getattr(optimizer, step)(opt, params, inputs, cfg, 8, 0.3)
        assert opt.t == 0 and not opt.initialized.any()

    @pytest.mark.parametrize("n_state", [40, 10])
    def test_bimodal_step(self, n_state):
        inputs, cfg, params, opt = self.setup(n_state, sides=2)
        with pytest.raises(ValueError, match="holds %d anchors, the dataset 24 rows" % n_state):
            step_bimodal(opt, params, params.copy(), inputs, inputs.copy(), cfg, 8)
        assert opt.t == 0 and not opt.initialized.any()

    def test_bimodal_text_rows_checked(self):
        inputs, cfg, params, opt = self.setup(24, sides=2)
        with pytest.raises(ValueError, match="holds 24 anchors, the dataset 20 rows"):
            step_bimodal(opt, params, params.copy(), inputs, inputs[:20].copy(), cfg, 8)

    @pytest.mark.parametrize("step", ["step_unimodal", "step_sogclr_baseline"])
    def test_single_row_rejected(self, step):
        inputs, cfg, params, opt = self.setup(1)
        with pytest.raises(ValueError, match="at least 2 samples"):
            getattr(optimizer, step)(opt, params, inputs[:1], cfg, 1, 0.3)


class TestCheckpoint:
    def test_round_trip_unimodal(self, tmp_path):
        data, cfg, params, opt = training_setup(10)
        for _ in range(6):
            params = step_unimodal(opt, params, data.inputs, cfg, 8, 0.3)
        path = str(tmp_path / "opt.ckpt")
        save_optimizer_state(opt, path)
        assert_states_equal(load_optimizer_state(path), opt)

    def test_resume_is_bit_identical(self, tmp_path):
        # one 12-step run vs 6 steps, checkpoint, reload, 6 more steps
        data, cfg, params, opt = training_setup(11)
        straight = params.copy()
        opt_straight = init_optimizer_state(24, params.n_params, cfg, seed=11)
        for _ in range(12):
            straight = step_unimodal(opt_straight, straight, data.inputs, cfg, 8, 0.3)

        resumed = params.copy()
        for _ in range(6):
            resumed = step_unimodal(opt, resumed, data.inputs, cfg, 8, 0.3)
        path = str(tmp_path / "mid.ckpt")
        save_optimizer_state(opt, path)
        opt2 = load_optimizer_state(path)
        for _ in range(6):
            resumed = step_unimodal(opt2, resumed, data.inputs, cfg, 8, 0.3)
        np.testing.assert_array_equal(resumed.flatten(), straight.flatten())
        assert_states_equal(opt2, opt_straight)

    def test_round_trip_bimodal(self, tmp_path):
        n = 20
        cfg = RgclConfig(rho=0.5, tau0=0.05, tau_init=0.6)
        opt = init_optimizer_state(n, 30 + 40, cfg, seed=12, sides=2)
        opt.tau[0] = 0.3
        opt.s[1] = 1.7
        path = str(tmp_path / "bi.ckpt")
        save_optimizer_state(opt, path)
        assert_states_equal(load_optimizer_state(path), opt)
        assert opt.sides == 2 and opt.v.shape == (70,)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 100)
        with pytest.raises(ValueError):
            load_optimizer_state(str(path))

    def test_unknown_mode_rejected(self):
        for mode in ("sgd", "sogclr-baseline"):
            with pytest.raises(ValueError, match="unknown mode"):
                init_optimizer_state(4, 10, RgclConfig(), 0, mode=mode)

    def test_seed_outside_int64_rejected(self, tmp_path):
        # the checkpoint stores the seed as an int64
        for seed in (2**63, -(2**63) - 1):
            with pytest.raises(ValueError, match="seed must be in"):
                init_optimizer_state(4, 10, RgclConfig(), seed)
        for seed in (2**63 - 1, -(2**63)):
            save_optimizer_state(init_optimizer_state(4, 10, RgclConfig(), seed), str(tmp_path / "s.ckpt"))
            assert load_optimizer_state(str(tmp_path / "s.ckpt")).seed == seed

    @pytest.mark.parametrize("sides", [1, 2])
    @pytest.mark.parametrize("mode", ["momentum", "adam"])
    def test_format_pinned(self, tmp_path, sides, mode):
        # the on-disk layout, packed by hand: magic, int64 header (mode
        # flag, seed, step, n, len(v), adam flag), float64 extrema, v, then
        # s, u, tau of each side in turn, initialized as uint8, Adam moment
        n, nv = 4, 3
        rng = np.random.default_rng(sides * 10 + len(mode))

        def table():
            return rng.uniform(0.1, 2.0, (sides, n))

        opt = OptimizerState(
            mode=mode, seed=77, t=123, s=table(), u=table(), tau=table(),
            initialized=np.array([True, False, True, True]), v=rng.normal(size=nv),
            adam_m2=rng.uniform(size=nv) if mode == "adam" else None,
            min_g_seen=0.25, min_s_seen=0.5, min_tau_seen=0.125, max_tau_seen=3.0,
        )
        want = (b"RGCLOPT1", b"RGCLOPB1")[sides - 1]
        want += struct.pack("<6q", ("momentum", "adam").index(mode), 77, 123, n, nv, int(mode == "adam"))
        want += struct.pack("<4d", 0.25, 0.5, 0.125, 3.0)
        want += struct.pack("<%dd" % nv, *opt.v)
        for side in range(sides):
            for arr in (opt.s, opt.u, opt.tau):
                want += struct.pack("<%dd" % n, *arr[side])
        want += bytes([1, 0, 1, 1])
        if mode == "adam":
            want += struct.pack("<%dd" % nv, *opt.adam_m2)
        path = tmp_path / "opt.ckpt"
        save_optimizer_state(opt, str(path))
        assert path.read_bytes() == want

        assert_states_equal(load_optimizer_state(str(path)), opt)

    def test_side_count_validated(self):
        cfg = RgclConfig(rho=0.5, tau0=0.05, tau_init=0.6)
        for sides in (0, 3):
            with pytest.raises(ValueError, match="sides"):
                init_optimizer_state(4, 10, cfg, 0, sides=sides)
        data, cfg, params, _ = training_setup(13)
        with pytest.raises(ValueError, match="one-sided"):
            step_unimodal(init_optimizer_state(24, params.n_params, cfg, 0, sides=2),
                          params, data.inputs, cfg, 8, 0.3)
        with pytest.raises(ValueError, match="two-sided"):
            step_bimodal(init_optimizer_state(24, 2 * params.n_params, cfg, 0),
                         params, params, data.inputs, data.inputs, cfg, 8)

    @staticmethod
    def checkpoint_sections(tmp_path, bimodal):
        """Bytes of an adam-mode checkpoint and the offsets where its
        sections end: magic, int header, extrema, v, each per-anchor
        array, initialized flags, adam second moments."""
        n, nv = 10, 7
        cfg = RgclConfig(rho=0.5, tau0=0.05, tau_init=0.6)
        opt = init_optimizer_state(n, nv, cfg, seed=1, mode="adam", sides=2 if bimodal else 1)
        path = tmp_path / "opt.ckpt"
        save_optimizer_state(opt, str(path))
        sizes = [8, 48, 32, 8 * nv] + [8 * n] * (6 if bimodal else 3) + [n, 8 * nv]
        return path, path.read_bytes(), np.cumsum(sizes)

    @pytest.mark.parametrize("bimodal", [False, True])
    def test_truncated_at_every_section_rejected(self, tmp_path, bimodal):
        path, data, ends = self.checkpoint_sections(tmp_path, bimodal)
        assert ends[-1] == len(data)
        for end in ends[:-1]:
            for cut in (end, end - 1, end + 1):
                path.write_bytes(data[:cut])
                with pytest.raises(ValueError):
                    load_optimizer_state(str(path))

    @pytest.mark.parametrize("bimodal", [False, True])
    def test_appended_bytes_rejected(self, tmp_path, bimodal):
        path, data, _ = self.checkpoint_sections(tmp_path, bimodal)
        for extra in (b"\x00", b"\x00" * 8, b"RGCLOPT1"):
            path.write_bytes(data + extra)
            with pytest.raises(ValueError, match="header implies"):
                load_optimizer_state(str(path))

    def test_cut_short_by_300_bytes_rejected(self, tmp_path):
        path = tmp_path / "opt.ckpt"
        save_optimizer_state(init_optimizer_state(100, 30, RgclConfig(), seed=0), str(path))
        path.write_bytes(path.read_bytes()[:-300])
        with pytest.raises(ValueError, match="header implies"):
            load_optimizer_state(str(path))

    @pytest.mark.parametrize("field,value", [(0, 2), (0, 3), (0, -1), (2, -1), (3, -1), (4, -1), (5, 2)])
    def test_corrupt_header_rejected(self, tmp_path, field, value):
        # field indexes (mode flag, seed, step, n, len(v), adam flag)
        path, data, _ = self.checkpoint_sections(tmp_path, False)
        header = list(struct.unpack_from("<qqqqqq", data, 8))
        header[field] = value
        path.write_bytes(data[:8] + struct.pack("<qqqqqq", *header) + data[56:])
        with pytest.raises(ValueError, match="corrupt checkpoint header"):
            load_optimizer_state(str(path))

    @pytest.mark.parametrize("flag", [0, 1])
    def test_mode_and_adam_flags_must_agree(self, tmp_path, flag):
        # the adam state's mode flag flipped to momentum keeps a second moment
        # it would carry and write out again; a momentum state's flipped to
        # adam would step with none
        opt = init_optimizer_state(10, 7, RgclConfig(), seed=1, mode=_MODES[1 - flag])
        path = tmp_path / "opt.ckpt"
        save_optimizer_state(opt, str(path))
        data = path.read_bytes()
        path.write_bytes(data[:8] + struct.pack("<q", flag) + data[16:])
        with pytest.raises(ValueError, match="^corrupt checkpoint header: mode %d, .*, adam flag %d$" % (flag, 1 - flag)):
            load_optimizer_state(str(path))

    @pytest.mark.parametrize("bimodal", [False, True])
    def test_non_finite_values_rejected(self, tmp_path, bimodal):
        # the last entry of each float section after the extrema: v, each
        # side's s, u and tau, and the Adam second moment
        path, data, ends = self.checkpoint_sections(tmp_path, bimodal)
        names = ["v", *["s", "u", "tau"] * (2 if bimodal else 1)]
        for end, name in [*((ends[3 + k], name) for k, name in enumerate(names)), (ends[-1], "adam_m2")]:
            for bad in (np.nan, np.inf, -np.inf):
                path.write_bytes(data[: end - 8] + struct.pack("<d", bad) + data[end:])
                with pytest.raises(ValueError, match="checkpoint %s holds a non-finite value" % name):
                    load_optimizer_state(str(path))

    def test_nan_extremum_rejected(self, tmp_path):
        # extrema of +-inf stay legal: a fresh state holds them
        path, data, _ = self.checkpoint_sections(tmp_path, False)
        for k, name in enumerate(("min_g_seen", "min_s_seen", "min_tau_seen", "max_tau_seen")):
            at = 56 + 8 * k
            path.write_bytes(data[:at] + struct.pack("<d", np.nan) + data[at + 8 :])
            with pytest.raises(ValueError, match="checkpoint %s is NaN" % name):
                load_optimizer_state(str(path))
            for legal in (np.inf, -np.inf):
                path.write_bytes(data[:at] + struct.pack("<d", legal) + data[at + 8 :])
                assert getattr(load_optimizer_state(str(path)), name) == legal

    def test_initialized_flags_must_be_boolean(self, tmp_path):
        path, data, ends = self.checkpoint_sections(tmp_path, False)
        flags_at = ends[-3]
        path.write_bytes(data[:flags_at] + b"\x02" + data[flags_at + 1 :])
        with pytest.raises(ValueError, match="0 or 1"):
            load_optimizer_state(str(path))
