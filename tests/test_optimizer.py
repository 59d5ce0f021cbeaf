import struct

import numpy as np
import pytest

from rgcl import optimizer
from rgcl.datasynth import gen_longtail_clusters
from rgcl.encoder import encode, init_encoder_params
from rgcl.loss import RgclConfig, ViewPairs, _anchor_h_rows, g_value, unimodal_value_and_grads
from rgcl.numerics import RandomStream
from rgcl.optimizer import (
    OptimizerState,
    _side_step,
    init_optimizer_state,
    load_optimizer_state,
    sample_batch,
    save_optimizer_state,
    step_bimodal,
    step_sogclr_baseline,
    step_unimodal,
)
from rgcl.oracle import full_batch_reference


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
        with pytest.raises(ValueError):
            sample_batch(RandomStream(0), 10, 1, 2)
        with pytest.raises(ValueError):
            sample_batch(RandomStream(0), 10, 11, 2)


def side_state(n, cfg, s=None, initialized=False):
    """A one-sided state for n anchors with the given s and first-touch
    flags, for driving _side_step directly."""
    opt = init_optimizer_state(n, 1, cfg, seed=0)
    if s is not None:
        opt.s[0] = s
    opt.initialized[:] = initialized
    return opt


def side_step(opt, hmat, cfg, eta_tau=0.0):
    """_side_step on every anchor of opt with the hardness rows hmat (n,
    n-1), one score matrix; hmat itself is left untouched."""
    return _side_step(opt, 0, np.arange(opt.n), np.array(hmat, dtype=np.float64), cfg, eta_tau)


class TestUpdateS:
    """The moving-average update of s inside the step's _side_step."""

    def test_first_touch_takes_batch_value(self):
        cfg = RgclConfig(rho=0.5, tau0=0.05, tau_init=0.5, beta0=0.1)
        h = np.array([[0.2, -0.4], [0.7, 0.1], [-1.0, 0.3]])
        opt = side_state(3, cfg, s=5.0)
        side_step(opt, h, cfg)
        want = [g_value(row, 0.5) for row in h]
        np.testing.assert_allclose(opt.s[0], want, rtol=1e-14)
        assert not opt.initialized.any()  # the step, not _side_step, sets the flags

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
    """The temperature gradient that _side_step feeds into the momentum u;
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
        hmat, _ = _anchor_h_rows(encode(params, views.views_a).embeddings,
                                 encode(params, views.views_b).embeddings)
        opt = side_state(6, cfg)
        _side_step(opt, 0, np.arange(6), hmat, cfg, 0.0)
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
        ya = encode(params, va).embeddings
        yb = encode(params, vb).embeddings
        hmat, _ = _anchor_h_rows(ya, yb)
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


class TestStepUnimodal:
    def test_exact_degeneration(self):
        # full batch, beta0 = beta1 = 1, scale 1, zero augmentation: every
        # step is exact gradient descent; recover the per-step gradients
        # from the parameter and temperature deltas
        n = 12
        data, _, params, _ = training_setup(0, n=n)
        cfg = RgclConfig(rho=0.5, tau0=0.05, tau_init=0.6, beta0=1.0, beta1=1.0,
                         eta_w=0.05, eta_tau=0.02, tau_grad_scale=1.0)
        opt = init_optimizer_state(n, params.n_params, cfg, seed=0)
        views = ViewPairs(data.inputs, data.inputs)
        for _ in range(5):
            _, ref_gw, ref_gt = full_batch_reference(params, views, opt.tau[0], cfg)
            before_w = params.flatten()
            before_tau = opt.tau[0].copy()
            params = step_unimodal(opt, params, data.inputs, cfg, n, 0.0)
            step_gw = (before_w - params.flatten()) / cfg.eta_w
            step_gt = (before_tau - opt.tau[0]) / cfg.eta_tau
            assert np.linalg.norm(step_gw - ref_gw) / np.linalg.norm(ref_gw) <= 1e-10
            assert np.linalg.norm(step_gt - ref_gt) / np.linalg.norm(ref_gt) <= 1e-10
            # no clamping happened, otherwise the delta is not the gradient
            assert opt.tau.min() > cfg.tau0 and opt.tau.max() < cfg.tau_max

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
            runs.append((params.flatten(), opt.tau.copy(), opt.s.copy()))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        np.testing.assert_array_equal(runs[0][1], runs[1][1])
        np.testing.assert_array_equal(runs[0][2], runs[1][2])

    def test_tau_stays_in_box(self):
        data, _, params, _ = training_setup(3)
        # oversized temperature step: the projection must still contain tau
        cfg = RgclConfig(rho=0.5, tau0=0.05, tau_init=0.6, eta_tau=5.0, eta_w=0.05)
        opt = init_optimizer_state(24, params.n_params, cfg, seed=3)
        for _ in range(8):
            params = step_unimodal(opt, params, data.inputs, cfg, 8, 0.3)
        assert opt.min_tau_seen >= cfg.tau0 - 1e-15
        assert opt.max_tau_seen <= cfg.tau_max + 1e-15

    def test_projection_fault_injection(self):
        data, _, params, _ = training_setup(3)
        cfg = RgclConfig(rho=0.5, tau0=0.05, tau_init=0.6, eta_tau=5.0, eta_w=0.05)
        opt = init_optimizer_state(24, params.n_params, cfg, seed=3)
        opt._disable_tau_projection = True
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
        cfg_zero = RgclConfig(rho=cfg0.rho, tau0=cfg0.tau0, tau_init=cfg0.tau_init,
                              beta0=cfg0.beta0, beta1=cfg0.beta1,
                              eta_w=cfg0.eta_w, eta_tau=0.0)
        opt_a = init_optimizer_state(24, params_a.n_params, cfg_zero, seed=5)
        params_b = params_a.copy()
        opt_b = init_optimizer_state(24, params_b.n_params, cfg0, seed=5)
        for _ in range(10):
            params_a = step_unimodal(opt_a, params_a, data.inputs, cfg_zero, 8, 0.3)
            params_b = step_sogclr_baseline(opt_b, params_b, data.inputs, cfg0, 8, 0.3)
            np.testing.assert_array_equal(params_a.flatten(), params_b.flatten())
            np.testing.assert_array_equal(opt_a.tau, opt_b.tau)
            np.testing.assert_array_equal(opt_a.s, opt_b.s)

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

    def test_batch_size_validation(self):
        images, texts, cfg, p_img, p_txt, opt = self.mirrored_setup(9)
        with pytest.raises(ValueError):
            step_bimodal(opt, p_img, p_txt, images, texts, cfg, 1)


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
        loaded = load_optimizer_state(path)
        assert loaded.mode == opt.mode and loaded.t == opt.t and loaded.seed == opt.seed
        np.testing.assert_array_equal(loaded.s, opt.s)
        np.testing.assert_array_equal(loaded.u, opt.u)
        np.testing.assert_array_equal(loaded.tau, opt.tau)
        np.testing.assert_array_equal(loaded.v, opt.v)
        np.testing.assert_array_equal(loaded.initialized, opt.initialized)
        assert loaded.min_g_seen == opt.min_g_seen
        assert loaded.max_tau_seen == opt.max_tau_seen

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
        np.testing.assert_array_equal(opt2.tau, opt_straight.tau)
        np.testing.assert_array_equal(opt2.s, opt_straight.s)

    def test_round_trip_bimodal(self, tmp_path):
        n = 20
        cfg = RgclConfig(rho=0.5, tau0=0.05, tau_init=0.6)
        opt = init_optimizer_state(n, 30 + 40, cfg, seed=12, sides=2)
        opt.tau[0] = 0.3
        opt.s[1] = 1.7
        path = str(tmp_path / "bi.ckpt")
        save_optimizer_state(opt, path)
        loaded = load_optimizer_state(path)
        assert loaded.sides == 2
        np.testing.assert_array_equal(loaded.tau, opt.tau)
        np.testing.assert_array_equal(loaded.s, opt.s)
        assert loaded.v.shape == (70,)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 100)
        with pytest.raises(ValueError):
            load_optimizer_state(str(path))

    def test_unknown_mode_rejected(self):
        for mode in ("sgd", "sogclr-baseline"):
            with pytest.raises(ValueError, match="unknown mode"):
                init_optimizer_state(4, 10, RgclConfig(), 0, mode=mode)

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

        loaded = load_optimizer_state(str(path))
        assert loaded.sides == sides and loaded.n == n
        for name in ("mode", "seed", "t", "min_g_seen", "min_s_seen", "min_tau_seen", "max_tau_seen"):
            assert getattr(loaded, name) == getattr(opt, name)
        for name in ("s", "u", "tau", "initialized", "v"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(opt, name))
            assert getattr(loaded, name).dtype == getattr(opt, name).dtype
        if mode == "adam":
            np.testing.assert_array_equal(loaded.adam_m2, opt.adam_m2)
        else:
            assert loaded.adam_m2 is None

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

    @pytest.mark.parametrize("field,value", [(0, 2), (0, 3), (0, -1), (3, -1), (4, -1), (5, 2)])
    def test_corrupt_header_rejected(self, tmp_path, field, value):
        # field indexes (mode flag, seed, step, n, len(v), adam flag)
        path, data, _ = self.checkpoint_sections(tmp_path, False)
        header = list(struct.unpack_from("<qqqqqq", data, 8))
        header[field] = value
        path.write_bytes(data[:8] + struct.pack("<qqqqqq", *header) + data[56:])
        with pytest.raises(ValueError, match="corrupt checkpoint header"):
            load_optimizer_state(str(path))

    def test_initialized_flags_must_be_boolean(self, tmp_path):
        path, data, ends = self.checkpoint_sections(tmp_path, False)
        flags_at = ends[-3]
        path.write_bytes(data[:flags_at] + b"\x02" + data[flags_at + 1 :])
        with pytest.raises(ValueError, match="0 or 1"):
            load_optimizer_state(str(path))
