"""End-to-end acceptance checks.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single PASS line on success (run with -s to see them; under plain
pytest the per-test PASSED/FAILED line carries the same information).
The long-tail training criteria share one session-scoped default run.

Criteria 01-05, 07 and 08 call rgcl verify's checks (rgcl.harness._vcheck_*),
each with the stream and count it states, and assert their own tolerances
on the figures the checks return; README's table lists verify's own.
"""

import math
import os
import time

import numpy as np
import pytest

from rgcl import cli, harness, optimizer
from rgcl.datasynth import gen_longtail_clusters
from rgcl.encoder import encode, init_encoder_params
from rgcl.loss import RgclConfig, ViewPairs, objective_unimodal, unimodal_value_and_grads
from rgcl.numerics import RandomStream
from rgcl.oracle import full_batch_reference, g_value
from test_loss import hardness_rows


def passed(line):
    print("PASS  %s" % line)


@pytest.fixture(scope="session")
def longtail_run(tmp_path_factory):
    """The default synthetic long-tail training run, shared by the
    temperature-ordering and stationarity criteria."""
    out = str(tmp_path_factory.mktemp("longtail"))
    cfg = harness.load_config(data={"out": out})
    t0 = time.monotonic()
    report = harness.run_train_unimodal(cfg)
    report["_elapsed"] = time.monotonic() - t0
    return cfg, report


def test_criterion_01_gradient_oracle():
    # exact gradients match central finite differences on 100 random
    # small instances, rel err <= 1e-6, in under 5 seconds
    stream = RandomStream(0, ("acc", "grad"))
    t0 = time.monotonic()
    cfg = RgclConfig(rho=0.4, tau0=0.05, tau_init=0.6)
    errors = []
    for i in range(100):
        sub = stream.split("i%d" % i)
        n = 2 + int(sub.split("n").integers(0, 3))  # m = 2(n-1) <= 6
        d = 2 + int(sub.split("d").integers(0, 5))
        params = init_encoder_params(d, 4, 3, "tanh", sub.split("enc"))
        views = ViewPairs(sub.split("a").normal(n, d), sub.split("b").normal(n, d))
        taus = 0.2 + 0.6 * sub.split("tau").uniform(n)
        _, gw, gt = unimodal_value_and_grads(params, views, taus, cfg)
        errors.append([check["detail"]["rel_err"] for check in harness._vcheck_finite_diff([
            ("w", gw, params.flatten(), lambda f: objective_unimodal(params.from_flat(f), views, taus, cfg)),
            ("tau", gt, taus, lambda t: objective_unimodal(params, views, t, cfg))])])
    worst_w, worst_t = np.max(errors, axis=0)
    elapsed = time.monotonic() - t0
    assert worst_w <= 1e-6 and worst_t <= 1e-6
    assert elapsed < 5.0
    passed(
        "criterion 01 gradient oracle: worst rel err w=%.2e tau=%.2e in %.2fs"
        % (worst_w, worst_t, elapsed)
    )


def test_criterion_02_primal_dual_equivalence():
    battery = harness._oracle_battery(RandomStream(1, ("acc", "pd")), 20)
    _, dual, grid, _ = harness._vcheck_oracle_battery(battery, 3)
    worst, worst_grid = dual["detail"]["worst_gap"], grid["detail"]["worst_gap"]
    assert worst <= 1e-6
    assert worst_grid <= 1e-3
    passed(
        "criterion 02 primal-dual equivalence: worst gap %.2e, grid gap %.2e"
        % (worst, worst_grid)
    )


def test_criterion_03_hard_negative_weighting():
    # two negatives with h = [0, -1]: the harder one carries 0.80 of the
    # worst-case mass at rho = 0.2, and the mass grows with rho
    reference, monotone = harness._vcheck_fixed_instance()
    p1, curve = reference["detail"]["p1"], monotone["detail"]["p1_by_rho"]
    assert abs(p1 - 0.80) <= 0.02
    assert all(b >= a - 1e-12 for a, b in zip(curve, curve[1:]))
    passed("criterion 03 hard-negative weighting: p1=%.4f, curve %s" % (p1, curve))


def test_criterion_04_temperature_bound(longtail_run):
    stream = RandomStream(2, ("acc", "tb"))
    # each instance draws m, then its h from a sub-stream, then rho
    instances = ((np.clip(stream.split("h%d" % i).normal(2 + int(stream.integers(0, 5))), -2, 2),
                  RgclConfig(rho=0.1 + 0.9 * float(stream.uniform()), tau0=0.05, tau_init=0.05))
                 for i in range(50))
    *_, tau_bound = harness._vcheck_oracle_battery(instances, 0)
    assert tau_bound["detail"]["worst_excess"] <= 1e-8
    cfg, _ = longtail_run
    opt = optimizer.load_optimizer_state(os.path.join(cfg.out, "optimizer.ckpt"))
    box = harness._vcheck_tau_box(opt, cfg)["detail"]
    assert box["min_tau"] >= cfg.tau0 - 1e-15
    assert box["max_tau"] <= cfg.tau_max + 1e-15
    passed(
        "criterion 04 temperature bound: trained tau in [%.4f, %.4f] within [%.4f, %.4f]"
        % (box["min_tau"], box["max_tau"], cfg.tau0, cfg.tau_max)
    )


def test_criterion_05_g_floor(tmp_path):
    # every batch g and every moving average s observed during training
    # stays above exp(-2 / tau_max) - 1e-12
    cfg = harness.load_config(data={
        "out": str(tmp_path / "floor"), "k": 4, "n": 60, "ratio": 10.0, "d_in": 6,
        "noise": 0.3, "aug_strength": 0.6, "d_hidden": 8, "d_embed": 4,
        "rho": 2.0, "eta_w": 0.03, "eta_tau": 0.01, "batch_size": 16,
        "epochs": 14, "eval_every": 7,
    })
    harness.run_train_unimodal(cfg)
    opt = optimizer.load_optimizer_state(os.path.join(cfg.out, "optimizer.ckpt"))
    floor = harness._vcheck_g_floor(opt, cfg)["detail"]
    assert floor["min_g"] >= floor["floor"] - 1e-12
    assert floor["min_s"] >= floor["floor"] - 1e-12
    passed(
        "criterion 05 g floor: min g %.4f, min s %.4f, floor %.4f"
        % (floor["min_g"], floor["min_s"], floor["floor"])
    )


def test_criterion_06_estimator_unbiasedness():
    # Monte-Carlo mean of the batch g estimate over 10^4 batches within
    # 3 standard errors of the full-set g, for 10 anchors
    stream = RandomStream(3, ("acc", "unbias"))
    n, d, b = 20, 5, 8
    params = init_encoder_params(d, 6, 4, "tanh", stream.split("enc"))
    views = ViewPairs(stream.split("a").normal(n, d), stream.split("b").normal(n, d))
    y = encode(params, views.views).embeddings
    hmat = hardness_rows(y[0::2], y[1::2], y[0::2], y[1::2])
    tau = 0.5
    draws = 10000
    for anchor in range(10):
        h_full = hmat[anchor]
        g_full = g_value(h_full, tau)
        # sample negatives without replacement via uniform keys
        keys = stream.split("keys%d" % anchor).uniform(draws, len(h_full))
        idx = np.argpartition(keys, b, axis=1)[:, :b]
        g_batch = np.mean(np.exp(h_full[idx] / tau), axis=1)
        se = g_batch.std(ddof=1) / math.sqrt(draws)
        assert abs(g_batch.mean() - g_full) <= 3 * se
    passed("criterion 06 estimator unbiasedness: 10 anchors within 3 SE over 1e4 batches")


def test_criterion_07_exact_degeneration():
    # full batch, beta0 = beta1 = 1, scale 1: the stochastic step is exact
    # gradient descent for 20 consecutive steps
    n, d = 10, 5
    data = gen_longtail_clusters(3, n, 5.0, d, 0.3, seed=4)
    cfg = RgclConfig(rho=0.5, tau0=0.05, tau_init=0.6, beta0=1.0, beta1=1.0,
                     eta_w=0.05, eta_tau=0.01, tau_grad_scale=1.0)
    params = init_encoder_params(d, 6, 4, "tanh", RandomStream(4, ("enc",)))
    opt = optimizer.init_optimizer_state(n, params.n_params, cfg, seed=4)
    views = ViewPairs(data.inputs, data.inputs)
    check = harness._vcheck_degeneration(
        opt, [params], lambda ps: [optimizer.step_unimodal(opt, ps[0], data.inputs, cfg, n, 0.0)],
        lambda ps: full_batch_reference(ps[0], views, opt.tau[0], cfg)[1:], cfg, 20)
    worst = check["detail"]["worst_rel_err"]
    assert worst <= 1e-10
    passed("criterion 07 exact degeneration: worst rel err %.2e over 20 steps" % worst)


def test_criterion_08_fixed_tau_reduction():
    identity = harness._vcheck_fixed_tau_identity(RandomStream(5, ("acc", "gcl")), 30)
    worst = identity["detail"]["worst_gap"]
    assert worst <= 1e-12

    # eta_tau = 0 must reproduce the fixed-temperature baseline bitwise
    n, d = 24, 5
    data = gen_longtail_clusters(3, n, 5.0, d, 0.3, seed=5)
    cfg_zero = RgclConfig(rho=0.5, tau0=0.05, tau_init=0.6, eta_w=0.05, eta_tau=0.0)
    cfg_base = RgclConfig(rho=0.5, tau0=0.05, tau_init=0.6, eta_w=0.05, eta_tau=0.02)
    pa = init_encoder_params(d, 6, 4, "tanh", RandomStream(5, ("enc",)))
    pb = pa.copy()
    oa = optimizer.init_optimizer_state(n, pa.n_params, cfg_zero, seed=5)
    ob = optimizer.init_optimizer_state(n, pb.n_params, cfg_base, seed=5)
    for _ in range(15):
        pa = optimizer.step_unimodal(oa, pa, data.inputs, cfg_zero, 8, 0.3)
        pb = optimizer.step_sogclr_baseline(ob, pb, data.inputs, cfg_base, 8, 0.3)
        np.testing.assert_array_equal(pa.flatten(), pb.flatten())
        np.testing.assert_array_equal(oa.tau, ob.tau)
        np.testing.assert_array_equal(oa.s, ob.s)
    passed("criterion 08 fixed-tau reduction: identity gap %.2e, baseline bit-identical" % worst)


def test_criterion_09_temperature_tracks_frequency(longtail_run):
    cfg, report = longtail_run
    assert report["_elapsed"] < 300.0  # desk-scale budget
    sp = report["spearman_size_tau"]
    ct = report["per_cluster_mean_tau"]
    top3 = float(np.mean(ct[:3]))
    bot3 = float(np.mean(ct[-3:]))
    assert sp > 0.5
    assert top3 > bot3
    passed(
        "criterion 09 temperature tracks frequency: spearman %.3f, top3 %.4f > bot3 %.4f (%.0fs)"
        % (sp, top3, bot3, report["_elapsed"])
    )


def test_criterion_10_bimodal_symmetry():
    n, d = 20, 4
    stream = RandomStream(6, ("acc", "bi"))
    images = stream.split("x").normal(n, d)
    texts = images.copy()
    cfg = RgclConfig(rho=0.5, tau0=0.05, tau_init=0.6, eta_w=0.05, eta_tau=0.02)
    p_img = init_encoder_params(d, 6, 4, "tanh", stream.split("enc"))
    p_txt = p_img.copy()
    opt = optimizer.init_optimizer_state(n, p_img.n_params + p_txt.n_params, cfg, seed=6, sides=2)
    for _ in range(10):
        p_img, p_txt = optimizer.step_bimodal(opt, p_img, p_txt, images, texts, cfg, 8)
        np.testing.assert_array_equal(opt.tau[0], opt.tau[1])
    passed("criterion 10 bimodal symmetry: tau_v identical to tau_t for 10 steps")


def test_criterion_11_stationarity_trend(longtail_run):
    _, report = longtail_run
    gm = [x for x in report["grad_mapping_sq"] if x is not None]
    k = max(1, len(gm) // 10)
    head = float(np.mean(gm[:k]))
    tail = float(np.mean(gm[-k:]))
    assert tail < 0.25 * head
    passed(
        "criterion 11 stationarity trend: last-10%% mean %.3e < 25%% of first-10%% mean %.3e"
        % (tail, head)
    )


def test_criterion_12_cli_determinism(tmp_path):
    out = str(tmp_path / "det")
    args = [
        "train-unimodal", "--out", out, "--seed", "3",
        "--set", "n=80", "--set", "k=4", "--set", "ratio=10", "--set", "d_in=6",
        "--set", "d_hidden=4", "--set", "d_embed=4", "--set", "batch_size=16",
        "--set", "epochs=4",
    ]

    def artifacts():
        assert cli.main(list(args)) == 0
        report = [l for l in open(os.path.join(out, "report.json")) if "wall_clock_sec" not in l]
        return report, open(os.path.join(out, "tau.csv"), "rb").read()

    assert artifacts() == artifacts()

    # a stateless subcommand reproduces its artifact byte for byte
    gen = ["gen-data", "--out", out, "--seed", "3", "--set", "n=80", "--set", "k=4",
           "--set", "ratio=10", "--set", "d_in=6"]
    assert cli.main(list(gen)) == 0
    first_data = open(os.path.join(out, "dataset.csv"), "rb").read()
    assert cli.main(list(gen)) == 0
    assert open(os.path.join(out, "dataset.csv"), "rb").read() == first_data
    passed("criterion 12 cli determinism: report.json (modulo wall clock) and tau.csv identical")
