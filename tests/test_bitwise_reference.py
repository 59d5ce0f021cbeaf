"""The blocked full-batch evaluations against verbatim copies of the
original code (tests/original_reference.py) to 1e-10 relative and against
the loop oracle; the blocked exact objectives, the shared row kernel, the
merged optimizer state, the steps and verify's estimator_degeneration check
against those copies, bit for bit."""

import copy
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import original_reference as original

from rgcl import harness, loss, optimizer, oracle
from rgcl.datasynth import gen_longtail_clusters
from rgcl.encoder import init_encoder_params
from rgcl.loss import _EVAL_ROWS, RgclConfig, ViewPairs, _offdiag_rows
from rgcl.numerics import RandomStream

# sizes around the original evaluation's 256-anchor blocks; many blocks each
SIZES = [2, 3, 255, 256, 257, 515]
# sizes around the evaluation's own blocks, small enough for the loop oracle
BLOCK_SIZES = [_EVAL_ROWS - 1, _EVAL_ROWS, _EVAL_ROWS + 1, 2 * _EVAL_ROWS + 3]
EPSILONS = [0.0, 0.25]


def assert_identical(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


def assert_close(got, want, rel=1e-10):
    """Each result within rel of the original, relative to its largest entry:
    the negative-role sums now run block by block, in a different order."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_allclose(a, b, rtol=rel, atol=rel * np.max(np.abs(b)))


def instance(n, log_epsilon, d=5):
    stream = RandomStream(n, ("bitwise",))
    cfg = RgclConfig(rho=0.8, tau0=0.05, tau_init=0.7, log_epsilon=log_epsilon)
    params = init_encoder_params(d, 4, 6, "tanh", stream.split("enc"))
    views = ViewPairs(stream.split("a").normal(n, d), stream.split("b").normal(n, d))
    taus = cfg.tau0 + (cfg.tau_max - cfg.tau0) * stream.split("tau").uniform(n)
    # temperatures exactly at both ends of the box
    taus[::3] = cfg.tau0
    taus[1::3] = cfg.tau_max
    return params, views, taus, cfg


def bimodal_args(n, log_epsilon):
    params, views, taus, cfg = instance(n, log_epsilon)
    p_txt = init_encoder_params(5, 4, 6, "tanh", RandomStream(n, ("txt",)))
    return params, p_txt, views.views_a, views.views_b, taus, taus[::-1].copy(), cfg


@pytest.mark.parametrize("log_epsilon", EPSILONS)
@pytest.mark.parametrize("n", SIZES)
def test_unimodal_evaluation(n, log_epsilon):
    params, views, taus, cfg = instance(n, log_epsilon)
    assert_close(
        loss.unimodal_value_and_grads(params, views, taus, cfg),
        original.unimodal_value_and_grads(params, views, taus, cfg),
    )


@pytest.mark.parametrize("log_epsilon", EPSILONS)
@pytest.mark.parametrize("n", SIZES)
def test_bimodal_evaluation(n, log_epsilon):
    args = bimodal_args(n, log_epsilon)
    assert_close(loss.bimodal_value_and_grads(*args), original.bimodal_value_and_grads(*args))


@pytest.mark.parametrize("n", SIZES)
def test_bimodal_evaluation_mirrored(n):
    params, views, taus, cfg = instance(n, 0.0)
    args = (params, params.copy(), views.views_a, views.views_a.copy(), taus, taus.copy(), cfg)
    got = loss.bimodal_value_and_grads(*args)
    assert_close(got, original.bimodal_value_and_grads(*args))
    np.testing.assert_array_equal(got[1], got[2])
    np.testing.assert_array_equal(got[3], got[4])


@pytest.mark.parametrize("log_epsilon", EPSILONS)
@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_evaluation_matches_oracle_across_blocks(n, log_epsilon):
    # the loop oracle, at test_oracle.py's tolerance
    params, views, taus, cfg = instance(n, log_epsilon)
    got = loss.unimodal_value_and_grads(params, views, taus, cfg)
    for a, b in zip(got, oracle.full_batch_reference(params, views, taus, cfg)):
        np.testing.assert_allclose(a, b, atol=1e-12)
    args = bimodal_args(n, log_epsilon)
    got = loss.bimodal_value_and_grads(*args)
    for a, b in zip(got, oracle.full_batch_reference_bimodal(*args)):
        np.testing.assert_allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("log_epsilon", EPSILONS)
@pytest.mark.parametrize("n", SIZES + BLOCK_SIZES)
def test_objectives(n, log_epsilon):
    # bit for bit: verify's finite-difference checks difference these values
    params, views, taus, cfg = instance(n, log_epsilon)
    np.testing.assert_array_equal(
        loss.objective_unimodal(params, views, taus, cfg), original.objective_unimodal(params, views, taus, cfg)
    )
    args = bimodal_args(n, log_epsilon)
    np.testing.assert_array_equal(loss.objective_bimodal(*args), original.objective_bimodal(*args))


SHARED_FIELDS = ("v", "initialized", "adam_m2", "min_g_seen", "min_s_seen", "min_tau_seen", "max_tau_seen")
# the original per-anchor attributes: (table, side) for each
ORIGINAL_TABLES = {
    1: {"s": ("s", 0), "u": ("u", 0), "tau": ("tau", 0)},
    2: {"s_v": ("s", 0), "u_v": ("u", 0), "tau_v": ("tau", 0),
        "s_t": ("s", 1), "u_t": ("u", 1), "tau_t": ("tau", 1)},
}


def original_state(opt):
    """A copy of opt in the original layout, one 1-D array per table and
    side under the original attribute names, for the copied step cores."""
    return SimpleNamespace(
        mode=opt.mode, seed=opt.seed, t=opt.t, _disable_tau_projection=False,
        **{name: copy.copy(getattr(opt, name)) for name in SHARED_FIELDS},
        **{name: getattr(opt, table)[side].copy() for name, (table, side) in ORIGINAL_TABLES[opt.sides].items()},
    )


def assert_same_state(opt, original):
    assert opt.t == original.t
    for name in SHARED_FIELDS:
        np.testing.assert_array_equal(getattr(opt, name), getattr(original, name))
    for name, (table, side) in ORIGINAL_TABLES[opt.sides].items():
        np.testing.assert_array_equal(getattr(opt, table)[side], getattr(original, name))


def step_setup(log_epsilon, n=400, d=16):
    data = gen_longtail_clusters(5, n, 10.0, d, 0.25, 3)
    cfg = RgclConfig(rho=0.8, tau0=0.05, tau_init=0.7, eta_w=0.05, eta_tau=0.5,
                     log_epsilon=log_epsilon)
    params = init_encoder_params(d, 3, 16, "tanh", RandomStream(3, ("enc",)))
    return data.inputs, cfg, params


@pytest.mark.parametrize("log_epsilon", EPSILONS)
@pytest.mark.parametrize("mode,eta_tau", [("momentum", None), ("adam", None), ("momentum", 0.0)])
def test_unimodal_steps(mode, eta_tau, log_epsilon):
    inputs, cfg, params = step_setup(log_epsilon)
    eta_tau = cfg.eta_tau if eta_tau is None else eta_tau
    opt = optimizer.init_optimizer_state(400, params.n_params, cfg, 9, mode)
    old = original_state(opt)
    got = want = params
    for _ in range(20):
        got = optimizer.step_unimodal(opt, got, inputs, replace(cfg, eta_tau=eta_tau), 128, 0.35)
        want = original._step_unimodal_core(old, want, inputs, cfg, 128, 0.35, eta_tau)
        np.testing.assert_array_equal(got.flatten(), want.flatten())
    assert_same_state(opt, old)


@pytest.mark.parametrize("log_epsilon", EPSILONS)
@pytest.mark.parametrize("mirrored", [False, True])
def test_bimodal_steps(mirrored, log_epsilon):
    images, cfg, p_img = step_setup(log_epsilon)
    texts = images.copy() if mirrored else images[::-1] + 0.1
    p_txt = p_img.copy() if mirrored else init_encoder_params(16, 3, 16, "tanh", RandomStream(4, ("t",)))
    opt = optimizer.init_optimizer_state(400, p_img.n_params + p_txt.n_params, cfg, 9, sides=2)
    old = original_state(opt)
    got, want = (p_img, p_txt), (p_img, p_txt)
    for _ in range(20):
        got = optimizer.step_bimodal(opt, *got, images, texts, cfg, 128)
        want = original.step_bimodal(old, *want, images, texts, cfg, 128)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a.flatten(), b.flatten())
    assert_same_state(opt, old)
    if mirrored:
        np.testing.assert_array_equal(opt.tau[0], opt.tau[1])


@pytest.mark.parametrize("n", range(2, 7))
def test_strided_offdiag_matches_boolean_mask(n):
    # every (hi - lo, n) block of rows, whose diagonal starts at column lo
    stream = RandomStream(n, ("offdiag",))
    a, b = stream.normal(n, n), stream.normal(n, n)
    off = ~np.eye(n, dtype=bool)
    want = np.concatenate([a[off].reshape(n, n - 1), b[off].reshape(n, n - 1)], axis=1)
    for lo in range(n):
        for hi in range(lo + 1, n + 1):
            rows = np.empty((hi - lo, 2 * (n - 1)))
            _offdiag_rows([a[lo:hi], b[lo:hi]], lo, rows)
            np.testing.assert_array_equal(rows, want[lo:hi])

            back = [np.zeros((hi - lo, n)), np.zeros((hi - lo, n))]
            _offdiag_rows(back, lo, rows, scatter=True)
            for got, src in zip(back, (a, b)):
                expect = np.zeros((n, n))
                expect[off] = src[off]
                np.testing.assert_array_equal(got, expect[lo:hi])


@pytest.mark.parametrize("seed", range(20))
def test_degeneration_check_matches_original(seed):
    # the step's own pieces give the figure the test-only estimator gave
    got = harness._vcheck_degeneration(seed)
    assert got == original._vcheck_degeneration(seed)
    assert got["passed"]
