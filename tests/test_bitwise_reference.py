"""The package against reference_outputs.npz (see record_reference.py):
exactly, where the environment is the recording's, else at 1e-10 relative,
since BLAS may round differently; the evaluations also at 1e-10 relative of
the seed code's outputs.  Also the evaluations against the loop oracle, and
the strided off-diagonal gather against a boolean mask."""

import json

import numpy as np
import pytest
import record_reference as rec

from rgcl import oracle
from rgcl.loss import _offdiag_rows, bimodal_value_and_grads, unimodal_value_and_grads
from rgcl.numerics import RandomStream
from rgcl.optimizer import OptimizerState


@pytest.fixture(scope="module")
def recorded():
    env, outputs = rec.load()
    return rec.exact_here(env), outputs


def pinned(recorded, name, *params):
    """The case's outputs, after checking them against the recording."""
    exact, outputs = recorded
    got = rec.CASES[name][0](*params)
    for label, change, bound in rec.changes(name, params, got, outputs, exact):
        assert change <= bound, label
    return got


def test_relative_change_catches_non_finite():
    want = {"x": np.array([1.0, np.nan, np.inf])}
    assert rec.relative_change({"x": np.array([1.0, np.nan, np.inf])}, want) == 0.0
    for poisoned in ([np.nan, np.nan, np.inf], [1.0, 0.0, np.inf], [1.0, np.nan, -np.inf], [1.0, np.inf, np.nan]):
        assert rec.relative_change({"x": np.array(poisoned)}, want) == np.inf


def test_compare_exits_one_on_a_moved_or_missing_case(tmp_path, monkeypatch):
    env, outputs = rec.load()
    monkeypatch.setattr(rec, "CASES", {"test_objectives": (rec.objectives, [(2, 0.0), (3, 0.0)])})
    kept = {key: outputs[key] for key in ("test_objectives[2-0.0]", "test_objectives[3-0.0]")}

    def compare(recording):
        arrays = {"|environment": np.asarray(json.dumps(env))}
        arrays.update(("%s|%s" % (key, name), value) for key, case in recording.items() for name, value in case.items())
        np.savez(tmp_path / "recording.npz", **arrays)
        return rec.compare(str(tmp_path / "recording.npz"))

    assert compare(kept) == 0
    moved = {name: value * (1 + 1e-6) for name, value in kept["test_objectives[3-0.0]"].items()}
    assert compare(dict(kept, **{"test_objectives[3-0.0]": moved})) == 1
    assert compare({"test_objectives[2-0.0]": kept["test_objectives[2-0.0]"]}) == 1
    assert compare(dict(kept, **{"test_objectives[4-0.0]": kept["test_objectives[3-0.0]"]})) == 1


@pytest.mark.parametrize("n,log_epsilon", rec.CASES["test_unimodal_evaluation"][1])
def test_unimodal_evaluation(recorded, n, log_epsilon):
    pinned(recorded, "test_unimodal_evaluation", n, log_epsilon)


@pytest.mark.parametrize("n,log_epsilon", rec.CASES["test_bimodal_evaluation"][1])
def test_bimodal_evaluation(recorded, n, log_epsilon):
    pinned(recorded, "test_bimodal_evaluation", n, log_epsilon)


@pytest.mark.parametrize(["n"], rec.CASES["test_bimodal_evaluation_mirrored"][1])
def test_bimodal_evaluation_mirrored(recorded, n):
    got = pinned(recorded, "test_bimodal_evaluation_mirrored", n)
    np.testing.assert_array_equal(got["grad_w_img"], got["grad_w_txt"])
    np.testing.assert_array_equal(got["grad_tau_img"], got["grad_tau_txt"])


@pytest.mark.parametrize("log_epsilon", rec.EPSILONS)
@pytest.mark.parametrize("n", rec.BLOCK_SIZES)
def test_evaluation_matches_oracle_across_blocks(n, log_epsilon):
    # the loop oracle, at test_oracle.py's tolerance
    args = rec.instance(n, log_epsilon)
    for a, b in zip(unimodal_value_and_grads(*args), oracle.full_batch_reference(*args)):
        np.testing.assert_allclose(a, b, atol=1e-12)
    args = rec.bimodal_args(n, log_epsilon)
    for a, b in zip(bimodal_value_and_grads(*args), oracle.full_batch_reference_bimodal(*args)):
        np.testing.assert_allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("n,log_epsilon", rec.CASES["test_oracle_references"][1])
def test_oracle_references(recorded, n, log_epsilon):
    # the judge's own outputs, so a rewrite of the loop oracle cannot move them unseen
    pinned(recorded, "test_oracle_references", n, log_epsilon)


@pytest.mark.parametrize("n,log_epsilon", rec.CASES["test_objectives"][1])
def test_objectives(recorded, n, log_epsilon):
    # bit for bit: verify's finite-difference checks difference these values
    pinned(recorded, "test_objectives", n, log_epsilon)


@pytest.mark.parametrize("mode,eta_tau,log_epsilon", rec.CASES["test_unimodal_steps"][1])
def test_unimodal_steps(recorded, mode, eta_tau, log_epsilon):
    assert set(rec.STATE_FIELDS) == set(OptimizerState.__dataclass_fields__)
    pinned(recorded, "test_unimodal_steps", mode, eta_tau, log_epsilon)


@pytest.mark.parametrize("mirrored,log_epsilon", rec.CASES["test_bimodal_steps"][1])
def test_bimodal_steps(recorded, mirrored, log_epsilon):
    got = pinned(recorded, "test_bimodal_steps", mirrored, log_epsilon)
    if mirrored:
        np.testing.assert_array_equal(got["tau"][0], got["tau"][1])


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
            _offdiag_rows([a[lo:hi], b[lo:hi]], lo, rows, np.empty((hi - lo, n - 1)))
            np.testing.assert_array_equal(rows, want[lo:hi])

            back = [np.zeros((hi - lo, n)), np.zeros((hi - lo, n))]
            _offdiag_rows(back, lo, rows, np.empty((hi - lo, n - 1)), scatter=True)
            for got, src in zip(back, (a, b)):
                expect = np.zeros((n, n))
                expect[off] = src[off]
                np.testing.assert_array_equal(got, expect[lo:hi])


@pytest.mark.parametrize(["seed"], rec.CASES["test_degeneration_check_matches_original"][1])
def test_degeneration_check_matches_original(recorded, seed):
    assert pinned(recorded, "test_degeneration_check_matches_original", seed)["passed"]


@pytest.mark.parametrize(["seed"], rec.CASES["test_verify_report"][1])
def test_verify_report(recorded, seed):
    # every check's detail, as the verify report prints it
    pinned(recorded, "test_verify_report", seed)
