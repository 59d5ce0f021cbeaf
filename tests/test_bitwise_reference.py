"""The package against reference_outputs.npz (see record_reference.py):
exactly, where the environment is the recording's, else at 1e-10 relative,
since BLAS may round differently; the evaluations also at 1e-10 relative of
the seed code's outputs; and the comparison itself under a second BLAS
kernel set.  Also the evaluations against the loop oracle, and the strided
own-group view against a boolean mask."""

import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
import record_reference as rec

import rgcl
from rgcl import oracle
from rgcl.loss import _own_groups, bimodal_value_and_grads, unimodal_value_and_grads
from rgcl.numerics import RandomStream
from rgcl.optimizer import OptimizerState


@pytest.fixture(scope="module")
def recorded():
    env, outputs = rec.load()
    return rec.exact_here(env), outputs


def pinned(recorded, name, *params):
    """The case's outputs, after checking them against the recording."""
    got = rec.CASES[name][0](*params)
    assert_recorded(recorded, name, params, got)
    return got


def assert_recorded(recorded, name, params, got):
    exact, outputs = recorded
    for label, change, bound in rec.changes(name, params, got, outputs, exact):
        assert change <= bound, label


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
    # the symmetry before the pin, so that a break of it fails here on the
    # recording host too
    got = rec.bimodal_evaluation_mirrored(n)
    np.testing.assert_array_equal(got["grad_w_img"], got["grad_w_txt"])
    np.testing.assert_array_equal(got["grad_tau_img"], got["grad_tau_txt"])
    assert_recorded(recorded, "test_bimodal_evaluation_mirrored", (n,), got)


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
    # every (hi - lo, p*n) block of rows, in groups of p = 1 (bimodal) and
    # p = 2 (unimodal) columns, whose own groups start at group lo: the
    # strided view picks exactly the entries a boolean mask of each row's
    # own group does
    for p in (1, 2):
        a = RandomStream(n, ("offdiag", str(p))).normal(n, p * n)
        own = np.kron(np.eye(n, dtype=bool), np.ones((1, p), dtype=bool))
        for lo in range(n):
            for hi in range(lo + 1, n + 1):
                np.testing.assert_array_equal(_own_groups(a[lo:hi], p, lo), a[own].reshape(n, p)[lo:hi])


@pytest.mark.parametrize(["seed"], rec.CASES["test_degeneration_check_matches_original"][1])
def test_degeneration_check_matches_original(recorded, seed):
    # the check's verdict before the pin, as in the mirrored test
    got = rec.degeneration_check(seed)
    assert got["passed"]
    assert_recorded(recorded, "test_degeneration_check_matches_original", (seed,), got)


@pytest.mark.parametrize(["seed"], rec.CASES["test_verify_report"][1])
def test_verify_report(recorded, seed):
    # every check's detail, as the verify report prints it
    pinned(recorded, "test_verify_report", seed)


def test_compare_passes_under_another_blas_core():
    # the pins' 1e-10 branch, met for real: the same host with OpenBLAS
    # forced onto another of its kernel sets, which rounds differently
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["openblas configuration"]
    except (TypeError, KeyError):
        config = ""
    core = rec.blas_core()
    if "DYNAMIC_ARCH" not in config or core is None or platform.machine() != "x86_64":
        pytest.skip("needs an x86-64 OpenBLAS built with DYNAMIC_ARCH whose core name can be read")
    other = "Sandybridge" if core == "Haswell" else "Haswell"
    src = os.path.dirname(os.path.dirname(rgcl.__file__))
    env = dict(os.environ, OPENBLAS_CORETYPE=other,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, rec.__file__, "--compare", rec.PATH], env=env,
                          capture_output=True, text=True, timeout=120)
    first = done.stdout.partition("\n")[0]
    assert "'blas_core': '%s'" % other in first, first
    assert done.returncode == 0, done.stdout + done.stderr
