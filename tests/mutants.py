"""A catalogue of mutants that the test suite must kill.

    python tests/mutants.py            # every entry
    python tests/mutants.py NAME ...   # the named entries only

Each entry is (name, file, old text, new text, test selection).  The script
copies src/, tests/ and runs/ of this checkout to a temporary directory and
checks that every selection passes there unmutated.  Then, for one entry at
a time, it replaces the old text, which must occur exactly once in the file,
with the new text, runs the selection with pytest -x, and puts the file
back.  An entry is killed when the selection
fails, survived when it passes, and stale when its old text is not found
exactly once; any other pytest outcome (a collection or usage error) is
reported as broken.  Exits 1 unless every entry is killed.

pytest does not collect this file, and running the mutants is not part of
Tier-1; tests/test_mutant_catalogue.py checks in Tier-1 that every entry
still applies and every selection names a test that exists.  A change that
adds a check adds the mutant it catches, and a change that rewrites code
updates the entries it touches.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "runs", "pyproject.toml")
LOSS, OPTIMIZER, HARNESS, ORACLE, ENCODER = (
    "src/rgcl/%s.py" % m for m in ("loss", "optimizer", "harness", "oracle", "encoder"))
ACROSS_BLOCKS = "tests/test_bitwise_reference.py::test_evaluation_matches_oracle_across_blocks"
VERIFY_REPORT = "tests/test_bitwise_reference.py::test_verify_report"


def shared(name, old, new, criterion):
    """One mutation of a harness check that rgcl verify and an acceptance
    criterion both call, as two entries: a bug in the shared check must fail
    both judges, verify's pinned report and the criterion's own tolerance."""
    return [("%s, judged by verify" % name, HARNESS, old, new, [VERIFY_REPORT]),
            ("%s, judged by criterion %s" % (name, criterion[:2]), HARNESS, old, new,
             ["tests/test_acceptance.py::test_criterion_" + criterion])]


MUTANTS = [
    ("own group zeroed at offset 0 instead of lo", LOSS,
     "        _own_groups(e, p, lo)[...] = 0.0\n",
     "        _own_groups(e, p, 0)[...] = 0.0\n",
     [ACROSS_BLOCKS]),
    ("positive taken from the group's first row instead of its last", LOSS,
     "        zq = _own_groups(z, p, lo)[:, -1]\n",
     "        zq = _own_groups(z, p, lo)[:, 0]\n",
     [ACROSS_BLOCKS]),
    ("anchor roles added before the negative roles", LOSS,
     "            anchor_roles.append((a, p, c, np.matmul(",
     "            dys[a][p * lo : p * hi : p] += c * ((np.matmul(",
     ["tests/test_bitwise_reference.py::test_bimodal_evaluation_mirrored"]),
    ("E_p[h] taken before normalising", LOSS,
     "np.vecdot(e, z) / sums, zq",
     "np.vecdot(e, z), zq",
     ["tests/test_loss.py::TestRowKernelProperties"]),
    ("text direction's positive weight dropped", LOSS,
     "            _own_groups(e, p, lo)[:, -1] = -sums\n",
     "            _own_groups(e, p, lo)[:, -1] = -sums if a == 0 else 0.0\n",
     [ACROSS_BLOCKS]),
    ("e at the positive set to +S instead of -S", LOSS,
     "            _own_groups(e, p, lo)[:, -1] = -sums\n",
     "            _own_groups(e, p, lo)[:, -1] = sums\n",
     [ACROSS_BLOCKS]),
    ("own group zeroed only after the row sum", LOSS,
     "        _own_groups(e, p, lo)[...] = 0.0\n        e.sum(axis=1, out=sums)\n",
     "        e.sum(axis=1, out=sums)\n        _own_groups(e, p, lo)[...] = 0.0\n",
     [ACROSS_BLOCKS]),
    ("row scale c applied to the anchor role only", LOSS,
     "            anchors = np.multiply(towers[a][p * lo : p * hi : p], c, out=",
     "            anchors = np.multiply(towers[a][p * lo : p * hi : p], 1.0, out=",
     [ACROSS_BLOCKS]),
    ("_project_tau as the identity", OPTIMIZER,
     "    return np.minimum(np.maximum(tau, cfg.tau0), cfg.tau_max)\n",
     "    return tau\n",
     ["tests/test_optimizer.py::TestProjectTau"]),
    ("tables written before the finite check", OPTIMIZER,
     "    _require_finite_rows(_ANCHOR_NAMES[opt.sides], idx, g=g, s=s_new, tau=tau_new)\n"
     "    opt.s[:, idx], opt.u[:, idx], opt.tau[:, idx] = s_new, u_new, tau_new\n",
     "    opt.s[:, idx], opt.u[:, idx], opt.tau[:, idx] = s_new, u_new, tau_new\n"
     "    _require_finite_rows(_ANCHOR_NAMES[opt.sides], idx, g=g, s=s_new, tau=tau_new)\n",
     ["tests/test_optimizer.py::TestNonFinite"]),
    ("the all-sides finite check naming side 0 for a side-1 fault", LOSS,
     "        side, k = divmod(int(np.argmin(ok)), ok.shape[1])\n",
     "        side, k = 0, int(np.argmin(ok)) % ok.shape[1]\n",
     ["tests/test_optimizer.py::TestNonFinite::test_bimodal_step_names_the_side"]),
    ("rho scaled by 1.001 in the row kernel's temperature derivative", LOSS,
     "log_d + cfg.rho - ratio * ehz",
     "log_d + cfg.rho * 1.001 - ratio * ehz",
     ["tests/test_bitwise_reference.py::test_degeneration_check_matches_original"]),
    ("objective sums the image direction only", LOSS,
     "        terms[lo:hi] += np.add.reduce(_softmax_rows(stats, taus[:, lo:hi], cfg, n)[2])\n",
     "        terms[lo:hi] += np.add.reduce(_softmax_rows(stats, taus[:, lo:hi], cfg, n)[2][:1])\n",
     ["tests/test_loss.py::TestBimodal::test_penalty_vanishes_at_tau0"]),
    ("log m counts the own group", LOSS,
     "math.log(e.shape[1] - p)",
     "math.log(e.shape[1])",
     [ACROSS_BLOCKS]),
    ("kNN keeping the highest tied column", HARNESS,
     "    keep[over] &= (np.cumsum(tied, axis=1) <= open_slots) | ~tied\n",
     "    keep[over] &= (np.cumsum(tied[:, ::-1], axis=1)[:, ::-1] <= open_slots) | ~tied\n",
     ["tests/test_harness.py::TestKnn::test_matches_loop_on_ties"]),
    *shared("tau* measured against tau0 instead of tau_max",
            "excess = max(excess, tau_star - cfg.tau_max)",
            "excess = max(excess, tau_star - cfg.tau0)",
            "04_temperature_bound"),
    *shared("grid solved at tau0 = 0",
            "oracle.grid_search_simplex(h, cfg.rho, cfg.tau0)[1] - sol.value)",
            "oracle.grid_search_simplex(h, cfg.rho, 0.0)[1] - sol.value)",
            "02_primal_dual_equivalence"),
    *shared("grid run on one more negative count",
            "        if len(h) <= grid_negatives:\n",
            "        if len(h) <= grid_negatives + 1:\n",
            "02_primal_dual_equivalence"),
    *shared("fixed instance's rho list reversed",
            "(0.05, 0.1, 0.2, 0.4), [0.0] * 4)]",
            "(0.4, 0.2, 0.1, 0.05), [0.0] * 4)]",
            "03_hard_negative_weighting"),
    *shared("max_tau reported as max_tau_seen + 10",
            '"max_tau": hi,',
            '"max_tau": hi + 10,',
            "04_temperature_bound"),
    *shared("g floor reported doubled",
            '"floor": cfg.g_floor}',
            '"floor": 2 * cfg.g_floor}',
            "05_g_floor"),
    *shared("fixed-tau identity with log(m + 1)",
            "ident = gcl - tau * math.log(m) +",
            "ident = gcl - tau * math.log(m + 1) +",
            "08_fixed_tau_reduction"),
    *shared("finite differences taken at 1.001 times the point",
            "fd = oracle.finite_diff_grad(func, point)\n",
            "fd = oracle.finite_diff_grad(func, 1.001 * point)\n",
            "01_gradient_oracle"),
    *shared("degeneration moves taken as after - before",
            "np.linalg.norm((b - a) / eta - w)",
            "np.linalg.norm((a - b) / eta - w)",
            "07_exact_degeneration"),
    ("momentum update stepping up the gradient", OPTIMIZER,
     "    return params_flat - cfg.eta_w * opt.v\n",
     "    return params_flat + cfg.eta_w * opt.v\n",
     ["tests/test_bitwise_reference.py::test_degeneration_check_matches_original"]),
    ("the solvers' finite check letting inf through", ORACLE,
     "    ok = np.isfinite(hv)\n",
     "    ok = hv == hv\n",
     ["tests/test_oracle.py::test_solvers_refuse_a_non_finite_score"]),
    ("complementary slackness dropped from primal_feasibility", HARNESS,
     "violation = max(violation, kl - cfg.rho, abs(sol.lam) * max(0.0, kl - cfg.rho))",
     "violation = max(violation, kl - cfg.rho)",
     ["tests/test_harness.py::TestVerify::test_feasibility_counts_complementary_slackness"]),
    ("ExperimentConfig without RgclConfig's checks", HARNESS,
     "        super().__post_init__()\n",
     "",
     ["tests/test_harness.py::TestConfig::test_invalid_values_rejected"]),
    ("checkpoint Adam flag not compared with the mode flag", OPTIMIZER,
     'and has_adam == (_MODES[mode_flag] == "adam")):',
     "and has_adam in (0, 1)):",
     ["tests/test_optimizer.py::TestCheckpoint::test_mode_and_adam_flags_must_agree"]),
    ("encoder input rows not checked", ENCODER,
     "    if not np.isfinite(x).all():\n",
     "    if False:\n",
     ["tests/test_encoder.py::TestForward::test_non_finite_row_rejected",
      "tests/test_loss.py::TestNonFinite", "tests/test_optimizer.py::TestNonFinite::test_unimodal_step_input_row"]),
    ("_forward's norm check without its finite half", ENCODER,
     "    ok = (norms >= 1e-12) & (norms < np.inf)\n",
     "    ok = norms >= 1e-12\n",
     ["tests/test_encoder.py::TestForward::test_overflowing_norm_rejected"]),
    ("full-batch g and grad_tau not checked", LOSS,
     "    _require_finite_rows(_ANCHOR_NAMES[len(taus)], range(n), g=stats[0], grad_tau=grad_tau)\n",
     "    pass\n",
     ["tests/test_loss.py::TestNonFinite"]),
    ("the simplex check written with comparisons a NaN passes", ORACLE,
     "    if not (np.all(pv >= -1e-12) and abs(np.add.reduce(pv, axis=None) - 1.0) <= 1e-10):",
     "    if np.any(pv < -1e-12) or abs(np.add.reduce(pv, axis=None) - 1.0) > 1e-10:",
     ["tests/test_loss.py::TestPrimalValue::test_simplex_validated"]),
    ("dual_loss_anchor without its - log m term", ORACLE,
     "    log_m = math.log(v.shape[-1])\n",
     "    log_m = 0.0\n",
     ["tests/test_loss.py::TestDualLoss"]),
    ("a golden-section row taking the other branch's new point", ORACLE,
     "            fd = yield d\n",
     "            fd = yield c\n",
     ["tests/test_oracle.py::TestSolveDualTau"]),
    ("_kl summing a row's zero weights in place", ORACLE,
     "        return np.array([_kl(row) for row in pv])\n",
     "        return np.add.reduce(np.where(pv > 0.0, pv * np.log(pv.shape[-1] * np.maximum(pv, 1e-300)), 0.0), -1)\n",
     ["tests/test_oracle.py::TestBatchRows::test_row_definitions_match_one_row_calls"]),
    ("battery results scattered in group order instead of instance order", HARNESS,
     "[solved[i] for i in range(len(instances))]",
     "list(solved.values())",
     ["tests/test_oracle.py::TestBatchRows::test_grouped_battery_matches_per_instance_fold"]),
    ("_vcheck_degeneration's sides divided by cfg.eta_w", HARNESS,
     "[cfg.eta_tau] * opt.sides",
     "[cfg.eta_w] * opt.sides",
     [VERIFY_REPORT]),
    ("the oracle's negative role scaled by 0.999", ORACLE,
     "                    d_neg[j] += wk * anchor[i]\n",
     "                    d_neg[j] += 0.999 * wk * anchor[i]\n",
     [ACROSS_BLOCKS]),
]


def copy_tree(dest):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        src = os.path.join(ROOT, name)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(dest, name), ignore=ignore)
        else:
            shutil.copy2(src, os.path.join(dest, name))


def run_selection(tree, selection):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection]
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True).returncode


def run_mutant(tree, name, path, old, new, selection):
    """killed, survived, stale or broken."""
    target = os.path.join(tree, path)
    with open(target) as fh:
        original = fh.read()
    if original.count(old) != 1:
        return "stale"
    with open(target, "w") as fh:
        fh.write(original.replace(old, new))
    try:
        code = run_selection(tree, selection)
    finally:
        with open(target, "w") as fh:
            fh.write(original)
    return {0: "survived", 1: "killed"}.get(code, "broken (pytest exit %d)" % code)


def main(names):
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    if names and len(chosen) != len(set(names)):
        known = {m[0] for m in MUTANTS}
        sys.exit("unknown mutant: %s" % ", ".join(sorted(set(names) - known)))
    bad = 0
    with tempfile.TemporaryDirectory() as tree:
        copy_tree(tree)
        for selection in sorted({tuple(m[4]) for m in chosen}):
            if run_selection(tree, selection) != 0:
                print("fails unmutated: %s" % " ".join(selection))
                bad += 1
        if bad:
            return 1
        for name, path, old, new, selection in chosen:
            start = time.monotonic()
            outcome = run_mutant(tree, name, path, old, new, selection)
            bad += outcome != "killed"
            print("%-9s %5.1fs  %s" % (outcome.split()[0], time.monotonic() - start, name), flush=True)
    print("%d of %d mutants killed" % (len(chosen) - bad, len(chosen)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
