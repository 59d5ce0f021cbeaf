import csv
import dataclasses
import itertools
import json
import os
import tracemalloc

import numpy as np
import pytest

from rgcl import cli, harness, loss, optimizer, oracle
from rgcl.encoder import encode, init_encoder_params
from rgcl.harness import (
    ExperimentConfig,
    apply_overrides,
    knn_accuracy,
    load_config,
    run_dump_tau,
    run_gen_data,
    run_train_bimodal,
    run_train_unimodal,
    run_verify,
)
from rgcl.numerics import RandomStream
from test_api import load_spans
from test_loss import hardness_rows


def small_cfg(tmp_path, name="run", **kw):
    data = {
        "out": str(tmp_path / name),
        "k": 4,
        "n": 80,
        "ratio": 10.0,
        "d_in": 6,
        "d_hidden": 4,
        "d_embed": 4,
        "batch_size": 16,
        "epochs": 6,
        "eval_every": 2,
    }
    data.update(kw)
    return load_config(data=data)


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            load_config(data={"learning_rate": 0.1})

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            apply_overrides(ExperimentConfig(), ["typo_key=1"])

    def test_malformed_override_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            apply_overrides(ExperimentConfig(), ["rho"])

    def test_override_coercion(self):
        cfg = apply_overrides(ExperimentConfig(), ["seed=3", "rho=0.7", "mirrored=true", "noise=2.5"])
        assert cfg.seed == 3 and cfg.rho == 0.7
        assert cfg.mirrored is True and cfg.noise == 2.5
        for text, value in [("FALSE", False), ("0", False), ("no", False), ("Yes", True), ("1", True)]:
            assert apply_overrides(cfg, ["mirrored=" + text]).mirrored is value
        for text in ["ture", "", "2", "on", "y"]:
            with pytest.raises(ValueError, match="mirrored"):
                apply_overrides(cfg, ["mirrored=" + text])

    def test_json_file_merge(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"rho": 0.9, "seed": 5}))
        cfg = load_config(str(path), data={"seed": 7})
        assert cfg.rho == 0.9 and cfg.seed == 7  # dict overrides the file

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="other")
        with pytest.raises(ValueError):
            ExperimentConfig(param_update="sgd")
        with pytest.raises(ValueError):
            ExperimentConfig(epochs=-1)
        with pytest.raises(ValueError):
            ExperimentConfig(held_out_fraction=1.5)
        for knn_k in (0, -1, 2):
            with pytest.raises(ValueError, match="^knn_k must be odd"):
                ExperimentConfig(knn_k=knn_k)
        # n=20 holds out 5 and leaves 15 voters; n=19 holds out 5 too
        assert ExperimentConfig(n=20, knn_k=15, batch_size=16).knn_k == 15
        with pytest.raises(ValueError, match="^knn_k 15 exceeds the 14 training points"):
            ExperimentConfig(n=19, knn_k=15)
        for key in ["d_in", "d_latent", "d_img", "d_txt", "d_hidden", "d_embed"]:
            for bad in [0, -1]:
                with pytest.raises(ValueError, match="^%s must be >= 1, not %d$" % (key, bad)):
                    ExperimentConfig(**{key: bad})
        for key in ["noise", "aug_strength"]:
            with pytest.raises(ValueError, match="^%s must be nonnegative, not -0.5$" % key):
                ExperimentConfig(**{key: -0.5})
            assert getattr(ExperimentConfig(**{key: 0.0}), key) == 0.0
        for batch_size in [1, 0, -3]:
            with pytest.raises(ValueError, match="^batch_size must be >= 2, not %d$" % batch_size):
                ExperimentConfig(batch_size=batch_size)
        with pytest.raises(ValueError):
            ExperimentConfig(rho=-1.0)  # loss hyperparameters validated too
        for key in ["eta_w", "eta_tau", "rho", "beta0", "log_epsilon", "ratio", "noise", "aug_strength"]:
            for bad in [float("nan"), float("inf"), -float("inf"), np.float32("nan")]:
                with pytest.raises(ValueError, match=key):
                    ExperimentConfig(**{key: bad})
            with pytest.raises(ValueError, match=key):
                apply_overrides(ExperimentConfig(), ["%s=nan" % key])
        with pytest.raises(ValueError, match="mirrored"):
            load_config(data={"mirrored": "ture"})
        # each field takes only values of its declared type, named by key
        for key, bad in [("seed", 1.5), ("epochs", 2.5), ("n", "80"), ("n", True), ("seed", None),
                         ("rho", "0.5"), ("rho", True), ("noise", "2"), ("noise", False), ("noise", None),
                         ("mode", 1), ("out", None), ("mirrored", 1), ("mirrored", None)]:
            with pytest.raises(ValueError, match="^%s must be of type" % key):
                load_config(data={key: bad})
        for key, text in [("n", "abc"), ("seed", "1.5"), ("rho", "x"), ("noise", "big"), ("noise", "none")]:
            with pytest.raises(ValueError, match="^%s must be of type" % key):
                apply_overrides(ExperimentConfig(), ["%s=%s" % (key, text)])

    def test_int_in_float_field_kept(self):
        # an int in a float field is stored as given, so its report bytes stay
        cfg = load_config(data={"ratio": 20, "rho": 1, "noise": 3})
        assert type(cfg.ratio) is int and type(cfg.rho) is int and type(cfg.noise) is int

    def test_numpy_scalars_stored_as_python_numbers(self, tmp_path):
        # a run built from numpy values trains and writes the report of the
        # same run built from Python numbers
        reports = []
        for name, kind in [("np", np.int64), ("py", int)]:
            cfg = small_cfg(tmp_path, name=name, seed=kind(4), epochs=kind(2), rho=np.float64(0.8),
                            noise=np.float64(0.25) if kind is np.int64 else 0.25,
                            mirrored=np.bool_(False) if kind is np.int64 else False)
            assert type(cfg.seed) is int and type(cfg.epochs) is int
            assert type(cfg.rho) is float and type(cfg.noise) is float
            assert type(cfg.mirrored) is bool
            run_train_unimodal(cfg)
            blob = json.load(open(os.path.join(cfg.out, "report.json")))
            blob.pop("wall_clock_sec")
            blob["config"].pop("out")
            blob.pop("config_code_hash")
            reports.append(blob)
        assert reports[0] == reports[1]
        assert reports[0]["config"]["seed"] == 4
        assert load_config(data={"mirrored": np.bool_(True)}).mirrored is True
        # a numpy bool is a bool, not a number
        with pytest.raises(ValueError, match="^seed must be of type int"):
            load_config(data={"seed": np.bool_(True)})


class TestKnn:
    def test_perfect_separation(self):
        emb = np.eye(3)[np.repeat(np.arange(3), 8)]
        labels = np.repeat(np.arange(3), 8)
        acc = knn_accuracy(emb, labels, 1, 0.25, RandomStream(0, ("knn",)))
        assert acc == 1.0

    def test_shuffled_labels_chance_level(self):
        accs = []
        for seed in range(3):
            stream = RandomStream(seed, ("chance",))
            emb = stream.normal(400, 8)
            emb /= np.linalg.norm(emb, axis=1, keepdims=True)
            labels = np.repeat(np.arange(10), 40)
            accs.append(knn_accuracy(emb, labels, 5, 0.25, stream.split("split")))
        assert abs(np.mean(accs) - 0.1) <= 0.03

    def test_k_equals_train_size_majority_vote(self):
        # all training points vote: prediction is always the dominant class
        emb = RandomStream(1).normal(20, 4)
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        labels = np.array([0] * 15 + [1] * 5)
        stream = RandomStream(2, ("maj",))
        acc = knn_accuracy(emb, labels, 15, 0.25, stream)
        test_idx = np.sort(RandomStream(2, ("maj",)).choice_without_replacement(20, 5))
        expected = float(np.mean(labels[test_idx] == 0))
        assert acc == expected

    def test_even_k_rejected(self):
        with pytest.raises(ValueError):
            knn_accuracy(np.eye(4), np.arange(4), 2, 0.25, RandomStream(0))

    @staticmethod
    def loop_knn(embeddings, labels, k, held_out_fraction, stream):
        """The per-row reference: stable argsort, np.unique vote count,
        lowest class id among tied counts."""
        n = embeddings.shape[0]
        n_test = max(1, int(round(held_out_fraction * n)))
        test_idx = np.sort(stream.choice_without_replacement(n, n_test))
        train_idx = np.setdiff1d(np.arange(n), test_idx)
        sims = embeddings[test_idx] @ embeddings[train_idx].T
        correct = 0
        for r in range(len(test_idx)):
            nn = np.argsort(-sims[r], kind="stable")[:k]
            classes, counts = np.unique(labels[train_idx[nn]], return_counts=True)
            correct += int(classes[counts == counts.max()].min() == labels[test_idx[r]])
        return correct / len(test_idx)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_loop_on_ties(self, seed):
        # few distinct integer embeddings: many tied similarities and votes;
        # 27, 69 and 90 held-out rows span blocks of 16, the last one partial
        for n in (90, 230, 301):
            stream = RandomStream(seed, ("knn-ties",))
            emb = stream.integers(0, 3, size=(n, 3)).astype(float)
            labels = np.array([2, 5, 9, 11])[stream.integers(0, 4, size=n)]
            for k in (1, 3, 5, 7, 15):
                got = knn_accuracy(emb, labels, k, 0.3, RandomStream(seed, ("split",)))
                want = self.loop_knn(emb, labels, k, 0.3, RandomStream(seed, ("split",)))
                assert got == want

    def test_memory_linear_in_n(self):
        # the (1000, 3000) similarity matrix alone is 24 MB
        stream = RandomStream(5, ("knn-memory",))
        emb = stream.normal(4000, 16)
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        labels = stream.integers(0, 10, size=4000)
        tracemalloc.start()
        try:
            knn_accuracy(emb, labels, 5, 0.25, stream.split("split"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_memory_independent_of_label_count(self):
        # one label per row: counting votes through a per-class array traced 31 MB
        stream = RandomStream(6, ("knn-labels",))
        emb = stream.normal(4000, 16)
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        tracemalloc.start()
        try:
            knn_accuracy(emb, np.arange(4000), 5, 0.25, stream.split("split"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="labels of shape \\(74,\\) for 24 embedding rows"):
            knn_accuracy(np.eye(3)[np.repeat(np.arange(3), 8)], np.zeros(74, int), 1, 0.25, RandomStream(0))

    def test_non_finite_embeddings_rejected(self):
        emb = np.eye(3)[np.repeat(np.arange(3), 8)]
        emb[4] = np.nan
        with pytest.raises(ValueError, match="embeddings must be finite"):
            knn_accuracy(emb, np.repeat(np.arange(3), 8), 1, 0.25, RandomStream(0))


class TestTrainUnimodal:
    def test_epochs_zero_initial_metrics_only(self, tmp_path):
        cfg = small_cfg(tmp_path, epochs=0)
        report = run_train_unimodal(cfg)
        assert report["steps"] == 0
        assert report["objective_estimate"] == []
        assert report["spearman_size_tau"] is None  # constant tau has no ranks
        assert report["min_g_seen"] is None
        rows = list(csv.DictReader(open(os.path.join(cfg.out, "tau.csv"))))
        assert len(rows) == cfg.n
        assert all(float(r["tau"]) == cfg.tau_init for r in rows)

    def test_artifacts_written(self, tmp_path):
        cfg = small_cfg(tmp_path)
        report = run_train_unimodal(cfg)
        for name in ("report.json", "tau.csv", "metrics.csv", "encoder.ckpt", "optimizer.ckpt"):
            assert os.path.exists(os.path.join(cfg.out, name))
        assert report["steps"] == cfg.epochs * (cfg.n // cfg.batch_size)
        with open(os.path.join(cfg.out, "metrics.csv")) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == cfg.epochs + 1  # header + one row per epoch

    def test_baseline_mode_constant_tau_csv(self, tmp_path):
        cfg = small_cfg(tmp_path, mode="sogclr-baseline")
        run_train_unimodal(cfg)
        rows = list(csv.DictReader(open(os.path.join(cfg.out, "tau.csv"))))
        taus = {r["tau"] for r in rows}
        assert len(taus) == 1
        assert float(taus.pop()) == cfg.tau_init

    def test_baseline_run_records_one_step_span_per_step(self, tmp_path):
        # the baseline calls step_unimodal itself: bench/spans.py's tracer
        # sees one optimizer.step span per step, none inside another
        tracer = load_spans().Tracer()
        tracer.install()
        try:
            report = run_train_unimodal(small_cfg(tmp_path, mode="sogclr-baseline"))
        finally:
            tracer.uninstall()
        parents = [span[1] for span in tracer.spans if span[2] == "optimizer.step"]
        assert len(parents) == report["steps"] == 30 and set(parents) == {0}

    def test_tau_csv_contracts(self, tmp_path):
        cfg = small_cfg(tmp_path)
        run_train_unimodal(cfg)
        from rgcl.optimizer import load_optimizer_state

        opt = load_optimizer_state(os.path.join(cfg.out, "optimizer.ckpt"))
        rcfg = cfg.rgcl_config()
        rows = list(csv.DictReader(open(os.path.join(cfg.out, "tau.csv"))))
        assert [r["index"] for r in rows] == [str(i) for i in range(cfg.n)]
        for i, row in enumerate(rows):
            assert rcfg.tau0 <= float(row["tau"]) <= rcfg.tau_max
            # repr output parses back to the exact stored double
            assert float(row["tau"]) == opt.tau[0, i]
            assert float(row["s"]) == opt.s[0, i]

    def test_deterministic_artifacts(self, tmp_path):
        reports = []
        taus = []
        for name in ("a", "b"):
            cfg = small_cfg(tmp_path, name=name)
            run_train_unimodal(cfg)
            blob = json.load(open(os.path.join(cfg.out, "report.json")))
            blob.pop("wall_clock_sec")
            # the output path feeds the config and provenance hash, and it
            # must differ between the two runs; everything else may not
            blob["config"].pop("out")
            blob.pop("config_code_hash")
            reports.append(json.dumps(blob, sort_keys=True))
            taus.append(open(os.path.join(cfg.out, "tau.csv"), "rb").read())
        assert reports[0] == reports[1]
        assert taus[0] == taus[1]

    def test_bimodal_mode_rejected(self, tmp_path):
        cfg = small_cfg(tmp_path, mode="bimodal")
        with pytest.raises(ValueError):
            run_train_unimodal(cfg)


class TestTrainBimodal:
    def test_objective_estimate_sums_both_sides(self):
        # per touched anchor, the image side's and then the text side's
        # tau log s + (tau - tau0) rho, added left to right; then the mean
        from rgcl.optimizer import init_optimizer_state

        rcfg = ExperimentConfig().rgcl_config()
        opt = init_optimizer_state(60, 3, rcfg, seed=0, sides=2)
        rng = np.random.default_rng(1)
        opt.s[:] = rng.uniform(0.2, 3.0, opt.s.shape)
        opt.tau[:] = rng.uniform(rcfg.tau0, 2.0, opt.tau.shape)
        assert harness._objective_estimate(opt, rcfg) is None
        opt.initialized[::3] = True
        tau, s = opt.tau[:, opt.initialized], opt.s[:, opt.initialized]
        want = (tau[0] * np.log(s[0]) + (tau[0] - rcfg.tau0) * rcfg.rho
                + tau[1] * np.log(s[1]) + (tau[1] - rcfg.tau0) * rcfg.rho)
        assert harness._objective_estimate(opt, rcfg) == float(want.mean())

    def test_mirrored_summaries_identical(self, tmp_path):
        cfg = small_cfg(tmp_path, mode="bimodal", mirrored=True, d_latent=6,
                        d_img=6, d_txt=6, epochs=4)
        report = run_train_bimodal(cfg)
        assert report["tau_v_summary"] == report["tau_t_summary"]
        assert report["per_cluster_mean_tau_v"] == report["per_cluster_mean_tau_t"]

    def test_epochs_zero(self, tmp_path):
        cfg = small_cfg(tmp_path, mode="bimodal", epochs=0)
        report = run_train_bimodal(cfg)
        assert report["steps"] == 0
        assert report["tau_v_summary"]["min"] == cfg.tau_init
        # constant temperatures have no ranks, on either side
        assert report["spearman_size_tau_v"] is None
        assert report["spearman_size_tau_t"] is None

    def test_frozen_temperatures_have_no_ranking(self, tmp_path):
        cfg = small_cfg(tmp_path, mode="bimodal", eta_tau=0.0, epochs=2)
        report = run_train_bimodal(cfg)
        assert report["steps"] > 0
        assert report["tau_v_summary"]["max"] == report["tau_t_summary"]["max"] == cfg.tau_init
        assert report["spearman_size_tau_v"] is None
        assert report["spearman_size_tau_t"] is None

    @pytest.mark.parametrize("mode", ["isogclr", "sogclr-baseline"])
    def test_unimodal_mode_rejected(self, tmp_path, mode):
        with pytest.raises(ValueError, match="mode bimodal"):
            run_train_bimodal(small_cfg(tmp_path, mode=mode))

    def test_longtail_temperature_ordering(self, tmp_path):
        # desk-scale two-tower run: per-cluster mean temperature tracks
        # cluster frequency
        cfg = load_config(data={
            "out": str(tmp_path / "bi"), "mode": "bimodal", "d_hidden": 8, "epochs": 500,
        })
        report = run_train_bimodal(cfg)
        assert report["spearman_size_tau_v"] > 0.5


class TestSubcommands:
    def test_gen_data(self, tmp_path):
        cfg = small_cfg(tmp_path)
        path = run_gen_data(cfg)
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert len(header) == 2 + cfg.d_in
        assert len(rows) == cfg.n and all(len(r) == len(header) for r in rows)
        assert len({r[1] for r in rows}) == cfg.k

    def test_gen_data_rejects_bimodal(self, tmp_path, capsys):
        out = tmp_path / "bi"
        rc = cli.main(["gen-data", "--out", str(out), "--set", "mode=bimodal", "--set", "n=40",
                       "--set", "k=4", "--set", "ratio=10", "--set", "d_in=3", "--set", "d_img=7"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "bimodal" in err
        assert not os.path.exists(out / "dataset.csv")

    def test_dump_tau_reproduces_csv(self, tmp_path):
        cfg = small_cfg(tmp_path)
        run_train_unimodal(cfg)
        original = open(os.path.join(cfg.out, "tau.csv"), "rb").read()
        os.remove(os.path.join(cfg.out, "tau.csv"))
        run_dump_tau(cfg)
        assert open(os.path.join(cfg.out, "tau.csv"), "rb").read() == original

    @pytest.mark.parametrize("command", ["train-unimodal", "train-bimodal"])
    def test_dump_tau_labels_from_the_run_config(self, tmp_path, command):
        # dump-tau without the training overrides: the labels must still be
        # those of the n=300, k=5 run, not of the default n=2000, k=10 data
        out = str(tmp_path / "run")
        assert cli.main([command, "--out", out, "--set", "n=300", "--set", "k=5",
                         "--set", "epochs=1"]) == 0
        path = os.path.join(out, "tau.csv")
        original = open(path, "rb").read()
        os.remove(path)
        assert cli.main(["dump-tau", "--out", out]) == 0
        assert open(path, "rb").read() == original
        labels = [int(r["label"]) for r in csv.DictReader(open(path))]
        assert len(labels) == 300 and sorted(set(labels)) == [0, 1, 2, 3, 4]

    def test_dump_tau_needs_report(self, tmp_path):
        cfg = small_cfg(tmp_path, epochs=1)
        run_train_unimodal(cfg)
        os.remove(os.path.join(cfg.out, "report.json"))
        with pytest.raises(ValueError, match="report.json"):
            run_dump_tau(cfg)

    def test_dump_tau_checks_side_count_against_mode(self, tmp_path):
        cfg = small_cfg(tmp_path, epochs=1)
        run_train_unimodal(cfg)
        path = os.path.join(cfg.out, "report.json")
        report = json.load(open(path))
        report["config"]["mode"] = "bimodal"
        json.dump(report, open(path, "w"))
        with pytest.raises(ValueError, match="checkpoint holds 1 sides, a bimodal run has 2"):
            run_dump_tau(cfg)

    def test_dump_tau_refuses_the_removed_scale(self, tmp_path, capsys):
        # a run recorded while the temperature step had a second setting
        cfg = small_cfg(tmp_path, epochs=1)
        run_train_unimodal(cfg)
        path = os.path.join(cfg.out, "report.json")
        report = json.load(open(path))
        report["config"]["tau_grad_scale"] = None
        json.dump(report, open(path, "w"))
        assert cli.main(["dump-tau", "--out", cfg.out]) == 2
        assert capsys.readouterr().err == "error: unknown config keys: tau_grad_scale\n"

    def test_export_tau_csv_label_count_checked(self, tmp_path):
        from rgcl.optimizer import init_optimizer_state

        opt = init_optimizer_state(5, 3, ExperimentConfig().rgcl_config(), seed=0, sides=2)
        for labels in (np.zeros(4), np.zeros(6)):
            with pytest.raises(ValueError, match="labels for 5 anchors"):
                harness.export_tau_csv(opt, labels, str(tmp_path / "tau.csv"))


def verify_battery(seed):
    """The four oracle checks as run_verify runs them at seed."""
    return harness._vcheck_oracle_battery(harness._oracle_battery(RandomStream(seed, ("verify", "dual")), 5), 2)


class TestVerify:
    def test_all_checks_pass_and_named(self, tmp_path):
        cfg = small_cfg(tmp_path, name="verify")
        report = run_verify(cfg)
        assert report["n_checks"] >= 12
        names = [c["name"] for c in report["checks"]]
        assert len(set(names)) == len(names)
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert failed == []
        assert report["all_passed"]

    def test_fault_injection_fails_containment(self, tmp_path, monkeypatch):
        # verify's training runs step without the temperature clamp
        monkeypatch.setattr(optimizer, "_project_tau", lambda tau, cfg: tau)
        cfg = small_cfg(tmp_path, name="verify_fault")
        report = run_verify(cfg)
        by_name = {c["name"]: c["passed"] for c in report["checks"]}
        assert by_name["tau_containment"] is False
        assert not report["all_passed"]

    def test_report_layout_pinned(self, tmp_path):
        # check names, their order and their count match the committed report
        with open(os.path.join(os.path.dirname(__file__), "..", "runs", "final_verify", "report.json")) as fh:
            committed = json.load(fh)
        report = run_verify(small_cfg(tmp_path, name="verify_layout"))
        assert [c["name"] for c in report["checks"]] == [c["name"] for c in committed["checks"]]
        assert report["n_checks"] == committed["n_checks"] == len(committed["checks"])

    def test_each_oracle_instance_solved_once(self, tmp_path, monkeypatch):
        # the oracle checks share one battery of 75 instances, each solved
        # once per solver in one batch call per negative count (m = 2..6),
        # with the grid on its 15 two-negative ones; the fixed instance adds
        # one batch of four primal rows
        calls, rows = {}, {}
        for name in ("_primal_rows", "_dual_tau_rows", "grid_search_simplex"):
            def counted(h, *args, _solve=getattr(oracle, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                rows[_name] = rows.get(_name, 0) + (len(h) if np.ndim(h) == 2 else 1)
                return _solve(h, *args)
            monkeypatch.setattr(oracle, name, counted)
        run_verify(small_cfg(tmp_path, name="verify_calls"))
        assert rows == {"_primal_rows": 79, "_dual_tau_rows": 75, "grid_search_simplex": 15}
        assert calls == {"_primal_rows": 6, "_dual_tau_rows": 5, "grid_search_simplex": 15}

    @staticmethod
    def replace_solutions(monkeypatch, change):
        """Patch the primal batch routine so that the n-th row it solves,
        counted from 1 across calls, is change(n, rows, rho, solution)."""
        solve, count = oracle._primal_rows, itertools.count(1)

        def changed(hv, rho, tau0):
            return [change(next(count), hv, r, sol) for r, sol in zip(rho, solve(hv, rho, tau0))]

        monkeypatch.setattr(oracle, "_primal_rows", changed)

    def test_feasibility_reports_the_first_lambda_over_bound(self, monkeypatch):
        # the battery is solved in instance order (one batch per m, in m
        # order), so rows 3 and 7 are instances 3 and 7
        self.replace_solutions(
            monkeypatch, lambda n, hv, rho, sol: dataclasses.replace(sol, lam=1e9 + n) if n in (3, 7) else sol)
        feasible = verify_battery(0)[0]
        assert feasible == {"name": "primal_feasibility", "passed": False, "detail": {"lambda_over_bound": 1e9 + 3}}

    def test_feasibility_counts_complementary_slackness(self, monkeypatch):
        # the first instance (m = 2, rho = 0.1) gets lam = 1.5, under C / rho
        # for every battery rho, and a p whose KL is just above rho: the
        # slackness term |lam| (kl - rho) then sets the worst violation
        p = oracle.solve_primal(np.array([0.0, -1.0]), 0.1 + 1e-6, 0.0).p
        assert 0.1 < oracle.kl_uniform(p) < 0.1 + 2e-6

        def slack_at_1(n, hv, rho, sol):
            if n > 1:
                return sol
            assert (hv.shape[1], rho) == (2, 0.1)
            return dataclasses.replace(sol, p=p, lam=1.5, kl=oracle.kl_uniform(p))

        self.replace_solutions(monkeypatch, slack_at_1)
        feasible = verify_battery(0)[0]
        assert feasible == {"name": "primal_feasibility", "passed": False,
                            "detail": {"worst_violation": 1.5 * (oracle.kl_uniform(p) - 0.1)}}

    def test_finite_diff_check_fails_a_scaled_gradient(self):
        scaled = [(name, (1 + 1e-3) * exact, point, func) for name, exact, point, func in harness._finite_diff_cases(0)]
        assert not any(check["passed"] for check in harness._vcheck_finite_diff(scaled))

    @staticmethod
    def unbiasedness_loop(seed):
        """The estimator_unbiasedness detail with each batch drawn, scored
        and reduced by oracle.g_value one at a time."""
        stream = RandomStream(seed, ("verify", "unbias"))
        n, d = 20, 5
        params = init_encoder_params(d, 6, 4, "tanh", stream.split("enc"))
        views = loss.ViewPairs(stream.split("va").normal(n, d), stream.split("vb").normal(n, d))
        y = encode(params, views.views).embeddings
        ya, yb = y[0::2], y[1::2]
        g_full = oracle.g_value(hardness_rows(ya, yb, ya, yb)[0], 0.5)
        bstream = stream.split("batches")
        all_negs = np.concatenate([ya[1:], yb[1:]])
        pos = float(ya[0] @ yb[0])
        draws = []
        for _ in range(2000):
            pick = bstream.choice_without_replacement(len(all_negs), 8)
            draws.append(oracle.g_value(all_negs[pick] @ ya[0] - pos, 0.5))
        draws = np.asarray(draws)
        se = draws.std(ddof=1) / np.sqrt(len(draws))
        dev = abs(draws.mean() - g_full)
        return {"deviation": dev, "three_se": 3 * se}

    @pytest.mark.parametrize("seed", range(5))
    def test_unbiasedness_matches_per_draw_loop(self, seed):
        # all draws are scored as one array; every bit of the detail stays
        check = harness._vcheck_unbiasedness(seed)
        assert check["passed"]
        assert check["detail"] == self.unbiasedness_loop(seed)


class TestCli:
    def test_train_unimodal_exit_zero(self, tmp_path, capsys):
        rc = cli.main([
            "train-unimodal", "--out", str(tmp_path / "c"), "--seed", "1",
            "--set", "n=80", "--set", "k=4", "--set", "d_in=6", "--set", "d_hidden=4",
            "--set", "d_embed=4", "--set", "batch_size=16", "--set", "epochs=2",
        ])
        assert rc == 0
        assert "knn accuracy" in capsys.readouterr().out

    def test_bad_config_exit_two(self, tmp_path, capsys):
        rc = cli.main(["gen-data", "--set", "nope=1", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_tau0_below_float64_bound_exit_two(self, tmp_path, capsys):
        # exp(C / tau0) overflows a float64: refused before any training
        rc = cli.main([
            "train-unimodal", "--out", str(tmp_path / "run"), "--set", "tau0=0.0002",
            "--set", "tau_init=0.0002", "--set", "n=200", "--set", "k=4", "--set", "ratio=10",
            "--set", "epochs=30", "--set", "batch_size=32", "--set", "d_hidden=8",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: tau0 must be >= C / log(DBL_MAX) = 0.00281776")
        assert err.count("\n") == 1
        assert not os.path.exists(tmp_path / "run")

    def test_missing_config_file_exit_two(self, tmp_path):
        rc = cli.main(["gen-data", "--config", str(tmp_path / "absent.json")])
        assert rc == 2

    @pytest.mark.parametrize("config,argv,message", [
        ("[1, 2]", [], "config must be a JSON object"),
        ("null", [], "config must be a JSON object"),
        # the optimizer checkpoint stores the seed as an int64: refused before
        # training, not after it with a truncated checkpoint
        ('{"n": 80, "k": 4, "epochs": 1, "batch_size": 16}', ["--seed", str(2**63)],
         "seed must be in [-2**63, 2**63)"),
        # knn_accuracy, which runs after training, would refuse these
        ('{"n": 80, "k": 4, "epochs": 1, "batch_size": 16}', ["--set", "knn_k=4"],
         "knn_k must be odd and >= 1, not 4"),
        ('{"n": 200, "k": 4, "epochs": 1, "batch_size": 16}', ["--set", "knn_k=151"],
         "knn_k 151 exceeds the 150 training points of the held-out split"),
        # each trained to the end and exited 0, or failed only after --out existed
        *[('{"n": 80, "k": 4, "epochs": 1, "batch_size": 16}', ["--set", setting], message)
          for setting, message in [
              ("d_in=0", "d_in must be >= 1, not 0"),
              ("d_hidden=0", "d_hidden must be >= 1, not 0"),
              ("d_embed=0", "d_embed must be >= 1, not 0"),
              ("noise=-1", "noise must be nonnegative, not -1.0"),
              ("aug_strength=-0.5", "aug_strength must be nonnegative, not -0.5"),
              ("batch_size=1", "batch_size must be >= 2, not 1"),
              ("activation=relu", "unknown activation 'relu'"),
              # the removed temperature-step scale, in an override or in the file
              ("tau_grad_scale=1", "unknown config keys: tau_grad_scale"),
          ]],
        ('{"n": 80, "k": 4, "epochs": 1, "batch_size": 16, "tau_grad_scale": null}', [],
         "unknown config keys: tau_grad_scale"),
        # json would keep the last value
        ('{"rho": 0.5, "rho": 0.9, "epochs": 1}', [], "repeated config key: rho"),
    ], ids=["array", "null", "seed-2**63", "knn_k-even", "knn_k-over-train", "d_in-0", "d_hidden-0", "d_embed-0",
            "noise-negative", "aug_strength-negative", "batch_size-1", "activation-relu", "tau_grad_scale-set",
            "tau_grad_scale-in-file", "repeated-key"])
    def test_rejected_before_any_output(self, tmp_path, capsys, config, argv, message):
        path = tmp_path / "cfg.json"
        path.write_text(config)
        assert cli.main(["train-unimodal", "--config", str(path), "--out", str(tmp_path / "run"), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: " + message) and err.count("\n") == 1
        assert not os.path.exists(tmp_path / "run")

    @pytest.mark.parametrize("command", ["train-unimodal", "train-bimodal"])
    def test_batch_over_n_refused_before_any_output(self, tmp_path, capsys, command):
        # gen-data and verify take a config whose batch exceeds n; training does not
        argv = ["--out", str(tmp_path / "run"), "--set", "n=80", "--set", "k=4", "--set", "batch_size=81"]
        assert cli.main([command, *argv]) == 2
        err = capsys.readouterr().err
        assert err == "error: batch_size 81 exceeds the n = 80 samples\n"
        assert not os.path.exists(tmp_path / "run")
        assert cli.main(["gen-data", *argv]) == 0

    @pytest.mark.parametrize("bad", [{"seed": 1.5}, {"epochs": 2.5}, {"mirrored": "yes"}])
    def test_config_file_wrong_type_exit_two(self, tmp_path, capsys, bad):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 80, "k": 4, "epochs": 1, "batch_size": 16, **bad}))
        rc = cli.main(["train-unimodal", "--config", str(path), "--out", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: %s must be of type" % next(iter(bad)))
        assert "Traceback" not in err and err.count("\n") == 1
        assert not os.path.exists(tmp_path / "run")

    @pytest.mark.parametrize(
        "argv", [["dump-tau"], ["train-unimodal", "--set", "mode=bimodal"]],
        ids=["dump-tau-empty-dir", "train-unimodal-bimodal-mode"],
    )
    def test_subcommand_error_one_line_exit_two(self, tmp_path, capsys, argv):
        out = tmp_path / "empty"
        out.mkdir()
        assert cli.main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_verify_exit_codes(self, tmp_path, monkeypatch, capsys):
        fake = {"checks": [{"name": "x", "passed": False, "detail": {}}], "all_passed": False}
        monkeypatch.setattr(harness, "run_verify", lambda cfg: fake)
        rc = cli.main(["verify", "--out", str(tmp_path / "v")])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_gen_data_prints_path(self, tmp_path, capsys):
        rc = cli.main([
            "gen-data", "--out", str(tmp_path / "g"),
            "--set", "n=40", "--set", "k=4", "--set", "d_in=6", "--set", "ratio=10",
        ])
        assert rc == 0
        assert "dataset.csv" in capsys.readouterr().out
