"""Command-line contract: exit codes, file formats, strict config."""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from uotalign.classifier import ClassifierConfig
from uotalign.cli import (
    _BANK_KEYS,
    _CLASSIFIER_KEYS,
    _SOLVER_KEYS,
    _TRAIN_KEYS,
    EXIT_ERROR,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_PARTIAL_FAILURE,
    build_outlier_instance,
    build_parser,
    load_config,
    main,
    outlier_mass,
    read_csv_matrix,
    write_csv,
)
from uotalign.features import (
    load_manifest,
    load_split,
    read_embedding_file,
    synth_dataset,
    write_embedding_file,
)
from uotalign.prompts import parse_descriptions, synth_description_texts
from uotalign.trainer import VARIANTS, apply_variant, evaluate, load_checkpoint
from uotalign.transport import INF, SolverConfig, TransportProblem, solve_uot

TRAIN_CFG = {"epochs": 25, "seed": 1, "token_dim": 16, "context_length": 4,
             "num_class_prompts": 2}
QUICK_CFG = dict(TRAIN_CFG, epochs=2)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Synth dataset, config files and one trained run shared below."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["synth", "--out", str(root / "data"), "--per-class", "8",
                 "--tokens", "6", "--dim", "16", "--separation", "10",
                 "--seed", "3"]) == EXIT_OK
    (root / "cfg.json").write_text(json.dumps(TRAIN_CFG))
    (root / "quick.json").write_text(json.dumps(QUICK_CFG))
    assert main(["train", "--manifest", str(root / "data/manifest.json"),
                 "--config", str(root / "cfg.json"),
                 "--out", str(root / "run")]) == EXIT_OK
    return root


class TestConfig:
    def test_flat_namespace_routes_to_dataclasses(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "epochs": 3, "variant": "no_uot", "augmentation": [0.1, 0.2],
            "tau": 0.05, "rho2": "inf", "max_iterations": 5,
            "token_dim": 24,
        }))
        cfg, ccfg, bank_kw = load_config(path)
        assert cfg.epochs == 3 and cfg.variant == "no_uot"
        assert cfg.augmentation == (0.1, 0.2)
        assert ccfg.tau == 0.05 and ccfg.rho2 == INF
        assert ccfg.solver == SolverConfig(max_iterations=5)
        assert bank_kw == {"token_dim": 24}

    def test_no_file_gives_defaults(self):
        cfg, ccfg, bank_kw = load_config(None)
        assert cfg.epochs == 50 and ccfg.lam == 0.01
        assert ccfg.solver == SolverConfig() and bank_kw == {}

    def test_solve_and_compare_flags_default_to_the_configs(self):
        ccfg, solver = ClassifierConfig(), SolverConfig()
        solve = build_parser().parse_args(["solve", "--cost", "c", "--out", "o"])
        compare = build_parser().parse_args(["compare", "--out", "o"])
        assert ((solve.lam, solve.rho1, solve.rho2, solve.max_iterations,
                 solve.dual_tolerance) == (ccfg.lam, ccfg.rho1, ccfg.rho2,
                                           solver.max_iterations, solver.dual_tolerance))
        assert ((compare.lam, compare.rho2, compare.dual_tolerance)
                == (ccfg.lam, ccfg.rho2, solver.dual_tolerance))
        assert compare.max_iterations == 20000  # compare keeps its own cap

    def test_unknown_key_is_an_error(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"learning_rte": 0.1}')
        with pytest.raises(ValueError, match="unknown config key: 'learning_rte'"):
            load_config(path)

    @pytest.mark.parametrize("key", [
        "use_uot",  # the plain-OT ablation is rho1 = rho2 = inf, not a switch
        "solver",  # the flat max_iterations and dual_tolerance set it
    ])
    def test_switches_and_nested_fields_are_unknown_keys(self, tmp_path, key):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({key: False}))
        with pytest.raises(ValueError, match=f"unknown config key: '{key}'"):
            load_config(path)

    @pytest.mark.parametrize("key, value", [
        ("token_dim", 8.9), ("num_class_prompts", True), ("context_length", "8"),
        ("epochs", 1.5), ("batch_size", 4.0), ("seed", None), ("max_iterations", False),
    ])
    def test_integer_keys_are_not_coerced(self, tmp_path, key, value):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({key: value}))
        with pytest.raises(ValueError,
                           match=f"schema violation: {key} must be an integer"):
            load_config(path)

    @pytest.mark.parametrize("key, value", [
        ("tau", "0.05"), ("dual_tolerance", "1e-9"), ("learning_rate", True),
        ("lam", None), ("gamma_cs", [0.5]), ("rho1", "0.5"), ("rho2", False),
        ("augmentation", 0.1), ("augmentation", [0.1]), ("augmentation", [0.1, "0"]),
        ("variant", 3),
    ])
    def test_values_of_the_wrong_type_are_schema_violations(self, tmp_path, key, value):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({key: value}))
        with pytest.raises(ValueError, match=f"schema violation: {key} must be "):
            load_config(path)

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="schema violation"):
            load_config(path)

    def test_rejects_non_object(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="schema violation"):
            load_config(path)

    def test_readme_example_names_every_key(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Config file", 1)[1]
        example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        path = tmp_path / "c.json"
        path.write_text(example)
        load_config(path)
        assert set(json.loads(example)) == \
            _TRAIN_KEYS | _CLASSIFIER_KEYS | _SOLVER_KEYS | _BANK_KEYS


class TestCsv:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((3, 5)) * 10.0 ** rng.integers(-8, 8, (3, 5))
        path = tmp_path / "m.csv"
        write_csv(path, M)
        np.testing.assert_array_equal(read_csv_matrix(path), M)

    def test_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,frog\n")
        with pytest.raises(ValueError, match="corrupt file"):
            read_csv_matrix(path)


class TestSolve:
    def test_trivial_instance(self, tmp_path):
        cost = tmp_path / "c.csv"
        cost.write_text("0.5\n")
        out = tmp_path / "out"
        assert main(["solve", "--cost", str(cost), "--out", str(out)]) == EXIT_OK
        assert (out / "coupling.csv").read_text() == "1.0\n"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["total_mass"] == pytest.approx(1.0, abs=1e-9)

    def test_matches_library_solver(self, tmp_path):
        cost = np.array([[0.0, 0.6], [0.8, 0.1]])
        path = tmp_path / "c.csv"
        write_csv(path, cost)
        out = tmp_path / "out"
        code = main(["solve", "--cost", str(path), "--lam", "0.5",
                     "--rho1", "inf", "--rho2", "inf", "--out", str(out)])
        assert code == EXIT_OK
        plan = solve_uot(TransportProblem(cost, np.full(2, 0.5), np.full(2, 0.5), lam=0.5,
                                          rho1=INF, rho2=INF),
                         SolverConfig(max_iterations=2000, dual_tolerance=1e-9))
        got = read_csv_matrix(out / "coupling.csv")
        np.testing.assert_allclose(got, plan.coupling, rtol=1e-12)
        # EMB1 twin is float32 storage of the same coupling
        emb = read_embedding_file(out / "coupling.emb1")
        np.testing.assert_allclose(emb, plan.coupling, atol=1e-6)
        assert read_csv_matrix(out / "u.csv").shape == (1, 2)
        assert read_csv_matrix(out / "v.csv").shape == (1, 2)

    def test_emb1_cost_solves_as_its_csv_twin(self, tmp_path):
        # an EMB1 cost is read as float32 values, which its CSV twin holds exactly
        write_embedding_file(tmp_path / "c.emb1", np.array([[0.0, 0.6, 0.3], [0.8, 0.1, 0.45]]))
        write_csv(tmp_path / "c.csv", read_embedding_file(tmp_path / "c.emb1"))
        for suffix in ("emb1", "csv"):
            assert main(["solve", "--cost", str(tmp_path / f"c.{suffix}"),
                         "--out", str(tmp_path / suffix)]) == EXIT_OK
        for name in ("coupling.csv", "coupling.emb1", "u.csv", "v.csv", "summary.json"):
            assert (tmp_path / "emb1" / name).read_bytes() == \
                   (tmp_path / "csv" / name).read_bytes(), name

    def test_emb1_cost_must_be_an_embedding_file(self, tmp_path, capsys):
        path = tmp_path / "c.emb1"
        path.write_text("0.5,0.25\n0.1,0.9\n")  # CSV text under the EMB1 suffix
        out = tmp_path / "out"
        assert main(["solve", "--cost", str(path), "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: not an embedding file: {path}\n"
        assert not out.exists()

    def test_custom_marginal_files(self, tmp_path):
        write_csv(tmp_path / "c.csv", np.array([[0.0, 1.0], [1.0, 0.0]]))
        write_csv(tmp_path / "n.csv", np.array([[0.3, 0.7]]))
        write_csv(tmp_path / "m.csv", np.array([[0.6, 0.4]]))
        out = tmp_path / "out"
        code = main(["solve", "--cost", str(tmp_path / "c.csv"),
                     "--rows", str(tmp_path / "n.csv"),
                     "--cols", str(tmp_path / "m.csv"),
                     "--rho1", "inf", "--rho2", "inf", "--out", str(out)])
        assert code == EXIT_OK
        W = read_csv_matrix(out / "coupling.csv")
        np.testing.assert_allclose(W.sum(axis=1), [0.3, 0.7], atol=1e-6)
        np.testing.assert_allclose(W.sum(axis=0), [0.6, 0.4], atol=1e-6)

    @pytest.mark.parametrize("rows, cols, message", [
        ([[0.5, 0.5]], [[0.2, 0.2, 0.2]], "marginal mass mismatch: 1 vs 0.6"),
        ([[1.0]], [[0.5]], "marginal mass mismatch: 1 vs 0.5"),
    ], ids=["2x3", "1x1"])
    def test_pinned_unequal_mass_exits_1(self, tmp_path, capsys, rows, cols, message):
        # no coupling meets both pinned marginals: rejected before solving
        write_csv(tmp_path / "c.csv", np.zeros((len(rows[0]), len(cols[0]))))
        write_csv(tmp_path / "n.csv", np.array(rows))
        write_csv(tmp_path / "m.csv", np.array(cols))
        solve = ["solve", "--cost", str(tmp_path / "c.csv"), "--rows", str(tmp_path / "n.csv"),
                 "--cols", str(tmp_path / "m.csv")]
        out = tmp_path / "out"
        code = main(solve + ["--rho1", "inf", "--rho2", "inf", "--out", str(out)])
        assert code == EXIT_ERROR
        assert f"error: {message}\n" == capsys.readouterr().err
        assert not out.exists()
        # the default relaxed column marginal absorbs the difference
        assert main(solve + ["--out", str(out)]) == EXIT_OK

    def test_marginal_length_mismatch_exits_1(self, tmp_path, capsys):
        write_csv(tmp_path / "c.csv", np.array([[0.0, 1.0], [1.0, 0.0]]))
        write_csv(tmp_path / "n.csv", np.array([[0.2, 0.3, 0.5]]))
        code = main(["solve", "--cost", str(tmp_path / "c.csv"),
                     "--rows", str(tmp_path / "n.csv"),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_ERROR
        assert "row marginal has 3 entries" in capsys.readouterr().err

    def test_iteration_cap_exits_2(self, tmp_path, capsys):
        write_csv(tmp_path / "c.csv", np.array([[0.0, 0.3], [0.7, 0.2]]))
        out = tmp_path / "out"
        code = main(["solve", "--cost", str(tmp_path / "c.csv"),
                     "--lam", "0.001", "--rho1", "inf", "--rho2", "inf",
                     "--max-iterations", "1", "--out", str(out)])
        assert code == EXIT_NO_CONVERGENCE
        assert "max iterations" in capsys.readouterr().err
        # the last iterate is still written for inspection
        assert (out / "coupling.csv").exists()
        assert json.loads((out / "summary.json").read_text())["converged"] is False

    def test_missing_cost_file_exits_1(self, tmp_path, capsys):
        code = main(["solve", "--cost", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["-v", "-vv", "--verbose"])
    def test_verbose_reraises(self, tmp_path, flag):
        argv = ["solve", "--cost", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_ERROR
        with pytest.raises(FileNotFoundError):
            main(argv + [flag])


class TestCompare:
    def test_default_instance_suppresses_outliers(self, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare", "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        # 16 of 20 uniform columns are outliers: balanced OT must feed them
        assert summary["ot_outlier_mass"] == pytest.approx(0.8, abs=1e-12)
        assert summary["uot_outlier_mass"] < 0.05
        assert read_csv_matrix(out / "ot_coupling.csv").shape == (4, 20)
        assert read_csv_matrix(out / "uot_coupling.csv").shape == (4, 20)

    def test_no_outliers_makes_plans_agree(self, tmp_path):
        out = tmp_path / "cmp"
        code = main(["compare", "--matches", "4", "--outliers", "0",
                     "--out", str(out)])
        assert code == EXIT_OK
        ot = read_csv_matrix(out / "ot_coupling.csv")
        uot = read_csv_matrix(out / "uot_coupling.csv")
        assert np.max(np.abs(ot - uot)) < 1e-3

    def test_instance_builder_shapes(self):
        cost, n, m, mask = build_outlier_instance(4, 4, 16, seed=0)
        assert cost.shape == (4, 20)
        assert mask.sum() == 16 and not mask[:4].any()
        assert n.sum() == pytest.approx(1.0) and m.sum() == pytest.approx(1.0)
        # matched columns sit close to their prompt, outliers far from all
        assert cost[np.arange(4), np.arange(4)].max() < 0.1
        assert cost[:, mask].min() > 0.9

    def test_outlier_mass_of_empty_coupling_rejected(self):
        with pytest.raises(ValueError, match="zero marginal mass"):
            outlier_mass(np.zeros((2, 2)), np.array([True, False]))


class TestTrainEval:
    def test_committed_accuracy(self, workdir):
        metrics = json.loads((workdir / "run/metrics.json").read_text())
        # regression constant for this seed; the band absorbs BLAS drift
        assert abs(metrics["train_accuracy"] - 1.0) <= 0.01
        assert metrics["epochs"] == 25 and metrics["steps"] == 25
        history = read_csv_matrix(workdir / "run/history.csv")
        assert history.shape == (25, 3)
        assert history[0, 1] > history[-1, 1]

    def test_eval_reproduces_held_out_accuracy(self, workdir, tmp_path):
        out = tmp_path / "eval"
        code = main(["eval", "--manifest", str(workdir / "data/manifest.json"),
                     "--checkpoint", str(workdir / "run/checkpoint.ckpt"),
                     "--config", str(workdir / "cfg.json"),
                     "--split", "test", "--out", str(out)])
        assert code == EXIT_OK
        metrics = json.loads((out / "metrics.json").read_text())
        assert abs(metrics["accuracy"] - 1.0) <= 0.01
        assert metrics["count"] == 6
        assert set(metrics["per_class"]) == {"class_0", "class_1", "class_2"}

    def test_checkpoint_loads_and_matches_history(self, workdir):
        state = load_checkpoint(workdir / "run/checkpoint.ckpt")
        history = read_csv_matrix(workdir / "run/history.csv")
        assert state.epoch == 25
        assert history[-1, 1] == state.history[-1]["loss"]

    def test_identical_runs_write_identical_bytes(self, workdir, tmp_path):
        args = ["train", "--manifest", str(workdir / "data/manifest.json"),
                "--config", str(workdir / "quick.json")]
        assert main(args + ["--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(args + ["--out", str(tmp_path / "b")]) == EXIT_OK
        for name in ("checkpoint.ckpt", "history.csv", "metrics.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes(), name

    def test_seed_flag_overrides_config(self, workdir, tmp_path):
        args = ["train", "--manifest", str(workdir / "data/manifest.json"),
                "--config", str(workdir / "quick.json")]
        assert main(args + ["--seed", "2", "--out", str(tmp_path / "a")]) == EXIT_OK
        base = (workdir / "run/checkpoint.ckpt").read_bytes()
        assert (tmp_path / "a/checkpoint.ckpt").read_bytes() != base

    def test_missing_manifest_leaves_no_outputs(self, tmp_path, capsys):
        out = tmp_path / "never"
        code = main(["train", "--manifest", str(tmp_path / "no/manifest.json"),
                     "--out", str(out)])
        assert code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_class_prompt_count_must_match_descriptions(self, workdir, tmp_path, capsys):
        # cfg.json asks for 2 class prompts; the description files hold 4 texts
        index = {}
        for cls, texts in synth_description_texts(["class_0", "class_1", "class_2"],
                                                count=4).items():
            (tmp_path / f"{cls}.json").write_text(json.dumps(
                {"class_name": cls, "description": texts}))
            index[cls] = f"{cls}.json"
        (tmp_path / "descriptions.json").write_text(json.dumps(index))
        out = tmp_path / "out"
        code = main(["train", "--manifest", str(workdir / "data/manifest.json"),
                     "--config", str(workdir / "cfg.json"),
                     "--descriptions", str(tmp_path / "descriptions.json"),
                     "--out", str(out)])
        assert code == EXIT_ERROR
        assert ("schema violation: num_class_prompts is 2, but each class has 4 "
                "descriptions") in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_exits_1(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"epoch": 3}')
        code = main(["train", "--manifest", str(workdir / "data/manifest.json"),
                     "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == EXIT_ERROR
        assert "unknown config key: 'epoch'" in capsys.readouterr().err

    def test_negative_seed_rejected_before_training(self, workdir, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--manifest", str(workdir / "data/manifest.json"),
                     "--config", str(workdir / "quick.json"), "--seed", "-1",
                     "--out", str(out)])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "error: seed must be a non-negative integer\n"
        assert not out.exists()


class TestConfigVariant:
    """eval and heatmap score with the config's variant, as train does."""

    @pytest.fixture(scope="class")
    def runs(self, workdir, tmp_path_factory):
        root = tmp_path_factory.mktemp("variants")
        for variant in ("no_uot", "no_csc"):
            (root / f"{variant}.json").write_text(
                json.dumps(dict(QUICK_CFG, variant=variant)))
            assert main(["train", "--manifest", str(workdir / "data/manifest.json"),
                         "--config", str(root / f"{variant}.json"),
                         "--out", str(root / variant)]) == EXIT_OK
        return root

    @pytest.mark.parametrize("variant", ["no_uot", "no_csc"])
    def test_eval_equals_library_evaluate_under_the_variant(self, workdir, runs,
                                                             tmp_path, variant):
        manifest = workdir / "data/manifest.json"
        checkpoint = runs / variant / "checkpoint.ckpt"
        assert main(["eval", "--manifest", str(manifest), "--checkpoint",
                     str(checkpoint), "--config", str(runs / f"{variant}.json"),
                     "--split", "test", "--out", str(tmp_path)]) == EXIT_OK
        got = json.loads((tmp_path / "metrics.json").read_text())
        ccfg, _ = apply_variant(variant, ClassifierConfig())
        want = evaluate(load_split(load_manifest(manifest), "test"),
                        load_checkpoint(checkpoint), ccfg)
        assert (got["accuracy"], got["mean_loss"]) == \
            (want["accuracy"], want["mean_loss"])

    def test_heatmap_skips_the_variants_dropped_path(self, workdir, runs, tmp_path):
        assert main(["heatmap", "--checkpoint", str(runs / "no_csc/checkpoint.ckpt"),
                     "--manifest", str(workdir / "data/manifest.json"),
                     "--sample-id", "class_0_000", "--class-id", "class_0",
                     "--config", str(runs / "no_csc.json"),
                     "--out", str(tmp_path)]) == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary["heatmaps"]) == {"ds"} and summary["d_cs"] == 0.0
        assert not (tmp_path / "heatmap_cs.csv").exists()


class TestAblate:
    def test_emits_six_variant_rows(self, workdir, tmp_path):
        out = tmp_path / "abl"
        code = main(["ablate", "--manifest", str(workdir / "data/manifest.json"),
                     "--config", str(workdir / "quick.json"), "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "ablation.csv").read_text().strip().split("\n")
        assert [line.split(",")[0] for line in lines] == list(VARIANTS)
        assert all(len(line.split(",")) == 5 for line in lines)
        doc = json.loads((out / "ablation.json").read_text())
        assert [row["variant"] for row in doc["rows"]] == list(VARIANTS)
        assert all("error" not in row for row in doc["rows"])

    def test_zero_epochs_writes_strict_json(self, workdir, tmp_path):
        # no epoch means no train accuracy or loss: null in JSON, nan in CSV
        (tmp_path / "zero.json").write_text(json.dumps(dict(QUICK_CFG, epochs=0)))
        out = tmp_path / "abl"
        code = main(["ablate", "--manifest", str(workdir / "data/manifest.json"),
                     "--config", str(tmp_path / "zero.json"), "--out", str(out)])
        assert code == EXIT_OK

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        doc = json.loads((out / "ablation.json").read_text(), parse_constant=reject)
        assert len(doc["rows"]) == len(VARIANTS)
        for row in doc["rows"]:
            assert row["train_accuracy"] is None and row["final_train_loss"] is None
            assert isinstance(row["test_accuracy"], float)
        lines = (out / "ablation.csv").read_text().strip().split("\n")
        assert all(line.split(",")[1] == "nan" for line in lines)

    def test_no_test_split_writes_null_test_metrics(self, tmp_path):
        # one sample per class leaves no test split: null in JSON, nan in CSV
        synth_dataset(tmp_path / "d", num_classes=3, per_class=1, tokens=6, dim=16,
                      separation=10.0, seed=3, shots=1)
        (tmp_path / "c.json").write_text(json.dumps({"shots": 1}))
        out = tmp_path / "abl"
        code = main(["ablate", "--manifest", str(tmp_path / "d/manifest.json"),
                     "--config", str(tmp_path / "c.json"), "--out", str(out)])
        assert code == EXIT_OK

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        doc = json.loads((out / "ablation.json").read_text(), parse_constant=reject)
        assert [row["variant"] for row in doc["rows"]] == list(VARIANTS)
        for row in doc["rows"]:
            assert "error" not in row, row
            assert row["test_accuracy"] is None and row["test_loss"] is None
            assert isinstance(row["train_accuracy"], float)
        lines = (out / "ablation.csv").read_text().strip().split("\n")
        assert all(line.split(",")[2:4] == ["nan", "nan"] for line in lines)

    def test_negative_seed_exits_before_writing(self, workdir, tmp_path, capsys):
        # it used to write six error rows, one per variant, then exit 1
        (tmp_path / "neg.json").write_text(json.dumps({"seed": -2, "epochs": 1}))
        out = tmp_path / "abl"
        code = main(["ablate", "--manifest", str(workdir / "data/manifest.json"),
                     "--config", str(tmp_path / "neg.json"), "--out", str(out)])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "error: seed must be a non-negative integer\n"
        assert not out.exists()

    def test_failed_variant_writes_a_nan_row_and_exits_1(self, workdir, tmp_path,
                                                         capsys, monkeypatch):
        import uotalign.trainer as trainer_mod
        real = trainer_mod.apply_variant

        def failing(variant, ccfg):
            if variant == "no_sc":
                raise RuntimeError("no_sc broke")
            return real(variant, ccfg)

        monkeypatch.setattr(trainer_mod, "apply_variant", failing)
        out = tmp_path / "abl"
        code = main(["ablate", "--manifest", str(workdir / "data/manifest.json"),
                     "--config", str(workdir / "quick.json"), "--out", str(out)])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "variant no_sc failed: no_sc broke\n"
        lines = (out / "ablation.csv").read_text().strip().split("\n")
        assert [line.split(",")[0] for line in lines] == list(VARIANTS)
        assert lines[VARIANTS.index("no_sc")] == "no_sc,nan,nan,nan,nan"
        assert sum("nan" in line for line in lines) == 1
        rows = json.loads((out / "ablation.json").read_text())["rows"]
        assert rows[VARIANTS.index("no_sc")] == {"variant": "no_sc", "error": "no_sc broke"}
        assert sum("error" in row for row in rows) == 1


class TestHeatmap:
    def test_writes_one_csv_per_path(self, workdir, tmp_path):
        out = tmp_path / "hm"
        code = main(["heatmap", "--checkpoint", str(workdir / "run/checkpoint.ckpt"),
                     "--manifest", str(workdir / "data/manifest.json"),
                     "--sample-id", "class_0_000", "--class-id", "class_0",
                     "--config", str(workdir / "cfg.json"), "--out", str(out)])
        assert code == EXIT_OK
        cs = read_csv_matrix(out / "heatmap_cs.csv")
        ds = read_csv_matrix(out / "heatmap_ds.csv")
        assert cs.shape == (2, 6) and ds.shape == (2, 6)
        # rho1=INF pins the prompt marginal, so each row carries 1/P
        np.testing.assert_allclose(cs.sum(axis=1), 0.5, atol=1e-5)
        np.testing.assert_allclose(ds.sum(axis=1), 0.5, atol=1e-5)
        # trained prompts attend to different feature tokens
        assert len({int(j) for j in cs.argmax(axis=1)}) > 1 or \
               len({int(j) for j in ds.argmax(axis=1)}) > 1

    def test_unknown_sample_exits_1(self, workdir, tmp_path, capsys):
        code = main(["heatmap", "--checkpoint", str(workdir / "run/checkpoint.ckpt"),
                     "--manifest", str(workdir / "data/manifest.json"),
                     "--sample-id", "ghost", "--class-id", "class_0",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_ERROR
        assert "'ghost' not in manifest" in capsys.readouterr().err

    def test_unknown_class_exits_1(self, workdir, tmp_path, capsys):
        code = main(["heatmap", "--checkpoint", str(workdir / "run/checkpoint.ckpt"),
                     "--manifest", str(workdir / "data/manifest.json"),
                     "--sample-id", "class_0_000", "--class-id", "bird",
                     "--config", str(workdir / "cfg.json"),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_ERROR
        assert "error: unknown class: 'bird'" in capsys.readouterr().err


class TestGenDescriptions:
    def test_offline_renders_system_prompt(self, tmp_path):
        out = tmp_path / "d"
        code = main(["gen-descriptions", "--classes", "cat", "--out", str(out)])
        assert code == EXIT_OK
        text = (out / "cat.prompt.txt").read_text()
        assert "Generate 4 descriptions about different key appearance features" in text
        assert text.endswith("Input: cat\n")

    def test_template_writes_valid_description_file(self, tmp_path):
        out = tmp_path / "d"
        template = ("printf '%s' '{\"class_name\": \"{class}\", "
                    "\"description\": [\"a\", \"b\", \"c\", \"d\"]}'")
        code = main(["gen-descriptions", "--classes", "cat,dog",
                     "--template", template, "--out", str(out)])
        assert code == EXIT_OK
        assert parse_descriptions(out / "cat.json") == ("cat", ["a", "b", "c", "d"])
        index = json.loads((out / "descriptions.json").read_text())
        assert index == {"cat": "cat.json", "dog": "dog.json"}

    def test_template_class_name_is_rewritten_to_the_requested_class(self, tmp_path):
        out = tmp_path / "d"
        template = ("printf '%s' '{\"class_name\": \"kitty\", "
                    "\"description\": [\"a\", \"b\", \"c\", \"d\"]}'")
        code = main(["gen-descriptions", "--classes", "cat",
                     "--template", template, "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "cat.json").read_text() == (
            '{\n  "class_name": "cat",\n  "description": [\n    "a",\n    "b",\n'
            '    "c",\n    "d"\n  ]\n}\n')

    def test_malformed_output_exits_3(self, tmp_path, capsys):
        out = tmp_path / "d"
        code = main(["gen-descriptions", "--classes", "cat",
                     "--template", "echo not json", "--out", str(out)])
        assert code == EXIT_PARTIAL_FAILURE
        assert "failed" in capsys.readouterr().err
        assert (out / "cat.rejected.txt").exists()
        failures = json.loads((out / "failures.json").read_text())
        assert "cat" in failures

    def test_failing_template_exits_3(self, tmp_path):
        out = tmp_path / "d"
        code = main(["gen-descriptions", "--classes", "cat",
                     "--template", "false", "--out", str(out)])
        assert code == EXIT_PARTIAL_FAILURE

    def test_partial_failure_keeps_successes(self, tmp_path):
        out = tmp_path / "d"
        template = ("sh -c 'if [ \"{class}\" = cat ]; then printf '\\''%s'\\'' "
                    "'\\''{\"description\": [\"a\", \"b\", \"c\", \"d\"]}'\\''; "
                    "else echo broken; fi'")
        code = main(["gen-descriptions", "--classes", "cat,dog",
                     "--template", template, "--out", str(out)])
        assert code == EXIT_PARTIAL_FAILURE
        assert parse_descriptions(out / "cat.json") == ("cat", ["a", "b", "c", "d"])
        assert json.loads((out / "descriptions.json").read_text()) == \
               {"cat": "cat.json"}


class TestSynth:
    def test_writes_loadable_dataset(self, tmp_path):
        out = tmp_path / "data"
        code = main(["synth", "--out", str(out), "--num-classes", "2",
                     "--per-class", "4", "--tokens", "3", "--dim", "8"])
        assert code == EXIT_OK
        manifest = load_manifest(out / "manifest.json")
        assert manifest.classes == ["class_0", "class_1"]
        assert len(manifest.samples) == 8

    @pytest.mark.parametrize("separation", ["nan", "inf"])
    def test_rejects_non_finite_separation(self, tmp_path, capsys, separation):
        out = tmp_path / "data"
        assert main(["synth", "--out", str(out), "--separation", separation]) == EXIT_ERROR
        assert "error: separation must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, message", [
        ("--shots", "shots must be >= 0"),
        ("--seed", "seed must be a non-negative integer"),
    ], ids=["shots", "seed"])
    def test_rejects_negative_shots_and_seed_before_writing(self, tmp_path, capsys,
                                                             flag, message):
        out = tmp_path / "data"
        assert main(["synth", "--out", str(out), flag, "-1"]) == EXIT_ERROR
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "uotalign.cli", "--help"],
                              capture_output=True)
        assert proc.returncode == 0
        assert b"gen-descriptions" in proc.stdout

    _SOLVE = ["solve", "--cost", "c.csv", "--out", "o"]
    _EVAL = ["eval", "--manifest", "m", "--checkpoint", "c", "--out", "o"]
    _HEATMAP = ["heatmap", "--checkpoint", "c", "--manifest", "m", "--sample-id", "s",
                "--class-id", "k", "--out", "o"]
    _GEN = ["gen-descriptions", "--classes", "cat", "--out", "o"]

    @pytest.mark.parametrize("argv, flag", [
        (_SOLVE, "--seed"), (_SOLVE, "--config"), (_EVAL, "--seed"),
        (_HEATMAP, "--seed"), (_GEN, "--seed"), (_GEN, "--config"),
        (["compare", "--out", "o"], "--config"), (["synth", "--out", "o"], "--config"),
    ], ids=lambda x: x if isinstance(x, str) else x[0])
    def test_no_seed_or_config_where_unread(self, argv, flag):
        build_parser().parse_args(argv)
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + [flag, "1"])

    def test_solve_rejects_seed(self, tmp_path, capsys):
        write_csv(tmp_path / "c.csv", np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert main(["solve", "--cost", str(tmp_path / "c.csv"),
                     "--out", str(tmp_path / "out"), "--seed", "1"]) == EXIT_ERROR
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (_SOLVE + ["--lam", "abc"], "argument --lam: invalid float value: 'abc'"),
        (_SOLVE + ["--rho1", "abc"], "argument --rho1: invalid float value: 'abc'"),
        (["compare", "--out", "o", "--rho2", "abc"],
         "argument --rho2: invalid float value: 'abc'"),
        (["train"], "the following arguments are required: --manifest, --out"),
    ], ids=["lam", "rho1", "compare_rho2", "missing_flags"])
    def test_usage_errors_exit_1(self, tmp_path, capsys, argv, message):
        # 2 is kept for a capped solve
        assert main(argv) == EXIT_ERROR
        assert message in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["solve", "--help"]) == EXIT_OK
        assert "--rho1" in capsys.readouterr().out

    @pytest.mark.parametrize("text", ["inf", "Infinity", " INF "])
    def test_rho_flags_read_infinity(self, text):
        args = build_parser().parse_args(self._SOLVE + ["--rho1", text, "--rho2", text])
        assert args.rho1 == args.rho2 == float(text)
