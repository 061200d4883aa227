"""Training loop, Adam, variants, ablation harness and checkpoints."""

import json
import math

import numpy as np
import pytest

import uotalign.trainer as trainer_mod
from conftest import count_trainable
from oracle import finite_diff_grad
from uotalign.classifier import (
    ClassifierConfig,
    ce_loss,
    cost_matrix,
    forward,
    likelihood,
    prompt_marginal,
)
from uotalign.features import (
    DatasetManifest,
    FeatureSet,
    SampleRecord,
    augment,
    load_split,
    synth_dataset,
)
from uotalign.prompts import (
    FrozenEncoder,
    attention_forward,
    build_prompt_bank,
    encode_classes,
    synth_description_texts,
)
from uotalign.transport import (
    INF,
    NumericalBlowupError,
    SolverConfig,
    TransportPlan,
    TransportProblem,
    solve_uot,
)
from uotalign.trainer import (
    CKP1_MAGIC,
    VARIANTS,
    TrainConfig,
    TrainState,
    _trainable_arrays,
    adam_update,
    apply_variant,
    batch_loss_and_grads,
    evaluate,
    init_state,
    load_checkpoint,
    run_ablation,
    save_checkpoint,
    train,
    train_step,
)

BANK_KW = dict(token_dim=16, context_length=4, num_class_prompts=2)


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    return synth_dataset(root / "d", num_classes=3, per_class=8, tokens=6,
                         dim=16, separation=10.0, seed=3)


@pytest.fixture(scope="module")
def trained(manifest):
    """One converged run shared by the evaluate/checkpoint tests."""
    state = train(manifest, TrainConfig(epochs=25, seed=1),
                  ClassifierConfig(), **BANK_KW)
    return state


def fresh_bank(manifest, variant, seed=1):
    _, bank_kw = apply_variant(variant, ClassifierConfig())
    descs = synth_description_texts(manifest.classes, seed=seed, count=2)
    return build_prompt_bank(manifest.classes, descs, num_shared_prompts=2,
                             num_class_prompts=2, context_length=4,
                             token_dim=16, seed=seed, **bank_kw)


def reference_probs(samples, bank, encoder, ccfg, classes, solver=None):
    """Likelihood rows built one transport problem at a time.

    Encodes the prompts and solves each (sample, class, path) problem
    alone with solve_uot, independently of the batched forward pass.
    """
    rows = []
    for fs in samples:
        F, w = fs.features, fs.weights
        d = []
        for c in classes:
            ci = bank.classes.index(c)
            word = bank.class_words[ci]
            g_ds = np.array([encoder.encode(np.vstack([t, word]))
                             for t in bank.shared_tokens])
            cls_toks = [np.vstack([t, word]) for t in bank.class_tokens[ci]]
            if bank.use_attention:
                cls_toks = [attention_forward(t, bank.attention) for t in cls_toks]
            g_cs = np.array([encoder.encode(t) for t in cls_toks])
            total = 0.0
            for G, gamma in ((g_cs, ccfg.gamma_cs), (g_ds, ccfg.gamma_ds)):
                if gamma == 0:
                    continue
                C = cost_matrix(F, G)
                plan = solve_uot(TransportProblem(
                    cost=C, row_marginal=prompt_marginal(len(G)), col_marginal=w,
                    lam=ccfg.lam, rho1=ccfg.rho1, rho2=ccfg.rho2), solver)
                total += gamma * float(np.sum(plan.coupling * C))
            d.append(total)
        rows.append(likelihood(np.array(d), ccfg.tau))
    return np.vstack(rows)


def one_hot(samples, classes):
    Y = np.zeros((len(samples), len(classes)))
    for s, fs in enumerate(samples):
        Y[s, classes.index(fs.label)] = 1.0
    return Y


class TestTrainConfig:
    def test_defaults_follow_training_recipe(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 2e-3
        assert cfg.batch_size == 32
        assert cfg.epochs == 50
        assert cfg.shots == 4
        assert cfg.variant == "full"
        assert cfg.augmentation == (0.0, 0.0)

    def test_zero_epochs_allowed(self):
        assert TrainConfig(epochs=0).epochs == 0

    @pytest.mark.parametrize("kw", [
        {"learning_rate": 0.0},
        {"learning_rate": -1e-3},
        {"batch_size": 0},
        {"epochs": -1},
        {"shots": 0},
        {"variant": "half"},
        {"augmentation": (0.1,)},
        {"augmentation": (-0.1, 0.0)},
        {"augmentation": (0.0, 1.0)},
    ])
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)


class TestApplyVariant:
    def test_full_keeps_config(self):
        base = ClassifierConfig()
        ccfg, kw = apply_variant("full", base)
        assert ccfg == base
        assert kw == {"gpt_init": True, "use_attention": True,
                      "trainable": ("shared_tokens", "attention")}

    def test_no_csc_drops_class_path(self):
        ccfg, kw = apply_variant("no_csc", ClassifierConfig())
        assert ccfg.gamma_cs == 0.0 and ccfg.gamma_ds > 0
        assert kw["trainable"] == ("shared_tokens",)

    def test_no_sc_drops_shared_path(self):
        ccfg, kw = apply_variant("no_sc", ClassifierConfig())
        assert ccfg.gamma_ds == 0.0 and ccfg.gamma_cs > 0
        assert kw["trainable"] == ("attention",)

    def test_no_gpt_init_randomizes_tokens_only(self):
        base = ClassifierConfig()
        ccfg, kw = apply_variant("no_gpt_init", base)
        assert ccfg == base
        assert kw["gpt_init"] is False and kw["use_attention"] is True

    def test_no_uot_pins_marginals(self):
        ccfg, kw = apply_variant("no_uot", ClassifierConfig())
        assert ccfg == ClassifierConfig(rho1=INF, rho2=INF)
        assert kw == {"gpt_init": True, "use_attention": True,
                      "trainable": ("shared_tokens", "attention")}

    def test_no_self_attention_trains_tokens_directly(self):
        ccfg, kw = apply_variant("no_self_attention", ClassifierConfig())
        assert ccfg == ClassifierConfig()
        assert kw["use_attention"] is False
        assert kw["trainable"] == ("shared_tokens", "class_tokens")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant"):
            apply_variant("none", ClassifierConfig())


class TestAdamUpdate:
    def test_first_step_closed_form(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((3, 4))
        p = rng.standard_normal((3, 4))
        params = {"p": p.copy()}
        m = {"p": np.zeros_like(p)}
        v = {"p": np.zeros_like(p)}
        adam_update(params, {"p": g}, m, v, learning_rate=0.01, step=1)
        # bias correction makes m_hat = g and v_hat = g*g on step one
        expected = p - 0.01 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(params["p"], expected, rtol=1e-12)

    def test_zero_gradient_is_noop(self):
        p = np.ones((2, 2))
        params = {"p": p.copy()}
        m = {"p": np.zeros_like(p)}
        v = {"p": np.zeros_like(p)}
        adam_update(params, {"p": np.zeros_like(p)}, m, v, 0.5, step=1)
        np.testing.assert_array_equal(params["p"], p)
        assert not m["p"].any() and not v["p"].any()

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(7)
        p_ref = rng.standard_normal(5)
        params = {"p": p_ref.copy()}
        m = {"p": np.zeros(5)}
        v = {"p": np.zeros(5)}
        m_ref = np.zeros(5)
        v_ref = np.zeros(5)
        lr = 0.02
        for step in range(1, 11):
            g = rng.standard_normal(5)
            adam_update(params, {"p": g}, m, v, lr, step)
            m_ref = 0.9 * m_ref + 0.1 * g
            v_ref = 0.999 * v_ref + 0.001 * g * g
            p_ref -= lr * (m_ref / (1 - 0.9 ** step)) / (
                np.sqrt(v_ref / (1 - 0.999 ** step)) + 1e-8)
        np.testing.assert_allclose(params["p"], p_ref, rtol=1e-12)

    def test_updates_in_place(self):
        p = np.ones(3)
        params = {"p": p}
        adam_update(params, {"p": np.ones(3)}, {"p": np.zeros(3)},
                    {"p": np.zeros(3)}, 0.1, step=1)
        assert params["p"] is p
        assert not np.array_equal(p, np.ones(3))

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError, match="step"):
            adam_update({}, {}, {}, {}, 0.1, step=0)


class TestBatchLossAndGrads:
    def test_empty_batch_rejected(self, gradcheck_instance):
        bank, encoder, _, ccfg, _ = gradcheck_instance
        with pytest.raises(ValueError, match="empty batch"):
            batch_loss_and_grads([], bank, ccfg, encoder)

    def test_unknown_label_rejected(self, gradcheck_instance):
        bank, encoder, batch, ccfg, _ = gradcheck_instance
        import dataclasses
        bad = dataclasses.replace(batch[0], label="mule")
        with pytest.raises(ValueError, match="unknown class"):
            batch_loss_and_grads([bad], bank, ccfg, encoder)

    def test_matches_per_problem_reference(self, gradcheck_instance):
        """The batched forward equals one-at-a-time solves bitwise."""
        bank, encoder, batch, ccfg, solver = gradcheck_instance
        loss, _, probs = batch_loss_and_grads(batch, bank, ccfg, encoder, solver)
        expected = reference_probs(batch, bank, encoder, ccfg, bank.classes, solver)
        np.testing.assert_array_equal(probs, expected)
        assert loss == ce_loss(expected, one_hot(batch, bank.classes))

    def test_gradients_match_finite_differences(self, gradcheck_instance):
        """Frozen-coupling analytic gradients vs re-solving FD, all groups."""
        bank, encoder, batch, ccfg, solver = gradcheck_instance
        _, grads, _ = batch_loss_and_grads(batch, bank, ccfg, encoder, solver)
        params = _trainable_arrays(bank)
        assert set(grads) == {"shared_tokens", "attention.w_query",
                              "attention.w_key", "attention.w_value"}
        for key in sorted(grads):
            p = params[key]
            orig = p.copy()

            def full_loss(x):
                p[...] = x.reshape(p.shape)
                try:
                    val, _, _ = batch_loss_and_grads(batch, bank, ccfg,
                                                     encoder, solver)
                finally:
                    p[...] = orig
                return val

            fd = finite_diff_grad(full_loss, orig.ravel(), step=1e-5)
            an = grads[key].ravel()
            rel = np.linalg.norm(an - fd) / np.linalg.norm(fd)
            assert rel < 1e-5, f"{key}: relative gradient error {rel:.2e}"

    @pytest.mark.parametrize("variant", ["full", "no_self_attention", "no_uot"])
    def test_matches_frozen_coupling_loss(self, variant):
        """The grads are those of the loss with every W* held fixed.

        Default classifier settings on samples with no class structure,
        where re-solving W* moves the loss well away from this gradient.
        """
        ccfg, bank_kw = apply_variant(variant, ClassifierConfig())
        classes = ["a", "b", "c"]
        bank = build_prompt_bank(classes, synth_description_texts(classes, count=2),
                                 num_shared_prompts=2, num_class_prompts=2,
                                 context_length=3, token_dim=8, seed=4, **bank_kw)
        encoder = FrozenEncoder.seeded(8, 8, 5)
        rng = np.random.default_rng(6)
        batch = []
        for s in range(5):
            F = rng.standard_normal((6, 8))
            F /= np.linalg.norm(F, axis=1, keepdims=True)
            batch.append(FeatureSet(features=F, weights=np.full(6, 1 / 6),
                                    sample_id=f"s{s}", label=classes[s % 3]))
        _, grads, _ = batch_loss_and_grads(batch, bank, ccfg, encoder)
        fw = forward(batch, bank, encoder, ccfg)
        Y = one_hot(batch, classes)

        def frozen_loss():
            d = np.zeros((len(batch), len(classes)))
            for k, c in enumerate(classes):
                enc = encode_classes(bank, [c], encoder)
                for tag, gamma in fw.paths:
                    G = enc.g_cs[0] if tag == "cs" else enc.g_ds[0]
                    for s in range(len(batch)):
                        W = fw.plans[(s, k, tag)].coupling
                        F = batch[s].features
                        d[s, k] += gamma * float(np.sum(W * cost_matrix(F, G)))
            return ce_loss(likelihood(d, ccfg.tau), Y)

        params = _trainable_arrays(bank)
        assert set(grads) == set(params)
        for key in sorted(grads):
            p = params[key]
            orig = p.copy()

            def loss_at(x):
                p[...] = x.reshape(p.shape)
                try:
                    return frozen_loss()
                finally:
                    p[...] = orig

            fd = finite_diff_grad(loss_at, orig.ravel(), step=1e-5)
            an = grads[key].ravel()
            rel = np.linalg.norm(an - fd) / np.linalg.norm(fd)
            assert rel < 1e-5, f"{variant} {key}: relative gradient error {rel:.2e}"

    def test_one_backward_per_class_and_path(self, gradcheck_instance, monkeypatch):
        """The backward layers run once per path, not per class, sample or prompt."""
        bank, encoder, batch, ccfg, solver = gradcheck_instance
        assert bank.trainable == ("shared_tokens", "attention") and bank.use_attention
        calls = {"cost": 0, "encode": 0, "attention": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(trainer_mod, "cost_matrix_backward",
                            counted("cost", trainer_mod.cost_matrix_backward))
        monkeypatch.setattr(trainer_mod, "attention_backward",
                            counted("attention", trainer_mod.attention_backward))
        monkeypatch.setattr(FrozenEncoder, "encode_backward",
                            counted("encode", FrozenEncoder.encode_backward))
        batch_loss_and_grads(batch * 3, bank, ccfg, encoder, solver)
        assert calls == {"cost": 2, "encode": 2, "attention": 1}

    def test_zero_gamma_skips_path(self, gradcheck_instance):
        bank, encoder, batch, ccfg, solver = gradcheck_instance
        import dataclasses
        only_ds = dataclasses.replace(ccfg, gamma_cs=0.0)
        _, grads, _ = batch_loss_and_grads(batch, bank, only_ds, encoder, solver)
        # the class path never runs, so the adapter receives no gradient
        for key in ("attention.w_query", "attention.w_key", "attention.w_value"):
            assert not grads[key].any()
        assert grads["shared_tokens"].any()


class TestTrainStep:
    def setup_state(self, gradcheck_instance):
        bank, encoder, batch, ccfg, solver = gradcheck_instance
        import copy
        state = init_state(copy.deepcopy(bank), encoder)
        return state, batch, ccfg, solver

    def test_updates_every_trainable_group(self, gradcheck_instance):
        state, batch, ccfg, solver = self.setup_state(gradcheck_instance)
        before = {k: p.copy() for k, p in _trainable_arrays(state.bank).items()}
        cfg = TrainConfig(seed=0)
        state, loss = train_step(batch, state, cfg, ccfg, solver)
        assert math.isfinite(loss) and loss > 0
        assert state.step == 1
        for key, p in _trainable_arrays(state.bank).items():
            assert not np.array_equal(p, before[key]), key

    def test_empty_batch_rejected(self, gradcheck_instance):
        state, _, ccfg, solver = self.setup_state(gradcheck_instance)
        with pytest.raises(ValueError, match="empty batch"):
            train_step([], state, TrainConfig(), ccfg, solver)

    def test_divergence_raises_and_preserves_params(self, gradcheck_instance, monkeypatch):
        state, batch, ccfg, solver = self.setup_state(gradcheck_instance)
        before = {k: p.copy() for k, p in _trainable_arrays(state.bank).items()}
        monkeypatch.setattr(trainer_mod, "batch_loss_and_grads",
                            lambda *a, **kw: (math.nan, {}, None))
        with pytest.raises(RuntimeError, match="divergence"):
            train_step(batch, state, TrainConfig(), ccfg, solver)
        for key, p in _trainable_arrays(state.bank).items():
            np.testing.assert_array_equal(p, before[key])
        assert state.step == 0

    def test_solver_failure_names_the_instance(self, gradcheck_instance, monkeypatch):
        state, batch, ccfg, solver = self.setup_state(gradcheck_instance)

        def broken_batch(problems, config=None):
            return [TransportPlan(coupling=np.zeros(p.shape), u=np.zeros(p.shape[0]),
                                  v=np.zeros(p.shape[1]), iterations=0,
                                  converged=False, error="numerical blowup: dual overflow")
                    for p in problems]

        monkeypatch.setattr("uotalign.classifier.solve_uot_batch", broken_batch)
        with pytest.raises(NumericalBlowupError) as err:
            train_step(batch, state, TrainConfig(), ccfg, solver)
        msg = str(err.value)
        assert "sample 's0'" in msg and "class 'a'" in msg and "path" in msg


class TestTrain:
    def test_zero_epochs_returns_initial_state(self, manifest):
        state = train(manifest, TrainConfig(epochs=0, seed=1),
                      ClassifierConfig(), **BANK_KW)
        assert state.history == []
        assert state.step == 0 and state.epoch == 0
        fresh = fresh_bank(manifest, "full")
        np.testing.assert_array_equal(state.bank.shared_tokens, fresh.shared_tokens)
        np.testing.assert_array_equal(state.bank.class_tokens, fresh.class_tokens)

    def test_history_tracks_epochs(self, trained):
        assert len(trained.history) == 25
        assert trained.epoch == 25
        assert trained.step == 25  # 12 shots fit in one batch of 32
        for e, row in enumerate(trained.history, start=1):
            assert row["epoch"] == e
            assert set(row) == {"epoch", "loss", "accuracy"}

    def test_loss_decreases_and_fits_train_set(self, trained):
        assert trained.history[-1]["loss"] < 0.05 * trained.history[0]["loss"]
        assert trained.history[-1]["accuracy"] == 1.0

    def test_generalizes_to_held_out_split(self, manifest, trained):
        metrics = evaluate(load_split(manifest, "test"), trained, ClassifierConfig())
        assert metrics["accuracy"] >= 0.9
        assert metrics["count"] == 6

    def test_deterministic_given_seed(self, manifest, trained):
        again = train(manifest, TrainConfig(epochs=25, seed=1),
                      ClassifierConfig(), **BANK_KW)
        for name in ("shared_tokens", "class_tokens", "class_words"):
            np.testing.assert_array_equal(getattr(again.bank, name),
                                          getattr(trained.bank, name))
        np.testing.assert_array_equal(again.bank.attention.w_query,
                                      trained.bank.attention.w_query)
        assert again.history == trained.history

    def test_frozen_groups_never_move(self, manifest, trained):
        fresh = fresh_bank(manifest, "full")
        encoder = FrozenEncoder.seeded(16, 16, 1)
        np.testing.assert_array_equal(trained.bank.class_tokens, fresh.class_tokens)
        np.testing.assert_array_equal(trained.bank.class_words, fresh.class_words)
        np.testing.assert_array_equal(trained.encoder.projection, encoder.projection)
        np.testing.assert_array_equal(trained.encoder.bias, encoder.bias)

    def test_no_sc_trains_adapter_only(self, manifest):
        state = train(manifest, TrainConfig(epochs=2, seed=1, variant="no_sc"),
                      ClassifierConfig(), **BANK_KW)
        fresh = fresh_bank(manifest, "no_sc")
        np.testing.assert_array_equal(state.bank.shared_tokens, fresh.shared_tokens)
        assert not np.array_equal(state.bank.attention.w_query,
                                  fresh.attention.w_query)

    def test_no_self_attention_trains_class_tokens(self, manifest):
        state = train(manifest,
                      TrainConfig(epochs=2, seed=1, variant="no_self_attention"),
                      ClassifierConfig(), **BANK_KW)
        fresh = fresh_bank(manifest, "no_self_attention")
        assert not np.array_equal(state.bank.class_tokens, fresh.class_tokens)
        assert not np.array_equal(state.bank.shared_tokens, fresh.shared_tokens)
        np.testing.assert_array_equal(state.bank.attention.w_query,
                                      fresh.attention.w_query)

    def test_shots_exceeding_pool_rejected(self, manifest):
        with pytest.raises(ValueError, match="need 10 shots"):
            train(manifest, TrainConfig(shots=10, seed=1),
                  ClassifierConfig(), **BANK_KW)

    def test_empty_train_split_rejected(self, tmp_path):
        manifest = DatasetManifest(
            classes=["a"],
            samples=[SampleRecord("s0", "a", "s0.emb", "test")],
            shots=1, seed=0, root=tmp_path)
        with pytest.raises(ValueError, match="empty split"):
            train(manifest, TrainConfig(shots=1), ClassifierConfig(), **BANK_KW)


class TestEvaluate:
    def test_empty_split_rejected(self, trained):
        with pytest.raises(ValueError, match="empty split"):
            evaluate([], trained, ClassifierConfig())

    def test_label_outside_candidates_rejected(self, manifest, trained):
        samples = load_split(manifest, "test")
        with pytest.raises(ValueError, match="unknown class"):
            evaluate(samples, trained, ClassifierConfig(),
                     classes=["class_0", "class_1"])

    def test_metrics_shape(self, manifest, trained):
        metrics = evaluate(load_split(manifest, "test"), trained,
                           ClassifierConfig())
        assert set(metrics) == {"accuracy", "per_class", "mean_loss", "count"}
        assert set(metrics["per_class"]) == set(manifest.classes)
        assert 0 <= metrics["accuracy"] <= 1
        assert math.isfinite(metrics["mean_loss"])

    def test_matches_per_problem_reference(self, manifest, trained):
        # more samples than one evaluation chunk, a candidate subset, and
        # dropped tokens so that the problems come in several shapes
        classes = ["class_0", "class_2"]
        samples = [augment(fs, 0.0, 0.3, [5, s]) for s, fs in enumerate(
            fs for split in ("train", "val", "test")
            for fs in load_split(manifest, split) if fs.label in classes)]
        assert len(samples) > trainer_mod._EVAL_CHUNK
        assert len({fs.num_tokens for fs in samples}) > 1
        ccfg = ClassifierConfig()
        got = evaluate(samples, trained, ccfg, classes=classes)

        probs = reference_probs(samples, trained.bank, trained.encoder, ccfg, classes)
        Y = one_hot(samples, classes)
        hits = np.argmax(probs, axis=1) == np.argmax(Y, axis=1)
        labels = np.array([fs.label for fs in samples])
        assert got == {
            "accuracy": int(hits.sum()) / len(samples),
            "per_class": {c: int(hits[labels == c].sum()) / int((labels == c).sum())
                          for c in classes},
            "mean_loss": ce_loss(probs, Y),
            "count": len(samples),
        }

    def test_candidate_subset_restricts_scoring(self, manifest, trained):
        subset = [fs for fs in load_split(manifest, "test")
                  if fs.label in ("class_0", "class_1")]
        metrics = evaluate(subset, trained, ClassifierConfig(),
                           classes=["class_0", "class_1"])
        assert set(metrics["per_class"]) == {"class_0", "class_1"}
        assert metrics["count"] == len(subset)
        assert metrics["accuracy"] >= 0.5


@pytest.fixture(scope="module")
def ablation_rows(manifest):
    cfg = TrainConfig(epochs=2, seed=1)
    return run_ablation(manifest, cfg, ClassifierConfig(), **BANK_KW)


class TestRunAblation:
    def test_all_variants_complete(self, ablation_rows):
        rows = ablation_rows
        assert [r["variant"] for r in rows] == list(VARIANTS)
        for r in rows:
            assert "error" not in r, r
            assert set(r) == {"variant", "train_accuracy", "test_accuracy",
                              "test_loss", "final_train_loss"}
            assert math.isfinite(r["test_loss"])

    def test_full_row_matches_direct_train(self, manifest, ablation_rows):
        state = train(manifest, TrainConfig(epochs=2, seed=1),
                      ClassifierConfig(), **BANK_KW)
        assert ablation_rows[0]["final_train_loss"] == state.history[-1]["loss"]
        assert ablation_rows[0]["train_accuracy"] == state.history[-1]["accuracy"]
        # no epoch ran, so there is no train loss or accuracy to report
        for row in run_ablation(manifest, TrainConfig(epochs=0, seed=1),
                                ClassifierConfig(), **BANK_KW):
            assert math.isnan(row["train_accuracy"]), row
            assert math.isnan(row["final_train_loss"]), row
            assert math.isfinite(row["test_loss"]), row

    def test_reads_test_split_once(self, manifest, monkeypatch):
        reads = []

        def counted_load_split(m, split, *args, **kwargs):
            reads.append(split)
            return load_split(m, split, *args, **kwargs)

        monkeypatch.setattr(trainer_mod, "load_split", counted_load_split)
        rows = run_ablation(manifest, TrainConfig(epochs=0, seed=1),
                            ClassifierConfig(), **BANK_KW)
        assert all("error" not in r for r in rows)
        assert reads.count("test") == 1
        assert reads.count("train") == len(VARIANTS)

        def unreadable(m, split, *args, **kwargs):
            if split == "test":
                raise ValueError("corrupt file: test split")
            return load_split(m, split, *args, **kwargs)

        monkeypatch.setattr(trainer_mod, "load_split", unreadable)
        monkeypatch.setattr(trainer_mod, "train", None)  # no variant may train
        with pytest.raises(ValueError, match="corrupt file: test split"):
            run_ablation(manifest, TrainConfig(epochs=0, seed=1),
                         ClassifierConfig(), **BANK_KW)

    def test_variant_failures_are_isolated(self, manifest):
        cfg = TrainConfig(epochs=1, seed=1, shots=99)
        rows = run_ablation(manifest, cfg, ClassifierConfig(), **BANK_KW)
        assert [r["variant"] for r in rows] == list(VARIANTS)
        for r in rows:
            assert "need 99 shots" in r["error"]


class TestCheckpoint:
    def test_roundtrip_is_bitwise(self, trained, tmp_path):
        path = tmp_path / "state.ckpt"
        save_checkpoint(trained, path)
        loaded = load_checkpoint(path)
        assert loaded.step == trained.step
        assert loaded.epoch == trained.epoch
        assert loaded.history == trained.history
        assert loaded.bank.classes == trained.bank.classes
        assert loaded.bank.trainable == trained.bank.trainable
        for name in ("shared_tokens", "class_tokens", "class_words"):
            np.testing.assert_array_equal(getattr(loaded.bank, name),
                                          getattr(trained.bank, name))
        for attr in ("w_query", "w_key", "w_value"):
            np.testing.assert_array_equal(getattr(loaded.bank.attention, attr),
                                          getattr(trained.bank.attention, attr))
        np.testing.assert_array_equal(loaded.encoder.projection,
                                      trained.encoder.projection)
        for key in trained.m:
            np.testing.assert_array_equal(loaded.m[key], trained.m[key])
            np.testing.assert_array_equal(loaded.v[key], trained.v[key])

    def test_serialization_is_deterministic(self, trained, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(trained, p1)
        save_checkpoint(trained, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_state_resumes_training(self, gradcheck_instance, tmp_path):
        bank, encoder, batch, ccfg, solver = gradcheck_instance
        import copy
        state = init_state(copy.deepcopy(bank), encoder)
        state, _ = train_step(batch, state, TrainConfig(seed=0), ccfg, solver)
        path = tmp_path / "mid.ckpt"
        save_checkpoint(state, path)
        resumed = load_checkpoint(path)
        state, l1 = train_step(batch, state, TrainConfig(seed=0), ccfg, solver)
        resumed, l2 = train_step(batch, resumed, TrainConfig(seed=0), ccfg, solver)
        assert l1 == l2
        for key, p in _trainable_arrays(state.bank).items():
            np.testing.assert_array_equal(p, _trainable_arrays(resumed.bank)[key])

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"EMB1" + bytes(16))
        with pytest.raises(ValueError, match="not a checkpoint file"):
            load_checkpoint(path)

    def test_rejects_short_file(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"CK")
        with pytest.raises(ValueError, match="corrupt file"):
            load_checkpoint(path)

    def test_rejects_truncated_header(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(CKP1_MAGIC + np.array([999], dtype="<u4").tobytes() + b"{}")
        with pytest.raises(ValueError, match="corrupt file"):
            load_checkpoint(path)

    def test_rejects_unknown_version(self, trained, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(trained, path)
        raw = bytearray(path.read_bytes())
        hlen = int(np.frombuffer(raw[4:8], dtype="<u4")[0])
        header = json.loads(raw[8:8 + hlen].decode())
        header["version"] = 2
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        out = CKP1_MAGIC + np.array([len(blob)], dtype="<u4").tobytes() + blob \
            + bytes(raw[8 + hlen:])
        path.write_bytes(out)
        with pytest.raises(ValueError, match="unsupported checkpoint version"):
            load_checkpoint(path)

    def test_rejects_payload_size_mismatch(self, trained, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(trained, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="corrupt file"):
            load_checkpoint(path)

    def test_rejects_nonfinite_payload(self, trained, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(trained, path)
        raw = bytearray(path.read_bytes())
        raw[-8:] = np.array([math.nan]).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="invalid payload"):
            load_checkpoint(path)

    @pytest.mark.parametrize("case", ["no_arrays_key", "missing_array",
                                      "shape_not_a_list", "negative_shape"])
    def test_rejects_malformed_header(self, gradcheck_instance, tmp_path, case):
        bank, encoder, _, _, _ = gradcheck_instance
        import copy
        import re
        path = tmp_path / "x.ckpt"
        save_checkpoint(init_state(copy.deepcopy(bank), encoder), path)
        raw = path.read_bytes()
        hlen = int(np.frombuffer(raw[4:8], dtype="<u4")[0])
        header = json.loads(raw[8:8 + hlen].decode())
        payload = raw[8 + hlen:]
        if case == "no_arrays_key":
            del header["arrays"]
        elif case == "missing_array":
            sizes = [8 * int(np.prod(shape)) for _, shape in header["arrays"]]
            i = [name for name, _ in header["arrays"]].index("attention.w_query")
            lo = sum(sizes[:i])
            payload = payload[:lo] + payload[lo + sizes[i]:]
            del header["arrays"][i]
        elif case == "shape_not_a_list":
            header["arrays"][0][1] = "xy"
        else:
            header["arrays"] = [["shared_tokens", [-1, -1]]]
            payload = bytes(8)
        blob = json.dumps(header).encode()
        path.write_bytes(CKP1_MAGIC + np.array([len(blob)], dtype="<u4").tobytes()
                         + blob + payload)
        with pytest.raises(ValueError, match="corrupt file: " + re.escape(str(path))):
            load_checkpoint(path)

    def test_rejects_moment_key_mismatch(self, gradcheck_instance, tmp_path):
        bank, encoder, _, _, _ = gradcheck_instance
        import copy
        state = init_state(copy.deepcopy(bank), encoder)
        state.m = {}
        state.v = {}
        path = tmp_path / "x.ckpt"
        save_checkpoint(state, path)
        with pytest.raises(ValueError, match="moment keys"):
            load_checkpoint(path)


class TestTrainableCount:
    def test_counts_match_variant_groups(self, manifest):
        full = fresh_bank(manifest, "full")
        no_sa = fresh_bank(manifest, "no_self_attention")
        # shared tokens 2*4*16, attention 3*16*16, class tokens 3*2*4*16
        assert count_trainable(full) == 2 * 4 * 16 + 3 * 16 * 16
        assert count_trainable(no_sa) == 2 * 4 * 16 + 3 * 2 * 4 * 16
