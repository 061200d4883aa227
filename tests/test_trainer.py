"""Training loop, Adam, variants, ablation harness and checkpoints."""

import json
import math

import numpy as np
import pytest

import uotalign.prompts as prompts_mod
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
    load_split,
    synth_dataset,
)
from uotalign.prompts import (
    PARAM_GROUPS,
    FrozenEncoder,
    attention_forward,
    build_prompt_bank,
    encode_classes,
    synth_description_texts,
    tokenize,
)
from uotalign.transport import (
    INF,
    NumericalBlowupError,
    TransportPlan,
    TransportProblem,
    solve_uot,
    solve_uot_batch,
)
from uotalign.trainer import (
    CKP1_MAGIC,
    VARIANTS,
    TrainConfig,
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


def reference_probs(samples, bank, encoder, ccfg, classes):
    """Likelihood rows built one transport problem at a time.

    Encodes the prompts and solves each (sample, class, path) problem
    alone with solve_uot, independently of the batched forward pass.
    """
    rows = []
    for fs in samples:
        F = fs.features
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
                    cost=C, row_marginal=prompt_marginal(len(G)),
                    col_marginal=prompt_marginal(fs.num_tokens),
                    lam=ccfg.lam, rho1=ccfg.rho1, rho2=ccfg.rho2), ccfg.solver)
                total += gamma * float(np.sum(plan.coupling * C))
            d.append(total)
        rows.append(likelihood(np.array(d), ccfg.tau))
    return np.vstack(rows)


def first_tokens(fs, n):
    """The sample cut to its first n tokens."""
    return FeatureSet(fs.features[:n], sample_id=fs.sample_id, label=fs.label)


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
        {"learning_rate": math.inf},
        {"learning_rate": math.nan},
        {"augmentation": (math.inf, 0.0)},
        {"augmentation": (math.nan, 0.0)},  # a NaN jitter used to turn jitter off
    ])
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)


# variant -> (its classifier config, its bank's use_attention and trainable)
VARIANT_EFFECTS = {
    "full": (ClassifierConfig(tau=0.05), True, ("shared_tokens", "attention")),
    "no_csc": (ClassifierConfig(tau=0.05, gamma_cs=0.0), True, ("shared_tokens",)),
    "no_sc": (ClassifierConfig(tau=0.05, gamma_ds=0.0), True, ("attention",)),
    "no_gpt_init": (ClassifierConfig(tau=0.05), True, ("shared_tokens", "attention")),
    "no_uot": (ClassifierConfig(tau=0.05, rho1=INF, rho2=INF), True,
               ("shared_tokens", "attention")),
    "no_self_attention": (ClassifierConfig(tau=0.05), False,
                          ("shared_tokens", "class_tokens")),
}


class TestApplyVariant:
    @pytest.mark.parametrize("variant", ["full", "no_uot"])
    def test_bank_keeps_its_defaults(self, variant):
        assert apply_variant(variant, ClassifierConfig())[1] == {}

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_classifier_fields(self, variant):
        ccfg, _ = apply_variant(variant, ClassifierConfig(tau=0.05))
        assert ccfg == VARIANT_EFFECTS[variant][0]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_bank_attention_and_trainable_groups(self, manifest, variant):
        bank = fresh_bank(manifest, variant)
        assert (bank.use_attention, bank.trainable) == VARIANT_EFFECTS[variant][1:]

    def test_no_gpt_init_randomizes_class_tokens_only(self, manifest):
        full, random = fresh_bank(manifest, "full"), fresh_bank(manifest, "no_gpt_init")
        descs = synth_description_texts(manifest.classes, seed=1, count=2)
        described = np.array([[tokenize(t, 16, 4, 1) for t in descs[c]]
                              for c in manifest.classes])
        assert np.array_equal(full.class_tokens, described)
        assert not np.isclose(random.class_tokens, described).any()
        np.testing.assert_allclose(np.linalg.norm(random.class_tokens, axis=3), 1.0)
        for name, a in full.arrays().items():
            if name != "class_tokens":
                assert np.array_equal(random.arrays()[name], a), name

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
        bank, encoder, _, ccfg = gradcheck_instance
        with pytest.raises(ValueError, match="empty batch"):
            batch_loss_and_grads([], bank, ccfg, encoder)

    def test_unknown_label_rejected(self, gradcheck_instance):
        bank, encoder, batch, ccfg = gradcheck_instance
        import dataclasses
        bad = dataclasses.replace(batch[0], label="mule")
        with pytest.raises(ValueError, match="unknown class"):
            batch_loss_and_grads([bad], bank, ccfg, encoder)

    def test_matches_per_problem_reference(self, gradcheck_instance):
        """The batched forward equals one-at-a-time solves bitwise."""
        bank, encoder, batch, ccfg = gradcheck_instance
        loss, _, probs = batch_loss_and_grads(batch, bank, ccfg, encoder)
        expected = reference_probs(batch, bank, encoder, ccfg, bank.classes)
        np.testing.assert_array_equal(probs, expected)
        assert loss == ce_loss(expected, one_hot(batch, bank.classes))

    def test_gradients_match_finite_differences(self, gradcheck_instance):
        """Frozen-coupling analytic gradients vs re-solving FD, all groups."""
        bank, encoder, batch, ccfg = gradcheck_instance
        _, grads, _ = batch_loss_and_grads(batch, bank, ccfg, encoder)
        params = bank.trainable_arrays()
        assert set(grads) == {"shared_tokens", "attention.w_query",
                              "attention.w_key", "attention.w_value"}
        for key in sorted(grads):
            p = params[key]
            orig = p.copy()

            def full_loss(x):
                p[...] = x.reshape(p.shape)
                try:
                    val, _, _ = batch_loss_and_grads(batch, bank, ccfg, encoder)
                finally:
                    p[...] = orig
                return val

            fd = finite_diff_grad(full_loss, orig.ravel(), step=1e-5)
            an = grads[key].ravel()
            rel = np.linalg.norm(an - fd) / np.linalg.norm(fd)
            assert rel < 1e-5, f"{key}: relative gradient error {rel:.2e}"

    # interleaved token counts split the batch over solve calls, so a
    # sample's coefficients meet another sample's couplings if misplaced
    @pytest.mark.parametrize("counts", [(6, 6, 6, 6, 6), (4, 6, 4, 6, 5)],
                             ids=["uniform", "interleaved"])
    @pytest.mark.parametrize("variant", ["full", "no_self_attention", "no_uot"])
    def test_matches_frozen_coupling_loss(self, variant, counts):
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
        for s, M in enumerate(counts):
            F = rng.standard_normal((M, 8))
            F /= np.linalg.norm(F, axis=1, keepdims=True)
            batch.append(FeatureSet(F, sample_id=f"s{s}", label=classes[s % 3]))
        _, grads, _ = batch_loss_and_grads(batch, bank, ccfg, encoder)
        fw = forward(batch, bank, encoder, ccfg)
        Y = one_hot(batch, classes)
        offsets = np.cumsum([0, *counts])

        def frozen_loss():
            d = np.zeros((len(batch), len(classes)))
            enc = encode_classes(bank, encoder)
            for k in range(len(classes)):
                for tag, gamma in fw.paths:
                    G = enc[tag][k]
                    for s in range(len(batch)):
                        W = fw.couplings[tag][k, :, offsets[s]:offsets[s + 1]]
                        F = batch[s].features
                        d[s, k] += gamma * float(np.sum(W * cost_matrix(F, G)))
            return ce_loss(likelihood(d, ccfg.tau), Y)

        params = bank.trainable_arrays()
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
        bank, encoder, batch, ccfg = gradcheck_instance
        assert bank.trainable == ("shared_tokens", "attention") and bank.use_attention
        calls = {"cost": 0, "encode": 0, "attention": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(trainer_mod, "cost_matrix_backward",
                            counted("cost", trainer_mod.cost_matrix_backward))
        monkeypatch.setattr(prompts_mod, "attention_backward",
                            counted("attention", prompts_mod.attention_backward))
        monkeypatch.setattr(FrozenEncoder, "encode_backward",
                            counted("encode", FrozenEncoder.encode_backward))
        batch_loss_and_grads(batch * 3, bank, ccfg, encoder)
        assert calls == {"cost": 2, "encode": 2, "attention": 1}

    def test_zero_gamma_skips_path(self, gradcheck_instance):
        bank, encoder, batch, ccfg = gradcheck_instance
        import dataclasses
        only_ds = dataclasses.replace(ccfg, gamma_cs=0.0)
        _, grads, _ = batch_loss_and_grads(batch, bank, only_ds, encoder)
        # the class path never runs, so the adapter receives no gradient
        for key in ("attention.w_query", "attention.w_key", "attention.w_value"):
            assert not grads[key].any()
        assert grads["shared_tokens"].any()

    def test_frozen_path_still_routes_trainable_gradient(self, gradcheck_instance):
        """Both paths run, and only the trainable group's gradient returns."""
        bank, encoder, batch, ccfg = gradcheck_instance
        import copy
        import dataclasses
        half = dataclasses.replace(ccfg, gamma_cs=0.5, gamma_ds=0.5)
        shared_only = copy.deepcopy(bank)
        shared_only.trainable = ("shared_tokens",)
        _, full, _ = batch_loss_and_grads(batch, bank, half, encoder)
        _, grads, _ = batch_loss_and_grads(batch, shared_only, half, encoder)
        assert set(grads) == {"shared_tokens"}
        np.testing.assert_array_equal(grads["shared_tokens"], full["shared_tokens"])

    def test_trainable_group_on_inactive_path_gets_zeros(self, gradcheck_instance):
        bank, encoder, batch, ccfg = gradcheck_instance
        import dataclasses
        only_cs = dataclasses.replace(ccfg, gamma_ds=0.0)
        _, grads, _ = batch_loss_and_grads(batch, bank, only_cs, encoder)
        assert "shared_tokens" in bank.trainable
        assert grads["shared_tokens"].shape == bank.shared_tokens.shape
        assert not grads["shared_tokens"].any()
        assert grads["attention.w_query"].any()


class TestBankArrays:
    def test_every_param_group_owns_an_array(self, gradcheck_instance):
        bank = gradcheck_instance[0]
        groups = {name.split(".")[0] for name in bank.arrays()}
        assert set(PARAM_GROUPS) <= groups

    def test_checkpoint_lists_bank_then_encoder_then_moments(self, gradcheck_instance,
                                                             tmp_path):
        bank, encoder, _, _ = gradcheck_instance
        import copy
        state = init_state(copy.deepcopy(bank), encoder)
        path = tmp_path / "x.ckpt"
        save_checkpoint(state, path)
        raw = path.read_bytes()
        hlen = int(np.frombuffer(raw[4:8], dtype="<u4")[0])
        names = [name for name, _ in json.loads(raw[8:8 + hlen].decode())["arrays"]]
        moments = sorted(bank.trainable_arrays())
        assert names == [*bank.arrays(),
                         "encoder.projection", "encoder.bias",
                         *(f"m.{k}" for k in moments), *(f"v.{k}" for k in moments)]


class TestTrainStep:
    def setup_state(self, gradcheck_instance):
        bank, encoder, batch, ccfg = gradcheck_instance
        import copy
        state = init_state(copy.deepcopy(bank), encoder)
        return state, batch, ccfg

    def test_updates_every_trainable_group(self, gradcheck_instance):
        state, batch, ccfg = self.setup_state(gradcheck_instance)
        before = {k: p.copy() for k, p in state.bank.trainable_arrays().items()}
        cfg = TrainConfig(seed=0)
        state, loss = train_step(batch, state, cfg, ccfg)
        assert math.isfinite(loss) and loss > 0
        assert state.step == 1
        for key, p in state.bank.trainable_arrays().items():
            assert not np.array_equal(p, before[key]), key

    def test_empty_batch_rejected(self, gradcheck_instance):
        state, _, ccfg = self.setup_state(gradcheck_instance)
        with pytest.raises(ValueError, match="empty batch"):
            train_step([], state, TrainConfig(), ccfg)

    def test_divergence_raises_and_preserves_params(self, gradcheck_instance, monkeypatch):
        state, batch, ccfg = self.setup_state(gradcheck_instance)
        before = {k: p.copy() for k, p in state.bank.trainable_arrays().items()}
        monkeypatch.setattr(trainer_mod, "batch_loss_and_grads",
                            lambda *a, **kw: (math.nan, {}, None))
        with pytest.raises(RuntimeError, match="divergence"):
            train_step(batch, state, TrainConfig(), ccfg)
        for key, p in state.bank.trainable_arrays().items():
            np.testing.assert_array_equal(p, before[key])
        assert state.step == 0

    def test_solver_failure_names_the_instance(self, gradcheck_instance, monkeypatch):
        state, batch, ccfg = self.setup_state(gradcheck_instance)

        def broken_batch(problems, config=None):
            return [TransportPlan(coupling=np.zeros(p.shape), u=np.zeros(p.shape[0]),
                                  v=np.zeros(p.shape[1]), iterations=0,
                                  converged=False, error="numerical blowup: dual overflow")
                    for p in problems]

        monkeypatch.setattr("uotalign.classifier.solve_uot_batch", broken_batch)
        with pytest.raises(NumericalBlowupError) as err:
            train_step(batch, state, TrainConfig(), ccfg)
        msg = str(err.value)
        assert "sample 's0'" in msg and "class 'a'" in msg and "path" in msg

    @pytest.mark.parametrize("variant", ["full", "no_csc", "no_sc"])
    def test_dropout_makes_one_solve_per_active_path(self, manifest, variant, monkeypatch):
        # every sample has 6 tokens and keeps 4 of them; the class path has
        # 3 prompts and the shared path 2, so the two paths' shapes differ
        ccfg, bank_kw = apply_variant(variant, ClassifierConfig())
        classes = manifest.classes
        bank = build_prompt_bank(classes, synth_description_texts(classes, seed=1, count=3),
                                 num_shared_prompts=2, num_class_prompts=3,
                                 context_length=4, token_dim=16, seed=1, **bank_kw)
        state = init_state(bank, FrozenEncoder.seeded(16, 16, 1))
        batch = load_split(manifest, "train")
        assert {fs.num_tokens for fs in batch} == {6}
        shapes = []

        def counted_batch(problems, config=None):
            shapes.append({p.shape for p in problems})
            return solve_uot_batch(problems, config)

        monkeypatch.setattr("uotalign.classifier.solve_uot_batch", counted_batch)
        train_step(batch, state, TrainConfig(seed=2, augmentation=(0.05, 0.3)), ccfg)
        assert shapes == {"full": [{(3, 4)}, {(2, 4)}], "no_csc": [{(2, 4)}],
                          "no_sc": [{(3, 4)}]}[variant]


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

    def test_misspelt_bank_size_rejected(self, manifest):
        with pytest.raises(TypeError, match="num_shared_prompt"):
            train(manifest, TrainConfig(epochs=0, seed=1), ClassifierConfig(),
                  num_shared_prompt=2)


class TestEvaluate:
    def test_empty_split_rejected(self, trained):
        with pytest.raises(ValueError, match="empty split"):
            evaluate([], trained, ClassifierConfig())

    def test_label_outside_candidates_rejected(self, manifest, trained):
        samples = load_split(manifest, "test")
        stray = samples[1]
        samples[1] = FeatureSet(stray.features, sample_id=stray.sample_id, label="class_9")
        import re
        with pytest.raises(ValueError, match=re.escape(
                f"unknown class: sample {stray.sample_id!r} has label 'class_9'")):
            evaluate(samples, trained, ClassifierConfig())

    def test_metrics_shape(self, manifest, trained):
        metrics = evaluate(load_split(manifest, "test"), trained,
                           ClassifierConfig())
        assert set(metrics) == {"accuracy", "per_class", "mean_loss", "count"}
        assert set(metrics["per_class"]) == set(manifest.classes)
        assert 0 <= metrics["accuracy"] <= 1
        assert math.isfinite(metrics["mean_loss"])

    def test_matches_per_problem_reference(self, manifest, trained, monkeypatch):
        # more samples than one evaluation chunk (the budget is cut to 30
        # rows, so chunks hold 30 // 6 = 5 samples), and samples cut to their
        # first 4, 5 or 6 tokens so that the problems come in several shapes
        monkeypatch.setattr(trainer_mod, "_EVAL_ROWS", 30)
        classes = list(trained.bank.classes)
        pool = [fs for split in ("train", "val", "test") for fs in load_split(manifest, split)]
        samples = [first_tokens(fs, fs.num_tokens - s % 3) for s, fs in enumerate(pool)]
        longest = max(fs.num_tokens for fs in samples)
        assert longest == 6 and len(samples) > trainer_mod._EVAL_ROWS // longest
        assert len({fs.num_tokens for fs in samples}) > 1
        ccfg = ClassifierConfig()
        got = evaluate(samples, trained, ccfg)

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

    @pytest.mark.parametrize("rows", [1, 10**9])
    def test_chunking_changes_no_bit(self, manifest, trained, monkeypatch, rows):
        # one sample per chunk, or all samples in one, against the default
        pool = [fs for split in ("train", "val", "test") for fs in load_split(manifest, split)]
        samples = [first_tokens(fs, fs.num_tokens - s % 3) for s, fs in enumerate(pool)]
        seen = []

        def recorded(d, tau):
            seen.append(likelihood(d, tau))
            return seen[-1]

        monkeypatch.setattr(trainer_mod, "likelihood", recorded)
        want = evaluate(samples, trained, ClassifierConfig())
        want_probs = np.concatenate(seen)
        seen.clear()
        monkeypatch.setattr(trainer_mod, "_EVAL_ROWS", rows)
        got = evaluate(samples, trained, ClassifierConfig())
        assert len(seen) == (len(samples) if rows == 1 else 1)
        assert got == want
        assert np.concatenate(seen).tobytes() == want_probs.tobytes()

    @pytest.fixture(scope="class")
    def chunk_state(self, manifest):
        # the paths' prompt counts (3 and 2) differ
        classes = manifest.classes
        bank = build_prompt_bank(classes, synth_description_texts(classes, seed=1, count=3),
                                 num_shared_prompts=2, num_class_prompts=3,
                                 context_length=4, token_dim=16, seed=1)
        return init_state(bank, FrozenEncoder.seeded(16, 16, 1))

    @staticmethod
    def solve_batches(state, counts, monkeypatch):
        """The problem count of every solve call that evaluate makes on
        samples of the given token counts."""
        classes = state.bank.classes
        rng = np.random.default_rng(5)
        samples = []
        for s, n in enumerate(counts):
            F = rng.standard_normal((n, 16))
            samples.append(FeatureSet(F / np.linalg.norm(F, axis=1, keepdims=True),
                                      sample_id=f"s{s}", label=classes[s % len(classes)]))
        batches = []

        def counted_batch(problems, config=None):
            batches.append(len(problems))
            return solve_uot_batch(problems, config)

        monkeypatch.setattr("uotalign.classifier.solve_uot_batch", counted_batch)
        evaluate(samples, state, ClassifierConfig())
        return batches

    @pytest.mark.parametrize("count, tokens, chunks", [
        (20, 196, [8, 8, 4]),
        (40, 49, [32, 8]),
        (1, 5000, [1]),
    ])
    def test_chunks_of_equal_counts(self, chunk_state, monkeypatch, count, tokens,
                                    chunks):
        # one solve call per chunk and path
        K = len(chunk_state.bank.classes)
        assert (self.solve_batches(chunk_state, [tokens] * count, monkeypatch)
                == [n * K for n in chunks for _ in ("cs", "ds")])

    def test_longest_sample_sets_the_chunk_size(self, chunk_state, monkeypatch):
        # 1568 // 200 = 7 samples a chunk: the first holds the 200-token
        # sample, solved alone, and six 49-token ones; then 7 and 6 more
        counts = [200] + [49] * 19
        K = len(chunk_state.bank.classes)
        assert (self.solve_batches(chunk_state, counts, monkeypatch)
                == [n * K for n in (1, 6, 7, 6) for _ in ("cs", "ds")])


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
        assert reads.count("train") == 1

        monkeypatch.setattr(trainer_mod, "_train_on", None)  # no variant may train
        for bad in ("train", "test"):
            def unreadable(m, split, *args, bad=bad, **kwargs):
                if split == bad:
                    raise ValueError(f"corrupt file: {bad} split")
                return load_split(m, split, *args, **kwargs)

            monkeypatch.setattr(trainer_mod, "load_split", unreadable)
            with pytest.raises(ValueError, match=f"corrupt file: {bad} split"):
                run_ablation(manifest, TrainConfig(epochs=0, seed=1),
                             ClassifierConfig(), **BANK_KW)

    def test_no_test_split_reports_nan(self, tmp_path):
        # one sample per class is all training split: every variant trains,
        # and there is no test accuracy or loss to report
        manifest = synth_dataset(tmp_path / "d", num_classes=3, per_class=1, tokens=6,
                                 dim=16, separation=10.0, seed=3, shots=1)
        assert load_split(manifest, "test") == []
        rows = run_ablation(manifest, TrainConfig(epochs=2, seed=1, shots=1),
                            ClassifierConfig(), **BANK_KW)
        assert [r["variant"] for r in rows] == list(VARIANTS)
        for r in rows:
            assert "error" not in r, r
            assert math.isnan(r["test_accuracy"]) and math.isnan(r["test_loss"]), r
            assert math.isfinite(r["train_accuracy"]) and math.isfinite(r["final_train_loss"])

    def test_variant_failures_are_isolated(self, manifest, tmp_path):
        cfg = TrainConfig(epochs=1, seed=1, shots=99)
        rows = run_ablation(manifest, cfg, ClassifierConfig(), **BANK_KW)
        assert [r["variant"] for r in rows] == list(VARIANTS)
        for r in rows:
            assert "need 99 shots" in r["error"]

        empty = DatasetManifest(classes=["a"], samples=[], shots=1, seed=0,
                                root=tmp_path)
        rows = run_ablation(empty, TrainConfig(shots=1), ClassifierConfig(), **BANK_KW)
        assert [r["variant"] for r in rows] == list(VARIANTS)
        for r in rows:
            assert "empty split" in r["error"]


def save_with_header_field(state, path, key, value):
    """Save `state` as CKP1, then rewrite one header field in place."""
    save_checkpoint(state, path)
    raw = path.read_bytes()
    hlen = int(np.frombuffer(raw[4:8], dtype="<u4")[0])
    header = json.loads(raw[8:8 + hlen].decode())
    header[key] = value
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(CKP1_MAGIC + np.array([len(blob)], dtype="<u4").tobytes() + blob
                     + raw[8 + hlen:])
    return path


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
        bank, encoder, batch, ccfg = gradcheck_instance
        import copy
        state = init_state(copy.deepcopy(bank), encoder)
        state, _ = train_step(batch, state, TrainConfig(seed=0), ccfg)
        path = tmp_path / "mid.ckpt"
        save_checkpoint(state, path)
        resumed = load_checkpoint(path)
        state, l1 = train_step(batch, state, TrainConfig(seed=0), ccfg)
        resumed, l2 = train_step(batch, resumed, TrainConfig(seed=0), ccfg)
        assert l1 == l2
        for key, p in state.bank.trainable_arrays().items():
            np.testing.assert_array_equal(p, resumed.bank.trainable_arrays()[key])

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

    @pytest.mark.parametrize("blob, message", [
        (b"\xff\xfe{}", "has a bad header"),
        (b"{not json", "has a bad header"),
        (b"[1, 2]", "header is not an object"),
    ])
    def test_rejects_header_that_is_not_a_json_object(self, tmp_path, blob, message):
        import re
        path = tmp_path / "x.ckpt"
        path.write_bytes(CKP1_MAGIC + np.array([len(blob)], dtype="<u4").tobytes() + blob)
        with pytest.raises(ValueError, match=re.escape(f"corrupt file: {path} {message}")):
            load_checkpoint(path)

    def test_rejects_unknown_version(self, trained, tmp_path):
        path = save_with_header_field(trained, tmp_path / "x.ckpt", "version", 2)
        with pytest.raises(ValueError, match="unsupported checkpoint version"):
            load_checkpoint(path)

    def test_rejects_duplicate_class(self, trained, tmp_path):
        assert trained.bank.classes == ["class_0", "class_1", "class_2"]
        path = save_with_header_field(trained, tmp_path / "x.ckpt", "classes",
                                      ["class_0", "class_1", "class_0"])
        with pytest.raises(ValueError,
                           match="schema violation: duplicate class 'class_0'"):
            load_checkpoint(path)

    def test_bank_error_names_the_file(self, trained, tmp_path):
        import re
        path = save_with_header_field(trained, tmp_path / "x.ckpt", "classes",
                                      ["class_0", "class_1"])
        with pytest.raises(ValueError, match=re.escape(
                f"corrupt file: {path} class token count does not match class list")):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,value", [
        ("use_attention", "no"), ("use_attention", 1), ("classes", "abc"),
        ("classes", [1, 2, 3]), ("trainable", "shared_tokens"), ("step", 1.5),
        ("step", True), ("step", -1), ("epoch", None), ("history", {"a": 1}),
        ("history", [1])])
    def test_rejects_mistyped_header_field(self, trained, tmp_path, key, value):
        import re
        path = save_with_header_field(trained, tmp_path / "x.ckpt", key, value)
        with pytest.raises(ValueError, match=re.escape(
                f"corrupt file: {path} header field {key!r} must be")):
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
                                      "shape_not_a_list", "negative_shape",
                                      "no_classes_key"])
    def test_rejects_malformed_header(self, gradcheck_instance, tmp_path, case):
        bank, encoder, _, _ = gradcheck_instance
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
        elif case == "no_classes_key":
            del header["classes"]
        else:
            header["arrays"] = [["shared_tokens", [-1, -1]]]
            payload = bytes(8)
        blob = json.dumps(header).encode()
        path.write_bytes(CKP1_MAGIC + np.array([len(blob)], dtype="<u4").tobytes()
                         + blob + payload)
        with pytest.raises(ValueError, match="corrupt file: " + re.escape(str(path))) as err:
            load_checkpoint(path)
        if case == "no_classes_key":
            assert str(err.value).endswith("lacks 'classes'")

    @pytest.mark.parametrize("name,message", [
        ("junk", "has unknown arrays ['junk']"),
        ("encoder.scale", "has unknown arrays ['encoder.scale']"),
        ("shared_tokens", "lists an array name twice"),
        ("m.shared_tokens", "lists an array name twice")])
    def test_rejects_arrays_save_checkpoint_does_not_write(self, gradcheck_instance,
                                                            tmp_path, name, message):
        bank, encoder, _, _ = gradcheck_instance
        import copy
        import re
        path = tmp_path / "x.ckpt"
        state = init_state(copy.deepcopy(bank), encoder)
        save_checkpoint(state, path)
        # the file as written loads; one more listed array must not
        load_checkpoint(path)
        raw = path.read_bytes()
        hlen = int(np.frombuffer(raw[4:8], dtype="<u4")[0])
        header = json.loads(raw[8:8 + hlen].decode())
        shape = dict(header["arrays"]).get(name, [2])
        header["arrays"].append([name, shape])
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(CKP1_MAGIC + np.array([len(blob)], dtype="<u4").tobytes() + blob
                         + raw[8 + hlen:] + np.ones(shape).tobytes())
        with pytest.raises(ValueError, match=re.escape(f"corrupt file: {path} {message}")):
            load_checkpoint(path)

    @pytest.mark.parametrize("name,message", [
        ("projection", "encoder.projection has shape (9, 8), expected (8, 8)"),
        ("bias", "bias length must match projection output dim")])
    def test_rejects_encoder_not_matching_the_bank(self, gradcheck_instance, tmp_path,
                                                    name, message):
        # a projection with a row too many would fail only at the first
        # encode, in a bare matmul that names neither the file nor the array
        bank, encoder, _, _ = gradcheck_instance
        import copy
        import re
        d_tok, d = bank.shared_tokens.shape[2], encoder.projection.shape[1]
        assert (d_tok, d) == (8, 8)
        encoder = copy.deepcopy(encoder)
        if name == "projection":
            encoder.projection = np.vstack([encoder.projection, encoder.projection[:1]])
        else:
            encoder.bias = np.append(encoder.bias, 0.0)
        path = tmp_path / "x.ckpt"
        save_checkpoint(init_state(copy.deepcopy(bank), encoder), path)
        with pytest.raises(ValueError, match=re.escape(f"corrupt file: {path} {message}")):
            load_checkpoint(path)

    def test_rejects_moment_key_mismatch(self, gradcheck_instance, tmp_path):
        bank, encoder, _, _ = gradcheck_instance
        import copy
        state = init_state(copy.deepcopy(bank), encoder)
        state.m = {}
        state.v = {}
        path = tmp_path / "x.ckpt"
        save_checkpoint(state, path)
        with pytest.raises(ValueError, match="moment keys"):
            load_checkpoint(path)

    def test_rejects_moment_shape_mismatch(self, gradcheck_instance, tmp_path):
        # a (d_tok,) moment broadcasts against the parameter, so Adam would not fail on it
        bank, encoder, _, _ = gradcheck_instance
        import copy
        import re
        state = init_state(copy.deepcopy(bank), encoder)
        state.m["shared_tokens"] = np.zeros(bank.shared_tokens.shape[-1])
        path = tmp_path / "x.ckpt"
        save_checkpoint(state, path)
        with pytest.raises(ValueError, match=re.escape(
                f"corrupt file: {path} moment shapes do not match the parameters")):
            load_checkpoint(path)


class TestTrainableCount:
    def test_counts_match_variant_groups(self, manifest):
        full = fresh_bank(manifest, "full")
        no_sa = fresh_bank(manifest, "no_self_attention")
        # shared tokens 2*4*16, attention 3*16*16, class tokens 3*2*4*16
        assert count_trainable(full) == 2 * 4 * 16 + 3 * 16 * 16
        assert count_trainable(no_sa) == 2 * 4 * 16 + 3 * 2 * 4 * 16
