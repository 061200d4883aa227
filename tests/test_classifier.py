"""Alignment scoring, likelihood, loss and baseline behaviour."""

import math
import warnings

import numpy as np
import pytest

from oracle import finite_diff_grad
from uotalign.classifier import (
    ClassifierConfig,
    ce_loss,
    cost_matrix,
    cost_matrix_backward,
    forward,
    likelihood,
    prompt_marginal,
    score,
)
from uotalign.features import FeatureSet, load_split, synth_dataset
from uotalign.prompts import (
    AttentionParams,
    DescriptionFile,
    FrozenEncoder,
    PromptBank,
    build_prompt_bank,
    encode_classes,
)
from uotalign.transport import INF, NumericalBlowupError, TransportPlan, solve_entropic_ot


def unit_rows(rng, shape):
    X = rng.standard_normal(shape)
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def make_bank(classes, seed=0, d_tok=12, L=4):
    descs = {
        c: DescriptionFile(c, [f"the {c} up close", f"a distant {c} outline"])
        for c in classes
    }
    return build_prompt_bank(classes, descs, num_shared_prompts=2,
                             context_length=L, token_dim=d_tok, seed=seed)


def make_sample(rng, M=5, d=6, weights=None):
    w = np.full(M, 1.0 / M) if weights is None else np.asarray(weights, float)
    return FeatureSet(features=unit_rows(rng, (M, d)), weights=w)


def aligned_tokens(encoder, target, class_word, L):
    # invert the encoder: rows whose class-word-appended mean maps to
    # 2*target before normalization, hence to target after it
    mean = (2.0 * target - encoder.bias) @ np.linalg.inv(encoder.projection)
    row = ((L + 1) * mean - class_word) / L
    return np.tile(row, (L, 1))


class TestClassifierConfig:
    def test_defaults(self):
        cfg = ClassifierConfig()
        assert cfg.tau == 0.01
        assert cfg.gamma_cs == cfg.gamma_ds == 0.5
        assert cfg.lam == 0.01
        assert cfg.rho1 == INF
        assert cfg.rho2 == 0.04

    def test_validation(self):
        with pytest.raises(ValueError, match="tau"):
            ClassifierConfig(tau=0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            ClassifierConfig(gamma_cs=-0.1)
        with pytest.raises(ValueError, match="at least one path"):
            ClassifierConfig(gamma_cs=0.0, gamma_ds=0.0)
        with pytest.raises(ValueError, match="lam"):
            ClassifierConfig(lam=0.0)
        with pytest.raises(ValueError, match="rho2"):
            ClassifierConfig(rho2=-1.0)


class TestCostMatrix:
    def test_exact_corners(self):
        e = np.eye(4)
        F = np.array([e[0], e[1], -e[0]])
        C = cost_matrix(F, e[0][None, :])
        assert C.tolist() == [[0.0, 1.0, 2.0]]

    def test_orientation(self):
        rng = np.random.default_rng(0)
        C = cost_matrix(unit_rows(rng, (5, 3)), unit_rows(rng, (2, 3)))
        assert C.shape == (2, 5)

    def test_range_property(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            C = cost_matrix(unit_rows(rng, (4, 7)), unit_rows(rng, (3, 7)))
            assert C.min() >= -1e-12 and C.max() <= 2.0 + 1e-12

    def test_zero_row_rejected(self):
        F = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="degenerate embedding"):
            cost_matrix(F, np.array([[0.0, 1.0]]))

    def test_non_unit_warns(self):
        rng = np.random.default_rng(2)
        with pytest.warns(UserWarning, match="unit-norm"):
            cost_matrix(unit_rows(rng, (3, 4)), 2.0 * unit_rows(rng, (2, 4)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            cost_matrix(np.eye(3), np.eye(4))

    def test_stack_equals_single_calls(self):
        rng = np.random.default_rng(16)
        F = unit_rows(rng, (7, 6))
        G = unit_rows(rng, (15, 6)).reshape(5, 3, 6)
        C = cost_matrix(F, G)
        assert C.shape == (5, 3, 7)
        for k in range(5):
            assert C[k].tobytes() == cost_matrix(F, G[k]).tobytes()

    def test_four_dimensional_prompts_rejected(self):
        rng = np.random.default_rng(17)
        G = unit_rows(rng, (12, 6)).reshape(2, 2, 3, 6)
        with pytest.raises(ValueError, match=r"prompts must be \(P, d\) or \(K, P, d\)"):
            cost_matrix(unit_rows(rng, (4, 6)), G)
        with pytest.raises(ValueError, match="got ndim=4"):
            cost_matrix_backward(unit_rows(rng, (4, 6)), G, np.ones((2, 2, 3, 4)))


class TestCostMatrixBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        F = unit_rows(rng, (4, 5))
        G = rng.standard_normal((3, 5))  # deliberately not unit rows
        D = rng.standard_normal((3, 4))

        def f(g_flat):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return float(np.sum(D * cost_matrix(F, g_flat.reshape(3, 5))))

        got = cost_matrix_backward(F, G, D).ravel()
        want = finite_diff_grad(f, G.ravel(), step=1e-6)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_unit_rows_case(self):
        rng = np.random.default_rng(4)
        F = unit_rows(rng, (6, 8))
        G = unit_rows(rng, (2, 8))
        D = rng.standard_normal((2, 6))

        def f(g_flat):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return float(np.sum(D * cost_matrix(F, g_flat.reshape(2, 8))))

        got = cost_matrix_backward(F, G, D).ravel()
        want = finite_diff_grad(f, G.ravel(), step=1e-6)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_upstream_shape_checked(self):
        with pytest.raises(ValueError, match="upstream"):
            cost_matrix_backward(np.eye(3), np.eye(3), np.ones((2, 3)))

    def test_stack_equals_single_calls(self):
        rng = np.random.default_rng(18)
        F = unit_rows(rng, (7, 6))
        G = rng.standard_normal((5, 3, 6))
        D = rng.standard_normal((5, 3, 7))
        got = cost_matrix_backward(F, G, D)
        assert got.shape == G.shape
        for k in range(5):
            assert got[k].tobytes() == cost_matrix_backward(F, G[k], D[k]).tobytes()

    def test_stack_upstream_checked(self):
        rng = np.random.default_rng(19)
        F = unit_rows(rng, (4, 6))
        G = unit_rows(rng, (6, 6)).reshape(2, 3, 6)
        with pytest.raises(ValueError, match=r"upstream shape \(3, 2, 4\) does not match \(2, 3, 4\)"):
            cost_matrix_backward(F, G, np.ones((3, 2, 4)))
        with pytest.raises(ValueError, match="upstream shape"):
            cost_matrix_backward(F, G, np.ones((3, 4)))
        D = np.ones((2, 3, 4))
        D[1, 2, 3] = np.inf
        with pytest.raises(ValueError, match="upstream contains non-finite"):
            cost_matrix_backward(F, G, D)


class TestPromptMarginal:
    def test_uniform_and_normalized(self):
        n = prompt_marginal(4)
        assert n.tolist() == [0.25] * 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            prompt_marginal(0)


class TestScore:
    def test_weighted_breakdown(self):
        rng = np.random.default_rng(5)
        bank = make_bank(["cat", "dog"])
        enc = FrozenEncoder.seeded(bank.shared_tokens.shape[2], 6, 9)
        fs = make_sample(rng)
        cfg = ClassifierConfig(gamma_cs=0.7, gamma_ds=0.3)
        s = score(fs, "cat", bank, enc, cfg)
        assert s.d_total == pytest.approx(0.7 * s.d_cs + 0.3 * s.d_ds, abs=1e-12)
        assert s.plan_cs.coupling.shape == (bank.class_tokens.shape[1], fs.num_tokens)
        assert s.plan_ds.coupling.shape == (bank.shared_tokens.shape[0], fs.num_tokens)
        assert s.d_cs > 0 and s.d_ds > 0

    def test_single_path_exact(self):
        rng = np.random.default_rng(6)
        bank = make_bank(["cat", "dog"])
        enc = FrozenEncoder.seeded(bank.shared_tokens.shape[2], 6, 9)
        fs = make_sample(rng)
        s = score(fs, "dog", bank, enc, ClassifierConfig(gamma_cs=1.0, gamma_ds=0.0))
        assert s.d_total == s.d_cs
        assert s.d_ds == 0.0
        assert s.plan_ds is None

    def test_source_marginal_conserved(self):
        # rho1 = INF pins prompt-side row sums at 1/P
        rng = np.random.default_rng(7)
        bank = make_bank(["cat"])
        enc = FrozenEncoder.seeded(bank.shared_tokens.shape[2], 6, 9)
        s = score(make_sample(rng), "cat", bank, enc, ClassifierConfig())
        P = bank.class_tokens.shape[1]
        assert np.allclose(s.plan_cs.coupling.sum(axis=1), 1.0 / P, atol=1e-6)

    def test_zero_cost_gives_zero_total(self):
        # both paths encode to the same vector as every feature row
        d_tok = d = 8
        L = 3
        enc = FrozenEncoder.seeded(d_tok, d, 5)
        rng = np.random.default_rng(8)
        t = unit_rows(rng, (1, d))[0]
        c_vec = unit_rows(rng, (1, d_tok))[0]
        toks = aligned_tokens(enc, t, c_vec, L)
        bank = PromptBank(
            classes=["a"],
            shared_tokens=toks[None, :, :],
            class_tokens=toks[None, None, :, :],
            class_words=c_vec[None, :],
            attention=AttentionParams.seeded(d_tok, d_tok, 0),
            use_attention=False,
        )
        fs = FeatureSet(features=np.tile(t, (4, 1)), weights=np.full(4, 0.25))
        s = score(fs, "a", bank, enc, ClassifierConfig())
        assert abs(s.d_total) < 1e-12

    def test_balanced_mode_matches_direct_solve(self):
        rng = np.random.default_rng(9)
        bank = make_bank(["cat"])
        enc = FrozenEncoder.seeded(bank.shared_tokens.shape[2], 6, 9)
        fs = make_sample(rng)
        cfg = ClassifierConfig(rho1=INF, rho2=INF, lam=0.05)
        s = score(fs, "cat", bank, enc, cfg)

        g_cs = encode_classes(bank, ["cat"], enc).g_cs[0]
        C = cost_matrix(fs.features, g_cs)
        direct = solve_entropic_ot(C, prompt_marginal(len(g_cs)), fs.weights, lam=0.05)
        assert np.array_equal(s.plan_cs.coupling, direct.coupling)
        assert s.d_cs == pytest.approx(float(np.sum(direct.coupling * C)), abs=0)

    def test_unknown_class(self):
        rng = np.random.default_rng(11)
        bank = make_bank(["cat"])
        enc = FrozenEncoder.seeded(bank.shared_tokens.shape[2], 6, 9)
        with pytest.raises(ValueError, match="unknown class"):
            score(make_sample(rng), "ferret", bank, enc, ClassifierConfig())

    def test_solver_error_tagged_with_class_and_path(self, monkeypatch):
        rng = np.random.default_rng(12)
        bank = make_bank(["cat"])
        enc = FrozenEncoder.seeded(bank.shared_tokens.shape[2], 6, 9)

        def boom(problems, config=None):
            # the batch solver marks a failed instance instead of raising
            return [TransportPlan(coupling=np.full(p.shape, np.nan),
                                  u=np.zeros(p.shape[0]), v=np.zeros(p.shape[1]),
                                  iterations=1, converged=False,
                                  error="numerical blowup: coupling overflow")
                    for p in problems]

        monkeypatch.setattr("uotalign.classifier.solve_uot_batch", boom)
        with pytest.raises(NumericalBlowupError, match="class 'cat', cs path"):
            score(make_sample(rng), "cat", bank, enc, ClassifierConfig())


class TestForward:
    @pytest.mark.parametrize("gamma_cs, gamma_ds", [(0.0, 1.0), (1.0, 0.0)])
    def test_encodes_only_paths_that_score(self, monkeypatch, gamma_cs, gamma_ds):
        import uotalign.prompts as prompts_mod

        rng = np.random.default_rng(13)
        bank = make_bank(["cat", "dog", "owl"])
        enc = FrozenEncoder.seeded(bank.shared_tokens.shape[2], 6, 9)
        samples = [make_sample(rng), make_sample(rng, M=3)]
        both = forward(samples, bank, enc, ClassifierConfig())

        calls = {"attention": 0, "encode": 0}
        attention_forward = prompts_mod.attention_forward
        encode = FrozenEncoder.encode

        def counted_attention(*args, **kwargs):
            calls["attention"] += 1
            return attention_forward(*args, **kwargs)

        def counted_encode(self, *args, **kwargs):
            calls["encode"] += 1
            return encode(self, *args, **kwargs)

        monkeypatch.setattr(prompts_mod, "attention_forward", counted_attention)
        monkeypatch.setattr(FrozenEncoder, "encode", counted_encode)
        cfg = ClassifierConfig(gamma_cs=gamma_cs, gamma_ds=gamma_ds)
        fw = forward(samples, bank, enc, cfg)

        tag = "cs" if gamma_cs > 0 else "ds"
        # one stacked call encodes all classes' prompts of the path
        e = fw.encoding
        if tag == "ds":
            assert calls == {"attention": 0, "encode": 1}
            assert e.g_cs is None and e.toks_in is None and e.toks_out is None
        else:
            assert calls == {"attention": 1, "encode": 1}
            assert e.g_ds is None and e.toks_ds is None
        # the path that is kept scores exactly as it does next to the other
        np.testing.assert_array_equal(fw.d_path[tag], both.d_path[tag])


class TestSeparableScoring:
    def test_true_class_wins_on_separated_data(self, tmp_path):
        # prompts aimed straight at the class anchors must rank the true
        # class cheapest for nearly every sample at separation 10
        d = d_tok = 16
        L = 2
        seed = 11
        manifest = synth_dataset(tmp_path, num_classes=3, per_class=10,
                                 tokens=6, dim=d, separation=10.0, seed=seed)
        anchor_rng = np.random.default_rng([seed, 1])
        anchors = anchor_rng.standard_normal((3, d))
        anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)

        enc = FrozenEncoder.seeded(d_tok, d, 4)
        rng = np.random.default_rng(13)
        class_words = unit_rows(rng, (3, d_tok))
        class_tokens = np.stack([
            aligned_tokens(enc, anchors[c], class_words[c], L)[None, :, :]
            for c in range(3)
        ])
        bank = PromptBank(
            classes=list(manifest.classes),
            shared_tokens=unit_rows(rng, (1 * L, d_tok)).reshape(1, L, d_tok),
            class_tokens=class_tokens,
            class_words=class_words,
            attention=AttentionParams.seeded(d_tok, d_tok, 0),
            use_attention=False,
        )
        cfg = ClassifierConfig(gamma_cs=1.0, gamma_ds=0.0)

        samples = []
        for split in ("train", "val", "test"):
            samples.extend(load_split(manifest, split))
        wins = 0
        for fs in samples:
            d_by_class = [score(fs, c, bank, enc, cfg).d_total
                          for c in manifest.classes]
            true_idx = manifest.classes.index(fs.label)
            if all(d_by_class[true_idx] < d_by_class[j]
                   for j in range(3) if j != true_idx):
                wins += 1
        assert wins >= 0.95 * len(samples)


class TestLikelihood:
    def test_equal_scores_uniform(self):
        p = likelihood(np.full(5, 0.31), tau=0.07)
        assert np.allclose(p, 0.2, atol=1e-15)

    def test_two_class_closed_form(self):
        p = likelihood(np.array([0.2, 0.8]), tau=0.01)
        # logits (80, 20): winner probability 1/(1 + e^-60)
        assert p[0] == pytest.approx(1.0 / (1.0 + math.exp(-60.0)), rel=1e-12)
        assert p[1] == pytest.approx(math.exp(-60.0) / (1.0 + math.exp(-60.0)),
                                     rel=1e-12)

    def test_probability_vector_property(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            K = int(rng.integers(1, 13))
            d = rng.normal(0.0, 2.0, K)
            p = likelihood(d, tau=float(rng.uniform(0.005, 1.0)))
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) <= 1e-12
            if K > 1:
                assert int(np.argmax(p)) == int(np.argmin(d))

    def test_shift_invariance(self):
        d = np.array([0.1, 0.9, 0.4])
        assert np.allclose(likelihood(d, 0.02), likelihood(d + 3.7, 0.02),
                           atol=1e-12)

    def test_argmax_survives_temperature_change(self):
        d = np.array([0.55, 0.2, 0.9, 0.4])
        assert np.argmax(likelihood(d, 0.01)) == np.argmax(likelihood(d, 0.5))

    def test_single_class(self):
        assert likelihood(np.array([0.4]), 0.01).tolist() == [1.0]

    def test_matrix_equals_row_by_row(self):
        rng = np.random.default_rng(15)
        d = rng.normal(0.0, 2.0, (9, 6))
        d[3] = 0.31  # a tied row
        p = likelihood(d, tau=0.03)
        assert p.shape == d.shape
        assert p.tobytes() == np.vstack([likelihood(row, 0.03) for row in d]).tobytes()
        assert likelihood(d[:, :1], 0.03).tolist() == [[1.0]] * 9

    def test_rejects_other_ranks(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            likelihood(np.zeros((2, 2, 2)), 0.01)

    def test_overflowing_logits_rejected(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
            likelihood(np.array([0.1, 0.2]), 1e-310)

    def test_invalid_tau(self):
        with pytest.raises(ValueError, match="tau"):
            likelihood(np.array([0.1, 0.2]), 0.0)


class TestCELoss:
    def test_perfect_prediction(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert ce_loss(probs, labels) == 0.0

    def test_uniform_is_log_k(self):
        probs = np.full((3, 4), 0.25)
        labels = np.eye(4)[:3]
        assert ce_loss(probs, labels) == pytest.approx(math.log(4.0), rel=1e-12)

    def test_quarter_probability(self):
        loss = ce_loss(np.array([[0.25, 0.75]]), np.array([[1.0, 0.0]]))
        assert loss == pytest.approx(1.3862943611198906, abs=1e-15)

    def test_batch_average(self):
        probs = np.array([[0.5, 0.5], [0.25, 0.75]])
        labels = np.array([[1.0, 0.0], [0.0, 1.0]])
        want = 0.5 * (math.log(2.0) + math.log(4.0 / 3.0))
        assert ce_loss(probs, labels) == pytest.approx(want, rel=1e-12)

    def test_zero_probability_clamped(self):
        with pytest.warns(UserWarning, match="clamped"):
            loss = ce_loss(np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]]))
        assert loss == pytest.approx(-math.log(1e-300), rel=1e-12)

    def test_label_validation(self):
        probs = np.array([[0.5, 0.5]])
        with pytest.raises(ValueError, match="one-hot"):
            ce_loss(probs, np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError, match="one-hot"):
            ce_loss(probs, np.array([[1.0, 1.0]]))
        with pytest.raises(ValueError, match="shape"):
            ce_loss(probs, np.array([[1.0, 0.0, 0.0]]))

    def test_prob_validation(self):
        labels = np.array([[1.0, 0.0]])
        with pytest.raises(ValueError, match="sum to 1"):
            ce_loss(np.array([[0.9, 0.3]]), labels)
        with pytest.raises(ValueError, match="sum to 1"):
            ce_loss(np.array([[1.2, -0.2]]), labels)
