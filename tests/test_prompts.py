import dataclasses
import json
import re

import numpy as np
import pytest

import uotalign.prompts as prompts_mod
from conftest import count_trainable
from oracle import finite_diff_grad
from uotalign.prompts import (
    AttentionParams,
    FrozenEncoder,
    attention_backward,
    attention_forward,
    build_prompt_bank,
    encode_classes,
    encode_classes_backward,
    load_description_manifest,
    parse_descriptions,
    render_description_prompt,
    synth_description_texts,
    tokenize,
)


class TestParseDescriptions:
    def test_basic(self, tmp_path):
        p = tmp_path / "cat.json"
        p.write_text(json.dumps({"class_name": "cat",
                                 "description": ["a", "b", "c", "d"]}))
        assert parse_descriptions(p) == ("cat", ["a", "b", "c", "d"])

    def test_empty_list(self, tmp_path):
        p = tmp_path / "dog.json"
        p.write_text(json.dumps({"description": []}))
        with pytest.raises(ValueError, match="no descriptions"):
            parse_descriptions(p)

    def test_missing_key(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text(json.dumps({"class_name": "x", "desc": ["a"]}))
        with pytest.raises(ValueError, match="schema violation"):
            parse_descriptions(p)

    def test_count_other_than_four_warns(self, tmp_path):
        p = tmp_path / "y.json"
        p.write_text(json.dumps({"class_name": "y", "description": ["a", "b"]}))
        with pytest.warns(UserWarning, match="expected 4"):
            _, texts = parse_descriptions(p)
        assert texts == ["a", "b"]

    def test_verbatim_text_preserved(self, tmp_path):
        text = ("A fluffy British Shorthair cat lounges on a cozy armchair, "
                "eyes half-closed in contentment.")
        p = tmp_path / "british shorthair.json"
        p.write_text(json.dumps({"class_name": "british shorthair",
                                 "description": [text, "b", "c", "d"]}))
        assert parse_descriptions(p)[1][0] == text

    def test_class_name_falls_back_to_stem(self, tmp_path):
        p = tmp_path / "lynx.json"
        p.write_text(json.dumps({"description": ["a", "b", "c", "d"]}))
        assert parse_descriptions(p)[0] == "lynx"


class TestDescriptionManifest:
    def test_invalid_json_names_the_file(self, tmp_path):
        p = tmp_path / "descriptions.json"
        p.write_text("{nope")
        with pytest.raises(ValueError, match=re.escape(
                f"schema violation: {p} is not valid JSON")):
            load_description_manifest(p)

    @pytest.mark.parametrize("load", [load_description_manifest, parse_descriptions])
    def test_top_level_must_be_an_object(self, tmp_path, load):
        p = tmp_path / "x.json"
        p.write_text('["cat.json"]')
        with pytest.raises(ValueError, match=re.escape(
                f"schema violation: {p} top level must be an object")):
            load(p)


class TestTokenize:
    def test_deterministic(self):
        a = tokenize("a small cat", 16, 5, seed=3)
        b = tokenize("a small cat", 16, 5, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_distinct_words_distinct_rows(self):
        a = tokenize("cat", 16, 1, seed=0)
        b = tokenize("dog", 16, 1, seed=0)
        assert np.abs(a - b).max() > 1e-3

    def test_case_insensitive(self):
        np.testing.assert_array_equal(tokenize("Cat", 8, 1, 0), tokenize("cat", 8, 1, 0))

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty text"):
            tokenize("   ", 8, 4, 0)

    def test_truncation_and_padding(self):
        long = tokenize("one two three four five", 8, 3, seed=1)
        assert long.shape == (3, 8)
        short = tokenize("one", 8, 3, seed=1)
        assert short.shape == (3, 8)
        np.testing.assert_array_equal(short[1], short[2])  # pad rows identical
        rows = np.linalg.norm(long, axis=1)
        np.testing.assert_allclose(rows, 1.0, atol=1e-12)


class TestAttention:
    def test_single_token_is_value_row(self):
        rng = np.random.default_rng(50)
        params = AttentionParams.seeded(6, 6, seed=1)
        T = rng.standard_normal((1, 6))
        out = attention_forward(T, params)
        np.testing.assert_allclose(out, T @ params.w_value, atol=1e-12)

    def test_zero_query_key_gives_column_mean(self):
        rng = np.random.default_rng(51)
        T = rng.standard_normal((4, 5))
        params = AttentionParams(np.zeros((5, 5)), np.zeros((5, 5)),
                                 rng.standard_normal((5, 5)))
        out = attention_forward(T, params)
        V = T @ params.w_value
        np.testing.assert_allclose(out, np.tile(V.mean(axis=0), (4, 1)), atol=1e-12)

    def test_two_token_straight_line_evaluation(self):
        # manual recomputation without the library's matrix helpers
        rng = np.random.default_rng(52)
        T = rng.standard_normal((2, 3))
        params = AttentionParams.seeded(3, 3, seed=9)
        out = attention_forward(T, params)
        Q = T @ params.w_query
        K = T @ params.w_key
        V = T @ params.w_value
        expect = np.empty((2, 3))
        for i in range(2):
            z = np.array([Q[i] @ K[0], Q[i] @ K[1]]) / np.sqrt(3)
            e = np.exp(z - z.max())
            a = e / e.sum()
            expect[i] = a[0] * V[0] + a[1] * V[1]
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(53)
        params = AttentionParams.seeded(8, 8, seed=2)
        for _ in range(10):
            T = rng.standard_normal((5, 8))
            Z = (T @ params.w_query) @ (T @ params.w_key).T / np.sqrt(params.d_k)
            A = prompts_mod._softmax_rows(Z)
            np.testing.assert_allclose(A.sum(axis=1), 1.0, atol=1e-12)


class TestAttentionBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(54)
        T = rng.standard_normal((3, 4))
        params = AttentionParams.seeded(4, 4, seed=3)
        gT, gq, gk, gv = attention_backward(T, params, np.zeros((3, 4)))
        for g in (gT, gq, gk, gv):
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_single_token_closed_form(self):
        rng = np.random.default_rng(55)
        T = rng.standard_normal((1, 4))
        params = AttentionParams.seeded(4, 4, seed=4)
        up = rng.standard_normal((1, 4))
        gT, gq, gk, gv = attention_backward(T, params, up)
        np.testing.assert_allclose(gv, T.T @ up, atol=1e-12)
        np.testing.assert_allclose(gq, 0.0, atol=1e-12)
        np.testing.assert_allclose(gk, 0.0, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(56)
        T = rng.standard_normal((3, 4))
        params = AttentionParams.seeded(4, 4, seed=5)
        up = rng.standard_normal((3, 4))
        gT, gq, gk, gv = attention_backward(T, params, up)

        def loss(t, wq, wk, wv):
            p = AttentionParams(wq, wk, wv)
            return float(np.sum(up * attention_forward(t, p)))

        h = 1e-5
        for analytic, pick in [
            (gT, lambda d: loss(T + d, params.w_query, params.w_key, params.w_value)),
            (gq, lambda d: loss(T, params.w_query + d, params.w_key, params.w_value)),
            (gk, lambda d: loss(T, params.w_query, params.w_key + d, params.w_value)),
            (gv, lambda d: loss(T, params.w_query, params.w_key, params.w_value + d)),
        ]:
            fd = np.zeros_like(analytic)
            for idx in np.ndindex(analytic.shape):
                d = np.zeros_like(analytic)
                d[idx] = h
                fd[idx] = (pick(d) - pick(-d)) / (2 * h)
            denom = max(np.abs(fd).max(), 1e-12)
            assert np.abs(analytic - fd).max() / denom < 1e-4


class TestFrozenEncoder:
    def test_deterministic_unit_norm(self):
        rng = np.random.default_rng(57)
        enc = FrozenEncoder.seeded(8, 6, seed=0)
        T = rng.standard_normal((4, 8))
        a = enc.encode(T)
        b = enc.encode(T.copy())
        np.testing.assert_array_equal(a, b)
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)

    def test_prenormalization_linearity(self):
        rng = np.random.default_rng(58)
        enc = FrozenEncoder.seeded(8, 6, seed=1)
        t1 = rng.standard_normal((3, 8))
        t2 = rng.standard_normal((3, 8))

        def pre(t):
            return t.mean(axis=0) @ enc.projection + enc.bias

        avg = pre(0.5 * (t1 + t2))
        np.testing.assert_allclose(avg, 0.5 * (pre(t1) + pre(t2)) - 0.0 * enc.bias,
                                   atol=1e-12)

    def test_degenerate_raises(self):
        enc = FrozenEncoder(projection=np.eye(4), bias=np.zeros(4))
        with pytest.raises(ValueError, match="degenerate encoding"):
            enc.encode(np.zeros((2, 4)))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(59)
        enc = FrozenEncoder.seeded(6, 5, seed=2)
        T = rng.standard_normal((3, 6))
        up = rng.standard_normal(5)
        g = enc.encode_backward(T, up)
        h = 1e-6
        fd = np.zeros_like(T)
        for idx in np.ndindex(T.shape):
            d = np.zeros_like(T)
            d[idx] = h
            fd[idx] = (float(up @ enc.encode(T + d)) - float(up @ enc.encode(T - d))) / (2 * h)
        assert np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-12) < 1e-4


class TestStacks:
    """A (P, L, d) stack through a layer equals P one-matrix calls."""

    def setup_method(self):
        rng = np.random.default_rng(60)
        self.stack = rng.standard_normal((3, 5, 8))
        self.params = AttentionParams.seeded(8, 8, seed=6)
        self.enc = FrozenEncoder.seeded(8, 6, seed=7)
        self.up_tokens = rng.standard_normal((3, 5, 8))
        self.up_code = rng.standard_normal((3, 6))

    def test_forward_is_bitwise_per_matrix(self):
        att = attention_forward(self.stack, self.params)
        code = self.enc.encode(self.stack)
        assert att.shape == self.stack.shape and code.shape == (3, 6)
        for p, T in enumerate(self.stack):
            assert att[p].tobytes() == attention_forward(T, self.params).tobytes()
            assert code[p].tobytes() == self.enc.encode(T).tobytes()

    def test_encode_backward_is_per_matrix(self):
        g = self.enc.encode_backward(self.stack, self.up_code)
        assert g.shape == self.stack.shape
        for p, T in enumerate(self.stack):
            one = self.enc.encode_backward(T, self.up_code[p])
            np.testing.assert_allclose(g[p], one, rtol=1e-12, atol=0)

    def test_attention_backward_sums_weight_gradients(self):
        g_tok, *g_w = attention_backward(self.stack, self.params, self.up_tokens)
        singles = [attention_backward(T, self.params, U)
                   for T, U in zip(self.stack, self.up_tokens)]
        for p, one in enumerate(singles):
            np.testing.assert_allclose(g_tok[p], one[0], rtol=1e-12, atol=0)
        for j, total in enumerate(g_w, start=1):
            want = sum(one[j] for one in singles)
            rel = np.abs(total - want).max() / np.abs(want).max()
            assert rel < 1e-12, f"weight gradient {j}: relative error {rel:.2e}"

    def test_rejects_other_ranks(self):
        with pytest.raises(ValueError, match=r"\(P, L, d\), got ndim=4"):
            self.enc.encode(self.stack[None])
        with pytest.raises(ValueError, match="non-finite"):
            attention_forward(np.full((2, 5, 8), np.nan), self.params)


def make_bank(classes=("cat", "dog"), seed=0, **kw):
    descs = {c: [f"{c} text one", f"{c} text two", f"{c} text three", f"{c} text four"]
             for c in classes}
    kw.setdefault("context_length", 4)
    kw.setdefault("token_dim", 8)
    return build_prompt_bank(list(classes), descs, num_shared_prompts=2,
                             seed=seed, **kw)


class TestPromptBank:
    @pytest.mark.parametrize("name", ["num_shared_prompts", "num_class_prompts",
                                      "context_length", "token_dim"])
    @pytest.mark.parametrize("gpt_init", [True, False])
    def test_sizes_below_one_are_rejected(self, name, gpt_init):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
            build_prompt_bank(["cat", "dog"], gpt_init=gpt_init, **{name: 0})

    def test_build_deterministic_bitwise(self):
        a = make_bank(seed=5)
        b = make_bank(seed=5)
        np.testing.assert_array_equal(a.shared_tokens, b.shared_tokens)
        np.testing.assert_array_equal(a.class_tokens, b.class_tokens)
        np.testing.assert_array_equal(a.class_words, b.class_words)
        np.testing.assert_array_equal(a.attention.w_query, b.attention.w_query)

    def test_embedding_shapes(self):
        bank = make_bank()
        enc = FrozenEncoder.seeded(8, 16, seed=0)
        e = encode_classes(bank, enc)
        g_ds, g_cs = e["ds"], e["cs"]
        assert g_ds.shape == (2, 2, 16)
        assert g_cs.shape == (2, 4, 16)
        np.testing.assert_allclose(np.linalg.norm(g_ds, axis=2), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(g_cs, axis=2), 1.0, atol=1e-12)

    def test_shared_path_differs_only_by_class_word(self):
        bank = make_bank()
        enc = FrozenEncoder.seeded(8, 16, seed=0)
        g_cat, g_dog = encode_classes(bank, enc)["ds"]
        assert np.abs(g_cat - g_dog).max() > 1e-6
        # same class word would give identical embeddings
        bank.class_words[1] = bank.class_words[0]
        g_dog2 = encode_classes(bank, enc)["ds"][1]
        np.testing.assert_array_equal(g_cat, g_dog2)

    def test_attention_touches_only_class_path(self):
        bank = make_bank()
        enc = FrozenEncoder.seeded(8, 16, seed=0)
        e1 = encode_classes(bank, enc)
        bank.attention.w_query += 0.5
        e2 = encode_classes(bank, enc)
        np.testing.assert_array_equal(e1["ds"], e2["ds"])
        assert np.abs(e1["cs"] - e2["cs"]).max() > 1e-9

    @pytest.mark.parametrize("use_attention", [True, False])
    def test_one_class_view_equals_its_row_of_the_bank(self, use_attention):
        bank = make_bank(classes=("cat", "dog", "owl"), use_attention=use_attention)
        enc = FrozenEncoder.seeded(8, 16, seed=0)
        e = encode_classes(bank, enc)
        assert e["ds"].shape == (3, 2, 16) and e["cs"].shape == (3, 4, 16)
        for k, c in enumerate(bank.classes):
            view = dataclasses.replace(bank, classes=[c],
                                       class_tokens=bank.class_tokens[k:k + 1],
                                       class_words=bank.class_words[k:k + 1])
            one = encode_classes(view, enc)
            for tag in ("cs", "ds"):
                assert one[tag].shape == (1, *e[tag].shape[1:])
                assert e[tag][k].tobytes() == one[tag][0].tobytes()

    @pytest.mark.parametrize("paths", [("xs",), ("cs", "xs"), ("ds", "xs")])
    def test_unknown_path_raises(self, paths):
        bank = make_bank()
        enc = FrozenEncoder.seeded(8, 16, seed=0)
        with pytest.raises(ValueError, match="^unknown prompt path: 'xs'$"):
            encode_classes(bank, enc, paths)

    # each row changes the fields of a valid 2-class bank (d_tok = 8)
    @pytest.mark.parametrize("change, message", [
        (lambda b: {"shared_tokens": b.shared_tokens[0]}, "token tensors have wrong rank"),
        (lambda b: {"class_tokens": b.class_tokens[0]}, "token tensors have wrong rank"),
        (lambda b: {"class_words": b.class_words[:1]},
         "class token count does not match class list"),
        (lambda b: {"class_tokens": b.class_tokens[..., :7]},
         "token dimension mismatch across the bank"),
        (lambda b: {"class_words": b.class_words[:, :7]},
         "token dimension mismatch across the bank"),
        (lambda b: {"attention": AttentionParams.seeded(8, 4, 0)},
         r"attention must be square \(d_k == d_tok\)"),
        (lambda b: {"trainable": ("shared_tokens", "encoder")},
         r"unknown trainable groups: \['encoder'\]"),
    ])
    def test_inconsistent_bank_rejected(self, change, message):
        bank = make_bank()
        with pytest.raises(ValueError, match=f"^{message}$"):
            dataclasses.replace(bank, **change(bank))

    def test_non_square_attention_accepted_without_the_adapter(self):
        bank = make_bank(use_attention=False)
        narrow = AttentionParams.seeded(8, 4, 0)
        assert dataclasses.replace(bank, attention=narrow).attention is narrow

    def test_random_init_same_shape(self):
        a = make_bank()
        b = build_prompt_bank(["cat", "dog"], None, num_shared_prompts=2,
                              num_class_prompts=4, context_length=4, token_dim=8,
                              gpt_init=False)
        assert b.class_tokens.shape == a.class_tokens.shape
        assert np.abs(a.class_tokens - b.class_tokens).max() > 1e-3

    def test_trainable_count_independent_of_classes(self):
        small = make_bank(classes=("a", "b"))
        big = make_bank(classes=("a", "b", "c", "d", "e"))
        assert count_trainable(small) == count_trainable(big)
        # but class tokens scale with K when unfrozen
        small2 = make_bank(classes=("a", "b"), trainable=("class_tokens",))
        big2 = make_bank(classes=("a", "b", "c", "d", "e"),
                         trainable=("class_tokens",))
        assert count_trainable(big2) == count_trainable(small2) * 5 // 2

    def test_missing_description_rejected(self):
        descs = {"cat": ["a", "b", "c", "d"]}
        with pytest.raises(ValueError, match="no descriptions"):
            build_prompt_bank(["cat", "dog"], descs, token_dim=8, context_length=4)

    def test_missing_descriptions_fall_back_to_synthetic_texts(self):
        classes = ["owl", "cat", "dog"]
        sizes = dict(num_class_prompts=3, context_length=4, token_dim=8, seed=5)
        fallback = build_prompt_bank(classes, None, gpt_init=True, **sizes)
        texts = synth_description_texts(classes, seed=5, count=3)
        explicit = build_prompt_bank(classes, texts, gpt_init=True, **sizes)
        assert fallback.class_tokens.shape == (3, 3, 4, 8)
        assert fallback.class_tokens.tobytes() == explicit.class_tokens.tobytes()

    def test_class_prompt_count_must_match_descriptions(self):
        classes = ["owl", "cat"]
        sizes = dict(context_length=4, token_dim=8)
        texts = synth_description_texts(classes, count=4)
        with pytest.raises(ValueError, match="schema violation: num_class_prompts is 2, "
                                             "but each class has 4 descriptions"):
            build_prompt_bank(classes, texts, num_class_prompts=2, **sizes)
        # None takes the count from the texts, and means 4 where nothing sets it
        unset = build_prompt_bank(classes, texts, **sizes)
        assert unset.class_tokens.tobytes() == build_prompt_bank(
            classes, texts, num_class_prompts=4, **sizes).class_tokens.tobytes()
        assert build_prompt_bank(classes, None, **sizes).class_tokens.shape[1] == 4
        assert build_prompt_bank(classes, None, gpt_init=False,
                                 **sizes).class_tokens.shape[1] == 4

    def test_one_word_vector_per_distinct_word(self, monkeypatch):
        # class names recur in their texts and differ in case from them;
        # short texts pad, long ones truncate past context_length
        classes = ["Owl", "cat"]
        descs = {"Owl": ["an owl at night", "OWL"],
                 "cat": ["a Cat on a mat near a small owl", "the cat"]}
        sizes = dict(context_length=4, token_dim=8, seed=3)
        calls = []
        word_vector = prompts_mod._word_vector

        def counted(word, d_tok, seed):
            calls.append(word.lower())
            return word_vector(word, d_tok, seed)

        monkeypatch.setattr(prompts_mod, "_word_vector", counted)
        bank = build_prompt_bank(classes, descs, **sizes)
        monkeypatch.undo()
        # "mat" and what follows it lie past context_length
        words = {"owl", "cat", "an", "at", "night", "a", "on", "the", prompts_mod._PAD_WORD}
        assert sorted(calls) == sorted(words)
        # bitwise what computing every word position afresh gives
        def fresh(text):
            words = (text.lower().split() + [prompts_mod._PAD_WORD] * 4)[:4]
            return [prompts_mod._word_vector(w, 8, 3) for w in words]

        want_tokens = np.array([[fresh(t) for t in descs[c]] for c in classes])
        want_words = np.array([prompts_mod._word_vector(c, 8, 3) for c in classes])
        assert bank.class_tokens.tobytes() == want_tokens.tobytes()
        assert bank.class_words.tobytes() == want_words.tobytes()
        # the memo lives for one call: a second bank computes its words again
        monkeypatch.setattr(prompts_mod, "_word_vector", counted)
        build_prompt_bank(classes, descs, **sizes)
        assert len(calls) == 2 * len(words)

    @pytest.mark.parametrize("gpt_init", [True, False])
    def test_duplicate_class_rejected(self, gpt_init):
        with pytest.raises(ValueError, match="schema violation: duplicate class 'cat'"):
            build_prompt_bank(["cat", "dog", "cat"], None, token_dim=8,
                              context_length=4, gpt_init=gpt_init)


class TestEncodeClassesBackward:
    CLASSES = ["cat", "dog", "owl"]

    def setup_case(self, use_attention, paths):
        bank = make_bank(self.CLASSES, seed=3, context_length=3, token_dim=6,
                         use_attention=use_attention)
        encoder = FrozenEncoder.seeded(6, 5, seed=4)
        rng = np.random.default_rng(57)
        grad_g = {tag: rng.standard_normal(g.shape)
                  for tag, g in encode_classes(bank, encoder, paths).items()}
        return bank, encoder, grad_g

    @pytest.mark.parametrize("paths", [("cs", "ds"), ("cs",), ("ds",)])
    @pytest.mark.parametrize("use_attention", [True, False])
    def test_matches_finite_differences(self, use_attention, paths):
        """Central differences of sum_tag <grad_g[tag], g[tag]>, every returned array."""
        bank, encoder, grad_g = self.setup_case(use_attention, paths)
        grads = encode_classes_backward(bank, encoder, grad_g)
        want = set()
        if "cs" in paths:
            want |= {"class_tokens"}
            if use_attention:
                want |= {"attention.w_query", "attention.w_key", "attention.w_value"}
        if "ds" in paths:
            want |= {"shared_tokens"}
        assert set(grads) == want
        arrays = bank.arrays()
        for name, grad in grads.items():
            p = arrays[name]
            orig = p.copy()
            assert grad.shape == p.shape

            def objective(x):
                p[...] = x
                try:
                    encoded = encode_classes(bank, encoder, paths)
                    return sum(float(np.sum(up * encoded[tag]))
                               for tag, up in grad_g.items())
                finally:
                    p[...] = orig

            fd = finite_diff_grad(objective, orig, step=1e-6)
            rel = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
            assert rel < 1e-6, f"{name}: relative gradient error {rel:.2e}"

    def test_unknown_path_raises(self):
        bank, encoder, grad_g = self.setup_case(True, ("cs", "ds"))
        with pytest.raises(ValueError, match="^unknown prompt path: 'xs'$"):
            encode_classes_backward(bank, encoder, {"xs": grad_g["cs"]})


class TestSynthDescriptions:
    def test_files_parse_and_match_manifest(self, tmp_path):
        classes = ["class_0", "class_1", "class_2"]
        result = synth_description_texts(classes, seed=4)
        manifest = {}
        for c in classes:
            doc = {"class_name": c, "description": result[c]}
            (tmp_path / f"{c}.json").write_text(json.dumps(doc))
            manifest[c] = f"{c}.json"
        (tmp_path / "descriptions.json").write_text(json.dumps(manifest))
        loaded = load_description_manifest(tmp_path / "descriptions.json")
        assert loaded == result
        assert all(len(texts) == 4 for texts in loaded.values())

    def test_deterministic(self):
        a = synth_description_texts(["x", "y"], seed=9)
        b = synth_description_texts(["y", "x"], seed=9)
        assert a["x"] == b["x"]
        c = synth_description_texts(["x", "y"], seed=8)
        assert a["x"] != c["x"]

    def test_rendered_prompt_contains_task_line(self):
        text = render_description_prompt("tabby cat")
        assert "Generate 4 descriptions about different key appearance features" in text
        assert text.rstrip().endswith("tabby cat")
