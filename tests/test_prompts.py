import json

import numpy as np
import pytest

from conftest import count_trainable
from uotalign.prompts import (
    AttentionParams,
    FrozenEncoder,
    attention_backward,
    attention_forward,
    build_prompt_bank,
    encode_class,
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
        df = parse_descriptions(p)
        assert df.class_name == "cat"
        assert len(df.descriptions) == 4

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
            df = parse_descriptions(p)
        assert len(df.descriptions) == 2

    def test_verbatim_text_preserved(self, tmp_path):
        text = ("A fluffy British Shorthair cat lounges on a cozy armchair, "
                "eyes half-closed in contentment.")
        p = tmp_path / "british shorthair.json"
        p.write_text(json.dumps({"class_name": "british shorthair",
                                 "description": [text, "b", "c", "d"]}))
        df = parse_descriptions(p)
        assert df.descriptions[0] == text

    def test_class_name_falls_back_to_stem(self, tmp_path):
        p = tmp_path / "lynx.json"
        p.write_text(json.dumps({"description": ["a", "b", "c", "d"]}))
        assert parse_descriptions(p).class_name == "lynx"


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
            _, A = attention_forward(rng.standard_normal((5, 8)), params,
                                     return_weights=True)
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


def make_bank(classes=("cat", "dog"), seed=0, **kw):
    descs = {c: __import__("uotalign.prompts", fromlist=["DescriptionFile"])
             .DescriptionFile(class_name=c,
                              descriptions=[f"{c} text one", f"{c} text two",
                                            f"{c} text three", f"{c} text four"])
             for c in classes}
    kw.setdefault("context_length", 4)
    kw.setdefault("token_dim", 8)
    return build_prompt_bank(list(classes), descs, num_shared_prompts=2,
                             seed=seed, **kw)


class TestPromptBank:
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
        e = encode_class(bank, "cat", enc)
        g_ds, g_cs = e.g_ds, e.g_cs
        assert g_ds.shape == (2, 16)
        assert g_cs.shape == (4, 16)
        np.testing.assert_allclose(np.linalg.norm(g_ds, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(g_cs, axis=1), 1.0, atol=1e-12)

    def test_unknown_class_raises(self):
        bank = make_bank()
        enc = FrozenEncoder.seeded(8, 16, seed=0)
        with pytest.raises(ValueError, match="unknown class"):
            encode_class(bank, "bird", enc)

    def test_shared_path_differs_only_by_class_word(self):
        bank = make_bank()
        enc = FrozenEncoder.seeded(8, 16, seed=0)
        g_cat = encode_class(bank, "cat", enc).g_ds
        g_dog = encode_class(bank, "dog", enc).g_ds
        assert np.abs(g_cat - g_dog).max() > 1e-6
        # same class word would give identical embeddings
        bank.class_words[1] = bank.class_words[0]
        g_dog2 = encode_class(bank, "dog", enc).g_ds
        np.testing.assert_array_equal(g_cat, g_dog2)

    def test_attention_touches_only_class_path(self):
        bank = make_bank()
        enc = FrozenEncoder.seeded(8, 16, seed=0)
        e1 = encode_class(bank, "cat", enc)
        bank.attention.w_query += 0.5
        e2 = encode_class(bank, "cat", enc)
        np.testing.assert_array_equal(e1.g_ds, e2.g_ds)
        assert np.abs(e1.g_cs - e2.g_cs).max() > 1e-9

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
        descs = {"cat": __import__("uotalign.prompts", fromlist=["DescriptionFile"])
                 .DescriptionFile("cat", ["a", "b", "c", "d"])}
        with pytest.raises(ValueError, match="no descriptions"):
            build_prompt_bank(["cat", "dog"], descs, token_dim=8, context_length=4)


class TestSynthDescriptions:
    def test_files_parse_and_match_manifest(self, tmp_path):
        classes = ["class_0", "class_1", "class_2"]
        result = synth_description_texts(classes, seed=4)
        manifest = {}
        for c in classes:
            doc = {"class_name": c, "description": result[c].descriptions}
            (tmp_path / f"{c}.json").write_text(json.dumps(doc))
            manifest[c] = f"{c}.json"
        (tmp_path / "descriptions.json").write_text(json.dumps(manifest))
        loaded = load_description_manifest(tmp_path / "descriptions.json")
        assert set(loaded) == set(classes)
        for c in classes:
            assert loaded[c].descriptions == result[c].descriptions
            assert len(loaded[c].descriptions) == 4

    def test_deterministic(self):
        a = synth_description_texts(["x", "y"], seed=9)
        b = synth_description_texts(["y", "x"], seed=9)
        assert a["x"].descriptions == b["x"].descriptions
        c = synth_description_texts(["x", "y"], seed=8)
        assert a["x"].descriptions != c["x"].descriptions

    def test_rendered_prompt_contains_task_line(self):
        text = render_description_prompt("tabby cat")
        assert "Generate 4 descriptions about different key appearance features" in text
        assert text.rstrip().endswith("tabby cat")
