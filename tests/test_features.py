import json
import re

import numpy as np
import pytest

from uotalign.features import (
    DatasetManifest,
    FeatureSet,
    SampleRecord,
    augment,
    load_feature_set,
    load_manifest,
    load_split,
    read_embedding_file,
    read_json_object,
    save_manifest,
    synth_dataset,
    write_embedding_file,
)
from uotalign.cli import load_config
from uotalign.prompts import load_description_manifest, parse_descriptions


def unit_rows(rng, m, d):
    f = rng.standard_normal((m, d))
    return f / np.linalg.norm(f, axis=1, keepdims=True)


class TestFeatureSet:
    def test_sample_id_and_label_are_keyword_only(self):
        rng = np.random.default_rng(39)
        F = unit_rows(rng, 3, 4)
        with pytest.raises(TypeError):
            FeatureSet(F, np.full(3, 1 / 3))
        fs = FeatureSet(F, sample_id="s", label="a")
        assert (fs.sample_id, fs.label) == ("s", "a")


class TestEmbeddingFile:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(40)
        mat = rng.standard_normal((49, 32)).astype(np.float32).astype(np.float64)
        p = tmp_path / "a.emb1"
        write_embedding_file(p, mat)
        got = read_embedding_file(p)
        np.testing.assert_array_equal(got, mat)
        # writing what we read reproduces the file byte for byte
        p2 = tmp_path / "b.emb1"
        write_embedding_file(p2, got)
        assert p.read_bytes() == p2.read_bytes()

    def test_zero_byte_file(self, tmp_path):
        p = tmp_path / "empty.emb1"
        p.write_bytes(b"")
        with pytest.raises(ValueError, match="corrupt file"):
            read_embedding_file(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.emb1"
        p.write_bytes(b"NOPE" + bytes(8))
        with pytest.raises(ValueError, match="not an embedding file"):
            read_embedding_file(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "short.emb1"
        header = b"EMB1" + np.array([2, 2], dtype="<u4").tobytes()
        p.write_bytes(header + np.zeros(3, dtype="<f4").tobytes())
        with pytest.raises(ValueError, match="corrupt file"):
            read_embedding_file(p)

    def test_nonfinite_payload(self, tmp_path):
        p = tmp_path / "nan.emb1"
        header = b"EMB1" + np.array([1, 2], dtype="<u4").tobytes()
        p.write_bytes(header + np.array([1.0, np.nan], dtype="<f4").tobytes())
        with pytest.raises(ValueError, match="invalid payload"):
            read_embedding_file(p)

    def test_load_feature_set_renormalizes(self, tmp_path):
        rng = np.random.default_rng(41)
        mat = unit_rows(rng, 8, 16)
        p = tmp_path / "f.emb1"
        write_embedding_file(p, mat)  # float32 rounds norms off 1
        fs = load_feature_set(p, sample_id="s0")
        np.testing.assert_allclose(np.linalg.norm(fs.features, axis=1), 1.0, atol=1e-15)


class TestManifest:
    def test_round_trip(self, tmp_path):
        m = DatasetManifest(
            classes=["a", "b"],
            samples=[SampleRecord("a_0", "a", "embeddings/a_0.emb1", "train"),
                     SampleRecord("b_0", "b", "embeddings/b_0.emb1", "test")],
            shots=2, seed=7)
        save_manifest(m, tmp_path / "manifest.json")
        got = load_manifest(tmp_path / "manifest.json")
        assert got.classes == m.classes
        assert got.shots == 2 and got.seed == 7
        assert [s.sample_id for s in got.samples] == ["a_0", "b_0"]
        assert got.root == tmp_path

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown class"):
            DatasetManifest(classes=["a"],
                            samples=[SampleRecord("x", "zz", "p", "train")],
                            shots=1, seed=0)

    def test_missing_key_rejected(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"classes": [], "samples": []}')
        with pytest.raises(ValueError, match="schema violation"):
            load_manifest(p)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"classes": [], "samples": [], "shots": 1, "seed": 0, "extra": 1}')
        with pytest.raises(ValueError, match="schema violation"):
            load_manifest(p)

    @pytest.mark.parametrize("key,value", [
        ("shots", "4"), ("shots", 2.9), ("shots", True), ("seed", True),
        ("seed", 1.0), ("seed", None), ("classes", "ab"), ("classes", ["a", 1]),
        ("classes", {"a": 1}), ("samples", 5)])
    def test_mistyped_field_rejected(self, tmp_path, key, value):
        doc = {"classes": ["a", "b"], "samples": [], "shots": 1, "seed": 0, key: value}
        p = tmp_path / "m.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"schema violation: .* {key} must be"):
            load_manifest(p)

    def test_duplicate_class_rejected(self, tmp_path):
        m = synth_dataset(tmp_path / "d", num_classes=4, per_class=2, tokens=3,
                          dim=4, separation=1.0, seed=0)
        doc = json.loads((tmp_path / "d" / "manifest.json").read_text())
        doc["classes"] = m.classes + ["class_0"]
        p = tmp_path / "m.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError,
                           match="schema violation: duplicate class 'class_0'"):
            load_manifest(p)

    @pytest.mark.parametrize("key,value", [
        ("id", 5), ("class", None), ("path", 5), ("split", ["train"])])
    def test_mistyped_sample_record_field_rejected(self, tmp_path, key, value):
        record = {"id": "a_0", "class": "a", "path": "a_0.emb1", "split": "train"}
        doc = {"classes": ["a"], "samples": [dict(record, **{key: value})],
               "shots": 1, "seed": 0}
        p = tmp_path / "m.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(
                f"schema violation: {p} sample record field {key!r} must be a string")):
            load_manifest(p)


class TestReadJsonObject:
    @pytest.mark.parametrize("text,reason", [
        ("{nope", "is not valid JSON ("), ("[1, 2]", "top level must be an object"),
        ("null", "top level must be an object")])
    def test_rejects_with_the_path(self, tmp_path, text, reason):
        p = tmp_path / "x.json"
        p.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"schema violation: {p} {reason}")):
            read_json_object(p)

    @pytest.mark.parametrize("load, text, literal", [
        (load_config, '{"gamma_cs": NaN}', "NaN"),
        (load_config, '{"tau": Infinity}', "Infinity"),
        (load_config, '{"augmentation": [NaN, 0.1]}', "NaN"),
        (load_manifest, '{"classes": [], "samples": [], "shots": 1, "seed": -Infinity}',
         "-Infinity"),
        (parse_descriptions, '{"description": ["a"], "class_name": NaN}', "NaN"),
        (load_description_manifest, '{"cat": Infinity}', "Infinity"),
    ])
    def test_non_json_literals_are_schema_violations(self, tmp_path, load, text, literal):
        # json.loads accepts these by default; no reader of this package may
        p = tmp_path / "x.json"
        p.write_text(text)
        with pytest.raises(ValueError, match=re.escape(
                f"schema violation: {p} has the non-JSON literal {literal}")):
            load(p)


class TestSynthDataset:
    def test_deterministic_files(self, tmp_path):
        m1 = synth_dataset(tmp_path / "d1", num_classes=2, per_class=4, tokens=4,
                           dim=8, separation=2.0, seed=5)
        m2 = synth_dataset(tmp_path / "d2", num_classes=2, per_class=4, tokens=4,
                           dim=8, separation=2.0, seed=5)
        for s1, s2 in zip(m1.samples, m2.samples):
            b1 = (tmp_path / "d1" / s1.path).read_bytes()
            b2 = (tmp_path / "d2" / s2.path).read_bytes()
            assert b1 == b2
        assert (tmp_path / "d1" / "manifest.json").read_text() == \
            (tmp_path / "d2" / "manifest.json").read_text()

    def test_high_separation_nearest_centroid(self, tmp_path):
        m = synth_dataset(tmp_path / "sep", num_classes=3, per_class=100, tokens=4,
                          dim=16, separation=10.0, seed=3)
        anchors = {}
        feats = {}
        for rec in m.samples:
            fs = load_feature_set(tmp_path / "sep" / rec.path, label=rec.label)
            mean = fs.features.mean(axis=0)
            feats[rec.sample_id] = (mean, rec.label)
            anchors.setdefault(rec.label, []).append(mean)
        centroids = {c: np.mean(v, axis=0) for c, v in anchors.items()}
        names = sorted(centroids)
        cmat = np.array([centroids[c] for c in names])
        correct = sum(
            names[int(np.argmax(cmat @ mean))] == label
            for mean, label in feats.values()
        )
        assert correct / len(feats) >= 0.99

    def test_zero_separation_no_signal(self, tmp_path):
        m = synth_dataset(tmp_path / "flat", num_classes=2, per_class=30, tokens=4,
                          dim=16, separation=0.0, seed=9)
        # mean within-class cosine should be near zero, same as cross-class
        per_class = {}
        for rec in m.samples:
            fs = load_feature_set(tmp_path / "flat" / rec.path, label=rec.label)
            per_class.setdefault(rec.label, []).append(fs.features.mean(axis=0))
        a, b = (np.array(v) for v in per_class.values())
        within = (a @ a.T)[np.triu_indices(len(a), 1)].mean()
        across = (a @ b.T).mean()
        assert abs(within - across) < 0.1

    def test_split_partition(self, tmp_path):
        m = synth_dataset(tmp_path / "sp", num_classes=2, per_class=20, tokens=3,
                          dim=8, separation=1.0, seed=1)
        for cls in m.classes:
            per = [s for s in m.samples if s.label == cls]
            tr = [s for s in per if s.split == "train"]
            va = [s for s in per if s.split == "val"]
            te = [s for s in per if s.split == "test"]
            assert (len(tr), len(va), len(te)) == (10, 5, 5)

    def test_loaded_split(self, tmp_path):
        m = synth_dataset(tmp_path / "ls", num_classes=2, per_class=4, tokens=3,
                          dim=8, separation=1.0, seed=2)
        train = load_split(m, "train")
        assert all(fs.label in m.classes for fs in train)
        assert len(train) == 4  # 2 per class

    @pytest.mark.parametrize("separation", [float("nan"), float("inf")])
    def test_rejects_non_finite_separation(self, tmp_path, separation):
        # NaN fails every comparison, so a `< 0` check alone lets it through
        with pytest.raises(ValueError, match="^separation must be finite and >= 0$"):
            synth_dataset(tmp_path / "d", separation=separation)
        assert not (tmp_path / "d").exists()

    def test_split_needs_a_root(self):
        m = DatasetManifest(classes=["a"],
                            samples=[SampleRecord("a_0", "a", "a_0.emb1", "train")],
                            shots=1, seed=0)
        with pytest.raises(ValueError, match="no root directory"):
            load_split(m, "train")


class TestAugment:
    def test_identity(self):
        rng = np.random.default_rng(42)
        fs = FeatureSet(unit_rows(rng, 5, 8), sample_id="x")
        out = augment(fs, jitter_sigma=0.0, drop_prob=0.0, rng_seed=0)
        np.testing.assert_array_equal(out.features, fs.features)

    def test_at_least_one_survivor(self):
        rng = np.random.default_rng(44)
        fs = FeatureSet(unit_rows(rng, 4, 8), sample_id="x")
        for seed in range(200):
            out = augment(fs, jitter_sigma=0.0, drop_prob=0.95, rng_seed=seed)
            assert 1 <= out.num_tokens <= 4

    @pytest.mark.parametrize("drop", [0.0, 0.05, 0.1, 0.3, 0.5, 0.95])
    def test_drops_a_fixed_count_of_rows(self, drop):
        # round half to even: 0.5 * 49 = 24.5 drops 24 rows, 0.5 * 5 drops 2
        for M in range(1, 61):
            rng = np.random.default_rng([50, M])
            fs = FeatureSet(unit_rows(rng, M, 4), sample_id="x")
            for seed in range(3):
                out = augment(fs, jitter_sigma=0.0, drop_prob=drop, rng_seed=[M, seed])
                assert out.num_tokens == M - min(round(drop * M), M - 1), (M, seed)
                # the survivors are rows of the input, in their original order
                rows = [int(np.flatnonzero((fs.features == r).all(axis=1))[0])
                        for r in out.features]
                assert rows == sorted(set(rows))

    def test_jitter_keeps_rows_close(self):
        rng = np.random.default_rng(45)
        fs = FeatureSet(unit_rows(rng, 10000, 32), sample_id="mc")
        out = augment(fs, jitter_sigma=0.1, drop_prob=0.0, rng_seed=11)
        mean_cos = np.mean(np.sum(fs.features * out.features, axis=1))
        assert mean_cos > 0.9

    def test_preserves_shape_and_ids(self):
        rng = np.random.default_rng(46)
        fs = FeatureSet(unit_rows(rng, 6, 8), sample_id="s9", label="cat")
        out = augment(fs, jitter_sigma=0.2, drop_prob=0.3, rng_seed=1)
        assert out.dim == fs.dim and 1 <= out.num_tokens < fs.num_tokens
        assert out.sample_id == "s9" and out.label == "cat"

    @pytest.mark.parametrize("M", [8, 49])
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_jittered_rows_with_dropped_rows_removed(self, M, seed):
        """augment returns bitwise the rows of a reference that jitters
        every row, then removes the rows its drop draw names."""
        rng = np.random.default_rng([49, M, seed])
        fs = FeatureSet(unit_rows(rng, M, 16), sample_id="x")
        jitter, drop = 0.05, 0.3
        out = augment(fs, jitter, drop, [seed, 3])

        ref_rng = np.random.default_rng([seed, 3])
        F = fs.features + jitter / np.sqrt(16) * ref_rng.standard_normal((M, 16))
        F = F / np.linalg.norm(F, axis=1)[:, None]
        keep = np.ones(M, dtype=bool)
        keep[ref_rng.choice(M, round(drop * M), replace=False)] = False
        assert np.array_equal(out.features, F[keep])

    def test_deterministic(self):
        rng = np.random.default_rng(47)
        fs = FeatureSet(unit_rows(rng, 5, 8), sample_id="x")
        a = augment(fs, jitter_sigma=0.3, drop_prob=0.4, rng_seed=123)
        b = augment(fs, jitter_sigma=0.3, drop_prob=0.4, rng_seed=123)
        np.testing.assert_array_equal(a.features, b.features)

    def test_invalid_params(self):
        rng = np.random.default_rng(48)
        fs = FeatureSet(unit_rows(rng, 2, 4), sample_id="x")
        with pytest.raises(ValueError, match="drop_prob"):
            augment(fs, 0.1, 1.0, 0)
        with pytest.raises(ValueError, match="jitter_sigma"):
            augment(fs, -0.1, 0.0, 0)

    @pytest.mark.parametrize("jitter", [float("nan"), float("inf"), -0.1])
    def test_rejects_non_finite_or_negative_jitter(self, jitter):
        # NaN fails both `< 0` and `> 0`, so it would skip the jitter silently
        rng = np.random.default_rng(49)
        fs = FeatureSet(unit_rows(rng, 4, 8), sample_id="x")
        with pytest.raises(ValueError, match="^jitter_sigma must be finite and >= 0$"):
            augment(fs, jitter, 0.0, [1])
