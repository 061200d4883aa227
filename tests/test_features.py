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
    save_manifest,
    synth_dataset,
    write_embedding_file,
)


def unit_rows(rng, m, d):
    f = rng.standard_normal((m, d))
    return f / np.linalg.norm(f, axis=1, keepdims=True)


class TestFeatureSet:
    @pytest.mark.parametrize("w", [[0.5, 0.5, 0.0], [0.75, 0.5, -0.25]])
    def test_rejects_nonpositive_weight(self, w):
        rng = np.random.default_rng(39)
        with pytest.raises(ValueError, match="token weights must be positive"):
            FeatureSet(unit_rows(rng, 3, 4), np.array(w))


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
        np.testing.assert_allclose(fs.weights, 1.0 / 8, atol=1e-15)


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

    def test_split_needs_a_root(self):
        m = DatasetManifest(classes=["a"],
                            samples=[SampleRecord("a_0", "a", "a_0.emb1", "train")],
                            shots=1, seed=0)
        with pytest.raises(ValueError, match="no root directory"):
            load_split(m, "train")


class TestAugment:
    def test_identity(self):
        rng = np.random.default_rng(42)
        fs = FeatureSet(unit_rows(rng, 5, 8), np.full(5, 0.2), sample_id="x")
        out = augment(fs, jitter_sigma=0.0, drop_prob=0.0, rng_seed=0)
        np.testing.assert_array_equal(out.features, fs.features)
        np.testing.assert_array_equal(out.weights, fs.weights)

    def test_weights_renormalized(self):
        rng = np.random.default_rng(43)
        fs = FeatureSet(unit_rows(rng, 49, 8), np.full(49, 1 / 49), sample_id="x")
        out = augment(fs, jitter_sigma=0.0, drop_prob=0.5, rng_seed=7)
        assert out.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert 0 < out.num_tokens < 49
        assert out.weights.shape == (out.num_tokens,)

    def test_at_least_one_survivor(self):
        rng = np.random.default_rng(44)
        fs = FeatureSet(unit_rows(rng, 4, 8), np.array([0.1, 0.5, 0.2, 0.2]),
                        sample_id="x")
        for seed in range(200):
            out = augment(fs, jitter_sigma=0.0, drop_prob=0.95, rng_seed=seed)
            assert out.weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert 1 <= out.num_tokens <= 4

    def test_jitter_keeps_rows_close(self):
        rng = np.random.default_rng(45)
        fs = FeatureSet(unit_rows(rng, 10000, 32), np.full(10000, 1e-4),
                        sample_id="mc")
        out = augment(fs, jitter_sigma=0.1, drop_prob=0.0, rng_seed=11)
        mean_cos = np.mean(np.sum(fs.features * out.features, axis=1))
        assert mean_cos > 0.9

    def test_preserves_shape_and_ids(self):
        rng = np.random.default_rng(46)
        fs = FeatureSet(unit_rows(rng, 6, 8), np.full(6, 1 / 6),
                        sample_id="s9", label="cat")
        out = augment(fs, jitter_sigma=0.2, drop_prob=0.3, rng_seed=1)
        assert out.dim == fs.dim and 1 <= out.num_tokens < fs.num_tokens
        assert out.sample_id == "s9" and out.label == "cat"
        assert out.weights.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("M", [8, 49])
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_masked_weights_with_zero_rows_removed(self, M, seed):
        """Dropping rows gives bitwise the survivors of the zero-weight form.

        The reference keeps every row, zeroes the dropped weights and
        renormalises the full-width vector; augment must return exactly
        its nonzero rows and weights.
        """
        rng = np.random.default_rng([49, M, seed])
        w0 = rng.random(M) + 0.1
        fs = FeatureSet(unit_rows(rng, M, 16), w0 / w0.sum(), sample_id="x")
        jitter, drop = 0.05, 0.3
        out = augment(fs, jitter, drop, [seed, 3])

        ref_rng = np.random.default_rng([seed, 3])
        F = fs.features + jitter / np.sqrt(16) * ref_rng.standard_normal((M, 16))
        F = F / np.linalg.norm(F, axis=1)[:, None]
        keep = ref_rng.random(M) >= drop
        if not keep.any():
            keep[int(np.argmax(fs.weights))] = True
        w = np.where(keep, fs.weights, 0.0)
        w = w / float(w.sum())
        assert np.array_equal(out.features, F[w > 0])
        assert np.array_equal(out.weights, w[w > 0])

    def test_deterministic(self):
        rng = np.random.default_rng(47)
        fs = FeatureSet(unit_rows(rng, 5, 8), np.full(5, 0.2), sample_id="x")
        a = augment(fs, jitter_sigma=0.3, drop_prob=0.4, rng_seed=123)
        b = augment(fs, jitter_sigma=0.3, drop_prob=0.4, rng_seed=123)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_invalid_params(self):
        rng = np.random.default_rng(48)
        fs = FeatureSet(unit_rows(rng, 2, 4), np.array([0.5, 0.5]), sample_id="x")
        with pytest.raises(ValueError, match="drop_prob"):
            augment(fs, 0.1, 1.0, 0)
        with pytest.raises(ValueError, match="jitter_sigma"):
            augment(fs, -0.1, 0.0, 0)
