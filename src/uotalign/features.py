"""Visual-feature ingestion, synthetic data, and embedding-space augmentation.

Features live in EMB1 files: 4-byte magic "EMB1", u32 little-endian row
count, u32 little-endian column count, then row-major IEEE-754 float32
payload. Storage is float32; all in-memory math is float64 and rows are
re-normalized on load so the unit-norm invariant survives the cast.

Augmentation is an embedding-space proxy for image augmentation: row
jitter stands in for photometric noise, and dropping a fixed count of
rows for cutout, which removes a region of fixed size. A dropped token
leaves the sample, and each of a sample's M tokens has mass 1/M.
`jitter_sigma` is the expected L2 magnitude of the perturbation of a
row (noise components are drawn at sigma/sqrt(d)), which keeps the
perturbation scale independent of the embedding width.
"""

from __future__ import annotations

import json
import math
from dataclasses import KW_ONLY, dataclass, field
from pathlib import Path

import numpy as np

from .numerics import as_matrix

__all__ = [
    "EMB1_MAGIC",
    "FeatureSet",
    "SampleRecord",
    "DatasetManifest",
    "read_embedding_file",
    "write_embedding_file",
    "load_feature_set",
    "load_split",
    "load_manifest",
    "save_manifest",
    "read_json_object",
    "require_unique_classes",
    "synth_dataset",
    "augment",
]

EMB1_MAGIC = b"EMB1"
_HEADER_BYTES = 12


@dataclass
class FeatureSet:
    """M unit-norm local visual embeddings, each of mass 1/M."""

    features: np.ndarray
    _: KW_ONLY
    sample_id: str = ""
    label: str | None = None

    def __post_init__(self):
        self.features = as_matrix(self.features, "features")
        norms = np.linalg.norm(self.features, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("degenerate embedding: rows must be unit-norm")

    @property
    def num_tokens(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def require_unique_classes(classes) -> None:
    """Raise on the first class name that repeats an earlier one: a
    repeated class would own a column that no label resolves to."""
    seen = set()
    for c in classes:
        if c in seen:
            raise ValueError(f"schema violation: duplicate class {c!r}")
        seen.add(c)


@dataclass
class SampleRecord:
    sample_id: str
    label: str
    path: str
    split: str


@dataclass
class DatasetManifest:
    classes: list[str]
    samples: list[SampleRecord]
    shots: int
    seed: int
    root: Path | None = field(default=None, compare=False)

    def __post_init__(self):
        require_unique_classes(self.classes)
        known = set(self.classes)
        for s in self.samples:
            if s.label not in known:
                raise ValueError(f"unknown class: sample {s.sample_id!r} has label {s.label!r}")
        if self.shots < 0:
            raise ValueError("shots must be >= 0")

    def split(self, name: str) -> list[SampleRecord]:
        return [s for s in self.samples if s.split == name]


def write_embedding_file(path, mat) -> None:
    mat = as_matrix(mat, "embedding matrix")
    rows, cols = mat.shape
    payload = mat.astype("<f4").tobytes(order="C")
    header = EMB1_MAGIC + np.array([rows, cols], dtype="<u4").tobytes()
    Path(path).write_bytes(header + payload)


def read_embedding_file(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER_BYTES:
        raise ValueError(f"corrupt file: {path} shorter than header")
    if raw[:4] != EMB1_MAGIC:
        raise ValueError(f"not an embedding file: {path}")
    rows, cols = np.frombuffer(raw[4:12], dtype="<u4")
    expected = _HEADER_BYTES + int(rows) * int(cols) * 4
    if len(raw) != expected:
        raise ValueError(
            f"corrupt file: {path} has {len(raw)} bytes, expected {expected}"
        )
    mat = np.frombuffer(raw[12:], dtype="<f4").reshape(int(rows), int(cols))
    out = mat.astype(np.float64)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"invalid payload: non-finite values in {path}")
    return out


def load_feature_set(path, sample_id: str = "", label: str | None = None) -> FeatureSet:
    """Read an EMB1 file as a FeatureSet.

    Rows are re-normalized in float64 (float32 storage rounds norms off
    the unit sphere by ~1e-8, more than the invariant allows).
    """
    F = read_embedding_file(path)
    norms = np.linalg.norm(F, axis=1)
    if np.any(norms < 1e-12):
        raise ValueError(f"degenerate embedding: zero row in {path}")
    return FeatureSet(F / norms[:, None], sample_id=sample_id, label=label)


def save_manifest(manifest: DatasetManifest, path) -> None:
    doc = {
        "classes": list(manifest.classes),
        "samples": [
            {"id": s.sample_id, "class": s.label, "path": s.path, "split": s.split}
            for s in manifest.samples
        ],
        "shots": manifest.shots,
        "seed": manifest.seed,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_json_object(path) -> dict:
    """Parse a JSON file whose top level must be an object. NaN and
    (-)Infinity are not JSON, so they are schema violations."""
    def reject(literal):
        raise ValueError(f"schema violation: {path} has the non-JSON literal {literal}")

    try:
        doc = json.loads(Path(path).read_text(), parse_constant=reject)
    except json.JSONDecodeError as e:
        raise ValueError(f"schema violation: {path} is not valid JSON ({e})") from e
    if not isinstance(doc, dict):
        raise ValueError(f"schema violation: {path} top level must be an object")
    return doc


_RECORD_KEYS = ("id", "class", "path", "split")


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    doc = read_json_object(path)
    required = {"classes", "samples", "shots", "seed"}
    missing = required - doc.keys()
    if missing:
        raise ValueError(f"schema violation: {path} missing keys {sorted(missing)}")
    extra = doc.keys() - required
    if extra:
        raise ValueError(f"schema violation: {path} has unknown keys {sorted(extra)}")
    for key in ("shots", "seed"):
        if type(doc[key]) is not int:
            raise ValueError(f"schema violation: {path} {key} must be an integer, "
                             f"got {doc[key]!r}")
    if not (isinstance(doc["classes"], list)
            and all(isinstance(c, str) for c in doc["classes"])):
        raise ValueError(f"schema violation: {path} classes must be a list of strings")
    if not isinstance(doc["samples"], list):
        raise ValueError(f"schema violation: {path} samples must be a list")
    samples = []
    for rec in doc["samples"]:
        if not isinstance(rec, dict) or set(_RECORD_KEYS) - rec.keys():
            raise ValueError(f"schema violation: malformed sample record in {path}")
        for key in _RECORD_KEYS:
            if not isinstance(rec[key], str):
                raise ValueError(f"schema violation: {path} sample record field "
                                 f"{key!r} must be a string")
        samples.append(SampleRecord(sample_id=rec["id"], label=rec["class"],
                                    path=rec["path"], split=rec["split"]))
    return DatasetManifest(classes=doc["classes"], samples=samples,
                           shots=doc["shots"], seed=doc["seed"], root=path.parent)


def load_split(manifest: DatasetManifest, split: str) -> list[FeatureSet]:
    if manifest.root is None:
        raise ValueError("manifest has no root directory")
    return [load_feature_set(manifest.root / rec.path, sample_id=rec.sample_id,
                             label=rec.label)
            for rec in manifest.split(split)]


def _split_counts(per_class: int) -> tuple[int, int, int]:
    n_train = max(1, math.ceil(per_class * 0.5))
    n_val = math.ceil((per_class - n_train) * 0.5)
    return n_train, n_val, per_class - n_train - n_val


def synth_dataset(out_dir, num_classes: int = 3, per_class: int = 20,
                  tokens: int = 8, dim: int = 32, separation: float = 4.0,
                  seed: int = 0, shots: int = 4) -> DatasetManifest:
    """Generate a synthetic local-feature dataset on disk.

    Each class gets a random unit anchor direction; a sample's rows are
    unit-normalized (separation * anchor + standard normal noise), so
    separation 0 means pure noise and large separation means tight
    clusters. Pure function of its arguments, file bytes included.
    """
    if num_classes < 1 or per_class < 1 or tokens < 1 or dim < 1:
        raise ValueError("counts must be >= 1")
    if not (0 <= separation < math.inf):
        raise ValueError("separation must be finite and >= 0")
    out_dir = Path(out_dir)
    (out_dir / "embeddings").mkdir(parents=True, exist_ok=True)

    classes = [f"class_{c}" for c in range(num_classes)]
    anchor_rng = np.random.default_rng([seed, 1])
    anchors = anchor_rng.standard_normal((num_classes, dim))
    anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)

    n_train, n_val, _ = _split_counts(per_class)
    samples = []
    for c, cls in enumerate(classes):
        for i in range(per_class):
            rng = np.random.default_rng([seed, 2, c, i])
            rows = separation * anchors[c] + rng.standard_normal((tokens, dim))
            norms = np.linalg.norm(rows, axis=1, keepdims=True)
            rows = rows / norms
            sample_id = f"{cls}_{i:03d}"
            rel = f"embeddings/{sample_id}.emb1"
            write_embedding_file(out_dir / rel, rows)
            split = "train" if i < n_train else ("val" if i < n_train + n_val else "test")
            samples.append(SampleRecord(sample_id=sample_id, label=cls,
                                        path=rel, split=split))

    manifest = DatasetManifest(classes=classes, samples=samples,
                               shots=shots, seed=seed, root=out_dir)
    save_manifest(manifest, out_dir / "manifest.json")
    return manifest


def augment(fs: FeatureSet, jitter_sigma: float, drop_prob: float,
            rng_seed: int | list[int]) -> FeatureSet:
    """Jitter rows and drop whole rows, deterministically per seed.

    drop_prob is the fraction of rows dropped: exactly
    min(round(drop_prob * M), M - 1) of the M rows, drawn without
    replacement after the jitter, so samples with the same token count
    keep the same number of rows and at least one row survives.
    """
    if not (0 <= drop_prob < 1):
        raise ValueError("drop_prob must be in [0, 1)")
    if not (0 <= jitter_sigma < math.inf):
        raise ValueError("jitter_sigma must be finite and >= 0")
    rng = np.random.default_rng(rng_seed)
    F = fs.features
    if jitter_sigma > 0:
        scale = jitter_sigma / math.sqrt(fs.dim)
        F = F + scale * rng.standard_normal(F.shape)
        norms = np.linalg.norm(F, axis=1)
        if np.any(norms < 1e-12):
            raise ValueError("degenerate embedding: jitter annihilated a row")
        F = F / norms[:, None]
    else:
        F = F.copy()
    if drop_prob > 0:
        M = fs.num_tokens
        keep = np.ones(M, dtype=bool)
        keep[rng.choice(M, min(round(drop_prob * M), M - 1), replace=False)] = False
        F = F[keep]
    return FeatureSet(F, sample_id=fs.sample_id, label=fs.label)
