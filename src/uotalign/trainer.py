"""Few-shot prompt training: alternating transport solves and Adam steps.

Each training step freezes the optimal couplings of every
(sample, class, path) transport problem and backpropagates the
cross-entropy loss through the cost matrices, the frozen encoder, the
attention adapter and the prompt tokens analytically; the couplings are
re-solved from zero potentials at the next step. The gradient is that
of the frozen-coupling loss, with W* held fixed (a stop-gradient
through the solve), and finite differences of that loss match it. It
is not the gradient of the loss with W* re-solved: the coupling's own
sensitivity is dropped, which is small only when the cost landscape is
well separated.

The six ablation variants differ only in which prompt path is active,
how class tokens are initialized, whether marginals are relaxed, and
which parameter groups train. All randomness fans out from one master
seed into separate streams (shot subsampling, bank init, epoch
shuffling, augmentation), so variants sharing a seed see identical data.

Checkpoints use the CKP1 envelope: 4-byte magic, u32 little-endian
header length, a JSON header naming every array and its shape, then the
raw float64 payloads in header order. Identical state serializes to
identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .classifier import (
    ClassifierConfig,
    ce_loss,
    cost_matrix_backward,
    forward,
    likelihood,
)
from .features import DatasetManifest, FeatureSet, augment, load_split
from .prompts import (
    AttentionParams,
    FrozenEncoder,
    PromptBank,
    build_prompt_bank,
    encode_classes_backward,
)
# solve_uot_batch is unused here; bench/test_bench.py checks it stays bound
from .transport import INF, solve_uot_batch  # noqa: F401

__all__ = [
    "VARIANTS",
    "CKP1_MAGIC",
    "TrainConfig",
    "TrainState",
    "apply_variant",
    "init_state",
    "adam_update",
    "batch_loss_and_grads",
    "train_step",
    "train",
    "evaluate",
    "run_ablation",
    "save_checkpoint",
    "load_checkpoint",
]

# variant -> (the ClassifierConfig fields, the build_prompt_bank arguments)
# it changes: no_csc drops the class-specific path, no_sc the shared one;
# no_gpt_init randomizes class tokens; no_uot pins both marginals;
# no_self_attention removes the adapter and trains the class tokens directly
_VARIANTS = {
    "full": ({}, {}),
    "no_csc": ({"gamma_cs": 0.0}, {"trainable": ("shared_tokens",)}),
    "no_sc": ({"gamma_ds": 0.0}, {"trainable": ("attention",)}),
    "no_gpt_init": ({}, {"gpt_init": False}),
    "no_uot": ({"rho1": INF, "rho2": INF}, {}),
    "no_self_attention": ({}, {"use_attention": False,
                               "trainable": ("shared_tokens", "class_tokens")}),
}
VARIANTS = tuple(_VARIANTS)

CKP1_MAGIC = b"CKP1"

_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8

# token rows per forward() call in evaluate, 8 samples of 196 tokens: a
# chunk holds _EVAL_ROWS // (the longest sample's token count) samples,
# which bounds the arrays of one batched solve while samples with few
# tokens share a call; each chunk encodes all classes in one call per path
_EVAL_ROWS = 1568


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters and the ablation variant switch.

    augmentation is (jitter_sigma, drop_prob); drop_prob is the fraction
    of rows dropped, exactly min(round(drop_prob * M), M - 1) of a
    sample's M rows. Both zero keeps training bitwise deterministic with
    no embedding noise at all.
    """

    learning_rate: float = 2e-3
    batch_size: int = 32
    epochs: int = 50
    shots: int = 4
    seed: int = 0
    variant: str = "full"
    augmentation: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ValueError("learning_rate must be positive and finite")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant: {self.variant!r}")
        if len(self.augmentation) != 2:
            raise ValueError("augmentation must be (jitter_sigma, drop_prob)")
        jitter, drop = self.augmentation
        if not (0 <= jitter < math.inf and 0 <= drop < 1):
            raise ValueError("augmentation out of range")


@dataclass
class TrainState:
    """Everything training mutates, plus what evaluation needs later."""

    bank: PromptBank
    encoder: FrozenEncoder
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    epoch: int = 0
    history: list[dict] = field(default_factory=list)


def init_state(bank: PromptBank, encoder: FrozenEncoder) -> TrainState:
    params = bank.trainable_arrays()
    return TrainState(
        bank=bank,
        encoder=encoder,
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
    )


def apply_variant(variant: str, ccfg: ClassifierConfig):
    """Translate a variant name into (classifier config, bank kwargs):
    `ccfg` with the variant's fields replaced, and the build_prompt_bank
    arguments it changes from their defaults."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant: {variant!r}")
    fields, bank_kw = _VARIANTS[variant]
    return replace(ccfg, **fields), dict(bank_kw)


def adam_update(params: dict, grads: dict, m: dict, v: dict,
                learning_rate: float, step: int) -> None:
    """One in-place Adam step (bias-corrected, step is 1-based)."""
    if step < 1:
        raise ValueError("step must be >= 1")
    for key, g in grads.items():
        m[key] = _BETA1 * m[key] + (1.0 - _BETA1) * g
        v[key] = _BETA2 * v[key] + (1.0 - _BETA2) * g * g
        m_hat = m[key] / (1.0 - _BETA1 ** step)
        v_hat = v[key] / (1.0 - _BETA2 ** step)
        params[key] -= learning_rate * m_hat / (np.sqrt(v_hat) + _EPS)


def _one_hot(samples: list[FeatureSet], classes: list[str]) -> np.ndarray:
    """Label rows over `classes`, one per sample; an unknown label raises."""
    Y = np.zeros((len(samples), len(classes)))
    for s, fs in enumerate(samples):
        if fs.label not in classes:
            raise ValueError(f"unknown class: sample {fs.sample_id!r} "
                             f"has label {fs.label!r}")
        Y[s, classes.index(fs.label)] = 1.0
    return Y


def batch_loss_and_grads(batch: list[FeatureSet], bank: PromptBank,
                         ccfg: ClassifierConfig, encoder: FrozenEncoder):
    """Forward and analytic backward for one batch at fixed couplings.

    Returns (loss, grads keyed like the trainable arrays, probs matrix).
    The grads are those of the frozen-coupling loss: each solved W* is
    a constant (stop-gradient) and only the cost matrices carry the
    parameters. Each path runs one backward over the whole batch and
    all classes' prompts. Pure at the call site: nothing in bank is
    modified.
    """
    Y = _one_hot(batch, bank.classes)
    fw = forward(batch, bank, encoder, ccfg)
    probs = likelihood(fw.d, ccfg.tau)
    loss = ce_loss(probs, Y)

    # dL/dd with the softmax and the 1/B mean folded in
    coeff = (probs - Y) * (-1.0 / ccfg.tau) / len(batch)

    # the batch's feature rows, in the column order of fw.couplings; each
    # sample's coefficients spread over its token columns
    feats = np.concatenate([fs.features for fs in batch])
    col_coeff = np.repeat(coeff, [fs.num_tokens for fs in batch], axis=0).T[:, None, :]
    # cost_matrix_backward is linear in the upstream: one call sums the batch
    grad_g = {path: cost_matrix_backward(feats, fw.encoding[path],
                                         col_coeff * gamma * fw.couplings[path])
              for path, gamma in fw.paths}
    grads = encode_classes_backward(bank, encoder, grad_g)
    # a trainable group that no active path feeds gets zeros
    return loss, {name: grads.get(name, np.zeros_like(a))
                  for name, a in bank.trainable_arrays().items()}, probs


def train_step(batch: list[FeatureSet], state: TrainState, cfg: TrainConfig,
               ccfg: ClassifierConfig):
    """Augment, solve, backpropagate, Adam-update. Returns (state, loss)."""
    jitter, drop = cfg.augmentation
    augmented = [augment(fs, jitter, drop, [cfg.seed, 41, state.step, idx])
                 for idx, fs in enumerate(batch)]
    loss, grads, _ = batch_loss_and_grads(augmented, state.bank, ccfg, state.encoder)
    if not math.isfinite(loss):
        raise RuntimeError(
            f"divergence: non-finite loss at epoch {state.epoch}, "
            f"step {state.step} (state left at last finite parameters)")
    adam_update(state.bank.trainable_arrays(), grads, state.m, state.v,
                cfg.learning_rate, state.step + 1)
    state.step += 1
    return state, loss


def _subsample_shots(samples: list[FeatureSet], classes: list[str],
                     shots: int, seed: int) -> list[FeatureSet]:
    """Deterministic k-shot subset, per class, stable under reordering."""
    out = []
    for ci, cls in enumerate(classes):
        pool = sorted((fs for fs in samples if fs.label == cls),
                      key=lambda fs: fs.sample_id)
        if len(pool) < shots:
            raise ValueError(
                f"class {cls!r} has {len(pool)} train samples, need {shots} shots")
        order = np.random.default_rng([seed, 31, ci]).permutation(len(pool))
        out.extend(pool[j] for j in order[:shots])
    return out


def train(manifest: DatasetManifest, cfg: TrainConfig, ccfg: ClassifierConfig,
          *, descriptions=None, **bank_sizes) -> TrainState:
    """Full few-shot run: subsample shots, build the bank, run epochs.

    The variant in cfg decides the active paths and trainable groups.
    bank_sizes are build_prompt_bank's num_shared_prompts,
    num_class_prompts, context_length and token_dim, with its defaults.
    """
    return _train_on(manifest, load_split(manifest, "train"), cfg, ccfg, descriptions,
                     bank_sizes)


def _train_on(manifest, train_samples, cfg, ccfg, descriptions, bank_sizes):
    """train() on the already loaded train split of `manifest`."""
    ccfg_v, bank_kw = apply_variant(cfg.variant, ccfg)
    if not train_samples:
        raise ValueError("empty split: no train samples in manifest")
    subset = _subsample_shots(train_samples, list(manifest.classes),
                              cfg.shots, cfg.seed)
    bank = build_prompt_bank(manifest.classes, descriptions, seed=cfg.seed,
                             **bank_sizes, **bank_kw)
    encoder = FrozenEncoder.seeded(bank.shared_tokens.shape[2], subset[0].dim, cfg.seed)
    state = init_state(bank, encoder)

    for epoch in range(cfg.epochs):
        order = np.random.default_rng([cfg.seed, 37, epoch]).permutation(len(subset))
        shuffled = [subset[j] for j in order]
        total, weight = 0.0, 0
        for lo in range(0, len(shuffled), cfg.batch_size):
            chunk = shuffled[lo:lo + cfg.batch_size]
            state, loss = train_step(chunk, state, cfg, ccfg_v)
            total += loss * len(chunk)
            weight += len(chunk)
        state.epoch = epoch + 1
        metrics = evaluate(subset, state, ccfg_v)
        state.history.append({"epoch": epoch + 1, "loss": total / weight,
                              "accuracy": metrics["accuracy"]})
    return state


def evaluate(samples: list[FeatureSet], state: TrainState, ccfg: ClassifierConfig) -> dict:
    """Deterministic accuracy/loss on a sample list, no augmentation.

    Every bank class competes. Samples are scored in consecutive chunks
    of max(1, _EVAL_ROWS // T) samples, T the most token rows of any
    sample; a sample's scores do not depend on its chunk.
    """
    if not samples:
        raise ValueError("empty split")
    classes = list(state.bank.classes)
    Y = _one_hot(samples, classes)
    probs = np.zeros_like(Y)
    size = max(1, _EVAL_ROWS // max(fs.num_tokens for fs in samples))
    for lo in range(0, len(samples), size):
        d = forward(samples[lo:lo + size], state.bank, state.encoder, ccfg).d
        probs[lo:lo + size] = likelihood(d, ccfg.tau)
    hits = np.argmax(probs, axis=1) == np.argmax(Y, axis=1)
    per_class = {c: (int(h) / int(t) if t else math.nan)
                 for c, h, t in zip(classes, hits @ Y, Y.sum(axis=0))}
    return {"accuracy": int(hits.sum()) / len(samples), "per_class": per_class,
            "mean_loss": ce_loss(probs, Y), "count": len(samples)}


def run_ablation(manifest: DatasetManifest, cfg: TrainConfig,
                 ccfg: ClassifierConfig, *, descriptions=None,
                 **bank_kwargs) -> list[dict]:
    """Train and evaluate every variant with the shared seed.

    Train accuracy and loss are the last epoch's history entry (NaN
    after zero epochs); the test split is evaluated afterwards. Returns
    one row per variant; a variant that fails contributes an "error"
    row instead of aborting the rest. The train and test splits are read
    once, so an unreadable one raises before any variant trains.
    """
    train_samples = load_split(manifest, "train")
    test_samples = load_split(manifest, "test")
    rows = []
    for variant in VARIANTS:
        cfg_v = replace(cfg, variant=variant)
        try:
            state = _train_on(manifest, train_samples, cfg_v, ccfg, descriptions,
                              bank_kwargs)
            ccfg_v, _ = apply_variant(variant, ccfg)
            test_metrics = (evaluate(test_samples, state, ccfg_v)
                            if test_samples else {"accuracy": math.nan,
                                                  "mean_loss": math.nan})
            last = (state.history[-1] if state.history
                    else {"accuracy": math.nan, "loss": math.nan})
            rows.append({
                "variant": variant,
                "train_accuracy": last["accuracy"],
                "test_accuracy": test_metrics["accuracy"],
                "test_loss": test_metrics["mean_loss"],
                "final_train_loss": last["loss"],
            })
        except Exception as e:  # noqa: BLE001 - isolation is the contract
            rows.append({"variant": variant, "error": str(e)})
    return rows


def _checkpoint_arrays(state: TrainState) -> list[tuple[str, np.ndarray]]:
    return [*state.bank.arrays().items(),
            ("encoder.projection", state.encoder.projection),
            ("encoder.bias", state.encoder.bias),
            *((f"m.{k}", state.m[k]) for k in sorted(state.m)),
            *((f"v.{k}", state.v[k]) for k in sorted(state.v))]


def _list_of(kind):
    return lambda x: isinstance(x, list) and all(isinstance(item, kind) for item in x)


def _is_count(x) -> bool:
    return type(x) is int and x >= 0  # a JSON integer, never a bool


# header field -> (what it must be, its check)
_HEADER_FIELDS = {
    "classes": ("a list of strings", _list_of(str)),
    "use_attention": ("a boolean", lambda x: type(x) is bool),
    "trainable": ("a list of strings", _list_of(str)),
    "step": ("an integer >= 0", _is_count),
    "epoch": ("an integer >= 0", _is_count),
    "history": ("a list of objects", _list_of(dict)),
}


def save_checkpoint(state: TrainState, path) -> None:
    """Serialize a TrainState to the CKP1 binary envelope."""
    arrays = _checkpoint_arrays(state)
    header = {
        "version": 1,
        "classes": list(state.bank.classes),
        "use_attention": bool(state.bank.use_attention),
        "trainable": list(state.bank.trainable),
        "step": state.step,
        "epoch": state.epoch,
        "history": state.history,
        "arrays": [[name, list(a.shape)] for name, a in arrays],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    out = bytearray()
    out += CKP1_MAGIC
    out += np.array([len(blob)], dtype="<u4").tobytes()
    out += blob
    for _, a in arrays:
        out += np.ascontiguousarray(a, dtype="<f8").tobytes()
    Path(path).write_bytes(bytes(out))


def load_checkpoint(path) -> TrainState:
    """Read a CKP1 file back into a TrainState."""
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise ValueError(f"corrupt file: {path} shorter than header")
    if raw[:4] != CKP1_MAGIC:
        raise ValueError(f"not a checkpoint file: {path}")
    hlen = int(np.frombuffer(raw[4:8], dtype="<u4")[0])
    if len(raw) < 8 + hlen:
        raise ValueError(f"corrupt file: {path} truncated header")
    try:
        header = json.loads(raw[8:8 + hlen].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ValueError(f"corrupt file: {path} has a bad header ({e})") from e
    if not isinstance(header, dict):
        raise ValueError(f"corrupt file: {path} header is not an object")
    if header.get("version") != 1:
        raise ValueError(f"unsupported checkpoint version in {path}")
    specs = header.get("arrays")
    if not (isinstance(specs, list) and all(
            isinstance(spec, list) and len(spec) == 2 and isinstance(spec[0], str)
            and isinstance(spec[1], list)
            and all(type(n) is int and n >= 0 for n in spec[1])
            for spec in specs)):
        raise ValueError(f"corrupt file: {path} header lacks a valid "
                         f"[[name, shape], ...] array list")
    for key, (want, ok) in _HEADER_FIELDS.items():
        if key not in header:
            raise ValueError(f"corrupt file: {path} lacks {key!r}")
        if not ok(header[key]):
            raise ValueError(f"corrupt file: {path} header field {key!r} must be {want}")

    offset = 8 + hlen
    payload = len(raw) - offset
    want = sum(int(np.prod(shape)) for _, shape in specs) * 8
    if payload != want:
        raise ValueError(f"corrupt file: {path} has {payload} payload bytes, "
                         f"expected {want}")
    arrays = {}
    for name, shape in specs:
        size = int(np.prod(shape)) * 8
        a = np.frombuffer(raw[offset:offset + size], dtype="<f8").reshape(shape)
        arrays[name] = a.astype(np.float64)  # own the memory, drop readonly
        offset += size
    if len(arrays) < len(specs):
        raise ValueError(f"corrupt file: {path} lists an array name twice")
    if any(not np.all(np.isfinite(a)) for a in arrays.values()):
        raise ValueError(f"invalid payload: non-finite values in {path}")

    try:
        attention = AttentionParams(w_query=arrays["attention.w_query"],
                                    w_key=arrays["attention.w_key"],
                                    w_value=arrays["attention.w_value"])
        bank = PromptBank(classes=header["classes"],
                          shared_tokens=arrays["shared_tokens"],
                          class_tokens=arrays["class_tokens"],
                          class_words=arrays["class_words"],
                          attention=attention,
                          use_attention=header["use_attention"],
                          trainable=tuple(header["trainable"]))
        encoder = FrozenEncoder(projection=arrays["encoder.projection"],
                                bias=arrays["encoder.bias"])
    except KeyError as e:
        raise ValueError(f"corrupt file: {path} lacks {e.args[0]!r}") from None
    except ValueError as e:
        raise ValueError(f"corrupt file: {path} {e}") from e
    d_tok, d = bank.shared_tokens.shape[2], encoder.projection.shape[1]
    if encoder.projection.shape[0] != d_tok:
        raise ValueError(f"corrupt file: {path} encoder.projection has shape "
                         f"{encoder.projection.shape}, expected ({d_tok}, {d})")
    m = {name[2:]: a for name, a in arrays.items() if name.startswith("m.")}
    v = {name[2:]: a for name, a in arrays.items() if name.startswith("v.")}
    expected = bank.trainable_arrays()
    if set(m) != set(expected) or set(v) != set(expected):
        raise ValueError(f"corrupt file: {path} moment keys do not match "
                         f"the trainable groups")
    if any(mom[k].shape != p.shape for mom in (m, v) for k, p in expected.items()):
        raise ValueError(f"corrupt file: {path} moment shapes do not match the parameters")
    state = TrainState(bank=bank, encoder=encoder, m=m, v=v, step=header["step"],
                       epoch=header["epoch"], history=header["history"])
    unknown = set(arrays) - {name for name, _ in _checkpoint_arrays(state)}
    if unknown:
        raise ValueError(f"corrupt file: {path} has unknown arrays {sorted(unknown)}")
    return state
