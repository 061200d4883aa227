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
    attention_backward,
    build_prompt_bank,
    synth_description_texts,
)
# solve_uot_batch is unused here; bench/test_bench.py checks it stays bound
from .transport import INF, SolverConfig, solve_uot_batch  # noqa: F401

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

VARIANTS = ("full", "no_csc", "no_sc", "no_gpt_init", "no_uot", "no_self_attention")

CKP1_MAGIC = b"CKP1"

_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8

# samples per forward() call in evaluate: bounds the arrays of one
# batched solve; each chunk encodes all classes in one call per path
_EVAL_CHUNK = 8


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters and the ablation variant switch.

    augmentation is (jitter_sigma, drop_prob); both zero keeps training
    bitwise deterministic with no embedding noise at all.
    """

    learning_rate: float = 2e-3
    batch_size: int = 32
    epochs: int = 50
    shots: int = 4
    seed: int = 0
    variant: str = "full"
    augmentation: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not (self.learning_rate > 0):
            raise ValueError("learning_rate must be positive")
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
        if jitter < 0 or not (0 <= drop < 1):
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


def _trainable_arrays(bank: PromptBank) -> dict[str, np.ndarray]:
    # the returned arrays are the live parameters, not copies: Adam
    # updates them in place
    out = {}
    if "shared_tokens" in bank.trainable:
        out["shared_tokens"] = bank.shared_tokens
    if "attention" in bank.trainable:
        out["attention.w_query"] = bank.attention.w_query
        out["attention.w_key"] = bank.attention.w_key
        out["attention.w_value"] = bank.attention.w_value
    if "class_tokens" in bank.trainable:
        out["class_tokens"] = bank.class_tokens
    return out


def init_state(bank: PromptBank, encoder: FrozenEncoder) -> TrainState:
    params = _trainable_arrays(bank)
    return TrainState(
        bank=bank,
        encoder=encoder,
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
    )


def apply_variant(variant: str, ccfg: ClassifierConfig):
    """Translate a variant name into (classifier config, bank kwargs).

    no_csc drops the class-specific path entirely, no_sc the shared
    one; no_gpt_init keeps the architecture but randomizes class
    tokens; no_uot pins both marginals; no_self_attention removes the
    adapter and trains the class tokens directly instead.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant: {variant!r}")
    bank_kw = {"gpt_init": True, "use_attention": True,
               "trainable": ("shared_tokens", "attention")}
    if variant == "no_csc":
        ccfg = replace(ccfg, gamma_cs=0.0)
        bank_kw["trainable"] = ("shared_tokens",)
    elif variant == "no_sc":
        ccfg = replace(ccfg, gamma_ds=0.0)
        bank_kw["trainable"] = ("attention",)
    elif variant == "no_gpt_init":
        bank_kw["gpt_init"] = False
    elif variant == "no_uot":
        ccfg = replace(ccfg, rho1=INF, rho2=INF)
    elif variant == "no_self_attention":
        bank_kw["use_attention"] = False
        bank_kw["trainable"] = ("shared_tokens", "class_tokens")
    return ccfg, bank_kw


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
                         ccfg: ClassifierConfig, encoder: FrozenEncoder,
                         solver: SolverConfig | None = None):
    """Forward and analytic backward for one batch at fixed couplings.

    Returns (loss, grads keyed like the trainable arrays, probs matrix).
    The grads are those of the frozen-coupling loss: each solved W* is
    a constant (stop-gradient) and only the cost matrices carry the
    parameters. Each path runs one backward over the whole batch and
    all classes' prompts. Pure at the call site: nothing in bank is
    modified.
    """
    if not batch:
        raise ValueError("empty batch")
    Y = _one_hot(batch, bank.classes)
    fw = forward(batch, bank, encoder, ccfg, solver)
    probs = likelihood(fw.d, ccfg.tau)
    loss = ce_loss(probs, Y)

    # dL/dd with the softmax and the 1/B mean folded in
    coeff = (probs - Y) * (-1.0 / ccfg.tau) / len(batch)

    grads = {k: np.zeros_like(p) for k, p in _trainable_arrays(bank).items()}
    enc = fw.encoding
    # the batch's feature rows, sample s at rows offsets[s]:offsets[s + 1]
    feats = np.concatenate([fs.features for fs in batch])
    offsets = np.cumsum([0] + [fs.num_tokens for fs in batch])
    for path, gamma in fw.paths:
        if path == "ds" and "shared_tokens" not in grads:
            continue
        if path == "cs" and not {"attention.w_query", "class_tokens"} & grads.keys():
            continue
        G = enc.g_cs if path == "cs" else enc.g_ds
        # cost_matrix_backward is linear in the upstream: each plan fills
        # its (class, sample) block, and one call sums over the batch
        upstream = np.empty((*G.shape[:2], len(feats)))
        for (s, k, tag), plan in fw.plans.items():
            if tag == path:
                upstream[k, :, offsets[s]:offsets[s + 1]] = coeff[s, k] * gamma * plan.coupling
        grad_G = cost_matrix_backward(feats, G, upstream)
        rows = encoder.encode_backward(enc.toks_out if path == "cs" else enc.toks_ds,
                                       grad_G.reshape(-1, G.shape[-1]))
        if path == "cs" and bank.use_attention:
            rows, gq, gk, gv = attention_backward(enc.toks_in, bank.attention, rows)
            if "attention.w_query" in grads:
                grads["attention.w_query"] = gq
                grads["attention.w_key"] = gk
                grads["attention.w_value"] = gv
        # forward() ran over all bank classes, so axis 0 is bank.classes;
        # [..., :-1, :] drops the class-word row, which never trains
        rows = rows.reshape(*G.shape[:2], *rows.shape[1:])[..., :-1, :]
        if path == "ds":
            grads["shared_tokens"] = rows.sum(axis=0)
        elif "class_tokens" in grads:
            grads["class_tokens"] = rows
    return loss, grads, probs


def train_step(batch: list[FeatureSet], state: TrainState, cfg: TrainConfig,
               ccfg: ClassifierConfig, solver: SolverConfig | None = None):
    """Augment, solve, backpropagate, Adam-update. Returns (state, loss)."""
    if not batch:
        raise ValueError("empty batch")
    jitter, drop = cfg.augmentation
    augmented = [augment(fs, jitter, drop, [cfg.seed, 41, state.step, idx])
                 for idx, fs in enumerate(batch)]
    loss, grads, _ = batch_loss_and_grads(augmented, state.bank, ccfg,
                                          state.encoder, solver)
    if not math.isfinite(loss):
        raise RuntimeError(
            f"divergence: non-finite loss at epoch {state.epoch}, "
            f"step {state.step} (state left at last finite parameters)")
    adam_update(_trainable_arrays(state.bank), grads, state.m, state.v,
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
          *, descriptions=None,
          solver: SolverConfig | None = None, num_shared_prompts: int = 2,
          num_class_prompts: int = 4, context_length: int = 8,
          token_dim: int = 32) -> TrainState:
    """Full few-shot run: subsample shots, build the bank, run epochs.

    The variant in cfg decides the active paths and trainable groups.
    Missing descriptions fall back to deterministic synthetic texts so
    gpt-initialized variants stay runnable on purely synthetic data.
    """
    ccfg_v, bank_kw = apply_variant(cfg.variant, ccfg)
    train_samples = load_split(manifest, "train")
    if not train_samples:
        raise ValueError("empty split: no train samples in manifest")
    subset = _subsample_shots(train_samples, list(manifest.classes),
                              cfg.shots, cfg.seed)
    encoder = FrozenEncoder.seeded(token_dim, subset[0].dim, cfg.seed)
    if bank_kw["gpt_init"] and descriptions is None:
        descriptions = synth_description_texts(manifest.classes, seed=cfg.seed,
                                               count=num_class_prompts)
    bank = build_prompt_bank(manifest.classes, descriptions,
                             num_shared_prompts=num_shared_prompts,
                             num_class_prompts=num_class_prompts,
                             context_length=context_length,
                             token_dim=token_dim, seed=cfg.seed, **bank_kw)
    state = init_state(bank, encoder)

    for epoch in range(cfg.epochs):
        order = np.random.default_rng([cfg.seed, 37, epoch]).permutation(len(subset))
        shuffled = [subset[j] for j in order]
        total, weight = 0.0, 0
        for lo in range(0, len(shuffled), cfg.batch_size):
            chunk = shuffled[lo:lo + cfg.batch_size]
            state, loss = train_step(chunk, state, cfg, ccfg_v, solver)
            total += loss * len(chunk)
            weight += len(chunk)
        state.epoch = epoch + 1
        metrics = evaluate(subset, state, ccfg_v, solver=solver)
        state.history.append({"epoch": epoch + 1, "loss": total / weight,
                              "accuracy": metrics["accuracy"]})
    return state


def evaluate(samples: list[FeatureSet], state: TrainState,
             ccfg: ClassifierConfig, classes: list[str] | None = None,
             solver: SolverConfig | None = None) -> dict:
    """Deterministic accuracy/loss on a sample list, no augmentation.

    `classes` restricts the candidate set (base-to-new evaluation
    scores held-out classes only); by default all bank classes compete.
    """
    if not samples:
        raise ValueError("empty split")
    classes = list(classes) if classes is not None else list(state.bank.classes)
    Y = _one_hot(samples, classes)
    probs = np.zeros_like(Y)
    for lo in range(0, len(samples), _EVAL_CHUNK):
        d = forward(samples[lo:lo + _EVAL_CHUNK], state.bank, state.encoder,
                    ccfg, solver, classes).d
        probs[lo:lo + len(d)] = likelihood(d, ccfg.tau)
    hits = np.argmax(probs, axis=1) == np.argmax(Y, axis=1)
    per_class = {c: (int(h) / int(t) if t else math.nan)
                 for c, h, t in zip(classes, hits @ Y, Y.sum(axis=0))}
    return {"accuracy": int(hits.sum()) / len(samples), "per_class": per_class,
            "mean_loss": ce_loss(probs, Y), "count": len(samples)}


def run_ablation(manifest: DatasetManifest, cfg: TrainConfig,
                 ccfg: ClassifierConfig, *, descriptions=None,
                 solver: SolverConfig | None = None, **bank_kwargs) -> list[dict]:
    """Train and evaluate every variant with the shared seed.

    Train accuracy and loss are the last epoch's history entry (NaN
    after zero epochs); the test split is evaluated afterwards. Returns
    one row per variant; a variant that fails contributes an "error"
    row instead of aborting the rest. The test split is read once, so
    an unreadable one raises before any variant trains.
    """
    test_samples = load_split(manifest, "test")
    rows = []
    for variant in VARIANTS:
        cfg_v = replace(cfg, variant=variant)
        try:
            state = train(manifest, cfg_v, ccfg, descriptions=descriptions,
                          solver=solver, **bank_kwargs)
            ccfg_v, _ = apply_variant(variant, ccfg)
            test_metrics = (evaluate(test_samples, state, ccfg_v, solver=solver)
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
    bank = state.bank
    arrays = [
        ("shared_tokens", bank.shared_tokens),
        ("class_tokens", bank.class_tokens),
        ("class_words", bank.class_words),
        ("attention.w_query", bank.attention.w_query),
        ("attention.w_key", bank.attention.w_key),
        ("attention.w_value", bank.attention.w_value),
        ("encoder.projection", state.encoder.projection),
        ("encoder.bias", state.encoder.bias),
    ]
    for key in sorted(state.m):
        arrays.append((f"m.{key}", state.m[key]))
    for key in sorted(state.v):
        arrays.append((f"v.{key}", state.v[key]))
    return arrays


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
    if any(not np.all(np.isfinite(a)) for a in arrays.values()):
        raise ValueError(f"invalid payload: non-finite values in {path}")

    try:
        attention = AttentionParams(w_query=arrays["attention.w_query"],
                                    w_key=arrays["attention.w_key"],
                                    w_value=arrays["attention.w_value"])
        bank = PromptBank(classes=list(header["classes"]),
                          shared_tokens=arrays["shared_tokens"],
                          class_tokens=arrays["class_tokens"],
                          class_words=arrays["class_words"],
                          attention=attention,
                          use_attention=bool(header["use_attention"]),
                          trainable=tuple(header["trainable"]))
        encoder = FrozenEncoder(projection=arrays["encoder.projection"],
                                bias=arrays["encoder.bias"])
        step, epoch, history = header["step"], header["epoch"], header["history"]
    except KeyError as e:
        raise ValueError(f"corrupt file: {path} lacks {e.args[0]!r}") from None
    m = {name[2:]: a for name, a in arrays.items() if name.startswith("m.")}
    v = {name[2:]: a for name, a in arrays.items() if name.startswith("v.")}
    expected = set(_trainable_arrays(bank))
    if set(m) != expected or set(v) != expected:
        raise ValueError(f"corrupt file: {path} moment keys do not match "
                         f"the trainable groups")
    return TrainState(bank=bank, encoder=encoder, m=m, v=v,
                      step=int(step), epoch=int(epoch), history=list(history))
