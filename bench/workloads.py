"""The benchmark's workloads: seeded set-up, one repetition, result checks.

Every workload is a closed loop with one caller: the next repetition
starts when the previous one returns. Inputs are a pure function of the
seed and the size table; the program sees only the generated inputs and
is reached through its public functions, looked up on the module at call
time so that the trace hooks see every call.

- fewshot_train: `trainer.train`, as run by `uotalign train` and
  `ablate`. The only workload that runs the backward pass, Adam and
  augmentation; token dropout gives each sample its own column count.
- heldout_eval: `trainer.evaluate` on the held-out split, as run by
  `uotalign eval`. Forward only, at 196 tokens (a 14x14 ViT-B/16 grid).
- transport_solve: `transport.solve_uot_batch` on fixed cosine-cost
  instances with large batches, as reached by `solve` and `compare`. No
  prompt, scoring or trainer code runs, so solver changes show apart
  from any change to learned prompts. Two slices: the classifier's
  relaxed marginals (about 75 iterations everywhere) and both marginals
  pinned, the `no_uot` regime, whose iteration counts are heavy-tailed
  and reach `max_iterations`, so a batch runs as long as its slowest
  member.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from uotalign import classifier, features, prompts, trainer, transport

import checks


@dataclass
class Outcome:
    """What one repetition produced, reduced to what the runner needs."""

    items: int
    digest: str
    accuracy: float | None = None
    failures: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict[str, dict]
    setup: Callable[[dict, int, Path], SimpleNamespace]
    rep: Callable[[SimpleNamespace], Outcome]
    # encodings one parameter version needs: K * (P_ds + P_cs); 0 when
    # no prompt is encoded
    encodings_per_version: Callable[[dict], int]
    # a workload that scores samples must hand likelihoods to the checks
    scores_samples: bool


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def _dir_digest(directory: Path) -> str:
    files = sorted(p for p in directory.rglob("*") if p.is_file())
    return _digest([str(p.relative_to(directory)) for p in files],
                   *(np.frombuffer(p.read_bytes(), dtype=np.uint8) for p in files))


def _bank_digest(bank) -> str:
    return _digest(bank.shared_tokens, bank.class_tokens, bank.attention.w_query,
                   bank.attention.w_key, bank.attention.w_value)


def _synth(p: dict, seed: int, directory: Path):
    return features.synth_dataset(
        directory, num_classes=p["classes"], per_class=p["per_class"],
        tokens=p["tokens"], dim=p["dim"], separation=p["separation"],
        seed=seed, shots=p["shots"])


def _prompt_encodings(p: dict) -> int:
    return p["classes"] * (p["shared_prompts"] + p["class_prompts"])


# --- fewshot_train ----------------------------------------------------------

FEWSHOT = {
    "full": dict(classes=10, per_class=8, shots=4, tokens=49, dim=64,
                 separation=4.0, learning_rate=2e-2, batch_size=32,
                 augmentation=(0.05, 0.1), epochs=1, shared_prompts=2,
                 class_prompts=4, token_dim=32),
    "tiny": dict(classes=3, per_class=4, shots=2, tokens=6, dim=8,
                 separation=4.0, learning_rate=2e-2, batch_size=4,
                 augmentation=(0.05, 0.1), epochs=1, shared_prompts=2,
                 class_prompts=4, token_dim=8),
}


def _fewshot_setup(p: dict, seed: int, directory: Path) -> SimpleNamespace:
    manifest = _synth(p, seed, directory)
    cfg = trainer.TrainConfig(
        learning_rate=p["learning_rate"], batch_size=p["batch_size"],
        epochs=p["epochs"], shots=p["shots"], seed=seed, variant="full",
        augmentation=p["augmentation"])
    return SimpleNamespace(p=p, manifest=manifest, cfg=cfg,
                           ccfg=classifier.ClassifierConfig(),
                           digest=_dir_digest(directory))


def _fewshot_rep(ctx: SimpleNamespace) -> Outcome:
    p = ctx.p
    state = trainer.train(ctx.manifest, ctx.cfg, ctx.ccfg,
                          num_shared_prompts=p["shared_prompts"],
                          num_class_prompts=p["class_prompts"],
                          token_dim=p["token_dim"])
    history = state.history
    accuracy = history[-1]["accuracy"] if history else math.nan
    failures = checks.accuracy_floor(accuracy, p["classes"], "train")
    if len(history) != p["epochs"]:
        failures.append(f"train history has {len(history)} epochs, "
                        f"expected {p['epochs']}")
    if not all(math.isfinite(h["loss"]) for h in history):
        failures.append("train history holds a non-finite loss")
    return Outcome(items=p["epochs"] * p["classes"] * p["shots"],
                   digest=_digest(_bank_digest(state.bank), history),
                   accuracy=accuracy, failures=failures)


# --- heldout_eval -----------------------------------------------------------

HELDOUT = {
    # per_class 20 splits into 10 train, 5 val and 5 test samples
    "full": dict(classes=10, per_class=20, shots=2, tokens=196, dim=64,
                 separation=4.0, learning_rate=2e-2, steps=4,
                 shared_prompts=2, class_prompts=4, token_dim=32),
    "tiny": dict(classes=3, per_class=6, shots=2, tokens=8, dim=8,
                 separation=4.0, learning_rate=2e-2, steps=1,
                 shared_prompts=2, class_prompts=4, token_dim=8),
}


def _shot_subset(samples, classes, shots: int, seed: int):
    out = []
    for ci, cls in enumerate(classes):
        pool = sorted((fs for fs in samples if fs.label == cls),
                      key=lambda fs: fs.sample_id)
        order = np.random.default_rng([seed, 5, ci]).permutation(len(pool))
        out.extend(pool[j] for j in order[:shots])
    return out


def _heldout_setup(p: dict, seed: int, directory: Path) -> SimpleNamespace:
    """Trains with `train_step` only: `train` would also evaluate per epoch."""
    manifest = _synth(p, seed, directory)
    train_split = features.load_split(manifest, "train")
    test_split = features.load_split(manifest, "test")
    subset = _shot_subset(train_split, manifest.classes, p["shots"], seed)
    ccfg, bank_kw = trainer.apply_variant("full", classifier.ClassifierConfig())
    texts = prompts.synth_description_texts(manifest.classes, seed=seed,
                                            count=p["class_prompts"])
    bank = prompts.build_prompt_bank(
        manifest.classes, texts, num_shared_prompts=p["shared_prompts"],
        num_class_prompts=p["class_prompts"], token_dim=p["token_dim"],
        seed=seed, **bank_kw)
    encoder = prompts.FrozenEncoder.seeded(p["token_dim"], p["dim"], seed)
    state = trainer.init_state(bank, encoder)
    cfg = trainer.TrainConfig(learning_rate=p["learning_rate"],
                              batch_size=len(subset), shots=p["shots"], seed=seed)
    for _ in range(p["steps"]):
        state, _ = trainer.train_step(subset, state, cfg, ccfg)
    return SimpleNamespace(p=p, test=test_split, state=state, ccfg=ccfg,
                           digest=_bank_digest(state.bank))


def _heldout_rep(ctx: SimpleNamespace) -> Outcome:
    result = trainer.evaluate(ctx.test, ctx.state, ctx.ccfg)
    failures = checks.accuracy_floor(result["accuracy"], ctx.p["classes"], "held-out")
    if result["count"] != len(ctx.test):
        failures.append(f"evaluate counted {result['count']} samples, "
                        f"expected {len(ctx.test)}")
    if not math.isfinite(result["mean_loss"]):
        failures.append("evaluate returned a non-finite mean loss")
    return Outcome(items=len(ctx.test),
                   digest=_digest(result["accuracy"], result["mean_loss"]),
                   accuracy=result["accuracy"], failures=failures)


# --- transport_solve ----------------------------------------------------------

# (rows, cols) per batch shape, per slice: "uot" uses the classifier's
# relaxed column marginal, "balanced" pins both marginals (`no_uot`)
TRANSPORT = {
    "full": dict(uot=((4, 16), (4, 49), (4, 196)), balanced=((4, 16), (4, 49)),
                 batches=2, batch_size=128, dim=64),
    "tiny": dict(uot=((4, 16), (4, 49), (4, 196)), balanced=((4, 16), (4, 49)),
                 batches=1, batch_size=2, dim=16),
}


def _unit_rows(rng, rows: int, dim: int) -> np.ndarray:
    a = rng.standard_normal((rows, dim))
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def _transport_setup(p: dict, seed: int, directory: Path) -> SimpleNamespace:
    """Cosine costs of random unit prompt rows against unit feature rows."""
    ccfg = classifier.ClassifierConfig()
    regimes = {"uot": (ccfg.rho1, ccfg.rho2), "balanced": (transport.INF, transport.INF)}
    batches = []
    for r, (regime, (rho1, rho2)) in enumerate(regimes.items()):
        for s, (rows, cols) in enumerate(p[regime]):
            for k in range(p["batches"]):
                rng = np.random.default_rng([seed, 7, r, s, k])
                batch = []
                for _ in range(p["batch_size"]):
                    cost = classifier.cost_matrix(_unit_rows(rng, cols, p["dim"]),
                                                  _unit_rows(rng, rows, p["dim"]))
                    batch.append(transport.TransportProblem(
                        cost=cost, row_marginal=classifier.prompt_marginal(rows),
                        col_marginal=np.full(cols, 1.0 / cols), lam=ccfg.lam,
                        rho1=rho1, rho2=rho2))
                batches.append(batch)
    return SimpleNamespace(p=p, batches=batches,
                           digest=_digest(*(q.cost for b in batches for q in b)))


def _transport_rep(ctx: SimpleNamespace) -> Outcome:
    for batch in ctx.batches:
        transport.solve_uot_batch(batch)
    return Outcome(items=sum(len(b) for b in ctx.batches), digest="")


WORKLOADS = {w.name: w for w in (
    Workload("fewshot_train", FEWSHOT, _fewshot_setup, _fewshot_rep,
             _prompt_encodings, scores_samples=True),
    Workload("heldout_eval", HELDOUT, _heldout_setup, _heldout_rep,
             _prompt_encodings, scores_samples=True),
    Workload("transport_solve", TRANSPORT, _transport_setup, _transport_rep,
             lambda p: 0, scores_samples=False),
)}
