"""Records of seeded results that a behaviour-preserving change keeps bitwise.

Run it on two trees at one BLAS thread and compare the outputs:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<tree>/src python tests/parity.py > records.json
    diff parent.json change.json

The output is sorted-key JSON; floats print as their shortest round-trip
repr, so equal text means equal bits. The records are:

- train: a `train` run (3 epochs at full size) for each seed and each
  (augmentation, variant) pair of AUGMENTATIONS, as its checkpoint's
  sha256 and the `evaluate` dicts of the val and test splits. Sample s
  has the token count tokens[s % len(tokens)], so batches mix counts and
  `forward` spreads them over several solve calls. Drop 0.3 leaves 34,
  31 and 28 of 49, 44 and 40 tokens.
- evaluate: per seed, the test-split `evaluate` dict of a 1-epoch run at
  196 tokens, as the held-out benchmark scores.
- score: `score`'s d, d_path and the sha256 of each path's couplings for
  every class against the first 196-token test sample of the first seed.
- heatmap: the sha256 of every file `uotalign heatmap` writes for that
  sample and its true class from the checkpoint of the 196-token run.
- eval: the same for `uotalign eval` of that checkpoint on its test split.
- train_descriptions: the same for a `uotalign train --descriptions` run
  on the first seed's grid dataset, its description files written from
  synth_description_texts at another seed than the bank's fallback.
- ablate: the same for `uotalign ablate` on that dataset with that
  config, which trains and scores every variant.
- solve: the same for `uotalign solve` on a seeded SOLVE_SHAPE cost with
  the default (relaxed column) settings and with both marginals pinned.
- compare: the same for `uotalign compare` with its defaults.
- transport: for each seeded batch of tests/test_transport.py that
  reaches one of the solver's gated branches, the sha256 of each
  TransportPlan field over the batch's plans: the five benchmark shapes,
  relaxed and pinned, and one capped before it converges; the
  small-lambda batches, which fall back to log space and clamp; the
  capped, clamped and blown-up groups; and a batch whose instances
  finish at different iterations.

Every CLI record also holds the command's exit code.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from uotalign.classifier import ClassifierConfig, score
from uotalign.cli import main as cli_main
from uotalign.cli import write_csv
from uotalign.features import (
    load_split,
    read_embedding_file,
    synth_dataset,
    write_embedding_file,
)
from uotalign.prompts import synth_description_texts
from uotalign.transport import INF, SolverConfig, solve_uot_batch
from uotalign.trainer import (
    VARIANTS,
    TrainConfig,
    apply_variant,
    evaluate,
    save_checkpoint,
    train,
)

from test_transport import (
    BENCHMARK_SHAPES,
    CAPPED_CONFIG,
    FINISHING_APART_CONFIG,
    benchmark_problems,
    capped_clamped_and_blown_up,
    finishing_apart,
    small_lambda_problems,
)

SEEDS = (11, 12, 13)
# (jitter, drop) -> the variants trained with it
AUGMENTATIONS = {(0.05, 0.1): VARIANTS, (0.0, 0.0): VARIANTS, (0.05, 0.3): ("full",)}
SOLVE_SHAPE = (4, 49)
PLAN_FIELDS = ("coupling", "u", "v", "iterations", "converged", "clamped", "error")

# "train" sizes the grid's runs and "evaluate" the 196-token runs; "full"
# follows the bench's fewshot_train and heldout_eval shapes
SIZES = {
    "full": {
        "train": dict(classes=10, per_class=8, tokens=(49, 44, 40), dim=64,
                      shots=4, batch_size=32, epochs=3, token_dim=32),
        "evaluate": dict(classes=10, per_class=20, tokens=(196,), dim=64,
                         shots=2, batch_size=20, epochs=1, token_dim=32),
        # the benchmark shapes' batch size; the other batches are fixed
        "transport": dict(count=128),
    },
    "tiny": {
        "train": dict(classes=2, per_class=4, tokens=(4, 6, 5), dim=8,
                      shots=2, batch_size=2, epochs=1, token_dim=8),
        "evaluate": dict(classes=2, per_class=4, tokens=(12,), dim=8,
                         shots=2, batch_size=4, epochs=1, token_dim=8),
        "transport": dict(count=4),
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(args: list[str], out: Path) -> dict:
    """Run `uotalign <args> --out <out>`: its exit code and the sha256 of
    every file it wrote."""
    code = cli_main(args + ["--out", str(out)])
    files = sorted(out.iterdir()) if out.exists() else []
    return {"exit": code, **{f.name: _sha256(f.read_bytes()) for f in files}}


def _train_with_descriptions_and_ablate(directory: Path, p: dict, seed: int) -> dict:
    """`uotalign train --descriptions` and `uotalign ablate` on the dataset
    in `directory`, with one config."""
    manifest = json.loads((directory / "manifest.json").read_text())
    index = {}
    for cls, texts in synth_description_texts(manifest["classes"], seed=seed + 1).items():
        texts = getattr(texts, "descriptions", texts)  # older trees wrap the list
        (directory / f"{cls}.desc.json").write_text(
            json.dumps({"class_name": cls, "description": texts}))
        index[cls] = f"{cls}.desc.json"
    (directory / "descriptions.json").write_text(json.dumps(index))
    (directory / "config.json").write_text(json.dumps({
        "learning_rate": 2e-2, "batch_size": p["batch_size"], "epochs": p["epochs"],
        "shots": p["shots"], "seed": seed, "num_shared_prompts": 2,
        "num_class_prompts": 4, "token_dim": p["token_dim"]}))
    common = ["--manifest", str(directory / "manifest.json"),
              "--config", str(directory / "config.json")]
    return {
        "train_descriptions": _cli(["train", *common, "--descriptions",
                                    str(directory / "descriptions.json")],
                                   directory / "train_descriptions"),
        "ablate": _cli(["ablate", *common], directory / "ablate"),
    }


def _solve_and_compare(directory: Path, seed: int) -> dict:
    cost = directory / "cost.csv"
    write_csv(cost, np.random.default_rng([seed, 47]).uniform(0.0, 1.0, SOLVE_SHAPE))
    solve = ["solve", "--cost", str(cost)]
    return {
        "solve": {"default": _cli(solve, directory / "solve_default"),
                  "pinned": _cli(solve + ["--rho1", "inf", "--rho2", "inf"],
                                 directory / "solve_pinned")},
        "compare": _cli(["compare"], directory / "compare"),
    }


def _plan_digests(plans) -> dict:
    """The sha256 of each plan field over `plans`, in order."""
    out = {}
    for name in PLAN_FIELDS:
        values = [getattr(plan, name) for plan in plans]
        data = (b"".join(v.tobytes() for v in values) if name in ("coupling", "u", "v")
                else json.dumps(values).encode())
        out[name] = _sha256(data)
    return out


def _transport(p: dict) -> dict:
    out = {}
    # the benchmark pins its two smaller shapes only
    for pinned, shapes in ((False, BENCHMARK_SHAPES), (True, BENCHMARK_SHAPES[:2])):
        for rows, cols in shapes:
            out[f"{rows}x{cols} {'pinned' if pinned else 'relaxed'}"] = _plan_digests(
                solve_uot_batch(benchmark_problems((rows, cols), pinned, p["count"])))
    # relaxed rows, capped before convergence: the scaling loop's own cap
    out["4x16 relaxed capped"] = _plan_digests(solve_uot_batch(
        benchmark_problems((4, 16), False, p["count"]), SolverConfig(max_iterations=10)))
    for rho in (INF, 0.05):
        out[f"small lambda rho={rho}"] = _plan_digests(
            solve_uot_batch(small_lambda_problems(rho)))
    for name, problems in capped_clamped_and_blown_up().items():
        out[f"capped {name}"] = _plan_digests(solve_uot_batch(problems, CAPPED_CONFIG))
    out["finishing apart"] = _plan_digests(
        solve_uot_batch(finishing_apart(), FINISHING_APART_CONFIG))
    return out


def _dataset(directory: Path, p: dict, seed: int):
    """synth_dataset, with sample s cut to tokens[s % len(tokens)] rows."""
    manifest = synth_dataset(directory, num_classes=p["classes"],
                             per_class=p["per_class"], tokens=max(p["tokens"]),
                             dim=p["dim"], seed=seed, shots=p["shots"])
    for s, rec in enumerate(manifest.samples):
        path = directory / rec.path
        write_embedding_file(path, read_embedding_file(path)[:p["tokens"][s % len(p["tokens"])]])
    return manifest


def _train(manifest, p: dict, seed: int, variant: str, augmentation):
    cfg = TrainConfig(learning_rate=2e-2, batch_size=p["batch_size"],
                      epochs=p["epochs"], shots=p["shots"], seed=seed,
                      variant=variant, augmentation=augmentation)
    state = train(manifest, cfg, ClassifierConfig(), num_shared_prompts=2,
                  num_class_prompts=4, token_dim=p["token_dim"])
    return state, apply_variant(variant, ClassifierConfig())[0]


def records(sizes: dict) -> dict:
    out = {"train": {}, "evaluate": {}, "transport": _transport(sizes["transport"])}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for seed in SEEDS:
            manifest = _dataset(tmp / f"train_{seed}", sizes["train"], seed)
            splits = {split: load_split(manifest, split) for split in ("val", "test")}
            for augmentation, variants in AUGMENTATIONS.items():
                for variant in variants:
                    state, ccfg = _train(manifest, sizes["train"], seed, variant,
                                         augmentation)
                    save_checkpoint(state, tmp / "state.ckp")
                    key = f"seed={seed} augmentation={augmentation} variant={variant}"
                    out["train"][key] = {
                        "checkpoint": _sha256((tmp / "state.ckp").read_bytes()),
                        **{split: evaluate(samples, state, ccfg)
                           for split, samples in splits.items()}}

            manifest = _dataset(tmp / f"evaluate_{seed}", sizes["evaluate"], seed)
            test = load_split(manifest, "test")
            state, ccfg = _train(manifest, sizes["evaluate"], seed, "full", (0.0, 0.0))
            out["evaluate"][str(seed)] = evaluate(test, state, ccfg)
            if seed != SEEDS[0]:
                continue
            out["score"] = {}
            for class_id in state.bank.classes:
                fw = score(test[0], class_id, state.bank, state.encoder, ccfg)
                out["score"][class_id] = {
                    "d": float(fw.d[0, 0]),
                    "d_path": {tag: float(D[0, 0]) for tag, D in fw.d_path.items()},
                    # asarray also reads the per-sample lists of older trees
                    "couplings": {tag: _sha256(np.asarray(W).tobytes())
                                  for tag, W in fw.couplings.items()}}
            save_checkpoint(state, tmp / "state.ckp")
            checkpoint = ["--checkpoint", str(tmp / "state.ckp"),
                          "--manifest", str(tmp / f"evaluate_{seed}" / "manifest.json")]
            out["heatmap"] = _cli(["heatmap", *checkpoint, "--sample-id", test[0].sample_id,
                                   "--class-id", test[0].label], tmp / "heatmap")
            out["eval"] = _cli(["eval", *checkpoint], tmp / "eval")
            out.update(_train_with_descriptions_and_ablate(
                tmp / f"train_{seed}", sizes["train"], seed))
            out.update(_solve_and_compare(tmp, seed))
    return out


if __name__ == "__main__":
    json.dump(records(SIZES["full"]), sys.stdout, sort_keys=True, indent=1)
    print()
