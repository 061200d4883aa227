"""Command-line surface over the solver, classifier and trainer.

Subcommands: solve, compare, train, eval, ablate, heatmap,
gen-descriptions, synth. Couplings and heatmaps interchange as
headerless full-precision CSV (one row per line, repr round-trip
floats); bulk embeddings as EMB1; everything else as strict JSON with
sorted keys, an undefined (NaN) metric written as null. Identical
inputs and seeds produce identical bytes at a fixed BLAS thread count;
matrix products may round differently with another count, so set
OPENBLAS_NUM_THREADS=1 where outputs must match across machines.

Exit codes are a stable contract: 0 success, 1 error (a usage error
included), 2 only a solve that hit its iteration cap, 3 some classes of
gen-descriptions failed. Config files are strict JSON in one flat
namespace mirroring the TrainConfig, ClassifierConfig and nested
SolverConfig field names plus the prompt-bank sizes; unknown keys are
errors, not warnings, so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from .classifier import ClassifierConfig, score
from .features import (
    load_feature_set,
    load_manifest,
    load_split,
    read_embedding_file,
    read_json_object,
    synth_dataset,
    write_embedding_file,
)
from .prompts import (
    load_description_manifest,
    parse_descriptions,
    render_description_prompt,
)
from .trainer import (
    TrainConfig,
    apply_variant,
    evaluate,
    load_checkpoint,
    run_ablation,
    save_checkpoint,
    train,
)
from .transport import (
    INF,
    SolverConfig,
    TransportProblem,
    dual_value,
    primal_value,
    solve_uot,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_CONVERGENCE = 2
EXIT_PARTIAL_FAILURE = 3

_TRAIN_KEYS = {f.name for f in dataclasses.fields(TrainConfig)}
_CLASSIFIER_KEYS = {f.name for f in dataclasses.fields(ClassifierConfig)} - {"solver"}
_SOLVER_KEYS = {f.name for f in dataclasses.fields(SolverConfig)}
_BANK_KEYS = {"num_shared_prompts", "num_class_prompts", "context_length",
              "token_dim"}
_INT_KEYS = _BANK_KEYS | {"batch_size", "epochs", "shots", "seed", "max_iterations"}
_FLOAT_KEYS = {"learning_rate", "tau", "gamma_cs", "gamma_ds", "lam", "dual_tolerance"}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _config_value(key, value):
    """`value` of config `key` if it has the key's JSON type, converted.

    Counts, sizes and seeds are integers; the other scalars are numbers
    (never booleans); rho1/rho2 are numbers or "inf"; augmentation is a
    list of 2 numbers and variant a string. Anything else is a schema
    violation.
    """
    if key in _INT_KEYS:
        ok, want = type(value) is int, "an integer"
    elif key in _FLOAT_KEYS:
        ok, want = _is_number(value), "a number"
    elif key in ("rho1", "rho2"):
        ok = _is_number(value) or (isinstance(value, str)
                                   and value.strip().lower() in ("inf", "infinity"))
        want = 'a number or "inf"'
    elif key == "augmentation":
        ok = isinstance(value, list) and len(value) == 2 and all(map(_is_number, value))
        want = "a list of 2 numbers"
    else:
        ok, want = isinstance(value, str), "a string"
    if not ok:
        raise ValueError(f"schema violation: {key} must be {want}, got {value!r}")
    if key in ("rho1", "rho2"):
        return float(value)
    return tuple(value) if key == "augmentation" else value


def load_config(path):
    """Strict flat JSON config -> (TrainConfig, ClassifierConfig, bank
    kwargs), the SolverConfig keys going to ClassifierConfig.solver.
    Unknown keys are errors, and so is a value of the wrong JSON type
    (see _config_value)."""
    if path is None:
        return TrainConfig(), ClassifierConfig(), {}
    doc = read_json_object(path)
    train_kw, ccfg_kw, solver_kw, bank_kw = {}, {}, {}, {}
    for key, value in doc.items():
        for keys, kw in ((_TRAIN_KEYS, train_kw), (_CLASSIFIER_KEYS, ccfg_kw),
                         (_SOLVER_KEYS, solver_kw), (_BANK_KEYS, bank_kw)):
            if key in keys:
                kw[key] = _config_value(key, value)
                break
        else:
            raise ValueError(f"unknown config key: {key!r}")
    return (TrainConfig(**train_kw),
            ClassifierConfig(**ccfg_kw, solver=SolverConfig(**solver_kw)), bank_kw)


def _fmt(x) -> str:
    return repr(float(x))


def write_csv(path, arr) -> None:
    """Headerless row-major CSV with round-trip float precision."""
    arr = np.atleast_2d(np.asarray(arr, dtype=np.float64))
    lines = [",".join(_fmt(x) for x in row) for row in arr]
    Path(path).write_text("\n".join(lines) + "\n")


def read_csv_matrix(path) -> np.ndarray:
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    except ValueError as e:
        raise ValueError(f"corrupt file: {path} is not numeric CSV ({e})") from e


def _null_nonfinite(doc):
    if isinstance(doc, dict):
        return {k: _null_nonfinite(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_null_nonfinite(v) for v in doc]
    if isinstance(doc, float) and not math.isfinite(doc):
        return None
    return doc


def write_json(path, doc) -> None:
    """Strict JSON: a non-finite float (an undefined metric) is written as null."""
    text = json.dumps(_null_nonfinite(doc), indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def _load_cost(path) -> np.ndarray:
    path = Path(path)
    if path.suffix in (".emb", ".emb1"):
        return read_embedding_file(path)
    return read_csv_matrix(path)


def _load_vector(path, length, name) -> np.ndarray:
    if path is None:
        return np.full(length, 1.0 / length)
    vec = read_csv_matrix(path).ravel()
    if vec.shape != (length,):
        raise ValueError(f"{name} has {vec.size} entries, cost needs {length}")
    return vec


def cmd_solve(args) -> int:
    cost = _load_cost(args.cost)
    n = _load_vector(args.rows, cost.shape[0], "row marginal")
    m = _load_vector(args.cols, cost.shape[1], "column marginal")
    problem = TransportProblem(cost=cost, row_marginal=n, col_marginal=m,
                               lam=args.lam, rho1=args.rho1, rho2=args.rho2)
    rows, cols = problem.row_marginal.sum(), problem.col_marginal.sum()
    if problem.rho1 == problem.rho2 == INF and abs(rows - cols) > 1e-9:
        # no coupling meets two pinned marginals of unequal mass
        raise ValueError(f"marginal mass mismatch: {rows:.12g} vs {cols:.12g}")
    solver = SolverConfig(max_iterations=args.max_iterations,
                          dual_tolerance=args.dual_tolerance)
    plan = solve_uot(problem, solver)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "coupling.csv", plan.coupling)
    write_embedding_file(out / "coupling.emb1", plan.coupling)
    write_csv(out / "u.csv", plan.u.reshape(1, -1))
    write_csv(out / "v.csv", plan.v.reshape(1, -1))
    write_json(out / "summary.json", {
        "primal_value": primal_value(plan.coupling, problem),
        "dual_value": dual_value(plan.u, plan.v, problem),
        "iterations": plan.iterations,
        "converged": plan.converged,
        "clamped": plan.clamped,
        "row_masses": [float(x) for x in plan.coupling.sum(axis=1)],
        "column_masses": [float(x) for x in plan.coupling.sum(axis=0)],
        "total_mass": float(plan.coupling.sum()),
    })
    if not plan.converged:
        print(f"max iterations reached ({plan.iterations}) before the dual "
              f"tolerance; outputs are the last iterate", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def build_outlier_instance(num_prompts: int, num_matches: int,
                           num_outliers: int, seed: int, dim: int = 16):
    """Prompt/image cosine-cost instance with known outlier columns.

    Matched images are small perturbations of a prompt embedding
    (round-robin), outliers point away from every prompt. Returns
    (cost, row marginal, column marginal, outlier column mask).
    """
    if num_prompts < 1 or num_matches < 0 or num_outliers < 0:
        raise ValueError("counts must be nonnegative (prompts >= 1)")
    if num_matches + num_outliers < 1:
        raise ValueError("instance needs at least one image")
    rng = np.random.default_rng([seed, 45])
    G = rng.standard_normal((num_prompts, dim))
    G /= np.linalg.norm(G, axis=1, keepdims=True)
    cols = []
    for j in range(num_matches):
        f = G[j % num_prompts] + 0.05 * rng.standard_normal(dim)
        cols.append(f / np.linalg.norm(f))
    away = -G.mean(axis=0)
    away /= np.linalg.norm(away)
    for _ in range(num_outliers):
        f = away + 0.05 * rng.standard_normal(dim)
        cols.append(f / np.linalg.norm(f))
    F = np.array(cols)
    cost = 1.0 - G @ F.T
    num_images = num_matches + num_outliers
    n = np.full(num_prompts, 1.0 / num_prompts)
    m = np.full(num_images, 1.0 / num_images)
    mask = np.zeros(num_images, dtype=bool)
    mask[num_matches:] = True
    return cost, n, m, mask


def outlier_mass(coupling: np.ndarray, mask: np.ndarray) -> float:
    """Fraction of transported mass landing on the masked columns."""
    total = float(coupling.sum())
    if total <= 0:
        raise ValueError("zero marginal mass: empty coupling")
    return float(coupling[:, mask].sum()) / total


def cmd_compare(args) -> int:
    cost, n, m, mask = build_outlier_instance(args.prompts, args.matches,
                                              args.outliers, args.seed,
                                              dim=args.dim)
    solver = SolverConfig(max_iterations=args.max_iterations,
                          dual_tolerance=args.dual_tolerance)
    ot, uot = (solve_uot(TransportProblem(cost=cost, row_marginal=n, col_marginal=m,
                                          lam=args.lam, rho1=INF, rho2=rho), solver)
               for rho in (INF, args.rho2))
    mass_ot = outlier_mass(ot.coupling, mask)
    mass_uot = outlier_mass(uot.coupling, mask)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "ot_coupling.csv", ot.coupling)
    write_csv(out / "uot_coupling.csv", uot.coupling)
    write_json(out / "summary.json", {
        "num_prompts": args.prompts,
        "num_images": args.matches + args.outliers,
        "num_outliers": args.outliers,
        "ot_outlier_mass": mass_ot,
        "uot_outlier_mass": mass_uot,
        "ot_converged": ot.converged,
        "uot_converged": uot.converged,
    })
    if args.outliers > 0 and not mass_uot < mass_ot:
        raise ValueError(
            f"marginal relaxation did not suppress outliers: UOT mass "
            f"{mass_uot:.6f} >= OT mass {mass_ot:.6f}")
    return EXIT_OK


def _resolve_configs(args):
    cfg, ccfg, bank_kw = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg, ccfg, bank_kw


def cmd_train(args) -> int:
    manifest = load_manifest(args.manifest)
    cfg, ccfg, bank_kw = _resolve_configs(args)
    descriptions = (None if args.descriptions is None
                    else load_description_manifest(args.descriptions))
    state = train(manifest, cfg, ccfg, descriptions=descriptions, **bank_kw)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(state, out / "checkpoint.ckpt")
    history = np.array([[h["epoch"], h["loss"], h["accuracy"]]
                        for h in state.history]).reshape(-1, 3)
    write_csv(out / "history.csv", history)
    write_json(out / "metrics.json", {
        "variant": cfg.variant,
        "epochs": state.epoch,
        "steps": state.step,
        "final_train_loss": state.history[-1]["loss"] if state.history else None,
        "train_accuracy": state.history[-1]["accuracy"] if state.history else None,
    })
    return EXIT_OK


def cmd_eval(args) -> int:
    manifest = load_manifest(args.manifest)
    state = load_checkpoint(args.checkpoint)
    cfg, ccfg, _ = load_config(args.config)
    ccfg, _ = apply_variant(cfg.variant, ccfg)
    samples = load_split(manifest, args.split)
    if not samples:
        raise ValueError(f"empty split: no {args.split!r} samples in manifest")
    metrics = evaluate(samples, state, ccfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "metrics.json", {"split": args.split, **metrics})
    return EXIT_OK


def cmd_ablate(args) -> int:
    manifest = load_manifest(args.manifest)
    cfg, ccfg, bank_kw = _resolve_configs(args)
    descriptions = (None if args.descriptions is None
                    else load_description_manifest(args.descriptions))
    rows = run_ablation(manifest, cfg, ccfg, descriptions=descriptions, **bank_kw)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "ablation.json", {"rows": rows, "seed": cfg.seed})
    # a failed variant's row has no metrics: nan in every column
    metrics = ("train_accuracy", "test_accuracy", "test_loss", "final_train_loss")
    lines = [",".join([row["variant"], *(_fmt(row.get(key, math.nan)) for key in metrics)])
             for row in rows]
    (out / "ablation.csv").write_text("\n".join(lines) + "\n")
    failed = [row for row in rows if "error" in row]
    for row in failed:
        print(f"variant {row['variant']} failed: {row['error']}", file=sys.stderr)
    return EXIT_ERROR if failed else EXIT_OK


def cmd_heatmap(args) -> int:
    state = load_checkpoint(args.checkpoint)
    manifest = load_manifest(args.manifest)
    record = next((s for s in manifest.samples if s.sample_id == args.sample_id),
                  None)
    if record is None:
        raise ValueError(f"sample {args.sample_id!r} not in manifest")
    fs = load_feature_set(Path(manifest.root) / record.path,
                          sample_id=record.sample_id, label=record.label)
    cfg, ccfg, _ = load_config(args.config)
    ccfg, _ = apply_variant(cfg.variant, ccfg)
    fw = score(fs, args.class_id, state.bank, state.encoder, ccfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for tag, W in fw.couplings.items():
        write_csv(out / f"heatmap_{tag}.csv", W[0])
    write_json(out / "summary.json", {
        "sample_id": args.sample_id,
        "class_id": args.class_id,
        "d_cs": 0.0, "d_ds": 0.0,  # a disabled path's distance
        **{f"d_{tag}": float(D[0, 0]) for tag, D in fw.d_path.items()},
        "d_total": float(fw.d[0, 0]),
        "heatmaps": {tag: list(W[0].shape) for tag, W in fw.couplings.items()},
    })
    return EXIT_OK


def cmd_gen_descriptions(args) -> int:
    classes = [c.strip() for c in args.classes.split(",") if c.strip()]
    if not classes:
        raise ValueError("no classes given")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    failures = {}
    index = {}
    for cls in classes:
        rendered = render_description_prompt(cls)
        prompt_path = out / f"{cls}.prompt.txt"
        prompt_path.write_text(rendered)
        if args.template is None:
            continue
        command = args.template.replace("{class}", cls)
        proc = subprocess.run(command, shell=True, input=rendered.encode(),
                              capture_output=True)
        if proc.returncode != 0:
            failures[cls] = (f"template exited {proc.returncode}: "
                             + proc.stderr.decode(errors="replace").strip())
            continue
        raw_path = out / f"{cls}.json"
        raw_path.write_bytes(proc.stdout)
        try:
            class_name, texts = parse_descriptions(raw_path)
        except ValueError as e:
            failures[cls] = str(e)
            raw_path.rename(out / f"{cls}.rejected.txt")
            continue
        index[cls] = f"{cls}.json"
        if class_name != cls:
            # keep the file but name the class authoritatively
            write_json(raw_path, {"class_name": cls, "description": texts})
    if args.template is not None and index:
        write_json(out / "descriptions.json", index)
    if failures:
        for cls, why in sorted(failures.items()):
            print(f"class {cls!r} failed: {why}", file=sys.stderr)
        write_json(out / "failures.json", failures)
        return EXIT_PARTIAL_FAILURE
    return EXIT_OK


def cmd_synth(args) -> int:
    synth_dataset(args.out, num_classes=args.num_classes,
                  per_class=args.per_class, tokens=args.tokens, dim=args.dim,
                  separation=args.separation, seed=args.seed, shots=args.shots)
    return EXIT_OK


def _add_common(p, *, config=False, seed=False, seed_default=None):
    # --config and --seed go only to the subcommands that read them
    if config:
        p.add_argument("--config", default=None, help="strict JSON config file")
    if seed:
        p.add_argument("--seed", type=int, default=seed_default,
                       help="seed override")
    p.add_argument("--verbose", "-v", action="store_true",
                   help="re-raise errors with a traceback instead of one line")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uotalign",
        description="entropic (unbalanced) transport solvers and the "
                    "prompt-alignment trainer built on them")
    sub = parser.add_subparsers(dest="command", required=True)
    ccfg = ClassifierConfig()  # solve and compare default to the library's settings

    p = sub.add_parser("solve", help="solve one transport instance from files")
    p.add_argument("--cost", required=True, help="cost matrix (CSV or EMB1)")
    p.add_argument("--rows", default=None, help="row marginal CSV (default uniform)")
    p.add_argument("--cols", default=None, help="column marginal CSV (default uniform)")
    p.add_argument("--lam", type=float, default=ccfg.lam)
    p.add_argument("--rho1", type=float, default=ccfg.rho1)
    p.add_argument("--rho2", type=float, default=ccfg.rho2)
    p.add_argument("--max-iterations", type=int, default=ccfg.solver.max_iterations)
    p.add_argument("--dual-tolerance", type=float, default=ccfg.solver.dual_tolerance)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("compare", help="balanced OT vs UOT on an outlier instance")
    p.add_argument("--prompts", type=int, default=4)
    p.add_argument("--matches", type=int, default=4)
    p.add_argument("--outliers", type=int, default=16)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--lam", type=float, default=ccfg.lam)
    p.add_argument("--rho2", type=float, default=ccfg.rho2)
    p.add_argument("--max-iterations", type=int, default=20000)
    p.add_argument("--dual-tolerance", type=float, default=ccfg.solver.dual_tolerance)
    p.add_argument("--out", required=True)
    _add_common(p, seed=True, seed_default=0)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("train", help="few-shot training run")
    p.add_argument("--manifest", required=True)
    p.add_argument("--descriptions", default=None,
                   help="description manifest JSON (class -> file)")
    p.add_argument("--out", required=True)
    _add_common(p, config=True, seed=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--out", required=True)
    _add_common(p, config=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train and score every variant")
    p.add_argument("--manifest", required=True)
    p.add_argument("--descriptions", default=None)
    p.add_argument("--out", required=True)
    _add_common(p, config=True, seed=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("heatmap", help="per-prompt transport plans for one sample")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--sample-id", required=True)
    p.add_argument("--class-id", required=True)
    p.add_argument("--out", required=True)
    _add_common(p, config=True)
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("gen-descriptions",
                       help="render description prompts, optionally run a "
                            "template command per class")
    p.add_argument("--classes", required=True, help="comma-separated class names")
    p.add_argument("--template", default=None,
                   help="shell command fed the rendered prompt on stdin; "
                        "{class} is substituted")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_gen_descriptions)

    p = sub.add_parser("synth", help="write a synthetic local-feature dataset")
    p.add_argument("--num-classes", type=int, default=3)
    p.add_argument("--per-class", type=int, default=20)
    p.add_argument("--tokens", type=int, default=8)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--separation", type=float, default=4.0)
    p.add_argument("--shots", type=int, default=4,
                   help="shot count recorded in manifest.json only; train "
                        "and ablate read `shots` from --config")
    p.add_argument("--out", required=True)
    _add_common(p, seed=True, seed_default=0)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse has printed the usage error or --help
        return EXIT_ERROR if e.code else EXIT_OK
    try:
        return args.func(args)
    except Exception as e:  # noqa: BLE001 - diagnostics, not tracebacks
        if args.verbose:
            raise
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
