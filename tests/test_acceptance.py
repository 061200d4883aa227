"""End-to-end acceptance gate.

Each test here covers one headline guarantee at its stated tolerance and
prints a single PASS/FAIL line with the measured quantity, so a plain
pytest run doubles as a checkable scorecard. Tolerances are asserted at
the published bound even where the implementation does orders of
magnitude better.
"""

import json
import time

import numpy as np
import pytest

from conftest import build_gradcheck_instance, record_scorecard
from oracle import GridSpec, finite_diff_grad, grid_minimize
from uotalign.classifier import ClassifierConfig, cost_matrix, cost_matrix_backward, likelihood
from uotalign.cli import build_outlier_instance, main, outlier_mass
from uotalign.features import (
    read_embedding_file,
    synth_dataset,
    load_split,
    write_embedding_file,
)
from uotalign.prompts import AttentionParams, FrozenEncoder, attention_backward, attention_forward
from uotalign.trainer import (
    TrainConfig,
    batch_loss_and_grads,
    evaluate,
    save_checkpoint,
    train,
)
from uotalign.transport import (
    INF,
    SolverConfig,
    TransportProblem,
    primal_value,
    solve_uot,
)


def _report(name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    record_scorecard(line)
    assert ok, f"{name}: {detail}"


def _unit_rows(rng, shape):
    X = rng.standard_normal(shape)
    return X / np.linalg.norm(X, axis=-1, keepdims=True)


def test_oracle_equivalence():
    """30 seeded instances agree with the exhaustive grid oracle."""
    combos = []
    for size in [(2, 2), (2, 3), (3, 2)]:
        for lam in (0.05, 0.1):
            for rho in (0.5, 1.0, INF):
                combos.append((size, lam, rho))
    solver = SolverConfig(max_iterations=20000, dual_tolerance=1e-12)
    spec = GridSpec(resolution=9, refinement_rounds=7)
    t0 = time.perf_counter()
    worst = 0.0
    for idx in range(30):
        (R, C), lam, rho = combos[idx % len(combos)]
        rng = np.random.default_rng([90, idx])
        cost = rng.uniform(0.0, 1.0, (R, C))
        n = rng.uniform(0.2, 1.0, R)
        m = rng.uniform(0.2, 1.0, C)
        n /= n.sum()
        if np.isinf(rho):
            m /= m.sum()
        else:
            m *= rng.uniform(0.8, 1.3) / m.sum()
        problem = TransportProblem(cost=cost, row_marginal=n, col_marginal=m,
                                   lam=lam, rho1=rho, rho2=rho)
        plan = solve_uot(problem, solver)
        _, val_oracle = grid_minimize(problem, spec)
        worst = max(worst, abs(primal_value(plan.coupling, problem) - val_oracle))
    elapsed = time.perf_counter() - t0
    _report("oracle equivalence", worst < 1e-3 and elapsed < 60.0,
            f"max |solver - oracle| = {worst:.2e} (< 1e-3) over 30 instances "
            f"in {elapsed:.1f}s (< 60s)")


def test_balanced_feasibility():
    """50 random balanced instances satisfy both marginals to 1e-6."""
    solver = SolverConfig(max_iterations=20000, dual_tolerance=1e-12)
    worst = 0.0
    for k in range(50):
        rng = np.random.default_rng([91, k])
        R = int(rng.integers(2, 11))
        C = int(rng.integers(2, 11))
        cost = rng.uniform(0.0, 1.0, (R, C))
        n = rng.uniform(0.2, 1.0, R)
        m = rng.uniform(0.2, 1.0, C)
        n /= n.sum()
        m /= m.sum()
        plan = solve_uot(TransportProblem(cost=cost, row_marginal=n, col_marginal=m,
                                          lam=0.1, rho1=INF, rho2=INF), solver)
        assert plan.converged
        worst = max(worst,
                    float(np.abs(plan.coupling.sum(axis=1) - n).sum()),
                    float(np.abs(plan.coupling.sum(axis=0) - m).sum()))
    _report("balanced feasibility", worst < 1e-6,
            f"max marginal L1 violation = {worst:.2e} (< 1e-6) "
            f"over 50 instances up to 10x10")


def test_unbalanced_to_balanced_limit():
    """rho = 1e6 couplings match balanced couplings entrywise."""
    worst = 0.0
    for k in range(10):
        rng = np.random.default_rng([92, k])
        cost = rng.uniform(0.0, 1.0, (5, 7))
        n = rng.uniform(0.2, 1.0, 5)
        m = rng.uniform(0.2, 1.0, 7)
        n /= n.sum()
        m /= m.sum()
        bal = solve_uot(TransportProblem(cost=cost, row_marginal=n,
                                         col_marginal=m, lam=0.1,
                                         rho1=INF, rho2=INF),
                        SolverConfig(max_iterations=20000,
                                     dual_tolerance=1e-12))
        uot = solve_uot(TransportProblem(cost=cost, row_marginal=n,
                                         col_marginal=m, lam=0.1,
                                         rho1=1e6, rho2=1e6),
                        SolverConfig(max_iterations=3000,
                                     dual_tolerance=1e-10))
        worst = max(worst, float(np.abs(uot.coupling - bal.coupling).max()))
    _report("unbalanced-to-balanced limit", worst < 1e-4,
            f"max |W(rho=1e6) - W(balanced)| = {worst:.2e} (< 1e-4) "
            f"over 10 random 5x7 instances")


def test_outlier_suppression():
    """4 prompts x 20 images, 4 true matches: OT is forced to feed the
    16 outliers 0.8 of its mass, marginal relaxation starves them."""
    t0 = time.perf_counter()
    cost, n, m, mask = build_outlier_instance(4, 4, 16, seed=0)
    solver = SolverConfig(max_iterations=20000, dual_tolerance=1e-9)
    ot, uot = (solve_uot(TransportProblem(cost=cost, row_marginal=n, col_marginal=m,
                                          lam=0.01, rho1=INF, rho2=rho), solver)
               for rho in (INF, 0.04))
    mass_ot = outlier_mass(ot.coupling, mask)
    mass_uot = outlier_mass(uot.coupling, mask)
    elapsed = time.perf_counter() - t0
    _report("outlier suppression",
            abs(mass_ot - 0.8) < 1e-12 and mass_uot < 0.05 and elapsed < 5.0,
            f"OT outlier mass = {mass_ot:.12f} (= 0.8), UOT outlier mass = "
            f"{mass_uot:.2e} (< 0.05) in {elapsed:.2f}s (< 5s)")


def test_gradient_correctness():
    """Attention, encoder and cost backward passes plus the full
    frozen-coupling loss gradient match central finite differences."""
    rels = {}

    rng = np.random.default_rng(5)
    T = rng.standard_normal((4, 6))
    params = AttentionParams.seeded(6, 6, seed=5)
    R = rng.standard_normal((4, 6))
    _, gq, gk, gv = attention_backward(T, params, R)
    for name, W, g in (("w_query", params.w_query, gq),
                       ("w_key", params.w_key, gk),
                       ("w_value", params.w_value, gv)):
        def f_attn(x, W=W, name=name):
            p2 = AttentionParams(
                w_query=x.reshape(W.shape) if name == "w_query" else params.w_query,
                w_key=x.reshape(W.shape) if name == "w_key" else params.w_key,
                w_value=x.reshape(W.shape) if name == "w_value" else params.w_value)
            return float(np.sum(attention_forward(T, p2) * R))
        fd = finite_diff_grad(f_attn, W.ravel(), step=1e-6)
        rels[f"attention {name}"] = (np.linalg.norm(g.ravel() - fd)
                                     / np.linalg.norm(fd))

    encoder = FrozenEncoder.seeded(6, 8, seed=5)
    r = rng.standard_normal(8)
    g_tok = encoder.encode_backward(T, r)
    fd = finite_diff_grad(
        lambda x: float(encoder.encode(x.reshape(4, 6)) @ r),
        T.ravel(), step=1e-6)
    rels["encoder tokens"] = (np.linalg.norm(g_tok.ravel() - fd)
                              / np.linalg.norm(fd))

    F = _unit_rows(rng, (5, 8))
    G = _unit_rows(rng, (3, 8))
    U = rng.standard_normal((3, 5))
    g_G = cost_matrix_backward(F, G, U)
    fd = finite_diff_grad(
        lambda x: float(np.sum(cost_matrix(F, x.reshape(3, 8)) * U)),
        G.ravel(), step=1e-6)
    rels["cost prompts"] = np.linalg.norm(g_G.ravel() - fd) / np.linalg.norm(fd)

    bank, enc, batch, ccfg = build_gradcheck_instance()
    _, grads, _ = batch_loss_and_grads(batch, bank, ccfg, enc)
    params_live = bank.trainable_arrays()
    for key in sorted(grads):
        p = params_live[key]
        orig = p.copy()

        def full_loss(x, p=p, orig=orig):
            p[...] = x.reshape(p.shape)
            try:
                val, _, _ = batch_loss_and_grads(batch, bank, ccfg, enc)
            finally:
                p[...] = orig
            return val

        fd = finite_diff_grad(full_loss, orig.ravel(), step=1e-5)
        rels[f"full loss {key}"] = (np.linalg.norm(grads[key].ravel() - fd)
                                    / np.linalg.norm(fd))

    worst_name, worst = max(rels.items(), key=lambda kv: kv[1])
    _report("gradient correctness", worst < 2e-3,
            f"worst relative FD error = {worst:.2e} (< 2e-3, at {worst_name}; "
            f"{len(rels)} checks, full-loss checks re-solve transport per "
            f"perturbation)")


@pytest.fixture(scope="module")
def fewshot_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept")
    return synth_dataset(root / "data", num_classes=3, per_class=10, tokens=8,
                         dim=32, separation=10.0, seed=0)


def test_few_shot_end_to_end(fewshot_dataset):
    """3 classes, 4-shot, training defaults: fits train, generalizes."""
    cfg = TrainConfig(seed=0)  # lr 2e-3, batch 32, 50 epochs
    ccfg = ClassifierConfig()
    t0 = time.perf_counter()
    state = train(fewshot_dataset, cfg, ccfg)
    train_acc = evaluate(load_split(fewshot_dataset, "train"), state,
                         ccfg)["accuracy"]
    test_acc = evaluate(load_split(fewshot_dataset, "test"), state,
                        ccfg)["accuracy"]
    elapsed = time.perf_counter() - t0
    state2 = train(fewshot_dataset, cfg, ccfg)
    deterministic = state2.history == state.history
    _report("few-shot end-to-end",
            train_acc >= 0.95 and test_acc >= 0.90 and elapsed < 120.0
            and deterministic,
            f"train accuracy = {train_acc:.3f} (>= 0.95), held-out accuracy "
            f"= {test_acc:.3f} (>= 0.90), deterministic rerun = "
            f"{deterministic}, {elapsed:.1f}s (< 120s)")


def test_ablation_harness(fewshot_dataset, tmp_path):
    """The ablate command finishes all six variants and emits the table."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "epochs": 2, "seed": 0, "token_dim": 16, "context_length": 4,
        "num_class_prompts": 2,
    }))
    out = tmp_path / "ablation"
    code = main(["ablate", "--manifest",
                 str(fewshot_dataset.root / "manifest.json"),
                 "--config", str(cfg_path), "--out", str(out)])
    rows = json.loads((out / "ablation.json").read_text())["rows"]
    table_lines = (out / "ablation.csv").read_text().strip().split("\n")
    ok = (code == 0 and len(rows) == 6
          and [r["variant"] for r in rows]
          == ["full", "no_csc", "no_sc", "no_gpt_init", "no_uot",
              "no_self_attention"]
          and all("error" not in r for r in rows)
          and len(table_lines) == 6)
    _report("ablation harness", ok,
            f"exit code {code}, {len(rows)} variant rows, all completed, "
            f"{len(table_lines)}-line comparison table emitted")


def test_probability_invariants():
    """Likelihoods are normalized and shift-invariant in argmax."""
    worst_sum = 0.0
    shifts_ok = True
    for k in range(1000):
        rng = np.random.default_rng([93, k])
        K = int(rng.integers(2, 9))
        d = rng.uniform(-2.0, 2.0, K)
        tau = float(rng.uniform(0.01, 1.0))
        p = likelihood(d, tau)
        worst_sum = max(worst_sum, abs(float(p.sum()) - 1.0))
        shifted = likelihood(d + float(rng.uniform(-100, 100)), tau)
        shifts_ok = shifts_ok and int(np.argmax(p)) == int(np.argmax(shifted))
    _report("probability invariants", worst_sum < 1e-12 and shifts_ok,
            f"max |sum - 1| = {worst_sum:.2e} (< 1e-12) over 1000 vectors, "
            f"argmax invariant under uniform score shifts: {shifts_ok}")


def test_determinism_and_formats(tmp_path):
    """Fixed seeds give bitwise-identical checkpoints; EMB1 is lossless."""
    manifest = synth_dataset(tmp_path / "d", num_classes=2, per_class=8,
                             tokens=4, dim=12, separation=8.0, seed=5)
    kw = dict(token_dim=12, context_length=3, num_class_prompts=2)
    cfg = TrainConfig(epochs=2, seed=7)
    ccfg = ClassifierConfig()
    paths = []
    for tag in ("a", "b"):
        state = train(manifest, cfg, ccfg, **kw)
        path = tmp_path / f"{tag}.ckpt"
        save_checkpoint(state, path)
        paths.append(path)
    ckpt_identical = paths[0].read_bytes() == paths[1].read_bytes()

    rng = np.random.default_rng(17)
    M = rng.standard_normal((7, 5)).astype(np.float32).astype(np.float64)
    p1, p2 = tmp_path / "m1.emb1", tmp_path / "m2.emb1"
    write_embedding_file(p1, M)
    back = read_embedding_file(p1)
    write_embedding_file(p2, back)
    emb_lossless = (np.array_equal(back, M)
                    and p1.read_bytes() == p2.read_bytes())
    _report("determinism and formats", ckpt_identical and emb_lossless,
            f"repeated seeded runs bitwise-identical checkpoints: "
            f"{ckpt_identical}, embedding file round-trip lossless: "
            f"{emb_lossless}")
