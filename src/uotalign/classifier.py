"""Alignment scoring and classification on top of the transport solver.

A sample is a set of M local visual embeddings with per-token masses; a
class is represented by two prompt paths (class-specific and
domain-shared, see prompts). Each path yields a cost matrix
C = 1 - cos(prompt rows, visual rows) and a transport problem whose
source marginal is uniform over the prompts and whose target marginal
is the token weights. The class score is the weighted sum of the two
transported costs <W*, C>; classification is a softmax over (1 - d)/tau
across classes. forward() computes these distances for every
(sample, class, path) at once; score() is its one-sample, one-class
view. Token weights are positive (a dropped token is a removed row, see
features.augment), so every token of a sample is a column of its
problems.

The reported distance is deliberately the transported-cost component,
not the full regularized objective: it stays inside [0, 2] * mass, so
1 - d is a bounded similarity and the temperature keeps its usual
meaning. Entropy and KL penalty terms still shape W* through the
solve, they just do not enter the score.

Solver failures never produce silent NaN scores: forward() raises
NumericalBlowupError naming the sample, class and path of the failed
solve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .features import FeatureSet
from .numerics import as_matrix, as_stack, as_vector, logsumexp_axis
from .prompts import ClassEncoding, FrozenEncoder, PromptBank, encode_classes
# solve_uot is unused here; bench/test_bench.py checks it stays bound
from .transport import (  # noqa: F401
    INF,
    NumericalBlowupError,
    SolverConfig,
    TransportPlan,
    TransportProblem,
    solve_uot,
    solve_uot_batch,
)

__all__ = [
    "ClassifierConfig",
    "AlignmentScore",
    "Forward",
    "cost_matrix",
    "cost_matrix_backward",
    "prompt_marginal",
    "forward",
    "score",
    "likelihood",
    "ce_loss",
]

_UNIT_TOL = 1e-6


@dataclass(frozen=True)
class ClassifierConfig:
    """Temperature, path weights and solver parameters for scoring.

    rho1 = rho2 = INF pins both marginals, so the solves are balanced
    entropic transport: the "plain OT" ablation. A path weight of
    exactly 0 disables that path entirely: no solve is run and its plan
    slot stays None. At least one weight must be positive.
    """

    tau: float = 0.01
    gamma_cs: float = 0.5
    gamma_ds: float = 0.5
    lam: float = 0.01
    rho1: float = INF
    rho2: float = 0.04

    def __post_init__(self):
        if not (self.tau > 0):
            raise ValueError("tau must be positive")
        if self.gamma_cs < 0 or self.gamma_ds < 0:
            raise ValueError("path weights must be nonnegative")
        if self.gamma_cs == 0 and self.gamma_ds == 0:
            raise ValueError("at least one path weight must be positive")
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValueError("lam must be positive and finite")
        for name, rho in (("rho1", self.rho1), ("rho2", self.rho2)):
            if not (rho > 0):
                raise ValueError(f"{name} must be positive (or INF)")


@dataclass
class AlignmentScore:
    """Per-class alignment result: both path distances and their plans.

    d_total = gamma_cs * d_cs + gamma_ds * d_ds by construction. Plans
    have one column per token of the sample, so heatmaps line up with it.
    """

    d_cs: float
    d_ds: float
    d_total: float
    plan_cs: TransportPlan | None
    plan_ds: TransportPlan | None


def _unit_rows(features, prompts):
    """Validated features (N, d) and prompts (P, d) or (K, P, d), their
    rows normalised, plus both norms. A zero row has no direction."""
    F = as_matrix(features, "features")
    G = as_stack(prompts, "prompts", "(P, d) or (K, P, d)")
    if F.shape[1] != G.shape[-1]:
        raise ValueError(f"dimension mismatch: prompts have {G.shape[-1]} "
                         f"columns, features have {F.shape[1]}")
    nf = np.linalg.norm(F, axis=1)
    ng = np.linalg.norm(G, axis=-1)
    if np.any(ng < 1e-300) or np.any(nf < 1e-300):
        raise ValueError("degenerate embedding: zero-norm row")
    return F / nf[:, None], G / ng[..., None], nf, ng


def cost_matrix(features, prompts) -> np.ndarray:
    """Transport cost between prompt rows and visual rows, 1 - cosine.

    Rows of `prompts` index the source side (one row per prompt), rows
    of `features` the target side, so the result is (P, M), or (K, P, M)
    for a (K, P, d) stack whose slices equal single-matrix calls bitwise.
    Entries lie in [0, 2] up to roundoff. Rows are normalised here, and
    a zero row is rejected. Inputs are expected unit-norm;
    anything else gets a warning because the rest of the pipeline
    assumes the cosine and the dot product agree.
    """
    Fh, Gh, nf, ng = _unit_rows(features, prompts)
    for name, norms in (("features", nf), ("prompts", ng)):
        if np.any(np.abs(norms - 1.0) > _UNIT_TOL):
            warnings.warn(f"cost_matrix: {name} rows are not unit-norm")
    return 1.0 - Gh @ Fh.T


def cost_matrix_backward(features, prompts, upstream) -> np.ndarray:
    """Gradient of <upstream, cost_matrix(features, prompts)> in the prompts.

    The features are data, so only the prompt-side gradient is needed,
    shaped like `prompts`; a (K, P, d) stack takes a (K, P, N) upstream.
    With ghat, fhat the normalized rows, d cos / d g is
    (fhat - cos * ghat) / |g|, and the cost negates it. The cosine
    matrix is never formed: sum_n D_pn cos_pn = ghat_p . (D fhat)_p.
    """
    Fh, Gh, _, ng = _unit_rows(features, prompts)
    want = (*Gh.shape[:-1], Fh.shape[0])
    D = as_stack(upstream, "upstream", "(P, N) or (K, P, N)")
    if D.shape != want:
        raise ValueError(f"upstream shape {D.shape} does not match {want}")
    DF = D @ Fh
    return -(DF - np.sum(Gh * DF, axis=-1, keepdims=True) * Gh) / ng[..., None]


def prompt_marginal(num_prompts: int) -> np.ndarray:
    """Uniform source marginal over the prompt rows, total mass 1."""
    if num_prompts < 1:
        raise ValueError("need at least one prompt")
    return np.full(num_prompts, 1.0 / num_prompts)


@dataclass
class Forward:
    """Distances of samples to classes, plus what the backward pass needs.

    d[s, k] is the weighted distance of sample s to requested class k,
    d_path[tag][s, k] the unweighted transported cost of one path, and
    `encoding` holds the requested classes' encodings of those paths.
    Plans are keyed (s, k, tag) and have one column per token of
    sample s. Only paths with a positive weight appear in `paths`,
    `d_path` and `plans`.
    """

    d: np.ndarray
    d_path: dict[str, np.ndarray]
    paths: tuple[tuple[str, float], ...]
    encoding: ClassEncoding
    plans: dict[tuple[int, int, str], TransportPlan]


def forward(samples: list[FeatureSet], bank: PromptBank, encoder: FrozenEncoder,
            cfg: ClassifierConfig, solver: SolverConfig | None = None,
            classes: list[str] | None = None) -> Forward:
    """Score every sample against every class along both prompt paths.

    All classes are encoded at once, along the paths with a positive
    weight only, and each (sample, path) makes one cost_matrix call.
    A problem's columns are the sample's tokens and its column marginal
    their weights. Problems are grouped by shape and each group goes
    through one solve_uot_batch call, whose results equal one-at-a-time
    solves bitwise. `classes` defaults to the whole bank.
    """
    classes = list(bank.classes) if classes is None else list(classes)
    paths = tuple((tag, gamma) for tag, gamma in (("cs", cfg.gamma_cs),
                                                   ("ds", cfg.gamma_ds))
                  if gamma > 0)
    encoding = encode_classes(bank, classes, encoder, tuple(tag for tag, _ in paths))
    prompts = {tag: encoding.g_cs if tag == "cs" else encoding.g_ds for tag, _ in paths}
    marginals = {tag: prompt_marginal(G.shape[1]) for tag, G in prompts.items()}

    groups = {}
    for s, fs in enumerate(samples):
        for tag, G in prompts.items():
            for k, cost in enumerate(cost_matrix(fs.features, G)):
                problem = TransportProblem(
                    cost=cost, row_marginal=marginals[tag], col_marginal=fs.weights,
                    lam=cfg.lam, rho1=cfg.rho1, rho2=cfg.rho2)
                groups.setdefault(problem.shape, []).append(((s, k, tag), problem))

    B, K = len(samples), len(classes)
    d_path = {tag: np.zeros((B, K)) for tag, _ in paths}
    plans = {}
    for entries in groups.values():
        solved = solve_uot_batch([problem for _, problem in entries], solver)
        for (key, problem), plan in zip(entries, solved):
            s, k, tag = key
            if plan.error is not None:
                raise NumericalBlowupError(
                    f"solver failed for sample {samples[s].sample_id!r}, class "
                    f"{classes[k]!r}, {tag} path: {plan.error}")
            plans[key] = plan
            d_path[tag][s, k] = float(np.sum(plan.coupling * problem.cost))
    d = np.zeros((B, K))
    for tag, gamma in paths:
        d += gamma * d_path[tag]
    return Forward(d=d, d_path=d_path, paths=paths, encoding=encoding,
                   plans=plans)


def score(fs: FeatureSet, class_id: str, bank: PromptBank,
          encoder: FrozenEncoder, cfg: ClassifierConfig,
          solver: SolverConfig | None = None) -> AlignmentScore:
    """Alignment of one sample against one class: forward() at B = K = 1.

    A disabled path (weight 0) reports distance 0 and no plan.
    """
    fw = forward([fs], bank, encoder, cfg, solver, classes=[class_id])
    out = {"cs": (0.0, None), "ds": (0.0, None)}
    for tag, _ in fw.paths:
        out[tag] = (float(fw.d_path[tag][0, 0]), fw.plans[(0, 0, tag)])

    (d_cs, plan_cs), (d_ds, plan_ds) = out["cs"], out["ds"]
    return AlignmentScore(d_cs=d_cs, d_ds=d_ds, d_total=float(fw.d[0, 0]),
                          plan_cs=plan_cs, plan_ds=plan_ds)


def likelihood(scores, tau: float) -> np.ndarray:
    """Class probabilities: softmax of (1 - d) / tau over the last axis.

    `scores` is one row of class distances or a (samples, classes)
    matrix of them. Stable for any score magnitude via logsumexp, and
    invariant to a common shift of a row's scores.
    """
    d = as_vector(scores, "scores") if np.ndim(scores) == 1 else as_matrix(scores, "scores")
    if not (tau > 0):
        raise ValueError("tau must be positive")
    z = (1.0 - d) / tau
    if not np.all(np.isfinite(z)):
        raise ValueError("likelihood logits are not finite: tau is too small")
    return np.exp(z - logsumexp_axis(z, axis=-1)[..., None])


def ce_loss(probs, labels) -> float:
    """Mean negative log-likelihood of one-hot labels under probs.

    probs rows must already be probability vectors (likelihood output).
    A true-class probability of zero is clamped at 1e-300 with a
    warning instead of producing inf, so a catastrophically wrong batch
    still yields a finite, comparable loss.
    """
    P = as_matrix(probs, "probs")
    Y = as_matrix(labels, "labels")
    if P.shape != Y.shape:
        raise ValueError(f"probs shape {P.shape} does not match labels {Y.shape}")
    if not np.all((Y == 0.0) | (Y == 1.0)) or np.any(Y.sum(axis=1) != 1.0):
        raise ValueError("labels must be one-hot rows")
    if np.any(P < 0) or np.any(np.abs(P.sum(axis=1) - 1.0) > 1e-6):
        raise ValueError("probs rows must sum to 1")
    p_true = np.sum(P * Y, axis=1)
    if np.any(p_true < 1e-300):
        warnings.warn("ce_loss: true-class probability clamped at 1e-300")
        p_true = np.maximum(p_true, 1e-300)
    return float(-np.mean(np.log(p_true)))
