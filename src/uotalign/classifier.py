"""Alignment scoring and classification on top of the transport solver.

A sample is a set of M local visual embeddings; a class is represented
by two prompt paths (class-specific and domain-shared, see prompts).
Each path yields a cost matrix C = 1 - cos(prompt rows, visual rows)
and a transport problem whose source marginal is uniform over the
prompts and whose target marginal is uniform over the tokens: partial
matching comes from relaxing the latter (rho2), not from unequal token
masses. The class score is the weighted sum of the two transported
costs <W*, C>; classification is a softmax over (1 - d)/tau across
classes. forward() computes these distances for every (sample, class,
path) at once; score() is its one-sample, one-class view. A dropped
token is a removed row (features.augment), so a sample's problems have
one column per token it keeps.

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
from dataclasses import dataclass, replace

import numpy as np

from .features import FeatureSet
from .numerics import as_matrix, as_stack, as_vector, logsumexp_axis
from .prompts import FrozenEncoder, PromptBank, encode_classes
# solve_uot is unused here; bench/test_bench.py checks it stays bound
from .transport import (  # noqa: F401
    INF,
    NumericalBlowupError,
    SolverConfig,
    TransportProblem,
    solve_uot,
    solve_uot_batch,
)

__all__ = [
    "ClassifierConfig",
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
    """Temperature, path weights and every setting of the solves.

    lam, rho1 and rho2 set each problem, solver the iteration cap and
    dual tolerance. rho1 = rho2 = INF pins both marginals, so the solves
    are balanced entropic transport: the "plain OT" ablation. A path
    weight of exactly 0 disables that path entirely: no solve is run and
    the path has no key in the dicts of forward's (and score's) Forward.
    At least one weight must be positive.
    """

    tau: float = 0.01
    gamma_cs: float = 0.5
    gamma_ds: float = 0.5
    lam: float = 0.01
    rho1: float = INF
    rho2: float = 0.04
    solver: SolverConfig = SolverConfig()

    def __post_init__(self):
        if not (self.tau > 0 and math.isfinite(self.tau)):
            raise ValueError("tau must be positive and finite")
        if not all(g >= 0 and math.isfinite(g) for g in (self.gamma_cs, self.gamma_ds)):
            raise ValueError("path weights must be nonnegative and finite")
        if self.gamma_cs == 0 and self.gamma_ds == 0:
            raise ValueError("at least one path weight must be positive")
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValueError("lam must be positive and finite")
        for name, rho in (("rho1", self.rho1), ("rho2", self.rho2)):
            if not (rho > 0):
                raise ValueError(f"{name} must be positive (or INF)")
        if not isinstance(self.solver, SolverConfig):
            raise ValueError("solver must be a SolverConfig")


def _unit_rows(F, G):
    """Validated features (..., M, d) and prompts (..., P, d) with their
    rows normalised, plus both norms. A zero row has no direction."""
    if F.shape[-1] != G.shape[-1]:
        raise ValueError(f"dimension mismatch: prompts have {G.shape[-1]} "
                         f"columns, features have {F.shape[-1]}")
    nf = np.linalg.norm(F, axis=-1)
    ng = np.linalg.norm(G, axis=-1)
    if (ng < 1e-300).any() or (nf < 1e-300).any():
        raise ValueError("degenerate embedding: zero-norm row")
    return F / nf[..., None], G / ng[..., None], nf, ng


def cost_matrix(features, prompts) -> np.ndarray:
    """Transport cost between prompt rows and visual rows, 1 - cosine.

    Rows of `prompts` index the source side (one row per prompt), rows
    of `features` the target side, so the result is (P, M), or (K, P, M)
    for a (K, P, d) stack of prompts. Features may be an (S, M, d) stack
    of samples with a common token count; the result then gains a
    leading sample axis, (S, P, M) or (S, K, P, M). Every (sample, class)
    slice equals the single-matrix call bitwise: the product runs one
    (P, d) @ (d, M) matmul per slice, on the transposed view of the
    sample's rows as F.T is. Entries lie in [0, 2] up to roundoff. Rows
    are normalised here, and a zero row is rejected. Inputs are expected
    unit-norm; anything else gets a warning because the rest of the
    pipeline assumes the cosine and the dot product agree.
    """
    F = as_stack(features, "features", "(M, d) or (S, M, d)")
    G = as_stack(prompts, "prompts", "(P, d) or (K, P, d)")
    Fh, Gh, nf, ng = _unit_rows(F if F.ndim == 3 else F[None], G)
    for name, norms in (("features", nf), ("prompts", ng)):
        if (np.abs(norms - 1.0) > _UNIT_TOL).any():
            warnings.warn(f"cost_matrix: {name} rows are not unit-norm")
    # a sample axis in front of the class axis, if any
    Ft = np.expand_dims(Fh.transpose(0, 2, 1), tuple(range(1, Gh.ndim - 1)))
    C = np.matmul(Gh[None], Ft)
    np.subtract(1.0, C, out=C)
    return C if F.ndim == 3 else C[0]


def cost_matrix_backward(features, prompts, upstream) -> np.ndarray:
    """Gradient of <upstream, cost_matrix(features, prompts)> in the prompts.

    The features are data, so only the prompt-side gradient is needed,
    shaped like `prompts`; a (K, P, d) stack takes a (K, P, N) upstream.
    With ghat, fhat the normalized rows, d cos / d g is
    (fhat - cos * ghat) / |g|, and the cost negates it. The cosine
    matrix is never formed: sum_n D_pn cos_pn = ghat_p . (D fhat)_p.
    """
    Fh, Gh, _, ng = _unit_rows(as_matrix(features, "features"),
                               as_stack(prompts, "prompts", "(P, d) or (K, P, d)"))
    want = (*Gh.shape[:-1], Fh.shape[0])
    D = as_stack(upstream, "upstream", "(P, N) or (K, P, N)")
    if D.shape != want:
        raise ValueError(f"upstream shape {D.shape} does not match {want}")
    DF = D @ Fh
    return -(DF - np.sum(Gh * DF, axis=-1, keepdims=True) * Gh) / ng[..., None]


def prompt_marginal(num_prompts: int) -> np.ndarray:
    """Uniform marginal of total mass 1 over num_prompts rows: the source
    marginal over a path's prompts, and the target marginal over a
    sample's tokens when called with its token count."""
    if num_prompts < 1:
        raise ValueError("need at least one prompt")
    return np.full(num_prompts, 1.0 / num_prompts)


@dataclass
class Forward:
    """Distances of samples to classes, plus what the backward pass needs.

    d[s, k] is the weighted distance of sample s to bank class k,
    d_path[tag][s, k] one path's unweighted transported cost, encoding[tag]
    the path's (K, P, d) prompt rows (encode_classes) and couplings[tag]
    its (K, P, N) couplings over the samples' N token rows in sample
    order: sample s owns columns offsets[s]:offsets[s + 1], offsets
    being the cumulative sum of the token counts, as the upstream of
    cost_matrix_backward is laid out. Each of those columns has target
    mass 1 / (its sample's token count). Only paths with a positive weight
    appear in `paths` and as keys of the dicts.
    unconverged and clamped count the solves that hit the iteration cap
    and those whose marginal sums were clamped; their couplings are used
    all the same.
    """

    d: np.ndarray
    d_path: dict[str, np.ndarray]
    paths: tuple[tuple[str, float], ...]
    encoding: dict[str, np.ndarray]
    couplings: dict[str, np.ndarray]
    unconverged: int
    clamped: int


def forward(samples: list[FeatureSet], bank: PromptBank, encoder: FrozenEncoder,
            cfg: ClassifierConfig) -> Forward:
    """Score every sample against every bank class along both prompt paths.

    All classes are encoded at once, along the paths with a positive
    weight only. Samples with a common token count M share one
    cost_matrix call per path, over their stacked feature rows, and
    TransportProblem.batch builds that call's problems from the checked
    cost stack, in the order of samples, then classes. A problem's
    columns are the sample's M tokens, and every problem of the call has
    the column marginal prompt_marginal(M), mass 1/M per token. There is
    one solve_uot_batch call per (token count, path), and its results
    equal one-at-a-time solves bitwise; their couplings go into their
    samples' columns of couplings[tag] (see Forward).
    """
    if not samples:
        raise ValueError("empty batch")
    paths = tuple((tag, gamma) for tag, gamma in (("cs", cfg.gamma_cs),
                                                   ("ds", cfg.gamma_ds))
                  if gamma > 0)
    encoding = encode_classes(bank, encoder, tuple(tag for tag, _ in paths))
    K = len(bank.classes)

    by_count = {}
    for s, fs in enumerate(samples):
        by_count.setdefault(fs.num_tokens, []).append(s)
    offsets = np.cumsum([0] + [fs.num_tokens for fs in samples])
    d_path = {tag: np.empty((len(samples), K)) for tag in encoding}
    couplings = {}
    unconverged = clamped = 0
    for members in by_count.values():
        for tag, G in encoding.items():
            # the stacked feature rows live only for the call, not the solve
            C = cost_matrix(np.stack([samples[s].features for s in members]), G)
            problems = TransportProblem.batch(
                C.reshape(-1, *C.shape[2:]), prompt_marginal(C.shape[2]),
                prompt_marginal(C.shape[3]), lam=cfg.lam, rho1=cfg.rho1, rho2=cfg.rho2)
            plans = solve_uot_batch(problems, cfg.solver)
            for i, plan in enumerate(plans):
                if plan.error is not None:
                    raise NumericalBlowupError(
                        f"solver failed for sample {samples[members[i // K]].sample_id!r}, "
                        f"class {bank.classes[i % K]!r}, {tag} path: {plan.error}")
                unconverged += not plan.converged
                clamped += plan.clamped
            W = np.stack([plan.coupling for plan in plans]).reshape(C.shape)
            d_path[tag][members] = np.sum(W * C, axis=(2, 3))
            if tag not in couplings:
                couplings[tag] = np.empty((*G.shape[:2], offsets[-1]))
            for i, s in enumerate(members):
                couplings[tag][..., offsets[s]:offsets[s + 1]] = W[i]
            # drop this call's arrays, or they live through the next call's solve
            del C, problems, plans, plan, W
    d = sum(gamma * d_path[tag] for tag, gamma in paths)
    return Forward(d=d, d_path=d_path, paths=paths, encoding=encoding,
                   couplings=couplings, unconverged=unconverged, clamped=clamped)


def score(fs: FeatureSet, class_id: str, bank: PromptBank,
          encoder: FrozenEncoder, cfg: ClassifierConfig) -> Forward:
    """Alignment of one sample against one class: forward() at B = K = 1,
    on a view of the bank that holds that class alone."""
    if class_id not in bank.classes:
        raise ValueError(f"unknown class: {class_id!r}")
    k = bank.classes.index(class_id)
    one = replace(bank, classes=[class_id], class_tokens=bank.class_tokens[k:k + 1],
                  class_words=bank.class_words[k:k + 1])
    return forward([fs], one, encoder, cfg)


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
