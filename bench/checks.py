"""Output checks. Each returns a list of failure messages; empty means pass.

They read only what the program returned (plans, likelihood rows,
training and evaluation results), so a test can hand them corrupted
outputs directly.
"""

from __future__ import annotations

import math

import numpy as np

LIKELIHOOD_TOL = 1e-9


def plans_usable(calls) -> list[str]:
    """Every returned plan has no error and a finite, nonnegative coupling."""
    out = []
    for c, (problems, _, plans, error) in enumerate(calls):
        if error is not None:
            out.append(f"solve call {c} raised {error}")
            continue
        for b, plan in enumerate(plans):
            if plan.error is not None:
                out.append(f"solve call {c} problem {b}: {plan.error}")
            elif not np.all(np.isfinite(plan.coupling)):
                out.append(f"solve call {c} problem {b}: non-finite coupling")
            elif np.any(plan.coupling < 0):
                out.append(f"solve call {c} problem {b}: negative coupling")
    return out


def likelihood_rows(rows) -> list[str]:
    """Each likelihood row is a finite probability vector summing to 1."""
    out = []
    for r, row in enumerate(rows):
        p = np.atleast_2d(np.asarray(row, dtype=np.float64))
        if not np.all(np.isfinite(p)) or np.any(p < 0):
            out.append(f"likelihood {r}: entries not finite and nonnegative")
        elif np.any(np.abs(p.sum(axis=-1) - 1.0) > LIKELIHOOD_TOL):
            out.append(f"likelihood {r}: row sums {p.sum(axis=-1)} differ from 1")
    return out


def accuracy_floor(accuracy: float, num_classes: int, what: str) -> list[str]:
    """Accuracy sits well above chance: at least 1/K + 0.1.

    One epoch of few-shot training leaves accuracy spread widely over
    seeds (0.40 to 0.80 at K = 10), so the floor is set to catch a model
    that learned nothing or scores garbage, not a weak seed.
    """
    floor = 1.0 / num_classes + 0.1
    if not (math.isfinite(accuracy) and accuracy >= floor):
        return [f"{what} accuracy {accuracy} is below {floor:.3f} (1/K + 0.1)"]
    return []


def batch_matches_single(calls, solve_uot, rng, count: int) -> list[str]:
    """A seeded sample of batched results equals single solves bitwise."""
    pool = [(c, b) for c, (_, _, plans, error) in enumerate(calls)
            if error is None for b in range(len(plans))]
    if not pool:
        return ["no transport result to compare with single solves"]
    out = []
    for j in rng.choice(len(pool), size=min(count, len(pool)), replace=False):
        c, b = pool[int(j)]
        problems, config, plans, _ = calls[c]
        got, want = plans[b], solve_uot(problems[b], config)
        same = (got.iterations == want.iterations
                and got.converged == want.converged
                and got.clamped == want.clamped
                and all(x.shape == y.shape and x.tobytes() == y.tobytes()
                        for x, y in ((got.coupling, want.coupling),
                                     (got.u, want.u), (got.v, want.v))))
        if not same:
            out.append(f"solve call {c} problem {b}: batch result differs "
                       f"from a single solve")
    return out


def balanced_marginals(calls, tol: float) -> list[str]:
    """Converged plans of problems with both marginals pinned meet them."""
    out = []
    for c, (problems, _, plans, error) in enumerate(calls):
        if error is not None:
            continue
        for b, (p, plan) in enumerate(zip(problems, plans)):
            if not (math.isinf(p.rho1) and math.isinf(p.rho2)):
                continue
            if plan.error is not None or not plan.converged:
                continue
            rows = float(np.abs(plan.coupling.sum(axis=1) - p.row_marginal).sum())
            cols = float(np.abs(plan.coupling.sum(axis=0) - p.col_marginal).sum())
            if rows > tol or cols > tol:
                out.append(f"solve call {c} problem {b}: marginal L1 error "
                           f"rows {rows:.3g}, columns {cols:.3g} above {tol}")
    return out
