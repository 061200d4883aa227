"""Brute-force reference minimizer for small transport instances.

Exhaustive per-coordinate grid search with iterative zoom refinement.
The objective is evaluated by its own code here, on purpose: this
module is the independent check on the solver, so it must not share
the solver's arithmetic. Marginals pinned by rho = inf are eliminated
from the search (the last row/column is completed from the constraint
and candidates with negative completions rejected), which keeps the
search inside the feasible polytope instead of hoping penalties do it.

Only tiny instances are supported; the point is trustworthiness, not
speed.

`recover_coupling` is the reference for the solver's couplings: the
closed form W = exp((u + v - C) / lam) written out directly from the
potentials. `uot_primal_value` is the solver's `primal_value` behind a
feasibility check on the pinned marginals.

`log_domain_solve_uot_batch` is the reference for `solve_uot_batch`:
the same fixed-point iteration with every marginal sum taken as a
logsumexp of the full log kernel, as the solver computed it before it
moved to the scaling form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from uotalign.numerics import logsumexp_axis
from uotalign.transport import (
    FEASIBILITY_TOL,
    NumericalBlowupError,
    SolverConfig,
    TransportPlan,
    TransportProblem,
    primal_value,
)

__all__ = ["GridSpec", "grid_minimize", "finite_diff_grad", "recover_coupling",
           "uot_primal_value", "log_domain_solve_uot_batch"]

_MAX_CELLS = 6
_NEG_SLACK = 1e-12
_CHUNK = 400_000


@dataclass(frozen=True)
class GridSpec:
    """Search geometry: grid points per coordinate and zoom rounds."""

    resolution: int = 21
    refinement_rounds: int = 4
    mass_upper_bound: float | None = None

    def __post_init__(self):
        if self.resolution < 3:
            raise ValueError("resolution must be >= 3")
        if self.refinement_rounds < 1:
            raise ValueError("refinement_rounds must be >= 1")
        if self.mass_upper_bound is not None and not (self.mass_upper_bound > 0):
            raise ValueError("mass_upper_bound must be positive")


def _sum_small(X, axis):
    # sum over a short axis as a few whole-array adds, one slice at a
    # time: numpy's reduction over a handful of elements per row costs
    # several times more on the oracle's (N, rows, cols) stacks
    parts = np.moveaxis(X, axis, 0)
    out = parts[0].copy()
    for part in parts[1:]:
        out += part
    return out


def _objective_batch(W, problem):
    """Objective values for a (N, rows, cols) stack of couplings.

    Independent re-statement of the transport objective; pinned sides
    contribute nothing (feasibility is enforced structurally by the
    caller).
    """
    lam = problem.lam
    flat = W.reshape(W.shape[0], -1)
    vals = _sum_small(flat * problem.cost.ravel()[None, :], 1)
    logW = np.log(np.where(flat > 0, flat, 1.0))
    wlogw = _sum_small(flat * logW, 1)
    both_pinned = math.isinf(problem.rho1) and math.isinf(problem.rho2)
    if both_pinned:
        vals += lam * wlogw
    else:
        vals += lam * (wlogw - _sum_small(flat, 1))
    if not math.isinf(problem.rho1):
        a = _sum_small(W, 2)
        n = problem.row_marginal[None, :]
        cross = _sum_small(np.where(a > 0, a * np.log(np.where(a > 0, a, 1.0) / n), 0.0), 1)
        vals += problem.rho1 * (cross - _sum_small(a, 1) + problem.row_marginal.sum())
    if not math.isinf(problem.rho2):
        b = _sum_small(W, 1)
        m = problem.col_marginal[None, :]
        cross = _sum_small(np.where(b > 0, b * np.log(np.where(b > 0, b, 1.0) / m), 0.0), 1)
        vals += problem.rho2 * (cross - _sum_small(b, 1) + problem.col_marginal.sum())
    return vals


def _expand(free, problem):
    """Map (N, k) free coordinates to (N, rows, cols) couplings + validity.

    Free coordinates are the cells left after eliminating pinned
    marginals; eliminated cells are completed from the constraints and
    a candidate whose completion goes negative is invalid.
    """
    n = problem.row_marginal
    m = problem.col_marginal
    rows, cols = problem.shape
    N = free.shape[0]
    pin_rows = math.isinf(problem.rho1)
    pin_cols = math.isinf(problem.rho2)
    W = np.zeros((N, rows, cols))
    if pin_rows and pin_cols:
        W[:, : rows - 1, : cols - 1] = free.reshape(N, rows - 1, cols - 1)
        W[:, : rows - 1, cols - 1] = n[None, : rows - 1] - W[:, : rows - 1, : cols - 1].sum(axis=2)
        W[:, rows - 1, :] = m[None, :] - W[:, : rows - 1, :].sum(axis=1)
    elif pin_rows:
        W[:, :, : cols - 1] = free.reshape(N, rows, cols - 1)
        W[:, :, cols - 1] = n[None, :] - W[:, :, : cols - 1].sum(axis=2)
    elif pin_cols:
        W[:, : rows - 1, :] = free.reshape(N, rows - 1, cols)
        W[:, rows - 1, :] = m[None, :] - W[:, : rows - 1, :].sum(axis=1)
    else:
        W = free.reshape(N, rows, cols).copy()
    valid = np.all(W >= -_NEG_SLACK, axis=(1, 2))
    np.clip(W, 0.0, None, out=W)
    return W, valid


def _free_layout(problem, spec):
    """Number of free coordinates and their initial [0, hi] boxes."""
    n = problem.row_marginal
    m = problem.col_marginal
    rows, cols = problem.shape
    pin_rows = math.isinf(problem.rho1)
    pin_cols = math.isinf(problem.rho2)
    if pin_rows and pin_cols:
        hi = np.minimum.outer(n[: rows - 1], m[: cols - 1]).ravel()
    elif pin_rows:
        hi = np.repeat(n, cols - 1)
    elif pin_cols:
        hi = np.tile(m, rows - 1)
    else:
        ub = spec.mass_upper_bound
        if ub is None:
            ub = 2.0 * max(float(n.sum()), float(m.sum()))
        hi = np.full(rows * cols, ub)
    return hi


def _seed_couplings(problem):
    n = problem.row_marginal
    m = problem.col_marginal
    pin_rows = math.isinf(problem.rho1)
    pin_cols = math.isinf(problem.rho2)
    seeds = []
    if pin_rows and pin_cols:
        seeds.append(np.outer(n, m) / float(n.sum()))
    elif pin_rows:
        seeds.append(np.outer(n, m / float(m.sum())))
    elif pin_cols:
        seeds.append(np.outer(n / float(n.sum()), m))
    else:
        seeds.append(np.zeros(problem.shape))
        seeds.append(np.outer(n, m) / max(float(n.sum()), float(m.sum())))
    return seeds


def _free_of(W, problem):
    rows, cols = problem.shape
    pin_rows = math.isinf(problem.rho1)
    pin_cols = math.isinf(problem.rho2)
    if pin_rows and pin_cols:
        return W[: rows - 1, : cols - 1].ravel()
    if pin_rows:
        return W[:, : cols - 1].ravel()
    if pin_cols:
        return W[: rows - 1, :].ravel()
    return W.ravel()


def grid_minimize(problem: TransportProblem, spec: GridSpec | None = None):
    """Exhaustively minimise the transport objective on a refined grid.

    Returns (coupling, value). Instances with more than 6 free
    coordinates (after pinned marginals eliminate what they determine)
    are refused; the exhaustive search would be meaningless there.
    """
    if spec is None:
        spec = GridSpec()
    if math.isinf(problem.rho1) and math.isinf(problem.rho2):
        mass_gap = abs(float(problem.row_marginal.sum()) - float(problem.col_marginal.sum()))
        if mass_gap > FEASIBILITY_TOL:
            raise ValueError("marginal mass mismatch: no feasible coupling")

    hi0 = _free_layout(problem, spec)
    k = hi0.size
    # tractability cap counts coordinates actually searched, i.e. the
    # cells left after pinned marginals eliminate rows/columns
    if k > _MAX_CELLS:
        raise ValueError(
            f"oracle cap exceeded: {k} free coordinates, limit {_MAX_CELLS}"
        )

    best_W = None
    best_val = math.inf
    for seed in _seed_couplings(problem):
        val = float(_objective_batch(seed[None], problem)[0])
        if val < best_val:
            best_val = val
            best_W = seed.copy()

    if k == 0:
        # fully determined by the pinned marginals
        W, valid = _expand(np.zeros((1, 0)), problem)
        if not valid[0]:
            raise ValueError("marginal mass mismatch: no feasible coupling")
        return W[0], float(_objective_batch(W, problem)[0])

    lo = np.zeros(k)
    hi = hi0.copy()
    res = spec.resolution
    for _ in range(spec.refinement_rounds):
        grids = [np.linspace(lo[i], hi[i], res) for i in range(k)]
        total = res ** k
        round_best_val = math.inf
        round_best_free = None
        for start in range(0, total, _CHUNK):
            idx = np.arange(start, min(start + _CHUNK, total))
            coords = np.unravel_index(idx, (res,) * k)
            pts = np.stack([grids[i][coords[i]] for i in range(k)], axis=1)
            W, valid = _expand(pts, problem)
            vals = _objective_batch(W, problem)
            vals[~valid] = math.inf
            j = int(np.argmin(vals))
            if vals[j] < round_best_val:
                round_best_val = float(vals[j])
                round_best_free = pts[j].copy()
        if round_best_val < best_val:
            best_val = round_best_val
            best_W = _expand(round_best_free[None], problem)[0][0]
        # zoom toward the incumbent; clip to the original box
        center = _free_of(best_W, problem)
        step = (hi - lo) / (res - 1)
        lo = np.clip(center - 2.0 * step, 0.0, hi0)
        hi = np.clip(center + 2.0 * step, 0.0, hi0)

    return best_W, best_val


def finite_diff_grad(f, x, step: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function.

    `x` is flattened coordinate-wise; `f` must accept arrays of the
    same shape as `x`.
    """
    x = np.asarray(x, dtype=np.float64)
    if not (step > 0):
        raise ValueError("step must be positive")
    g = np.zeros(x.size)
    flat = x.ravel()
    for i in range(flat.size):
        xp = flat.copy(); xp[i] += step
        xm = flat.copy(); xm[i] -= step
        fp = f(xp.reshape(x.shape))
        fm = f(xm.reshape(x.shape))
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise ValueError(f"non-finite function value near coordinate {i}")
        g[i] = (fp - fm) / (2.0 * step)
    return g.reshape(x.shape)


def recover_coupling(u: np.ndarray, v: np.ndarray, cost: np.ndarray, lam: float) -> np.ndarray:
    """Coupling W_ij = exp((u_i + v_j - C_ij) / lam) from dual potentials."""
    with np.errstate(over="ignore"):
        W = np.exp((u[:, None] + v[None, :] - cost) / lam)
    if not np.all(np.isfinite(W)):
        raise NumericalBlowupError("numerical blowup: coupling overflow for this lam")
    return W


def uot_primal_value(W, problem: TransportProblem) -> float:
    """primal_value of a coupling that must meet the pinned marginals.

    primal_value's input checks run first; then a pinned (rho = INF)
    marginal must hold to within FEASIBILITY_TOL in L1, otherwise this
    raises.
    """
    value = primal_value(W, problem)
    W = np.asarray(W, dtype=np.float64)
    if math.isinf(problem.rho1):
        if float(np.abs(W.sum(axis=1) - problem.row_marginal).sum()) > FEASIBILITY_TOL:
            raise ValueError("marginal constraint violated: rows")
    if math.isinf(problem.rho2):
        if float(np.abs(W.sum(axis=0) - problem.col_marginal).sum()) > FEASIBILITY_TOL:
            raise ValueError("marginal constraint violated: columns")
    return value


# the log-domain solver's constants: marginal-sum floor and log-coupling
# ceiling
_LOG_CLAMP = math.log(1e-300)
_LOG_HUGE = 709.0


def _factor(lam: float, rho: float) -> float:
    # prox step size of the penalised marginal update; lam when pinned
    if math.isinf(rho):
        return lam
    return lam * rho / (lam + rho)


def _log_kernel(U: np.ndarray, V: np.ndarray, C: np.ndarray, lam: float,
                out: np.ndarray) -> np.ndarray:
    # (u_i + v_j - C_ij) / lam for every instance, written into `out` in
    # the same operation order as the expression, so no bit changes
    np.add(U[:, :, None], V[:, None, :], out=out)
    out -= C
    out /= lam
    return out


def log_domain_solve_uot_batch(problems: list[TransportProblem],
                               config: SolverConfig | None = None) -> list[TransportPlan]:
    """The log-domain batch solver, kept as the reference for solve_uot_batch.

    Every marginal sum is a logsumexp of the full log kernel, rebuilt
    twice per iteration. Otherwise the same contract:

    Solve a batch of same-shape, same-parameter instances together.

    All instances must share (n_rows, n_cols, lam, rho1, rho2); costs
    and marginals may differ. The iteration is vectorised over the
    instances still running: one that converges or blows up leaves the
    loop, its potentials and its coupling (exp of its last log kernel)
    are written back and the arrays shrink to the rest. Per-instance
    arithmetic does not depend on the batch, so each result is
    identical to an independent single solve. An instance that blows up
    is marked via its plan's `error` field instead of aborting the
    batch.
    """
    if config is None:
        config = SolverConfig()
    if not problems:
        raise ValueError("empty batch")
    p0 = problems[0]
    for p in problems[1:]:
        if p.shape != p0.shape or p.lam != p0.lam or p.rho1 != p0.rho1 or p.rho2 != p0.rho2:
            raise ValueError("batch instances must share shape, lam, rho1 and rho2")
    B = len(problems)
    n_rows, n_cols = p0.shape
    lam = p0.lam
    fac1 = _factor(lam, p0.rho1)
    fac2 = _factor(lam, p0.rho2)
    tol = config.dual_tolerance

    # per-instance results, indexed by position in `problems`
    U_out = np.zeros((B, n_rows))
    V_out = np.zeros((B, n_cols))
    converged = np.zeros(B, dtype=bool)
    clamped = np.zeros(B, dtype=bool)
    failed: list[str | None] = [None] * B
    iterations = np.full(B, config.max_iterations, dtype=int)
    coupling = np.empty((B, n_rows, n_cols))

    # working arrays over the live instances only; live[i] is the batch
    # position of working row i
    live = np.arange(B)
    C = np.stack([p.cost for p in problems])
    log_n = np.log(np.stack([p.row_marginal for p in problems]))
    log_m = np.log(np.stack([p.col_marginal for p in problems]))
    U = np.zeros((B, n_rows))
    V = np.zeros((B, n_cols))
    S = _log_kernel(U, V, C, lam, np.empty_like(C))
    S2 = np.empty_like(C)

    for k in range(config.max_iterations):
        log_nk = logsumexp_axis(S, axis=2)
        low = log_nk < _LOG_CLAMP
        if low.any():
            clamped[live] |= low.any(axis=1)
            log_nk = np.maximum(log_nk, _LOG_CLAMP)
        U_new = (U / lam + log_n - log_nk) * fac1

        log_mk = logsumexp_axis(_log_kernel(U_new, V, C, lam, S2), axis=1)
        low = log_mk < _LOG_CLAMP
        if low.any():
            clamped[live] |= low.any(axis=1)
            log_mk = np.maximum(log_mk, _LOG_CLAMP)
        V_new = (V / lam + log_m - log_mk) * fac2

        du = np.max(np.abs(U_new - U), axis=1)
        dv = np.max(np.abs(V_new - V), axis=1)
        U, V = U_new, V_new
        _log_kernel(U, V, C, lam, S)

        # an instance whose coupling would leave float range is dead even
        # though the log-domain iteration itself stays finite
        bad = (
            (np.max(S, axis=(1, 2)) > _LOG_HUGE)
            | ~np.all(np.isfinite(U), axis=1)
            | ~np.all(np.isfinite(V), axis=1)
        )
        done = ~bad & (du < tol) & (dv < tol)
        finished = bad | done
        if not finished.any():
            continue
        ended = live[finished]
        U_out[ended] = U[finished]
        V_out[ended] = V[finished]
        iterations[ended] = k + 1
        converged[live[done]] = True
        # the check above keeps exp(S) finite for every instance not bad
        coupling[live[done]] = np.exp(S[done])
        coupling[live[bad]] = np.nan
        for b in live[bad]:
            failed[b] = f"numerical blowup at iteration {k + 1}"
        keep = ~finished
        live = live[keep]
        if live.size == 0:
            break
        C, log_n, log_m = C[keep], log_n[keep], log_m[keep]
        U, V, S = U[keep], V[keep], S[keep]
        S2 = S2[:live.size]
    else:
        U_out[live] = U
        V_out[live] = V
        coupling[live] = np.exp(S, out=S)

    return [TransportPlan(
        coupling=coupling[b], u=U_out[b].copy(), v=V_out[b].copy(),
        iterations=int(iterations[b]), converged=bool(converged[b]),
        clamped=bool(clamped[b]), error=failed[b],
    ) for b in range(B)]
