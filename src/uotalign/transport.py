"""Entropic optimal transport, balanced and unbalanced, in dual form.

The solver alternates closed-form updates of the dual potentials (u, v)
of the regularized problem

    min_{W >= 0}  <W, C> + lam * sum(W log W - W)
                  + rho1 * KL(W 1 | n) + rho2 * KL(W^T 1 | m)

where KL is the generalized divergence (see numerics.generalized_kl)
and a marginal with rho = inf is pinned exactly instead of penalised.
Each half-step is an exact block minimization of the dual

    lam * sum exp((u_i + v_j - C_ij) / lam)
      + rho1 * <exp(-u/rho1), n> + rho2 * <exp(-v/rho2), m>

and each half-step is over-relaxed: the new potential is T + (omega -
1)(T - u_old) for the block minimizer T, a fixed omega = 1.4 (Thibault,
Chizat, Dossal and Papadakis, Algorithms 14(5), 2021; Lehmann, von
Renesse, Sambale and Uschmajew, Optim. Lett. 2022). The dual is separable
per coordinate within a block, so the relaxed coordinate is kept only
where it lowers the dual, a test on u_old - T against an interval that
depends on (lam, rho) alone; elsewhere, on clamped instances and on
non-finite entries the plain T is taken. The dual value is therefore
nonincreasing along the iteration. A converged plan reports v from the
last plain half-step, an exact block minimizer, so a pinned column
marginal holds as in plain Sinkhorn. With both
rho = inf the update factor collapses to lam and the plain scheme is the
classic balanced Sinkhorn iteration; primal_value then reports the
conventional <W, C> - lam * H(W), which differs from the expression
above only by lam * mass(W), a constant on the feasible set. Plans
carry no objective value: the classifier reads couplings only, and
primal_value / dual_value evaluate a plan where a value is reported.

The iteration runs in stabilized scaling form (Schmitzer, SIAM J. Sci.
Comput. 41(3), 2019, sec. 3): each instance caches exp((u' + v' - C) /
lam) with potentials u', v' absorbed, and a half-step is one contraction
with the scalings exp((v - v') / lam) plus a log of the result (relaxed
marginals: Chizat et al., Math. Comp. 2018, Alg. 1). A scaling past e^50
is absorbed into a rebuilt kernel; a contraction that leaves float range
is redone for its instance in log space, so small lam does not
underflow. A marginal sum below 1e-300 is clamped and flagged rather
than crashing; a log-coupling past 709 marks the instance as blown up.

With pinned rows (rho1 = inf) an instance still running after
_NEWTON_AFTER = 30 scaling iterations switches to damped Newton steps on
the dual reduced to u, v being the exact v half-step (Brauer, Clason,
Lorenz and Wirth, Sinkhorn-Newton, 2017; Tang et al., ICLR 2024): plain
scaling converges linearly, and at small lam or with both marginals
pinned one slow instance would keep its batch iterating to the cap. The
steps run in log space; each is one batched solve of a P x P system and
an Armijo line search per instance, and an instance whose step fails
takes a plain u half-step instead. Near a vertex coupling the Hessian
is near-singular and u drifts along flat directions, so a Newton-phase
instance converges on its row-marginal error rather than on its
potential move. A finite rho1 keeps the scaling iteration throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import as_array, as_matrix, as_vector, generalized_kl, logsumexp_axis

__all__ = [
    "INF",
    "FEASIBILITY_TOL",
    "NumericalBlowupError",
    "SolverConfig",
    "TransportProblem",
    "TransportPlan",
    "solve_uot",
    "solve_uot_batch",
    "primal_value",
    "dual_value",
]

INF = math.inf

# L1 tolerance for treating a pinned marginal as satisfied.
FEASIBILITY_TOL = 1e-6

# floor applied to marginal sums before taking logs
_CLAMP = 1e-300
_LOG_CLAMP = math.log(_CLAMP)

# log-coupling ceiling: exp beyond this overflows float64; a bound on a
# log below _LOG_BOUND, a margin for the bound's rounding, skips a check
_LOG_HUGE, _LOG_BOUND = 709.0, 708.0

# a log-scaling beyond +-_ABSORB is folded into the kernel, and a
# contraction entry below e^_LOG_TINY = 1e-280 (or infinite) is redone in
# log space: subnormal kernel entries times scalings up to e^_ABSORB then
# err by at most M * 1e-302, a relative 1e-20 of any sum that is kept
_ABSORB, _LOG_TINY = 50.0, math.log(1e-280)

# over-relaxation factor omega of every half-step; _BETA = omega - 1
_OMEGA = 1.4
_BETA = _OMEGA - 1.0

# scaling iterations before an instance with pinned rows switches to
# Newton steps, and the step halvings its line search tries before a
# scaling step is taken instead
_NEWTON_AFTER, _HALVINGS = 30, 10


class NumericalBlowupError(RuntimeError):
    """Raised when the potentials or the coupling leave float range."""


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 2000
    dual_tolerance: float = 1e-9

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (self.dual_tolerance > 0 and math.isfinite(self.dual_tolerance)):
            raise ValueError("dual_tolerance must be positive and finite")


def _validated(cost, row_marginal, col_marginal, lam, rho1, rho2, stacked=False):
    """The rules of a transport problem, for one instance or, with
    `stacked`, for a stack of costs along a leading axis whose instances
    share both marginals, lam, rho1 and rho2. Returns the validated
    (cost, row_marginal, col_marginal) arrays."""
    cost = as_array(cost, "cost", 2, stacked)
    row_marginal = as_array(row_marginal, "row_marginal", 1)
    col_marginal = as_array(col_marginal, "col_marginal", 1)
    n_rows, n_cols = cost.shape[-2:]
    if row_marginal.shape != (n_rows,):
        raise ValueError(f"row_marginal has length {row_marginal.shape[0]}, expected {n_rows}")
    if col_marginal.shape != (n_cols,):
        raise ValueError(f"col_marginal has length {col_marginal.shape[0]}, expected {n_cols}")
    # min, not (x <= 0).any(): cheaper, and the entries are finite here
    if row_marginal.min() <= 0 or col_marginal.min() <= 0:
        raise ValueError("zero marginal mass: marginals must be strictly positive")
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError("lam must be positive and finite")
    for name, rho in (("rho1", rho1), ("rho2", rho2)):
        if not (rho > 0):
            raise ValueError(f"{name} must be positive (or INF)")
    return cost, row_marginal, col_marginal


@dataclass
class TransportProblem:
    """One transport instance: cost matrix, marginals, regularization.

    rho1/rho2 control how strongly the row/column marginals are
    enforced; INF pins the corresponding marginal exactly. batch builds
    one instance per slice of a cost stack, checking the stack once.
    """

    cost: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray
    lam: float = 0.1
    rho1: float = INF
    rho2: float = INF

    def __post_init__(self):
        self.cost, self.row_marginal, self.col_marginal = _validated(
            self.cost, self.row_marginal, self.col_marginal, self.lam, self.rho1, self.rho2)

    @classmethod
    def batch(cls, costs, row_marginal, col_marginal, lam: float = 0.1,
              rho1: float = INF, rho2: float = INF) -> list[TransportProblem]:
        """One problem per slice of a (B, P, M) cost stack, all sharing
        both marginals and the regularization. The constructor's rules
        run once over the stack, with its messages; the instances hold
        views of the validated arrays and are not checked again."""
        costs, row_marginal, col_marginal = _validated(
            costs, row_marginal, col_marginal, lam, rho1, rho2, stacked=True)
        problems = []
        for cost in costs:
            # set in field order, so instances keep CPython's compact
            # attribute storage, as constructed ones do
            problem = object.__new__(cls)
            problem.cost, problem.row_marginal, problem.col_marginal = (
                cost, row_marginal, col_marginal)
            problem.lam, problem.rho1, problem.rho2 = lam, rho1, rho2
            problems.append(problem)
        return problems

    @property
    def shape(self) -> tuple[int, int]:
        return self.cost.shape


@dataclass
class TransportPlan:
    """Solver output: what the iteration produced and how it ended.

    `coupling` is exp of the last log kernel of the potentials (u, v),
    all NaN when `error` names a blowup; (u, v) is the last iterate,
    except that a converged plan's v is its last plain half-step, and in
    the Newton tail v is always the exact v half-step of u. `iterations`
    counts scaling iterations plus Newton steps, a fallback half-step
    counting as a step. `converged` is False when the iteration cap was
    hit first. A scaling iteration converges when neither potential
    moves by tol = dual_tolerance or more; an instance in the Newton tail
    converges when its row-marginal L1 error |W1 - n|_1 is below tol and
    its last step did not halve it, so the error sits at the floor the
    steps can reach. `clamped` is set when a marginal sum fell below the
    log-space floor at some iteration. A plan from solve_uot_batch holds
    views, however its instance ended: u, v and the coupling are each a
    row of the arrays that hold the instances that finished at the same
    iteration. Keeping a plan keeps those arrays alive; copy a field to
    keep it alone.
    """

    coupling: np.ndarray
    u: np.ndarray
    v: np.ndarray
    iterations: int
    converged: bool
    clamped: bool = False
    error: str | None = None


def _factor(lam: float, rho: float) -> float:
    # prox step size of the penalised marginal update; lam when pinned
    if math.isinf(rho):
        return lam
    return lam * rho / (lam + rho)


def primal_value(W, problem: TransportProblem) -> float:
    """Objective value of a coupling for `problem`; the twin of dual_value.

    Finite-rho marginals contribute their generalized KL penalty; a
    pinned (rho = INF) marginal contributes nothing and is not checked,
    so the last iterate of a capped solve still reports a value. The
    entropy term is <W, C> - lam*H(W) when both marginals are pinned
    and the generalized form lam*sum(W log W - W) otherwise; the two
    agree up to a feasible-set constant and each matches what the
    corresponding solver mode actually minimises.
    """
    W = as_matrix(W, "coupling")
    if W.shape != problem.shape:
        raise ValueError(f"coupling shape {W.shape} does not match cost {problem.shape}")
    if np.any(W < 0):
        raise ValueError("negative mass")
    pos = W > 0
    wlogw = float(np.sum(W[pos] * np.log(W[pos])))
    val = float(np.sum(W * problem.cost)) + problem.lam * wlogw
    both_pinned = math.isinf(problem.rho1) and math.isinf(problem.rho2)
    if not both_pinned:
        val -= problem.lam * float(W.sum())
    if not math.isinf(problem.rho1):
        val += problem.rho1 * generalized_kl(W.sum(axis=1), problem.row_marginal)
    if not math.isinf(problem.rho2):
        val += problem.rho2 * generalized_kl(W.sum(axis=0), problem.col_marginal)
    return val


def dual_value(u, v, problem: TransportProblem) -> float:
    """Dual objective at (u, v); the solver drives this downward.

    For a pinned marginal the penalty term rho*<exp(-u/rho), n>
    degenerates to its linearization <n - u, n>-style limit; we use the
    standard balanced form -<u, n> plus the constant sum(n) so that the
    identity primal = -dual + rho1*sum(n) + rho2*sum(m) holds uniformly
    in the finite case and primal = lam*mass - dual_balanced in the
    pinned case.
    """
    u = as_vector(u, "u")
    v = as_vector(v, "v")
    n, m = problem.row_marginal, problem.col_marginal
    if u.shape != n.shape or v.shape != m.shape:
        raise ValueError("potential shapes do not match marginals")
    S = (u[:, None] + v[None, :] - problem.cost) / problem.lam
    with np.errstate(over="ignore"):
        val = problem.lam * float(np.sum(np.exp(S)))
        if math.isinf(problem.rho1):
            val -= float(u @ n)
        else:
            val += problem.rho1 * float(np.exp(-u / problem.rho1) @ n)
        if math.isinf(problem.rho2):
            val -= float(v @ m)
        else:
            val += problem.rho2 * float(np.exp(-v / problem.rho2) @ m)
    if not math.isfinite(val):
        raise NumericalBlowupError("numerical blowup: dual value overflow")
    return val


def _log_kernel(U: np.ndarray, V: np.ndarray, C: np.ndarray, lam: float,
                out: np.ndarray | None = None) -> np.ndarray:
    # (u_i + v_j - C_ij) / lam for every instance, written into `out` in
    # the same operation order as the expression, so no bit changes
    out = np.add(U[:, :, None], V[:, None, :], out=out)
    out -= C
    out /= lam
    return out


def _half_step(kx, lp, lp_lo, base, fac, exact, finite):
    """New potential from the contraction kx of the scaled kernel.

    lp + log kx is the log marginal sum (lp: the side's log-scaling, lp_lo
    a lower bound on it; base: its absorbed potential over lam plus its
    log marginal). Rows with kx outside [1e-280, inf) take it from
    exact(rows); `finite`, a batch-wide bound, skips the search for inf.
    Returns the potential, written over kx unless a clamp applied, and
    the fell-back and clamped row masks, each False when empty.
    """
    lk = np.log(kx, out=kx)
    lo = lk.min()
    fell = low = False
    if not (lo >= _LOG_TINY and (finite or lk.max() < INF)):
        fell = ~np.all((lk >= _LOG_TINY) & (lk < INF), axis=1)
        lk[fell] = exact(fell) - lp[fell]
        lo = lk.min()
    if not (lo + lp_lo >= _LOG_CLAMP):
        low = lp + lk < _LOG_CLAMP
        lk = np.where(low, _LOG_CLAMP - lp, lk)
        low = low.any(axis=1)
    return np.multiply(np.subtract(base, lk, out=lk), fac, out=lk), fell, low


def _excess(s: float, lam: float, rho: float) -> float:
    # the dual's excess per unit mass at T + s over its block minimum at T
    pull = -s if math.isinf(rho) else rho * math.expm1(-s / rho)
    return lam * math.expm1(s / lam) + pull


@lru_cache(maxsize=None)
def _relax_interval(lam: float, rho: float) -> tuple[float, float]:
    """[lo, hi] of s = u_old - T on which over-relaxation lowers the dual.

    Given the other potential, the dual is separable per coordinate, and
    the coordinate at T + s (T the plain half-step's minimizer) costs its
    marginal mass times h(s) = lam expm1(s/lam) + rho expm1(-s/rho), or
    lam expm1(s/lam) - s when pinned, above its minimum. The relaxed
    coordinate T - beta s is accepted where h(-beta s) <= h(s): an
    interval around 0 that depends on (lam, rho) only. Each end is the
    first sign change of the gain h(s) - h(-beta s), found on a halving
    grid below a cap at which every exp stays in float range, then
    bisected and shrunk by 0.1%; it is the cap where no sign change lies
    below it, so both ends are finite.
    """
    def gain(t):
        return _excess(t, lam, rho) - _excess(-_BETA * t, lam, rho)

    ends = []
    for sign, cap in ((-1.0, min(rho, lam / _BETA)), (1.0, min(lam, rho / _BETA))):
        good, bad = 0.0, None
        for j in range(30, -1, -1):
            t = 600.0 * cap * 2.0 ** -j
            if not gain(sign * t) >= 0:
                bad = t
                break
            good = t
        if bad is not None:
            for _ in range(60):
                mid = 0.5 * (good + bad)
                if gain(sign * mid) >= 0:
                    good = mid
                else:
                    bad = mid
        ends.append(sign * good * 0.999)
    return ends[0], ends[1]


def _relax(T, old, lo, hi, plain, moves=True):
    """The over-relaxed potential T - beta s for s = old - T where s lies in
    [lo, hi], so the dual drops; the plain T elsewhere, on non-finite
    entries and on the rows of the mask `plain` (False: none). It is
    written over `old`. Returns it and, with `moves`, each row's largest
    |s|, the plain step's move; INF otherwise. The per-entry check runs
    only when some s leaves [-min(-lo, hi), min(-lo, hi)]."""
    s = np.subtract(old, T, out=old)
    move = np.max(np.abs(s), axis=1) if moves else INF
    m, ok = min(-lo, hi), None
    if plain is not False or not (s.max() <= m and s.min() >= -m):
        ok = (s >= lo) & (s <= hi)
        if plain is not False:
            ok &= ~plain[:, None]
    # T + (-beta) s is T - beta s bit for bit: negation is exact
    R = np.add(T, np.multiply(s, -_BETA, out=s), out=s)
    if ok is not None:
        np.copyto(R, T, where=~ok)
    return R, move


def _shrink(gone, arrays):
    """Drop the rows of the mask `gone` from each array in place: the kept
    rows past the new count move into the dropped rows below it. Returns
    each array's leading view of the kept rows, all in one order."""
    rest = gone.size - np.count_nonzero(gone)
    to, fro = np.flatnonzero(gone[:rest]), rest + np.flatnonzero(~gone[rest:])
    for x in arrays:
        x[to] = x[fro]
    return [x[:rest] for x in arrays]


def _newton_tail(U, C, n, log_m, live, lam, rho2, tol, k, last, retire):
    """Damped Newton steps on the dual reduced to u, rows pinned.

    v is the exact v half-step of u and W the coupling of (u, v). The
    reduced dual F has gradient g = W1 - n and Hessian (diag(r) - (1 - a)
    W diag(1/c) W^T) / lam, with r = W1, c = W^T 1, a = lam / (lam + rho2).
    The step solves it scaled by diag(r)^-1/2 on both sides, I - (1 - a)
    Q Q^T with Q = diag(r)^-1/2 W diag(c)^-1/2, whose eigenvalues lie in
    [a, 1]; when a = 0 a gauge term s s^T / |s|^2, s = sqrt(r), lifts the
    zero one along s to 1. A Levenberg-Marquardt term e^2 + 1e-13 on the
    diagonal, e the row L1 error over sum(n), keeps every matrix
    nonsingular and shortens steps far from the solution. The step halves
    until the Armijo test holds on the exact change of F; an instance
    whose step is not finite or fails the test _HALVINGS times takes a
    plain u half-step instead. An instance has converged once its row L1
    error is below tol and its last step did not halve it; it also stops
    on blowup or at iteration `last`, counting on from k. The instances
    that stop go to retire(at, U, V, W, k, done, bad), `at` their batch
    positions from `live`, and _shrink drops their rows in place.
    """
    a = lam / (lam + rho2)
    fac = _factor(lam, rho2)
    prev, eye = np.full(live.size, INF), np.eye(C.shape[1])
    while True:
        V = fac * (log_m - logsumexp_axis((U[:, :, None] - C) / lam, axis=1))
        L = _log_kernel(U, V, C, lam)
        W = np.exp(L)
        r, c = W.sum(axis=2), W.sum(axis=1)
        g = r - n
        err = np.abs(g).sum(axis=1)
        blown = ~(np.max(L, axis=(1, 2)) <= _LOG_HUGE)
        met = ~blown & (err < tol) & (err >= 0.5 * prev)
        stop = blown | met | (k == last)
        if stop.any():
            retire(live[stop], U[stop], V[stop], W[stop], k, met[stop], blown[stop])
            if stop.all():
                return
            live, U, C, n, log_m, L, W, r, c, g, err = _shrink(
                stop, (live, U, C, n, log_m, L, W, r, c, g, err))
        prev = err
        s = np.sqrt(r)
        Q = W / (s[:, :, None] * np.sqrt(c)[:, None, :])
        ridge = 1e-13 + (err / n.sum(axis=1)) ** 2
        H = (1.0 + ridge)[:, None, None] * eye - (1.0 - a) * (Q @ Q.transpose(0, 2, 1))
        if a == 0:
            H += s[:, :, None] * s[:, None, :] / r.sum(axis=1)[:, None, None]
        ok = np.all(r > 0, axis=1) & np.all(np.isfinite(H), axis=(1, 2))
        H[~ok] = eye
        d = lam * np.linalg.solve(H, (g / s)[:, :, None])[:, :, 0] / s
        ok &= np.all(np.isfinite(d), axis=1)
        # F(u - t d) - F(u) without cancellation: with x = -t d / lam, log c_j
        # moves by x_h + log1p(sum_i W_ij / c_j expm1(x_i - x_h)), h the row
        # holding most of column j, so the log1p argument stays above 1/P - 1
        gd, dn, Wc = (g * d).sum(axis=1), (d * n).sum(axis=1), W / c[:, None, :]
        top = np.argmax(Wc, axis=1)
        t, todo = np.ones(live.size), np.flatnonzero(ok)
        for _ in range(_HALVINGS):
            if not todo.size:
                break
            x = -t[todo, None] * d[todo] / lam
            xh = np.take_along_axis(x, top[todo], axis=1)
            E = np.expm1(x[:, :, None] - xh[:, None, :])
            dlc = xh + np.log1p((Wc[todo] * E).sum(axis=1))
            jump = lam * dlc if a == 0 else lam / a * np.expm1(a * dlc)
            dF = t[todo] * dn[todo] + (c[todo] * jump).sum(axis=1)
            fail = ~(dF <= -1e-4 * t[todo] * gd[todo])
            t[todo[fail]] *= 0.5
            todo = todo[fail]
        ok[todo] = False
        U_new = U - t[:, None] * d
        if not ok.all():
            U_new[~ok] = U[~ok] + lam * (np.log(n[~ok]) - logsumexp_axis(L[~ok], axis=2))
        U = U_new
        k += 1


def solve_uot_batch(problems: list[TransportProblem], config: SolverConfig | None = None) -> list[TransportPlan]:
    """Solve a batch of same-shape, same-parameter instances together.

    All instances must share (n_rows, n_cols, lam, rho1, rho2); costs
    and marginals may differ. The iteration is vectorised over the
    instances still running. Whether an instance converges or blows up,
    in the scaling loop or the Newton tail, or reaches the iteration cap,
    it ends through `retire`, which makes its plan from its potentials,
    flags and coupling (exp of its last log kernel; all NaN with an
    `error` on blowup, instead of aborting the batch), and _shrink then
    drops its working rows in place. Each decision (fallback, clamp,
    relaxation, absorption, blowup, and in the Newton tail the step,
    line search and fallback) reads only its instance's data, and
    batch-wide gates skip only work that would change nothing (the inf
    search and blowup check within bounds on kernel and scalings, the
    per-entry relaxation check while every move is in its interval, the
    v moves until a u move is below tol), so each result equals an
    independent single solve. It returns one plan per problem, in order,
    each viewing the arrays of the instances that finished at its
    iteration (see TransportPlan); their couplings are made in the
    working kernel when every live instance finishes a scaling
    iteration.
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
    fac1, fac2 = _factor(lam, p0.rho1), _factor(lam, p0.rho2)
    (lo1, hi1), (lo2, hi2) = _relax_interval(lam, p0.rho1), _relax_interval(lam, p0.rho2)
    tol = config.dual_tolerance
    # pinned rows: the scaling iteration hands its tail to _newton_tail
    scaling = config.max_iterations
    if math.isinf(p0.rho1):
        scaling = min(scaling, _NEWTON_AFTER)

    # retire makes plans[b] when instance b ends; clamped[b] accumulates
    plans: list[TransportPlan | None] = [None] * B
    clamped = np.zeros(B, dtype=bool)

    def retire(at, U, V, W, k, done, bad):
        # the plans of batch positions `at` after k iterations, from their
        # rows of U, V and W (the couplings); NaN and an error where `bad`
        W[bad] = np.nan
        error = f"numerical blowup at iteration {k}"
        for b, u, v, w, ok, cl, blown in zip(at.tolist(), U, V, W, done.tolist(),
                                             clamped[at].tolist(), bad.tolist()):
            plans[b] = TransportPlan(w, u, v, k, ok, cl, error if blown else None)

    # working arrays over the live instances only; live[i] is the batch
    # position of working row i. U and V are the over-relaxed iterates; Vp,
    # the plain v half-step, is what a converged plan reports beside U.
    # K = exp(Ua + Vb - C/lam) absorbs the potentials over lam as of its
    # last rebuild, Kmax is its largest log entry, An = Ua + log n,
    # Bm = Vb + log m, U = lam * (Ua + la) and V = lam * (Vb + lb) for the
    # log-scalings (la, lb); absorb builds them from the zero potentials
    live = np.arange(B)
    C = np.concatenate([p.cost for p in problems]).reshape(B, n_rows, n_cols)
    n = np.concatenate([p.row_marginal for p in problems]).reshape(B, n_rows)
    log_m = np.log(np.concatenate([p.col_marginal for p in problems]).reshape(B, n_cols))
    K, Kmax = np.empty((B, n_rows, n_cols)), np.empty(B)
    U, V = np.zeros((B, n_rows)), np.zeros((B, n_cols))
    Ua, An, la = (np.empty((B, n_rows)) for _ in range(3))
    Vb, Bm, lb = (np.empty((B, n_cols)) for _ in range(3))
    # batch-wide bounds on the scalings that gate the per-instance checks
    # (la_lo .. lb_hi); each covers 0, a rebuilt row's, and lags outward
    la_lo = lb_lo = lb_hi = 0.0

    def absorb(rows, U, V):
        # fold U and V into the kernel of the masked rows; with every live
        # row masked, r is the full slice and the log kernel is built in K,
        # where K[r] = K costs nothing: NumPy skips a self-assignment
        full = rows.all()
        r = slice(None) if full else rows
        S = _log_kernel(U[r], V[r], C[r], lam, K if full else None)
        Kmax[r] = np.max(S, axis=(1, 2))
        K[r] = np.exp(S, out=S)
        Ua[r], Vb[r] = U[r] / lam, V[r] / lam
        An[r], Bm[r] = Ua[r] + np.log(n[r]), Vb[r] + log_m[r]
        la[r], lb[r] = 0.0, 0.0

    def refold(l, fell, U, V):
        # absorb the finite rows whose scaling left e^+-_ABSORB or whose
        # contraction fell back, so no contraction runs on larger ones;
        # returns the bounds on l
        lo, hi = min(l.min(), 0.0), max(l.max(), 0.0)
        if fell is not False or not (-_ABSORB <= lo and hi <= _ABSORB):
            rows = (np.max(np.abs(l), axis=1) > _ABSORB) | fell
            absorb(rows & np.all(np.isfinite(l), axis=1), U, V)
        return lo, hi

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        absorb(np.ones(B, dtype=bool), U, V)
        for k in range(scaling):
            T, fell, low_u = _half_step(
                np.matmul(K, np.exp(lb)[:, :, None])[:, :, 0], la, la_lo, An, fac1,
                lambda r: logsumexp_axis(_log_kernel(U[r], V[r], C[r], lam), axis=2),
                # a contraction entry is at most its length times e^(Kmax + lb_hi)
                math.log(n_cols) + Kmax.max() + lb_hi < _LOG_BOUND)
            U, du = _relax(T, U, lo1, hi1, low_u)
            la = np.subtract(np.divide(U, lam, out=la), Ua, out=la)
            la_lo, la_hi = refold(la, fell, U, V)
            Vp, fell, low_v = _half_step(
                np.matmul(np.exp(la)[:, None, :], K)[:, 0, :], lb, lb_lo, Bm, fac2,
                lambda r: logsumexp_axis(_log_kernel(U[r], V[r], C[r], lam), axis=1),
                math.log(n_rows) + Kmax.max() + la_hi < _LOG_BOUND)
            # dv is INF, converging no row, unless some u move is below tol
            V, dv = _relax(Vp, V, lo2, hi2, low_v, du.min() < tol)
            lb = np.subtract(np.divide(V, lam, out=lb), Vb, out=lb)
            lb_lo, lb_hi = refold(lb, fell, U, V)
            if low_u is not False or low_v is not False:
                clamped[live] |= low_u | low_v

            # an instance whose coupling would leave float range is dead even
            # though the iteration stays finite; its exact log kernel is checked
            # only where Kmax + la + lb reaches _LOG_BOUND or is not finite
            check = not (Kmax.max() + la_hi + lb_hi < _LOG_BOUND and la_lo > -INF and lb_lo > -INF)
            if not (check or (du.min() < tol and dv.min() < tol)):
                continue
            bad = np.zeros(live.size, dtype=bool)
            if check:
                s = ~((Kmax + np.max(la, axis=1) + np.max(lb, axis=1) < _LOG_BOUND)
                      & np.all(np.isfinite(la), axis=1) & np.all(np.isfinite(lb), axis=1))
                bad[s] = ((np.max(_log_kernel(U[s], V[s], C[s], lam), axis=(1, 2)) > _LOG_HUGE)
                          | ~(np.isfinite(U[s]).all(axis=1) & np.isfinite(V[s]).all(axis=1)))
            done = (du < tol) & (dv < tol) & ~bad
            finished = done | bad
            if not finished.any():
                continue
            # a converged plan reports Vp, an exact block minimizer, a blown-up
            # one its last iterate; if every live row finishes, W is made in K
            Vp[bad] = V[bad]
            f, out = (slice(None), K) if finished.all() else (finished, None)
            Uf, Vf = U[f], Vp[f]
            retire(live[f], Uf, Vf, np.exp(_log_kernel(Uf, Vf, C[f], lam, out), out=out),
                   k + 1, done[f], bad[f])
            if out is K:
                break
            live, C, n, log_m, K, Kmax, U, Ua, An, la, V, Vb, Bm, lb = _shrink(
                finished, (live, C, n, log_m, K, Kmax, U, Ua, An, la, V, Vb, Bm, lb))
        else:
            if scaling < config.max_iterations:
                _newton_tail(U, C, n, log_m, live, lam, p0.rho2, tol, scaling,
                             config.max_iterations, retire)
            else:
                no = np.zeros(live.size, dtype=bool)
                retire(live, U, V, np.exp(_log_kernel(U, V, C, lam, K), out=K), scaling, no, no)

    return plans


def solve_uot(problem: TransportProblem, config: SolverConfig | None = None) -> TransportPlan:
    """Solve one instance; raises NumericalBlowupError instead of marking it."""
    plan = solve_uot_batch([problem], config)[0]
    if plan.error is not None:
        raise NumericalBlowupError(plan.error)
    return plan

