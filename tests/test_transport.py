import math
import tracemalloc

import numpy as np
import pytest

from oracle import log_domain_solve_uot_batch, recover_coupling, uot_primal_value
from uotalign import transport
from uotalign.classifier import ClassifierConfig, cost_matrix, prompt_marginal
from uotalign.numerics import logsumexp_axis
from uotalign.transport import (
    INF,
    NumericalBlowupError,
    SolverConfig,
    TransportProblem,
    dual_value,
    primal_value,
    solve_uot,
    solve_uot_batch,
    _NEWTON_AFTER,
    _OMEGA,
    _relax_interval,
)

TIGHT = SolverConfig(max_iterations=20000, dual_tolerance=1e-12)
BENCHMARK_SHAPES = ((4, 16), (4, 49), (4, 196))


def random_problem(rng, shape, lam, rho1, rho2, balanced=False):
    C = rng.uniform(0, 2, shape)
    n = rng.uniform(0.3, 1.0, shape[0])
    m = rng.uniform(0.3, 1.0, shape[1])
    if balanced:
        n /= n.sum()
        m /= m.sum()
    return TransportProblem(C, n, m, lam=lam, rho1=rho1, rho2=rho2)


def benchmark_problems(shape, pinned, count=128):
    """The classifier's solves: cosine costs of unit rows, lam = 0.01, the
    relaxed column marginal or both pinned, a batch of `count`."""
    ccfg = ClassifierConfig()
    rho1, rho2 = (INF, INF) if pinned else (ccfg.rho1, ccfg.rho2)
    rng = np.random.default_rng([31, *shape, pinned])
    rows, cols = shape

    def unit(k):
        a = rng.standard_normal((k, 64))
        return a / np.linalg.norm(a, axis=1, keepdims=True)

    return [TransportProblem(cost_matrix(unit(cols), unit(rows)), prompt_marginal(rows),
                             np.full(cols, 1 / cols), lam=ccfg.lam, rho1=rho1, rho2=rho2)
            for _ in range(count)]


class TestSolverConfig:
    @pytest.mark.parametrize("kw, match", [
        ({"max_iterations": 0}, "max_iterations"),
        ({"dual_tolerance": 0.0}, "dual_tolerance"),
        ({"dual_tolerance": math.inf}, "dual_tolerance must be positive and finite"),
        ({"dual_tolerance": math.nan}, "dual_tolerance must be positive and finite"),
    ])
    def test_rejects_bad_fields(self, kw, match):
        with pytest.raises(ValueError, match=match):
            SolverConfig(**kw)


def _replace_entry(a, value):
    a = np.array(a, dtype=np.float64)
    a.flat[1] = value
    return a


_ZERO_MASS = "^zero marginal mass: marginals must be strictly positive$"
_GOOD = dict(cost=np.full((2, 3), 0.5), row_marginal=[0.5, 0.5],
             col_marginal=[0.25, 0.25, 0.5])


def _stacks_around(field, value):
    """TransportProblem.batch arguments for three instances with `value` as
    their `field`. A bad cost is instance 1's, the others' are good; a cost
    that cannot stack with good ones (another shape) fills the whole stack.
    Any other field (a marginal, lam, rho1, rho2) is shared."""
    good = np.asarray(_GOOD["cost"], dtype=np.float64)
    costs, shared = [good] * 3, {k: _GOOD[k] for k in ("row_marginal", "col_marginal")}
    if field == "cost":
        bad = np.asarray(value, dtype=np.float64)
        costs = [good, bad, good] if bad.shape == good.shape else [bad] * 3
    else:
        shared[field] = value
    return dict(costs=np.stack(costs), **shared)


class TestTransportProblemRejects:
    @pytest.mark.parametrize("field, value, message", [
        ("cost", _replace_entry(_GOOD["cost"], math.nan), "^cost contains non-finite entries$"),
        ("cost", _replace_entry(_GOOD["cost"], INF), "^cost contains non-finite entries$"),
        ("cost", _replace_entry(_GOOD["cost"], -INF), "^cost contains non-finite entries$"),
        ("cost", [0.5, 0.5, 0.5], "^cost must be 2-dimensional, got ndim=1$"),
        ("cost", np.zeros((0, 3)), "^cost must be non-empty$"),
        *((name, _replace_entry(_GOOD[name], bad), message)
          for name in ("row_marginal", "col_marginal")
          for bad, message in (
              (math.nan, f"^{name} contains non-finite entries$"),
              (INF, f"^{name} contains non-finite entries$"),
              (0.0, _ZERO_MASS),
              (-0.25, _ZERO_MASS))),
        ("row_marginal", [[0.5, 0.5]], "^row_marginal must be 1-dimensional, got ndim=2$"),
        ("col_marginal", 0.5, "^col_marginal must be 1-dimensional, got ndim=0$"),
        ("row_marginal", [], "^row_marginal must be non-empty$"),
        ("col_marginal", [], "^col_marginal must be non-empty$"),
        ("row_marginal", [1.0], "^row_marginal has length 1, expected 2$"),
        ("col_marginal", [0.5, 0.5], "^col_marginal has length 2, expected 3$"),
        *(("lam", bad, "^lam must be positive and finite$")
          for bad in (0.0, -1.0, INF, math.nan)),
        *((name, bad, rf"^{name} must be positive \(or INF\)$")
          for name in ("rho1", "rho2") for bad in (0.0, -1.0, math.nan)),
    ])
    @pytest.mark.parametrize("build", ["constructor", "batch"])
    def test_bad_input_names_what_is_wrong(self, build, field, value, message):
        with pytest.raises(ValueError, match=message):
            if build == "constructor":
                TransportProblem(**{**_GOOD, field: value})
            else:
                TransportProblem.batch(**_stacks_around(field, value))

    def test_good_input_passes(self):
        assert TransportProblem(**_GOOD).shape == (2, 3)

    @pytest.mark.parametrize("lam, rho1, rho2", [(0.1, INF, INF), (0.01, INF, 0.04)])
    def test_batch_instances_equal_constructed_ones(self, lam, rho1, rho2):
        rng = np.random.default_rng(41)
        costs = rng.uniform(0, 2, (6, 2, 3))
        col = rng.uniform(0.2, 1.0, 3)
        row = [0.25, 0.75]
        got = TransportProblem.batch(costs, row, col, lam=lam, rho1=rho1, rho2=rho2)
        assert len(got) == 6
        for b, p in enumerate(got):
            want = TransportProblem(costs[b], row, col, lam=lam, rho1=rho1, rho2=rho2)
            for name in ("cost", "row_marginal", "col_marginal"):
                assert getattr(p, name).tobytes() == getattr(want, name).tobytes(), name
                assert getattr(p, name).shape == getattr(want, name).shape, name
            assert (p.lam, p.rho1, p.rho2, p.shape) == (lam, rho1, rho2, (2, 3))


class TestSolveBasics:
    def test_1x1_pinned(self):
        p = TransportProblem([[0.5]], [1.0], [1.0], lam=0.1, rho1=INF, rho2=INF)
        plan = solve_uot(p)
        assert plan.converged
        np.testing.assert_allclose(plan.coupling, [[1.0]], atol=1e-9)
        assert float(np.sum(plan.coupling * p.cost)) == pytest.approx(0.5, abs=1e-9)

    def test_constant_cost_gives_product_coupling(self):
        n = np.array([0.5, 0.5])
        m = np.full(4, 0.25)
        p = TransportProblem(np.full((2, 4), 0.7), n, m, lam=0.1, rho1=INF, rho2=INF)
        plan = solve_uot(p, TIGHT)
        np.testing.assert_allclose(plan.coupling, np.outer(n, m), atol=1e-12)

    def test_large_lambda_approaches_product_coupling(self):
        rng = np.random.default_rng(4)
        C = rng.uniform(0, 2, (3, 5))
        n = rng.uniform(0.2, 1, 3); n /= n.sum()
        m = rng.uniform(0.2, 1, 5); m /= m.sum()
        # deviation from the product coupling scales like spread(C)/lam,
        # so costs in [0, 2] need lam well past the example's 100 for 1e-4
        plan = solve_uot(TransportProblem(C, n, m, lam=1000.0, rho1=INF, rho2=INF), TIGHT)
        np.testing.assert_allclose(plan.coupling, np.outer(n, m), atol=1e-4)
        plan100 = solve_uot(TransportProblem(C, n, m, lam=100.0, rho1=INF, rho2=INF), TIGHT)
        np.testing.assert_allclose(plan100.coupling, np.outer(n, m), atol=1e-3)

    def test_balanced_feasibility(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = random_problem(rng, (4, 6), lam=0.2, rho1=INF, rho2=INF, balanced=True)
            plan = solve_uot(p)
            assert plan.converged
            assert np.all(plan.coupling >= 0)
            assert np.abs(plan.coupling.sum(1) - p.row_marginal).sum() < 1e-6
            assert np.abs(plan.coupling.sum(0) - p.col_marginal).sum() < 1e-6

    def test_zero_marginal_rejected(self):
        with pytest.raises(ValueError, match="zero marginal mass"):
            TransportProblem([[1.0, 1.0]], [1.0], [0.5, 0.0], lam=0.1)

    def test_blowup_raises_with_iteration_index(self):
        # strongly negative cost with weak marginal pull: optimal mass is
        # exp(-C/(2*rho+lam)) which leaves float range here
        p = TransportProblem([[-5.0]], [1.0], [1.0],
                             lam=5e-4, rho1=3e-3, rho2=3e-3)
        with pytest.raises(NumericalBlowupError, match=r"numerical blowup at iteration \d+"):
            solve_uot(p, SolverConfig(max_iterations=2000, dual_tolerance=1e-9))


class TestRecoverCoupling:
    # the reference coupling exp((u + v - C) / lam) that the batch
    # solver's couplings are checked against in TestBatch
    def test_all_zero_duals_zero_cost(self):
        W = recover_coupling(np.zeros(2), np.zeros(3), np.zeros((2, 3)), 1.0)
        np.testing.assert_array_equal(W, np.ones((2, 3)))

    def test_log2_cost(self):
        W = recover_coupling(np.zeros(2), np.zeros(2), np.full((2, 2), math.log(2)), 1.0)
        np.testing.assert_allclose(W, 0.5, atol=1e-15)

    def test_overflow_raises(self):
        with pytest.raises(NumericalBlowupError, match="numerical blowup"):
            recover_coupling(np.array([800.0]), np.array([800.0]), np.zeros((1, 1)), 1.0)


class TestPrimalValue:
    def test_product_coupling_no_kl(self):
        rng = np.random.default_rng(6)
        n = rng.uniform(0.2, 1, 3)
        m = rng.uniform(0.2, 1, 2)
        m *= n.sum() / m.sum()
        W = np.outer(n, m) / n.sum()
        p = TransportProblem(rng.uniform(0, 1, (3, 2)), n, m, lam=0.3, rho1=1.0, rho2=1.0)
        expected = float(np.sum(W * p.cost)) + 0.3 * float(
            np.sum(W * np.log(W)) - W.sum()
        )
        assert primal_value(W, p) == pytest.approx(expected, rel=1e-12)

    def test_zero_coupling_value(self):
        p = TransportProblem([[1.0, 2.0]], [0.4], [0.3, 0.3], lam=0.5, rho1=1.0, rho2=1.0)
        # all terms vanish except KL(0||z) = sum(z) on each side
        assert primal_value(np.zeros((1, 2)), p) == pytest.approx(0.4 + 0.6, abs=1e-12)

    def test_infeasible_under_pinned_marginal_raises(self):
        # the feasibility check is the test oracle's; primal_value itself
        # scores any nonnegative coupling, capped last iterates included
        p = TransportProblem([[1.0]], [1.0], [1.0], lam=0.5, rho1=INF, rho2=INF)
        with pytest.raises(ValueError, match="marginal constraint violated"):
            uot_primal_value([[0.5]], p)
        assert primal_value([[0.5]], p) == 0.5 + 0.5 * 0.5 * math.log(0.5)

    def test_coupling_of_another_shape_rejected(self):
        p = TransportProblem(**_GOOD)
        with pytest.raises(ValueError,
                           match=r"^coupling shape \(3, 2\) does not match cost \(2, 3\)$"):
            primal_value(np.full((3, 2), 0.1), p)

    def test_equals_solver_value_bitwise(self):
        # on a solver's feasible coupling the checked oracle value and
        # primal_value are one computation, bit for bit
        rng = np.random.default_rng(24)
        for rho in (INF, 0.6):
            p = random_problem(rng, (3, 4), lam=0.1, rho1=rho, rho2=rho, balanced=True)
            plan = solve_uot(p, TIGHT)
            assert np.float64(uot_primal_value(plan.coupling, p)).tobytes() == \
                np.float64(primal_value(plan.coupling, p)).tobytes()

    def test_solver_beats_random_feasible_perturbations(self):
        rng = np.random.default_rng(7)
        p = random_problem(rng, (3, 3), lam=0.2, rho1=0.8, rho2=0.8)
        plan = solve_uot(p, TIGHT)
        base = primal_value(plan.coupling, p)
        for _ in range(100):
            delta = rng.uniform(-0.05, 0.05, p.shape)
            cand = np.clip(plan.coupling + delta, 1e-12, None)
            assert base <= primal_value(cand, p) + 1e-12


class TestDualValue:
    def test_zero_potentials_substitution(self):
        rng = np.random.default_rng(8)
        p = random_problem(rng, (2, 3), lam=0.4, rho1=0.7, rho2=1.3)
        expected = 0.4 * np.exp(-p.cost / 0.4).sum() + 0.7 * p.row_marginal.sum() \
            + 1.3 * p.col_marginal.sum()
        got = dual_value(np.zeros(2), np.zeros(3), p)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_monotone_decrease_along_iterations(self):
        # the potentials after k iterations are those of a solve cut off
        # at max_iterations = k, so the trajectory is read off those
        rng = np.random.default_rng(9)
        for trial in range(5):
            p = random_problem(rng, (3, 4), lam=0.1, rho1=0.5, rho2=0.5)
            full = solve_uot(p, SolverConfig(max_iterations=300, dual_tolerance=1e-12))
            assert full.iterations > 2
            traj = [dual_value(np.zeros(3), np.zeros(4), p)]
            for k in range(1, full.iterations + 1):
                plan = solve_uot(p, SolverConfig(max_iterations=k, dual_tolerance=1e-12))
                traj.append(dual_value(plan.u, plan.v, p))
            assert np.all(np.diff(traj) <= 1e-9)

    def test_monotone_decrease_through_the_newton_tail(self):
        # pinned rows: the scaling iterates, then (u, exact v half-step of
        # u) along the Newton tail
        rng = np.random.default_rng(9)
        for _ in range(3):
            p = random_problem(rng, (3, 5), lam=0.02, rho1=INF, rho2=INF, balanced=True)
            full = solve_uot(p)
            assert full.converged and full.iterations > _NEWTON_AFTER + 2
            traj = []
            for k in range(1, full.iterations + 1):
                plan = solve_uot(p, SolverConfig(max_iterations=k))
                traj.append(dual_value(plan.u, plan.v, p))
            assert np.all(np.diff(traj) <= 1e-12)

    def test_primal_dual_relation_at_convergence(self):
        rng = np.random.default_rng(10)
        # finite rho: primal = -dual + rho1*sum(n) + rho2*sum(m)
        p = random_problem(rng, (2, 2), lam=0.15, rho1=0.6, rho2=0.9)
        plan = solve_uot(p, TIGHT)
        dv = dual_value(plan.u, plan.v, p)
        expected = -dv + 0.6 * p.row_marginal.sum() + 0.9 * p.col_marginal.sum()
        assert primal_value(plan.coupling, p) == pytest.approx(expected, abs=1e-9)
        # pinned: primal = lam * mass - dual
        p2 = random_problem(rng, (2, 2), lam=0.15, rho1=INF, rho2=INF, balanced=True)
        plan2 = solve_uot(p2, TIGHT)
        dv2 = dual_value(plan2.u, plan2.v, p2)
        assert primal_value(plan2.coupling, p2) == pytest.approx(
            0.15 * p2.row_marginal.sum() - dv2, abs=1e-9
        )

    @pytest.mark.parametrize("u, v", [(np.zeros(3), np.zeros(3)), (np.zeros(2), np.zeros(2))])
    def test_potentials_of_another_length_rejected(self, u, v):
        with pytest.raises(ValueError, match="^potential shapes do not match marginals$"):
            dual_value(u, v, TransportProblem(**_GOOD))

    def test_overflow_raises(self):
        p = TransportProblem([[0.0]], [1.0], [1.0], lam=1e-3, rho1=INF, rho2=INF)
        with pytest.raises(NumericalBlowupError, match="numerical blowup"):
            dual_value(np.array([400.0]), np.array([400.0]), p)


class TestBatch:
    def test_batch_of_one_matches_single(self):
        rng = np.random.default_rng(11)
        p = random_problem(rng, (3, 4), lam=0.1, rho1=0.5, rho2=0.5)
        single = solve_uot(p)
        batch = solve_uot_batch([p])[0]
        np.testing.assert_array_equal(single.u, batch.u)
        np.testing.assert_array_equal(single.v, batch.v)
        assert single.iterations == batch.iterations

    def test_identical_problems_identical_plans(self):
        rng = np.random.default_rng(12)
        p = random_problem(rng, (2, 5), lam=0.2, rho1=1.0, rho2=1.0)
        plans = solve_uot_batch([p, p, p])
        for other in plans[1:]:
            np.testing.assert_array_equal(plans[0].coupling, other.coupling)

    def test_batch_8_random_4x49(self):
        rng = np.random.default_rng(13)
        probs = [random_problem(rng, (4, 49), lam=0.05, rho1=0.5, rho2=0.5)
                 for _ in range(8)]
        cfg = SolverConfig(max_iterations=5000, dual_tolerance=1e-10)
        batch = solve_uot_batch(probs, cfg)
        for p, pl in zip(probs, batch):
            ref = solve_uot(p, cfg)
            np.testing.assert_array_equal(ref.u, pl.u)
            np.testing.assert_array_equal(ref.v, pl.v)
            assert ref.iterations == pl.iterations

    def test_mixed_convergence_freezing(self):
        # an easy instance and a slow one: the easy one's result must not
        # drift while the slow one keeps iterating
        easy = TransportProblem(np.full((2, 2), 0.3), [0.5, 0.5], [0.5, 0.5],
                                lam=0.02, rho1=0.9, rho2=0.9)
        rng = np.random.default_rng(14)
        slow = TransportProblem(rng.uniform(0, 2, (2, 2)), [0.5, 0.5], [0.5, 0.5],
                                lam=0.02, rho1=0.9, rho2=0.9)
        cfg = SolverConfig(max_iterations=3000, dual_tolerance=1e-11)
        plans = solve_uot_batch([easy, slow], cfg)
        for problem, plan in zip((easy, slow), plans):
            ref = solve_uot(problem, cfg)
            for name in ("u", "v", "coupling"):
                np.testing.assert_array_equal(getattr(plan, name), getattr(ref, name))
            assert (plan.iterations, plan.converged, plan.clamped) == \
                (ref.iterations, ref.converged, ref.clamped)
        assert plans[0].iterations < plans[1].iterations

    @staticmethod
    def _assert_each_as_if_alone(problems, cfg):
        plans = solve_uot_batch(problems, cfg)
        for problem, plan in zip(problems, plans):
            ref = solve_uot_batch([problem], cfg)[0]
            for name in ("coupling", "u", "v"):
                assert getattr(plan, name).tobytes() == getattr(ref, name).tobytes()
            assert (plan.iterations, plan.converged, plan.clamped, plan.error) == \
                (ref.iterations, ref.converged, ref.clamped, ref.error)
        return plans

    @staticmethod
    def _at_optimum(lam, rho, shape, rho1=None):
        # exp(-C/lam) already has the marginals n and m, so zero
        # potentials are optimal and the solve stops after one iteration;
        # rho1 defaults to rho
        n, m = np.full(shape[0], 1 / shape[0]), np.full(shape[1], 1 / shape[1])
        return TransportProblem(-lam * np.log(np.outer(n, m)), n, m,
                                lam=lam, rho1=rho if rho1 is None else rho1, rho2=rho)

    def test_every_way_of_finishing_matches_single(self):
        # instances leave the batch at different iterations and for
        # different reasons; each must come out as if solved alone
        rng = np.random.default_rng(22)
        # the six random instances converge in the Newton tail after 34 to
        # 38 iterations, so a cap of 37 stops the slowest and lets the
        # others finish apart
        cfg = SolverConfig(max_iterations=37, dual_tolerance=1e-10)
        problems = [self._at_optimum(0.02, INF, (3, 5))]
        problems += [random_problem(rng, (3, 5), lam=0.02, rho1=INF, rho2=INF, balanced=True)
                     for _ in range(6)]
        # a log-coupling past float range at the first iteration
        huge = 8.5e307
        problems.append(TransportProblem(rng.uniform(0, 2, (3, 5)), [huge, 1, 1],
                                         [huge, 1, 1, 1, 1], lam=0.02))
        # shifted costs: the first marginal sums fall below the clamp; the
        # base instance converges after 34 iterations, within the cap
        base = problems[6]
        problems.append(TransportProblem(base.cost + 14.3, base.row_marginal,
                                         base.col_marginal, lam=0.02))
        plans = self._assert_each_as_if_alone(problems, cfg)
        for problem, plan in zip(problems, plans):
            if plan.error is None:
                # the coupling is exp of the potentials' log kernel, bit for bit
                assert plan.coupling.tobytes() == recover_coupling(
                    plan.u, plan.v, problem.cost, problem.lam).tobytes()
        assert np.all(np.isnan(plans[7].coupling))
        assert plans[0].iterations == 1 and plans[0].converged
        converged_at = {plan.iterations for plan in plans[1:7] if plan.converged}
        assert len(converged_at) > 2
        assert any(plan.iterations == cfg.max_iterations and not plan.converged
                   for plan in plans[1:7])
        assert plans[7].error == "numerical blowup at iteration 1"
        assert plans[8].clamped and plans[8].converged

    def test_failure_and_clamping_after_others_left(self):
        # the first instance leaves after one iteration, so the later
        # blowup and clamps happen at working rows shifted by one
        lam, rho = 5e-4, 3e-3
        rng = np.random.default_rng(23)
        problems = [self._at_optimum(lam, rho, (3, 5)),
                    TransportProblem(np.full((3, 5), -5.0), np.ones(3), np.ones(5),
                                     lam=lam, rho1=rho, rho2=rho),
                    TransportProblem(2.0 + rng.uniform(0, 0.01, (3, 5)),
                                     np.full(3, 1 / 3), np.full(5, 1 / 5),
                                     lam=lam, rho1=rho, rho2=rho)]
        problems += [random_problem(rng, (3, 5), lam=lam, rho1=rho, rho2=rho)
                     for _ in range(3)]
        cfg = SolverConfig(max_iterations=300, dual_tolerance=1e-10)
        plans = self._assert_each_as_if_alone(problems, cfg)
        assert plans[0].iterations == 1 and plans[0].converged
        assert plans[1].error == "numerical blowup at iteration 9"
        assert plans[2].clamped and not plans[1].clamped

    def test_newton_tail_matches_single(self, monkeypatch):
        # pinned instances that leave before the Newton tail, leave it after
        # different numbers of steps, fall back to a plain half-step or run
        # to the cap; each must come out as if solved alone
        rng = np.random.default_rng(516)
        pool = [random_problem(rng, (4, 16), lam=0.05, rho1=INF, rho2=INF, balanced=True)
                for _ in range(35)]
        problems = [self._at_optimum(0.05, INF, (4, 16))] + [pool[i] for i in (17, 0, 2, 3, 34)]
        # unequal masses: the pinned rows are never met
        problems.append(random_problem(rng, (4, 16), lam=0.05, rho1=INF, rho2=INF))
        cfg = SolverConfig(max_iterations=60)
        fallbacks = []

        def counting(a, axis):
            # in the Newton tail only the fallback half-step reduces rows
            if axis == 2:
                fallbacks.append(a.shape[0])
            return logsumexp_axis(a, axis)

        monkeypatch.setattr(transport, "logsumexp_axis", counting)
        plans = self._assert_each_as_if_alone(problems, cfg)
        # one fallback in the batch and one in its single solve: instance 5's
        # last line search reads rounding noise at the error floor
        assert fallbacks == [1, 1]
        fallbacks.clear()
        solve_uot_batch(problems[5:6], cfg)
        assert fallbacks == [1]
        its = [plan.iterations for plan in plans]
        assert its[0] == 1 and 1 < its[1] < _NEWTON_AFTER
        assert len(set(its[2:6])) > 2 and min(its[2:6]) > _NEWTON_AFTER
        assert all(plan.converged for plan in plans[:6])
        assert its[6] == cfg.max_iterations and not plans[6].converged
        assert plans[6].error is None

    def test_finishing_together_matches_single(self):
        # every instance converges at the same iteration, so the batch's
        # couplings are made in its working kernel in one pass
        problems = benchmark_problems((4, 44), pinned=False, count=64)
        plans = self._assert_each_as_if_alone(problems, SolverConfig())
        assert len({plan.iterations for plan in plans}) == 1
        assert all(plan.converged for plan in plans)
        for problem, plan in zip(problems, plans):
            assert plan.coupling.tobytes() == recover_coupling(
                plan.u, plan.v, problem.cost, problem.lam).tobytes()

    @pytest.mark.parametrize("together", [True, False])
    def test_plans_view_the_call_arrays(self, together):
        # three instances that finish together, or one of them replaced by
        # an instance at its optimum, which finishes first
        problems = benchmark_problems((4, 44), pinned=False, count=3)
        if not together:
            p = problems[0]
            problems[0] = self._at_optimum(p.lam, p.rho2, (4, 44), rho1=p.rho1)
        plans = solve_uot_batch(problems)
        finished_at = {plan.iterations for plan in plans}
        assert (len(finished_at) == 1) == together
        for name in ("u", "v"):
            base = getattr(plans[0], name).base
            assert base is not None
            assert all(getattr(plan, name).base is base for plan in plans)
        # one coupling array per iteration at which instances finished
        assert all(plan.coupling.base is not None for plan in plans)
        assert len({id(plan.coupling.base) for plan in plans}) == len(finished_at)

    def test_newton_tail_blowup_matches_single(self, monkeypatch):
        # instances 17, 0, 2, 3 and 34 of the pool above, with the
        # log-coupling ceiling lowered to the median of their largest
        # log-couplings: instance 1 (pool[0]) is above it at the Newton
        # tail's first check, at iteration 30, and ends there; instance 0,
        # also above it, converges in the scaling loop, whose gate skips
        # the check far below float range
        rng = np.random.default_rng(516)
        pool = [random_problem(rng, (4, 16), lam=0.05, rho1=INF, rho2=INF, balanced=True)
                for _ in range(35)]
        problems = [pool[i] for i in (17, 0, 2, 3, 34)]
        cfg = SolverConfig(max_iterations=60)
        tops = [np.log(plan.coupling).max() for plan in solve_uot_batch(problems, cfg)]
        monkeypatch.setattr(transport, "_LOG_HUGE", float(np.median(tops)))
        plans = self._assert_each_as_if_alone(problems, cfg)
        assert plans[1].error == f"numerical blowup at iteration {_NEWTON_AFTER}"
        assert plans[1].iterations == _NEWTON_AFTER and not plans[1].converged
        assert np.all(np.isnan(plans[1].coupling))
        others = plans[:1] + plans[2:]
        assert [plan.iterations for plan in others] == [26, 34, 37, 34]
        assert all(plan.converged and plan.error is None for plan in others)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="^empty batch$"):
            solve_uot_batch([])

    def test_shape_mismatch_rejected(self):
        a = TransportProblem([[1.0]], [1.0], [1.0], lam=0.1)
        b = TransportProblem([[1.0, 1.0]], [1.0], [0.5, 0.5], lam=0.1)
        with pytest.raises(ValueError, match="share shape"):
            solve_uot_batch([a, b])

    def test_per_instance_failure_marked(self):
        good = TransportProblem([[0.5]], [1.0], [1.0],
                                lam=5e-4, rho1=3e-3, rho2=3e-3)
        bad = TransportProblem([[-5.0]], [1.0], [1.0],
                               lam=5e-4, rho1=3e-3, rho2=3e-3)
        plans = solve_uot_batch([good, bad],
                                SolverConfig(max_iterations=2000, dual_tolerance=1e-9))
        assert plans[1].error is not None and "numerical blowup" in plans[1].error
        assert plans[0].error is None
        assert np.all(np.isfinite(plans[0].coupling))


class TestLogDomainReference:
    """The over-relaxed scaling-form solver against the plain log-domain one.

    The reference runs the plain iteration, so iteration counts and
    couplings differ, and each test prints both solvers' mean and
    maximum iterations. Every instance must still end the same way:
    the same error, no instance that the reference converges left
    unconverged, and the same clamped flag on every converged instance.
    The instances that converge only here are listed per test.
    """

    @staticmethod
    def _assert_matches_reference(problems, cfg, name, newly_converged=()):
        plans = solve_uot_batch(problems, cfg)
        refs = log_domain_solve_uot_batch(problems, cfg)
        for plan, ref in zip(plans, refs):
            assert plan.error == ref.error
            if plan.converged:
                assert plan.clamped == ref.clamped
        flips = [i for i, (plan, ref) in enumerate(zip(plans, refs))
                 if plan.converged != ref.converged]
        assert flips == list(newly_converged)
        assert all(plans[i].converged for i in flips)
        its = [plan.iterations for plan in plans]
        ref_its = [ref.iterations for ref in refs]
        print(f"{name}: iterations mean {np.mean(its):.1f}, max {max(its)}; "
              f"reference mean {np.mean(ref_its):.1f}, max {max(ref_its)}")

        # each converged coupling is at least as close to a tight solve's
        # as the reference's is, where the tight solve converges
        done = [i for i, plan in enumerate(plans) if plan.converged]
        tight = solve_uot_batch([problems[i] for i in done], SolverConfig(
            max_iterations=20000, dual_tolerance=1e-13)) if done else []
        checked = [i for i, best in zip(done, tight) if best.converged]
        for i, best in zip(done, tight):
            if best.converged:
                assert np.abs(plans[i].coupling - best.coupling).max() <= \
                    np.abs(refs[i].coupling - best.coupling).max()
            if math.isinf(problems[i].rho2):
                # v is the plain half-step's, so columns meet m exactly
                col_error = plans[i].coupling.sum(axis=0) - problems[i].col_marginal
                assert np.abs(col_error).max() <= 1e-12
        return plans, refs, checked

    @pytest.mark.parametrize("shape, pinned", [
        ((4, 16), False), ((4, 49), False), ((4, 196), False),
        ((4, 16), True), ((4, 49), True),
    ])
    def test_benchmark_shapes(self, shape, pinned):
        # six pinned 4x16 instances that the reference caps converge here
        newly_converged = (6, 10, 19, 42, 56, 76) if shape == (4, 16) and pinned else ()
        problems = benchmark_problems(shape, pinned)
        plans, refs, checked = self._assert_matches_reference(
            problems, SolverConfig(), f"{shape} {'pinned' if pinned else 'relaxed'}",
            newly_converged)
        assert checked == [i for i, plan in enumerate(plans) if plan.converged]
        assert np.mean([p.iterations for p in plans]) < np.mean([r.iterations for r in refs])

    @pytest.mark.parametrize("rho", [INF, 0.05])
    def test_small_lambda(self, rho):
        # exp(-C / lam) underflows on every entry at the start, so the
        # first half-step runs in log space and clamps every instance;
        # pinned, the reference caps all but instances 13 and 23, and the
        # Newton tail converges every instance to rounding level
        pinned = math.isinf(rho)
        newly_converged = tuple(i for i in range(32) if i not in (13, 23)) if pinned else ()
        rng = np.random.default_rng(32)
        problems = [TransportProblem(rng.uniform(0.7, 2.0, (4, 16)), np.full(4, 0.25),
                                     np.full(16, 1 / 16), lam=1e-3, rho1=rho, rho2=rho)
                    for _ in range(32)]
        plans, refs, _ = self._assert_matches_reference(
            problems, SolverConfig(), f"small lam, rho {rho}", newly_converged)
        ours, theirs = sum(p.converged for p in plans), sum(r.converged for r in refs)
        print(f"small lam, rho {rho}: {ours} of 32 converged; reference {theirs}")
        assert all(ref.clamped for ref in refs) and ours >= theirs > 0
        if pinned:
            assert ours == 32
            for problem, plan in zip(problems, plans):
                W = plan.coupling
                assert np.abs(W.sum(axis=1) - problem.row_marginal).sum() <= 1e-12
                assert np.abs(W.sum(axis=0) - problem.col_marginal).sum() <= 1e-12

    def test_capped_clamped_and_blown_up(self):
        # the constructions of TestBatch, each among ordinary instances
        rng = np.random.default_rng(33)
        cfg = SolverConfig(max_iterations=300, dual_tolerance=1e-10)
        pinned = [random_problem(rng, (3, 5), lam=0.02, rho1=INF, rho2=INF, balanced=True)
                  for _ in range(6)]
        # pinned (rho1 = rho2 = INF) with marginals that do not sum to 1
        unnormalised = [random_problem(rng, (3, 5), lam=0.02, rho1=INF, rho2=INF)
                        for _ in range(3)]
        unnormalised += [TransportProblem(p.cost + 14.3, p.row_marginal, p.col_marginal,
                                          lam=0.02)
                         for p in unnormalised]
        unnormalised.append(TransportProblem(rng.uniform(0, 2, (3, 5)), [8.5e307, 1, 1],
                                             [8.5e307, 1, 1, 1, 1], lam=0.02))
        lam, rho = 5e-4, 3e-3
        weak = [TransportProblem(np.full((3, 5), -5.0), np.ones(3), np.ones(5),
                                 lam=lam, rho1=rho, rho2=rho)]
        weak += [random_problem(rng, (3, 5), lam=lam, rho1=rho, rho2=rho) for _ in range(4)]
        # an ordinary relaxed instance, drawn last so that no other one moves
        relaxed = [random_problem(rng, (3, 5), lam=0.02, rho1=0.5, rho2=0.5)]
        refs, plans = [], []
        for name, problems, flips in (("pinned", pinned, (4, 5)),
                                      ("unnormalised pinned", unnormalised, ()),
                                      ("weak", weak, ()), ("relaxed", relaxed, ())):
            ours, theirs, _ = self._assert_matches_reference(problems, cfg, name, flips)
            plans += ours
            refs += theirs
        for outcomes in (refs, plans):
            assert any(not o.converged and o.error is None for o in outcomes)
            assert sum(o.clamped for o in outcomes) >= 3
            assert sum(o.error is not None for o in outcomes) == 2


class TestMemory:
    def test_finishing_together_holds_at_most_six_batch_arrays(self):
        # a training call's shape, 320 problems of 4 x 44, here ones that
        # all converge at the same iteration; the cost stack, the kernel
        # and the couplings made in it are the batch-sized arrays, besides
        # (B, P) and (B, M) ones
        problems = benchmark_problems((4, 44), pinned=False, count=320)
        solve_uot_batch(problems[:2])  # first-call caches
        tracemalloc.start()
        try:
            plans = solve_uot_batch(problems)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len({plan.iterations for plan in plans}) == 1
        assert peak <= 6 * 320 * 4 * 44 * 8, peak / (320 * 4 * 44 * 8)


class TestNewtonTail:
    @pytest.mark.parametrize("shape", BENCHMARK_SHAPES)
    def test_relaxed_benchmark_shapes_end_before_the_newton_tail(self, shape):
        # training and evaluation solve these; while they converge in fewer
        # than _NEWTON_AFTER iterations their outputs do not depend on it
        plans = solve_uot_batch(benchmark_problems(shape, pinned=False))
        assert all(plan.converged for plan in plans)
        assert max(plan.iterations for plan in plans) < _NEWTON_AFTER


class TestOverRelaxation:
    @staticmethod
    def _h(s, lam, rho):
        # the dual's excess at T + s over its minimum at T, per unit mass
        pull = -s if math.isinf(rho) else rho * math.expm1(-s / rho)
        return lam * math.expm1(s / lam) + pull

    @pytest.mark.parametrize("lam", [1e-3, 0.01, 0.1, 2.0])
    @pytest.mark.parametrize("rho_over_lam", [0.05, 0.3, 0.39, 0.41, 1.0, 4.0, 100.0, INF])
    def test_interval_accepts_only_steps_that_lower_the_dual(self, lam, rho_over_lam):
        # rho < (omega - 1) lam = 0.4 lam is where the upper end is finite
        rho = lam * rho_over_lam
        beta = _OMEGA - 1.0
        lo, hi = _relax_interval(lam, rho)
        assert lo < 0 < hi
        rng = np.random.default_rng(34)
        inside = np.concatenate([lo * rng.uniform(0, 1, 500), hi * rng.uniform(0, 1, 500),
                                 lo * (1 - 10 ** rng.uniform(-9, 0, 200)),
                                 hi * (1 - 10 ** rng.uniform(-9, 0, 200))])
        wide = lam * 10 ** rng.uniform(-6, 3, 2000) * rng.choice([-1, 1], 2000)
        for s in np.concatenate([inside, wide]):
            if lo <= s <= hi:
                assert self._h(-beta * s, lam, rho) <= self._h(s, lam, rho), s
        if rho < beta * lam:
            # hi is the gain's first root, shrunk by 0.1%, not a cap
            assert self._h(-beta * hi * 1.002, lam, rho) > self._h(hi * 1.002, lam, rho)

    def test_interval_is_computed_once_per_parameters(self):
        _relax_interval.cache_clear()
        problems = [random_problem(np.random.default_rng(35), (3, 4), lam=0.1, rho1=0.5, rho2=0.7)]
        solve_uot_batch(problems)
        solve_uot_batch(problems)
        info = _relax_interval.cache_info()
        assert (info.misses, info.hits) == (2, 2)


class TestStructuralProperties:
    def test_permutation_equivariance(self):
        rng = np.random.default_rng(15)
        p = random_problem(rng, (4, 3), lam=0.1, rho1=0.7, rho2=0.7)
        perm = rng.permutation(4)
        p2 = TransportProblem(p.cost[perm], p.row_marginal[perm], p.col_marginal,
                              lam=0.1, rho1=0.7, rho2=0.7)
        w1 = solve_uot(p, TIGHT).coupling
        w2 = solve_uot(p2, TIGHT).coupling
        np.testing.assert_allclose(w2, w1[perm], atol=1e-12)

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(16)
        p = random_problem(rng, (3, 4), lam=0.1, rho1=0.4, rho2=0.9)
        pt = TransportProblem(p.cost.T, p.col_marginal, p.row_marginal,
                              lam=0.1, rho1=0.9, rho2=0.4)
        w = solve_uot(p, TIGHT).coupling
        wt = solve_uot(pt, TIGHT).coupling
        np.testing.assert_allclose(wt, w.T, atol=1e-9)

    def test_entropy_nondecreasing_in_lambda(self):
        rng = np.random.default_rng(17)
        lams = [0.01, 0.05, 0.1, 0.5, 1.0]
        for _ in range(20):
            p = random_problem(rng, (3, 3), lam=1.0, rho1=INF, rho2=INF, balanced=True)
            ents = []
            for lam in lams:
                q = TransportProblem(p.cost, p.row_marginal, p.col_marginal,
                                     lam=lam, rho1=INF, rho2=INF)
                W = solve_uot(q, TIGHT).coupling
                ents.append(-float(np.sum(W[W > 0] * np.log(W[W > 0]))))
            assert np.all(np.diff(ents) >= -1e-9)

    def test_balanced_shift_invariance(self):
        rng = np.random.default_rng(18)
        p = random_problem(rng, (3, 4), lam=0.2, rho1=INF, rho2=INF, balanced=True)
        c = 0.37
        shifted = TransportProblem(p.cost + c, p.row_marginal, p.col_marginal,
                                   lam=0.2, rho1=INF, rho2=INF)
        a = solve_uot(p, TIGHT)
        b = solve_uot(shifted, TIGHT)
        np.testing.assert_allclose(b.coupling, a.coupling, atol=1e-9)
        assert primal_value(b.coupling, shifted) - primal_value(a.coupling, p) == pytest.approx(
            c * p.row_marginal.sum(), abs=1e-9
        )

    def test_uot_to_ot_limit(self):
        rng = np.random.default_rng(19)
        for lam in (0.1, 0.5):
            p = random_problem(rng, (5, 7), lam=lam, rho1=INF, rho2=INF, balanced=True)
            cfg = SolverConfig(max_iterations=20000, dual_tolerance=1e-11)
            bal = solve_uot(p, cfg)
            relaxed = TransportProblem(p.cost, p.row_marginal, p.col_marginal,
                                       lam=lam, rho1=1e6, rho2=1e6)
            un = solve_uot(relaxed, cfg)
            assert np.abs(bal.coupling - un.coupling).max() < 1e-4


class TestOutlierSuppression:
    def test_uot_discards_outlier_columns(self):
        # 4 prompt rows vs 20 image columns, only the first 4 columns match;
        # pinned rows + lightly penalised columns should starve the rest
        d = 32
        rng = np.random.default_rng(0)
        basis = np.linalg.qr(rng.standard_normal((d, 8)))[0]
        prompts = basis[:, :4].T
        matched = []
        for j in range(4):
            f = prompts[j] + 0.05 * rng.standard_normal(d)
            matched.append(f / np.linalg.norm(f))
        outliers = []
        for _ in range(16):
            g = rng.standard_normal(d)
            g -= prompts.T @ (prompts @ g)
            outliers.append(g / np.linalg.norm(g))
        F = np.array(matched + outliers)
        C = 1.0 - prompts @ F.T
        n = np.full(4, 0.25)
        m = np.full(20, 0.05)
        cfg = SolverConfig(max_iterations=20000, dual_tolerance=1e-9)

        ot = solve_uot(TransportProblem(C, n, m, lam=0.01, rho1=INF, rho2=INF), cfg)
        ot_frac = ot.coupling[:, 4:].sum() / ot.coupling.sum()
        assert ot_frac == pytest.approx(0.8, abs=1e-9)  # balanced must place it

        uot = solve_uot(TransportProblem(C, n, m, lam=0.01, rho1=INF, rho2=0.04), cfg)
        uot_frac = uot.coupling[:, 4:].sum() / uot.coupling.sum()
        assert uot_frac < 0.05
        assert np.abs(uot.coupling.sum(1) - n).max() < 1e-6  # rows stay pinned


class TestGradientWrtCost:
    # the gradient of the regularized optimal value in the cost is the
    # optimal coupling itself (envelope argument)
    def test_1x1(self):
        p = TransportProblem([[0.5]], [1.0], [1.0], lam=0.1, rho1=INF, rho2=INF)
        plan = solve_uot(p)
        assert plan.converged
        np.testing.assert_allclose(plan.coupling, [[1.0]], atol=1e-9)

    def test_directional_finite_difference_of_value(self):
        rng = np.random.default_rng(21)
        p = random_problem(rng, (3, 3), lam=0.2, rho1=0.8, rho2=0.8)
        plan = solve_uot(p, TIGHT)
        assert plan.converged
        h = 1e-5

        def value(cost):
            q = TransportProblem(cost, p.row_marginal, p.col_marginal,
                                 lam=0.2, rho1=0.8, rho2=0.8)
            return primal_value(solve_uot(q, TIGHT).coupling, q)

        for _ in range(5):
            delta = rng.standard_normal(p.shape)
            fd = (value(p.cost + h * delta) - value(p.cost - h * delta)) / (2 * h)
            analytic = float(np.sum(plan.coupling * delta))
            assert analytic == pytest.approx(fd, rel=1e-3)
