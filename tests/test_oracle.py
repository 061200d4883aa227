import math

import numpy as np
import pytest

from oracle import GridSpec, finite_diff_grad, grid_minimize, recover_coupling
from uotalign.transport import (
    INF,
    SolverConfig,
    TransportProblem,
    primal_value,
    solve_uot,
)

TIGHT = SolverConfig(max_iterations=20000, dual_tolerance=1e-12)


class TestGridMinimize:
    def test_1x1_balanced_exact(self):
        p = TransportProblem([[0.3]], [0.8], [0.8], lam=0.1, rho1=INF, rho2=INF)
        W, _ = grid_minimize(p)
        np.testing.assert_allclose(W, [[0.8]], atol=1e-12)

    def test_2x2_balanced_matches_solver_and_closed_form(self):
        # C = [[0,1],[1,0]], uniform halves: one free parameter w on the
        # diagonal, optimum w = 0.5*sigmoid(1/(2*lam)) from the stationarity
        # condition log(w/(0.5-w)) = 1/lam... solved for the off-diagonal
        lam = 0.1
        p = TransportProblem([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], [0.5, 0.5],
                             lam=lam, rho1=INF, rho2=INF)
        plan = solve_uot(p, TIGHT)
        W_o, val_o = grid_minimize(p, GridSpec(resolution=21, refinement_rounds=12))
        w_diag = 0.5 / (1.0 + math.exp(-1.0 / lam))
        w_off = 0.5 - w_diag
        W_exact = np.array([[w_diag, w_off], [w_off, w_diag]])
        np.testing.assert_allclose(plan.coupling, W_exact, atol=1e-9)
        np.testing.assert_allclose(W_o, W_exact, atol=1e-6)
        assert abs(primal_value(plan.coupling, p) - val_o) < 1e-3
        assert plan.coupling[0, 0] > plan.coupling[0, 1]  # diagonal-dominant

    def test_2x2_uot_solver_not_worse(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            C = rng.uniform(0, 2, (2, 2))
            n = rng.uniform(0.3, 1, 2)
            m = rng.uniform(0.3, 1, 2)
            p = TransportProblem(C, n, m, lam=0.15, rho1=0.7, rho2=0.7)
            plan = solve_uot(p, TIGHT)
            _, val_o = grid_minimize(p, GridSpec(resolution=13, refinement_rounds=8))
            val = primal_value(plan.coupling, p)
            assert val <= val_o + 1e-6
            assert abs(val - val_o) < 1e-3

    def test_3x4_balanced_within_reach(self):
        # pinned marginals eliminate all but (3-1)*(4-1) = 6 coordinates,
        # which is exactly the tractability cap
        rng = np.random.default_rng(31)
        C = rng.uniform(0, 2, (3, 4))
        n = rng.uniform(0.2, 1, 3); n /= n.sum()
        m = rng.uniform(0.2, 1, 4); m /= m.sum()
        p = TransportProblem(C, n, m, lam=0.05, rho1=INF, rho2=INF)
        plan = solve_uot(p, TIGHT)
        _, val_o = grid_minimize(p, GridSpec(resolution=7, refinement_rounds=10))
        assert abs(primal_value(plan.coupling, p) - val_o) < 1e-3

    def test_mixed_pinned_rows(self):
        rng = np.random.default_rng(32)
        C = rng.uniform(0, 2, (2, 3))
        n = rng.uniform(0.3, 1, 2)
        m = rng.uniform(0.3, 1, 3)
        p = TransportProblem(C, n, m, lam=0.05, rho1=INF, rho2=0.3)
        plan = solve_uot(p, TIGHT)
        W_o, val_o = grid_minimize(p, GridSpec(resolution=13, refinement_rounds=8))
        assert abs(primal_value(plan.coupling, p) - val_o) < 1e-3
        assert np.abs(W_o.sum(1) - n).max() < 1e-9  # oracle searched feasibly

    def test_cap_enforced(self):
        p = TransportProblem(np.ones((3, 3)), np.ones(3), np.ones(3),
                             lam=0.1, rho1=1.0, rho2=1.0)
        with pytest.raises(ValueError, match="oracle cap exceeded"):
            grid_minimize(p)

    def test_round_trip_duals_reproduce_oracle_coupling(self):
        p = TransportProblem([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], [0.5, 0.5],
                             lam=0.1, rho1=INF, rho2=INF)
        plan = solve_uot(p, TIGHT)
        W_o, _ = grid_minimize(p, GridSpec(resolution=21, refinement_rounds=10))
        W_rt = recover_coupling(plan.u, plan.v, p.cost, 0.1)
        assert np.abs(W_rt - W_o).max() < 1e-3

    def test_infeasible_balance_rejected(self):
        p = TransportProblem([[1.0]], [1.0], [0.5], lam=0.1, rho1=INF, rho2=INF)
        with pytest.raises(ValueError, match="marginal mass mismatch"):
            grid_minimize(p)

    def test_gridspec_validation(self):
        with pytest.raises(ValueError, match="resolution"):
            GridSpec(resolution=2)
        with pytest.raises(ValueError, match="refinement_rounds"):
            GridSpec(refinement_rounds=0)


class TestFiniteDiffGrad:
    def test_linear_function(self):
        rng = np.random.default_rng(33)
        c = rng.standard_normal(6)
        g = finite_diff_grad(lambda x: float(c @ x), rng.standard_normal(6), step=1e-5)
        np.testing.assert_allclose(g, c, atol=1e-10)

    def test_squared_norm(self):
        rng = np.random.default_rng(34)
        x = rng.standard_normal(4)
        g = finite_diff_grad(lambda y: float(y @ y), x, step=1e-5)
        np.testing.assert_allclose(g, 2 * x, atol=1e-6)

    def test_degree_two_exactness(self):
        rng = np.random.default_rng(35)
        A = rng.standard_normal((5, 5))
        A = 0.5 * (A + A.T)
        b = rng.standard_normal(5)
        x = rng.standard_normal(5)
        g = finite_diff_grad(lambda y: float(y @ A @ y + b @ y), x, step=1e-4)
        np.testing.assert_allclose(g, 2 * A @ x + b, atol=1e-8)

    def test_matrix_shaped_input(self):
        x = np.arange(6.0).reshape(2, 3)
        g = finite_diff_grad(lambda y: float((y ** 2).sum()), x, step=1e-5)
        np.testing.assert_allclose(g, 2 * x, atol=1e-6)

    def test_nonfinite_reported_with_coordinate(self):
        def f(x):
            return float("nan") if x[1] > 0.5 else float(x.sum())
        with pytest.raises(ValueError, match="coordinate 1"):
            finite_diff_grad(f, np.array([0.0, 0.5, 0.0]), step=1e-2)
