import math
import warnings

import numpy as np
import pytest

from uotalign.classifier import cost_matrix
from uotalign.numerics import (
    as_matrix,
    as_vector,
    generalized_kl,
    logsumexp_axis,
)
from uotalign.transport import INF, TransportProblem, primal_value


def lse(v):
    """logsumexp_axis of one vector, as a Python float."""
    return float(logsumexp_axis(np.array([v], dtype=np.float64), axis=1)[0])


class TestLogsumexp:
    def test_single_element_exact(self):
        assert lse([0.0]) == 0.0
        assert lse([-3.75]) == -3.75

    def test_two_equal(self):
        for c in (0.0, 1.5, -7.0):
            assert lse([c, c]) == pytest.approx(c + math.log(2), abs=1e-14)

    def test_no_overflow_on_large_inputs(self):
        val = lse([1000.0, 1000.0])
        assert math.isfinite(val)
        assert val == pytest.approx(1000.0 + math.log(2), abs=1e-12)

    def test_empty_raises(self):
        # an empty reduction is an error, not -inf
        with pytest.raises(ValueError):
            logsumexp_axis(np.zeros((2, 0)), axis=1)

    def test_bounds_property(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.uniform(-50, 50, rng.integers(1, 20))
            s = lse(v)
            assert s >= np.max(v)
            assert s <= np.max(v) + math.log(len(v)) + 1e-12

    def test_each_axis_matches_its_rows(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(-50, 50, (4, 7))
        by_row = logsumexp_axis(a, axis=1)
        by_col = logsumexp_axis(a, axis=0)
        assert by_row.shape == (4,) and by_col.shape == (7,)
        np.testing.assert_allclose(by_row, [lse(r) for r in a], rtol=1e-15)
        np.testing.assert_allclose(by_col, [lse(c) for c in a.T], rtol=1e-15)


class TestCosineMatrix:
    # the cosine is taken once, inside classifier.cost_matrix (C = 1 - cos)
    def test_identical_unit_rows(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(np.diag(cost_matrix(a, a)), 0.0, atol=1e-14)

    def test_orthogonal(self):
        # (0, 2) is orthogonal to (1, 0) once normalised: cost 1
        with pytest.warns(UserWarning, match="unit-norm"):
            C = cost_matrix(np.array([[0.0, 2.0]]), np.array([[1.0, 0.0]]))
        assert C[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_antipodal(self):
        a = np.array([[0.5, 0.5]])
        with pytest.warns(UserWarning, match="unit-norm"):
            C = cost_matrix(-a, a)
        assert C[0, 0] == pytest.approx(2.0, abs=1e-14)

    def test_zero_row_raises(self):
        with pytest.raises(ValueError, match="degenerate embedding"):
            cost_matrix(np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]]))

    def test_range_bounded(self):
        rng = np.random.default_rng(1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(20):
                C = cost_matrix(rng.standard_normal((7, 8)), rng.standard_normal((5, 8)))
                assert C.min() >= -1e-12 and C.max() <= 2.0 + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            cost_matrix(np.ones((2, 4)), np.ones((2, 3)))


def entropy(W):
    """-sum(W log W), read off the transport objective.

    With zero cost, lam = 1 and both marginals pinned to W's own sums,
    primal_value is exactly the entropy term sum(W log W).
    """
    W = np.asarray(W, dtype=np.float64)
    p = TransportProblem(np.zeros(W.shape), W.sum(axis=1), W.sum(axis=0),
                         lam=1.0, rho1=INF, rho2=INF)
    return -primal_value(W, p)


class TestEntropy:
    # the entropy term of the objective, with 0 log 0 = 0; numerics no
    # longer computes it on its own
    def test_zero_matrix(self):
        # a relaxed problem admits W = 0: only the KL(0 || z) = sum(z)
        # terms remain, so the entropy term adds exactly nothing
        p = TransportProblem(np.zeros((3, 3)), [0.1, 0.2, 0.3], [0.3, 0.3, 0.3],
                             lam=0.7, rho1=2.0, rho2=5.0)
        assert primal_value(np.zeros((3, 3)), p) == 2.0 * 0.6 + 5.0 * 0.9

    def test_point_mass(self):
        assert entropy(np.array([[1.0]])) == 0.0

    def test_uniform_quarter(self):
        w = np.full((2, 2), 0.25)
        assert entropy(w) == pytest.approx(math.log(4), abs=1e-12)
        # the zero cells of a diagonal coupling add nothing
        assert entropy(np.diag([0.5, 0.5])) == pytest.approx(math.log(2), abs=1e-12)

    def test_negative_raises(self):
        p = TransportProblem([[1.0, 0.0]], [1.0], [0.5, 0.5], lam=0.5, rho1=1.0, rho2=1.0)
        with pytest.raises(ValueError, match="negative mass"):
            primal_value([[0.5, -0.1]], p)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        w = rng.uniform(0, 1, (4, 5))
        p = rng.permutation(4)
        q = rng.permutation(5)
        assert entropy(w[p][:, q]) == pytest.approx(entropy(w), rel=1e-14)


class TestGeneralizedKL:
    def test_identity(self):
        z = np.array([0.3, 0.7])
        assert generalized_kl(z, z) == pytest.approx(0.0, abs=1e-15)

    def test_zero_w(self):
        # with w = 0 only the +sum(z) term survives
        assert generalized_kl([0.0, 0.0], [0.3, 0.7]) == pytest.approx(1.0, abs=1e-15)

    def test_swap_example(self):
        # 1*log(1/2) + 2*log(2) - 3 + 3 = log 2
        assert generalized_kl([1.0, 2.0], [2.0, 1.0]) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_zero_reference_raises(self):
        with pytest.raises(ValueError, match="zero reference mass"):
            generalized_kl([0.5, 0.5], [1.0, 0.0])

    def test_negative_w_raises(self):
        with pytest.raises(ValueError, match="negative mass"):
            generalized_kl([-0.5, 0.5], [1.0, 1.0])

    def test_nonnegative_property(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            k = rng.integers(1, 10)
            w = rng.uniform(0, 2, k)
            w[rng.random(k) < 0.2] = 0.0  # exercise the 0 log 0 branch
            z = rng.uniform(0.05, 2, k)
            assert generalized_kl(w, z) >= -1e-12


class TestValidators:
    def test_as_matrix_rejects_vector(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            as_matrix(np.ones(3))

    def test_as_vector_rejects_matrix(self):
        with pytest.raises(ValueError, match="1-dimensional"):
            as_vector(np.ones((2, 2)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError, match="non-finite"):
            as_vector(np.array([np.inf]))
