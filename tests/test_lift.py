import math

import numpy as np
import pytest

from jsrcert.lift import (
    SymMatrix,
    d_lift_matrix,
    kron_power,
    lift_batch,
    lift_coefficient_matrix,
    lift_dimension,
    matrix_metrics,
    multi_index_set,
    unpack_sym,
)
from jsrcert.lmi import quad_form_rows

SQRT2 = math.sqrt(2.0)


class TestMultiIndexSet:
    def test_n2_d2_order_and_count(self):
        idx = multi_index_set(2, 2)
        assert [mi.alpha for mi in idx] == [(2, 0), (1, 1), (0, 2)]
        assert [mi.coeff for mi in idx] == [1, 2, 1]
        assert lift_dimension(2, 2) == 3

    def test_degree_one_is_identity_order(self):
        idx = multi_index_set(2, 1)
        assert [mi.alpha for mi in idx] == [(1, 0), (0, 1)]

    def test_n3_d2_enumerates_all(self):
        idx = multi_index_set(3, 2)
        # Brute-force enumeration of all exponents with sum 2.
        expected = {
            (a, b, 2 - a - b)
            for a in range(3)
            for b in range(3 - a)
        }
        assert {mi.alpha for mi in idx} == expected
        assert len(idx) == 6 == lift_dimension(3, 2)

    def test_order_stable_across_calls(self):
        assert [mi.alpha for mi in multi_index_set(4, 3)] == [
            mi.alpha for mi in multi_index_set(4, 3)
        ]

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            multi_index_set(0, 2)
        with pytest.raises(ValueError):
            multi_index_set(2, 0)


class TestLiftVector:
    def test_axis_vector(self):
        assert np.allclose(lift_batch([1.0, 0.0], 2)[0], [1.0, 0.0, 0.0])

    def test_ones_vector_norm(self):
        lifted = lift_batch([1.0, 1.0], 2)[0]
        assert np.allclose(lifted, [1.0, SQRT2, 1.0])
        assert np.linalg.norm(lifted) == pytest.approx(2.0, rel=1e-12)

    def test_hand_computed_entries(self):
        lifted = lift_batch([2.0, 3.0], 2)[0]
        assert np.allclose(lifted, [4.0, 6.0 * SQRT2, 9.0])

    def test_norm_identity_random(self):
        rng = np.random.default_rng(7)
        for d in (1, 2, 3):
            X = rng.uniform(-2, 2, size=(1000, 3))
            lifted = lift_batch(X, d)
            norms = np.linalg.norm(lifted, axis=1)
            expected = np.linalg.norm(X, axis=1) ** d
            assert np.max(np.abs(norms - expected) / np.maximum(expected, 1e-300)) <= 1e-12

    def test_degree_one_is_identity(self):
        x = np.array([0.3, -1.7, 2.2])
        assert np.array_equal(lift_batch(x, 1)[0], x)


class TestKronPower:
    def test_axis(self):
        assert np.allclose(kron_power([1.0, 0.0], 2), [1, 0, 0, 0])

    def test_ones(self):
        v = kron_power([1.0, 1.0], 2)
        assert np.allclose(v, [1, 1, 1, 1])
        assert np.linalg.norm(v) == pytest.approx(2.0)

    def test_scalar_cube(self):
        assert np.allclose(kron_power([2.0], 3), [8.0])

    def test_norm_identity(self):
        rng = np.random.default_rng(11)
        for k in (1, 2, 3):
            for _ in range(50):
                x = rng.uniform(-2, 2, size=4)
                assert np.linalg.norm(kron_power(x, k)) == pytest.approx(
                    np.linalg.norm(x) ** k, rel=1e-12
                )


class TestLiftMatrix:
    def test_identity_lifts_to_identity(self):
        for n, d in ((2, 2), (2, 3), (3, 2)):
            D = lift_dimension(n, d)
            assert np.allclose(d_lift_matrix(np.eye(n), d), np.eye(D), atol=1e-12)

    def test_diagonal_action(self):
        lifted = d_lift_matrix(np.diag([2.0, 1.0]), 2)
        assert np.allclose(lifted, np.diag([4.0, 2.0, 1.0]), atol=1e-12)

    def test_maps_lift_to_lift_of_image(self):
        A = np.array([[1.0, 0.0], [1.0, 0.0]])
        x = np.array([1.0, 0.0])
        out = d_lift_matrix(A, 2) @ lift_batch(x, 2)[0]
        assert np.allclose(out, [1.0, SQRT2, 1.0])

    def test_degree_one_is_same_matrix(self):
        A = np.arange(9.0).reshape(3, 3)
        assert np.array_equal(d_lift_matrix(A, 1), A)

    def test_homomorphism_random(self):
        rng = np.random.default_rng(3)
        for d in (1, 2, 3):
            for _ in range(30):
                A = rng.uniform(-2, 2, size=(2, 2))
                B = rng.uniform(-2, 2, size=(2, 2))
                x = rng.standard_normal(2)
                x /= np.linalg.norm(x)
                Ad, Bd = d_lift_matrix(A, d), d_lift_matrix(B, d)
                ABd = d_lift_matrix(A @ B, d)
                scale = np.linalg.norm(Ad, 2) * np.linalg.norm(Bd, 2)
                assert np.linalg.norm(ABd - Ad @ Bd, 2) <= 1e-9 * max(scale, 1e-300)
                lhs = Ad @ lift_batch(x, d)[0]
                rhs = lift_batch(A @ x, d)[0]
                assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(np.linalg.norm(rhs), 1e-300)


class TestCoefficientMatrix:
    def test_rows_orthonormal(self):
        for n, d in ((2, 2), (2, 3), (3, 2)):
            C = lift_coefficient_matrix(n, d)
            assert np.allclose(C @ C.T, np.eye(C.shape[0]), atol=1e-12)
            assert np.linalg.norm(C, 2) == pytest.approx(1.0, abs=1e-12)

    def test_relates_kron_power_to_lift(self):
        rng = np.random.default_rng(5)
        for n, d in ((2, 2), (3, 2), (2, 3)):
            C = lift_coefficient_matrix(n, d)
            for _ in range(20):
                x = rng.uniform(-1.5, 1.5, size=n)
                assert np.allclose(C @ kron_power(x, d), lift_batch(x, d)[0], atol=1e-12)


class TestMatrixMetrics:
    def test_identity(self):
        m = matrix_metrics(np.eye(3))
        assert (m.lambda_min, m.lambda_max, m.kappa) == (1.0, 1.0, 1.0)

    def test_diagonal(self):
        assert matrix_metrics(np.diag([1.0, 4.0])).kappa == pytest.approx(2.0)

    def test_two_by_two(self):
        m = matrix_metrics(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert m.lambda_min == pytest.approx(1.0, rel=1e-10)
        assert m.lambda_max == pytest.approx(3.0, rel=1e-10)
        assert m.kappa == pytest.approx(math.sqrt(3.0), rel=1e-10)

    def test_indefinite_reports_infinite_kappa(self):
        m = matrix_metrics(np.diag([-1.0, 2.0]))
        assert math.isinf(m.kappa)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            matrix_metrics(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestSymMatrix:
    def test_packed_storage_roundtrip(self):
        M = np.array([[2.0, 1.0], [1.0, 3.0]])
        S = SymMatrix.from_full(M)
        assert np.array_equal(S.full(), M)
        assert matrix_metrics(S.full()) == matrix_metrics(M)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SymMatrix.from_full(np.array([[1.0, 5.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("D", [2, 3, 6])
    def test_packed_layout_shared_with_lp_rows(self, D):
        # A quadratic form is the LP row of v dotted with the packed shape.
        rng = np.random.default_rng(D)
        A = rng.standard_normal((D, D))
        P = A + A.T
        V = rng.standard_normal((8, D))
        packed = SymMatrix.from_full(P).packed
        assert np.allclose(quad_form_rows(V) @ packed, np.einsum("ij,jk,ik->i", V, P, V),
                           rtol=1e-12, atol=1e-12)
        assert np.array_equal(unpack_sym(packed, D), P)
