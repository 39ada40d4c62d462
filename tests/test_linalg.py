import numpy as np
import pytest

from avesolve import (
    ConvergenceFailure,
    DimensionMismatch,
    DomainError,
    NotPositiveDefinite,
    SparseSpdMatrix,
    estimate_inv_norm,
    factorize,
    gen_lattice,
    matvec,
)
from conftest import dense_inv_norm, random_spd


def tridiag(c, d, n):
    return SparseSpdMatrix.from_dense(
        np.diag(np.full(n, float(d)))
        + np.diag(np.full(n - 1, float(c)), 1)
        + np.diag(np.full(n - 1, float(c)), -1)
    )


class TestSparseSpdMatrix:
    def test_rejects_asymmetric_values(self):
        with pytest.raises(DomainError):
            SparseSpdMatrix.from_dense([[4.0, 1.0], [2.0, 4.0]])

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(DomainError):
            SparseSpdMatrix.from_dense([[0.0, 1.0], [1.0, 4.0]])

    def test_rejects_bad_row_ptr(self):
        with pytest.raises(DomainError):
            SparseSpdMatrix(2, np.array([0, 1]), np.array([0, 1]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize(
        "row_ptr, col_idx, row",
        [
            ([0, 1, 3, 4], [0, 1, 1, 2], 1),  # repeated column
            ([0, 2, 4, 5], [0, 1, 1, 0, 2], 1),  # descending columns
            ([0, 1, 1, 3], [0, 2, 2], 2),  # after an empty row
        ],
    )
    def test_rejects_unsorted_columns_naming_first_row(self, row_ptr, col_idx, row):
        values = np.ones(len(col_idx))
        with pytest.raises(DomainError, match=f"not strictly increasing in row {row}$"):
            SparseSpdMatrix(3, np.array(row_ptr), np.array(col_idx), values)

    def test_holds_validated_csr(self):
        A = gen_lattice(3).A
        assert A.csr is A.csr
        assert np.array_equal(A.csr.toarray(), A.to_dense())

    def test_round_trips_dense(self):
        A = np.array([[4.0, 1.0], [1.0, 4.0]])
        assert np.array_equal(SparseSpdMatrix.from_dense(A).to_dense(), A)


class TestMatvec:
    def test_identity(self):
        A = SparseSpdMatrix.from_dense(np.eye(2) * 1.0)
        assert np.array_equal(matvec(A, [-1.0, 1.0]), [-1.0, 1.0])

    def test_tridiagonal_row_sums(self):
        A = tridiag(-1, 8, 3)
        assert np.array_equal(matvec(A, np.ones(3)), [7.0, 6.0, 7.0])

    def test_lattice_row_sums(self):
        A = gen_lattice(2).A
        assert np.array_equal(matvec(A, np.ones(4)), np.full(4, 6.0))

    def test_block_rows_match_vectors(self):
        A = gen_lattice(4).A
        X = np.random.default_rng(1).standard_normal((5, A.n))
        AX = matvec(A, X)
        for x, ax in zip(X, AX):
            assert np.array_equal(matvec(A, x), ax)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            matvec(tridiag(-1, 8, 3), np.ones(4))

    def test_linearity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = rng.integers(2, 30)
            A = SparseSpdMatrix.from_dense(random_spd(rng, n))
            x, y = rng.standard_normal(n), rng.standard_normal(n)
            a, b = rng.standard_normal(2)
            lhs = matvec(A, a * x + b * y)
            rhs = a * matvec(A, x) + b * matvec(A, y)
            assert np.linalg.norm(lhs - rhs) <= 1e-13 * max(np.linalg.norm(rhs), 1.0)


class TestFactorize:
    def test_diagonal(self):
        f = factorize(SparseSpdMatrix.from_dense(np.diag([4.0, 9.0])))
        assert np.allclose(f.solve([4.0, 9.0]), [1.0, 1.0], atol=1e-14)

    def test_two_by_two(self):
        f = factorize(SparseSpdMatrix.from_dense([[4.0, 1.0], [1.0, 4.0]]))
        assert np.allclose(f.solve([5.0, 5.0]), [1.0, 1.0], atol=1e-14)

    def test_not_positive_definite_names_pivot(self):
        A = SparseSpdMatrix.from_dense([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefinite) as exc:
            factorize(A)
        assert exc.value.pivot_index == 1

    def test_lattice_rhs_residual(self):
        problem = gen_lattice(8)
        f = factorize(problem.A)
        z = f.solve(problem.b)
        res = np.linalg.norm(matvec(problem.A, z) - problem.b)
        assert res <= 1e-12 * np.linalg.norm(problem.b)

    def test_solve_dimension_mismatch(self):
        f = factorize(SparseSpdMatrix.from_dense(np.diag([2.0, 4.0])))
        with pytest.raises(DimensionMismatch):
            f.solve(np.ones(3))

    def test_block_rows_match_vectors(self):
        problem = gen_lattice(4)
        f = factorize(problem.A)
        R = np.random.default_rng(2).standard_normal((5, problem.n))
        Z = f.solve(R)
        assert Z.shape == R.shape
        for r, z in zip(R, Z):
            assert np.array_equal(f.solve(r), z)
        with pytest.raises(DimensionMismatch):
            f.solve(np.ones((2, problem.n + 1)))

    def test_round_trip_random_spd(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 51))
            A = SparseSpdMatrix.from_dense(random_spd(rng, n))
            f = factorize(A)
            r = rng.standard_normal(n)
            z = f.solve(r)
            assert np.linalg.norm(matvec(A, z) - r) <= 1e-12 * np.linalg.norm(r)


class TestEstimateInvNorm:
    def test_identity(self):
        A = SparseSpdMatrix.from_dense(np.eye(5) * 1.0)
        assert estimate_inv_norm(A) == pytest.approx(1.0, abs=1e-10)

    def test_lattice_8(self):
        assert estimate_inv_norm(gen_lattice(8).A) == pytest.approx(0.2358, abs=5e-4)

    def test_rejects_bad_tol(self):
        with pytest.raises(DomainError):
            estimate_inv_norm(gen_lattice(2).A, tol=2.0)

    def test_reuses_given_factor(self):
        A = gen_lattice(8).A
        assert estimate_inv_norm(A, f=factorize(A)) == estimate_inv_norm(A)
        with pytest.raises(DimensionMismatch):
            estimate_inv_norm(A, f=factorize(gen_lattice(2).A))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        matrices = [gen_lattice(m).A for m in (2, 3, 8, 12)]
        matrices += [SparseSpdMatrix.from_dense(random_spd(rng, n)) for n in (5, 40, 120)]
        for A in matrices:
            assert A.n <= 200
            nu = estimate_inv_norm(A)
            assert abs(nu - dense_inv_norm(A)) <= 1e-6 * dense_inv_norm(A)
