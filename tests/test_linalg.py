import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import avesolve
from avesolve import (
    ConvergenceFailure,
    DimensionMismatch,
    DomainError,
    NotPositiveDefinite,
    SparseSpdMatrix,
    SymmetryError,
    estimate_inv_norm,
    factorize,
    gen_lattice,
    linalg,
    matvec,
)
from conftest import dense_inv_norm, random_spd, rotated_spd


def tridiag(c, d, n):
    return SparseSpdMatrix.from_dense(
        np.diag(np.full(n, float(d)))
        + np.diag(np.full(n - 1, float(c)), 1)
        + np.diag(np.full(n - 1, float(c)), -1)
    )


def lattice_laplacian(m):
    """Dense graph Laplacian of the m x m lattice pattern: PSD and singular."""
    L = gen_lattice(m).A.to_dense()
    np.fill_diagonal(L, 0.0)
    np.fill_diagonal(L, -L.sum(axis=1))
    return L


@pytest.fixture
def factorize_calls(monkeypatch):
    """Count the calls of linalg.factorize: one list entry per call."""
    calls = []

    def counted(A):
        calls.append(A.n)
        return factorize(A)

    monkeypatch.setattr(linalg, "factorize", counted)
    return calls


class TestSparseSpdMatrix:
    def test_rejects_asymmetric_values(self):
        with pytest.raises(DomainError):
            SparseSpdMatrix.from_dense([[4.0, 1.0], [2.0, 4.0]])

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(DomainError):
            SparseSpdMatrix.from_dense([[0.0, 1.0], [1.0, 4.0]])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, value):
        with pytest.raises(DomainError, match="finite"):
            SparseSpdMatrix.from_dense([[value, 0.0], [0.0, 1.0]])
        with pytest.raises(DomainError, match="finite"):
            SparseSpdMatrix.from_dense([[4.0, value], [value, 4.0]])

    @pytest.mark.filterwarnings("error")
    def test_rejects_complex_values(self):
        # A cast to float64 would keep only the real part, diag(4, 4), with no more than a ComplexWarning.
        with pytest.raises(DomainError, match="real, not complex"):
            SparseSpdMatrix.from_dense([[4 + 1j, 0], [0, 4]])
        with pytest.raises(DomainError, match="real, not complex"):
            SparseSpdMatrix.from_scipy(sp.csr_matrix(np.diag([4 + 1j, 4])))
        with pytest.raises(DomainError, match="real, not complex"):
            SparseSpdMatrix(2, np.array([0, 1, 2]), np.array([0, 1]), np.array([4 + 0j, 4]))

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

    def test_from_scipy_leaves_argument_untouched(self):
        # Unsorted columns in every row and an explicit zero at (2, 0): canonicalizing them in place
        # would sort M's indices and drop M's zero.
        M = sp.csr_matrix(([-1.0, 4.0, -1.0, -1.0, 4.0, -1.0, 4.0, 0.0], [1, 0, 2, 0, 1, 1, 2, 0], [0, 2, 5, 8]),
                          shape=(3, 3))
        before = [a.tobytes() for a in (M.indptr, M.indices, M.data)]
        A = SparseSpdMatrix.from_scipy(M)
        assert [a.tobytes() for a in (M.indptr, M.indices, M.data)] == before
        assert np.array_equal(A.to_dense(), M.toarray())
        assert A.csr.nnz == 7

    def test_later_edit_of_scipy_argument_does_not_reach_matrix(self):
        M = sp.diags([-np.ones(4), np.full(5, 4.0), -np.ones(4)], [-1, 0, 1]).tocsr()
        A = SparseSpdMatrix.from_scipy(M)
        dense = A.to_dense()
        M[0, 1] = -3.0
        assert np.array_equal(A.to_dense(), dense)
        f = factorize(A)
        assert f._band is not None
        x = np.arange(1.0, 6.0)
        assert np.linalg.norm(f.solve(matvec(A, x)) - x) <= 1e-14

    def test_later_edit_of_constructor_values_does_not_reach_matrix(self):
        values = np.array([4.0, -1.0, -1.0, 4.0])
        A = SparseSpdMatrix(2, np.array([0, 2, 4]), np.array([0, 1, 0, 1]), values)
        values[1] = -3.0
        assert np.array_equal(A.to_dense(), [[4.0, -1.0], [-1.0, 4.0]])

    @pytest.mark.parametrize("m", [16, 256])
    def test_entries_held_once_in_csr(self, m):
        # Lattice 16 takes the band branch of factorize, lattice 256 SuperLU, on the same int32 indices.
        problem = gen_lattice(m)
        A = problem.A
        shifted = linalg._shifted(A, 1.0)
        for name, csr_name in [("row_ptr", "indptr"), ("col_idx", "indices"), ("values", "data")]:
            assert np.shares_memory(getattr(A, name), getattr(A.csr, csr_name))
            assert np.shares_memory(getattr(shifted, name), getattr(shifted.csr, csr_name))
        nnz_sized = [name for name, v in vars(A).items() if isinstance(v, np.ndarray) and len(v) == A.csr.nnz]
        assert sorted(nnz_sized) == ["col_idx", "values"]
        f = factorize(A)
        assert (f._band is None) == (m == 256)
        z = f.solve(problem.b)
        assert np.linalg.norm(matvec(A, z) - problem.b) <= 1e-12 * np.linalg.norm(problem.b)

    @pytest.mark.parametrize(
        "n, row_ptr, col_idx",
        [
            (2, [0, 1, 2], [0.0, 1.9]),  # a cast would truncate the columns to [0, 1]
            (2, [0.0, 1.0, 2.0], [0, 1]),
            (2, [0, 1, 2], [False, True]),
            (2.0, [0, 1, 2], [0, 1]),
            ("2", [0, 1, 2], [0, 1]),
        ],
    )
    def test_rejects_non_integer_indices_and_dimension(self, n, row_ptr, col_idx):
        with pytest.raises(DomainError, match="integer"):
            SparseSpdMatrix(n, row_ptr, col_idx, [4.0, 4.0])

    def test_accepts_unsigned_indices_and_numpy_dimension(self):
        A = SparseSpdMatrix(np.int64(2), np.array([0, 1, 2], np.uint32), np.array([0, 1], np.uint64), [4.0, 4.0])
        assert type(A.n) is int and A.n == 2
        assert np.array_equal(A.to_dense(), np.diag([4.0, 4.0]))
        # np.diff of unsigned [0, 2, 1, 2] would wrap to 2**64 - 1 instead of going negative.
        with pytest.raises(DomainError, match="nondecreasing"):
            SparseSpdMatrix(3, np.array([0, 2, 1, 2], np.uint64), np.array([0, 1], np.uint64), [4.0, 4.0])

    @pytest.mark.parametrize(
        "row_ptr, col_idx, values, symmetric",
        [
            ([0, 2, 3], [0, 1, 1], [4.0, 0.0, 4.0], True),  # explicit zero at (0, 1), (1, 0) absent
            ([0, 2, 4], [0, 1, 0, 1], [4.0, 0.0, -0.0, 4.0], True),  # +0 mirrors -0
            ([0, 2, 4], [0, 1, 0, 1], [4.0, 0.1, np.nextafter(0.1, 1.0), 4.0], False),  # one ulp apart
            ([0, 2, 3], [0, 1, 1], [4.0, 1e-300, 4.0], False),  # (1, 0) absent
        ],
    )
    def test_symmetry_verdict_on_explicit_zeros_and_ulps(self, row_ptr, col_idx, values, symmetric):
        args = (2, np.array(row_ptr, np.int32), np.array(col_idx, np.int32), np.array(values))
        if not symmetric:
            with pytest.raises(SymmetryError, match="^stored pattern/values are not symmetric$"):
                SparseSpdMatrix(*args)
            return
        A = SparseSpdMatrix(*args)
        assert [a.tobytes() for a in (A.row_ptr, A.col_idx, A.values)] == [a.tobytes() for a in args[1:]]


@st.composite
def canonical_inputs(draw):
    """Canonical CSR arrays (int32 indices) of a small matrix with a positive diagonal: a symmetric
    pattern and values, to which up to two asymmetries are applied. An asymmetry is a stored explicit
    zero with no mirror, a value moved by one ulp, or an off-diagonal entry whose mirror is dropped."""
    n = draw(st.integers(1, 6))
    value = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-4.0, 4.0, allow_subnormal=True))
    stored = np.triu(draw(hnp.arrays(bool, (n, n))), 1)
    M = np.triu(draw(hnp.arrays(np.float64, (n, n), elements=value)), 1)
    stored, M = stored | stored.T, M + M.T  # every zero is +0.0 here; some turn -0.0, facing a +0.0 mirror
    M[stored & (M == 0) & draw(hnp.arrays(bool, (n, n)))] = -0.0
    np.fill_diagonal(stored, True)
    np.fill_diagonal(M, draw(hnp.arrays(np.float64, n, elements=st.floats(0.5, 8.0))))
    for _ in range(draw(st.integers(0, 2)) if n > 1 else 0):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["zero", "ulp", "drop"]))
        if kind == "zero" and not stored[i, j]:
            stored[i, j], M[i, j] = True, 0.0
        elif kind == "ulp" and i != j and stored[i, j]:
            M[i, j] = np.nextafter(M[i, j], draw(st.sampled_from([-np.inf, np.inf])))
        elif kind == "drop" and i != j:
            stored[i, j] = False
    row_ptr = np.zeros(n + 1, np.int32)
    np.cumsum(stored.sum(axis=1), out=row_ptr[1:])
    return n, row_ptr, np.nonzero(stored)[1].astype(np.int32), M[stored]


@settings(max_examples=400, deadline=None)
@given(canonical_inputs())
def test_symmetry_verdict_matches_exact_rule(args):
    n, row_ptr, col_idx, values = args
    ref = sp.csr_matrix((values, col_idx, row_ptr), shape=(n, n))
    if (ref != ref.T).nnz != 0:
        with pytest.raises(SymmetryError, match="^stored pattern/values are not symmetric$"):
            SparseSpdMatrix(n, row_ptr, col_idx, values)
    else:
        A = SparseSpdMatrix(n, row_ptr, col_idx, values)
        assert [a.tobytes() for a in (A.row_ptr, A.col_idx, A.values)] == [a.tobytes() for a in args[1:]]


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

    @pytest.mark.filterwarnings("error")
    def test_rejects_complex(self):
        # A cast to float64 kept the real part, [8, -1, -1, 0], with no more than a ComplexWarning.
        A = gen_lattice(2).A
        with pytest.raises(DomainError, match="vector must be real, not complex"):
            matvec(A, np.array([1 + 2j, 0, 0, 0]))
        with pytest.raises(DomainError, match="vector must be real, not complex"):
            matvec(A, np.ones((2, 4)) * 1j)

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

    @pytest.mark.parametrize(
        "dense, lambda_min",
        [
            # Lattice 8 shifted down: positive diagonal, yet indefinite.
            (gen_lattice(8).A.to_dense() - 4.93 * np.eye(64), -0.69),
            (np.array([[1.0, 1.0], [1.0, 1.0]]), 0.0),
            # Singular, but rounding leaves the last band pivot tiny, not zero.
            (lattice_laplacian(6), 0.0),
        ],
        ids=["lattice8_shifted", "singular", "lattice6_laplacian"],
    )
    def test_rejects_non_spd_with_pivot_in_range(self, dense, lambda_min):
        assert np.linalg.eigvalsh(dense)[0] == pytest.approx(lambda_min, abs=5e-3)
        with pytest.raises(NotPositiveDefinite) as exc:
            factorize(SparseSpdMatrix.from_dense(dense))
        assert 0 <= exc.value.pivot_index < len(dense)

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

    @pytest.mark.filterwarnings("error")
    def test_solve_rejects_complex(self):
        f = factorize(gen_lattice(4).A)
        with pytest.raises(DomainError, match="right-hand side must be real, not complex"):
            f.solve(np.ones(16) + 1j)
        with pytest.raises(DomainError, match="right-hand side must be real, not complex"):
            f.solve(np.ones((2, 16), dtype=complex))

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

    def test_leaves_matrix_untouched(self):
        # The band factor is formed in an array of its own; SuperLU reads A's own arrays as its csc.
        A = gen_lattice(8).A
        before = [a.tobytes() for a in (A.row_ptr, A.col_idx, A.values)]
        factorize(A).solve(np.ones(A.n))
        assert [a.tobytes() for a in (A.row_ptr, A.col_idx, A.values)] == before

    def test_round_trip_random_spd(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 51))
            A = SparseSpdMatrix.from_dense(random_spd(rng, n))
            f = factorize(A)
            r = rng.standard_normal(n)
            z = f.solve(r)
            assert np.linalg.norm(matvec(A, z) - r) <= 1e-12 * np.linalg.norm(r)


@pytest.mark.usefixtures("sparse_branch")
class TestFactorizeSparse(TestFactorize):
    """Every TestFactorize case again, on the SuperLU branch of factorize."""

    def test_not_positive_definite_names_pivot(self):
        # SuperLU picks which column to eliminate first; the second pivot,
        # 1 - 4 = -3 either way, is the one that fails.
        with pytest.raises(NotPositiveDefinite) as exc:
            factorize(SparseSpdMatrix.from_dense([[1.0, 2.0], [2.0, 1.0]]))
        assert exc.value.pivot_index in (0, 1)

    def test_takes_superlu_branch(self):
        f = factorize(gen_lattice(4).A)
        assert f._band is None and f._lu is not None

    @pytest.mark.parametrize("shift, spd", [(4.5, False), (4.0, True), (3.9, True)])
    def test_spd_check_across_many_panels(self, shift, spd, monkeypatch):
        # n = 4096 spans about a thousand panels; every diagonal entry stays positive (8 - shift).
        # lambda_min is about 4.0046 - shift: -0.5 (rejected), +4.7e-3 or +0.1 (factorized). Only
        # shift 3.9 leaves A diagonally dominant (Gershgorin bound 0.1); the others read the pivots back.
        read_backs = []
        first_bad_pivot = linalg._first_bad_pivot

        def counted(lu, floor):
            read_backs.append(lu)
            return first_bad_pivot(lu, floor)

        monkeypatch.setattr(linalg, "_first_bad_pivot", counted)
        A = SparseSpdMatrix.from_scipy(gen_lattice(64).A.csr - shift * sp.identity(4096))
        if spd:
            r = np.arange(1.0, A.n + 1)
            z = factorize(A).solve(r)
            assert np.linalg.norm(matvec(A, z) - r) <= 1e-12 * np.linalg.norm(r)
        else:
            with pytest.raises(NotPositiveDefinite) as exc:
                factorize(A)
            assert 0 <= exc.value.pivot_index < A.n
        assert bool(read_backs) == (shift >= 4.0)


def _permuted_lattice16():
    """Lattice 16 under a seeded random symmetric permutation."""
    perm = np.random.default_rng(16).permutation(256)
    return SparseSpdMatrix.from_scipy(gen_lattice(16).A.csr[perm][:, perm])


class TestOrderedBand:
    def test_permuted_lattice_reorders_and_solves(self):
        A = _permuted_lattice16()
        f = factorize(A)
        assert f._band is not None and f._order is not None
        assert len(f._band) < 32  # the band of lattice 16 (17 rows), not the permuted one's ~255
        R = np.random.default_rng(3).standard_normal((5, A.n))
        Z = f.solve(R)
        for r, z in zip(R, Z):
            assert np.array_equal(f.solve(r), z)
            assert np.linalg.norm(matvec(A, z) - r) <= 1e-12 * np.linalg.norm(r)

    def test_storage_limit_applies_to_ordered_band(self, tref200b, monkeypatch):
        # Trefethen_200b: its own band is 129 x 199 doubles, its reverse Cuthill-McKee band 101 x 199.
        assert linalg._band_order(tref200b)[0] == 100
        monkeypatch.setattr(linalg, "_BAND_STORAGE_LIMIT", 115 * 199)
        f = factorize(tref200b)
        assert f._band is not None and f._band.shape == (101, 199)
        r = np.arange(1.0, 200.0)
        assert np.linalg.norm(matvec(tref200b, f.solve(r)) - r) <= 1e-12 * np.linalg.norm(r)

    def test_not_positive_definite_names_pivot_in_own_numbering(self):
        # A diagonal entry of 0.01 in a row with a neighbour earlier in the order makes that row's pivot
        # 0.01 - (at least 1/8) < 0, while every earlier pivot is unchanged and positive.
        A = _permuted_lattice16()
        order = linalg._band_order(A)[1]
        position = int(np.flatnonzero(order == 0)[0])
        assert position != 0 and np.isin(A.col_idx[A.row_ptr[0]:A.row_ptr[1]], order[:position]).any()
        dense = A.to_dense()
        dense[0, 0] = 0.01
        with pytest.raises(NotPositiveDefinite) as exc:
            factorize(SparseSpdMatrix.from_dense(dense))
        assert exc.value.pivot_index == 0

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8, 16, 32, 64, 128, 256])
    def test_lattices_keep_their_order(self, m):
        A = gen_lattice(m).A
        assert linalg._band_order(A) == (0 if m == 1 else m, None)


@pytest.fixture
def no_read_back(monkeypatch):
    """Fail every read-back of SuperLU's pivots, which a diagonally dominant matrix must not need."""

    def fail(lu, floor):
        raise AssertionError("SuperLU pivots read back")

    monkeypatch.setattr(linalg, "_first_bad_pivot", fail)


@pytest.mark.usefixtures("no_read_back")
class TestDominanceCertificate:
    def test_lattice_factorizes_and_solves(self, sparse_branch):
        problem = gen_lattice(16)
        f = factorize(problem.A)
        assert f._lu is not None
        z = f.solve(problem.b)
        assert np.linalg.norm(matvec(problem.A, z) - problem.b) <= 1e-12 * np.linalg.norm(problem.b)

    def test_nu_from_one_certified_factorization(self, request, factorize_calls):
        # The first shifted factor, A - (sigma0 - margin)*I, is dominant too.
        A = gen_lattice(16).A
        band_nu = estimate_inv_norm(A)
        factorize_calls.clear()
        request.getfixturevalue("sparse_branch")
        nu = estimate_inv_norm(A)
        assert len(factorize_calls) == 1
        assert abs(nu - band_nu) <= 8 * np.spacing(band_nu)


def _dominance_scaled(M, delta):
    """M symmetrized, with (1 + delta) times each row's off-diagonal absolute sum (1 if 0) on the diagonal."""
    S = (M + M.T) / 2
    np.fill_diagonal(S, 0.0)
    r = np.abs(S).sum(axis=1)
    np.fill_diagonal(S, np.where(r > 0, (1 + delta) * r, 1.0))
    return S


near_dominant = st.integers(2, 12).flatmap(
    lambda n: st.tuples(
        hnp.arrays(np.float64, (n, n),
                   elements=st.one_of(st.just(0.0), st.floats(0.01, 1.0), st.floats(-1.0, -0.01))),
        st.floats(-0.5, 0.5),
    )
).map(lambda args: _dominance_scaled(*args))


@settings(max_examples=150, deadline=None)
@given(near_dominant)
def test_superlu_spd_check_near_dominance_threshold(dense):
    # delta > 0 gives dominant matrices, most of them certified without a pivot read-back; delta <= 0
    # gives matrices that are SPD or not, which only the read-back can tell.
    lam = np.linalg.eigvalsh(dense)
    norm = np.abs(lam).max()
    assume(abs(lam[0]) > 1e-8 * norm)
    A = SparseSpdMatrix.from_dense(dense)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_BAND_STORAGE_LIMIT", 0)
        if lam[0] < 0:
            with pytest.raises(NotPositiveDefinite) as exc:
                factorize(A)
            assert 0 <= exc.value.pivot_index < A.n
        else:
            r = np.arange(1.0, A.n + 1)
            z = factorize(A).solve(r)
            # Backward error: lambda_min may be as small as 1e-8 ||A||, so z itself may be far off.
            assert np.linalg.norm(matvec(A, z) - r) <= 1e-10 * norm * np.linalg.norm(z)


def test_panel_size_within_superlu_statistics():
    # SuperLU sizes its panel statistics by its default widths, at most 20 columns; a wider panel
    # overruns them and corrupts the heap (a lattice 256 factorization at 32 died with SIGSEGV).
    assert type(linalg._PANEL_SIZE) is int and 1 <= linalg._PANEL_SIZE <= 20


def _symmetric_positive_diagonal(M):
    S = (M + M.T) / 2
    np.fill_diagonal(S, np.abs(np.diag(S)) + 0.05)
    return S


small_symmetric = st.integers(2, 8).flatmap(
    lambda n: hnp.arrays(np.float64, (n, n), elements=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)))
).map(_symmetric_positive_diagonal)


@settings(max_examples=300, deadline=None)
@given(small_symmetric)
def test_both_branches_agree_on_spd_and_reject_indefinite(dense):
    eig = np.linalg.eigvalsh(dense)  # eig[-1] > 0: the diagonal is positive
    spd = eig[0] > 1e-3 * eig[-1]
    assume(spd or eig[0] < -1e-8 * eig[-1])
    A = SparseSpdMatrix.from_dense(dense)
    r = np.arange(1.0, A.n + 1)
    solves = []
    for limit in (linalg._BAND_STORAGE_LIMIT, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_BAND_STORAGE_LIMIT", limit)
            if spd:
                solves.append(factorize(A).solve(r))
            else:
                with pytest.raises(NotPositiveDefinite) as exc:
                    factorize(A)
                assert 0 <= exc.value.pivot_index < A.n
    if spd:
        band, lu = solves
        assert np.linalg.norm(band - lu) <= 1e-10 * np.linalg.norm(band)


class TestEstimateInvNorm:
    def test_identity(self):
        A = SparseSpdMatrix.from_dense(np.eye(5) * 1.0)
        assert estimate_inv_norm(A) == pytest.approx(1.0, abs=1e-10)

    def test_lattice_8(self):
        assert estimate_inv_norm(gen_lattice(8).A) == pytest.approx(0.2358, abs=5e-4)

    def test_reuses_given_factor(self, tref20b, factorize_calls):
        # Lattice 8 has a positive Gershgorin bound and starts shifted, so f
        # goes unused; Trefethen_20b's bound is negative, so f is A's factor.
        for A, reused in ((gen_lattice(8).A, 0), (tref20b, 1)):
            nu = estimate_inv_norm(A, f=factorize(A))
            with_f = len(factorize_calls)
            if reused:
                assert with_f == 0  # f alone carries Trefethen_20b's estimate
            assert nu == estimate_inv_norm(A)
            assert len(factorize_calls) - with_f == with_f + reused
            factorize_calls.clear()
        with pytest.raises(DimensionMismatch):
            estimate_inv_norm(A, f=factorize(gen_lattice(2).A))

    @pytest.mark.parametrize("m", [8, 32])
    def test_lattice_factorizes_once(self, m, factorize_calls):
        estimate_inv_norm(gen_lattice(m).A)
        assert len(factorize_calls) == 1

    @pytest.mark.parametrize("name", ["tref20b", "tref200b"], ids=["20b", "200b"])
    def test_trefethen_factorizes_once(self, name, request, factorize_calls):
        # lambda_1/lambda_2 is just above 1/2, which made inverse power iteration restart.
        A = request.getfixturevalue(name)
        assert estimate_inv_norm(A) == pytest.approx(dense_inv_norm(A), rel=1e-10)
        assert len(factorize_calls) == 1

    def test_clustered_pair_restarts_and_converges(self, factorize_calls):
        # A rotated diag(1, 1.001, 2, ..., 10): its Gershgorin bound is negative,
        # so A itself is factorized, and the pair 1, 1.001 contracts too slowly on
        # that factor; the estimate must restart and still find lambda_1, not lambda_2.
        rng = np.random.default_rng(1)
        Q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        M = (Q * np.concatenate([[1.0, 1.001], np.linspace(2.0, 10.0, 18)])) @ Q.T
        M = (M + M.T) / 2
        off = np.abs(M).sum(axis=1) - np.abs(np.diag(M))
        assert np.min(np.diag(M) - off) <= 0
        A = SparseSpdMatrix.from_dense(M)
        assert estimate_inv_norm(A) == pytest.approx(dense_inv_norm(A), rel=1e-8)
        assert len(factorize_calls) >= 2

    def test_wide_spectrum(self, monkeypatch):
        # Eigenvalues 1 ... 1e4: a Ritz vector keeps a sliver along the largest
        # eigenvectors that dominates its residual, so the certified vector must
        # be the solve's output, whose slivers are damped by lambda_1/lambda.
        A = rotated_spd(np.logspace(0, 4, 12))
        solves = []
        solve = linalg.FactorHandle.solve

        def counted(f, r):
            solves.append(r)
            return solve(f, r)

        monkeypatch.setattr(linalg.FactorHandle, "solve", counted)
        assert estimate_inv_norm(A) == pytest.approx(dense_inv_norm(A), rel=1e-8)
        assert len(solves) <= 50

    def test_certificate_below_rounding_floor_fails_fast(self, factorize_calls):
        # lambda_max/lambda_min = 1e9: eps * 1e9 is above tol = 1e-8, so no vector
        # certifies and each stalled sweep refactorizes; the estimate must give up
        # after a few of them.
        with pytest.raises(ConvergenceFailure, match="rounding floor"):
            estimate_inv_norm(rotated_spd(np.logspace(0, 9, 30)))
        assert len(factorize_calls) <= 16

    def test_trefethen_200b_factorizes_at_most_twice(self, tref200b, factorize_calls):
        assert estimate_inv_norm(tref200b) == pytest.approx(dense_inv_norm(tref200b), rel=1e-10)
        assert len(factorize_calls) <= 2

    def test_shift_at_least_diagonal_entry_backs_off(self):
        # blockdiag([1], T + c I), T = tridiag(-1, 2, -1) of order 30, with
        # lambda_min(T + c I) = 1.001: a restart shift just below 1.001 makes
        # the first diagonal entry non-positive, which must count as not SPD.
        T = 2 * np.eye(30) - np.eye(30, k=1) - np.eye(30, k=-1)
        M = np.zeros((31, 31))
        M[0, 0] = 1.0
        M[1:, 1:] = T + (1.001 - np.linalg.eigvalsh(T)[0]) * np.eye(30)
        assert estimate_inv_norm(SparseSpdMatrix.from_dense(M)) == pytest.approx(1.0, rel=1e-12)

    def test_persymmetric_antisymmetric_eigenvector(self):
        # The minimal eigenvector of 20 * tridiag(1, 2, 1) is antisymmetric,
        # orthogonal to an all-ones start.
        A = SparseSpdMatrix.from_dense(20.0 * tridiag(1, 2, 10).to_dense())
        assert estimate_inv_norm(A) == pytest.approx(dense_inv_norm(A), rel=1e-6)

    def test_rejects_singular_to_working_precision(self, factorize_calls):
        with pytest.raises(NotPositiveDefinite):
            estimate_inv_norm(SparseSpdMatrix.from_dense(lattice_laplacian(6)))
        assert len(factorize_calls) == 1

    @pytest.mark.parametrize("s", [1e-300, 1e-200, 1e-160, 1e200])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diagonal_at_extreme_scale(self, s):
        # At these scales a squared component of z = (A - sigma*I)^{-1} v or of
        # the residual leaves the float range; the norms must not. A first shift
        # that left a subnormal diagonal entry made a 0/0 in the basis at 1e-300.
        A = SparseSpdMatrix.from_dense(np.diag([s, 2 * s]))
        assert estimate_inv_norm(A) == pytest.approx(1 / s, rel=1e-12)

    @pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
    def test_lattice_scaled_by_power_of_two(self, k):
        # nu(2^k A) = 2^-k nu(A), also where the squares of A's scale leave the float range.
        A = gen_lattice(8).A
        scaled = SparseSpdMatrix(A.n, A.row_ptr, A.col_idx, np.ldexp(A.values, k))
        assert estimate_inv_norm(scaled) == pytest.approx(np.ldexp(estimate_inv_norm(A), -k), rel=1e-12)

    def test_subnormal_lambda_min_fails_instead_of_inf(self, factorize_calls):
        # The shift 1e-310 is subnormal, so 1e-15 of it underflows to 0 and the
        # back-off margin must still move; 1/1e-310 overflows, which must not pass as nu.
        with pytest.raises(DomainError, match="overflows"):
            estimate_inv_norm(SparseSpdMatrix.from_dense(np.diag([1e-310, 2e-310])))
        assert len(factorize_calls) == 1

    def test_matches_dense_oracle(self, tref20b):
        rng = np.random.default_rng(3)
        matrices = [gen_lattice(m).A for m in (2, 3, 8, 12)] + [tref20b]
        matrices += [SparseSpdMatrix.from_dense(random_spd(rng, n)) for n in (5, 40, 120)]
        for A in matrices:
            assert A.n <= 200
            nu = estimate_inv_norm(A)
            assert abs(nu - dense_inv_norm(A)) <= 1e-6 * dense_inv_norm(A)


@pytest.mark.usefixtures("sparse_branch")
class TestEstimateInvNormSparse(TestEstimateInvNorm):
    """Every TestEstimateInvNorm case again, with every factorization on the SuperLU branch."""


@pytest.mark.parametrize("m, superlu", [(8, False), (32, False), (128, False), (256, False),
                                        (8, True), (32, True), (128, True)])
def test_lattice_nu_closed_form(m, superlu, request):
    """The lattice matrix is I (x) tridiag(-1, 8, -1) + tridiag(-1, 0, -1) (x) I, so
    lambda_min = 8 - 4 cos(pi / (m + 1)). Lattice 256 already takes the SuperLU branch."""
    if superlu:
        request.getfixturevalue("sparse_branch")
    nu = estimate_inv_norm(gen_lattice(m).A)
    assert nu == pytest.approx(1.0 / (8.0 - 4.0 * np.cos(np.pi / (m + 1))), rel=1e-7)


def _spd_of_kind(kind, M, d):
    """An SPD matrix of the given kind, built from a square M and a vector d."""
    S = (M + M.T) / 2
    if kind == "diagonal":
        return np.diag(0.1 + np.abs(d))
    if kind == "dominant":
        np.fill_diagonal(S, 0.0)
        return S + np.diag(np.abs(S).sum(axis=1) + 0.1 + np.abs(d))
    if kind == "persymmetric":
        S = (S + S[::-1, ::-1]) / 2
    eig = np.linalg.eigvalsh(S)
    return S + (0.01 * (eig[-1] - eig[0]) + 0.1 - eig[0]) * np.eye(len(S))


random_spd_kinds = st.tuples(
    st.sampled_from(["general", "dominant", "persymmetric", "diagonal"]), st.integers(2, 30)
).flatmap(
    lambda kn: st.tuples(
        st.just(kn[0]),
        hnp.arrays(np.float64, (kn[1], kn[1]), elements=st.one_of(st.just(0.0), st.floats(-1.0, 1.0))),
        hnp.arrays(np.float64, kn[1], elements=st.floats(-1.0, 1.0)),
    )
).map(lambda args: _spd_of_kind(*args))


def _start_blind_matrix():
    """11 x 11, with the eigenvector e_0 + e_9 - e_4 - e_5 of lambda_min orthogonal to v_i = i."""
    M = np.ones((11, 11))
    M[0, 9] = M[4, 5] = 0.0
    return _spd_of_kind("general", M, 0)


@settings(max_examples=200, deadline=None)
@given(random_spd_kinds)
@example(_start_blind_matrix())
def test_estimate_inv_norm_matches_eigvalsh(dense):
    A = SparseSpdMatrix.from_dense(dense)
    expected = dense_inv_norm(A)
    for limit in (linalg._BAND_STORAGE_LIMIT, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_BAND_STORAGE_LIMIT", limit)
            assert abs(estimate_inv_norm(A) - expected) <= 1e-6 * expected


def _inv_norm_bound(A):
    return linalg.inv_norm_bound(A, linalg.gershgorin_interval(A)[0])


class TestInvNormBound:
    def test_cases(self, tref200b, factorize_calls):
        # Lattice 8: Gershgorin lo = 4, no factorization. Trefethen_200b: lo = -5, and A - I factorizes.
        assert _inv_norm_bound(gen_lattice(8).A) == 0.25 and factorize_calls == []
        assert _inv_norm_bound(tref200b) == 1.0 and len(factorize_calls) == 1
        # Lattice 8 scaled by 0.1: lambda_min 0.42 < 1, so A - I is not SPD; lo = 0.4 still bounds it.
        assert _inv_norm_bound(SparseSpdMatrix.from_scipy(0.1 * gen_lattice(8).A.csr)) == pytest.approx(2.5)
        # lo = 0 and lambda_min < 1: no cheap bound.
        assert _inv_norm_bound(tridiag(-1, 2, 10)) is None

    @settings(max_examples=100, deadline=None)
    @given(random_spd_kinds, st.sampled_from([1.0, 20.0]))
    def test_bounds_nu(self, dense, scale):
        A = SparseSpdMatrix.from_dense(scale * dense)
        bound = _inv_norm_bound(A)
        assert bound is None or bound >= (1 - 1e-9) * dense_inv_norm(A)


# Entries of magnitude 0 or in [2^-400, 2^400]: no product overflows or underflows.
_dot_vectors = st.integers(0, 300).flatmap(lambda n: st.tuples(*[
    hnp.arrays(np.float64, n, elements=st.floats(-2.0**400, 2.0**400)).map(
        lambda a: np.where(np.abs(a) < 2.0**-400, 0.0, a))] * 2))


@settings(max_examples=200, deadline=None)
@given(_dot_vectors)
def test_dot_within_summation_bound(uv):
    u, v = uv
    exact = math.fsum(u * v)
    assert abs(linalg._dot(u, v) - exact) <= len(u) * np.finfo(np.float64).eps * math.fsum(np.abs(u * v))


_NU_REPR = """
from avesolve import estimate_inv_norm, gen_lattice
from conftest import trefethen_b
print(repr(estimate_inv_norm(gen_lattice(32).A)), repr(estimate_inv_norm(trefethen_b(200))))
"""


def test_nu_bits_independent_of_blas_threads():
    # Every inner product and norm of the estimate is a linalg._dot, not a BLAS call whose summation order
    # depends on the thread count; OPENBLAS_NUM_THREADS takes effect only in a fresh process.
    src = str(Path(avesolve.__file__).parents[1])
    tests = str(Path(__file__).parent)
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join([src, tests]))
        run = subprocess.run([sys.executable, "-c", _NU_REPR], capture_output=True, text=True, timeout=300,
                             env=env, check=True)
        out.append(run.stdout)
    assert out[0] and out[0] == out[1]
