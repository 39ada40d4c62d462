"""Sparse SPD matrix storage, Cholesky factorization and inverse-norm estimation.

Matrices are held in full-symmetric CSR (both triangles stored). Factorization
is banded Cholesky without reordering; every tested matrix is small or
narrow-banded, so fill-reducing orderings would buy nothing. For matrices
whose band profile would not fit in memory a sparse LU fallback is used.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.linalg import splu

from .errors import ConvergenceFailure, DimensionMismatch, DomainError, NotPositiveDefinite

# Band storage above this many doubles falls back to sparse LU.
_BAND_STORAGE_LIMIT = 40_000_000


@dataclass(frozen=True)
class SparseSpdMatrix:
    """Symmetric positive-definite matrix in CSR form, both triangles stored.

    Positive diagonal and structural/value symmetry are checked on
    construction; full positive definiteness is only established by a
    successful :func:`factorize`.
    """

    n: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray
    # The validated scipy form of the same arrays, built once.
    csr: sp.csr_matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        row_ptr = np.asarray(self.row_ptr, dtype=np.int64)
        col_idx = np.asarray(self.col_idx, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "row_ptr", row_ptr)
        object.__setattr__(self, "col_idx", col_idx)
        object.__setattr__(self, "values", values)
        if self.n < 1:
            raise DomainError("dimension must be positive")
        if row_ptr.shape != (self.n + 1,):
            raise DomainError("row_ptr must have length n+1")
        if np.any(np.diff(row_ptr) < 0) or row_ptr[0] != 0 or row_ptr[-1] != len(col_idx):
            raise DomainError("row_ptr must be nondecreasing from 0 to nnz")
        if len(col_idx) != len(values):
            raise DomainError("col_idx and values must have equal length")
        if len(col_idx) and (col_idx.min() < 0 or col_idx.max() >= self.n):
            raise DomainError("column indices out of range")
        rows = np.repeat(np.arange(self.n), np.diff(row_ptr))
        bad = (np.diff(col_idx) <= 0) & (rows[1:] == rows[:-1])
        if bad.any():
            raise DomainError(f"column indices not strictly increasing in row {rows[1:][bad][0]}")
        csr = sp.csr_matrix((values, col_idx, row_ptr), shape=(self.n, self.n))
        if (csr != csr.T).nnz != 0:
            raise DomainError("stored pattern/values are not symmetric")
        diag = csr.diagonal()
        if np.any(diag <= 0):
            raise DomainError("every diagonal entry must be stored and positive")
        object.__setattr__(self, "csr", csr)

    @classmethod
    def from_scipy(cls, mat) -> "SparseSpdMatrix":
        csr = sp.csr_matrix(mat)
        csr.sum_duplicates()
        csr.sort_indices()
        csr.eliminate_zeros()
        return cls(csr.shape[0], csr.indptr, csr.indices, csr.data)

    @classmethod
    def from_dense(cls, arr) -> "SparseSpdMatrix":
        return cls.from_scipy(np.asarray(arr, dtype=np.float64))

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()

    @property
    def bandwidth(self) -> int:
        rows = np.repeat(np.arange(self.n), np.diff(self.row_ptr))
        return int(np.abs(rows - self.col_idx).max()) if len(self.col_idx) else 0


@dataclass(frozen=True)
class FactorHandle:
    """Reusable factorization of an SPD matrix; solves A z = r for any r."""

    n: int
    _band: np.ndarray | None = field(default=None, repr=False)
    _lu: object | None = field(default=None, repr=False)

    def solve(self, r: np.ndarray) -> np.ndarray:
        """Solve A z = r for a vector r, or for every row of a p x n block r."""
        r = _vector_or_rows(r, self.n, "right-hand side")
        # A C-ordered p x n block transposes, without a copy, into the
        # Fortran-ordered n x p multi-RHS array that LAPACK expects.
        if self._band is not None:
            z, info = dpbtrs(self._band, r.T, lower=1)
            if info != 0:
                raise ConvergenceFailure(f"banded triangular solve failed (info={info})")
            return z.T
        return self._lu.solve(r.T).T


def _vector_or_rows(v, n: int, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[-1] != n:
        raise DimensionMismatch(f"{what} has shape {v.shape}, expected ({n},) or (p, {n})")
    return v


def matvec(A: SparseSpdMatrix, x: np.ndarray) -> np.ndarray:
    """Product A @ x for a vector x, or A @ x_i for every row x_i of a p x n block."""
    x = _vector_or_rows(x, A.n, "vector")
    return (A.csr @ x.T).T


def factorize(A: SparseSpdMatrix) -> FactorHandle:
    """Cholesky-factorize A once for repeated solves.

    Raises NotPositiveDefinite naming the failing pivot when A is not SPD.
    """
    bw = A.bandwidth
    if (bw + 1) * A.n <= _BAND_STORAGE_LIMIT:
        dense_band = np.zeros((bw + 1, A.n))
        rows = np.repeat(np.arange(A.n), np.diff(A.row_ptr))
        lower = rows >= A.col_idx
        dense_band[rows[lower] - A.col_idx[lower], A.col_idx[lower]] = A.values[lower]
        c, info = dpbtrf(dense_band, lower=1)
        if info > 0:
            raise NotPositiveDefinite(info - 1)
        if info < 0:
            raise ConvergenceFailure(f"dpbtrf illegal argument (info={info})")
        return FactorHandle(A.n, _band=c)
    # Wide-band fallback (e.g. Trefethen_20000b): sparse LU.
    lu = splu(A.csr.tocsc())
    return FactorHandle(A.n, _lu=lu)


def _shifted(A: SparseSpdMatrix, sigma: float) -> SparseSpdMatrix:
    values = A.values.copy()
    rows = np.repeat(np.arange(A.n), np.diff(A.row_ptr))
    values[rows == A.col_idx] -= sigma
    return SparseSpdMatrix(A.n, A.row_ptr, A.col_idx, values)


def estimate_inv_norm(
    A: SparseSpdMatrix, tol: float = 1e-8, max_sweeps: int = 10_000, f: FactorHandle | None = None
) -> float:
    """Estimate nu = ||A^{-1}||_2 = 1/lambda_min(A) for SPD A.

    Inverse power iteration with a deterministic all-ones start. The
    Rayleigh quotient is accepted once the eigenpair residual bounds its
    relative error by tol. When the quotient stagnates before that bound is
    met (clustered smallest eigenvalues), iteration restarts on a shifted
    factorization A - sigma*I with sigma just below the current estimate,
    which restores a fast contraction rate.

    f, when given, is a factorization of A itself that the unshifted sweeps
    reuse instead of factorizing A again.
    """
    if not 0 < tol < 1:
        raise DomainError("tol must lie in (0, 1)")
    if f is None:
        f = factorize(A)
    elif f.n != A.n:
        raise DimensionMismatch("factorization dimension differs from matrix dimension")
    v = np.ones(A.n) / np.sqrt(A.n)
    lam_prev = np.inf
    for _ in range(max_sweeps):
        z = f.solve(v)
        v = z / np.linalg.norm(z)
        Av = matvec(A, v)
        lam = float(v @ Av)
        res = float(np.linalg.norm(Av - lam * v))
        # Symmetric eigenvalue perturbation: some eigenvalue lies within res
        # of lam, and v tracks the minimal eigenvector, so res bounds the error.
        if res <= tol * abs(lam):
            return 1.0 / lam
        if abs(lam - lam_prev) <= 0.05 * res:
            # Stagnating: re-center the factorization just below lam. Keep a
            # margin of res so A - sigma*I stays positive definite; back off
            # further if the Cholesky still hits a non-positive pivot.
            margin = max(res, abs(lam) * 1e-15)
            while True:
                try:
                    f = factorize(_shifted(A, lam - margin))
                    break
                except NotPositiveDefinite:
                    margin *= 4.0
        lam_prev = lam
    raise ConvergenceFailure(f"inverse power iteration did not converge in {max_sweeps} sweeps")
