"""Sparse SPD matrix storage, Cholesky factorization and inverse-norm estimation.

A matrix is held once, in full-symmetric CSR (both triangles stored): the
arrays of its own validated scipy csr, in scipy's index dtype.
:func:`factorize` takes one of two branches, and both reject every matrix
that is not SPD with :class:`NotPositiveDefinite`:

- banded Cholesky (LAPACK ``dpbtrf``), when the band storage of A fits in
  ``_BAND_STORAGE_LIMIT`` doubles. The band is taken in A's own order or in
  its reverse Cuthill-McKee order (Cuthill & McKee 1969, reversed as in
  George & Liu 1981), whichever is strictly narrower, so a tie (every
  lattice) keeps A's order. It is built in Fortran order, which ``dpbtrf``
  factors in place; a solve gathers the right-hand side into the order and
  scatters the result back, and a failing pivot is named in A's numbering;
- otherwise SuperLU with a minimum-degree ordering applied symmetrically and
  only diagonal pivots, so that its U diagonal is the D of P A P^T = L D L^T,
  which is positive exactly when A is SPD.

On both branches a pivot at or below n*eps times its diagonal entry counts as
not positive, so a matrix singular to working precision is rejected too. A
SuperLU factor's pivots are read back for that check only when A is not
strictly diagonally dominant beyond rounding (a dominant A, such as every
lattice, is SPD by proof): the first read makes scipy build and cache CSC
copies of L and U, about 34 MB at lattice 256.

The band wins while the band is narrow or mostly nonzero (lattices up to
m = 64, the Trefethen matrices up to 4098b, whose ordered band is 1626 x 4097
doubles against 4097 x 4097 in its own order); SuperLU wins where most of a
wide band would be fill (lattice 256, whose 135 MB band it factors about
1.9x and solves about 3x faster with 4-column panels; see BENCH_13.json
for the crossover table).

:func:`estimate_inv_norm` finds nu = ||A^{-1}||_2 by a locally optimal
Rayleigh-Ritz step (block-size-1 LOBPCG with the shifted factor as an exact
preconditioner) whose first shift, when positive, is the Gershgorin lower
bound on lambda_min(A); the lattices and the Trefethen matrices then need one
factorization.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from .errors import ConvergenceFailure, DimensionMismatch, DomainError, NotPositiveDefinite, SymmetryError

# Band storage (bandwidth + 1) * n above this many doubles (a 64 MiB band), in the order factorize takes, is
# factorized by SuperLU instead. With 4-column panels the two branches factor lattice 128 (2.1M) in the same
# time; SuperLU is 1.1-1.4x ahead at lattice 181 (6.0M), 1.9x at lattice 256 (16.8M), and about 12x behind on
# Trefethen_4000b (8.2M in its own order), which this keeps on the band.
_BAND_STORAGE_LIMIT = 2**23

# Columns per SuperLU panel, in place of its default of 20. A panel of w columns keeps n x w dense
# work arrays; narrow ones stay in cache on the lattices (lattice 256 factors in ~22 % less time at 4)
# and tie on Trefethen_4098b. Keep it at most 20: SuperLU sizes its panel statistics by the default
# widths, and a wider panel overruns them (a lattice 256 factorization at 32 died with SIGSEGV).
_PANEL_SIZE = 4

# A Gershgorin lower bound above _DOMINANCE_C * n*eps times the upper one proves A SPD (see _spd_lu).
_DOMINANCE_C = 4.0

# The nu estimate is accepted once its residual bounds its relative error by this.
_NU_TOL = 1e-8

# Sweeps in a row that do not halve the best relative residual end the nu estimate. Every certified
# estimate with lambda_max/lambda_min < 3e8 in tests, benchmark and a 300-matrix stress set needed <= 5.
_STALL_SWEEPS = 8


@dataclass(frozen=True)
class SparseSpdMatrix:
    """Symmetric positive-definite matrix in CSR form, both triangles stored.

    The input is canonical CSR: an integer n, integer index arrays, and in
    each row strictly increasing columns. Finite values, positive diagonal
    and structural/value symmetry are checked on construction; full positive
    definiteness is only established by a successful :func:`factorize`.
    Symmetry is first read off the arrays: those of the csr's ``tocsc()``
    are the transpose's canonical CSR arrays, built in one counting-sort
    pass, and equal arrays prove A = A^T. Only when they differ does the
    exact ``(csr != csr.T).nnz`` rule decide, so a stored explicit zero
    whose mirror is absent is still accepted. The matrix stores one copy of
    its input: row_ptr, col_idx and values are the indptr, indices and data
    of the validated csr, in scipy's index dtype, and alias no caller's array.
    """

    n: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray
    csr: sp.csr_matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            n = operator.index(self.n)  # an int or numpy integer, never 2.0
        except TypeError:
            raise DomainError("dimension must be an integer") from None
        object.__setattr__(self, "n", n)
        # Signed integer indices are checked as given (scipy's int32 at every size in use): an int64 copy of
        # each would only raise the construction's peak. Unsigned ones are cast to int64, where np.diff cannot
        # wrap around; float indices would be truncated by any cast, so they are rejected.
        row_ptr, col_idx = map(np.asarray, (self.row_ptr, self.col_idx))
        if row_ptr.dtype.kind not in "iu" or col_idx.dtype.kind not in "iu":
            raise DomainError("row_ptr and col_idx must be integer arrays")
        row_ptr, col_idx = (a if a.dtype.kind == "i" else a.astype(np.int64) for a in (row_ptr, col_idx))
        values = _real(self.values, "matrix values")
        if n < 1:
            raise DomainError("dimension must be positive")
        if row_ptr.shape != (n + 1,):
            raise DomainError("row_ptr must have length n+1")
        if np.any(np.diff(row_ptr) < 0) or row_ptr[0] != 0 or row_ptr[-1] != len(col_idx):
            raise DomainError("row_ptr must be nondecreasing from 0 to nnz")
        if len(col_idx) != len(values):
            raise DomainError("col_idx and values must have equal length")
        if len(col_idx) and (col_idx.min() < 0 or col_idx.max() >= n):
            raise DomainError("column indices out of range")
        if not np.isfinite(values).all():
            raise DomainError("matrix values must be finite")
        csr = sp.csr_matrix((values, col_idx, row_ptr), shape=(n, n), copy=True)
        if not csr.has_canonical_format:  # one C pass, no row index array: strictly increasing columns per row
            rows = np.repeat(np.arange(n), np.diff(row_ptr))
            bad = (np.diff(col_idx) <= 0) & (rows[1:] == rows[:-1])
            raise DomainError(f"column indices not strictly increasing in row {rows[1:][bad][0]}")
        t = csr.tocsc()  # the canonical CSR arrays of A^T: equal to A's own, they prove A = A^T
        same = all(map(np.array_equal, (csr.indptr, csr.indices, csr.data), (t.indptr, t.indices, t.data)))
        if not same and (csr != csr.T).nnz != 0:
            raise SymmetryError("stored pattern/values are not symmetric")
        if np.any(csr.diagonal() <= 0):
            raise DomainError("every diagonal entry must be stored and positive")
        for name, array in [("csr", csr), ("row_ptr", csr.indptr), ("col_idx", csr.indices), ("values", csr.data)]:
            object.__setattr__(self, name, array)

    @classmethod
    def from_scipy(cls, mat) -> "SparseSpdMatrix":
        shape = np.shape(mat)  # a 1-D array would become one row, and a wide one lose its extra columns
        if len(shape) != 2 or shape[0] != shape[1]:
            raise DimensionMismatch(f"matrix has shape {shape}, expected (n, n)")
        csr = sp.csr_matrix(mat)  # a csr mat's own arrays, which the constructor copies once
        if not (csr.has_canonical_format and csr.data.all()):
            csr = csr.copy()  # canonicalized in place below, so never mat's own arrays
            csr.sum_duplicates()  # sorts the indices too
            csr.eliminate_zeros()
        return cls(csr.shape[0], csr.indptr, csr.indices, csr.data)

    @classmethod
    def from_dense(cls, arr) -> "SparseSpdMatrix":
        return cls.from_scipy(_real(arr, "matrix values"))

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()

    def _rows(self) -> np.ndarray:  # the row index of every stored entry, aligned with col_idx and values
        return np.repeat(np.arange(self.n), np.diff(self.row_ptr))

    @functools.cached_property
    def gershgorin(self) -> tuple[float, float]:
        """(lo, hi), min_i and max_i of a_ii -/+ sum_{j != i} |a_ij|, taken once: every eigenvalue lies in [lo, hi].

        The off-diagonal sums are one product of |A|, its diagonal zeroed in place (every diagonal entry is
        stored), with a vector of ones: csr_matvec adds each row's entries in stored order from 0, and 1 * x
        and x + 0 are exact, so every sum has the bits of a sequential sum of the off-diagonal |a_ij|.
        """
        magnitudes = sp.csr_matrix((np.abs(self.values), self.col_idx, self.row_ptr), shape=(self.n, self.n))
        magnitudes.setdiag(0.0)
        diag, off = self.csr.diagonal(), magnitudes @ np.ones(self.n)
        return float(np.min(diag - off)), float(np.max(diag + off))

    @functools.cached_property
    def inv_norm_bound(self) -> float | None:
        """An upper bound on nu = ||A^{-1}||_2 where a cheap one exists, else None; taken once.

        lo, the lower end of ``gershgorin``, bounds lambda_min(A) from below: lo >= 1 gives nu <= 1/lo, with
        no factorization. Below that, when every diagonal entry exceeds 1, one factorization tests whether
        A - I is SPD, that is nu < 1 (to rounding); failing that, a positive lo still gives 1/lo.
        """
        lo = self.gershgorin[0]
        if lo < 1 < self.csr.diagonal().min():
            try:
                factorize(_shifted(self, 1.0))
                return 1.0
            except NotPositiveDefinite:
                pass
        return 1.0 / lo if lo > 0 else None


@dataclass(frozen=True)
class FactorHandle:
    """Reusable factorization of an SPD matrix; solves A z = r for any r.

    A band factor may be of A in an order (``_order[k]`` the row of A at
    position k); a solve then gathers r into that order and scatters z back.
    """

    n: int
    _band: np.ndarray | None = field(default=None, repr=False)
    _lu: object | None = field(default=None, repr=False)
    _order: np.ndarray | None = field(default=None, repr=False)

    def solve(self, r: np.ndarray) -> np.ndarray:
        """Solve A z = r for a vector r, or for every row of a p x n block r."""
        r = _vector_or_rows(r, self.n, "right-hand side")
        # A C-ordered p x n block transposes, without a copy, into the
        # Fortran-ordered n x p multi-RHS array that LAPACK expects.
        if self._band is None:
            return self._lu.solve(r.T).T
        ordered = self._order is not None
        if ordered:
            r = r[..., self._order]  # a copy of its own, which the solve may overwrite
        z, info = dpbtrs(self._band, r.T, lower=1, overwrite_b=ordered)
        if info != 0:
            raise ConvergenceFailure(f"banded triangular solve failed (info={info})")
        if not ordered:
            return z.T
        out = np.empty_like(z.T)
        out[..., self._order] = z.T
        return out


def _real(x, what: str) -> np.ndarray:
    """x as a float64 array, a float64 ndarray as it is; DomainError for complex x, which a cast would make real."""
    if type(x) is np.ndarray and x.dtype == np.float64:
        return x
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise DomainError(f"{what} must be real, not complex")
    return x.astype(np.float64, copy=False)


def _vector(v, n: int, what: str) -> np.ndarray:
    """v as a real float64 vector of shape (n,), else DomainError or DimensionMismatch."""
    v = _real(v, what)
    if v.shape != (n,):
        raise DimensionMismatch(f"{what} has shape {v.shape}, expected ({n},)")
    return v


def _vector_or_rows(v, n: int, what: str) -> np.ndarray:
    v = _real(v, what)
    if v.ndim not in (1, 2) or v.shape[-1] != n:
        raise DimensionMismatch(f"{what} has shape {v.shape}, expected ({n},) or (p, {n})")
    return v


def matvec(A: SparseSpdMatrix, x: np.ndarray) -> np.ndarray:
    """Product A @ x for a vector x, or A @ x_i for every row x_i of a p x n block."""
    x = _vector_or_rows(x, A.n, "vector")
    return (A.csr @ x.T).T


def factorize(A: SparseSpdMatrix) -> FactorHandle:
    """Factorize A once for repeated solves, on the branch its band storage selects.

    Raises NotPositiveDefinite naming the failing pivot, in A's own numbering, when A is not SPD.
    """
    bw, order = _band_order(A)
    if (bw + 1) * A.n <= _BAND_STORAGE_LIMIT:
        rows, cols = A._rows(), A.col_idx
        if order is not None:
            at = _positions(order)
            rows, cols = at[rows], at[cols]
        lower = rows >= cols
        # Fortran order is the layout dpbtrf reads, so it factors this array in place.
        band = np.zeros((bw + 1, A.n), order="F")
        band[rows[lower] - cols[lower], cols[lower]] = A.values[lower]
        floor = _pivot_floor(band[0])
        c, info = dpbtrf(band, lower=1, overwrite_ab=1)
        if info < 0:
            raise ConvergenceFailure(f"dpbtrf illegal argument (info={info})")
        # The pivots of L D L^T are the squares of the diagonal of L.
        bad = [info - 1] if info > 0 else np.flatnonzero(c[0] ** 2 <= floor)[:1]
        if len(bad):
            raise NotPositiveDefinite(int(bad[0] if order is None else order[bad[0]]))
        return FactorHandle(A.n, _band=c, _order=order)
    return FactorHandle(A.n, _lu=_spd_lu(A))


def _band_order(A: SparseSpdMatrix) -> tuple[int, np.ndarray | None]:
    """(lower bandwidth, order) of the narrower of A's own order and its reverse Cuthill-McKee order.

    order[k] is the row of A at position k, or None for A's own order, which a tie keeps (every lattice
    ties). Each row holds its diagonal and sorted columns, so its first column gives its reach below the
    diagonal; in the order, a stored entry (i, j) lies at[i] - at[j] below it.
    """
    bw = int(np.max(np.arange(A.n) - A.col_idx[A.row_ptr[:-1]]))
    order = reverse_cuthill_mckee(A.csr, symmetric_mode=True)
    at = _positions(order)
    ordered_bw = int(np.max(np.repeat(at, np.diff(A.row_ptr)) - np.take(at, A.col_idx)))
    return (ordered_bw, order) if ordered_bw < bw else (bw, None)


def _positions(order: np.ndarray) -> np.ndarray:
    """at[i], the position of row i in the order: the inverse permutation."""
    at = np.empty_like(order)
    at[order] = np.arange(len(order), dtype=order.dtype)
    return at


def _pivot_floor(diag: np.ndarray) -> np.ndarray:
    """Least accepted pivot for each diagonal entry: n*eps times the entry.

    A matrix singular to working precision can leave rounding-sized positive
    pivots; below this floor a pivot is treated as not positive.
    """
    return len(diag) * np.finfo(np.float64).eps * diag


def _symmetric_splu(M: sp.csr_matrix, permc_spec: str):
    # With a zero threshold and SymmetricMode, SuperLU takes every pivot from
    # the diagonal of the symmetrically permuted matrix unless it is exactly 0.
    # M is symmetric, so the transpose of its csr is its csc, on M's own arrays
    # (a copy would be 4 MB more at the peak of lattice 256's factorization).
    return splu(M.T, permc_spec=permc_spec, diag_pivot_thresh=0.0, panel_size=_PANEL_SIZE,
                options=dict(SymmetricMode=True))


def _first_bad_pivot(lu, floor: np.ndarray) -> int | None:
    """Elimination position of the first pivot that is not a diagonal one above its floor, or None.

    floor holds the least accepted pivot of each column, in the factorized
    matrix's own order. Reading lu.U makes scipy build CSC copies of L and U,
    cached on lu for its lifetime (about 34 MB at lattice 256).
    """
    # Column i is eliminated at position perm_c[i].
    floor_at = np.empty_like(floor)
    floor_at[lu.perm_c] = floor
    bad = np.flatnonzero(~(lu.U.diagonal() > floor_at))[:1]
    # A zero diagonal pivot at position j made SuperLU take an off-diagonal
    # one; the rows it swapped have perm_r != perm_c, and j is the least of
    # their perm_c entries.
    swapped = lu.perm_c[lu.perm_r != lu.perm_c]
    positions = np.concatenate([bad, swapped])
    return int(positions.min()) if len(positions) else None


def _spd_lu(A: SparseSpdMatrix):
    """SuperLU factor of A, checked to be P A P^T = L D L^T with D > 0.

    A diagonally dominant A (``A.gershgorin``) is SPD by proof; any other A pays :func:`_first_bad_pivot`'s read-back.
    """
    lo, hi = A.gershgorin  # read first, so that its temporaries never stack on the live factor
    try:
        lu = _symmetric_splu(A.csr, "MMD_AT_PLUS_A")
    except RuntimeError as exc:
        if "singular" not in str(exc):
            raise
        raise NotPositiveDefinite(_singular_pivot(A)) from None
    if lo > _DOMINANCE_C * A.n * np.finfo(np.float64).eps * hi:
        # The computed lo is within n*eps*hi of the exact one, so A is strictly diagonally dominant by over
        # 3n*eps*hi. Each Schur complement keeps every row's dominance margin, so each exact pivot is at least
        # that, far above its floor n*eps*a_ii and its rounding (growth <= 2); with diag_pivot_thresh=0,
        # SuperLU therefore never left the diagonal, and P A P^T = L D L^T with D > 0.
        return lu
    j = _first_bad_pivot(lu, _pivot_floor(A.csr.diagonal()))
    if j is not None:
        # Column i of A is eliminated at position perm_c[i].
        raise NotPositiveDefinite(int(np.flatnonzero(lu.perm_c == j)[0]))
    return lu


def _singular_pivot(A: SparseSpdMatrix) -> int:
    """Index of the zero pivot at which SuperLU found A exactly singular.

    SuperLU does not say where it stopped. Its ordering depends on the
    pattern alone, so it is taken from a diagonally dominant matrix with the
    pattern of A; the failing pivot is then found by bisection as the first
    position whose leading block, in that order, does not factorize with
    diagonal pivots above their floor. This costs about log2(n)
    factorizations, on an error path only.
    """
    dominant = A.csr.copy()
    dominant.data = np.where(A._rows() == A.col_idx, float(A.n), -1.0)
    order = np.argsort(_symmetric_splu(dominant, "MMD_AT_PLUS_A").perm_c)
    C = A.csr[order][:, order]
    floor = _pivot_floor(C.diagonal())
    lo, hi = 0, A.n  # the leading lo x lo block factorizes, the hi x hi block does not
    while hi - lo > 1:
        k = (lo + hi) // 2
        try:
            ok = _first_bad_pivot(_symmetric_splu(C[:k, :k], "NATURAL"), floor[:k]) is None
        except RuntimeError:
            ok = False
        lo, hi = (k, hi) if ok else (lo, k)
    return int(order[lo])


def _shifted(A: SparseSpdMatrix, sigma: float) -> SparseSpdMatrix:
    """A - sigma*I for sigma below A's least diagonal entry, built without SparseSpdMatrix's checks.

    Only the diagonal values differ from the validated A, whose row_ptr and col_idx it shares: the symmetry
    is A's, every diagonal entry stays positive, and the new values are held once, as its csr's data.
    """
    values = A.values.copy()
    values[A._rows() == A.col_idx] -= sigma
    csr = sp.csr_matrix((values, A.col_idx, A.row_ptr), shape=(A.n, A.n))
    shifted = object.__new__(SparseSpdMatrix)  # not a copy of A, whose cached interval would carry over
    vars(shifted).update(n=A.n, row_ptr=A.row_ptr, col_idx=A.col_idx, values=csr.data, csr=csr)
    return shifted


def _factorize_below(A: SparseSpdMatrix, shift: float, margin: float) -> FactorHandle:
    """Factorization of A - sigma*I at sigma = shift - margin, backing off until it is SPD.

    The margin grows 4x, from |shift|*1e-15 (at least the least normal double,
    so that a subnormal shift still moves) if it starts at 0, while A - sigma*I
    is not SPD. A sigma at or above the least diagonal entry is not tried:
    that entry bounds lambda_min(A) from above.
    """
    d_min = A.csr.diagonal().min()
    while True:
        sigma = shift - margin
        if sigma < d_min:
            try:
                return factorize(_shifted(A, sigma))
            except NotPositiveDefinite:
                pass
        margin = max(4.0 * margin, abs(shift) * 1e-15, np.finfo(np.float64).tiny)


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """u . v as numpy's pairwise sum of the products, never a BLAS call.

    Every reduction of one or two vectors to a scalar in linalg and solvers
    goes through here. A BLAS dot at lattice 256 wakes OpenBLAS's worker
    threads, which then spin through the single-threaded code that follows;
    factorizations and block solves still use BLAS threads. The sum runs in
    one thread, in an order set by the length alone, and its error grows with
    log n (einsum's running sum moved lattice 256's nu by 6 ulp, this by 2).
    """
    return float(np.add.reduce(u * v))


def _norm(v: np.ndarray) -> float:
    """||v||_2 of v scaled by a power of two, so that no square overflows or underflows.

    The scaling is exact, so the result is sqrt(_dot(v, v)) wherever that
    neither overflows nor underflows. A norm above the float range is inf.
    """
    e = int(np.frexp(np.max(np.abs(v)))[1])
    s = np.ldexp(v, -e)
    with np.errstate(over="ignore"):
        return float(np.ldexp(math.sqrt(_dot(s, s)), e))


def estimate_inv_norm(A: SparseSpdMatrix, f: FactorHandle | None = None) -> float:
    """Estimate nu = ||A^{-1}||_2 = 1/lambda_min(A) for SPD A.

    Each sweep does one solve z = (A - sigma*I)^{-1} v with the current factor
    and then Rayleigh-Ritz for A on span{z, v, p}, p the previous v, whose
    part orthogonal to v is the previous step's direction (LOBPCG with block
    size 1, Knyazev 2001). The next v is the smallest Ritz vector.

    - The first shift is the Gershgorin lower bound (``A.gershgorin``)
      sigma0 = min_i(a_ii - sum_{j != i} |a_ij|) <= lambda_min(A). When
      sigma0 > 0 (A is then SPD), the first factorization is of A - sigma*I,
      sigma 8n*eps*hi below sigma0 (hi the Gershgorin upper bound; sigma0 if
      that is subnormal) so that it is provably SPD, and lower if rounding
      leaves it singular; otherwise it is of A itself, and f, when given, is
      that factorization.
    - The start vector is a seeded Gaussian draw (normalized). A structured
      start can be orthogonal to the eigenvector of lambda_min, which LOBPCG
      then never finds: v_i = i to e_0 + e_9 - e_4 - e_5 (1 + 10 = 5 + 6),
      all ones to the antisymmetric eigenvectors of a persymmetric matrix.
    - The Rayleigh quotient and the residual are those of z against A; the
      quotient is accepted once the residual bounds its relative error by
      _NU_TOL = 1e-8, a fixed certificate that no caller sets.
      z, not the Ritz vector, is tested: the solve damps each component along
      a large eigenvalue by (lambda_min - sigma)/(lambda - sigma), whereas a
      Ritz vector keeps such components at the size Rayleigh-Ritz cannot see,
      which would dominate its residual when lambda_max/lambda_min is large.
    - When a sweep cuts the residual by less than half (clustered smallest
      eigenvalues), iteration restarts, without p, on a factorization shifted
      just below the current quotient, which restores a fast contraction rate.
    - After _STALL_SWEEPS sweeps in a row that do not halve the best relative
      residual (_NU_TOL is then below its rounding floor), ConvergenceFailure is
      raised. The loop always ends: a positive double halves only ~2100 times.
    - Every norm is taken on a vector scaled by a power of two (:func:`_norm`),
      so A at any scale gets its nu; a nu above the float range, from a
      lambda_min below about 5.6e-309, raises DomainError instead of inf.
    - Every inner product and norm is a :func:`_dot`, never a BLAS call, so
      the estimate has the same bits at any BLAS thread count; only the
      factorizations and solves use BLAS threads.
    """
    if f is not None and f.n != A.n:
        raise DimensionMismatch("factorization dimension differs from matrix dimension")
    shift, hi = A.gershgorin
    margin = 0.0
    if shift > 0:
        # Backed off by twice the dominance margin, A - sigma*I is provably SPD in _spd_lu too. A margin
        # below the least normal double is dropped: it would leave the shifted diagonal subnormal.
        f, margin = None, 2 * _DOMINANCE_C * A.n * np.finfo(np.float64).eps * hi
        margin = margin if margin >= np.finfo(np.float64).tiny else 0.0
    elif f is None:
        f = factorize(A)
    v = np.random.default_rng(0).standard_normal(A.n)
    v /= _norm(v)
    p, res_prev, best, stalls = None, np.inf, np.inf, 0
    while stalls < _STALL_SWEEPS:
        if f is None:
            f, p = _factorize_below(A, shift, margin), None
        # Orthonormal basis of span{z, v, p}, z = (A - sigma*I)^{-1} v first, by two
        # Gram-Schmidt passes; a direction (nearly) inside the span so far is dropped.
        basis = []
        for w in [f.solve(v), v] if p is None else [f.solve(v), v, p]:
            w = w / _norm(w)
            for _ in range(2):
                for u in basis:
                    w -= _dot(u, w) * u
            norm = _norm(w)
            if norm > 1e-10:
                basis.append(w / norm)
        images = [matvec(A, u) for u in basis]
        z, Az = basis[0], images[0]
        lam = _dot(z, Az)
        res = _norm(Az - lam * z)
        # Symmetric eigenvalue perturbation: some eigenvalue lies within res
        # of lam, and z tracks the minimal eigenvector, so res bounds the error.
        if res <= _NU_TOL * abs(lam):
            if not math.isfinite(1.0 / lam):
                raise DomainError(f"nu = 1/lambda_min overflows: lambda_min = {lam:.3g}")
            return 1.0 / lam
        if res > 0.5 * res_prev:
            # Contracting slowly: re-center the factorization just below lam,
            # with a margin of res so A - sigma*I stays positive definite.
            f, shift, margin = None, lam, max(res, abs(lam) * 1e-15)
        res_prev = res
        stalls = 0 if res / abs(lam) < 0.5 * best else stalls + 1
        best = min(best, res / abs(lam))
        # Rayleigh-Ritz: the next v is the smallest Ritz vector of A on the basis.
        y = np.linalg.eigh([[_dot(u, Au) for Au in images] for u in basis])[1][:, 0]
        p, v = v, sum(c * u for c, u in zip(y, basis))
        v /= _norm(v)
    floor = np.finfo(np.float64).eps * hi / abs(lam)  # hi: the Gershgorin bound on ||A||
    raise ConvergenceFailure(f"nu estimate stalled: best relative residual {best:.3g} did not halve in {_STALL_SWEEPS}"
                             f" sweeps (tol {_NU_TOL:g}; rounding floor up to eps*||A||/lambda = {floor:.3g})")
