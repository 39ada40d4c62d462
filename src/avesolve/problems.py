"""Test-problem construction: lattice generator, Matrix Market I/O, RHS builder."""

from __future__ import annotations

import functools
import io
import operator
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, DomainError, ParseError
from .linalg import SparseSpdMatrix, _norm, _vector, matvec


@dataclass(frozen=True)
class AveProblem:
    """An instance of A x - |x| = b with real, finite b and optional x_star of length n. norm_b = ||b||_2, taken
    once, divides every RES, direct or certified; for b = 0 it is 0, and forming RES raises DomainError."""

    A: SparseSpdMatrix
    b: np.ndarray
    x_star: np.ndarray | None = None

    def __post_init__(self):
        for name in ("b", "x_star") if self.x_star is not None else ("b",):
            v = _vector(getattr(self, name), self.A.n, name)
            if not np.isfinite(v).all():
                raise DomainError(f"{name} must be finite")
            object.__setattr__(self, name, v)

    @property
    def n(self) -> int:
        return self.A.n

    @functools.cached_property
    def norm_b(self) -> float:
        return _norm(self.b)


def alternating_xstar(n: int) -> np.ndarray:
    """The designated solution (-1, 1, -1, 1, ...), continued for odd n."""
    x = np.ones(n)
    x[0::2] = -1.0
    return x


def build_rhs(A: SparseSpdMatrix, x_star: np.ndarray) -> AveProblem:
    """Problem with b = A x* - |x*| so that x* solves it by construction."""
    x_star = _vector(x_star, A.n, "x_star")
    return AveProblem(A, matvec(A, x_star) - np.abs(x_star), x_star)


def gen_lattice(m: int) -> AveProblem:
    """Five-point lattice problem of dimension n = m^2, with the alternating designated solution.

    Row k = i*m + j (point j of line i) holds 8 on the diagonal and -1 at
    columns k - m and k + m (the neighbouring lines) and k - 1 and k + 1 (its
    neighbours on line i), wherever these exist, so there is no coupling
    across the end of a line. This is the Kronecker sum
    kron(I, tridiag(-1, 8, -1)) + kron(tridiag(-1, 0, -1), I); its canonical
    CSR arrays are built directly (`_five_point_csr`), with no Kronecker
    product, and go straight to :class:`SparseSpdMatrix`, which validates
    them like any other input.
    """
    try:
        m = operator.index(m)  # an int or numpy integer; 2.5 or "3" would fail later in np.arange
    except TypeError:
        raise DomainError("m must be an integer") from None
    if m < 1:
        raise DimensionMismatch("m must be at least 1")
    return build_rhs(SparseSpdMatrix(m * m, *_five_point_csr(m)), alternating_xstar(m * m))


def _five_point_csr(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """row_ptr, col_idx and values of the lattice matrix by index arithmetic: five candidate columns per
    row, in increasing order, the absent ones masked out. Its temporaries are freed on return, before the
    validation's own peak."""
    n = m * m
    # scipy's index dtype for at most 5n entries, so the validated csr takes these arrays without a cast. The
    # half-size temporaries matter too: freeing int64 ones (2.6 MB each at lattice 256) raises glibc's
    # mmap threshold, and with it the process's later peak RSS.
    index = np.int32 if 5 * n < 2**31 else np.int64
    k = np.arange(n, dtype=index)
    j = k % m
    offsets = np.array([-m, -1, 0, 1, m], dtype=index)
    present = np.column_stack([k >= m, j > 0, np.ones(n, bool), j < m - 1, k < n - m])
    row_ptr = np.zeros(n + 1, dtype=index)
    np.cumsum(present.sum(axis=1), out=row_ptr[1:])
    col_idx = (k[:, None] + offsets)[present]
    values = np.broadcast_to(np.where(offsets == 0, 8.0, -1.0), present.shape)[present]
    return row_ptr, col_idx, values


_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def _bulk_body(body: list[str], n: int, nnz: int):
    """0-based rows, columns and values of the entry lines ``body`` in one vectorized pass, or None.

    It accepts only what the line loop of `load_matrix_market` accepts, with the same numbers. On
    anything else it returns None: a wrong field count, a non-numeric or float-looking index, an
    index outside 1..n, other than nnz entries, a ``%`` anywhere, or any numpy warning. The loop
    then parses the lines, so each error keeps its exact ParseError message and line number.
    """
    text = "".join(body)
    if "%" in text:
        return None
    try:
        with warnings.catch_warnings():
            # Older numpy reads the index "1.0" with only a DeprecationWarning.
            warnings.simplefilter("error")
            e = np.loadtxt(io.StringIO(text), dtype=_ENTRY, comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    if len(e) != nnz or min(e["i"].min(), e["j"].min()) < 1 or max(e["i"].max(), e["j"].max()) > n:
        return None
    return e["i"] - 1, e["j"] - 1, e["v"]


def load_matrix_market(path) -> SparseSpdMatrix:
    """Read a coordinate real symmetric file, or a general one (SymmetryError unless symmetric).

    The stored triangle is mirrored, duplicates are summed, indices are
    converted from 1-based to 0-based. A size line declaring fewer entries
    than rows is rejected: an SPD matrix stores every diagonal entry. After
    the size line a clean body is read in one vectorized pass (`_bulk_body`);
    any other body is read line by line, which reports a malformed line by
    its number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    if not lines:
        raise ParseError("empty file", 1)
    header = lines[0].split()
    if len(header) != 5 or header[0] != "%%MatrixMarket":
        raise ParseError("expected '%%MatrixMarket matrix coordinate real <symmetry>' header", 1)
    _, obj, fmt, field, symmetry = header
    if obj.lower() != "matrix" or fmt.lower() != "coordinate":
        raise ParseError(f"unsupported object/format '{obj} {fmt}'", 1)
    if field.lower() != "real":
        raise ParseError(f"unsupported field '{field}' (only real)", 1)
    symmetry = symmetry.lower()
    if symmetry not in ("symmetric", "general"):
        raise ParseError(f"unsupported symmetry '{symmetry}'", 1)

    lineno = 1
    size_seen = False
    nrows = ncols = nnz = 0
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for raw in lines[1:]:
        lineno += 1
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        if not size_seen:
            if len(parts) != 3:
                raise ParseError("size line must be 'nrows ncols nnz'", lineno)
            try:
                nrows, ncols, nnz = (int(p) for p in parts)
            except ValueError:
                raise ParseError("size line must contain integers", lineno) from None
            if nrows != ncols:
                raise ParseError(f"matrix is not square ({nrows}x{ncols})", lineno)
            if nrows < 1:
                raise ParseError(f"matrix dimension must be positive ({nrows}x{ncols})", lineno)
            if nnz < nrows:  # before any storage of size n is allocated
                raise ParseError(f"{nnz} entries cannot hold the {nrows} diagonal entries of an SPD matrix",
                                 lineno)
            size_seen = True
            entries = _bulk_body(lines[lineno:], nrows, nnz)
            if entries is not None:
                rows, cols, vals = entries
                break
            continue
        if len(parts) != 3:
            raise ParseError("entry must be 'i j value'", lineno)
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ParseError("entry must be 'i j value' with numeric fields", lineno) from None
        if not (1 <= i <= nrows and 1 <= j <= ncols):
            raise ParseError(f"index ({i}, {j}) out of declared bounds", lineno)
        rows.append(i - 1)
        cols.append(j - 1)
        vals.append(v)
    if not size_seen:
        raise ParseError("missing size line", lineno)
    if len(vals) != nnz:
        raise ParseError(f"declared {nnz} entries, found {len(vals)}", lineno)

    coo = sp.coo_matrix((vals, (rows, cols)), shape=(nrows, ncols))
    # Duplicates may sum past the float range, or inf and -inf to nan; the
    # finite check of SparseSpdMatrix reports either.
    with np.errstate(over="ignore", invalid="ignore"):
        coo.sum_duplicates()
    r, c, v = coo.row, coo.col, coo.data
    del coo  # the stored triangle's arrays are then freed when mirrored, before the validation's peak
    if symmetry == "symmetric":
        off = r != c
        r, c, v = np.concatenate([r, c[off]]), np.concatenate([c, r[off]]), np.concatenate([v, v[off]])
    return SparseSpdMatrix.from_scipy(sp.csr_matrix((v, (r, c)), shape=(nrows, ncols)))


def save_matrix_market(A: SparseSpdMatrix, path) -> None:
    """Write the lower triangle as coordinate real symmetric, 1-based."""
    coo = A.csr.tocoo()
    keep = coo.row >= coo.col
    r, c, v = coo.row[keep], coo.col[keep], coo.data[keep]
    order = np.lexsort((r, c))
    entries = np.empty((len(order), 3), dtype=object)
    entries[:, 0], entries[:, 1], entries[:, 2] = r[order] + 1, c[order] + 1, v[order]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"{A.n} {A.n} {len(v)}\n")
        # One format call for the whole body: %.17g round-trips every double.
        fh.write("%d %d %.17g\n" * len(order) % tuple(entries.ravel()))
