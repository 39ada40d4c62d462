"""Test-problem construction: lattice generator, Matrix Market I/O, RHS builder."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, ParseError, SymmetryError
from .linalg import SparseSpdMatrix, matvec


@dataclass(frozen=True)
class AveProblem:
    """An instance of A x - |x| = b, optionally with a known solution."""

    A: SparseSpdMatrix
    b: np.ndarray
    x_star: np.ndarray | None = None

    def __post_init__(self):
        b = np.asarray(self.b, dtype=np.float64)
        object.__setattr__(self, "b", b)
        if b.shape != (self.A.n,):
            raise DimensionMismatch(f"b has shape {b.shape}, expected ({self.A.n},)")
        if self.x_star is not None:
            xs = np.asarray(self.x_star, dtype=np.float64)
            object.__setattr__(self, "x_star", xs)
            if xs.shape != (self.A.n,):
                raise DimensionMismatch("x_star length differs from dimension")

    @property
    def n(self) -> int:
        return self.A.n


def alternating_xstar(n: int) -> np.ndarray:
    """The designated solution (-1, 1, -1, 1, ...), continued for odd n."""
    x = np.ones(n)
    x[0::2] = -1.0
    return x


def build_rhs(A: SparseSpdMatrix, x_star: np.ndarray) -> AveProblem:
    """Problem with b = A x* - |x*| so that x* solves it by construction."""
    x_star = np.asarray(x_star, dtype=np.float64)
    if x_star.shape != (A.n,):
        raise DimensionMismatch(f"x_star has shape {x_star.shape}, expected ({A.n},)")
    b = matvec(A, x_star) - np.abs(x_star)
    return AveProblem(A, b, x_star)


def gen_lattice(m: int) -> AveProblem:
    """Block-tridiagonal lattice problem of dimension n = m^2.

    Diagonal blocks tridiag(-1, 8, -1), off-diagonal blocks -I, alternating
    designated solution.
    """
    if m < 1:
        raise DimensionMismatch("m must be at least 1")
    n = m * m
    S = sp.diags([-np.ones(m - 1), 8.0 * np.ones(m), -np.ones(m - 1)], [-1, 0, 1])
    A = sp.kron(sp.eye(m), S) + sp.kron(
        sp.diags([-np.ones(m - 1), -np.ones(m - 1)], [-1, 1]), sp.eye(m)
    )
    return build_rhs(SparseSpdMatrix.from_scipy(A), alternating_xstar(n))


def load_matrix_market(path) -> SparseSpdMatrix:
    """Read a coordinate real symmetric (or value-symmetric general) file.

    The stored triangle is mirrored, duplicates are summed, indices are
    converted from 1-based to 0-based.
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
            size_seen = True
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
    coo.sum_duplicates()
    if symmetry == "symmetric":
        off = coo.row != coo.col
        full = sp.coo_matrix(
            (
                np.concatenate([coo.data, coo.data[off]]),
                (
                    np.concatenate([coo.row, coo.col[off]]),
                    np.concatenate([coo.col, coo.row[off]]),
                ),
            ),
            shape=(nrows, ncols),
        )
    else:
        full = coo.tocsr()
        if (full != full.T).nnz != 0:
            raise SymmetryError(f"general file {path} is not symmetric after assembly")
    return SparseSpdMatrix.from_scipy(full)


def save_matrix_market(A: SparseSpdMatrix, path) -> None:
    """Write the lower triangle as coordinate real symmetric, 1-based."""
    coo = A.csr.tocoo()
    keep = coo.row >= coo.col
    r, c, v = coo.row[keep], coo.col[keep], coo.data[keep]
    order = np.lexsort((r, c))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"{A.n} {A.n} {len(v)}\n")
        for k in order:
            fh.write(f"{r[k] + 1} {c[k] + 1} {v[k]:.17g}\n")
