"""The three benchmark workloads: their `ave` commands, inputs, set-up and output checks.

Each workload is a fixed paper problem, so the benchmark seed selects nothing
here. A workload is a sequence of jobs; a job is one `ave` command run through
`avesolve.cli.main(argv)`, and its check compares the command's output with
the values the paper reproduction fixes (Tables 1/2 iteration counts, nu and
RES), which the package printed before any optimisation.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

TOL = 1e-8  # the `ave` default tolerance; every RES must be at most this


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    check: Callable[[int, str], str | None]  # (exit code, stdout) -> error or None


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple[Job, ...]
    setup: Callable[[], object]  # problem build + factorize through the public API
    mm_entries: int = 0  # entry lines in the Matrix Market input, 0 without a file


# --- Trefethen_b test matrices -------------------------------------------------------------


def first_primes(k: int) -> np.ndarray:
    """The first k primes, by a sieve sized from the prime number theorem."""
    limit = max(16, int(k * (math.log(k + 1) + math.log(math.log(k + 2)))) + 16)
    while True:
        sieve = np.ones(limit + 1, dtype=bool)
        sieve[:2] = False
        for i in range(2, math.isqrt(limit) + 1):
            if sieve[i]:
                sieve[i * i :: i] = False
        primes = np.flatnonzero(sieve)
        if len(primes) >= k:
            return primes[:k]
        limit *= 2


def trefethen_b(n_full: int) -> sp.csr_matrix:
    """Trefethen_<n_full>b: primes on the diagonal, ones at power-of-two offsets,
    first row and column removed (dimension n_full - 1)."""
    diag = first_primes(n_full).astype(np.float64)
    rows, cols, vals = [np.arange(n_full)], [np.arange(n_full)], [diag]
    k = 1
    while k < n_full:
        i = np.arange(n_full - k)
        rows += [i, i + k]
        cols += [i + k, i]
        vals += [np.ones(n_full - k), np.ones(n_full - k)]
        k *= 2
    full = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n_full, n_full)
    ).tocsr()
    return full[1:, 1:].tocsr()


def write_matrix_market(mat: sp.csr_matrix, path: str) -> int:
    """Write the lower triangle as coordinate real symmetric; return the entry count."""
    coo = sp.tril(mat).tocoo()
    order = np.lexsort((coo.row, coo.col))
    lines = [f"{coo.row[k] + 1} {coo.col[k] + 1} {coo.data[k]:.17g}\n" for k in order]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"{mat.shape[0]} {mat.shape[1]} {len(lines)}\n")
        fh.writelines(lines)
    return len(lines)


def _same_matrix(a, b) -> bool:
    return a.n == b.n and all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("row_ptr", "col_idx", "values"))


def check_trefethen(avesolve, reference, workdir: str) -> list[str]:
    """Self-check of the generator and the file writer; returns a list of failures.

    `reference` is the tests' dense `trefethen_b` helper, or None when the
    tests no longer provide it, in which case that comparison is skipped.
    """
    errors = []
    for n_full in (20, 200):
        mat = trefethen_b(n_full)
        ours = avesolve.SparseSpdMatrix.from_scipy(mat)
        if reference is not None and not _same_matrix(ours, reference(n_full)):
            errors.append(f"trefethen_b({n_full}) differs from the tests' dense reference")
        path = os.path.join(workdir, f"selfcheck_{n_full}b.mtx")
        write_matrix_market(mat, path)
        if not _same_matrix(ours, avesolve.load_matrix_market(path)):
            errors.append(f"Trefethen_{n_full}b does not round-trip through the Matrix Market file")
        os.remove(path)
        if n_full == 20 and f"{avesolve.estimate_inv_norm(ours):.4f}" != "0.4244":
            errors.append("nu(Trefethen_20b) does not round to 0.4244")
    return errors


# --- output checks -------------------------------------------------------------------------


def _parse(rc: int, out: str):
    if rc != 0:
        raise ValueError(f"exit code {rc}, expected 0")
    return json.loads(out)


def _checked(fn):
    """Turn a checker that raises on a mismatch into one that returns the message."""

    def check(rc: int, out: str) -> str | None:
        try:
            fn(rc, out)
        except (ValueError, KeyError, TypeError, AssertionError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None

    return check


def _expect(label: str, got, want) -> None:
    if got != want:
        raise ValueError(f"{label}: got {got!r}, expected {want!r}")


def _expect_res(label: str, res) -> None:
    if not float(res) <= TOL:
        raise ValueError(f"{label}: RES {res} exceeds tol {TOL}")


# Table 2 at lattice 8 (nu = 0.25): param, IT and RES of each `ave bench` row.
_BENCH_LATTICE8 = {
    "SORLopt": ("1.0000", "11", "2.6003e-09"),
    "SORLnopt": ("1.0000", "11", "2.6003e-09"),
    "SORLno": ("0.9810", "11", None),
    "FPIopt": ("1.0000", "11", "2.6003e-09"),
    "FPIno": ("0.9610", "11", None),
}


@_checked
def _check_bench_lattice8(rc, out):
    rows = _parse(rc, out)
    _expect("rows", sorted(r["method"] for r in rows), sorted(_BENCH_LATTICE8))
    for row in rows:
        label = row["method"]
        param, it, res = _BENCH_LATTICE8[label]
        _expect(f"{label} problem", row["problem"], "lattice8")
        _expect(f"{label} param", row["param"], param)
        _expect(f"{label} IT", str(row["it"]), it)
        if res is not None:
            _expect(f"{label} RES", row["res"], res)
        _expect_res(label, row["res"])


def _check_ranges(nu: str):
    @_checked
    def check(rc, out):
        _expect("nu", f"{float(_parse(rc, out)['nu']):.4f}", nu)

    return check


def _check_solve(it: str):
    @_checked
    def check(rc, out):
        rec = _parse(rc, out)
        _expect("converged", rec["converged"], True)
        _expect("IT", str(rec["it"]), it)
        _expect_res("solve", rec["res"])

    return check


# --- the workloads -------------------------------------------------------------------------

NAMES = ("bench-lattice8", "solve-lattice256", "mtx-trefethen2000")


def build(name: str, workdir: str, avesolve) -> Workload:
    """Create the named workload; writes its input files, if any, into workdir."""
    if name == "bench-lattice8":
        return Workload(
            name,
            (Job(("bench", "--lattice", "8", "--format", "json"), _check_bench_lattice8),),
            lambda: avesolve.factorize(avesolve.gen_lattice(8).A),
        )
    if name == "solve-lattice256":
        return Workload(
            name,
            (
                Job(("ranges", "--lattice", "256", "--format", "json"), _check_ranges("0.2500")),
                Job(
                    ("solve", "--lattice", "256", "--method", "sor", "--param", "optimal", "--format", "json"),
                    _check_solve("11"),
                ),
            ),
            lambda: avesolve.factorize(avesolve.gen_lattice(256).A),
        )
    if name == "mtx-trefethen2000":
        path = os.path.join(workdir, "Trefethen_2000b.mtx")
        entries = write_matrix_market(trefethen_b(2000), path)

        def setup():
            A = avesolve.load_matrix_market(path)
            avesolve.build_rhs(A, avesolve.alternating_xstar(A.n))
            return avesolve.factorize(A)

        return Workload(
            name,
            (
                Job(("ranges", "--matrix", path, "--format", "json"), _check_ranges("0.4267")),
                Job(
                    ("solve", "--matrix", path, "--method", "fpi", "--param", "optimal", "--format", "json"),
                    _check_solve("7"),
                ),
            ),
            setup,
            mm_entries=entries,
        )
    raise ValueError(f"unknown workload '{name}'")
