import os

import numpy as np
import pytest

from avesolve import SparseSpdMatrix, linalg, matvec, solve_fpi, solve_sor_like


def first_primes(k):
    primes, cand = [], 2
    while len(primes) < k:
        if all(cand % p for p in primes if p * p <= cand):
            primes.append(cand)
        cand += 1
    return primes


def trefethen_b(n_full):
    """The deflated Trefethen test matrix: primes on the diagonal, ones at
    offsets that are powers of two, first row/column removed."""
    primes = first_primes(n_full)
    A = np.zeros((n_full, n_full))
    for i in range(n_full):
        A[i, i] = primes[i]
        k = 1
        while i + k < n_full:
            A[i, i + k] = A[i + k, i] = 1.0
            k *= 2
    return SparseSpdMatrix.from_dense(A[1:, 1:])


def random_spd(rng, n):
    M = rng.standard_normal((n, n))
    return M @ M.T + n * np.eye(n)


def dense_inv_norm(A: SparseSpdMatrix) -> float:
    return 1.0 / np.linalg.eigvalsh(A.to_dense())[0]


def run_with_history(solver, problem, f, cfg):
    report = solver(problem, f, cfg)
    assert report.iterate_history is not None
    x0, y0 = cfg.initial_vectors(problem.n)
    return [(x0, y0)] + report.iterate_history, report


def check_contraction_envelope(problem, f, cfg, method, envelope, slack=1e-10):
    """Successive iterate-difference norms must be bounded by the 2x2 envelope."""
    solver = solve_sor_like if method == "sor" else solve_fpi
    iterates, report = run_with_history(solver, problem, f, cfg)
    assert report.converged
    diffs = [
        np.array([np.linalg.norm(x1 - x0), np.linalg.norm(y1 - y0)])
        for (x0, y0), (x1, y1) in zip(iterates, iterates[1:])
    ]
    for d_prev, d_next in zip(diffs, diffs[1:]):
        bound = envelope @ d_prev
        assert np.all(d_next <= bound + slack)


def matrix_dir():
    return os.environ.get("AVE_MATRIX_DIR")


def matrix_path(name):
    d = matrix_dir()
    if d:
        for cand in (os.path.join(d, name), os.path.join(d, name + ".mtx")):
            if os.path.isfile(cand):
                return cand
    return None


def require_matrix(name):
    path = matrix_path(name)
    if path is None:
        pytest.skip(f"matrix file '{name}' not available (set AVE_MATRIX_DIR to enable)")
    return path


@pytest.fixture(scope="session")
def tref20b():
    return trefethen_b(20)


@pytest.fixture(scope="session")
def tref200b():
    return trefethen_b(200)


@pytest.fixture
def sparse_branch(monkeypatch):
    """Route every factorization to the SuperLU branch of factorize."""
    monkeypatch.setattr(linalg, "_BAND_STORAGE_LIMIT", 0)
