import os

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from avesolve import SparseSpdMatrix, build_rhs, linalg, solvers


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


def rotated_spd(eigenvalues, seed=1) -> SparseSpdMatrix:
    """Q diag(eigenvalues) Q^T, symmetrized, with Q from the QR of a seeded Gaussian matrix."""
    n = len(eigenvalues)
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    M = (Q * eigenvalues) @ Q.T
    return SparseSpdMatrix.from_dense((M + M.T) / 2)


def dense_inv_norm(A: SparseSpdMatrix) -> float:
    return 1.0 / np.linalg.eigvalsh(A.to_dense())[0]


def run_iterates(problem, f, method, param, k_max=100, x0=None, y0=None, tol=1e-8):
    """One column of solvers.iterate_block, the kernel of every solve: its stops, the iterates
    [(x0, y0), (x1, y1), ...] (zero start vectors unless given) and the RES after each update."""
    zeros = np.zeros(problem.n)
    x0 = zeros if x0 is None else x0
    y0 = zeros if y0 is None else y0
    iterates, res = [(x0, y0)], []

    def observe(X, Y, r):
        iterates.append((X[0].copy(), Y[0].copy()))
        res.append(float(r[0]))

    stops = solvers.iterate_block(problem, f, method, [param], tol, k_max, x0, y0, observe)
    return stops, iterates, res


def check_contraction_envelope(problem, f, method, param, envelope, slack=1e-10):
    """Successive iterate-difference norms must be bounded by the 2x2 envelope."""
    stops, iterates, _ = run_iterates(problem, f, method, param, k_max=1000)
    assert stops.converged[0]
    diffs = [
        np.array([np.linalg.norm(x1 - x0), np.linalg.norm(y1 - y0)])
        for (x0, y0), (x1, y1) in zip(iterates, iterates[1:])
    ]
    for d_prev, d_next in zip(diffs, diffs[1:]):
        bound = envelope @ d_prev
        assert np.all(d_next <= bound + slack)


@st.composite
def random_ave_problems(draw, max_n=6):
    """Small problems b = A x* - |x*| with A SPD, of one of two kinds:

    - "dominant": strictly diagonally dominant by d in [1.1, 6] in every row,
      so lambda_min(A) >= d > 1 and nu < 1;
    - "weak": lambda_min(A) = d in [0.25, 1], so nu = 1/d >= 1 (up to rounding).
    """
    n = draw(st.integers(1, max_n))
    M = draw(hnp.arrays(np.float64, (n, n), elements=st.one_of(st.just(0.0), st.floats(-1.0, 1.0))))
    x_star = draw(hnp.arrays(np.float64, n, elements=st.floats(-2.0, 2.0)))
    S = (M + M.T) / 2
    np.fill_diagonal(S, 0.0)
    if draw(st.sampled_from(["dominant", "weak"])) == "dominant":
        A = S + np.diag(np.abs(S).sum(axis=1) + draw(st.floats(1.1, 6.0)))
    else:
        A = S + (draw(st.floats(0.25, 1.0)) - np.linalg.eigvalsh(S)[0]) * np.eye(n)
    problem = build_rhs(SparseSpdMatrix.from_dense(A), x_star)
    assume(np.linalg.norm(problem.b) > 1e-6)
    return problem


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
