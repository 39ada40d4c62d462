"""The SOR-like and fixed-point iterations, run as columns of one block iteration.

Both schemes reuse one factorization of A. :func:`iterate_block` runs one
iteration per parameter, each as one row of a p x n block of iterates, with
one multi-RHS factor-solve and one block residual per step for all the
columns still running. A single solve is the one-column case, and every
solve takes this path from zero start vectors. A sweep first decides what
it can on one Krylov basis (:mod:`avesolve.sweep`); iterate_block is its
fallback for the grid points that basis cannot certify, called on the
chunks of columns that the sweep module sizes and orders. The relative residual RES is evaluated
after each full (x, y) update; the iteration count is the number of full
updates performed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .linalg import FactorHandle, _real, _vector, matvec
from .params import _check_positive
from .problems import AveProblem


def check_method(method: str) -> None:
    if method not in ("sor", "fpi"):  # the one method rule of the iterations and sweeps
        raise DomainError(f"unknown method '{method}'")


def check_stop_rule(tol: float, k_max: int) -> None:
    """The one stopping rule of the iterations and sweeps: tol in (0, 1), k_max an integer at least 1.

    The nu estimate has no setting: it certifies to a fixed 1e-8 (:func:`avesolve.linalg.estimate_inv_norm`).
    """
    if not 0 < tol < 1:
        raise DomainError("tol must lie in (0, 1)")
    try:
        operator.index(k_max)  # an int or numpy integer; 10.5, 20.0 or inf would fail later in range()
    except TypeError:
        raise DomainError("k_max must be an integer") from None
    if k_max < 1:
        raise DomainError("k_max must be at least 1")


@dataclass(frozen=True)
class SolveConfig:
    """Iteration parameter (omega or tau) and stopping rule of one solve, which starts from zero."""

    parameter: float
    tol: float = 1e-8
    k_max: int = 100

    def __post_init__(self):
        _check_positive("iteration parameter", self.parameter)
        check_stop_rule(self.tol, self.k_max)


@dataclass
class SolveReport:
    converged: bool
    diverged: bool  # x or y became non-finite at update `iterations`; x, y are that iterate
    iterations: int
    final_res: float
    x: np.ndarray
    y: np.ndarray
    res_history: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class BlockStops:
    """Where each column of :func:`iterate_block` stopped, one entry per parameter."""

    iterations: np.ndarray  # full updates performed
    converged: np.ndarray  # RES <= tol after the last update
    diverged: np.ndarray  # x or y became non-finite at the last update
    res: np.ndarray  # RES after the last update


def _residuals(problem: AveProblem, X: np.ndarray) -> np.ndarray:
    """Relative residual ||A x - |x| - b||_2 / ||b||_2 of every row x of the block X; DomainError for b = 0.

    No vector reduction here uses BLAS: ||b|| is the problem's norm_b, a :func:`avesolve.linalg._norm`
    taken once per problem, and the row norms are numpy's own sums. Only the factor-solves use BLAS threads.
    """
    if problem.norm_b == 0.0:
        raise DomainError("relative residual undefined for b = 0")
    return np.linalg.norm(matvec(problem.A, X) - np.abs(X) - problem.b, axis=1) / problem.norm_b


def residual(problem: AveProblem, x: np.ndarray) -> float:
    """Relative residual ||A x - |x| - b||_2 / ||b||_2."""
    return float(_residuals(problem, _vector(x, problem.n, "x")[None])[0])


def iterate_block(
    problem: AveProblem,
    f: FactorHandle,
    method: str,
    params: np.ndarray,
    tol: float,
    k_max: int,
    x0: np.ndarray,
    y0: np.ndarray,
    observe=None,
) -> BlockStops:
    """Run the SOR-like ("sor") or fixed-point ("fpi") iteration once per parameter, as one block.

    Every column starts from (x0, y0). A column stops at the first update
    that makes x or y non-finite (diverged), brings RES to at most tol
    (converged) or is the k_max-th; stopped columns are dropped from the
    block, so they cost no further work. The caller bounds the block's size
    (the sweep module runs a grid in chunks). Method, real parameters and start
    vectors of length n are checked here; the parameters' range, tol and k_max
    by the callers (SolveConfig, the sweep module), which start from zero.
    ``observe(X, Y, res)``, when given, sees the rows still running after
    every update, before any stop.
    """
    check_method(method)
    sor = method == "sor"
    params = _real(params, "parameters")
    p = len(params)
    stopped_at = np.zeros(p, dtype=np.int64)
    converged = np.zeros(p, dtype=bool)
    diverged = np.zeros(p, dtype=bool)
    res_out = np.full(p, np.nan)
    cols = np.arange(p)
    w = params[:, None]
    X = np.tile(_vector(x0, problem.n, "x0"), (p, 1))
    Y = np.tile(_vector(y0, problem.n, "y0"), (p, 1))
    # Diverging columns overflow on purpose; they are caught by the finiteness test.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, k_max + 1):
            Z = f.solve(Y + problem.b)
            X = (1.0 - w) * X + w * Z if sor else Z
            Y = (1.0 - w) * Y + w * np.abs(X)
            res = _residuals(problem, X)
            if observe is not None:
                observe(X, Y, res)
            bad = ~(np.isfinite(X).all(axis=1) & np.isfinite(Y).all(axis=1))
            good = ~bad & (res <= tol)
            stop = bad | good | (k == k_max)
            if not stop.any():
                continue
            done = cols[stop]
            stopped_at[done] = k
            converged[done] = good[stop]
            diverged[done] = bad[stop]
            res_out[done] = res[stop]
            keep = ~stop
            if not keep.any():
                break
            cols, w, X, Y = cols[keep], w[keep], X[keep], Y[keep]
    return BlockStops(stopped_at, converged, diverged, res_out)


def _solve(problem: AveProblem, f: FactorHandle, cfg: SolveConfig, method: str) -> SolveReport:
    zeros = np.zeros(problem.n)
    res_history: list[float] = []
    last = []

    def observe(X, Y, res):
        res_history.append(float(res[0]))
        last[:] = [X[0].copy(), Y[0].copy()]

    stops = iterate_block(problem, f, method, [cfg.parameter], cfg.tol, cfg.k_max, zeros, zeros, observe)
    x, y = last
    return SolveReport(bool(stops.converged[0]), bool(stops.diverged[0]), int(stops.iterations[0]),
                       float(stops.res[0]), x, y, res_history)


def solve_sor_like(problem: AveProblem, f: FactorHandle, cfg: SolveConfig) -> SolveReport:
    """SOR-like iteration: x <- (1-w)x + w A^{-1}(y+b); y <- (1-w)y + w|x|."""
    return _solve(problem, f, cfg, "sor")


def solve_fpi(problem: AveProblem, f: FactorHandle, cfg: SolveConfig) -> SolveReport:
    """Fixed-point iteration: x <- A^{-1}(y+b); y <- (1-t)y + t|x|."""
    return _solve(problem, f, cfg, "fpi")
