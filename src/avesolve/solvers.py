"""The SOR-like and fixed-point iterations, run as columns of one block iteration.

Both schemes reuse one factorization of A. :func:`iterate_block` runs one
iteration per parameter, each as one row of a p x n block of iterates, with
one multi-RHS factor-solve and one block residual per step for all the
columns still running. A single solve is the one-column case. The relative
residual RES is evaluated after each full (x, y) update; the iteration count
is the number of full updates performed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, DivergenceError, DomainError
from .linalg import FactorHandle, matvec
from .problems import AveProblem

# Columns are run in chunks small enough that one n x chunk block of iterates
# stays below this many bytes (one column when a single one is larger). A step
# keeps about ten such blocks alive, so this bounds the memory a sweep adds; on
# lattices 8 and 32, blocks from 64 KiB to 32 MiB ran the sweep equally fast.
BLOCK_BYTES = 128 * 2**10


@dataclass(frozen=True)
class SolveConfig:
    """Iteration parameter (omega or tau), tolerances and initial vectors."""

    parameter: float
    tol: float = 1e-8
    k_max: int = 100
    x0: np.ndarray | None = None
    y0: np.ndarray | None = None
    capture_history: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.parameter) and self.parameter > 0):
            raise DomainError("iteration parameter must be positive and finite")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise DomainError("tol must be positive and finite")
        if self.k_max < 1:
            raise DomainError("k_max must be at least 1")
        for v in (self.x0, self.y0):
            if v is not None and not np.isfinite(np.asarray(v, dtype=np.float64)).all():
                raise DomainError("initial vectors must be finite")

    def initial_vectors(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        x0 = np.zeros(n) if self.x0 is None else np.asarray(self.x0, dtype=np.float64)
        y0 = np.zeros(n) if self.y0 is None else np.asarray(self.y0, dtype=np.float64)
        if x0.shape != (n,) or y0.shape != (n,):
            raise DimensionMismatch("initial vectors must have the problem dimension")
        return x0.copy(), y0.copy()


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    final_res: float
    x: np.ndarray
    y: np.ndarray
    res_history: list[float] = field(default_factory=list)
    iterate_history: list[tuple[np.ndarray, np.ndarray]] | None = None


@dataclass(frozen=True)
class BlockStops:
    """Where each column of :func:`iterate_block` stopped, one entry per parameter."""

    iterations: np.ndarray  # full updates performed
    converged: np.ndarray  # RES <= tol after the last update
    diverged: np.ndarray  # x or y became non-finite at the last update
    res: np.ndarray  # RES after the last update


def _residuals(problem: AveProblem, X: np.ndarray) -> np.ndarray:
    """Relative residual ||A x - |x| - b||_2 / ||b||_2 of every row x of the block X."""
    norm_b = np.linalg.norm(problem.b)
    if norm_b == 0.0:
        raise DomainError("relative residual undefined for b = 0")
    return np.linalg.norm(matvec(problem.A, X) - np.abs(X) - problem.b, axis=1) / norm_b


def residual(problem: AveProblem, x: np.ndarray) -> float:
    """Relative residual ||A x - |x| - b||_2 / ||b||_2."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (problem.n,):
        raise DimensionMismatch(f"vector has shape {x.shape}, expected ({problem.n},)")
    return float(_residuals(problem, x[None])[0])


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
    """Run the SOR-like ("sor") or fixed-point ("fpi") iteration once per parameter.

    Every column starts from (x0, y0). A column stops at the first update
    that makes x or y non-finite (diverged), brings RES to at most tol
    (converged) or is the k_max-th; stopped columns are dropped from the
    block, so they cost no further work. Parameters and tol are validated by
    the callers (SolveConfig, grid_search). ``observe(X, Y, res)``, when
    given, sees the rows still running after every update, before any stop.
    """
    if f.n != problem.n:
        raise DimensionMismatch("factorization dimension differs from problem dimension")
    sor = method == "sor"
    params = np.asarray(params, dtype=np.float64)
    p = len(params)
    stopped_at = np.full(p, k_max, dtype=np.int64)
    converged = np.zeros(p, dtype=bool)
    diverged = np.zeros(p, dtype=bool)
    res_out = np.full(p, np.nan)
    chunk = max(1, BLOCK_BYTES // (8 * problem.n))
    # Diverging columns overflow on purpose; they are caught by the finiteness test.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, p, chunk):
            cols = np.arange(start, min(start + chunk, p))
            w = params[cols, None]
            X = np.tile(x0, (len(cols), 1))
            Y = np.tile(y0, (len(cols), 1))
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
    x0, y0 = cfg.initial_vectors(problem.n)
    res_history: list[float] = []
    iterate_history = [] if cfg.capture_history else None
    last = []

    def observe(X, Y, res):
        res_history.append(float(res[0]))
        last[:] = [X[0].copy(), Y[0].copy()]
        if iterate_history is not None:
            iterate_history.append(tuple(last))

    stops = iterate_block(problem, f, method, [cfg.parameter], cfg.tol, cfg.k_max, x0, y0, observe)
    k = int(stops.iterations[0])
    if stops.diverged[0]:
        raise DivergenceError(k)
    x, y = last
    return SolveReport(bool(stops.converged[0]), k, float(stops.res[0]), x, y, res_history, iterate_history)


def solve_sor_like(problem: AveProblem, f: FactorHandle, cfg: SolveConfig) -> SolveReport:
    """SOR-like iteration: x <- (1-w)x + w A^{-1}(y+b); y <- (1-w)y + w|x|."""
    return _solve(problem, f, cfg, "sor")


def solve_fpi(problem: AveProblem, f: FactorHandle, cfg: SolveConfig) -> SolveReport:
    """Fixed-point iteration: x <- A^{-1}(y+b); y <- (1-t)y + t|x|."""
    return _solve(problem, f, cfg, "fpi")
