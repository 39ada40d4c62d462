"""Grid search for numerically optimal parameters and convergence-domain data.

A sweep runs every grid point as one column of a block iteration
(:func:`avesolve.solvers.iterate_block`): each step does one multi-RHS
factor-solve for all running columns. Two searches share it:

- :func:`grid_search` tabulates every grid point's iteration count: each
  column stops on its own when it converges, diverges or reaches k_max.
- :func:`grid_argmin` finds only the first grid point attaining the least
  count, the same one grid_search finds: it starts next to the analytical
  optimum 1 and stops each chunk of columns at its first converged step.

A grid with no converged point is a result, not an error: its best point is None.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .linalg import FactorHandle, factorize
from .params import range_fpi_new, range_fpi_old, range_sor_new
from .problems import AveProblem
from .solvers import SolveConfig, iterate_block


def default_grid() -> np.ndarray:
    """The sweep grid 0.001, 0.002, ..., 1.999."""
    return np.round(np.arange(1, 2000) * 0.001, 3)


@dataclass(frozen=True)
class SweepResult:
    grid: np.ndarray
    iterations: np.ndarray  # sentinel k_max + 1 marks non-convergence
    best_param: float | None  # None when no grid point converged
    min_it: int | None
    sentinel: int


def _sweep(
    problem: AveProblem,
    method: str,
    grid: np.ndarray | None,
    cfg: SolveConfig | None,
    f: FactorHandle | None,
    argmin: bool,
) -> tuple[np.ndarray, np.ndarray, int, tuple[float, int] | None]:
    """The validated grid, its iteration counts (sentinel where not converged), the sentinel and
    (best_param, min_it) of the first grid point attaining the least count, None if none converged."""
    if method not in ("sor", "fpi"):
        raise DomainError(f"unknown method '{method}'")
    grid = default_grid() if grid is None else np.asarray(grid, dtype=np.float64)
    if len(grid) == 0:
        raise DomainError("grid must be nonempty")
    if not np.all(np.isfinite(grid)) or np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
        raise DomainError("grid must be finite, positive and strictly ascending")
    base = cfg if cfg is not None else SolveConfig(parameter=1.0)
    if f is None:
        f = factorize(problem.A)
    zeros = np.zeros(problem.n)
    stops = iterate_block(problem, f, method, grid, base.tol, base.k_max, zeros, zeros, argmin=argmin)
    sentinel = base.k_max + 1
    its = np.where(stops.converged, stops.iterations, sentinel)
    best = int(np.argmin(its))
    return grid, its, sentinel, (float(grid[best]), int(its[best])) if stops.converged[best] else None


def grid_search(
    problem: AveProblem,
    method: str,
    grid: np.ndarray | None = None,
    cfg: SolveConfig | None = None,
    f: FactorHandle | None = None,
) -> SweepResult:
    """Run the chosen solver at every grid point from zero starting vectors.

    best_param is the first grid point attaining the minimal iteration count, min_it that count;
    both are None when no grid point converged.
    """
    grid, its, sentinel, best = _sweep(problem, method, grid, cfg, f, argmin=False)
    return SweepResult(grid, its, *(best or (None, None)), sentinel)


def grid_argmin(
    problem: AveProblem,
    method: str,
    grid: np.ndarray | None = None,
    cfg: SolveConfig | None = None,
    f: FactorHandle | None = None,
) -> tuple[float, int] | None:
    """(best_param, min_it) of :func:`grid_search`, without running every point to its end.

    None exactly when grid_search finds no converged grid point.
    """
    return _sweep(problem, method, grid, cfg, f, argmin=True)[3]


def domain_curves(nu_grid: np.ndarray) -> list[dict]:
    """Range boundaries per nu: the data behind the convergence-domain figures."""
    rows = []
    for nu in np.asarray(nu_grid, dtype=np.float64):
        r_sor = range_sor_new(nu)
        r_new = range_fpi_new(nu)
        r_old = range_fpi_old(nu)
        rows.append(
            {
                "nu": float(nu),
                "sor_new_hi": r_sor.upper,
                "fpi_new_hi": r_new.upper,
                "fpi_old_lo": float("nan") if r_old.empty else r_old.lower,
                "fpi_old_hi": float("nan") if r_old.empty else r_old.upper,
                "fpi_old_empty": r_old.empty,
            }
        )
    return rows
