"""Grid search for numerically optimal parameters and convergence-domain data.

The sweep runs every grid point as one column of a single block iteration
(:func:`avesolve.solvers.iterate_block`): each step does one multi-RHS
factor-solve for all running columns, and each column stops on its own when
it converges, diverges or reaches k_max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoConvergentParameter
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
    best_param: float
    min_it: int
    sentinel: int


def grid_search(
    problem: AveProblem,
    method: str,
    grid: np.ndarray | None = None,
    cfg: SolveConfig | None = None,
    f: FactorHandle | None = None,
) -> SweepResult:
    """Run the chosen solver at every grid point from zero starting vectors.

    All grid points run together as the columns of one block iteration.
    best_param is the first grid point attaining the minimal iteration count.
    """
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
    stops = iterate_block(problem, f, method, grid, base.tol, base.k_max, zeros, zeros)
    sentinel = base.k_max + 1
    its = np.where(stops.converged, stops.iterations, sentinel)
    if np.all(its == sentinel):
        raise NoConvergentParameter("no grid point converged")
    min_it = int(its.min())
    best = float(grid[int(np.argmin(its))])
    return SweepResult(grid, its, best, min_it, sentinel)


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
