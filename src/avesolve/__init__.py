"""Iterative solvers and parameter theory for absolute value equations Ax - |x| = b."""

from .errors import (
    AveError,
    ConvergenceFailure,
    DimensionMismatch,
    DomainError,
    NotPositiveDefinite,
    ParseError,
    SymmetryError,
)
from .linalg import (
    FactorHandle,
    SparseSpdMatrix,
    estimate_inv_norm,
    factorize,
    matvec,
)
from .params import (
    ParamEnvelope,
    ParamRange,
    check_kema_condition,
    chen_opt_omega,
    fpi_least_steps,
    fpi_most_steps,
    g_nu_sor,
    optimal_fpi,
    optimal_sor,
    range_fpi_new,
    range_fpi_old,
    range_sor_new,
    rho_U,
    rho_W,
)
from .problems import (
    AveProblem,
    alternating_xstar,
    build_rhs,
    gen_lattice,
    load_matrix_market,
    save_matrix_market,
)
from .solvers import SolveConfig, SolveReport, residual, solve_fpi, solve_sor_like
from .sweep import SweepResult, default_grid, domain_curves, grid_argmin, grid_search

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
