"""Closed-form parameter theory for the two AVE iterations.

Everything here is a function of the iteration parameter (omega for the
SOR-like scheme, tau for the fixed-point scheme; rho_U, fpi_least_steps and
fpi_most_steps also take an array of tau) and of nu = ||A^{-1}||_2. The
convergence ranges come from requiring the spectral radius of the 2x2
bounding matrix (W for SOR-like, U for FPI) to stay below one; through U,
fpi_least_steps and fpi_most_steps bound the FPI count from both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# The analytical optimum of both iterations, omega = tau = 1, where `--param optimal` solves and the sweep starts.
PAPER_OPTIMUM = 1.0


@dataclass(frozen=True)
class ParamRange:
    """Open interval of admissible parameters; may be empty."""

    lower: float = 0.0
    upper: float = 0.0
    empty: bool = False

    def __post_init__(self):
        if not self.empty and not self.lower < self.upper:
            raise DomainError("nonempty range requires lower < upper")

    def contains(self, value: float) -> bool:
        return not self.empty and self.lower < value < self.upper


def _check_nu(nu: float) -> None:
    if not 0.0 < nu < 1.0:
        raise DomainError(f"nu = {nu} outside (0, 1); the sufficient theory does not apply")


def _check_positive(names: str, *values: float | np.ndarray) -> None:
    """DomainError unless every value (every entry of an array) is positive and finite; NaN and inf are none."""
    if not all(np.all(np.isfinite(v) & (np.asarray(v) > 0)) for v in values):
        raise DomainError(f"{names} must be positive and finite")


def range_sor_new(nu: float) -> ParamRange:
    """Admissible omega for the SOR-like iteration: (0, (2 - 2*sqrt(nu)) / (1 - nu))."""
    _check_nu(nu)
    return ParamRange(0.0, (2.0 - 2.0 * math.sqrt(nu)) / (1.0 - nu))


def range_fpi_new(nu: float) -> ParamRange:
    """Admissible tau for the fixed-point iteration: (0, 2 / (nu + 1))."""
    _check_nu(nu)
    return ParamRange(0.0, 2.0 / (nu + 1.0))


def range_fpi_old(nu: float) -> ParamRange:
    """Legacy FPI range; empty once nu >= sqrt(2)/2."""
    _check_nu(nu)
    if nu >= math.sqrt(2.0) / 2.0:
        return ParamRange(empty=True)
    s = math.sqrt(1.0 - nu * nu)
    return ParamRange((1.0 - s) / (1.0 - nu), (1.0 + s) / (1.0 + nu))


def check_kema_condition(omega: float, nu: float) -> bool:
    """Legacy sufficient condition for the SOR-like iteration (quartic in |1-omega|)."""
    _check_positive("omega and nu", omega, nu)
    if not omega < 2.0:
        return False
    a = abs(1.0 - omega)
    d = omega * omega * nu
    return a**4 - 3 * a**2 - 2 * a * d - 2 * d**2 + 1 > 0


def rho_W(omega: float, nu: float) -> float:
    """Spectral radius of W = [[|1-w|, w*nu], [w*|1-w|, w^2*nu + |1-w|]]."""
    return 0.5 * g_nu_sor(omega, nu)


def g_nu_sor(omega: float, nu: float) -> float:
    """2 * rho(W) as a function of omega; minimized at omega = 1."""
    _check_positive("omega and nu", omega, nu)
    a = abs(1.0 - omega)
    # 4*a*nu + (w*nu)^2 >= 0 for all inputs, so no case split is needed.
    return 2.0 * a + omega * omega * nu + omega * math.sqrt(4.0 * a * nu + omega * omega * nu * nu)


def rho_U(tau: float | np.ndarray, nu: float) -> float | np.ndarray:
    """Spectral radius of the triangular U: tau*nu + |1 - tau|."""
    _check_positive("tau and nu", tau, nu)
    return tau * nu + abs(1.0 - tau)


def fpi_least_steps(tau: float | np.ndarray, nu: float, res_1: float, tol: float | np.ndarray) -> float | np.ndarray:
    """k_low: the least step k at which FPI's RES, from zero start vectors, can reach tol; inf if never.

    The paper's 2x2 argument run the other way. With e^y_k = y_k - |x*|, A e^x_k = e^y_{k-1} and
    ||(|x_k| - |x*|)|| <= ||e^x_k|| <= nu ||e^y_{k-1}||, so
    ||e^y_k|| = ||(1 - tau) e^y_{k-1} + tau (|x_k| - |x*|)|| >= c ||e^y_{k-1}||, c = |1 - tau| - tau nu,
    and the residual r_k = e^y_{k-1} - (|x_k| - |x*|) has (1 - nu) ||e^y_{k-1}|| <= ||r_k|| <= (1 + nu) ||e^y_{k-1}||.
    From k = 1 (e^y_0 = -|x*|, x_1 = A^{-1} b, RES_1 = ||A^{-1} b|| / ||b||), while c >= 0:

        RES_k >= (1 - nu) / (1 + nu) * c^(k-1) * RES_1.

    Both factors fall as nu grows, so an upper bound on nu keeps the floor valid. Returns the least k
    at which this floor is at most tol (inf when c >= 1 and it never falls to tol), less a relative 1e-9
    on the logarithms so that their rounding never raises it. nu must lie in (0, 1). An array of tau (or
    of tol) gives an array of steps, one per entry.
    """
    _check_positive("tau, res_1 and tol", tau, res_1, tol)
    _check_nu(nu)
    floor = (1.0 - nu) / (1.0 + nu) * res_1  # at k = 1
    c = np.abs(1.0 - tau) - tau * nu
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = np.log(tol / floor) / np.log(c)  # k - 1 at which the floor meets tol
    return np.select([floor <= tol, c <= 0.0, c >= 1.0], [1, 2, np.inf], 1 + np.ceil(steps * (1.0 - 1e-9)))[()]


def fpi_most_steps(tau: float | np.ndarray, nu: float, res_1: float, tol: float | np.ndarray) -> float | np.ndarray:
    """k_up: a step k by which FPI's RES, from zero start vectors, has reached tol; inf if rho(U) >= 1.

    The paper's 2x2 argument, with the errors of :func:`fpi_least_steps`. From zero, the residual
    r_k = e^y_{k-1} - (|x_k| - |x*|) has ||r_k|| <= (1 + nu) ||e^y_{k-1}||, the paper's contraction gives
    ||e^y_k|| <= rho(U) ||e^y_{k-1}||, and x* = A^{-1} (|x*| + b) gives ||e^y_0|| = ||x*|| <= ||A^{-1} b|| / (1 - nu).
    Together, with RES_1 = ||A^{-1} b|| / ||b||:

        RES_k <= (1 + nu) / (1 - nu) * rho(U)^(k-1) * RES_1.

    Both factors grow with nu, so an upper bound on nu keeps the bound valid. Returns the least k at
    which this bound is at most tol, plus a relative 1e-9 on the logarithms so that their rounding never
    lowers it. nu must lie in (0, 1). An array of tau (or of tol) gives an array of steps, one per entry.
    """
    _check_positive("tau, res_1 and tol", tau, res_1, tol)
    _check_nu(nu)
    ceiling = (1.0 + nu) / (1.0 - nu) * res_1  # at k = 1
    rho = rho_U(tau, nu)
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = np.log(tol / ceiling) / np.log(rho)  # k - 1 at which the bound meets tol
    return np.select([ceiling <= tol, rho >= 1.0], [1, np.inf], 1 + np.ceil(steps * (1.0 + 1e-9)))[()]


def optimal_sor(nu: float) -> float:
    """Minimizer of g_nu over the new SOR range; identically PAPER_OPTIMUM."""
    _check_nu(nu)
    return PAPER_OPTIMUM


def optimal_fpi(nu: float) -> float:
    """Minimizer of rho(U) over the new FPI range; identically PAPER_OPTIMUM."""
    _check_nu(nu)
    return PAPER_OPTIMUM


def _g1(omega: float, nu: float) -> float:
    # Derivative-based expression whose root in (0,1) is the prior-work optimum.
    p = 3.0 * (omega - 1.0) ** 2 + 2.0 * nu**2 * omega**4 + 2.0 * nu * omega**2 * (1.0 - omega)
    q = 6.0 * (omega - 1.0) + 8.0 * nu**2 * omega**3 + 2.0 * nu * (2.0 * omega - 3.0 * omega**2)
    return q + (p * q - 8.0 * (omega - 1.0) ** 3) / math.sqrt(p * p - 4.0 * (omega - 1.0) ** 4)


def chen_opt_omega(nu: float) -> float:
    """Prior-work optimal omega: 1 for nu <= 1/4, otherwise the root of _g1 in (0, 1], to 1e-10.

    Bisection on [0, 1] needs no bracket check: for every nu > 1/4, _g1(0) = -6 - 10/sqrt(5) < 0 and
    _g1(1) = 4 nu (4 nu - 1) > 0 (in floats too, even at the next double above 1/4). _g1 is defined on
    the whole bracket: p - 2 (omega - 1)^2 >= (omega - 1)^2 + 2 nu^2 omega^4 > 0 there, so the square
    root's argument p^2 - 4 (omega - 1)^4 is positive.
    """
    _check_nu(nu)
    if nu <= 0.25:
        return 1.0
    lo, hi = 0.0, 1.0  # _g1(lo) < 0 < _g1(hi)
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if _g1(mid, nu) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ParamEnvelope:
    """All ranges and optimal parameters derived from a single nu in (0, 1)."""

    nu: float
    range_sor_new: ParamRange
    range_fpi_new: ParamRange
    range_fpi_old: ParamRange
    omega_nopt: float
    tau_opt: float
    omega_chen_opt: float

    @classmethod
    def from_nu(cls, nu: float) -> "ParamEnvelope":
        _check_nu(nu)
        return cls(
            nu=nu,
            range_sor_new=range_sor_new(nu),
            range_fpi_new=range_fpi_new(nu),
            range_fpi_old=range_fpi_old(nu),
            omega_nopt=optimal_sor(nu),
            tau_opt=optimal_fpi(nu),
            omega_chen_opt=chen_opt_omega(nu),
        )
