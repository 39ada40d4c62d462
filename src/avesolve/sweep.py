"""Grid search for numerically optimal parameters and convergence-domain data.

One Krylov basis serves the whole grid (:func:`_krylov_counts`): while the
iterates keep the sign pattern of A^{-1} b, both iterations are linear, and
every grid point advances as a short row of coefficients on one basis built
with one solve per step, and as many steps as an undecided point needs. A
grid point's count is taken from it only where a stated rounding margin
certifies that the direct iteration stops at the same step. Every other grid
point runs in the direct block iteration
(:func:`avesolve.solvers.iterate_block`), from zero, as one column of a
multi-RHS factor-solve per step, in chunks of consecutive points
(:func:`_chunks`) sized by BLOCK_BYTES, nearest the analytical optimum 1 first.
The Krylov pass runs every grid point it is given at once, and forms the
iterates of its sign check only where a bound from a neighbouring anchor
column misses. Two searches share this:

- :func:`grid_search` tabulates every grid point's iteration count: each
  column stops on its own when it converges, diverges or reaches k_max.
- :func:`grid_argmin` finds only the first grid point attaining the least
  count k*, the same one grid_search finds. For FPI with nu_hat < 1 it first
  takes a cap K >= k* from the paper's k_up (:func:`_fpi_cap`) and drops the
  points whose RES floor (:func:`avesolve.params.fpi_least_steps`) stays above
  tol through K; otherwise K = k_max. The Krylov pass runs the rest and stops
  at k*, the least step at which a certified column converges, or at K. A
  direct chunk runs at most k* steps if it starts before the grid point
  attaining k* (it can still tie and win on index), at most k* - 1 if it
  starts after it (K while none is certified), and not at all when that is 0.
  It first drops the points that cannot converge that soon: by the same floor
  at that cap, and for either method, where A^{-1} fits one block (n <= 128),
  those whose RES stays above tol on an iterate formed with a dense inverse,
  less a bound on its error that the paper's W (U for FPI) propagates
  (:func:`_screen`). The columns left run in the direct block iteration.

A grid with no converged point is a result, not an error: its best point is None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .linalg import FactorHandle, _norm, _real, factorize, matvec
from .params import (PAPER_OPTIMUM, fpi_least_steps, fpi_most_steps, range_fpi_new, range_fpi_old, range_sor_new,
                     rho_U)
from .problems import AveProblem
from .solvers import _residuals, check_method, check_stop_rule, iterate_block


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


# Direct columns are run in chunks small enough that one n x chunk block of iterates stays below this many
# bytes (one column when a single one is larger). A step keeps about ten such blocks alive, so this bounds the
# memory a sweep adds; on lattices 8 and 32, blocks from 64 KiB to 32 MiB ran the sweep equally fast. The
# Krylov pass forms its iterates x_k = V c_k for the sign check in pieces of the same bound.
BLOCK_BYTES = 128 * 2**10

# The Krylov sign check forms the iterate of one anchor column per run of this many neighbouring running
# columns; the others pass on a bound from their anchor's iterate and are formed only where it misses.
ANCHOR_RUN = 16

# The dense-inverse screen (_screen) forms each p x n by n x n product in pieces of at most this many
# multiply-adds, below which OpenBLAS runs a gemm on one thread: a woken second thread would spin through the
# rest of the step, and a 256-row piece at n = 64 took 18 ms of CPU for 9.7 ms of wall time.
_ONE_THREAD_MADDS = 2**18

_EPS = np.finfo(np.float64).eps
# A column whose (1 + w)(||A|| + 1)||coefficients|| reaches this leaves the certified path: below it,
# no product the direct iteration forms can overflow where the Krylov one does not, or the reverse.
_HEADROOM = _EPS * np.finfo(np.float64).max


def _chunks(grid: np.ndarray, rows: int) -> list[np.ndarray]:
    """Index runs of up to ``rows`` consecutive grid points for the direct path: the run holding the point
    nearest PAPER_OPTIMUM first, then the others by distance from it."""
    home = int(np.argmin(np.abs(grid - PAPER_OPTIMUM))) // rows * rows if len(grid) else 0
    starts = sorted(range(0, len(grid), rows), key=lambda start: abs(start - home))
    return [np.arange(start, min(start + rows, len(grid))) for start in starts]


def _orthogonalize(Q: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(h, w - Q^T h, its norm): w against the rows of Q by two Gram-Schmidt passes."""
    h = np.zeros(len(Q))
    for _ in range(2):
        step = Q @ w
        w = w - step @ Q
        h += step
    return h, w, float(np.linalg.norm(w))


def _least_signed(C: np.ndarray, V: np.ndarray, d: np.ndarray, rows: int) -> np.ndarray:
    """min_i d_i x_i of every iterate x = c V, c a row of C, formed ``rows`` iterates at a time."""
    return np.concatenate([np.min((C[i:i + rows] @ V) * d, axis=1) for i in range(0, len(C), rows)] or [[]])


def _grown(X: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """New zeros of ``shape`` with X copied into their leading corner: the one way the Krylov state grows."""
    Y = np.zeros(shape)
    Y[:X.shape[0], :X.shape[1]] = X
    return Y


def _krylov_start(problem: AveProblem, f: FactorHandle) -> tuple[float | None, np.ndarray | None, float | None]:
    """(nu_hat, u = A^{-1} b, ||A||), what the Krylov pass, the FPI floor and the screen start from: an upper
    bound on nu (``A.inv_norm_bound``, taken once per matrix) and, where there is one, the solve and the upper
    end of ``A.gershgorin``, which inv_norm_bound has read, as the bound on ||A||; (None, None, None) without."""
    nu_bound = problem.A.inv_norm_bound
    if nu_bound is None:
        return None, None, None
    return nu_bound, f.solve(problem.b), problem.A.gershgorin[1]


def _margin(k: int, nu_bound: float, norm_A: float, norm_x: float | np.ndarray, norm_b: float) -> float | np.ndarray:
    """margin_k = 2 k eps nu_hat ((||A|| + 1) ||x_k|| + ||b||), nu_hat = max(1, nu_bound): how far rounding may
    move the direct iterate and its residual from the exact ones after k steps (:func:`_krylov_counts`)."""
    return k * (2 * _EPS * max(1.0, nu_bound)) * ((norm_A + 1.0) * norm_x + norm_b)


def _krylov_counts(problem: AveProblem, f: FactorHandle, method: str, grid: np.ndarray, tol: float, k_max: int,
                   argmin: bool, start: tuple[float | None, np.ndarray | None, float | None],
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Iteration counts of the grid points whose direct iterates one Krylov basis certifies.

    While every iterate keeps the sign pattern D = diag(sign u) of u = A^{-1} b, both iterations are
    linear in x, and from zero start vectors x_k = V c_k and y_k = D V g_k lie in the Krylov space of
    A^{-1} D and u, whatever the parameter w. Arnoldi builds V and H (A^{-1} D V = V H), one solve
    per step, and every grid point advances as a row of coefficients:

    - FPI: c_k = beta e_1 + H g_{k-1}, g_k = (1 - w) g_{k-1} + w c_k;
    - SOR: c_k = (1 - w) c_{k-1} + w (beta e_1 + H g_{k-1}), g_k = (1 - w) g_{k-1} + w c_k.

    RES_k = ||R [-1; c_k]|| / norm_b, the direct RES's divisor, with Q R = [b, (A - D) V] grown one column per
    step. A basis that stops growing spans an invariant space, in which H is exact and the iteration goes on.

    The direct iterate and its RES differ from these by rounding, at most about :func:`_margin`'s
    margin_k = 2 k eps nu_hat ((||A|| + 1) ||x_k|| + ||b||), ||A|| the Gershgorin bound and nu_hat
    the larger of 1 and an upper bound on nu = ||A^{-1}|| (``A.inv_norm_bound``):
    each step adds a backward-stable solve, whose error is about eps ||A|| nu ||x_k||, and the
    rounding of a residual. Measured on lattices 8 and 32 and Trefethen 200b and 2000b, the
    differences in x and in RES near tol stay below 4 % of that. Without a bound on nu no column is
    certified. A column's count stands (certified) only if at every step up to the one deciding it:

    - every d_i x_i exceeds margin_k, so the direct iterate has the signs of D;
    - |RES_k - tol| exceeds margin_k / ||b||, so the direct RES is on the same side of tol;
    - its coefficients are finite and below _HEADROOM.

    A column is decided at its first RES <= tol (count k), at k_max (not converged) or, with
    ``argmin``, at k*, the least step at which a certified column converges: no other column can
    then beat it on count. The basis gains one vector per step until it is invariant (m = n at the
    latest), so it holds m <= min(k, n) vectors, and all p grid points advance in one p x m block of
    coefficient rows. :func:`_grown` doubles V, H, Q and R when V is full, up to min(k_max, n) rows,
    and widens the rows by a zero column per new vector; zeros are calloc'd, so V costs memory only for
    the vectors built, never k_max x n.

    The sign check forms x_k = V c_k only for the first column a of each run of ANCHOR_RUN running
    columns (neighbouring grid points). For every i, |(x_j - x_a)_i| <= ||c_j - c_a|| ||V[:m, i]||, so a
    column j whose bound

        min_i d_i x_{a,i} - ||c_j - c_a|| max_i ||V[:m, i]|| - 4 (m + 1) eps (||c_j|| + ||c_a||)

    exceeds margin_k would pass the formed check too. The last term is the rounding slack: each of the
    two products x = c V is formed to within m eps ||c|| ||V[:m, i]|| in any summation order, with
    ||V[:m, i]|| <= 1 for orthonormal rows, and the rest covers the bound's own norms and subtractions.
    Only the columns that miss the bound are formed, in pieces of BLOCK_BYTES, so the certified set
    is the one the formed check alone gives. ``start`` is :func:`_krylov_start`'s result. Returns the
    counts (k_max + 1 where not converged) and the certified mask; every other column is for
    :func:`avesolve.solvers.iterate_block` to run.
    """
    n, b, A = problem.n, problem.b, problem.A
    p = len(grid)
    its = np.full(p, k_max + 1)
    certified = np.zeros(p, dtype=bool)
    nu_bound, u, norm_A = start
    if nu_bound is None:
        return its, certified
    beta = float(np.linalg.norm(u))
    if not beta > 0:
        return its, certified  # b = 0: the direct iteration reports it
    d = np.sign(u)
    norm_b = problem.norm_b
    V, H = np.zeros((1, n)), np.zeros((1, 1))
    Q, R = np.zeros((2, n)), np.zeros((2, 2))
    V[0] = u / beta
    Q[0], R[0, 0] = b / norm_b, norm_b
    column_sq = V[0] ** 2  # ||V[:m, i]||^2 for every i

    def add_residual_column(j):
        column = matvec(A, V[j - 1]) - d * V[j - 1]
        R[:j, j], q, norm = _orthogonalize(Q[:j], column)
        if norm > j * _EPS * np.linalg.norm(column):  # else the column lies in span Q: R[j, j] = 0, Q[j] = 0
            R[j, j], Q[j] = norm, q / norm

    add_residual_column(1)
    m, invariant = 1, False
    sign_rows = max(1, BLOCK_BYTES // (8 * n))  # iterates per piece of the sign check
    cols, w = np.arange(p), grid[:, None]
    C = G = np.zeros((p, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, k_max + 1):
            if m < k and not invariant:
                z = f.solve(d * V[m - 1])
                h, z_perp, norm = _orthogonalize(V[:m], z)
                H[:m, m - 1] = h
                if m == n or norm <= m * _EPS * np.linalg.norm(z):
                    invariant = True
                else:
                    if m == len(V):  # full: double V, H, Q and R, up to the most the basis can need
                        rows = min(2 * m, k_max, n)
                        V, H = _grown(V, (rows, n)), _grown(H, (rows, rows))
                        Q, R = _grown(Q, (rows + 1, n)), _grown(R, (rows + 1, rows + 1))
                    H[m, m - 1], V[m] = norm, z_perp / norm
                    column_sq += V[m] ** 2
                    m += 1
                    add_residual_column(m)
            S = G @ H[:m, :G.shape[1]].T
            S[:, 0] += beta
            if C.shape[1] < m:  # one more basis vector: widen the coefficient rows by a zero column
                C, G = _grown(C, (len(C), m)), _grown(G, (len(G), m))
            C = (1.0 - w) * C + w * S if method == "sor" else S
            G = (1.0 - w) * G + w * C
            # sqrt(np.add.reduce(X * X)) is np.linalg.norm(X, axis=1) for real X, bit for bit, without its checks
            norm_x, norm_g = np.sqrt(np.add.reduce(C * C, axis=1)), np.sqrt(np.add.reduce(G * G, axis=1))
            margin = _margin(k, nu_bound, norm_A, norm_x, norm_b)
            res = np.linalg.norm(C @ R[:m + 1, 1:m + 1].T - R[:m + 1, 0], axis=1) / norm_b
            ok = (1.0 + w[:, 0]) * (norm_A + 1.0) * np.maximum(norm_x, norm_g) < _HEADROOM
            ok &= np.abs(res - tol) * norm_b > margin
            run = np.arange(len(C)) // ANCHOR_RUN
            anchor = run * ANCHOR_RUN  # the first row of each row's run
            bound = (_least_signed(C[::ANCHOR_RUN], V[:m], d, sign_rows)[run]
                     - np.linalg.norm(C - C[anchor], axis=1) * np.sqrt(column_sq.max())
                     - 4 * (m + 1) * _EPS * (norm_x + norm_x[anchor]))
            miss = ok & ~(bound > margin)
            ok[miss] = _least_signed(C[miss], V[:m], d, sign_rows) > margin[miss]
            good = ok & (res <= tol)
            its[cols[good]] = k
            done = ok if k == k_max or (argmin and good.any()) else good
            certified[cols[done]] = True
            keep = ok & ~done
            if not keep.any():
                break
            if not keep.all():
                cols, w, C, G = cols[keep], w[keep], C[keep], G[keep]
    return its, certified


def _beyond_floor(taus: np.ndarray, cap: int, tol: float, nu_bound: float, res_1: float, norm_A: float) -> np.ndarray:
    """Mask of the FPI grid points ``taus`` whose RES stays above tol through step ``cap`` by the floor of
    :func:`avesolve.params.fpi_least_steps`, for nu_hat = nu_bound < 1 and RES_1 = ||A^{-1} b|| / ||b||.

    The floor is that of the exact iteration. Before it is compared with tol it is reduced by the direct
    RES's rounding, margin_cap / ||b|| (:func:`_margin` at ||b|| = 1 and ||x_k|| / ||b||), with ||x_k||
    bounded through ||x_k|| <= ||x*|| + nu ||e^y_{k-1}|| <= (1 + nu rho^(k-1)) ||x*||, rho = max(1, rho(U))
    (the paper's contraction, ||e^y_k|| <= rho(U) ||e^y_{k-1}||) and ||x*|| = ||e^y_0|| <= RES_1 ||b|| / (1 - nu).
    A point whose slack overflows is kept.
    """
    with np.errstate(over="ignore"):
        growth = np.maximum(1.0, rho_U(taus, nu_bound)) ** (cap - 1)
        x_over_b = (1.0 + nu_bound * growth) * res_1 / (1.0 - nu_bound)  # bound on ||x_k|| / ||b||, k <= cap
        slack = _margin(cap, nu_bound, norm_A, x_over_b, 1.0)
    finite = np.isfinite(slack)
    return finite & (fpi_least_steps(taus, nu_bound, res_1, tol + np.where(finite, slack, 0.0)) > cap)


def _fpi_cap(grid: np.ndarray, tol: float, k_max: int, nu_bound: float, res_1: float, norm_A: float) -> int:
    """K, at most k_max: the least k at which the bound of :func:`avesolve.params.fpi_most_steps` at the grid's
    least rho = rho(U), plus the direct RES's rounding margin_k / ||b||, is at most tol; the direct count of
    that grid point, and so the argmin's, is then at most K. margin_k is :func:`_margin`'s at
    ||x_k|| <= ||x*|| + nu ||e^y_{k-1}|| <= 2 ||x*|| <= 2 RES_1 ||b|| / (1 - nu_hat). The bound alone stays above tol
    before k_up; past it the sum, a falling geometric term plus a rising line, is convex in k, so once a step
    does not lower it no later step brings it to tol.
    """
    rho = rho_U(grid, nu_bound)
    j = int(np.argmin(rho))
    x_over_b = 2.0 * res_1 / (1.0 - nu_bound)

    def bound(k):
        return (1 + nu_bound) / (1 - nu_bound) * rho[j] ** (k - 1) * res_1 + _margin(k, nu_bound, norm_A, x_over_b, 1)

    k = fpi_most_steps(grid[j], nu_bound, res_1, tol)
    while k <= k_max and bound(k) > tol:
        if bound(k + 1) >= bound(k):
            return k_max
        k += 1
    return int(min(k, k_max))


def _dense_inverse(problem: AveProblem, f: FactorHandle, nu_bound: float, norm_A: float,
                   ) -> tuple[np.ndarray, float]:
    """(M, s) for :func:`_screen`: M = f.solve(I), whose row i approximates A^{-1} e_i, and s, a bound on
    ||fl(r M) - A^{-1} (y + b)|| / (||y|| + ||b||) for r = fl(y + b), any row y and nu_hat = max(1, nu_bound).

    r M - A^{-1} r = A^{-1} (A M^T - I) r, so with theta >= ||A M^T - I||_F, s_0 = nu_hat theta + 1.01 n eps ||M||_F
    bounds ||fl(r M) - A^{-1} r|| / ||r||, the last term the rounding of the product, and
    theta = ||fl(A M^T) - I||_F + 4 n eps (||A|| ||M||_F + sqrt n) covers the rounding of the sparse product and
    of the subtraction; ||A|| is the Gershgorin bound. The sum r moves A^{-1} r by at most nu eps ||y + b||,
    and ||r|| <= (1 + eps)(||y|| + ||b||), so s = (1 + eps) s_0 + nu_hat eps.
    """
    n, nu_hat = problem.n, max(1.0, nu_bound)
    M = f.solve(np.eye(n))
    norm_M = _norm(M.ravel())
    theta = _norm((matvec(problem.A, M) - np.eye(n)).ravel()) + 4 * n * _EPS * (norm_A * norm_M + math.sqrt(n))
    return M, (1 + _EPS) * (nu_hat * theta + 1.01 * n * _EPS * norm_M) + nu_hat * _EPS


def _screen(problem: AveProblem, method: str, params: np.ndarray, cap: int, tol: float,
            inverse: tuple[np.ndarray, float], nu_bound: float, norm_A: float) -> np.ndarray:
    """Mask of the columns ``params`` whose direct RES stays above tol through step ``cap``, shown on the
    iterate that :func:`_dense_inverse`'s M gives in place of each solve and a bound on its error.

    Each column runs the update of :func:`avesolve.solvers.iterate_block` with z~ = (y~ + b) M and carries
    (E^x_k, E^y_k), a bound on its distance from the exact iterate (x_k, y_k). With nu_hat = max(1, nu_bound),
    a = |1 - w|, s from :func:`_dense_inverse` and rnd(u, v) = 3 eps (1 + w) max(||u||, ||v||), the rounding of
    one update:

    - SOR: E^x_k = a E^x_{k-1} + w (nu_hat E^y_{k-1} + s (||y~_{k-1}|| + ||b||)) + rnd(x~_k, z~_k);
    - FPI: E^x_k = nu_hat E^y_{k-1} + s (||y~_{k-1}|| + ||b||) + rnd(x~_k, z~_k);
    - both: E^y_k = a E^y_{k-1} + w E^x_k + rnd(x~_k, y~_k),

    which, substituted into each other, is the recursion of the paper's W (U for FPI). Every norm of a block
    column is taken as sqrt(n) max_i |.|, per column. A column is dropped only if at every step k <= cap

        RES~_k - [(||A|| + 1) E^x_k + 4 n eps ((||A|| + 1) ||x~_k|| + ||b||) + margin_k] / ||b|| > tol,

    RES~_k the computed RES of x~_k, whose rounding the middle term covers, and margin_k :func:`_margin`'s at
    ||x_k|| <= ||x~_k|| + E^x_k: the residual moves by at most (||A|| + 1) ||x~_k - x_k||. A non-finite value
    keeps its column. Each product (y~ + b) M is formed in pieces of at most _ONE_THREAD_MADDS multiply-adds,
    and a step releases z~ and |x~| once it has used them: the lattice 8 SOR argmin then peaks at no more
    memory than iterate_block took for the same columns.
    """
    M, s = inverse
    n, b, norm_b = problem.n, problem.b, problem.norm_b
    sor, nu_hat, root_n = method == "sor", max(1.0, nu_bound), math.sqrt(n)
    piece = max(1, _ONE_THREAD_MADDS // n**2)
    # Grid point j is column j of each n x p block: a column's norm then reduces over contiguous rows, and
    # A X takes the block as it is.
    cols, w = np.arange(len(params)), params
    X = Y = np.zeros((n, len(params)))
    Ex = Ey = norm_y = np.zeros(len(params))
    b = b[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, cap + 1):
            v = 1.0 - w
            Z = np.empty_like(Y)
            for j in range(0, len(cols), piece):  # y~ + b is formed a piece at a time, never as a whole block
                np.matmul(M.T, Y[:, j:j + piece] + b, out=Z[:, j:j + piece])
            # sqrt(n) max_i |T_i| >= ||T||_2 of every column, with no BLAS call
            norm_z = root_n * np.abs(Z).max(axis=0)
            X = v * X + w * Z if sor else Z
            del Z
            abs_x = np.abs(X)
            norm_x = root_n * abs_x.max(axis=0)
            z_error = nu_hat * Ey + s * (norm_y + norm_b)  # bounds ||z~_k - z_k||, norm_y still of y~_{k-1}
            Y = v * Y + w * abs_x
            del abs_x
            norm_y = root_n * np.abs(Y).max(axis=0)
            a, rnd = np.abs(v), 3 * _EPS * (1.0 + w)
            Ex = (a * Ex + w * z_error if sor else z_error) + rnd * np.maximum(norm_x, norm_z)
            Ey = a * Ey + w * Ex + rnd * np.maximum(norm_x, norm_y)
            slack = ((norm_A + 1.0) * Ex + 4 * n * _EPS * ((norm_A + 1.0) * norm_x + norm_b)
                     + _margin(k, nu_hat, norm_A, norm_x + Ex, norm_b))
            above = _residuals(problem, X.T) - slack / norm_b > tol
            if not above.all():
                cols, w, X, Y = cols[above], w[above], X[:, above], Y[:, above]
                Ex, Ey, norm_y = Ex[above], Ey[above], norm_y[above]
                if not len(cols):
                    break
    dropped = np.zeros(len(params), dtype=bool)
    dropped[cols] = True
    return dropped


def _sweep(
    problem: AveProblem,
    method: str,
    grid: np.ndarray | None,
    tol: float,
    k_max: int,
    f: FactorHandle | None,
    argmin: bool,
) -> tuple[np.ndarray, np.ndarray, int, tuple[float, int] | None]:
    """The validated grid, its iteration counts (sentinel where not converged), the sentinel and
    (best_param, min_it) of the first grid point attaining the least count, None if none converged.

    The Krylov path decides the columns it certifies; the rest run in iterate_block from zero, one call
    per chunk of BLOCK_BYTES of iterates, up to k_max or, with ``argmin``, up to the K, k* or k* - 1 cap
    that the module docstring states.

    With ``argmin``, a chunk then drops, by two rules, the columns that cannot converge through its cap,
    and so cannot win. A full table prunes nothing: it needs every count.

    - FPI with nu_hat < 1: the columns whose RES floor (:func:`avesolve.params.fpi_least_steps`, less
      rounding: :func:`_beyond_floor`) stays above tol. The same rule first runs on the whole grid at cap
      K (:func:`_fpi_cap`), and only the points it keeps enter the Krylov pass: on lattice 8, K = 14 keeps
      1 164 of 1 999. RES_1 = ||u|| / ||b|| comes from the one solve u = A^{-1} b that the Krylov pass
      starts from. SOR has no such floor. RES sees only x, and the SOR
      error e^x_k = (1 - w) e^x_{k-1} + w A^{-1} e^y_{k-1} can vanish while e^y_k does not, so no bound on
      ||(e^x, e^y)|| alone keeps RES_k above tol (the triangle inequality gives a negative rate,
      |1 - w| - w (nu + |1 - w| + w nu) = -1.19 at w = 1.5, nu = 0.25).
    - Either method with a bound on nu, where A^{-1} fits one block (8 n^2 <= BLOCK_BYTES, so n <= 128): the
      columns that :func:`_screen` shows to stay above tol. It runs every column of the chunk on a dense
      inverse M = f.solve(I), formed once per search for the first chunk it sees, in place of the
      factor-solves, with a W-propagated bound on how far that iterate lies from the exact one. On lattice
      8 it drops all 573 SOR fallback columns (w >= 1.427, RES >= 0.43 through step 11) for 64 solve
      columns, where the direct path took 5 730.

    Every column left runs in iterate_block exactly as without the rules.
    """
    check_method(method)
    check_stop_rule(tol, k_max)
    grid = default_grid() if grid is None else _real(grid, "grid")
    if grid.ndim != 1 or len(grid) == 0:
        raise DomainError("grid must be a nonempty one-dimensional array")
    if not np.all(np.isfinite(grid)) or np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
        raise DomainError("grid must be finite, positive and strictly ascending")
    if f is None:
        f = factorize(problem.A)
    sentinel = k_max + 1
    start = _krylov_start(problem, f)
    nu_bound, u, norm_A = start
    live, cap = np.arange(len(grid)), k_max
    prune = argmin and method == "fpi" and nu_bound is not None and nu_bound < 1 and u.any()
    if prune:  # u = 0 only for b = 0, which the direct iteration reports
        res_1 = float(np.linalg.norm(u) / problem.norm_b)
        cap = _fpi_cap(grid, tol, k_max, nu_bound, res_1, norm_A)
        live = live[~_beyond_floor(grid, cap, tol, nu_bound, res_1, norm_A)]
    its = np.full(len(grid), sentinel)
    counts, certified = _krylov_counts(problem, f, method, grid[live], tol, cap, argmin, start)
    its[live] = np.where(counts <= cap, counts, sentinel)
    rest = live[~certified]
    screen = argmin and 8 * problem.n**2 <= BLOCK_BYTES and nu_bound is not None and u.any()
    inverse = None  # _dense_inverse's (M, s), formed for the first chunk the screen sees
    zeros = np.zeros(problem.n)
    for chunk in _chunks(grid[rest], max(1, BLOCK_BYTES // (8 * problem.n))):
        cols = rest[chunk]
        last = cap
        if argmin:
            best = int(np.argmin(its))  # k* = its[best], the least count so far
            last = min(last, int(its[best]) if cols[0] < best else int(its[best]) - 1)
        if prune and last > 0:
            cols = cols[~_beyond_floor(grid[cols], last, tol, nu_bound, res_1, norm_A)]
        if screen and last > 0 and len(cols):
            if inverse is None:
                inverse = _dense_inverse(problem, f, nu_bound, norm_A)
            cols = cols[~_screen(problem, method, grid[cols], last, tol, inverse, nu_bound, norm_A)]
        if last > 0 and len(cols):
            stops = iterate_block(problem, f, method, grid[cols], tol, last, zeros, zeros)
            its[cols] = np.where(stops.converged, stops.iterations, sentinel)
    best = int(np.argmin(its))
    return grid, its, sentinel, (float(grid[best]), int(its[best])) if its[best] < sentinel else None


def grid_search(
    problem: AveProblem,
    method: str,
    grid: np.ndarray | None = None,
    tol: float = 1e-8,
    k_max: int = 100,
    f: FactorHandle | None = None,
) -> SweepResult:
    """Run the chosen solver at every grid point from zero starting vectors.

    best_param is the first grid point attaining the minimal iteration count, min_it that count;
    both are None when no grid point converged.
    """
    grid, its, sentinel, best = _sweep(problem, method, grid, tol, k_max, f, argmin=False)
    return SweepResult(grid, its, *(best or (None, None)), sentinel)


def grid_argmin(
    problem: AveProblem,
    method: str,
    grid: np.ndarray | None = None,
    tol: float = 1e-8,
    k_max: int = 100,
    f: FactorHandle | None = None,
) -> tuple[float, int] | None:
    """(best_param, min_it) of :func:`grid_search`, without running every point to its end.

    None exactly when grid_search finds no converged grid point.
    """
    return _sweep(problem, method, grid, tol, k_max, f, argmin=True)[3]


def domain_curves(nu_grid: np.ndarray) -> list[dict]:
    """Range boundaries per nu: the data behind the convergence-domain figures."""
    rows = []
    for nu in _real(nu_grid, "nu grid"):
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
