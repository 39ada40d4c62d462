import cProfile
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from avesolve import (
    DomainError,
    SolveConfig,
    SparseSpdMatrix,
    alternating_xstar,
    build_rhs,
    default_grid,
    domain_curves,
    estimate_inv_norm,
    factorize,
    fpi_least_steps,
    fpi_most_steps,
    gen_lattice,
    grid_argmin,
    grid_search,
    linalg,
    range_fpi_new,
    range_sor_new,
    rho_U,
    rho_W,
    save_matrix_market,
    solve_fpi,
    solve_sor_like,
)
from avesolve import cli, solvers, sweep
from conftest import random_ave_problems, trefethen_b


@pytest.fixture(scope="module")
def lattice8():
    p = gen_lattice(8)
    return p, factorize(p.A)


def test_default_grid():
    grid = default_grid()
    assert len(grid) == 1999
    assert grid[0] == 0.001 and grid[-1] == 1.999


def test_sweep_under_profiler(lattice8):
    # A profiler holds references to the arrays whose methods it reports, and the sweep's results must not
    # depend on it; lattice 8 grows the Krylov basis from 1 to 64 vectors while one is enabled.
    p, f = lattice8
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fpi, sor = grid_argmin(p, "fpi", f=f), grid_argmin(p, "sor", f=f)
        table = grid_search(p, "fpi", f=f)
    finally:
        profiler.disable()
    assert (round(fpi[0], 3), fpi[1]) == (0.961, 11)
    assert (round(sor[0], 3), sor[1]) == (0.981, 11)
    assert np.array_equal(table.iterations, grid_search(p, "fpi", f=f).iterations)


class TestGridSearch:
    def test_fpi_matches_table1(self, lattice8):
        p, f = lattice8
        result = grid_search(p, "fpi", f=f)
        assert result.min_it == 11
        assert result.best_param == pytest.approx(0.961, abs=0.02)

    def test_sor_matches_table2(self, lattice8):
        p, f = lattice8
        result = grid_search(p, "sor", f=f)
        assert result.min_it == 11
        assert result.best_param <= 1.0 + 1e-12
        assert result.best_param == pytest.approx(0.981, abs=0.05)
        # omega = 1 also attains the minimum
        idx = int(np.argmin(np.abs(result.grid - 1.0)))
        assert result.iterations[idx] == 11
        # the guaranteed range contains the empirical optimum, and every grid
        # point with a comfortable contraction factor converged within k_max
        nu = estimate_inv_norm(p.A)
        hi = range_sor_new(nu).upper
        inside = (result.grid > 0) & (result.grid < hi - 1e-9)
        assert result.iterations[inside].min() == result.min_it
        fast = [i for i in np.flatnonzero(inside) if rho_W(result.grid[i], nu) <= 0.7]
        assert np.all(result.iterations[fast] <= 100)

    def test_single_point_grid(self, lattice8):
        p, f = lattice8
        result = grid_search(p, "sor", grid=np.array([1.0]), f=f)
        assert result.best_param == 1.0 and result.min_it == 11

    def test_determinism(self, lattice8):
        p, f = lattice8
        a = grid_search(p, "fpi", grid=np.arange(0.5, 1.5, 0.05), f=f)
        b = grid_search(p, "fpi", grid=np.arange(0.5, 1.5, 0.05), f=f)
        assert a.best_param == b.best_param and a.min_it == b.min_it
        assert np.array_equal(a.iterations, b.iterations)

    def test_sentinel_for_nonconverged(self, lattice8):
        p, f = lattice8
        result = grid_search(p, "sor", grid=np.array([1.0, 1.99]), f=f)
        assert result.iterations[1] == result.sentinel == 101

    def test_no_convergent_parameter(self, lattice8):
        p, f = lattice8
        result = grid_search(p, "sor", grid=np.array([1.99]), f=f)
        assert result.best_param is None and result.min_it is None
        assert result.iterations.tolist() == [result.sentinel]
        assert grid_argmin(p, "sor", grid=np.array([1.99]), f=f) is None

    @pytest.mark.filterwarnings("error")
    def test_rejects_bad_grid(self, lattice8):
        p, f = lattice8
        for search in (grid_search, grid_argmin):
            with pytest.raises(DomainError, match="grid must be real, not complex"):
                search(p, "fpi", grid=np.array([0.5, 1.0 + 1e-3j]), f=f)
            with pytest.raises(DomainError):
                search(p, "sor", grid=np.array([0.5, 0.4]), f=f)
            with pytest.raises(DomainError):
                search(p, "sor", grid=np.array([]), f=f)
            with pytest.raises(DomainError):
                search(p, "bogus", f=f)
            for bad in (np.nan, np.inf):
                with pytest.raises(DomainError):
                    search(p, "fpi", grid=np.array([0.5, bad]), f=f)
            for not_1d in (np.array([[0.5, 1.0]]), np.array(1.0)):
                with pytest.raises(DomainError):
                    search(p, "fpi", grid=not_1d, f=f)

    def test_rejects_bad_stop_rule(self, lattice8):
        p, f = lattice8
        for search in (grid_search, grid_argmin):
            for tol, k_max in ((0.0, 100), (1.0, 100), (np.nan, 100), (1e-8, 0), (1e-8, 10.5), (1e-8, np.inf)):
                with pytest.raises(DomainError):
                    search(p, "fpi", grid=np.array([1.0]), tol=tol, k_max=k_max, f=f)

    @pytest.mark.parametrize("method", ["sor", "fpi"])
    @pytest.mark.parametrize("chunk_columns", [None, 3])
    def test_matches_per_point_solves(self, lattice8, monkeypatch, method, chunk_columns):
        # 0.05..1.95 and 1.99 converge or run to k_max; 1e4 overflows to inf.
        p, f = lattice8
        grid = np.append(np.round(np.arange(1, 40) * 0.05, 2), [1.99, 1e4])
        solver = solve_sor_like if method == "sor" else solve_fpi
        expected, diverged = [], []
        for param in grid:
            report = solver(p, f, SolveConfig(parameter=float(param)))
            if report.diverged:
                diverged.append(param)
                # The report holds the iterate that went non-finite: x stays finite, y overflows.
                assert not report.converged and not np.isfinite(np.concatenate([report.x, report.y])).all()
            expected.append(report.iterations if report.converged else 101)
        assert diverged == [1e4] and 101 in expected[:-1]
        if chunk_columns is not None:
            monkeypatch.setattr(sweep, "BLOCK_BYTES", chunk_columns * 8 * p.n)
        result = grid_search(p, method, grid=grid, f=f)
        assert result.iterations.tolist() == expected


class TestGridArgmin:
    @pytest.mark.parametrize("method, expected", [("fpi", (0.961, 11)), ("sor", (0.981, 11))])
    def test_lattice8_table2(self, lattice8, method, expected):
        p, f = lattice8
        assert grid_argmin(p, method, f=f) == expected

    @pytest.mark.parametrize("method, direct, limit", [("fpi", False, 100), ("sor", False, 200), ("fpi", True, 30_000),
                                                       ("sor", True, 30_000)],
                             ids=["fpi", "sor", "fpi-direct", "sor-direct"])
    def test_lattice8_stops_early(self, lattice8, monkeypatch, method, direct, limit):
        # Running every grid point to its end takes 106k (FPI) and 132k (SOR) column-steps. The Krylov
        # path takes 11 (FPI: its fallback columns dropped by their RES floor) and 75 (SOR: 11, and the 64
        # columns of the dense inverse on which the screen drops all 573 fallback columns, which the direct
        # path ran for 10 steps each, 5 730 column-steps); without it (no bound on nu, so no column certified,
        # no floor and no screen), the capped direct chunks take about 22k.
        p, f = lattice8
        if direct:
            monkeypatch.setattr(SparseSpdMatrix, "inv_norm_bound", property(lambda A: None))
        columns = []
        solve = linalg.FactorHandle.solve

        def counting_solve(self, r):
            columns.append(len(r) if np.ndim(r) == 2 else 1)
            return solve(self, r)

        monkeypatch.setattr(linalg.FactorHandle, "solve", counting_solve)
        assert grid_argmin(p, method, f=f) == {"fpi": (0.961, 11), "sor": (0.981, 11)}[method]
        assert sum(columns) < limit


# Points near 1 converge fastest; points above 2 and 10, 1e4 mostly diverge.
ascending_grids = st.lists(
    st.one_of(st.floats(0.6, 1.4), st.floats(0.01, 2.5), st.sampled_from([1.0, 10.0, 1e4])),
    min_size=1,
    max_size=30,
    unique=True,
).map(lambda values: np.array(sorted(values)))


def _direct_counts(problem, f, method, grid, tol=1e-8, k_max=100):
    """Every grid point's count from the direct block iteration alone, k_max + 1 where not converged."""
    zeros = np.zeros(problem.n)
    stops = solvers.iterate_block(problem, f, method, grid, tol, k_max, zeros, zeros)
    return np.where(stops.converged, stops.iterations, k_max + 1)


@settings(max_examples=200, deadline=None)
@given(
    random_ave_problems(),
    st.sampled_from(["sor", "fpi"]),
    st.one_of(ascending_grids, ascending_grids.map(lambda grid: np.union1d(grid, [1e4]))),
    st.floats(1e-10, 1e-2),
    st.integers(1, 40),
    st.integers(1, 4),
)
def test_searches_match_per_column_direct_iteration(problem, method, grid, tol, k_max, chunk_columns):
    # A zero component of x* leaves the sign pattern unsettled (fallback columns); n <= 6 makes the
    # Krylov basis break down into an invariant space; 1e4 overflows. grid_argmin equals the best of
    # the direct counts, and so the best point of grid_search. With argmin the Krylov pass advances every
    # column in lockstep and stops at the first step where a certified column converges, so every count
    # it certifies is that one k*, whatever the block size.
    f = factorize(problem.A)
    expected = np.concatenate([_direct_counts(problem, f, method, [w], tol, k_max) for w in grid])
    best = None if expected.min() > k_max else (float(grid[np.argmin(expected)]), int(expected.min()))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep, "BLOCK_BYTES", chunk_columns * 8 * problem.n)
        result = grid_search(problem, method, grid=grid, tol=tol, k_max=k_max, f=f)
        assert result.iterations.tolist() == expected.tolist()
        assert (result.best_param, result.min_it) == (best or (None, None))
        assert grid_argmin(problem, method, grid=grid, tol=tol, k_max=k_max, f=f) == best
        start = sweep._krylov_start(problem, f)
        its, certified = sweep._krylov_counts(problem, f, method, grid, tol, k_max, True, start)
        assert len(set(its[certified & (its <= k_max)].tolist())) <= 1


def test_bench_takes_the_gershgorin_interval_once_per_matrix(monkeypatch, capsys):
    # Lattice 8's A.gershgorin is read by cmd_bench's omega_Chen shortcut and, through inv_norm_bound, by the
    # _krylov_start of both grid searches, which keeps its upper end as the bound on ||A||. It is computed once.
    computed, starts = [], []
    interval = SparseSpdMatrix.gershgorin.func

    def counted(A):
        computed.append(A)
        return interval(A)

    counted_property = functools.cached_property(counted)
    counted_property.__set_name__(SparseSpdMatrix, "gershgorin")
    monkeypatch.setattr(SparseSpdMatrix, "gershgorin", counted_property)
    krylov_start = sweep._krylov_start
    monkeypatch.setattr(sweep, "_krylov_start", lambda *args: starts.append(krylov_start(*args)) or starts[-1])
    assert cli.main(["bench", "--lattice", "8"]) == 0
    assert len(computed) == 1
    assert [(nu_bound, norm_A) for nu_bound, _, norm_A in starts] == [(0.25, 12.0)] * 2


def test_bench_factorizes_a_minus_i_once_per_matrix(monkeypatch, capsys, tmp_path, tref20b):
    # Trefethen_20b has Gershgorin lo < 1 < min a_ii, so its bound on nu needs A - I factorized. The bound is a
    # property of the matrix, so the _krylov_start of both grid searches (SORLno, FPIno) share one factorization.
    path = tmp_path / "Trefethen_20b.mtx"
    save_matrix_market(tref20b, path)
    sigmas, shifted = [], linalg._shifted
    monkeypatch.setattr(linalg, "_shifted", lambda A, sigma: sigmas.append(sigma) or shifted(A, sigma))
    assert cli.main(["bench", "--matrix", str(path)]) == 0
    assert sigmas.count(1.0) == 1


def _lattice8_scaled():
    """0.1 x the lattice 8 matrix with its alternating solution: nu = 2.36, bounded by 1/lo = 2.5."""
    A = linalg.SparseSpdMatrix.from_scipy(0.1 * gen_lattice(8).A.csr)
    return build_rhs(A, alternating_xstar(A.n))


@settings(max_examples=200, deadline=None)
@given(random_ave_problems(), ascending_grids, st.floats(1e-10, 1e-2), st.integers(1, 40))
@example(gen_lattice(8), default_grid(), 1e-8, 100)
@example(_lattice8_scaled(), default_grid(), 1e-8, 100)
def test_fpi_floor_prunes_no_converging_column(problem, grid, tol, k_max):
    # k_low (params.fpi_least_steps, at nu_hat and RES_1 = ||A^{-1} b|| / ||b|| as the sweep takes them) is at
    # most the direct count of every column that converges, and every column the argmin drops runs past the
    # steps its chunk may take. With nu_hat missing or >= 1 (lattice 8 x 0.1: nu_hat = 2.5) nothing is dropped.
    f = factorize(problem.A)
    direct = dict(zip(grid.tolist(), _direct_counts(problem, f, "fpi", grid, tol, k_max).tolist()))
    nu_bound, u, _ = sweep._krylov_start(problem, f)
    floor = nu_bound is not None and nu_bound < 1
    if floor:
        res_1 = np.linalg.norm(u) / np.linalg.norm(problem.b)
        for tau, count in direct.items():
            if count <= k_max:
                assert fpi_least_steps(tau, nu_bound, res_1, tol) <= count
    dropped, beyond_floor = [], sweep._beyond_floor

    def spy(taus, cap, *args):
        pruned = beyond_floor(taus, cap, *args)
        dropped.extend((tau, cap) for tau in taus[pruned].tolist())
        return pruned

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep, "_beyond_floor", spy)
        grid_argmin(problem, "fpi", grid=grid, tol=tol, k_max=k_max, f=f)
    assert all(direct[tau] > cap for tau, cap in dropped)
    assert floor or not dropped


@settings(max_examples=50, deadline=None)
@given(random_ave_problems(), st.floats(0.0, 2.0, exclude_min=True, exclude_max=True), st.floats(1e-10, 1e-2),
       st.integers(1, 100))
@example(gen_lattice(8), 1.0, 1e-8, 100)
@example(_lattice8_scaled(), 1.0, 1e-8, 100)
def test_fpi_counts_lie_between_the_paper_bounds(problem, tau, tol, k_max):
    # For tau inside range_fpi_new(nu_hat), nu_hat = A.inv_norm_bound < 1, the direct FPI count from zero lies
    # between k_low and k_up (params.fpi_least_steps and fpi_most_steps, at RES_1 = ||A^{-1} b|| / ||b||): 2 and 14
    # on lattice 8 at tau = 1, which takes 11. The argmin's least count is at most the cap K its Krylov pass is
    # given, unless K is k_max and no grid point converges. With nu_hat >= 1 (lattice 8 x 0.1: nu_hat = 2.5) the
    # pass gets k_max itself.
    f = factorize(problem.A)
    caps, krylov_counts = [], sweep._krylov_counts

    def spy(problem, f, method, grid, tol, cap, *args):
        caps.append(cap)
        return krylov_counts(problem, f, method, grid, tol, cap, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep, "_krylov_counts", spy)
        best = grid_argmin(problem, "fpi", tol=tol, k_max=k_max, f=f)
    nu_bound, u, _ = sweep._krylov_start(problem, f)
    if nu_bound is None or nu_bound >= 1:
        assert caps == [k_max]
        return
    assert best is not None and best[1] <= caps[0] or best is None and caps[0] == k_max
    assume(range_fpi_new(nu_bound).contains(tau))
    res_1 = np.linalg.norm(u) / problem.norm_b
    k_up = fpi_most_steps(tau, nu_bound, res_1, tol)
    assume(k_up <= 1000)
    count = _direct_counts(problem, f, "fpi", [tau], tol, int(k_up))[0]
    assert fpi_least_steps(tau, nu_bound, res_1, tol) <= count <= k_up


def _scalar_floor(taus, cap, tol, nu_bound, res_1, norm_A):
    """The per-point rule that sweep._beyond_floor vectorizes, with the scalar k_low it called."""
    pruned = []
    for tau in taus.tolist():
        try:
            growth = max(1.0, tau * nu_bound + abs(1.0 - tau)) ** (cap - 1)
        except OverflowError:
            pruned.append(False)
            continue
        x_over_b = (1.0 + nu_bound * growth) * res_1 / (1.0 - nu_bound)
        slack = sweep._margin(cap, nu_bound, norm_A, x_over_b, 1.0)
        if not math.isfinite(slack):
            pruned.append(False)
            continue
        floor, c = (1.0 - nu_bound) / (1.0 + nu_bound) * res_1, abs(1.0 - tau) - tau * nu_bound
        if floor <= tol + slack:
            k_low = 1
        elif c <= 0.0:
            k_low = 2
        elif c >= 1.0:
            k_low = math.inf
        else:
            k_low = 1 + math.ceil(math.log((tol + slack) / floor) / math.log(c) * (1.0 - 1e-9))
        pruned.append(k_low > cap)
    return np.array(pruned)


@pytest.mark.parametrize("nu_bound, res_1", [(0.25, 0.1268), (0.9, 3.0)])
@pytest.mark.parametrize("cap", [1, 2, 3, 11, 14, 100, 65_536])
def test_vectorized_floor_keeps_the_scalar_mask(nu_bound, res_1, cap):
    # A tau grid through c = |1 - tau| - tau nu <= 0 (near 1), c >= 1 (tau >= 2 / (1 - nu)) and, at cap 65 536, a
    # growth rho(U)^(cap - 1) that overflows (rho(U) > 1.011): the one numpy pass prunes exactly what the per-point
    # rule did. Cap 1 prunes every point (no RES_1 reaches tol), cap 65 536 none (every floor falls to tol or
    # overflows); the caps between prune some.
    taus = np.round(np.arange(1, 25_001) * 0.001, 3)
    for tol in (1e-12, 1e-8, 1e-3):
        pruned = sweep._beyond_floor(taus, cap, tol, nu_bound, res_1, 12.0)
        assert pruned.tolist() == _scalar_floor(taus, cap, tol, nu_bound, res_1, 12.0).tolist()
        if cap == 1:
            assert pruned.all()
        elif cap == 65_536:
            assert not pruned.any()
        else:
            assert 0 < pruned.sum() < len(taus)


def test_lattice8_fpi_argmin_drops_points_before_the_krylov_pass(lattice8, monkeypatch):
    # k_up at tau = 1 caps the lattice 8 FPI argmin at K = 14 steps, and the RES floor at cap 14 rules out
    # the 835 grid points tau <= 0.563 and tau >= 1.728: the Krylov pass advances the other 1 164.
    p, f = lattice8
    passed, krylov_counts = [], sweep._krylov_counts

    def spy(problem, f, method, grid, tol, cap, *args):
        passed.append((len(grid), grid.min(), grid.max(), cap))
        return krylov_counts(problem, f, method, grid, tol, cap, *args)

    monkeypatch.setattr(sweep, "_krylov_counts", spy)
    assert grid_argmin(p, "fpi", f=f) == (0.961, 11)
    assert passed == [(1164, 0.564, 1.727, 14)]
    passed.clear()
    assert grid_argmin(p, "sor", f=f) == (0.981, 11)  # SOR has no floor and no cap
    assert passed == [(1999, 0.001, 1.999, 100)]


@settings(max_examples=200, deadline=None)
@given(random_ave_problems(), st.sampled_from(["sor", "fpi"]), ascending_grids, st.floats(1e-10, 1e-2),
       st.integers(1, 40))
@example(gen_lattice(8), "sor", default_grid(), 1e-8, 100)
@example(_lattice8_scaled(), "sor", default_grid(), 1e-8, 100)
@example(_lattice8_scaled(), "fpi", default_grid(), 1e-8, 100)
@example(build_rhs(trefethen_b(20), alternating_xstar(19)), "sor", default_grid(), 1e-8, 100)
@example(build_rhs(trefethen_b(20), alternating_xstar(19)), "fpi", default_grid(), 1e-8, 100)
def test_screen_drops_no_converging_column(problem, method, grid, tol, k_max):
    # Every column the dense-inverse screen drops keeps its direct RES above tol through the cap of its chunk:
    # its direct count exceeds the cap. Lattice 8 drops all 573 SOR fallback columns; lattice 8 x 0.1, where
    # nu_hat = 2.5 > 1 widens every error bound, drops most of its SOR and FPI ones; Trefethen_20b, factored in
    # reverse Cuthill-McKee order, drops 740 (SOR) and 461 (FPI). The argmin stays that of the direct counts.
    f = factorize(problem.A)
    counts = _direct_counts(problem, f, method, grid, tol, k_max)
    direct = dict(zip(grid.tolist(), counts.tolist()))
    dropped, screen = [], sweep._screen

    def spy(problem, method, params, cap, *args):
        mask = screen(problem, method, params, cap, *args)
        dropped.extend((param, cap) for param in params[mask].tolist())
        return mask

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep, "_screen", spy)
        best = grid_argmin(problem, method, grid=grid, tol=tol, k_max=k_max, f=f)
    assert all(direct[param] > cap for param, cap in dropped)
    assert best == (None if counts.min() > k_max else (float(grid[np.argmin(counts)]), int(counts.min())))


class TestKrylovPath:
    # Certified: 1717 (FPI) and 1414 (SOR) on lattice 8, 1447 and 1233 on Trefethen_200b, 301 and 640 on
    # lattice 8 x 0.1 (nu = 2.36 > 1, bounded by 1/lo = 2.5, which widens the margins), where 468 and
    # 600 grid points converge.
    @pytest.fixture(scope="class", params=[("lattice8", 1000), ("tref200b", 1000), ("lattice8x0.1", 200)],
                    ids=lambda case: case[0])
    def problem(self, request):
        name, least_certified = request.param
        if name == "lattice8":
            return gen_lattice(8), least_certified
        if name == "tref200b":
            A = request.getfixturevalue("tref200b")
            return build_rhs(A, alternating_xstar(A.n)), least_certified
        return _lattice8_scaled(), least_certified

    @pytest.mark.parametrize("method", ["fpi", "sor"])
    def test_all_counts_match_direct_iteration(self, problem, method):
        problem, least_certified = problem
        f = factorize(problem.A)
        grid = default_grid()
        direct = _direct_counts(problem, f, method, grid)
        start = sweep._krylov_start(problem, f)
        its, certified = sweep._krylov_counts(problem, f, method, grid, 1e-8, 100, False, start)
        assert certified.sum() > least_certified and (direct[certified] <= 100).any()
        assert its[certified].tolist() == direct[certified].tolist()
        assert grid_search(problem, method, grid=grid, f=f).iterations.tolist() == direct.tolist()

    @pytest.mark.parametrize("method", ["fpi", "sor"])
    @pytest.mark.parametrize("argmin", [False, True], ids=["table", "argmin"])
    def test_anchor_bound_changes_no_count(self, problem, monkeypatch, method, argmin):
        # With runs of one column every iterate is formed, as the anchor of its own run; the default runs
        # form about one in 16. The bound passes a column only where the formed check would, so both
        # certify the same columns with the same counts.
        problem, _ = problem
        f = factorize(problem.A)
        grid = default_grid()
        start = sweep._krylov_start(problem, f)
        its, certified = sweep._krylov_counts(problem, f, method, grid, 1e-8, 100, argmin, start)
        monkeypatch.setattr(sweep, "ANCHOR_RUN", 1)
        formed_its, formed_certified = sweep._krylov_counts(problem, f, method, grid, 1e-8, 100, argmin, start)
        assert its.tolist() == formed_its.tolist() and certified.tolist() == formed_certified.tolist()

    @pytest.mark.parametrize("method", ["fpi", "sor"])
    def test_tiny_blocks_keep_the_basis(self, lattice8, monkeypatch, method):
        # A 128-byte block splits the sign check into one iterate per piece and the direct path into one
        # column per chunk; the basis still grows to the 11 and more steps the columns take, and the Krylov
        # path certifies 34 (FPI) and 28 (SOR) of the 39.
        p, f = lattice8
        grid = np.round(np.arange(1, 40) * 0.05, 2)
        direct = _direct_counts(p, f, method, grid)
        monkeypatch.setattr(sweep, "BLOCK_BYTES", 128)
        its, certified = sweep._krylov_counts(p, f, method, grid, 1e-8, 100, False, sweep._krylov_start(p, f))
        assert certified.sum() > len(grid) // 2 and its[certified].tolist() == direct[certified].tolist()
        assert grid_search(p, method, grid=grid, f=f).iterations.tolist() == direct.tolist()
        assert grid_argmin(p, method, grid=grid, f=f) == (float(grid[np.argmin(direct)]), int(direct.min()))

    @pytest.mark.parametrize("method", ["fpi", "sor"])
    @pytest.mark.parametrize("param", [0.94, 0.97, 1.0])
    def test_tol_at_a_direct_res(self, lattice8, method, param):
        # tol is the RES at which the direct iteration converges, so the Krylov RES lies within rounding
        # of tol; without the RES margin about half such columns are certified one step late.
        p, f = lattice8
        zeros = np.zeros(p.n)
        res = []
        solvers.iterate_block(p, f, method, [param], 1e-8, 100, zeros, zeros, lambda X, Y, r: res.append(r[0]))
        result = grid_search(p, method, grid=np.array([param]), tol=res[-1], f=f)
        assert result.iterations.tolist() == _direct_counts(p, f, method, [param], tol=res[-1]).tolist() == [len(res)]

    def test_basis_grows_with_the_steps_taken(self):
        # k_max = 10**6 must not size anything: a basis allocated at min(k_max, n) = 1024 rows would ask for
        # about 32 MiB (V, Q, H and R), while growing with the 11 steps the argmin takes peaks under 2 MiB.
        p = gen_lattice(32)
        tracemalloc.start()
        try:
            best = grid_argmin(p, "fpi", k_max=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (round(best[0], 3), best[1]) == (0.968, 11)
        assert peak < 8 * 2**20

    def test_lattice8_argmin_takes_the_fast_path(self, lattice8, monkeypatch):
        # 11 single-vector solves build the basis. The 140 columns tau >= 1.86 that it cannot certify have a RES
        # floor (params.fpi_least_steps) above tol until step 19 to 24, past the cap K = 14 from k_up, so they
        # are dropped with the other points tau >= 1.728 before the pass, and no direct chunk runs.
        p, f = lattice8
        columns = []
        solve = linalg.FactorHandle.solve

        def counting_solve(self, r):
            columns.append(len(r) if np.ndim(r) == 2 else 1)
            return solve(self, r)

        monkeypatch.setattr(linalg.FactorHandle, "solve", counting_solve)
        assert grid_argmin(p, "fpi", f=f) == (0.961, 11)
        assert sum(columns) < 100


class TestDomainCurves:
    def test_table1_row(self):
        (row,) = domain_curves([0.2358])
        assert row["sor_new_hi"] == pytest.approx(1.3463, abs=1e-3)
        assert row["fpi_new_hi"] == pytest.approx(1.6184, abs=1e-3)
        assert row["fpi_old_lo"] == pytest.approx(0.0369, abs=1e-3)
        assert row["fpi_old_hi"] == pytest.approx(1.5956, abs=1e-3)
        assert row["fpi_old_empty"] is False

    def test_empty_legacy_range(self):
        (row,) = domain_curves([0.7615])
        assert row["fpi_old_empty"] is True
        assert np.isnan(row["fpi_old_lo"]) and np.isnan(row["fpi_old_hi"])

    def test_exact_quarter(self):
        (row,) = domain_curves([0.25])
        assert row["sor_new_hi"] == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_old_nested_in_new(self):
        for row in domain_curves(np.linspace(0.01, 0.99, 99)):
            if not row["fpi_old_empty"]:
                assert 0.0 <= row["fpi_old_lo"]
                assert row["fpi_old_hi"] <= row["fpi_new_hi"]

    def test_domain_error_propagates(self):
        with pytest.raises(DomainError):
            domain_curves([1.5])
