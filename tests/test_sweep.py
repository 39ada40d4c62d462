import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avesolve import (
    DomainError,
    SolveConfig,
    default_grid,
    domain_curves,
    estimate_inv_norm,
    factorize,
    gen_lattice,
    grid_argmin,
    grid_search,
    linalg,
    range_sor_new,
    rho_W,
    solve_fpi,
    solve_sor_like,
)
from avesolve import solvers
from conftest import random_ave_problems


@pytest.fixture(scope="module")
def lattice8():
    p = gen_lattice(8)
    return p, factorize(p.A)


def test_default_grid():
    grid = default_grid()
    assert len(grid) == 1999
    assert grid[0] == 0.001 and grid[-1] == 1.999


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

    def test_rejects_bad_grid(self, lattice8):
        p, f = lattice8
        for search in (grid_search, grid_argmin):
            with pytest.raises(DomainError):
                search(p, "sor", grid=np.array([0.5, 0.4]), f=f)
            with pytest.raises(DomainError):
                search(p, "sor", grid=np.array([]), f=f)
            with pytest.raises(DomainError):
                search(p, "bogus", f=f)
            for bad in (np.nan, np.inf):
                with pytest.raises(DomainError):
                    search(p, "fpi", grid=np.array([0.5, bad]), f=f)

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
            monkeypatch.setattr(solvers, "BLOCK_BYTES", chunk_columns * 8 * p.n)
        result = grid_search(p, method, grid=grid, f=f)
        assert result.iterations.tolist() == expected


class TestGridArgmin:
    @pytest.mark.parametrize("method, expected", [("fpi", (0.961, 11)), ("sor", (0.981, 11))])
    def test_lattice8_table2(self, lattice8, method, expected):
        p, f = lattice8
        assert grid_argmin(p, method, f=f) == expected

    @pytest.mark.parametrize("method", ["fpi", "sor"])
    def test_lattice8_stops_early(self, lattice8, monkeypatch, method):
        # Running every grid point to its end takes 106k (FPI) and 132k (SOR)
        # column-steps; stopping each chunk at its first converged step, about 21k.
        p, f = lattice8
        columns = []
        solve = linalg.FactorHandle.solve

        def counting_solve(self, r):
            columns.append(len(r) if np.ndim(r) == 2 else 1)
            return solve(self, r)

        monkeypatch.setattr(linalg.FactorHandle, "solve", counting_solve)
        grid_argmin(p, method, f=f)
        assert sum(columns) < 30_000


# Points near 1 converge fastest; points above 2 and 10, 1e4 mostly diverge.
ascending_grids = st.lists(
    st.one_of(st.floats(0.6, 1.4), st.floats(0.01, 2.5), st.sampled_from([1.0, 10.0, 1e4])),
    min_size=1,
    max_size=30,
    unique=True,
).map(lambda values: np.array(sorted(values)))


@settings(max_examples=200, deadline=None)
@given(
    random_ave_problems(),
    st.sampled_from(["sor", "fpi"]),
    ascending_grids,
    st.floats(1e-10, 1e-2),
    st.integers(0, 39).map(lambda j: 40 - j),  # k_max in 1..40, mostly long enough to converge
    st.integers(1, 4),
)
def test_grid_argmin_matches_grid_search(problem, method, grid, tol, k_max, chunk_columns):
    f = factorize(problem.A)
    cfg = SolveConfig(parameter=1.0, tol=tol, k_max=k_max)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "BLOCK_BYTES", chunk_columns * 8 * problem.n)
        full = grid_search(problem, method, grid=grid, cfg=cfg, f=f)
        best = None if full.min_it is None else (full.best_param, full.min_it)
        assert grid_argmin(problem, method, grid=grid, cfg=cfg, f=f) == best


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
