import numpy as np
import pytest

from avesolve import (
    DivergenceError,
    DomainError,
    NoConvergentParameter,
    SolveConfig,
    default_grid,
    domain_curves,
    estimate_inv_norm,
    factorize,
    gen_lattice,
    grid_search,
    range_sor_new,
    rho_W,
    solve_fpi,
    solve_sor_like,
)
from avesolve import solvers


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
        with pytest.raises(NoConvergentParameter):
            grid_search(p, "sor", grid=np.array([1.99]), f=f)

    def test_rejects_bad_grid(self, lattice8):
        p, f = lattice8
        with pytest.raises(DomainError):
            grid_search(p, "sor", grid=np.array([0.5, 0.4]), f=f)
        with pytest.raises(DomainError):
            grid_search(p, "sor", grid=np.array([]), f=f)
        with pytest.raises(DomainError):
            grid_search(p, "bogus", f=f)
        for bad in (np.nan, np.inf):
            with pytest.raises(DomainError):
                grid_search(p, "fpi", grid=np.array([0.5, bad]), f=f)

    @pytest.mark.parametrize("method", ["sor", "fpi"])
    @pytest.mark.parametrize("chunk_columns", [None, 3])
    def test_matches_per_point_solves(self, lattice8, monkeypatch, method, chunk_columns):
        # 0.05..1.95 and 1.99 converge or run to k_max; 1e4 overflows to inf.
        p, f = lattice8
        grid = np.append(np.round(np.arange(1, 40) * 0.05, 2), [1.99, 1e4])
        solver = solve_sor_like if method == "sor" else solve_fpi
        expected, diverged = [], []
        for param in grid:
            try:
                report = solver(p, f, SolveConfig(parameter=float(param)))
            except DivergenceError:
                diverged.append(param)
                expected.append(101)
                continue
            expected.append(report.iterations if report.converged else 101)
        assert diverged == [1e4] and 101 in expected[:-1]
        if chunk_columns is not None:
            monkeypatch.setattr(solvers, "BLOCK_BYTES", chunk_columns * 8 * p.n)
        result = grid_search(p, method, grid=grid, f=f)
        assert result.iterations.tolist() == expected


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
