import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from avesolve import (
    DomainError,
    ParamEnvelope,
    SparseSpdMatrix,
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
from avesolve.linalg import estimate_inv_norm
from avesolve.params import _g1


def _dominant_by_four(args):
    """M symmetrized, with each row's off-diagonal absolute sum plus 4 plus that row's extra on the diagonal."""
    M, extra = args
    S = (M + M.T) / 2
    np.fill_diagonal(S, 0.0)
    return S + np.diag(np.abs(S).sum(axis=1) + 4.0 + extra)


# Symmetric, strictly diagonally dominant, Gershgorin lower bound lo >= 4. An extra of 0 in every row
# of a block can put lambda_min at 4 exactly: [[5, -1], [-1, 5]] has eigenvalues 4 and 6.
dominant_by_four = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        hnp.arrays(np.float64, (n, n), elements=st.one_of(st.just(0.0), st.floats(-1.0, 1.0))),
        hnp.arrays(np.float64, n, elements=st.one_of(st.just(0.0), st.floats(0.0, 4.0))),
    )
).map(_dominant_by_four)


def explicit_W(omega, nu):
    a = abs(1.0 - omega)
    return np.array([[a, omega * nu], [omega * a, omega**2 * nu + a]])


def explicit_U(tau, nu):
    return np.array([[0.0, nu], [0.0, tau * nu + abs(1.0 - tau)]])


def spectral_radius(M):
    return max(abs(np.linalg.eigvals(M)))


class TestRanges:
    @pytest.mark.parametrize("nu,hi", [(0.2358, 1.3463), (0.7615, 1.0680)])
    def test_sor_new_table_values(self, nu, hi):
        r = range_sor_new(nu)
        assert r.lower == 0.0
        assert r.upper == pytest.approx(hi, abs=1e-3)

    def test_sor_new_limit_small_nu(self):
        assert range_sor_new(1e-12).upper == pytest.approx(2.0, abs=1e-5)

    def test_sor_new_upper_between_one_and_two(self):
        for nu in np.linspace(0.01, 0.99, 50):
            assert 1.0 < range_sor_new(nu).upper < 2.0

    @pytest.mark.parametrize("nu,hi", [(0.2358, 1.6184), (0.4268, 1.4017)])
    def test_fpi_new_table_values(self, nu, hi):
        assert range_fpi_new(nu).upper == pytest.approx(hi, abs=1e-3)

    def test_fpi_new_limit_nu_to_one(self):
        assert range_fpi_new(1 - 1e-12).upper == pytest.approx(1.0, abs=1e-6)

    def test_fpi_old_table_values(self):
        r = range_fpi_old(0.2358)
        assert r.lower == pytest.approx(0.0369, abs=1e-3)
        assert r.upper == pytest.approx(1.5956, abs=1e-3)

    def test_fpi_old_empty_above_threshold(self):
        assert range_fpi_old(0.7615).empty
        assert range_fpi_old(math.sqrt(2) / 2 + 1e-9).empty
        assert not range_fpi_old(math.sqrt(2) / 2 - 1e-9).empty

    def test_fpi_old_near_zero_nu(self):
        r = range_fpi_old(1e-9)
        assert r.lower == pytest.approx(0.0, abs=1e-6)
        assert r.upper == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("nu", [-0.1, 0.0, 1.0, 1.5])
    def test_domain_errors(self, nu):
        for fn in (range_sor_new, range_fpi_new, range_fpi_old, optimal_sor, optimal_fpi):
            with pytest.raises(DomainError):
                fn(nu)

    def test_old_nested_in_new(self):
        for nu in np.linspace(0.01, math.sqrt(2) / 2 - 0.01, 60):
            old, new = range_fpi_old(nu), range_fpi_new(nu)
            assert not old.empty
            assert new.lower <= old.lower and old.upper <= new.upper


class TestKemaCondition:
    def test_true_case(self):
        assert check_kema_condition(1.0, 0.2358)

    def test_omega_two_always_false(self):
        assert not check_kema_condition(2.0, 0.1)

    def test_large_nu_false(self):
        assert not check_kema_condition(1.0, 0.8)


class TestNonFiniteInput:
    @pytest.mark.parametrize("fn", [rho_U, rho_W, g_nu_sor, check_kema_condition])
    @pytest.mark.parametrize("position", [0, 1], ids=["param", "nu"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_radii_and_kema_reject(self, fn, position, bad):
        args = [1.0, 0.25]
        args[position] = bad
        with pytest.raises(DomainError):
            fn(*args)

    @pytest.mark.parametrize("position", [0, 1, 2, 3], ids=["tau", "nu", "res_1", "tol"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0], ids=["nan", "inf", "zero", "negative"])
    def test_fpi_least_steps_rejects(self, position, bad):
        args = [1.9, 0.25, 0.13, 1e-8]
        args[position] = bad
        with pytest.raises(DomainError):
            fpi_least_steps(*args)

    @pytest.mark.parametrize("fn", [fpi_least_steps, fpi_most_steps])
    @pytest.mark.parametrize("position", [0, 1, 2, 3], ids=["tau", "nu", "res_1", "tol"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0], ids=["nan", "inf", "zero", "negative"])
    def test_fpi_steps_reject_in_arrays(self, fn, position, bad):
        # k_up rejects what k_low does, and an array of tau or tol is rejected when any one entry is bad.
        args = [1.9, 0.25, 0.13, 1e-8]
        args[position] = np.array([args[position], bad]) if position in (0, 3) else bad
        with pytest.raises(DomainError):
            fn(*args)


def fpi_floor(tau, nu, res_1, k):
    """(1 - nu) / (1 + nu) c^(k-1) RES_1, c = |1 - tau| - tau nu: the floor fpi_least_steps inverts (c >= 0)."""
    return (1 - nu) / (1 + nu) * (abs(1 - tau) - tau * nu) ** (k - 1) * res_1


class TestFpiLeastSteps:
    def test_lattice8_fallback_columns(self):
        # nu_hat = 0.25 (Gershgorin) and RES_1 = 0.1268 on lattice 8: the FPI argmin's fallback columns,
        # tau >= 1.86, cannot converge before step 19, long after k* = 11.
        steps = [fpi_least_steps(tau, 0.25, 0.1268, 1e-8) for tau in np.round(np.arange(1860, 2000) * 0.001, 3)]
        assert min(steps) == 19 and max(steps) == 24

    def test_edges(self):
        assert fpi_least_steps(1.9, 0.25, 1e-9, 1e-8) == 1  # RES_1 is already below tol
        assert fpi_least_steps(1.0, 0.25, 0.13, 1e-8) == 2  # c = -0.25: no floor after step 1
        assert fpi_least_steps(1e4, 0.25, 0.13, 1e-8) == math.inf  # c >= 1: the floor never falls
        with pytest.raises(DomainError):
            fpi_least_steps(1.9, 1.0, 0.13, 1e-8)  # no floor without nu < 1

    @given(st.floats(0.01, 2.5), st.floats(0.01, 0.99), st.floats(1e-3, 10.0), st.floats(1e-12, 1e-2))
    @example(1.86, 0.25, 0.1268, 1e-8)
    def test_least_step_of_the_floor(self, tau, nu, res_1, tol):
        # The returned step has the floor at most tol; the step before, if any, has it above tol, up to
        # the relative 1e-9 by which the logarithms are shaved.
        k = fpi_least_steps(tau, nu, res_1, tol)
        assume(k <= 10_000)
        assert fpi_floor(tau, nu, res_1, k) <= tol * (1 + 1e-6)
        if k > 1:
            assert fpi_floor(tau, nu, res_1, k - 1) > tol * (1 - 1e-6)


def fpi_ceiling(tau, nu, res_1, k):
    """(1 + nu) / (1 - nu) rho(U)^(k-1) RES_1: the bound on RES_k that fpi_most_steps inverts."""
    return (1 + nu) / (1 - nu) * (tau * nu + abs(1 - tau)) ** (k - 1) * res_1


class TestFpiMostSteps:
    def test_lattice8_optimum(self):
        # nu_hat = 0.25 and RES_1 = 0.1268 on lattice 8: at tau = 1, rho(U) = 0.25 brings RES to 1e-8 by step 14;
        # the direct count there is 11, the grid's least.
        assert fpi_most_steps(1.0, 0.25, 0.1268, 1e-8) == 14

    def test_edges(self):
        assert fpi_most_steps(1.9, 0.25, 1e-9, 1e-8) == 1  # (1 + nu) / (1 - nu) RES_1 is already below tol
        assert fpi_most_steps(1.6, 0.25, 0.13, 1e-8) == math.inf  # rho(U) = 1 at the end of range_fpi_new
        assert fpi_most_steps(1.9, 0.25, 0.13, 1e-8) == math.inf  # rho(U) > 1: no bound
        with pytest.raises(DomainError):
            fpi_most_steps(1.0, 1.0, 0.13, 1e-8)  # no bound without nu < 1

    @given(st.floats(0.01, 2.5), st.floats(0.01, 0.99), st.floats(1e-3, 10.0), st.floats(1e-12, 1e-2))
    @example(1.0, 0.25, 0.1268, 1e-8)
    def test_least_step_of_the_bound(self, tau, nu, res_1, tol):
        # The returned step has the bound at most tol; the step before, if any, has it above tol, up to the
        # relative 1e-9 by which the logarithms are stretched. It never comes before k_low.
        k = fpi_most_steps(tau, nu, res_1, tol)
        assert fpi_least_steps(tau, nu, res_1, tol) <= k
        assume(k <= 10_000)
        assert fpi_ceiling(tau, nu, res_1, k) <= tol * (1 + 1e-6)
        if k > 1:
            assert fpi_ceiling(tau, nu, res_1, k - 1) > tol * (1 - 1e-6)

    @given(hnp.arrays(np.float64, st.integers(1, 20), elements=st.floats(0.01, 3.0)),
           st.floats(0.01, 0.99), st.floats(1e-3, 10.0), st.floats(1e-12, 1e-2))
    def test_arrays_give_the_scalar_steps(self, taus, nu, res_1, tol):
        # One call on an array of tau (and of tol) gives each entry's scalar result.
        tols = tol * np.linspace(1.0, 2.0, len(taus))
        for fn in (fpi_least_steps, fpi_most_steps):
            assert fn(taus, nu, res_1, tols).tolist() == [fn(t, nu, res_1, e) for t, e in zip(taus, tols)]
        assert rho_U(taus, nu).tolist() == [rho_U(t, nu) for t in taus]


class TestSpectralRadii:
    def test_rho_w_at_one_equals_nu(self):
        assert rho_W(1.0, 0.2358) == 0.2358

    def test_rho_w_against_oracle_point(self):
        assert rho_W(0.5, 0.5) == pytest.approx(0.820194, abs=1e-6)

    def test_rho_w_at_range_boundary(self):
        assert rho_W(1.3463, 0.2358) == pytest.approx(1.0, abs=1e-3)

    def test_rho_u_values(self):
        assert rho_U(1.0, 0.4268) == 0.4268
        assert rho_U(0.5, 0.5) == 0.75
        nu = 0.5
        assert rho_U(2.0 / (nu + 1.0), nu) == pytest.approx(1.0, abs=1e-14)

    def test_g_nu_sor_values(self):
        assert g_nu_sor(1.0, 0.25) == 0.5
        assert g_nu_sor(0.5, 0.5) == pytest.approx(1.640388, abs=1e-6)
        assert g_nu_sor(1e-12, 0.3) == pytest.approx(2.0, abs=1e-5)

    def test_closed_forms_match_eigen_oracle_on_grid(self):
        for omega in np.linspace(0.02, 1.98, 100):
            for nu in np.linspace(0.01, 0.99, 100):
                assert abs(rho_W(omega, nu) - spectral_radius(explicit_W(omega, nu))) <= 1e-10
                assert abs(rho_U(omega, nu) - spectral_radius(explicit_U(omega, nu))) <= 1e-10

    def test_radius_crosses_one_at_range_boundary(self):
        for nu in np.linspace(0.01, 0.99, 50):
            hi = range_sor_new(nu).upper
            assert rho_W(hi - 1e-9, nu) < 1.0
            assert rho_W(hi + 1e-6, nu) >= 1.0 - 1e-4
            hi = range_fpi_new(nu).upper
            assert rho_U(hi - 1e-9, nu) < 1.0
            assert rho_U(hi + 1e-6, nu) >= 1.0 - 1e-4

    def test_quadratic_roots_inside_unit_circle_iff_in_range(self):
        # Characteristic polynomial of W vs the admissible omega interval.
        for nu in np.linspace(0.05, 0.95, 19):
            r = range_sor_new(nu)
            for omega in np.arange(0.001, 2.0, 0.001):
                p = nu * omega**2 + 2 * abs(1 - omega)
                q = (1 - omega) ** 2
                roots = np.roots([1.0, -p, q])
                inside = bool(np.all(np.abs(roots) < 1.0))
                assert inside == r.contains(omega)


class TestOptimalParameters:
    def test_optima_are_one(self):
        for nu in (0.2358, 0.3, 0.5, 0.7, 0.9):
            assert optimal_sor(nu) == 1.0
            assert optimal_fpi(nu) == 1.0

    def test_grid_argmin_is_one(self):
        for nu in np.linspace(0.02, 0.98, 50):
            hi = range_sor_new(nu).upper
            grid = np.arange(0.001, hi, 0.001)
            best = grid[np.argmin([g_nu_sor(w, nu) for w in grid])]
            assert abs(best - 1.0) <= 0.001 + 1e-12
            hi = range_fpi_new(nu).upper
            grid = np.arange(0.001, hi, 0.001)
            best = grid[np.argmin([rho_U(t, nu) for t in grid])]
            assert abs(best - 1.0) <= 0.001 + 1e-12
            assert rho_W(1.0, nu) == nu
            assert rho_U(1.0, nu) == nu


class TestChenOptOmega:
    def test_returns_one_below_quarter(self):
        assert chen_opt_omega(0.2) == 1.0
        assert chen_opt_omega(0.25) == 1.0

    @pytest.mark.parametrize(
        "nu,expected",
        [(0.5747, 0.8218), (0.7615, 0.7210), (0.4244, 0.9114), (0.6397, 0.7848)],
    )
    def test_table_values(self, nu, expected):
        assert chen_opt_omega(nu) == pytest.approx(expected, abs=5e-4)

    @pytest.mark.parametrize("nu", [0.25000001, 0.2500000274, 0.25 + 1e-12])
    def test_just_above_quarter(self, nu):
        # The root lies within 1e-8 of 1 here.
        assert 1 - 1e-7 < chen_opt_omega(nu) <= 1

    @given(st.floats(0.25, 1.0, exclude_min=True, exclude_max=True))
    @example(float(np.nextafter(0.25, 1)))
    def test_root_of_g1_in_unit_interval(self, nu):
        omega = chen_opt_omega(nu)
        assert 0 < omega <= 1
        assert _g1(max(0.0, omega - 1e-10), nu) <= 0 < _g1(min(1.0, omega + 1e-10), nu)

    @settings(max_examples=30, deadline=None)
    @given(dominant_by_four)
    @example(np.array([[4.375, -0.375], [-0.375, 4.375]]))
    def test_gershgorin_bound_of_four_settles_it(self, dense):
        # `bench` takes omega_Chen = chen_opt_omega(1/lo) = 1 from lo >= 4, where nu <= 1/4, instead of
        # estimating nu. The estimate gives 1 too unless lambda_min is 4 to rounding (the example: nu = 1/4
        # exactly, estimated an ulp above it), where chen_opt_omega is within its 1e-10 tolerance of 1.
        A = SparseSpdMatrix.from_dense(dense)
        lo = A.gershgorin[0]
        assume(lo >= 4)  # the diagonal's rounding can leave lo an ulp below 4
        assert chen_opt_omega(1 / lo) == 1.0
        omega = chen_opt_omega(estimate_inv_norm(A))
        if np.linalg.eigvalsh(dense)[0] > 4 + 1e-12:
            assert omega == 1.0
        else:
            assert 1 - 1e-10 < omega <= 1


class TestParamEnvelope:
    def test_table1_column(self):
        env = ParamEnvelope.from_nu(0.2358)
        assert env.omega_nopt == 1.0 and env.tau_opt == 1.0
        assert env.omega_chen_opt == 1.0  # nu <= 1/4
        assert env.range_sor_new.upper == pytest.approx(1.3463, abs=1e-3)
        assert env.range_fpi_new.upper == pytest.approx(1.6184, abs=1e-3)
        assert not env.range_fpi_old.empty

    def test_rejects_nu_outside_unit_interval(self):
        with pytest.raises(DomainError):
            ParamEnvelope.from_nu(1.2)
