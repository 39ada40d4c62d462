import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from avesolve import (
    DimensionMismatch,
    DomainError,
    SolveConfig,
    SparseSpdMatrix,
    build_rhs,
    estimate_inv_norm,
    factorize,
    gen_lattice,
    range_fpi_new,
    range_sor_new,
    residual,
    solve_fpi,
    solve_sor_like,
)
from avesolve import solvers
from conftest import check_contraction_envelope, dense_inv_norm, random_ave_problems, random_spd, run_iterates


@pytest.fixture(scope="module")
def lattice8():
    p = gen_lattice(8)
    return p, factorize(p.A)


def envelope_W(omega, nu):
    a = abs(1.0 - omega)
    return np.array([[a, omega * nu], [omega * a, omega**2 * nu + a]])


def envelope_U(tau, nu):
    return np.array([[0.0, nu], [0.0, tau * nu + abs(1.0 - tau)]])


class TestResidual:
    def test_exact_solution(self):
        p = gen_lattice(4)
        assert residual(p, p.x_star) <= 1e-14

    def test_zero_iterate(self):
        A = SparseSpdMatrix.from_dense(2.0 * np.eye(2))
        p = build_rhs(A, np.array([-1.0, 1.0]))  # b = (-3, 1)
        assert residual(p, np.zeros(2)) == 1.0

    def test_hand_solution(self):
        A = SparseSpdMatrix.from_dense(2.0 * np.eye(2))
        p = build_rhs(A, np.array([-1.0, 1.0]))
        assert residual(p, np.array([-1.0, 1.0])) == 0.0

    def test_zero_b_raises(self):
        # x* = 0 gives b = A x* - |x*| = 0, for which the relative residual is undefined.
        A = SparseSpdMatrix.from_dense(2.0 * np.eye(2))
        p = build_rhs(A, np.zeros(2))
        zeros = np.zeros(2)
        with pytest.raises(DomainError, match="b = 0"):
            residual(p, zeros)
        for method in ("sor", "fpi"):
            with pytest.raises(DomainError, match="b = 0"):
                solvers.iterate_block(p, factorize(A), method, [1.0], 1e-8, 10, zeros, zeros)


    @pytest.mark.filterwarnings("error")
    def test_rejects_complex_iterate(self):
        p = gen_lattice(4)
        with pytest.raises(DomainError, match="x must be real"):
            residual(p, p.x_star + 1j)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method, params, x0, y0, error, match", [
        ("fpi", [1.0 + 1e-3j], np.zeros(64), np.zeros(64), DomainError, "parameters must be real, not complex"),
        ("SOR", [1.0], np.zeros(64), np.zeros(64), DomainError, "unknown method 'SOR'"),  # it ran FPI
        # Length-1 start vectors broadcast: this call converged in 11 steps.
        ("sor", [1.0], np.zeros(1), np.full(1, 3.0), DimensionMismatch, r"x0 has shape \(1,\), expected \(64,\)"),
        ("sor", [1.0], np.zeros(64), np.full(1, 3.0), DimensionMismatch, r"y0 has shape \(1,\), expected \(64,\)"),
        # A bare TypeError (len() of unsized object), then two broadcasting ValueErrors.
        ("fpi", 1.0, np.zeros(64), np.zeros(64), DimensionMismatch, r"parameters have shape \(\),"),
        ("sor", [[1.0, 0.9]], np.zeros(64), np.zeros(64), DimensionMismatch, r"parameters have shape \(1, 2\),"),
        ("sor", np.ones((2, 1)), np.zeros(64), np.zeros(64), DimensionMismatch, r"parameters have shape \(2, 1\),"),
        ("fpi", [], np.zeros(64), np.zeros(64), DimensionMismatch, r"parameters have shape \(0,\),"),  # ran 100 steps
    ], ids=["complex-params", "upper-case-method", "short-x0-y0", "short-y0", "scalar-params", "row-params",
            "column-params", "no-params"])
    def test_iterate_block_rejects_bad_input(self, lattice8, method, params, x0, y0, error, match):
        p, f = lattice8
        with pytest.raises(error, match=match):
            solvers.iterate_block(p, f, method, params, 1e-8, 100, x0, y0)

    def test_iterate_block_rejects_factor_of_other_size(self, lattice8):
        # The factor's own solve rejects the block at the first step.
        p, _ = lattice8
        zeros = np.zeros(p.n)
        with pytest.raises(DimensionMismatch, match=r"right-hand side has shape \(1, 64\), expected \(16,\)"):
            solvers.iterate_block(p, factorize(gen_lattice(4).A), "fpi", [1.0], 1e-8, 100, zeros, zeros)


class TestSolveConfig:
    def test_rejects_zero_kmax(self):
        with pytest.raises(DomainError):
            SolveConfig(parameter=1.0, k_max=0)

    def test_rejects_non_integer_kmax(self):
        with pytest.raises(DomainError, match="integer"):
            SolveConfig(1.0, 1e-8, 10.5)

    def test_rejects_nonpositive_parameter(self):
        with pytest.raises(DomainError):
            SolveConfig(parameter=0.0)

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(DomainError):
            SolveConfig(parameter=1.0, tol=0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        with pytest.raises(DomainError):
            SolveConfig(parameter=value)
        with pytest.raises(DomainError):
            SolveConfig(parameter=1.0, tol=value)


class TestSorLike:
    def test_lattice8_table2(self, lattice8):
        p, f = lattice8
        report = solve_sor_like(p, f, SolveConfig(parameter=1.0))
        assert report.converged
        assert report.iterations == 11
        assert report.final_res <= 1e-8
        assert report.final_res == pytest.approx(2.6003e-09, rel=1e-3)
        assert len(report.res_history) == report.iterations

    def test_lattice16_table2(self):
        p = gen_lattice(16)
        report = solve_sor_like(p, factorize(p.A), SolveConfig(parameter=1.0))
        assert report.iterations == 11

    def test_huge_tol_one_iteration(self, lattice8):
        # tol must lie in (0, 1); RES after the first update is 0.127, so the largest tol stops there.
        p, f = lattice8
        report = solve_sor_like(p, f, SolveConfig(parameter=1.0, tol=np.nextafter(1.0, 0.0), k_max=1))
        assert report.converged and report.iterations == 1

    def test_out_of_range_omega_does_not_converge(self, lattice8):
        p, f = lattice8
        hi = range_sor_new(estimate_inv_norm(p.A)).upper
        report = solve_sor_like(p, f, SolveConfig(parameter=hi + 0.5))
        assert not report.converged

    def test_converged_iterate_is_fixed_point(self, lattice8):
        p, f = lattice8
        cfg = SolveConfig(parameter=0.9)
        report = solve_sor_like(p, f, cfg)
        assert report.converged
        assert residual(p, report.x) <= cfg.tol
        assert np.linalg.norm(report.y - np.abs(report.x)) <= 10 * cfg.tol * np.linalg.norm(report.x)

    def test_recovers_known_solution(self):
        rng = np.random.default_rng(11)
        for n in (6, 20):
            A = SparseSpdMatrix.from_dense(random_spd(rng, n))
            if estimate_inv_norm(A) >= 1.0:
                continue
            p = build_rhs(A, rng.standard_normal(n))
            cfg = SolveConfig(parameter=1.0, k_max=1000)
            report = solve_sor_like(p, factorize(A), cfg)
            assert report.converged
            err = np.linalg.norm(report.x - p.x_star) / np.linalg.norm(p.x_star)
            assert err <= 100 * cfg.tol


class TestFpi:
    def test_tau_numerically_optimal(self, lattice8):
        p, f = lattice8
        report = solve_fpi(p, f, SolveConfig(parameter=0.961))
        assert report.converged
        assert report.final_res <= 1e-8
        assert abs(report.iterations - 11) <= 1

    def test_out_of_range_tau(self, lattice8):
        p, f = lattice8
        hi = range_fpi_new(estimate_inv_norm(p.A)).upper
        report = solve_fpi(p, f, SolveConfig(parameter=hi + 0.5))
        assert not report.converged


class TestEquivalenceAtOptimum:
    def test_histories_bit_identical(self, lattice8):
        p, f = lattice8
        sor_stops, sor_iters, _ = run_iterates(p, f, "sor", 1.0)
        fpi_stops, fpi_iters, _ = run_iterates(p, f, "fpi", 1.0)
        assert sor_stops.iterations[0] == fpi_stops.iterations[0] == 11
        for (xs, ys), (xf, yf) in zip(sor_iters, fpi_iters):
            assert np.array_equal(xs, xf)
            assert np.array_equal(ys, yf)

    def test_nonzero_start_still_identical(self, lattice8):
        p, f = lattice8
        rng = np.random.default_rng(5)
        x0, y0 = rng.standard_normal(p.n), rng.standard_normal(p.n)
        _, sor_iters, _ = run_iterates(p, f, "sor", 1.0, x0=x0, y0=y0)
        _, fpi_iters, _ = run_iterates(p, f, "fpi", 1.0, x0=x0, y0=y0)
        assert len(sor_iters) == len(fpi_iters) > 1
        for (xs, ys), (xf, yf) in zip(sor_iters, fpi_iters):
            assert np.array_equal(xs, xf)
            assert np.array_equal(ys, yf)


def _outcome(problem, f, method, k_max, x0, y0):
    stops, iterates, res = run_iterates(problem, f, method, 1.0, k_max, x0, y0)
    if stops.diverged[0]:
        return ("diverged", int(stops.iterations[0]))
    return (bool(stops.converged[0]), int(stops.iterations[0]), np.array(res), *iterates[-1])


@settings(max_examples=200, deadline=None)
@given(random_ave_problems(), st.integers(1, 30), st.data())
def test_sor_and_fpi_at_one_identical_on_random_problems(problem, k_max, data):
    # Random start vectors reach the kernel of every solve directly; the solves themselves start from zero.
    start = hnp.arrays(np.float64, problem.n, elements=st.floats(allow_nan=False, allow_infinity=False))
    x0, y0 = data.draw(start), data.draw(start)
    f = factorize(problem.A)
    sor = _outcome(problem, f, "sor", k_max, x0, y0)
    fpi = _outcome(problem, f, "fpi", k_max, x0, y0)
    assert sor[:2] == fpi[:2]
    if sor[0] != "diverged":
        # RES may overflow to inf or nan from a huge start; compare its bits.
        assert sor[2].tobytes() == fpi[2].tobytes()
        # 0 * x + z can turn a -0.0 of z into +0.0, so x and y compare by value.
        assert np.array_equal(sor[3], fpi[3]) and np.array_equal(sor[4], fpi[4])


@settings(max_examples=200, deadline=None)
@given(random_ave_problems())
def test_converged_error_bounded_by_residual(problem):
    """With e = x - x* and r = A x - |x| - b, A e - (|x| - |x*|) = r and ||(|x| - |x*|)|| <= ||e||,
    so ||e|| <= nu (||r|| + ||e||), i.e. ||e|| <= nu/(1 - nu) RES ||b|| when nu < 1.

    Slack: 4 n eps ((||A||_F + 1)(||x|| + ||x*||) + ||b||) bounds the rounding in the computed r
    and in the b built from x*; the same nu/(1 - nu) factor carries it to e.
    """
    nu = dense_inv_norm(problem.A)
    # The "dominant" kind has nu <= 1/1.1; the "weak" kind has nu >= 1 up to rounding.
    assume(nu < 0.95)
    f = factorize(problem.A)
    norm_b, norm_A = np.linalg.norm(problem.b), np.linalg.norm(problem.A.values)
    for solver in (solve_sor_like, solve_fpi):
        report = solver(problem, f, SolveConfig(parameter=1.0, k_max=5000))
        assert report.converged
        size = (norm_A + 1) * (np.linalg.norm(report.x) + np.linalg.norm(problem.x_star)) + norm_b
        slack = 4 * problem.n * np.finfo(np.float64).eps * size
        err = np.linalg.norm(report.x - problem.x_star)
        assert err <= nu / (1 - nu) * (report.final_res * norm_b + slack)


class TestGuaranteedConvergence:
    def test_all_parameters_inside_new_ranges(self, lattice8):
        p, f = lattice8
        nu = estimate_inv_norm(p.A)
        sor_hi = range_sor_new(nu).upper
        fpi_hi = range_fpi_new(nu).upper
        for omega in np.linspace(0.05, sor_hi - 0.01, 20):
            report = solve_sor_like(p, f, SolveConfig(parameter=float(omega), k_max=1000))
            assert report.converged, f"omega={omega} did not converge"
        for tau in np.linspace(0.05, fpi_hi - 0.01, 20):
            report = solve_fpi(p, f, SolveConfig(parameter=float(tau), k_max=1000))
            assert report.converged, f"tau={tau} did not converge"


class TestContractionEnvelope:
    @pytest.mark.parametrize("omega", [0.6, 1.0, 1.2])
    def test_sor_bounded_by_W(self, lattice8, omega):
        p, f = lattice8
        nu = estimate_inv_norm(p.A)
        check_contraction_envelope(p, f, "sor", omega, envelope_W(omega, nu))

    @pytest.mark.parametrize("tau", [0.7, 1.0, 1.3])
    def test_fpi_bounded_by_U(self, lattice8, tau):
        p, f = lattice8
        nu = estimate_inv_norm(p.A)
        check_contraction_envelope(p, f, "fpi", tau, envelope_U(tau, nu))
