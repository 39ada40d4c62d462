"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from avesolve import (
    SolveConfig,
    chen_opt_omega,
    estimate_inv_norm,
    factorize,
    gen_lattice,
    load_matrix_market,
    alternating_xstar,
    build_rhs,
    range_fpi_new,
    range_fpi_old,
    range_sor_new,
    g_nu_sor,
    rho_U,
    rho_W,
    solve_sor_like,
)
from conftest import (
    check_contraction_envelope,
    dense_inv_norm,
    matrix_path,
    require_matrix,
    run_iterates,
    trefethen_b,
)

TABLE1 = {
    # m: (nu, range2_hi, range3_lo, range3_hi, range4_hi)
    8: (0.2358, 1.3463, 0.0369, 1.5956, 1.6184),
    16: (0.2458, 1.3371, 0.0407, 1.5808, 1.6054),
    32: (0.2489, 1.3343, 0.0419, 1.5762, 1.6014),
}

TABLE2_RES = {8: 2.6003e-09, 16: 3.2109e-09, 32: 3.5117e-09, 64: 3.6612e-09}


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE criterion {criterion}: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_table1_parameters():
    t0 = time.perf_counter()
    for m, (nu_ref, r2_hi, r3_lo, r3_hi, r4_hi) in TABLE1.items():
        nu = estimate_inv_norm(gen_lattice(m).A)
        assert abs(nu - nu_ref) <= 5e-4, f"m={m}: nu={nu}"
        assert abs(range_sor_new(nu).upper - r2_hi) <= 1e-3
        r3 = range_fpi_old(nu)
        assert not r3.empty
        assert abs(r3.lower - r3_lo) <= 1e-3 and abs(r3.upper - r3_hi) <= 1e-3
        assert abs(range_fpi_new(nu).upper - r4_hi) <= 1e-3
    elapsed = time.perf_counter() - t0
    report(1, elapsed < 10.0, f"(Table 1 values matched, {elapsed:.2f}s)")


def test_criterion_2_table2_iteration_counts():
    t0 = time.perf_counter()
    for m, res_ref in TABLE2_RES.items():
        p = gen_lattice(m)
        rep = solve_sor_like(p, factorize(p.A), SolveConfig(parameter=1.0))
        assert rep.converged and rep.iterations == 11, f"m={m}: IT={rep.iterations}"
        assert rep.final_res <= 1e-8
        assert res_ref / 10 <= rep.final_res <= res_ref * 10
    elapsed = time.perf_counter() - t0
    report(2, elapsed < 30.0, f"(IT = 11 for m in 8..64, {elapsed:.2f}s)")


def test_criterion_3_equivalence_at_optimum(tref20b):
    problems = [gen_lattice(m) for m in (1, 2, 8, 16)]
    problems.append(build_rhs(tref20b, alternating_xstar(tref20b.n)))
    for p in problems:
        f = factorize(p.A)
        _, sor_iters, _ = run_iterates(p, f, "sor", 1.0)
        _, fpi_iters, _ = run_iterates(p, f, "fpi", 1.0)
        assert len(sor_iters) == len(fpi_iters)
        for (xs, ys), (xf, yf) in zip(sor_iters, fpi_iters):
            assert np.array_equal(xs, xf) and np.array_equal(ys, yf)
    report(3, True, "(SOR(w=1) and FPI(t=1) histories bit-identical)")


@pytest.mark.usefixtures("sparse_branch")
def test_criteria_2_3_on_sparse_branch(tref20b):
    """Table 2 and the SOR(w=1) = FPI(t=1) bit-identity again, with every
    factorization on the SuperLU branch."""
    test_criterion_2_table2_iteration_counts()
    test_criterion_3_equivalence_at_optimum(tref20b)


def test_criterion_4_spectral_radius_oracle():
    t0 = time.perf_counter()
    params = np.linspace(0.02, 1.98, 100)
    nus = np.linspace(0.01, 0.99, 100)
    max_dev = 0.0
    for w in params:
        a = abs(1.0 - w)
        for nu in nus:
            W = np.array([[a, w * nu], [w * a, w * w * nu + a]])
            U = np.array([[0.0, nu], [0.0, w * nu + a]])
            max_dev = max(
                max_dev,
                abs(rho_W(w, nu) - max(abs(np.linalg.eigvals(W)))),
                abs(rho_U(w, nu) - max(abs(np.linalg.eigvals(U)))),
            )
    elapsed = time.perf_counter() - t0
    report(4, max_dev <= 1e-10 and elapsed < 1.0,
           f"(max deviation {max_dev:.2e}, {elapsed:.2f}s)")


def test_criterion_5_minimizers():
    for nu in np.linspace(0.02, 0.98, 50):
        grid = np.arange(0.001, range_sor_new(nu).upper, 0.001)
        best = grid[np.argmin([g_nu_sor(w, nu) for w in grid])]
        assert abs(best - 1.0) <= 0.001 + 1e-12
        grid = np.arange(0.001, range_fpi_new(nu).upper, 0.001)
        best = grid[np.argmin([rho_U(t, nu) for t in grid])]
        assert abs(best - 1.0) <= 0.001 + 1e-12
        assert rho_W(1.0, nu) == nu
        assert rho_U(1.0, nu) == nu
    report(5, True, "(grid argmin = 1, rho(1, nu) = nu exactly)")


def test_criterion_6_guaranteed_convergence_and_envelope():
    p = gen_lattice(8)
    f = factorize(p.A)
    nu = estimate_inv_norm(p.A)
    sor_hi = range_sor_new(nu).upper
    fpi_hi = range_fpi_new(nu).upper
    for omega in np.linspace(0.05, sor_hi - 0.01, 20):
        omega = float(omega)
        a = abs(1.0 - omega)
        W = np.array([[a, omega * nu], [omega * a, omega**2 * nu + a]])
        check_contraction_envelope(p, f, "sor", omega, W, slack=1e-10)
    for tau in np.linspace(0.05, fpi_hi - 0.01, 20):
        tau = float(tau)
        U = np.array([[0.0, nu], [0.0, tau * nu + abs(1.0 - tau)]])
        check_contraction_envelope(p, f, "fpi", tau, U, slack=1e-10)
    report(6, True, "(all 20+20 in-range parameters converged; envelope held)")


MESH_REFERENCE = {
    # name: (nu, sor_it, chen_omega, range3_empty)
    "mesh1e1": (0.5747, 26, 0.8218, False),
    "mesh2e1": (0.7615, 24, 0.7210, True),
}


@pytest.mark.parametrize("name", sorted(MESH_REFERENCE))
def test_criterion_7_mesh_matrices(name):
    path = require_matrix(name)
    nu_ref, it_ref, chen_ref, r3_empty = MESH_REFERENCE[name]
    A = load_matrix_market(path)
    nu = estimate_inv_norm(A)
    assert abs(nu - nu_ref) <= 5e-4
    assert range_fpi_old(nu).empty == r3_empty
    assert abs(chen_opt_omega(nu) - chen_ref) <= 5e-4
    p = build_rhs(A, alternating_xstar(A.n))
    rep = solve_sor_like(p, factorize(A), SolveConfig(parameter=1.0))
    assert rep.converged and rep.iterations == it_ref
    report(7, True, f"({name}: nu={nu:.4f}, IT={rep.iterations})")


def test_criterion_7_trefethen_20b(tmp_path, tref20b):
    nu = estimate_inv_norm(tref20b)
    assert abs(nu - 0.4244) <= 5e-4
    assert abs(chen_opt_omega(nu) - 0.9114) <= 5e-4
    p = build_rhs(tref20b, alternating_xstar(tref20b.n))
    rep = solve_sor_like(p, factorize(tref20b), SolveConfig(parameter=1.0))
    assert rep.converged and rep.iterations == 15
    report(7, True, f"(Trefethen_20b: nu={nu:.4f}, IT={rep.iterations})")


def test_criterion_8_nu_oracle(tref20b, tref200b):
    matrices = [gen_lattice(m).A for m in range(2, 15)]  # n up to 196
    matrices += [tref20b, tref200b]
    worst = 0.0
    for A in matrices:
        assert A.n <= 200
        ref = dense_inv_norm(A)
        worst = max(worst, abs(estimate_inv_norm(A) - ref) / ref)
    report(8, worst <= 1e-6, f"(max relative error {worst:.2e} over {len(matrices)} matrices)")
