"""Command-line front end: single solves, sweeps, parameter reports, benchmarks."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time

import numpy as np

from .errors import AveError, DivergenceError, DomainError, NoConvergentParameter
from .linalg import estimate_inv_norm, factorize
from .params import ParamEnvelope
from .problems import AveProblem, alternating_xstar, build_rhs, gen_lattice, load_matrix_market
from .solvers import SolveConfig, solve_fpi, solve_sor_like
from .sweep import default_grid, domain_curves, grid_argmin, grid_search

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_CONVERGENCE = 2

BENCH_ROWS = (
    ("SORLopt", "sor", "chen"),
    ("SORLnopt", "sor", "one"),
    ("SORLno", "sor", "grid"),
    ("FPIopt", "fpi", "one"),
    ("FPIno", "fpi", "grid"),
)


def _add_problem_flags(p, required=True):
    group = p.add_mutually_exclusive_group(required=required)
    group.add_argument("--lattice", type=int, metavar="M", help="lattice problem of dimension M^2")
    group.add_argument("--matrix", metavar="PATH", help="Matrix Market file; RHS from alternating x*")


def _add_output_flags(p):
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ave", description="Solvers for absolute value equations Ax - |x| = b")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one solver on one problem")
    _add_problem_flags(p)
    p.add_argument("--method", choices=("sor", "fpi"), required=True)
    p.add_argument("--param", default="optimal", help="positive real, 'optimal' (=1) or 'grid'")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--kmax", type=int, default=100)
    _add_output_flags(p)

    p = sub.add_parser("sweep", help="grid-search the iteration parameter")
    _add_problem_flags(p)
    p.add_argument("--method", choices=("sor", "fpi"), required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--kmax", type=int, default=100)
    _add_output_flags(p)

    p = sub.add_parser("ranges", help="report nu, convergence ranges and optimal parameters")
    _add_problem_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("bench", help="multi-method table over a problem list")
    p.add_argument("--lattice", type=int, action="append", default=[], metavar="M")
    p.add_argument("--matrix", action="append", default=[], metavar="NAME")
    p.add_argument("--matrix-dir", default=None, help="directory for --matrix files (or env AVE_MATRIX_DIR)")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--kmax", type=int, default=100)
    _add_output_flags(p)

    p = sub.add_parser("curves", help="convergence-domain boundary data over nu in (0, 1)")
    _add_output_flags(p)
    return ap


def _load_problem(args) -> AveProblem:
    if getattr(args, "lattice", None) is not None:
        return gen_lattice(args.lattice)
    A = load_matrix_market(args.matrix)
    return build_rhs(A, alternating_xstar(A.n))


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(data) -> str:
    """Strict JSON (RFC 8259) with non-finite floats written as null."""

    def strict(v):
        if isinstance(v, dict):
            return {k: strict(x) for k, x in v.items()}
        if isinstance(v, list):
            return [strict(x) for x in v]
        return None if isinstance(v, float) and not math.isfinite(v) else v

    return json.dumps(strict(data), indent=2, allow_nan=False) + "\n"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _it_str(converged: bool, iterations: int) -> str:
    return str(iterations) if converged else "-"


def _timed_solve(solver, problem, f, cfg, repeats=1):
    report, elapsed = None, 0.0
    for _ in range(repeats):
        t0 = time.perf_counter()
        report = solver(problem, f, cfg)
        elapsed += time.perf_counter() - t0
    return report, elapsed / repeats


def cmd_solve(args) -> int:
    problem = _load_problem(args)
    f = factorize(problem.A)
    solver = solve_sor_like if args.method == "sor" else solve_fpi
    if args.param == "optimal":
        param = 1.0
    elif args.param == "grid":
        base = SolveConfig(parameter=1.0, tol=args.tol, k_max=args.kmax)
        param, _ = grid_argmin(problem, args.method, cfg=base, f=f)
    else:
        param = float(args.param)
    cfg = SolveConfig(parameter=param, tol=args.tol, k_max=args.kmax)
    try:
        report, cpu = _timed_solve(solver, problem, f, cfg)
    except DivergenceError as exc:
        record = {"param": param, "it": "-", "cpu": float("nan"), "res": float("nan"),
                  "converged": False, "note": str(exc)}
        _render_solve(args, record)
        return EXIT_NO_CONVERGENCE
    record = {
        "param": param,
        "it": _it_str(report.converged, report.iterations),
        "cpu": cpu,
        "res": report.final_res,
        "converged": report.converged,
    }
    _render_solve(args, record)
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def _render_solve(args, rec) -> None:
    if args.format == "json":
        _emit(args, _json_text(rec))
    elif args.format == "csv":
        _emit(args, _csv_text(["param", "it", "cpu", "res"],
                              [[f"{rec['param']:.4f}", rec["it"], f"{rec['cpu']:.4f}", f"{rec['res']:.4e}"]]))
    else:
        _emit(args, f"param {rec['param']:.4f}  IT {rec['it']}  CPU {rec['cpu']:.4f}  RES {rec['res']:.4e}\n")


def cmd_sweep(args) -> int:
    problem = _load_problem(args)
    base = SolveConfig(parameter=1.0, tol=args.tol, k_max=args.kmax)
    if args.format == "csv":
        # Only the table needs every grid point run to its end.
        result = grid_search(problem, args.method, grid=default_grid(), cfg=base)
        rows = [[f"{p:.3f}", _it_str(it != result.sentinel, int(it))]
                for p, it in zip(result.grid, result.iterations)]
        _emit(args, _csv_text(["param", "it"], rows))
        return EXIT_OK
    best_param, min_it = grid_argmin(problem, args.method, grid=default_grid(), cfg=base)
    if args.format == "json":
        _emit(args, _json_text({"best_param": best_param, "min_it": min_it}))
    else:
        _emit(args, f"best_param {best_param:.4f}  min_it {min_it}\n")
    return EXIT_OK


_RANGE_COLUMNS = ["nu", "range2_lo", "range2_hi", "range3_lo", "range3_hi",
                  "range3_empty", "range4_lo", "range4_hi",
                  "omega_chen_opt", "omega_nopt", "tau_opt"]


def _ranges_record(nu: float) -> dict:
    env = ParamEnvelope.from_nu(nu)
    r3 = env.range_fpi_old
    return {
        "nu": nu,
        "range2_lo": env.range_sor_new.lower,
        "range2_hi": env.range_sor_new.upper,
        "range3_lo": float("nan") if r3.empty else r3.lower,
        "range3_hi": float("nan") if r3.empty else r3.upper,
        "range3_empty": r3.empty,
        "range4_lo": env.range_fpi_new.lower,
        "range4_hi": env.range_fpi_new.upper,
        "omega_chen_opt": env.omega_chen_opt,
        "omega_nopt": env.omega_nopt,
        "tau_opt": env.tau_opt,
    }


def cmd_ranges(args) -> int:
    problem = _load_problem(args)
    rec = _ranges_record(estimate_inv_norm(problem.A))
    if args.format == "json":
        _emit(args, _json_text(rec))
    elif args.format == "csv":
        row = [f"{rec[c]:.4f}" if isinstance(rec[c], float) else str(rec[c]).lower()
               for c in _RANGE_COLUMNS]
        _emit(args, _csv_text(_RANGE_COLUMNS, [row]))
    else:
        lines = [f"{c:>16}  {rec[c]:.4f}" if isinstance(rec[c], float) else f"{c:>16}  {rec[c]}"
                 for c in _RANGE_COLUMNS]
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _resolve_matrix(name: str, matrix_dir: str | None):
    candidates = [name]
    if matrix_dir:
        candidates += [os.path.join(matrix_dir, name), os.path.join(matrix_dir, name + ".mtx")]
    if not name.endswith(".mtx"):
        candidates.append(name + ".mtx")
    for c in candidates:
        if os.path.isfile(c):
            return c
    return None


def cmd_bench(args) -> int:
    matrix_dir = args.matrix_dir or os.environ.get("AVE_MATRIX_DIR")
    jobs = [(f"lattice{m}", gen_lattice(m)) for m in args.lattice]
    for name in args.matrix:
        path = _resolve_matrix(name, matrix_dir)
        if path is None:
            print(f"notice: matrix '{name}' not found, row skipped", file=sys.stderr)
            continue
        A = load_matrix_market(path)
        jobs.append((name, build_rhs(A, alternating_xstar(A.n))))

    rows = []
    for prob_name, problem in jobs:
        f = factorize(problem.A)
        nu = estimate_inv_norm(problem.A, f=f)
        try:
            omega_chen = ParamEnvelope.from_nu(nu).omega_chen_opt
        except DomainError:
            # nu >= 1: the sufficient theory gives no parameter, but the solvers still run.
            omega_chen = None
        base = SolveConfig(parameter=1.0, tol=args.tol, k_max=args.kmax)
        for label, method, pick in BENCH_ROWS:
            solver = solve_sor_like if method == "sor" else solve_fpi
            if pick == "chen":
                if omega_chen is None:
                    rows.append([prob_name, label, "-", "-", "-", "-"])
                    continue
                param = omega_chen
            elif pick == "one":
                param = 1.0
            else:
                try:
                    param, _ = grid_argmin(problem, method, cfg=base, f=f)
                except NoConvergentParameter:
                    rows.append([prob_name, label, "-", "-", "-", "-"])
                    continue
            cfg = SolveConfig(parameter=param, tol=args.tol, k_max=args.kmax)
            try:
                report, cpu = _timed_solve(solver, problem, f, cfg, repeats=5)
            except DivergenceError:
                rows.append([prob_name, label, f"{param:.4f}", "-", "-", "-"])
                continue
            rows.append([
                prob_name, label, f"{param:.4f}",
                _it_str(report.converged, report.iterations),
                f"{cpu:.4f}", f"{report.final_res:.4e}",
            ])

    header = ["problem", "method", "param", "it", "cpu", "res"]
    if args.format == "json":
        _emit(args, _json_text([dict(zip(header, row)) for row in rows]))
    elif args.format == "csv":
        _emit(args, _csv_text(header, rows))
    else:
        widths = [max(len(str(x)) for x in col) for col in zip(header, *rows)] if rows else [len(h) for h in header]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        lines += ["  ".join(str(x).ljust(w) for x, w in zip(row, widths)) for row in rows]
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_curves(args) -> int:
    nu_grid = np.round(np.arange(1, 100) * 0.01, 2)
    rows = domain_curves(nu_grid)
    header = ["nu", "sor_new_hi", "fpi_new_hi", "fpi_old_lo", "fpi_old_hi", "fpi_old_empty"]
    if args.format == "json":
        _emit(args, _json_text(rows))
    else:
        out_rows = [[f"{r['nu']:.4f}", f"{r['sor_new_hi']:.4f}", f"{r['fpi_new_hi']:.4f}",
                     f"{r['fpi_old_lo']:.4f}", f"{r['fpi_old_hi']:.4f}",
                     str(r["fpi_old_empty"]).lower()] for r in rows]
        if args.format == "csv":
            _emit(args, _csv_text(header, out_rows))
        else:
            _emit(args, "\n".join("  ".join(row) for row in [header] + out_rows) + "\n")
    return EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "ranges": cmd_ranges,
    "bench": cmd_bench,
    "curves": cmd_curves,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (AveError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
