"""Command-line front end: single solves, sweeps, parameter reports, benchmarks.

Each command builds one record (a dict) or table (a list of dicts) for :func:`_emit`, the one
writer of json, csv and text. Every printed solve runs through :func:`_run`, the one place where a
grid with no converged point or a diverged iterate becomes a record; `solve` prints that record and
`bench` makes its row from it. Non-convergence is data, never an exception: it exits 2.
"""

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

from .errors import AveError, DomainError
from .linalg import estimate_inv_norm, factorize
from .params import ParamEnvelope, _check_positive
from .problems import AveProblem, alternating_xstar, build_rhs, gen_lattice, load_matrix_market
from .solvers import SolveConfig, check_stop_rule, solve_fpi, solve_sor_like
from .sweep import domain_curves, grid_argmin, grid_search

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_CONVERGENCE = 2

# What a bad input, file or matrix raises: `main` reports it, `bench` skips the problem.
_FAILURES = (AveError, OSError, ValueError)

BENCH_COLUMNS = ["problem", "method", "param", "it", "cpu", "res"]
SOLVE_COLUMNS = BENCH_COLUMNS[2:]

BENCH_ROWS = (
    ("SORLopt", "sor", "chen"),
    ("SORLnopt", "sor", "optimal"),
    ("SORLno", "sor", "grid"),
    ("FPIopt", "fpi", "optimal"),
    ("FPIno", "fpi", "grid"),
)

_TEXT_LABELS = {"it": "IT", "cpu": "CPU", "res": "RES"}


def _add_problem_flags(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lattice", type=int, metavar="M", help="lattice problem of dimension M^2")
    group.add_argument("--matrix", metavar="PATH", help="Matrix Market file; RHS from alternating x*")


def _add_output_flags(p):
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits EXIT_ERROR: argparse's own 2 is EXIT_NO_CONVERGENCE here
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="ave", description="Solvers for absolute value equations Ax - |x| = b")
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


def _load_problem(lattice: int | None, path: str | None) -> AveProblem:
    if lattice is not None:
        return gen_lattice(lattice)
    A = load_matrix_market(path)
    return build_rhs(A, alternating_xstar(A.n))


def _cell(column: str, value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # .4f shows 0 and [1e-4, 1e6) well; a float outside that, and every RES, is shown as .4e.
        fixed = column != "res" and (value == 0 or 1e-4 <= abs(value) < 1e6)
        return f"{value:.4f}" if fixed else f"{value:.4e}"
    return str(value)


def _strict(value):
    """The value with every non-finite float replaced by None (null in strict JSON)."""
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_strict(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _emit(args, data, columns) -> None:
    """Write one record (a dict) or a table (a list of dicts) as args.format to stdout or args.out.

    json keeps every value as given; csv and text show only ``columns``, one cell format each.
    """
    if args.format == "json":
        text = json.dumps(_strict(data), indent=2, allow_nan=False) + "\n"
    else:
        cells = [[_cell(c, row[c]) for c in columns] for row in ([data] if isinstance(data, dict) else data)]
        if args.format == "csv":
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows([columns, *cells])
            text = buf.getvalue()
        elif isinstance(data, dict):
            text = "  ".join(f"{_TEXT_LABELS.get(c, c)} {x}" for c, x in zip(columns, cells[0])) + "\n"
        else:
            widths = [max(map(len, col)) for col in zip(columns, *cells)]
            text = "".join("  ".join(x.ljust(w) for x, w in zip(line, widths)).rstrip() + "\n"
                           for line in [columns, *cells])
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _param(spec, problem, f, method, args) -> float | None:
    """'optimal' (= 1), 'grid' (the sweep's best point, None if no grid point converged) or a number."""
    if spec == "optimal":
        return 1.0
    if spec == "grid":
        best = grid_argmin(problem, method, tol=args.tol, k_max=args.kmax, f=f)
        return None if best is None else best[0]
    return float(spec)


def _run(problem, f, method, param, args, repeats=1) -> dict:
    """Solve at param (None: no parameter): the record `solve` prints, with cpu averaged over repeats and
    res_history the RES after each update ([] when no solve ran)."""
    failed = {"param": param, "it": "-", "cpu": math.nan, "res": math.nan, "converged": False, "res_history": []}
    if param is None:
        return {**failed, "param": "-", "note": "no grid point converged"}
    solver = solve_sor_like if method == "sor" else solve_fpi
    cfg = SolveConfig(parameter=param, tol=args.tol, k_max=args.kmax)
    t0 = time.perf_counter()
    for _ in range(repeats):
        report = solver(problem, f, cfg)
    cpu = (time.perf_counter() - t0) / repeats
    if report.diverged:
        return {**failed, "res_history": report.res_history,
                "note": f"non-finite iterate at iteration {report.iterations}"}
    return {"param": param, "it": str(report.iterations) if report.converged else "-", "cpu": cpu,
            "res": report.final_res, "converged": report.converged, "res_history": report.res_history}


def cmd_solve(args) -> int:
    problem = _load_problem(args.lattice, args.matrix)
    f = factorize(problem.A)
    rec = _run(problem, f, args.method, _param(args.param, problem, f, args.method, args), args)
    _emit(args, rec, SOLVE_COLUMNS)
    return EXIT_OK if rec["converged"] else EXIT_NO_CONVERGENCE


def cmd_sweep(args) -> int:
    problem = _load_problem(args.lattice, args.matrix)
    if args.format == "csv":
        # Only the table needs every grid point run to its end.
        result = grid_search(problem, args.method, tol=args.tol, k_max=args.kmax)
        rows = [{"param": f"{p:.3f}", "it": "-" if it == result.sentinel else str(int(it))}
                for p, it in zip(result.grid, result.iterations)]
        _emit(args, rows, ["param", "it"])
        best = result.min_it
    else:
        best = grid_argmin(problem, args.method, tol=args.tol, k_max=args.kmax)
        _emit(args, dict(zip(["best_param", "min_it"], best or ("-", "-"))), ["best_param", "min_it"])
    return EXIT_OK if best is not None else EXIT_NO_CONVERGENCE


def cmd_ranges(args) -> int:
    nu = estimate_inv_norm(_load_problem(args.lattice, args.matrix).A)
    env = ParamEnvelope.from_nu(nu)
    r3 = env.range_fpi_old
    rec = {
        "nu": nu,
        "range2_lo": env.range_sor_new.lower,
        "range2_hi": env.range_sor_new.upper,
        "range3_lo": math.nan if r3.empty else r3.lower,
        "range3_hi": math.nan if r3.empty else r3.upper,
        "range3_empty": r3.empty,
        "range4_lo": env.range_fpi_new.lower,
        "range4_hi": env.range_fpi_new.upper,
        "omega_chen_opt": env.omega_chen_opt,
        "omega_nopt": env.omega_nopt,
        "tau_opt": env.tau_opt,
    }
    _emit(args, rec, list(rec))
    return EXIT_OK


def _resolve_matrix(name: str, matrix_dir: str | None) -> str:
    candidates = [name]
    if matrix_dir:
        candidates += [os.path.join(matrix_dir, name), os.path.join(matrix_dir, name + ".mtx")]
    if not name.endswith(".mtx"):
        candidates.append(name + ".mtx")
    for c in candidates:
        if os.path.isfile(c):
            return c
    raise FileNotFoundError(f"matrix '{name}' not found")


def cmd_bench(args) -> int:
    matrix_dir = args.matrix_dir or os.environ.get("AVE_MATRIX_DIR")
    jobs = [(f"lattice{m}", m, None) for m in args.lattice] + [(name, None, name) for name in args.matrix]
    rows = []
    for prob_name, lattice, matrix in jobs:
        try:
            problem = _load_problem(lattice, matrix and _resolve_matrix(matrix, matrix_dir))
            f = factorize(problem.A)
            nu = estimate_inv_norm(problem.A, f=f)
        except _FAILURES as exc:
            print(f"notice: {prob_name}: {exc}, row skipped", file=sys.stderr)
            continue
        try:
            omega_chen = ParamEnvelope.from_nu(nu).omega_chen_opt
        except DomainError:
            # nu >= 1: the sufficient theory gives no parameter, but the solvers still run.
            omega_chen = None
        for label, method, spec in BENCH_ROWS:
            row = {"problem": prob_name, "method": label, "param": "-", "it": "-", "cpu": "-", "res": "-"}
            spec = omega_chen if spec == "chen" else spec
            param = None if spec is None else _param(spec, problem, f, method, args)
            rec = _run(problem, f, method, param, args, repeats=5)
            shown = ["param", "it"] if "note" in rec else SOLVE_COLUMNS  # failed: no cpu, res
            row.update((c, _cell(c, rec[c])) for c in shown)
            rows.append(row)
    _emit(args, rows, BENCH_COLUMNS)
    return EXIT_OK


def cmd_curves(args) -> int:
    rows = domain_curves(np.round(np.arange(1, 100) * 0.01, 2))
    _emit(args, rows, list(rows[0]))
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
        if "tol" in args:  # solve, sweep and bench: bad numbers fail the command before any problem is built
            check_stop_rule(args.tol, args.kmax)
        if args.command == "solve" and args.param not in ("optimal", "grid"):
            _check_positive("iteration parameter", float(args.param))
        return _COMMANDS[args.command](args)
    except _FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
