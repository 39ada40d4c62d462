"""Outside-in tracer: wraps the functions avesolve's modules call into one another.

Nothing inside the package is instrumented. While installed, every public
function bound in the traced modules, plus a few methods, is replaced by a
wrapper that records, per boundary, the call count, total time and self time
(total minus the time of traced callees). Calls are aggregated rather than
kept as spans: the lattice-8 bench makes about 5e5 boundary calls.

Each call is also keyed by its innermost *scope*, the nearest enclosing
`estimate_inv_norm` or `grid_search` call, so that work done for the nu
estimate or inside a sweep can be told apart from the same call elsewhere.

A boundary that the package no longer has reports 0 calls.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

MODULES = ("cli", "sweep", "solvers", "problems", "linalg")
# (module, class, attribute, boundary name) for methods traced besides module functions.
METHODS = (
    ("linalg", "FactorHandle", "solve", "linalg.FactorHandle.solve"),
    ("linalg", "SparseSpdMatrix", "__init__", "linalg.SparseSpdMatrix()"),
    ("params", "ParamEnvelope", "from_nu", "params.ParamEnvelope.from_nu"),
)
NU_SCOPE = "linalg.estimate_inv_norm"
SWEEP_SCOPE = "sweep.grid_search"
SCOPES = (NU_SCOPE, SWEEP_SCOPE)
SOLVERS = ("solvers.solve_sor_like", "solvers.solve_fpi")

# Per-layer metrics of one job sequence: name -> (unit, better).
PER_LAYER = {
    "linalg.matvec_us": ("us", "lower"),
    "linalg.matvec_calls": ("count", "lower"),
    "solvers.self_us_per_iter": ("us", "lower"),
    "solvers.iterations": ("count", "lower"),
    "sweep.points": ("count", "lower"),
    "sweep.points_per_s": ("1/s", "higher"),
    "sweep.converged_ratio": ("ratio", "higher"),
    "sweep.wasted_iter_ratio": ("ratio", "lower"),
    "sweep.grid_search_s": ("s", "lower"),
    "linalg.csr_build_s": ("s", "lower"),
    "linalg.csr_build_calls": ("count", "lower"),
    "problems.gen_lattice_s": ("s", "lower"),
    "problems.build_rhs_s": ("s", "lower"),
    "linalg.factorize_s": ("s", "lower"),
    "linalg.factorize_calls": ("count", "lower"),
    "linalg.nu_s": ("s", "lower"),
    "linalg.nu_factorize_calls": ("count", "lower"),
    "linalg.nu_solve_calls": ("count", "lower"),
    "linalg.factor_solve_us": ("us", "lower"),
    "linalg.factor_solve_calls": ("count", "lower"),
    "problems.load_matrix_market_s": ("s", "lower"),
    "problems.mm_entries_per_s": ("1/s", "higher"),
    "cli.self_s": ("s", "lower"),
    "params.envelope_s": ("s", "lower"),
    "trace.boundary_calls": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
# Metrics that count work; they must repeat exactly from one traced run to the next.
COUNTS = tuple(m for m, (unit, _) in PER_LAYER.items() if unit == "count")


def _package_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items() if name == "avesolve" or name.startswith("avesolve.")}


class Tracer:
    """Install with :meth:`install`, run the jobs, then :meth:`uninstall`."""

    def __init__(self):
        self.stats = {}  # (scope, boundary) -> [calls, total_s, self_s]
        self.counters = defaultdict(int)  # (scope, counter) -> value
        self.scope = None
        self._stack = []  # one [child_s] cell per active traced call
        self._patches = []  # (owner, attribute, original)
        self._snapshot = []

    # --- installing and restoring ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        # (label, owner, its attributes before installing), for the restore self-check
        self._snapshot = [(name, mod, dict(vars(mod))) for name, mod in _package_modules().items()]
        wrappers = {}  # one wrapper per original function, shared by every binding
        for short in MODULES:
            mod = importlib.import_module(f"avesolve.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not getattr(obj, "__module__", "").startswith("avesolve."):
                    continue
                if obj not in wrappers:
                    name = f"{obj.__module__.removeprefix('avesolve.')}.{obj.__qualname__}"
                    wrappers[obj] = self._wrap(name, obj)
                self._patch(mod, attr, wrappers[obj])
        for short, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules.get(f"avesolve.{short}"), cls_name, None)
            raw = vars(cls).get(attr) if cls is not None else None
            if raw is None:
                continue
            self._snapshot.append((f"{short}.{cls_name}", cls, dict(vars(cls))))
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(name, raw))

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> list[str]:
        """Restore every original; return the attributes that are not the original again."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        errors = self._restore_errors()
        self._patches.clear()
        return errors

    def _restore_errors(self) -> list[str]:
        patched = {(id(owner), attr) for owner, attr, _ in self._patches}
        errors = []
        for label, owner, before in self._snapshot:
            after = vars(owner)
            for attr in set(before) | set(after):
                now = after.get(attr, _MISSING)
                if now is before.get(attr, _MISSING):
                    continue
                if (id(owner), attr) in patched or getattr(getattr(now, "__func__", now), "_avebench_traced", False):
                    errors.append(f"{label}.{attr} is not the original after tracing")
        return errors

    # --- recording -------------------------------------------------------------------------

    def _wrap(self, name, fn):
        tracer, stack, stats, clock = self, self._stack, self.stats, time.perf_counter
        is_scope = name in SCOPES
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            scope = tracer.scope
            if is_scope:
                tracer.scope = name
            cell = [0.0]
            stack.append(cell)
            result = error = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                tracer.scope = scope
                rec = stats.get((scope, name))
                if rec is None:
                    rec = stats[(scope, name)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - cell[0]
                if observe is not None:
                    observe(tracer.counters, scope, result, error)

        traced.__wrapped__ = fn
        traced._avebench_traced = True
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    # --- aggregation -----------------------------------------------------------------------

    def boundaries(self) -> dict:
        """Per boundary, over all scopes: [calls, total_s, self_s]."""
        out = {}
        for (_, name), (calls, total, self_s) in self.stats.items():
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        return out

    def per_layer(self, mm_entries: int) -> dict:
        """The PER_LAYER metrics of what ran while installed (trace.overhead_s excepted)."""
        b = self.boundaries()

        def calls(name, scope=None):
            if scope is None:
                return b.get(name, [0])[0]
            return self.stats.get((scope, name), [0])[0]

        def total(name):
            return b.get(name, [0, 0.0])[1]

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counters
        iterations = sum(v for (_, key), v in c.items() if key == "iterations")
        solver_self = sum(b.get(s, [0, 0.0, 0.0])[2] for s in SOLVERS)
        points = c[(None, "sweep.points")]
        return {
            "linalg.matvec_us": 1e6 * ratio(total("linalg.matvec"), calls("linalg.matvec")),
            "linalg.matvec_calls": calls("linalg.matvec"),
            "solvers.self_us_per_iter": 1e6 * ratio(solver_self, iterations),
            "solvers.iterations": iterations,
            "sweep.points": points,
            "sweep.points_per_s": ratio(points, total(SWEEP_SCOPE)),
            "sweep.converged_ratio": ratio(c[(None, "sweep.converged")], points),
            "sweep.wasted_iter_ratio": ratio(c[(SWEEP_SCOPE, "wasted")], c[(SWEEP_SCOPE, "iterations")]),
            "sweep.grid_search_s": total(SWEEP_SCOPE),
            "linalg.csr_build_s": total("linalg.SparseSpdMatrix()"),
            "linalg.csr_build_calls": calls("linalg.SparseSpdMatrix()"),
            "problems.gen_lattice_s": total("problems.gen_lattice"),
            "problems.build_rhs_s": total("problems.build_rhs"),
            "linalg.factorize_s": total("linalg.factorize"),
            "linalg.factorize_calls": calls("linalg.factorize"),
            "linalg.nu_s": total(NU_SCOPE),
            "linalg.nu_factorize_calls": calls("linalg.factorize", NU_SCOPE),
            "linalg.nu_solve_calls": calls("linalg.FactorHandle.solve", NU_SCOPE),
            "linalg.factor_solve_us": 1e6
            * ratio(total("linalg.FactorHandle.solve"), calls("linalg.FactorHandle.solve")),
            "linalg.factor_solve_calls": calls("linalg.FactorHandle.solve"),
            "problems.load_matrix_market_s": total("problems.load_matrix_market"),
            "problems.mm_entries_per_s": ratio(
                mm_entries * calls("problems.load_matrix_market"), total("problems.load_matrix_market")
            ),
            "cli.self_s": sum(rec[2] for name, rec in b.items() if name.startswith("cli.")),
            "params.envelope_s": total("params.ParamEnvelope.from_nu"),
            "trace.boundary_calls": sum(rec[0] for rec in b.values()),
        }


_MISSING = object()


def _observe_solver(counters, scope, report, error):
    # A SolveReport carries iterations/converged; a DivergenceError carries the iteration.
    its = getattr(report, "iterations", None)
    if its is None:
        its = getattr(error, "iteration", 0)
    counters[(scope, "iterations")] += int(its)
    if not getattr(report, "converged", False):
        counters[(scope, "wasted")] += int(its)


def _observe_sweep(counters, scope, result, error):
    grid = getattr(result, "grid", None)
    if grid is None:
        return
    counters[(None, "sweep.points")] += len(grid)
    counters[(None, "sweep.converged")] += int((result.iterations != result.sentinel).sum())


_OBSERVERS = {
    "solvers.solve_sor_like": _observe_solver,
    "solvers.solve_fpi": _observe_solver,
    SWEEP_SCOPE: _observe_sweep,
}
