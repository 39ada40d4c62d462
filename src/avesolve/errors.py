"""Exception hierarchy shared across the package."""


class AveError(Exception):
    """Base class for all avesolve errors."""


class DomainError(AveError):
    """Input is outside the domain where the theory or operation applies."""


class DimensionMismatch(AveError):
    """Vector/matrix dimensions are inconsistent."""


class NotPositiveDefinite(AveError):
    """Cholesky factorization hit a non-positive pivot."""

    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
        super().__init__(f"matrix is not positive definite: non-positive pivot at index {pivot_index}")


class ConvergenceFailure(AveError):
    """An inner iteration (e.g. the nu estimate) did not converge."""


class DivergenceError(AveError):
    """A solver iterate became non-finite."""

    def __init__(self, iteration: int):
        self.iteration = iteration
        super().__init__(f"non-finite iterate at iteration {iteration}")


class BracketFailure(AveError):
    """Bisection bracket endpoints do not straddle a sign change."""

    def __init__(self, lo: float, f_lo: float, hi: float, f_hi: float):
        self.lo, self.f_lo, self.hi, self.f_hi = lo, f_lo, hi, f_hi
        super().__init__(f"no sign change on bracket: f({lo}) = {f_lo}, f({hi}) = {f_hi}")


class ParseError(AveError):
    """Malformed Matrix Market input."""

    def __init__(self, message: str, line_number: int):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class SymmetryError(AveError):
    """Matrix declared general is not symmetric after assembly."""


class NoConvergentParameter(AveError):
    """No grid point in a parameter sweep converged."""
