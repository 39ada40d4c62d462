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


class ParseError(AveError):
    """Malformed Matrix Market input."""

    def __init__(self, message: str, line_number: int):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class SymmetryError(DomainError):
    """Stored matrix values or pattern are not symmetric (raised by SparseSpdMatrix)."""
