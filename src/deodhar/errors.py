"""Exception hierarchy shared across the package, and its size limits."""

__all__ = [
    "DeodharError",
    "InputError",
    "DomainError",
    "NotInComponentError",
    "InternalCheckError",
]


class DeodharError(Exception):
    """Base class for every error raised by this package."""


class InputError(DeodharError, ValueError):
    """Structurally invalid input: wrong shapes, bad indices, malformed words."""


class DomainError(DeodharError, ValueError):
    """Well-formed input that violates a mathematical precondition."""


class NotInComponentError(DomainError):
    """A flag does not lie in the Deodhar component required by the operation."""


class InternalCheckError(DeodharError, RuntimeError):
    """An internal cross-check failed.  Indicates a bug, never bad input."""


# Every size limit: name -> (largest value allowed, message above it).  The
# degree and R-polynomial rows are set from timings of w0 (README, Limits).
LIMITS = {
    "degree": (64, "degree {value} is above the degree limit {limit}"),
    "reduced words": (6, "reduced word enumeration is limited to degree {limit}"),
    "distinguished": (6, "distinguished enumeration is limited to degree {limit}"),
    "R-polynomial": (11, "R-polynomials are limited to degree {limit}"),
    "expansion size": (6, "symbolic expansion is limited to size {limit}"),
    "expansion degree": (9, "symbolic entry names need single-digit indices"),
}


def check_limit(name: str, value: int) -> int:
    """Return value, or raise DomainError when it is above the named limit."""
    limit, message = LIMITS[name]
    if value > limit:
        raise DomainError(message.format(value=value, limit=limit))
    return value
