"""Exception types shared across the toolkit, and the array size check.

The CLI maps these onto exit codes: bad parameters or malformed inputs
exit with 2, numerical failures with 3, and a MemoryError (also the
one ``check_array_size`` raises) with 2.
"""

import sys


class ParameterError(ValueError):
    """A model, config, or operation parameter violates its constraints."""


class DataError(ValueError):
    """Input data is degenerate, malformed, or missing a required entry."""


class ConvergenceError(RuntimeError):
    """An iterative fit stopped without meeting its convergence test (for the
    profile-likelihood fits, a gradient still above tolerance).

    Carries the best result found so far in ``best`` so callers can
    inspect or rank it anyway.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class SingularGeometryError(RuntimeError):
    """The anchor geometry cannot support a position solve."""


def check_array_size(items: int) -> None:
    """Raise MemoryError if one numpy array cannot index ``items`` 8-byte
    items. Beyond that size numpy raises ValueError instead, and its
    ``arange`` returns an empty array for a length near 2**63."""
    if items > sys.maxsize // 8:
        raise MemoryError(f"{items} 8-byte items exceed one array's index range")
