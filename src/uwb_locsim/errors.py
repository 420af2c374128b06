"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: bad parameters or malformed inputs
exit with 2, numerical failures with 3.
"""


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
