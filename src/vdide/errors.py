"""Exception hierarchy shared across the package.

Everything raised deliberately by this package derives from VdideError, so
callers can catch one type at the boundary.  Setup problems (bad grids, bad
configs) and numerical failures (blow-up, stalled iterations) are kept on
separate branches because command-line exit codes distinguish them.
"""


class VdideError(Exception):
    """Base class for all errors raised by this package."""


class ProblemSetupError(VdideError):
    """Invalid problem, grid, config, or sampling request."""


class NonCommensurateInterval(ProblemSetupError):
    """(x_end - x0) / h is not an integer number of steps."""


class NonCommensurateDelay(ProblemSetupError):
    """tau / h is not an integer number of steps."""


class ZeroDelaySteps(ProblemSetupError):
    """The delay spans zero grid steps, so delayed lookups would hit the future."""


class OffGridSample(ProblemSetupError):
    """A requested sample point does not lie on the grid."""


class ConfigError(ProblemSetupError):
    """A problem config file or registry reference is invalid."""


class IndexNotYetComputed(VdideError):
    """A trajectory value was read before it was computed."""


class DegenerateError(VdideError):
    """Observed errors are zero or non-finite, so no order can be fitted."""


class _Located(VdideError):
    """A failure a solve can locate.

    step_index is the step j whose advance from x_j failed and x the grid
    point x_j; a solve sets both when the error escapes it.  A failure of a
    built problem's phi or exact names it in slot instead, with x the point
    it was evaluated at.
    """

    x: float | None = None
    slot: str | None = None

    def __init__(self, message: str, step_index: int | None = None):
        super().__init__(message)
        self.step_index = step_index


class NumericalError(_Located):
    """A solve failed for numerical reasons."""


class NonFiniteState(NumericalError):
    """A step produced NaN or infinity."""


class NoConvergence(NumericalError):
    """Fixed-point iteration did not reach tolerance within the iteration cap."""
