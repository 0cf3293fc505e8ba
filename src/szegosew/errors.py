"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: domain/input problems exit with 2,
numerical failures (non-convergence, singular solves, branch-tracking
breakdowns) exit with 3.
"""


class SzegosewError(Exception):
    """Base class for all package errors."""


class DomainError(SzegosewError):
    """Input outside the mathematical domain (moduli, points, characteristics)."""


class ConvergenceError(SzegosewError):
    """A truncated sum or quadrature failed its tail/refinement bound."""


class ResonanceError(SzegosewError):
    """A denominator 1 - theta^{+-1} q^{k+lam} fell below the resonance guard.

    These are genuine degenerations of the twisted kernel, not numerical
    noise, so they are reported as errors rather than large values.
    """


class SingularMatrixError(SzegosewError):
    """A dense solve hit a (numerically) singular or ill-conditioned matrix."""


class BranchTrackingError(SzegosewError):
    """A fractional power or log is not single-valued where it must be: a
    contour integrand misses its start value at the closure node, or a
    modular action cannot carry the covering data."""
