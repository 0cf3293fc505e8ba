"""Numerical configuration carried explicitly through all computations.

There is no global mutable state: every tolerance travels inside a
`NumericConfig` value, so concurrent callers with different settings
never interfere.  The truncation order N and the quadrature count M are
arguments of the contexts, defaulting to the constants below.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .errors import DomainError

DEFAULT_ORDER = 16  # moment-matrix truncation order N
DEFAULT_QUAD_POINTS = 64  # contour quadrature count M of the self-sewn torus


@dataclass(frozen=True)
class NumericConfig:
    """Tolerances for the whole pipeline.

    Attributes
    ----------
    theta_tol : float
        Absolute tail bound for theta summation boxes.
    series_tol : float
        Tail bound for q-series (P1, P_k, Eisenstein).
    solve_residual_tol : float
        Relative residual bound for dense solves.
    pole_guard : float
        Minimal allowed distance to kernel poles / lattice points.
    resonance_guard : float
        Minimal allowed magnitude of twisted-series denominators.
    """

    theta_tol: float = 1e-14
    series_tol: float = 1e-12
    solve_residual_tol: float = 1e-12
    pole_guard: float = 1e-8
    resonance_guard: float = 1e-13

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise DomainError(f"config field {f.name} must be positive")

    def with_(self, **kwargs) -> "NumericConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


DEFAULT_CONFIG = NumericConfig()
