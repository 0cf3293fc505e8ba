"""Numerical configuration carried explicitly through all computations.

There is no global mutable state: every tolerance or truncation default
travels inside a `NumericConfig` value, so concurrent callers with
different settings never interfere.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import DomainError


@dataclass(frozen=True)
class NumericConfig:
    """Tolerances and truncation defaults for the whole pipeline.

    Attributes
    ----------
    theta_tol : float
        Absolute tail bound for theta summation boxes.
    series_tol : float
        Tail bound for q-series (P1, P_k, Eisenstein).
    solve_residual_tol : float
        Relative residual bound for dense solves.
    quad_points : int
        Circle-quadrature sample count M of the self-sewn torus moments
        (checked there, where ``--quad`` also arrives).
    trunc_order : int
        Default moment-matrix truncation order N.
    pole_guard : float
        Minimal allowed distance to kernel poles / lattice points.
    resonance_guard : float
        Minimal allowed magnitude of twisted-series denominators.
    """

    theta_tol: float = 1e-14
    series_tol: float = 1e-12
    solve_residual_tol: float = 1e-12
    quad_points: int = 64
    trunc_order: int = 16
    pole_guard: float = 1e-8
    resonance_guard: float = 1e-13

    def __post_init__(self) -> None:
        for name in ("theta_tol", "series_tol", "solve_residual_tol",
                     "pole_guard", "resonance_guard"):
            if getattr(self, name) <= 0:
                raise DomainError(f"config field {name} must be positive")
        if self.trunc_order < 1:
            raise DomainError("trunc_order must be >= 1")

    def with_(self, **kwargs) -> "NumericConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


DEFAULT_CONFIG = NumericConfig()
