"""Shared numerical infrastructure.

Dense complex linear algebra (one LU factorisation per matrix serving
gated solves and the determinant), spectrally accurate trapezoidal
quadrature on circles, and geometric tail fitting.

All matrices here are small (at most a few hundred rows), so dense
LAPACK-backed factorizations are used throughout; the operation contracts
(residual bounds, condition thresholds, determinism) are what the rest of
the package relies on.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg as sla

from .config import DEFAULT_CONFIG, NumericConfig
from .errors import ConvergenceError, DomainError, SingularMatrixError

CONDITION_THRESHOLD = 1e12

__all__ = [
    "as_complex_matrix",
    "LU",
    "lu_solve",
    "determinant",
    "circle_nodes",
    "tail_estimate",
]


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D complex array with finite entries."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2:
        raise DomainError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains NaN or Inf entries")
    return arr


class LU:
    """Pivoted LU factors of one square complex matrix, computed once.

    The matrix is validated, factorised and its one-norm condition
    estimated here; every ``solve`` and ``det`` reads these factors.
    """

    def __init__(self, a) -> None:
        self.a = as_complex_matrix(a, "A")
        n = self.a.shape[0]
        if self.a.shape[1] != n:
            raise DomainError("A must be square")
        # an exactly singular matrix warns here; solve raises instead
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            self.lu, self.piv = sla.lu_factor(self.a, check_finite=False)
        self.singular = bool(np.any(np.abs(np.diag(self.lu)) == 0.0))
        self.cond = np.inf
        if n and not self.singular:
            rcond, info = sla.lapack.zgecon(
                self.lu, np.linalg.norm(self.a, 1), norm="1")
            if info == 0 and rcond > 0.0:
                self.cond = 1.0 / rcond

    def solve(self, b, cfg: NumericConfig = DEFAULT_CONFIG) -> np.ndarray:
        """Solve A X = B for a vector or matrix B.

        Enforces ``||AX - B||_inf <= solve_residual_tol * ||B||_inf`` and
        rejects matrices whose condition estimate exceeds the fixed
        threshold.
        """
        bmat = np.asarray(b, dtype=complex)
        squeeze = bmat.ndim == 1
        if squeeze:
            bmat = bmat[:, None]
        bmat = as_complex_matrix(bmat, "B")
        if bmat.shape[0] != self.a.shape[0]:
            raise DomainError("A and B have incompatible shapes")
        if self.singular:
            raise SingularMatrixError("matrix is singular to working precision")
        if self.cond > CONDITION_THRESHOLD:
            raise SingularMatrixError(
                f"condition estimate {self.cond:.3e} "
                f"exceeds threshold {CONDITION_THRESHOLD:.1e}")
        x = sla.lu_solve((self.lu, self.piv), bmat, check_finite=False)
        bnorm = np.linalg.norm(bmat, np.inf)
        resid = np.linalg.norm(self.a @ x - bmat, np.inf)
        if bnorm > 0 and resid > cfg.solve_residual_tol * max(bnorm, 1.0):
            raise SingularMatrixError(
                f"solve residual {resid:.3e} exceeds tolerance "
                f"{cfg.solve_residual_tol:.1e} * ||B||")
        return x[:, 0] if squeeze else x

    def det(self) -> complex:
        """Determinant from the factors; not gated (singular gives 0)."""
        swaps = np.count_nonzero(self.piv != np.arange(len(self.piv)))
        return complex((-1.0) ** swaps * np.prod(np.diag(self.lu)))


def lu_solve(a, b, cfg: NumericConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Solve A X = B once through a gated ``LU``."""
    return LU(a).solve(b, cfg)


def determinant(a) -> complex:
    """Determinant of a square complex matrix from its pivoted LU factors."""
    return LU(a).det()


def circle_nodes(center: complex, radius: float, m: int):
    """Sample points and quadrature weights for (1/2pi i) oint f dz.

    Returns ``(z, w)`` with ``z_j = center + r e^{i phi_j}`` at the M
    equispaced angles ``phi_j = 2 pi j / M`` and weights such that
    ``sum(w * f(z))`` is the trapezoidal approximation of the contour
    integral divided by 2 pi i.
    """
    if radius <= 0:
        raise DomainError("contour radius must be positive")
    if m < 2:
        raise DomainError("need at least 2 quadrature points")
    phi = 2.0 * np.pi * np.arange(m) / m
    unit = np.exp(1j * phi)
    z = center + radius * unit
    w = radius * unit / m
    return z, w


def tail_estimate(seq, spread_factor: float = 8.0):
    """Fit a geometric decay rate to successive differences of partial values.

    Parameters
    ----------
    seq : sequence of (complex) partial values, length >= 4.
    spread_factor : float
        Maximal allowed ratio between the largest and smallest per-step
        decay ratio before the behavior is flagged as non-geometric.

    Returns
    -------
    (rate, bound) : fitted geometric ratio of the successive difference
        magnitudes and the implied tail bound ``d_last * rate / (1-rate)``.
        A (numerically) constant sequence returns ``(0.0, 0.0)``.
    """
    vals = np.asarray(seq, dtype=complex)
    if vals.ndim != 1 or vals.size < 4:
        raise DomainError("tail_estimate needs >= 4 partial values")
    if not np.all(np.isfinite(vals)):
        raise DomainError("tail_estimate input contains NaN/Inf")
    diffs = np.abs(np.diff(vals))
    scale = max(np.max(np.abs(vals)), 1.0)
    live = diffs > 1e-15 * scale
    if not np.any(live):
        return 0.0, 0.0
    # Trailing converged steps are fine; interior dead steps break ratios.
    last_live = int(np.nonzero(live)[0][-1])
    diffs = diffs[: last_live + 1]
    if diffs.size < 2:
        return 0.0, float(diffs[-1])
    ratios = diffs[1:] / diffs[:-1]
    if np.min(ratios) <= 0:
        raise ConvergenceError("non-geometric tail: vanishing interior step")
    if np.max(ratios) / np.min(ratios) > spread_factor:
        raise ConvergenceError(
            f"non-geometric tail: ratio spread {np.max(ratios)/np.min(ratios):.2f}")
    rate = float(np.exp(np.mean(np.log(ratios))))
    if rate >= 1.0:
        raise ConvergenceError(f"tail not decaying: fitted rate {rate:.3f}")
    bound = float(diffs[-1] * rate / (1.0 - rate))
    return rate, bound
