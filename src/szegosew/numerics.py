"""Shared numerical infrastructure.

Dense complex linear algebra (gated LU solve, determinant),
spectrally accurate trapezoidal quadrature on circles, geometric tail
fitting, and the truncated block moment matrix container used by both
sewing schemes.

All matrices here are small (at most a few hundred rows), so dense
LAPACK-backed factorizations are used throughout; the operation contracts
(residual bounds, condition thresholds, determinism) are what the rest of
the package relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .config import DEFAULT_CONFIG, NumericConfig
from .errors import ConvergenceError, DomainError, SingularMatrixError

CONDITION_THRESHOLD = 1e12

__all__ = [
    "as_complex_matrix",
    "lu_solve",
    "determinant",
    "circle_nodes",
    "tail_estimate",
    "MomentMatrix",
]


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D complex array with finite entries."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2:
        raise DomainError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains NaN or Inf entries")
    return arr


def lu_solve(a, b, cfg: NumericConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Solve A X = B by dense LU with partial pivoting.

    Enforces the contract ``||AX - B||_inf <= solve_residual_tol * ||B||_inf``
    and rejects matrices whose one-norm condition estimate exceeds the
    fixed threshold.
    """
    amat = as_complex_matrix(a, "A")
    bmat = np.asarray(b, dtype=complex)
    squeeze = bmat.ndim == 1
    if squeeze:
        bmat = bmat[:, None]
    bmat = as_complex_matrix(bmat, "B")
    n = amat.shape[0]
    if amat.shape[1] != n:
        raise DomainError("A must be square")
    if bmat.shape[0] != n:
        raise DomainError("A and B have incompatible shapes")

    anorm = np.linalg.norm(amat, 1)
    try:
        lu, piv = sla.lu_factor(amat, check_finite=False)
    except (ValueError, sla.LinAlgError) as exc:  # pragma: no cover
        raise SingularMatrixError(str(exc)) from exc
    if np.any(np.abs(np.diag(lu)) == 0.0):
        raise SingularMatrixError("matrix is singular to working precision")
    rcond, info = sla.lapack.zgecon(lu, anorm, norm="1")
    if info != 0 or rcond == 0.0 or 1.0 / rcond > CONDITION_THRESHOLD:
        raise SingularMatrixError(
            f"condition estimate {np.inf if rcond == 0 else 1.0 / rcond:.3e} "
            f"exceeds threshold {CONDITION_THRESHOLD:.1e}")

    x = sla.lu_solve((lu, piv), bmat, check_finite=False)
    bnorm = np.linalg.norm(bmat, np.inf)
    resid = np.linalg.norm(amat @ x - bmat, np.inf)
    if bnorm > 0 and resid > cfg.solve_residual_tol * max(bnorm, 1.0):
        raise SingularMatrixError(
            f"solve residual {resid:.3e} exceeds tolerance "
            f"{cfg.solve_residual_tol:.1e} * ||B||")
    return x[:, 0] if squeeze else x


def determinant(a) -> complex:
    """Determinant of a square complex matrix from its pivoted LU factors."""
    arr = as_complex_matrix(a)
    n = arr.shape[0]
    if arr.shape[1] != n:
        raise DomainError("determinant needs a square matrix")
    if n == 0:
        return 1.0 + 0.0j
    lu, piv = sla.lu_factor(arr, check_finite=False)
    sign = 1.0
    for i, p in enumerate(piv):
        if p != i:
            sign = -sign
    return complex(sign * np.prod(np.diag(lu)))


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


@dataclass(frozen=True)
class MomentMatrix:
    """Truncated 2x2-block moment matrix (F, Q, G, T, X or Y).

    Blocks are indexed by annulus labels (a,b) in {1,2} and mode indices
    k,l in 1..N, stored as a single 2N x 2N array with block (a,b)
    occupying rows (a-1)N..aN and columns (b-1)N..bN.
    """

    data: np.ndarray
    trunc_order: int = field(default=0)

    def __post_init__(self) -> None:
        arr = as_complex_matrix(self.data, "moment matrix")
        n = self.trunc_order or arr.shape[0] // 2
        if arr.shape != (2 * n, 2 * n):
            raise DomainError(
                f"moment matrix shape {arr.shape} does not match order {n}")
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "trunc_order", n)

    @classmethod
    def from_blocks(cls, b11, b12, b21, b22) -> "MomentMatrix":
        blocks = [as_complex_matrix(b, "block") for b in (b11, b12, b21, b22)]
        n = blocks[0].shape[0]
        for b in blocks:
            if b.shape != (n, n):
                raise DomainError("all blocks must be square of equal size")
        data = np.block([[blocks[0], blocks[1]], [blocks[2], blocks[3]]])
        return cls(data=data, trunc_order=n)

    def block(self, a: int, b: int) -> np.ndarray:
        """Return a copy of block (a,b), a,b in {1,2}."""
        if a not in (1, 2) or b not in (1, 2):
            raise DomainError("block labels must be 1 or 2")
        n = self.trunc_order
        return self.data[(a - 1) * n:a * n, (b - 1) * n:b * n].copy()
