"""Shared numerical infrastructure.

Dense complex linear algebra (one matrix object serving gated solves
and the determinant), row-wise products whose entries do not depend on
the batch, binomial tables, spectrally accurate trapezoidal quadrature
on circles, and geometric tail fitting.

All matrices here are small (at most a few hundred rows), so dense
``numpy.linalg`` routines are used throughout, and the condition is
computed from the inverse rather than estimated; the operation contracts
(residual bounds, condition thresholds, determinism) are what the rest of
the package relies on.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .config import BLOCK_ENTRIES
from .errors import ConvergenceError, DomainError, SingularMatrixError

CONDITION_THRESHOLD = 1e12
SOLVE_RESIDUAL_TOL = 1e-12  # relative residual bound of a gated solve
_TAIL_SPREAD = 8.0  # max spread of per-step decay ratios of a geometric tail

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
    """One square complex matrix with its gated solve and its determinant.

    The inverse is computed once, on first use; it gives the exact
    one-norm condition, flags an exactly singular matrix and is what
    ``inverse`` returns.  ``det`` needs neither.
    """

    def __init__(self, a) -> None:
        self.a = as_complex_matrix(a, "A")
        if self.a.shape[1] != self.a.shape[0]:
            raise DomainError("A must be square")

    @cached_property
    def _inverse(self) -> np.ndarray | None:
        """A^{-1}, or None when LAPACK meets an exactly zero pivot."""
        try:
            return np.linalg.inv(self.a)
        except np.linalg.LinAlgError:
            return None

    @property
    def singular(self) -> bool:
        return self._inverse is None

    @property
    def cond(self) -> float:
        """Exact one-norm condition ||A||_1 ||A^{-1}||_1; inf if singular."""
        if self.singular:
            return np.inf
        return float(np.linalg.norm(self.a, 1)
                     * np.linalg.norm(self._inverse, 1))

    def _gate(self, bmat: np.ndarray, x=None) -> np.ndarray:
        """A^{-1} B, or the given x, once A is regular with condition at
        most ``CONDITION_THRESHOLD`` and the residual meets
        ``||AX - B||_inf <= SOLVE_RESIDUAL_TOL * max(||B||_inf, 1)``."""
        cond = self.cond  # inf if singular
        if cond > CONDITION_THRESHOLD:
            raise SingularMatrixError(
                "matrix is singular to working precision" if self.singular
                else f"condition {cond:.3e} "
                f"exceeds threshold {CONDITION_THRESHOLD:.1e}")
        if x is None:
            x = np.linalg.solve(self.a, bmat)
        bnorm = np.linalg.norm(bmat, np.inf)
        resid = np.linalg.norm(self.a @ x - bmat, np.inf)
        if bnorm > 0 and resid > SOLVE_RESIDUAL_TOL * max(bnorm, 1.0):
            raise SingularMatrixError(
                f"solve residual {resid:.3e} exceeds tolerance "
                f"{SOLVE_RESIDUAL_TOL:.1e} * ||B||")
        return x

    def solve(self, b) -> np.ndarray:
        """Solve A X = B for a vector or matrix B.

        Enforces ``||AX - B||_inf <= SOLVE_RESIDUAL_TOL * ||B||_inf`` and
        rejects matrices whose condition exceeds ``CONDITION_THRESHOLD``.
        """
        bmat = np.asarray(b, dtype=complex)
        squeeze = bmat.ndim == 1
        if squeeze:
            bmat = bmat[:, None]
        bmat = as_complex_matrix(bmat, "B")
        if bmat.shape[0] != self.a.shape[0]:
            raise DomainError("A and B have incompatible shapes")
        x = self._gate(bmat)
        return x[:, 0] if squeeze else x

    def inverse(self) -> np.ndarray:
        """A^{-1}, the inverse already held for the condition, behind the
        gates of ``solve`` with B = I; the caller must not modify it."""
        return self._gate(np.eye(self.a.shape[0]), self._inverse)

    def det(self) -> complex:
        """Determinant; not gated (an exactly singular matrix gives 0)."""
        return complex(np.linalg.det(self.a))


def row_products(u, v) -> np.ndarray:
    """out[i, j] = sum_k u[i, k] v[j, k], shape (P, Q) for u (P, K) and
    v (Q, K).

    Not a matmul: each entry is reduced on its own, over contiguous k, so
    no value depends on the shapes of u and v, where BLAS rounding would
    depend on the batch.  The rows of u are taken a block at a time, and
    each block's product array holds at most BLOCK_ENTRIES entries (or
    one row of u), so memory does not grow with P.
    """
    step = max(1, BLOCK_ENTRIES // max(v.size, 1))
    if len(u) > step:
        return np.concatenate([row_products(u[i:i + step], v)
                               for i in range(0, len(u), step)])
    # operands of equal rank: a one-entry product broadcast from a
    # lower-rank operand takes another numpy loop, which rounds apart
    return (u[:, None] * v[None]).sum(axis=-1)


def binomials(n: int) -> np.ndarray:
    """The table C(i + j, i), i, j < n, by Pascal's rule row by row."""
    table = np.ones((n, n))
    for i in range(1, n):
        table[i] = np.cumsum(table[i - 1])
    return table


def lu_solve(a, b) -> np.ndarray:
    """Solve A X = B once through a gated ``LU``."""
    return LU(a).solve(b)


def determinant(a) -> complex:
    """Determinant of a square complex matrix, ungated."""
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


def tail_estimate(seq):
    """Fit a geometric decay rate to successive differences of partial values.

    Parameters
    ----------
    seq : sequence of (complex) partial values, length >= 4.

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
    if np.max(ratios) / np.min(ratios) > _TAIL_SPREAD:
        raise ConvergenceError(
            f"non-geometric tail: ratio spread {np.max(ratios)/np.min(ratios):.2f}")
    rate = float(np.exp(np.mean(np.log(ratios))))
    if rate >= 1.0:
        raise ConvergenceError(f"tail not decaying: fitted rate {rate:.3f}")
    bound = float(diffs[-1] * rate / (1.0 - rate))
    return rate, bound
