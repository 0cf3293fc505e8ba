"""Two-tori sewing: moment matrices and the sewn genus-two kernel.

Two tori with moduli tau_1, tau_2 are sewn through annuli identified by
z_1 z_2 = epsilon. The sewn Szego kernel is assembled from closed-form
moments of the genus-one kernels:

    C[theta;phi](k,l)   = (-1)^l binom(k+l-2, k-1) E_{k+l-1}[theta;phi](tau)
    F_a(k,l)            = epsilon^{(k+l-1)/2} C[theta_a;phi_a](k,l, tau_a)
    h_a(k,x)            = epsilon^{k/2-1/4} P_k[theta_a;phi_a](x, tau_a)
    hbar_a[c](k,y)      = -h_a[c^{-1}](k,y)

    same torus a:   S(x,y) = P1[c_a](x-y,tau_a)
                             + h_a(x) (I - F_abar F_a)^{-1} F_abar hbar_a^T(y)
    opposite tori:  S(x,y) = xi (-1)^abar h_a(x) (I - F_abar F_a)^{-1}
                             hbar_abar^T(y)

The half-integer powers of epsilon are carried through the recorded
square-root branch sqrt_epsilon, never recomputed from epsilon, so the
Dehn-twist parity (same-torus even, cross odd in sqrt_epsilon, joint
(sqrt_epsilon, xi) flip invariant) holds exactly.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import DEFAULT_ORDER, POLE_GUARD
from .errors import DomainError
from .numerics import LU
from .specialfn import (TorusModulus, TwistPair, eisenstein_twisted,
                        lattice_distance, min_lattice_distance, p1_theta,
                        p_k_vector)

__all__ = [
    "EpsilonModuli", "GenusTwoCharacteristicsEps", "SurfacePoint",
    "min_lattice_distance", "epsilon_bound",
    "c_matrix", "f_matrix",
    "build_q", "logdet_series",
    "EpsilonContext",
]

RADIUS_FACTOR = 0.45  # contour radii r_a = 0.45 D(q_a), strict domain margin
_LOGDET_TERMS = 40  # terms of the logdet_series cross-check


def _finite(value, name: str) -> complex:
    """A complex modulus, branch datum or coordinate; NaN and Inf raise."""
    value = complex(value)
    if not cmath.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")
    return value


def _check_xi(xi) -> complex:
    """The half-form branch of a sewing relation: xi in {+i, -i}."""
    xi = complex(xi)
    if abs(xi - 1j) > 1e-12 and abs(xi + 1j) > 1e-12:
        raise DomainError("xi must be +i or -i")
    return xi


def epsilon_bound(tau1: TorusModulus, tau2: TorusModulus) -> float:
    """Sewing-domain bound: |epsilon| < D(q_1) D(q_2) / 4."""
    return 0.25 * min_lattice_distance(tau1) * min_lattice_distance(tau2)


@dataclass(frozen=True)
class EpsilonModuli:
    """Point of the two-tori sewing domain with explicit branch data.

    ``sqrt_epsilon`` records the chosen square root of epsilon and ``xi``
    in {+i, -i} the half-form branch of the sewing relation; a Dehn twist
    flips both and leaves every kernel value unchanged.  The annulus radii
    are fixed at construction.
    """

    tau1: TorusModulus
    tau2: TorusModulus
    epsilon: complex
    sqrt_epsilon: complex
    xi: complex
    _radii: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        eps = _finite(self.epsilon, "epsilon")
        sq = _finite(self.sqrt_epsilon, "sqrt_epsilon")
        if abs(sq * sq - eps) > 1e-12 * max(abs(eps), 1e-300):
            raise DomainError("sqrt_epsilon**2 does not equal epsilon")
        xi = _check_xi(self.xi)
        bound = epsilon_bound(self.tau1, self.tau2)
        if abs(eps) >= bound:
            raise DomainError(
                f"|epsilon| = {abs(eps):.3e} outside the sewing domain "
                f"bound {bound:.3e}")
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "sqrt_epsilon", sq)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "_radii", tuple(
            RADIUS_FACTOR * min_lattice_distance(t)
            for t in (self.tau1, self.tau2)))

    @classmethod
    def create(cls, tau1, tau2, epsilon, xi=1j, sqrt_epsilon=None) -> "EpsilonModuli":
        t1 = tau1 if isinstance(tau1, TorusModulus) else TorusModulus(tau1)
        t2 = tau2 if isinstance(tau2, TorusModulus) else TorusModulus(tau2)
        eps = complex(epsilon)
        if sqrt_epsilon is None:
            sqrt_epsilon = cmath.sqrt(eps)
        return cls(tau1=t1, tau2=t2, epsilon=eps,
                   sqrt_epsilon=complex(sqrt_epsilon), xi=complex(xi))

    def tau(self, a: int) -> TorusModulus:
        if a == 1:
            return self.tau1
        if a == 2:
            return self.tau2
        raise DomainError("torus label must be 1 or 2")

    def radius(self, a: int) -> float:
        """Sewing annulus outer radius r_a."""
        self.tau(a)  # checks the label
        return self._radii[a - 1]

    def dehn_twist(self) -> "EpsilonModuli":
        """epsilon -> e^{2 pi i} epsilon: flip (sqrt_epsilon, xi)."""
        return EpsilonModuli(tau1=self.tau1, tau2=self.tau2, epsilon=self.epsilon,
                             sqrt_epsilon=-self.sqrt_epsilon, xi=-self.xi)


@dataclass(frozen=True)
class GenusTwoCharacteristicsEps:
    """Twist data inherited from the two tori on the sewn genus-two surface."""

    tw1: TwistPair
    tw2: TwistPair

    def __post_init__(self) -> None:
        for a, tw in ((1, self.tw1), (2, self.tw2)):
            if tw.is_trivial:
                raise DomainError(
                    f"torus {a} twist is (1,1); the genus-one kernel degenerates")

    def tw(self, a: int) -> TwistPair:
        if a == 1:
            return self.tw1
        if a == 2:
            return self.tw2
        raise DomainError("torus label must be 1 or 2")

    def inverse(self) -> "GenusTwoCharacteristicsEps":
        return GenusTwoCharacteristicsEps(self.tw1.inverse(), self.tw2.inverse())


@dataclass(frozen=True)
class SurfacePoint:
    """Point on punctured torus `which` with local coordinate z on C/Lambda."""

    which: int
    z: complex

    def __post_init__(self) -> None:
        if self.which not in (1, 2):
            raise DomainError("which must be 1 or 2")
        object.__setattr__(self, "z", _finite(self.z, "point coordinate"))


def _validate_label(a: int, zs, moduli: EpsilonModuli) -> None:
    """Check that the points zs on torus a avoid the excised disk and the
    lattice poles; the first failing point raises."""
    dist = np.ravel(lattice_distance(zs, moduli.tau(a)))
    inner = abs(moduli.epsilon) / moduli.radius(3 - a)
    bad = dist <= max(inner, POLE_GUARD)
    if bad.any():
        raise DomainError(
            f"point on torus {a} lies inside the excised disk or at a pole "
            f"(lattice distance {dist[np.argmax(bad)]:.3e}, "
            f"inner radius {inner:.3e})")


def _by_label(pts) -> dict:
    """(indices, coordinates) of the points on each torus label, in label
    order; empty labels left out."""
    groups = {}
    for i, p in enumerate(pts):
        idx, zs = groups.setdefault(p.which, ([], []))
        idx.append(i)
        zs.append(p.z)
    return {a: (np.array(idx), np.array(zs, dtype=complex))
            for a, (idx, zs) in sorted(groups.items())}


# ----------------------------------------------------------------------
# moments
# ----------------------------------------------------------------------

def c_matrix(tw: TwistPair, n_order: int, tau: TorusModulus) -> np.ndarray:
    """Laurent moment matrix C(k,l) = (-1)^l binom(k+l-2,k-1) E_{k+l-1}."""
    if n_order < 1:
        raise DomainError("order must be >= 1")
    eis = eisenstein_twisted(tw, np.arange(1, 2 * n_order), tau)
    # binom[i, j] = binom(i + j, i) by Pascal's rule, row by row
    binom = np.ones((n_order, n_order))
    for i in range(1, n_order):
        binom[i] = np.cumsum(binom[i - 1])
    idx = np.arange(n_order)
    sign = (-1.0) ** (idx + 1)
    return sign * binom * eis[idx[:, None] + idx[None, :]]


def f_matrix(tw: TwistPair, n_order: int, tau: TorusModulus,
             moduli: EpsilonModuli) -> np.ndarray:
    """F_a(k,l) = epsilon^{(k+l-1)/2} C(k,l) with the recorded sqrt branch."""
    c = c_matrix(tw, n_order, tau)
    sq = moduli.sqrt_epsilon
    kl = np.arange(1, n_order + 1)
    powers = sq ** (kl[:, None] + kl[None, :] - 1)
    return powers * c


# ----------------------------------------------------------------------
# block matrices and determinant
# ----------------------------------------------------------------------

def build_q(f1: np.ndarray, f2: np.ndarray, xi: complex) -> np.ndarray:
    """Block matrix Q = [[0, xi F1], [-xi F2, 0]]; det(I - Q) = det(I - F1 F2)."""
    f1 = np.asarray(f1, dtype=complex)
    f2 = np.asarray(f2, dtype=complex)
    if f1.shape != f2.shape or f1.shape[0] != f1.shape[1]:
        raise DomainError("F1, F2 must be square with equal shapes")
    zero = np.zeros_like(f1)
    return np.block([[zero, xi * f1], [-xi * f2, zero]])


def logdet_series(f1: np.ndarray, f2: np.ndarray) -> complex:
    """Cross-check: log det(I-F1F2) = -sum_{n>=1} tr((F1 F2)^n)/n."""
    prod = np.asarray(f1, dtype=complex) @ np.asarray(f2, dtype=complex)
    acc = 0.0 + 0.0j
    power = np.eye(prod.shape[0], dtype=complex)
    for n in range(1, _LOGDET_TERMS + 1):
        power = power @ prod
        acc -= np.trace(power) / n
    return complex(acc)


# ----------------------------------------------------------------------
# kernel assembly
# ----------------------------------------------------------------------

class EpsilonContext:
    """Cached assembly data for one (characteristics, moduli, N) configuration.

    I - F1 F2 is built once, at construction, and ``det`` is its ungated
    determinant.  The first kernel call makes the one gated solve for
    X0 = (I - F1 F2)^{-1} and X1 = X0 F1; by push-through
    (I - F2 F1)^{-1} F2 = F2 X0 and (I - F2 F1)^{-1} = I + F2 X1.
    """

    def __init__(self, chars: GenusTwoCharacteristicsEps, moduli: EpsilonModuli,
                 n_order: int = DEFAULT_ORDER) -> None:
        self.chars = chars
        self.moduli = moduli
        self.n_order = n_order
        self._f = tuple(f_matrix(chars.tw(a), n_order, moduli.tau(a), moduli)
                        for a in (1, 2))
        self._lu = LU(np.eye(n_order, dtype=complex) - self._f[0] @ self._f[1])
        # h(x) hbar(y) carries sqrt_epsilon^{k+l-1}: k-1 powers on the x
        # rows, l on the y rows, so epsilon = 0 needs no division
        self._sq_pow = moduli.sqrt_epsilon ** np.arange(n_order + 1)
        self._inverse = chars.inverse()

    def f_block(self, a: int) -> np.ndarray:
        self.moduli.tau(a)  # checks the label
        return self._f[a - 1]

    @cached_property
    def _blocks(self) -> dict:
        """Correction block (a, b) between x rows on torus a and y rows on
        torus b, with the signs and xi (-1)^b of the cross blocks folded
        in; one gated solve."""
        xi = self.moduli.xi
        f1, f2 = self._f
        eye = np.eye(self.n_order, dtype=complex)
        x0, x1 = np.hsplit(self._lu.solve(np.hstack([eye, f1])), 2)
        return {(1, 1): f2 @ x0, (1, 2): xi * (eye + f2 @ x1),
                (2, 1): -xi * x0, (2, 2): x1}

    def _rows(self, a: int, zs: np.ndarray, inverse: bool) -> np.ndarray:
        """x rows sqrt_epsilon^{k-1} P_k(z), or y rows
        -sqrt_epsilon^k P_k[c^{-1}](z), k = 1..N, one per point."""
        tw = (self._inverse if inverse else self.chars).tw(a)
        pk = p_k_vector(tw, self.n_order, zs, self.moduli.tau(a))
        return -self._sq_pow[1:] * pk if inverse else self._sq_pow[:-1] * pk

    def kernel_matrix(self, xs, ys) -> np.ndarray:
        """S(x_i, y_j) for SurfacePoint sequences xs, ys: shape (P, Q).

        Points are grouped by torus label and validated per group; each
        group gets its P_k rows from one batched call, each same-label
        block its base kernel from one p1_theta call on the x - y grid,
        and each label pair one product with its correction block.
        """
        mod = self.moduli
        gx, gy = _by_label(xs), _by_label(ys)
        for a in (1, 2):
            zs = [g[a][1] for g in (gx, gy) if a in g]
            if zs:
                _validate_label(a, np.concatenate(zs), mod)
        out = np.zeros((len(xs), len(ys)), dtype=complex)
        for a in gx.keys() & gy.keys():
            (ix, zx), (iy, zy) = gx[a], gy[a]
            # p1_theta guards the pole at x - y on the lattice
            out[ix[:, None], iy] = p1_theta(self.chars.tw(a),
                                            zx[:, None] - zy[None, :],
                                            mod.tau(a))
        v = {b: self._rows(b, zy, inverse=True) for b, (_, zy) in gy.items()}
        for a, (ix, zx) in gx.items():
            u = self._rows(a, zx, inverse=False)
            for b, (iy, _) in gy.items():
                out[ix[:, None], iy] += u @ self._blocks[(a, b)] @ v[b].T
        return out

    def kernel(self, x: SurfacePoint, y: SurfacePoint) -> complex:
        """Sewn genus-two Szego kernel coefficient of dx^1/2 dy^1/2."""
        return complex(self.kernel_matrix([x], [y])[0, 0])

    def det(self) -> complex:
        """det(I - F1 F2); not gated."""
        return self._lu.det()

