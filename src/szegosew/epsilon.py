"""Two-tori sewing: moment matrices and the sewn genus-two kernel.

Two tori with moduli tau_1, tau_2 are sewn through annuli identified by
z_1 z_2 = epsilon. The sewn Szego kernel is assembled from closed-form
moments of the genus-one kernels:

    F_a(k,l)            = epsilon^{(k+l-1)/2} (-1)^l binom(k+l-2, k-1)
                          E_{k+l-1}[theta_a;phi_a](tau_a)
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
from .numerics import LU, binomials, check_count, row_products
from .specialfn import (TorusModulus, TwistPair, _multiplier,
                        _origin_eisenstein, _reduce_off_lattice, _substitute,
                        _theta_stage, lattice_distance, min_lattice_distance)

__all__ = [
    "EpsilonModuli", "GenusTwoCharacteristicsEps", "SurfacePoint",
    "min_lattice_distance", "epsilon_bound",
    "f_matrix", "EpsilonContext",
]

RADIUS_FACTOR = 0.45  # contour radii r_a = 0.45 D(q_a), strict domain margin
# (indices, coordinates) of a label without points
_NO_POINTS = (np.zeros(0, dtype=int), np.zeros(0, dtype=complex))


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

    def sqrt_epsilon_powers(self, n: int) -> np.ndarray:
        """sqrt_epsilon^j, j = 0..n, from the recorded branch: the one
        vector whose products scale F and the kernel rows."""
        return self.sqrt_epsilon ** np.arange(n + 1)

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


def _by_label(pts) -> dict:
    """(indices, coordinates) of the points on each torus label, in label
    order; empty labels left out."""
    groups = {}
    for i, p in enumerate(pts):
        if not isinstance(p, SurfacePoint):
            raise DomainError("kernel points must be SurfacePoint, got "
                              f"{type(p).__name__}")
        idx, zs = groups.setdefault(p.which, ([], []))
        idx.append(i)
        zs.append(p.z)
    return {a: (np.array(idx), np.array(zs, dtype=complex))
            for a, (idx, zs) in sorted(groups.items())}


# ----------------------------------------------------------------------
# moments
# ----------------------------------------------------------------------

def f_matrix(chars: GenusTwoCharacteristicsEps, n_order: int,
             moduli: EpsilonModuli) -> tuple:
    """(F_1, F_2), F_a(k,l) = sqrt_epsilon^{k+l-1} (-1)^l binom(k+l-2,k-1)
    E_{k+l-1}[theta_a;phi_a](tau_a), k, l = 1..N.

    The E_n of both tori come from one theta stage per torus at the
    origin, the Laurent row that the self-sewn torus G reads too, and
    one forward substitution over the two rows stacked
    (``_origin_eisenstein``), once per ((tw_1, tau_1), (tw_2, tau_2), N)
    per process: they do not depend on epsilon, so a build at another
    epsilon on the same tori makes neither.  The factor sqrt_epsilon^k
    sqrt_epsilon^{l-1} is the outer product of
    ``moduli.sqrt_epsilon_powers``, shared by both blocks with the signs
    and binomials.
    """
    n_order = check_count(n_order, 1, "order must be >= 1")
    eis = _origin_eisenstein(((chars.tw1, moduli.tau1),
                              (chars.tw2, moduli.tau2)), 2 * n_order)
    idx = np.arange(n_order)
    sq_pow = moduli.sqrt_epsilon_powers(n_order)
    scale = ((-1.0) ** (idx + 1) * sq_pow[:-1]) * binomials(n_order) \
        * sq_pow[1:, None]
    return tuple(scale * eis[:, idx[:, None] + idx[None, :]])


# ----------------------------------------------------------------------
# kernel assembly
# ----------------------------------------------------------------------

class EpsilonContext:
    """Cached assembly data for one (characteristics, moduli, N) configuration.

    I - F1 F2 is built once, at construction, and ``det`` is its ungated
    determinant.  The first kernel call reads the gated inverse
    X0 = (I - F1 F2)^{-1} and forms X1 = X0 F1; by push-through
    (I - F2 F1)^{-1} F2 = F2 X0 and (I - F2 F1)^{-1} = I + F2 X1.
    """

    def __init__(self, chars: GenusTwoCharacteristicsEps, moduli: EpsilonModuli,
                 n_order: int = DEFAULT_ORDER) -> None:
        self.chars = chars
        self.moduli = moduli
        self.n_order = n_order
        self._f = f_matrix(chars, n_order, moduli)
        self._lu = LU(np.eye(n_order, dtype=complex) - self._f[0] @ self._f[1])

    def f_block(self, a: int) -> np.ndarray:
        self.moduli.tau(a)  # checks the label
        return self._f[a - 1]

    @cached_property
    def _blocks(self) -> dict:
        """Correction block (a, b) between x rows on torus a and y rows on
        torus b, transposed for row-wise products, with the signs and
        xi (-1)^b of the cross blocks folded in; X0 = (I - F1 F2)^{-1} is
        the gated inverse and X1 = X0 F1.

        The row scales are folded in too.  h(x) hbar(y) carries
        sqrt_epsilon^{k+l-1}: k-1 powers on the x rows and l on the y
        rows, so epsilon = 0 needs no division.  A y row is
        -P_l[c^{-1}](y) = (-1)^{l+1} P_l[c](-y), the same characteristic
        as the x rows (theta[-alpha;-beta](-z) = theta[alpha;beta](z) and
        theta_1 is odd).
        """
        xi = self.moduli.xi
        f1, f2 = self._f
        x0 = self._lu.inverse()
        x1 = x0 @ f1
        eye = np.eye(self.n_order, dtype=complex)
        blocks = {(1, 1): f2 @ x0, (1, 2): xi * (eye + f2 @ x1),
                  (2, 1): -xi * x0, (2, 2): x1}
        sq_pow = self.moduli.sqrt_epsilon_powers(self.n_order)
        y_scale = (-1.0) ** np.arange(2, self.n_order + 2) * sq_pow[1:]
        return {key: np.ascontiguousarray((sq_pow[:-1, None] * blk * y_scale).T)
                for key, blk in blocks.items()}

    def kernel_matrix(self, xs, ys) -> np.ndarray:
        """S(x_i, y_j) for SurfacePoint sequences xs, ys: shape (P, Q).

        Each torus label makes one lattice reduction of its x points, its
        reflected y points -y and the x - y grid.  Its ``edge`` clears
        points, exact ``lattice_distance`` measuring the rest: a point in
        the excised disk or at a pole, then a cross-torus pair with d(x)
        d(y) <= |epsilon| (a divergent series), then a grid pole raises
        DomainError.  One theta sum per label over the reduction gives P1
        at the grid and the Taylor rows; one forward substitution takes
        all rows, and each label pair one row-wise bilinear form.
        """
        mod, n_order, eps = self.moduli, self.n_order, abs(self.moduli.epsilon)
        gx, gy = _by_label(xs), _by_label(ys)
        geo, bound = {}, {}
        for a in sorted(gx.keys() | gy.keys()):
            zx, zy = gx.get(a, _NO_POINTS)[1], gy.get(a, _NO_POINTS)[1]
            geo[a] = _reduce_off_lattice(np.concatenate(
                [zx, -zy, (zx[:, None] - zy).ravel()]), mod.tau(a))
            inner = eps / mod.radius(3 - a)
            d = bound[a] = geo[a][3][:zx.size + zy.size].copy()
            unsure = d <= max(inner, POLE_GUARD)
            if unsure.any():  # a point that fails is one of these
                d[unsure] = lattice_distance(
                    np.concatenate([zx, zy])[unsure], mod.tau(a))
                bad = d <= max(inner, POLE_GUARD)
                if bad.any():
                    raise DomainError(
                        f"point on torus {a} lies inside the excised disk or "
                        f"at a pole (lattice distance {d[np.argmax(bad)]:.3e}"
                        f", inner radius {inner:.3e})")
        # a cross-torus block is a series in |epsilon| / (d(x) d(y)), the
        # ratio at which the two points meet through the annulus
        # z_1 z_2 = epsilon, so it diverges unless d(x) d(y) > |epsilon|
        for a, (_, zx) in gx.items():
            zy = gy.get(3 - a, _NO_POINTS)[1]
            if zy.size and (bound[a][:zx.size].min()
                            * bound[3 - a][-zy.size:].min() <= eps):
                r = (lattice_distance(zx, mod.tau(a)).min()
                     * lattice_distance(zy, mod.tau(3 - a)).min())
                if r <= eps:
                    raise DomainError(
                        f"points on tori {a} and {3 - a} overlap through the "
                        f"sewing annulus: d(x) d(y) = {r:.3e} <= "
                        f"|epsilon| = {eps:.3e}")
        out = np.zeros((len(xs), len(ys)), dtype=complex)
        if not (gx and gy):
            return out
        # rows[a, 0] and rows[a, 1]: the x and y rows of label a in p
        a_rows, b_rows, mults, rows, start = [], [], [], {}, 0
        for a in geo:
            (ix, zx), (iy, zy) = gx.get(a, _NO_POINTS), gy.get(a, _NO_POINTS)
            tw, n_rows = self.chars.tw(a), zx.size + zy.size
            ra, rb, p1, _ = _theta_stage(tw, n_order, geo[a], n_rows,
                                         mod.tau(a))
            mult = _multiplier(tw, *geo[a][1:3])
            if p1.size:
                out[ix[:, None], iy] = (mult[n_rows:] * p1).reshape(ix.size,
                                                                     iy.size)
            a_rows.append(ra)
            b_rows.append(rb)
            mults.append(mult[:n_rows])
            rows[a, 0] = slice(start, start + zx.size)
            rows[a, 1] = slice(start + zx.size, start + n_rows)
            start += n_rows
        p = _substitute(np.concatenate(a_rows), np.concatenate(b_rows)) \
            * np.concatenate(mults)[:, None]
        for a, (ix, _) in gx.items():
            for b, (iy, _) in gy.items():
                w = row_products(p[rows[a, 0]], self._blocks[(a, b)])
                out[ix[:, None], iy] += row_products(w, p[rows[b, 1]])
        return out

    def kernel(self, x: SurfacePoint, y: SurfacePoint) -> complex:
        """Sewn genus-two Szego kernel coefficient of dx^1/2 dy^1/2."""
        return complex(self.kernel_matrix([x], [y])[0, 0])

    def det(self) -> complex:
        """det(I - F1 F2); not gated."""
        return self._lu.det()

