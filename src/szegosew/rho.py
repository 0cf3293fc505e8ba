"""Self-sewing: sphere -> torus and torus -> genus two.

A single surface is sewn to itself through two annuli identified by
z_1 z_2 = rho, attaching a handle with twist data (theta_new, phi_new)
and kappa in [-1/2, 1/2) defined by phi_new = -e^{2 pi i kappa}.  The
sewn kernel is assembled from the twisted base kernel S_kappa:

    S(x,y) = S_kappa(x,y) + xi h(x) D^theta (I - T)^{-1} hbar^T(y),

with T = xi G D^theta, D^theta = diag(theta_new^{-1} I, -theta_new I),
shifted mode indices k_a = k + (-1)^{abar} kappa, and weighted moments

    G_ab(k,l)  = rho^{(k_a+l_b-1)/2} (1/2pi i)^2
                 oint_{C_abar(x)} oint_{C_b(y)} x_abar^{-k_a} y_b^{-l_b}
                 S_kappa(x,y) dx dy,
    h_a(k,x)   = rho^{(k_a-1/2)/2} (1/2pi i) oint_{C_a(y)} y_a^{-k_a}
                 S_kappa(x,y) dy,
    hbar_a(k,y)= rho^{(k_a-1/2)/2} (1/2pi i) oint_{C_abar(x)} x_abar^{-k_a}
                 S_kappa(x,y) dx,

where z_a is the local coordinate of the annulus C_a.  On the sphere the
moments collapse to closed forms and T is exactly diagonal.  On the
torus one TorusMoments holds the constants of S_kappa and all three
moments, as Laurent data at the punctures from theta sums.  A build
takes no contour: the quadrature of these integrals is the oracle
(``oracle``), and the count M is carried for the benchmark and two
quadrature shims alone.  The bound on |rho| is stated once, on
RhoModuliTorus.

Half-integer powers of rho are taken from the recorded branch log_rho
(never from a fresh principal root), so the handle Dehn move
log_rho -> log_rho + 2 pi i acts exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .config import (DEFAULT_ORDER, DEFAULT_QUAD_POINTS, POLE_GUARD,
                     RESONANCE_GUARD)
from .errors import DomainError, ResonanceError
from .numerics import (LU, as_complex_matrix, binomials, check_count,
                       row_products)
from .specialfn import (TWO_PI, TorusModulus, TwistPair, _multiplier,
                        _reduce_off_lattice, _substitute, _theta_stage,
                        _theta_value, lattice_distance)
from .epsilon import RADIUS_FACTOR, _check_xi, _finite, min_lattice_distance

__all__ = [
    "HandleTwist", "RhoModuliSphere", "RhoModuliTorus", "mode_index",
    "s_kappa_sphere", "det_i_minus_t_sphere", "RhoSphereContext",
    "torus_from_sphere", "log_a_torus", "TorusMoments", "RhoTorusContext",
]

TWO_PI_I = 2j * np.pi
# same-center double contours must not collide: scale the x contour out
# and the y contour in relative to the geometric-mean radius
X_RADIUS_FACTOR = 1.25
Y_RADIUS_FACTOR = 0.8
# where a build reads the sheet of each contour's U^kappa constant, as a
# fraction of its radius: over 3000 random moduli (Im tau down to 0.05,
# rho up to 0.999 of its bound) |arg S| reached 0.067 there and 1.2 at
# the start node, where the 2-term series of S at N = 1 misread 3 sheets
_SHEET_RADIUS = 1.0 / 16.0


class HandleTwist(TwistPair):
    """Twist data on the handle created by self-sewing.

    Same content as a genus-one TwistPair: multipliers
    theta_new = -e^{-2 pi i beta} and phi_new = -e^{2 pi i alpha} on the
    new cycles, with kappa = ((alpha + 1/2) mod 1) - 1/2 in [-1/2, 1/2).
    Both self-sewing schemes take every kappa in that range; kappa = -1/2
    (phi_new = 1, a handle periodic round its new cycle) goes through the
    same formulas as any other value.
    """


def mode_index(a: int, k, kappa: float):
    """Shifted mode index k_a = k + (-1)^{abar} kappa (k_1 = k + kappa)."""
    if a not in (1, 2):
        raise DomainError("annulus label must be 1 or 2")
    return np.asarray(k, dtype=float) + (kappa if a == 1 else -kappa)


# ----------------------------------------------------------------------
# moduli
# ----------------------------------------------------------------------

def _check_log(value: complex, log_value: complex, name: str) -> None:
    if abs(cmath.exp(log_value) - value) > 1e-12 * abs(value):
        raise DomainError(f"log_{name} is not a logarithm of {name}")


def _branch_log(value: complex, sqrt_value, name: str) -> complex:
    """Principal log of value, moved one sheet when sqrt_value is the
    other square root."""
    if value == 0:
        raise DomainError(f"{name} must be nonzero")
    log_value = cmath.log(value)
    if sqrt_value is not None and abs(sqrt_value - cmath.exp(0.5 * log_value)) \
            > 1e-12 * abs(sqrt_value):
        log_value = log_value + TWO_PI_I
    return log_value


@dataclass(frozen=True)
class RhoModuliSphere:
    """Self-sewing data of the sphere: parameter q with recorded branch.

    ``log_q`` fixes every half-integer power q^{(k+kappa-1/2)/2}; the
    derived modulus of the sewn torus is tau = log_q / (2 pi i).
    """

    q: complex
    log_q: complex
    xi: complex

    def __post_init__(self) -> None:
        q = complex(self.q)
        if not (0.0 < abs(q) < 1.0):
            raise DomainError(f"need 0 < |q| < 1, got |q| = {abs(q)}")
        log_q = _finite(self.log_q, "log_q")
        _check_log(q, log_q, "q")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "log_q", log_q)
        object.__setattr__(self, "xi", _check_xi(self.xi))

    @classmethod
    def create(cls, q, xi=1j, log_q=None, sqrt_q=None) -> "RhoModuliSphere":
        q = complex(q)
        if log_q is None:
            log_q = _branch_log(q, sqrt_q, "q")
        return cls(q=q, log_q=log_q, xi=xi)

    @property
    def tau(self) -> TorusModulus:
        return TorusModulus(self.log_q / TWO_PI_I)

    def q_pow(self, expnt):
        """q**expnt on the recorded branch, vectorized in the exponent."""
        return np.exp(np.asarray(expnt, dtype=complex) * self.log_q)


@dataclass(frozen=True)
class RhoModuliTorus:
    """Self-sewing data of a torus: (tau, w, rho) with recorded branch.

    Domain, stated here alone: 0 < |rho| < (r / X_RADIUS_FACTOR)^2, so
    the x contours of a build, of radius X_RADIUS_FACTOR |rho|^{1/2},
    lie inside the sewing annuli; this keeps w off the lattice.  Fixed
    at construction: ``radius`` r, the outer radius of both annuli,
    RADIUS_FACTOR times the least of the shortest period and the lattice
    distance of w, and ``contour_radius`` |rho|^{1/2}, the geometric mean
    of their radii.  |rho| / r^2 is invariant under gamma_1, A, B and C.
    """

    tau: TorusModulus
    w: complex
    rho: complex
    log_rho: complex
    xi: complex
    z_ref: complex | None = None
    winding: int = 0
    radius: float = field(init=False, repr=False, compare=False)
    contour_radius: float = field(init=False, repr=False, compare=False)
    log_a_ref: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        w = _finite(self.w, "w")
        rho = _finite(self.rho, "rho")
        log_rho = _finite(self.log_rho, "log_rho")
        if rho == 0:
            raise DomainError("rho must be nonzero")
        _check_log(rho, log_rho, "rho")
        wdist = float(lattice_distance(w, self.tau))
        r = RADIUS_FACTOR * min(min_lattice_distance(self.tau), wdist)
        bound = (r / X_RADIUS_FACTOR) ** 2
        if abs(rho) >= bound:
            raise DomainError(
                f"|rho| = {abs(rho):.3e} outside the sewing bound "
                f"(r / {X_RADIUS_FACTOR})^2 = {bound:.3e}, where the "
                f"distance of w to the lattice is {wdist:.3e}")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "log_rho", log_rho)
        object.__setattr__(self, "xi", _check_xi(self.xi))
        object.__setattr__(self, "radius", r)
        object.__setattr__(self, "contour_radius", math.sqrt(abs(rho) / r * r))
        # z_ref is the origin of every log-A continuation path (default
        # w/2) and log_a_ref = log A(z_ref), the explicit
        # value of the closed form; continued log A enters the kernel only
        # through differences, so this value cancels, while z_ref fixes
        # which sheet each point is on
        z_ref = w / 2.0 if self.z_ref is None else _finite(self.z_ref, "z_ref")
        if _singular_distance(z_ref, self.tau, w) < POLE_GUARD:
            raise DomainError("z_ref is at a zero or pole of "
                              "theta1(z-w)/theta1(z)")
        object.__setattr__(self, "z_ref", z_ref)
        val, _ = _log_theta1(np.array([z_ref - w, z_ref]), self.tau.tau)
        object.__setattr__(self, "log_a_ref", complex(val[0] - val[1]))
        # `winding` is the second covering datum beside log_rho: the extra
        # integer number of 2 pi i branch sheets of log A carried by the
        # sewing contours around the puncture at w, relative to the sheet
        # reached along the straight segment from z_ref to a contour's
        # start node.  Generators that translate w pick it up when that
        # sheet jumps across a cut of the straight-segment trivialization.
        object.__setattr__(self, "winding", int(self.winding))

    @classmethod
    def create(cls, tau, w, rho, xi=1j, log_rho=None,
               sqrt_rho=None) -> "RhoModuliTorus":
        t = tau if isinstance(tau, TorusModulus) else TorusModulus(tau)
        rho = complex(rho)
        if log_rho is None:
            log_rho = _branch_log(rho, sqrt_rho, "rho")
        return cls(tau=t, w=complex(w), rho=rho, log_rho=log_rho, xi=xi)

    def center(self, a: int) -> complex:
        if a == 1:
            return 0.0 + 0.0j
        if a == 2:
            return self.w
        raise DomainError("annulus label must be 1 or 2")

    def rho_pow(self, expnt):
        """rho**expnt on the recorded branch, vectorized in the exponent."""
        return np.exp(np.asarray(expnt, dtype=complex) * self.log_rho)


# ----------------------------------------------------------------------
# sphere: kernel, closed-form moments, determinant, assembly
# ----------------------------------------------------------------------

def _check_off_puncture(xs: np.ndarray, ys: np.ndarray) -> None:
    """DomainError at a point 0, before any logarithm is taken of it."""
    if not (xs.all() and ys.all()):
        raise DomainError("x, y must avoid the punctures 0 and infinity")


def s_kappa_sphere(handle: HandleTwist, x, y, log_x=None, log_y=None):
    """Twisted genus-zero kernel coefficient of dx^1/2 dy^1/2.

        x^kappa y^{-kappa} / (x - y)

    for every kappa in [-1/2, 1/2).  Fractional powers are principal
    unless explicit logarithms of x and y are supplied (used by
    phase-tracked contour quadrature).
    Broadcasts over array arguments.
    """
    xv = np.asarray(x, dtype=complex)
    yv = np.asarray(y, dtype=complex)
    _check_off_puncture(xv, yv)
    lx = np.log(xv) if log_x is None else np.asarray(log_x, dtype=complex)
    ly = np.log(yv) if log_y is None else np.asarray(log_y, dtype=complex)
    if not all(np.all(np.isfinite(v)) for v in (xv, yv, lx, ly)):
        raise DomainError("points and their logarithms must be finite")
    diff = xv - yv
    scale = np.maximum(np.abs(xv), np.abs(yv))
    if np.any(np.abs(diff) < POLE_GUARD * scale):
        raise DomainError("x = y pole of the genus-zero kernel")
    val = np.exp(handle.kappa * (lx - ly)) / diff
    return val if (np.ndim(x) or np.ndim(y)) else complex(val)


def det_i_minus_t_sphere(handle: HandleTwist, n_order: int,
                         moduli: RhoModuliSphere) -> complex:
    """Truncated product det(I-T) = prod_k (1 - theta^{-1} q^{k+kappa-1/2})
    (1 - theta q^{k-kappa-1/2}), k = 1..N."""
    n_order = check_count(n_order, 1, "order must be >= 1")
    kap = handle.kappa
    k = np.arange(1, n_order + 1)
    f1 = 1.0 - moduli.q_pow(mode_index(1, k, kap) - 0.5) / handle.theta
    f2 = 1.0 - moduli.q_pow(mode_index(2, k, kap) - 0.5) * handle.theta
    return complex(np.prod(f1) * np.prod(f2))


def _d_theta_diag(theta_new: complex, n_order: int) -> np.ndarray:
    """Diagonal of D^theta: theta_new^{-1} on block 1, -theta_new on block 2."""
    return np.concatenate([np.full(n_order, 1.0 / theta_new, dtype=complex),
                           np.full(n_order, -theta_new, dtype=complex)])


class RhoSphereContext:
    """Closed-form assembly of the self-sewn sphere for one (handle, q, N).

    T is exactly diagonal, T_aa(k,k) = theta^{-(-1)^a} q^{k_a - 1/2} on
    the recorded branch of log q, and is kept as its diagonal ``t``, built
    once with the mode indices and the weights q^{(k_a - 1/2)/2} of the
    closed-form h / hbar rows.  The kernel divides by d_i = 1 - t_i, the
    twisted denominators of ``det_i_minus_t_sphere``, and factorises
    nothing; ``det`` stays the dense determinant.
    """

    def __init__(self, handle: HandleTwist, moduli: RhoModuliSphere,
                 n_order: int = DEFAULT_ORDER) -> None:
        n_order = check_count(n_order, 1, "order must be >= 1")
        self.handle = handle
        self.moduli = moduli
        self.n_order = n_order
        k = np.arange(1, n_order + 1)
        k1, k2 = (mode_index(a, k, handle.kappa) for a in (1, 2))
        self.t = np.concatenate([moduli.q_pow(k1 - 0.5) / handle.theta,
                                 moduli.q_pow(k2 - 0.5) * handle.theta])
        q1, q2 = (moduli.q_pow(0.5 * (ka - 0.5)) for ka in (k1, k2))
        xi = moduli.xi
        # (prefactor, power of z) of the blocks a = 1, 2 of the h and hbar
        # rows: h_1 = -xi q^{(k_1-1/2)/2} x^{k_1-1},
        # h_2 = q^{(k_2-1/2)/2} x^{-k_2}, hbar_1 = -q^{(k_1-1/2)/2} y^{-k_1},
        # hbar_2 = xi q^{(k_2-1/2)/2} y^{k_2-1}
        self._h = ((-xi * q1, k1 - 1.0), (q2, -k2))
        self._hbar = ((-q1, -k1), (xi * q2, k2 - 1.0))
        self._dth = _d_theta_diag(handle.theta, self.n_order)

    @cached_property
    def _middle(self) -> np.ndarray:
        """Diagonal of D^theta (I - T)^{-1}, guarded against resonance."""
        d = 1.0 - self.t
        if np.any(np.abs(d) < RESONANCE_GUARD):
            raise ResonanceError(
                f"sewing mode factor 1 - T_ii = {d[np.argmin(np.abs(d))]:.3e} "
                f"below the resonance guard {RESONANCE_GUARD:.1e}")
        return self._dth / d

    def kernel_matrix(self, xs, ys, log_xs=None, log_ys=None) -> np.ndarray:
        """Sewn genus-one kernel S(x_i, y_j), coefficient of dx^1/2 dy^1/2.

        Shape (P, Q).  After the half-form conversion (value times
        (xy)^{1/2}, with X = log x, Y = log y on the supplied branches,
        principal ones by default) this equals P1[theta;phi](X-Y, tau)
        for tau = log_q / (2 pi i).
        """
        xs = np.ravel(np.asarray(xs, dtype=complex))
        ys = np.ravel(np.asarray(ys, dtype=complex))
        _check_off_puncture(xs, ys)
        lx = np.log(xs) if log_xs is None else np.ravel(log_xs).astype(complex)
        ly = np.log(ys) if log_ys is None else np.ravel(log_ys).astype(complex)
        if lx.size != xs.size or ly.size != ys.size:
            raise DomainError("need one logarithm per point")
        base = s_kappa_sphere(self.handle, xs[:, None], ys[None, :],
                              lx[:, None], ly[None, :])
        # p[None]: operands of equal rank (see TorusMoments.taylor_rows)
        h, hb = (np.concatenate([p[None] * np.exp(k * lz[:, None])
                                 for p, k in blocks], axis=1)
                 for blocks, lz in ((self._h, lx), (self._hbar, ly)))
        return base + row_products(self.moduli.xi * h * self._middle, hb)

    def kernel(self, x, y, log_x=None, log_y=None) -> complex:
        """One value of kernel_matrix."""
        return complex(self.kernel_matrix(x, y, log_x, log_y)[0, 0])

    def det(self) -> complex:
        """det(I - T) by the dense route, ungated."""
        return complex(np.linalg.det(
            np.eye(2 * self.n_order, dtype=complex) - np.diag(self.t)))


def torus_from_sphere(handle: HandleTwist, x, y, moduli: RhoModuliSphere,
                      n_order: int, log_x=None, log_y=None) -> complex:
    """Genus-one kernel from a self-sewn sphere (dx^1/2 dy^1/2 coefficient)."""
    ctx = RhoSphereContext(handle, moduli, n_order)
    return ctx.kernel(x, y, log_x, log_y)


# ----------------------------------------------------------------------
# torus: closed-form logarithm of A(z) = theta1(z-w)/theta1(z)
# ----------------------------------------------------------------------

_MAX_CROSSINGS = 1000  # lattice lines one log-A path edge may cross


def _singular_distance(z, tau: TorusModulus, w: complex):
    """Distance of each z to the zeros (w + Lambda) and poles (Lambda) of A."""
    z = np.asarray(z, dtype=complex)
    d = lattice_distance(np.array([z, z - w]), tau)
    return np.minimum(d[0], d[1])


@lru_cache(maxsize=64)
def _even_series(tau: complex) -> tuple:
    """(j, c_j) with sum_{k>=1} log((1 - q^k e^v)(1 - q^k e^-v))
    = sum_j c_j (e^{jv} + e^{-jv}), c_j = -q^j / (j (1 - q^j)), summed to
    1e-17 for |Re v| <= pi Im tau."""
    h = math.pi * tau.imag  # term j is at most of order e^{-h j}
    j = np.arange(1.0, math.ceil(math.log(2e17 / -math.expm1(-h)) / h) + 1.0)
    q = np.exp(2j * np.pi * tau * j)
    return j, -q / (j * (1.0 - q))


def _log_theta1(u: np.ndarray, t: complex) -> tuple:
    """(L, g): log theta1(u), up to a constant of tau, and the index g of
    the nearest line Re u = -2 pi Im tau m through lattice points at or
    left of u; L is analytic between these lines.  With v = u - 2 pi i
    tau n reduced into |Re v| <= pi Im tau and v' = +-v, Re v' >= 0, every
    logarithm of the product formula L = i pi g - n (v + i pi tau n) + v'/2
    + Log(1 - e^{-v'}) + sum_j c_j (e^{jv} + e^{-jv}) is principal."""
    s, re2 = TWO_PI * t.imag, TWO_PI * t.real
    n = np.rint(u.real / -s)
    v = u + (s - 1j * re2) * n
    left = v.real < 0
    vv = np.where(left, -v, v)
    j, c = _even_series(t)
    e = np.exp(np.multiply.outer(vv, j))
    g = n + left
    return (0.5 * vv + np.log(-np.expm1(-vv)) + (e + 1.0 / e) @ c
            + 1j * np.pi * g - n * (v + 1j * np.pi * t * n)), g


def _continue_log_a(paths: np.ndarray, tau: TorusModulus, w: complex,
                    z_ref: complex, log_a_ref: complex) -> np.ndarray:
    """log A at every vertex of the paths z_ref -> paths[i, 0] ->
    paths[i, 1] -> ... (2-D paths; a point is a one-edge path), in closed
    form: L(z - w) - L(z) (see _log_theta1), which telescopes, less 2 pi i
    times the jumps of L where each edge crosses a line m through lattice
    points: leftward at height y, -floor((y - 2 pi m Re tau) / 2 pi),
    which counts the lattice points the edge passes above, the side it
    really takes (through a lattice point counts as above).  The vertices
    must be finite and clear of A's zeros and poles; an edge that crosses
    over _MAX_CROSSINGS lines raises DomainError.
    """
    s, re2 = TWO_PI * tau.tau.imag, TWO_PI * tau.tau.real
    # rows z - w and z, column 0 the anchor, column j + 1 vertex j
    u = np.concatenate(([z_ref], paths.ravel())) - np.array([[w], [0.0]])
    val, g = _log_theta1(u, tau.tau)
    # each edge's start column: the anchor, or the vertex before; points
    # (one-edge paths) take the anchor as a slice and need no running sum
    # of turns; the gather and the sum would cost a kernel call about 6%
    start = slice(0, 1)
    if paths.shape[1] > 1:
        start = np.arange(paths.size)
        start[::paths.shape[1]] = 0
    g0 = g[:, start]
    dg = g[:, 1:] - g0
    out = val[:, 1:] - val[:, :1]
    rows = np.abs(dg).max(initial=0.0)
    if not rows <= _MAX_CROSSINGS:
        raise DomainError(f"a path edge crosses over "
                          f"{_MAX_CROSSINGS} lines through lattice points")
    if rows:
        a = u[:, start]
        d = u[:, 1:] - a
        slope = d.imag / (d.real + (d.real == 0))
        alpha = (a.imag - slope * a.real) / TWO_PI
        beta = (slope * s + re2) / -TWO_PI
        k = np.arange(int(rows))
        m = np.minimum(g0, g[:, 1:])[..., None] + k
        level = np.floor(alpha[..., None] + beta[..., None] * m)
        # whole turns per edge, exact integers, summed along each path
        turns = np.sign(dg) * (level * (k < np.abs(dg)[..., None])).sum(axis=-1)
        if paths.shape[1] > 1:
            turns = np.cumsum(turns.reshape((2,) + paths.shape),
                              axis=-1).reshape(2, -1)
        out = out + TWO_PI_I * turns
    return (log_a_ref + (out[0] - out[1])).reshape(paths.shape)


def log_a_torus(z, tau: TorusModulus, w: complex, *,
                z_ref: complex, log_a_ref: complex):
    """log of A(z) = theta1(z-w)/theta1(z), continued from a branch anchor.

    Vectorized in z: a scalar gives a complex, an array an array of its
    shape; a value does not depend on the other points of its call.

    The logarithm is continued from the value log_a_ref at z_ref along
    the straight segment from z_ref to z, passing each zero and pole on
    the side the segment takes (see _continue_log_a); a RhoModuliTorus
    records both.  All fractional powers U^kappa in the self-sewing
    torus kernel use this continuation and read only differences of its
    values, so the anchor value cancels.
    """
    zv = np.asarray(z, dtype=complex)
    if not np.isfinite(zv).all():
        raise DomainError("points must be finite")
    if np.any(_singular_distance(zv, tau, w) < POLE_GUARD):
        raise DomainError("point is at a zero or pole of theta1(z-w)/theta1(z)")
    val = _continue_log_a(zv.reshape(-1, 1), tau, w, _finite(z_ref, "z_ref"),
                          _finite(log_a_ref, "log_a_ref")).reshape(zv.shape)
    return val if zv.ndim else complex(val)


# ----------------------------------------------------------------------
# torus: twisted base kernel S_kappa and its moments in closed form
# ----------------------------------------------------------------------

def _branches(zs: np.ndarray, log_a) -> np.ndarray:
    """The log A branches of the 1-D points zs as a 1-D array; DomainError
    unless there is one finite branch per point."""
    log_a = np.ravel(np.asarray(log_a, dtype=complex))
    if log_a.size != zs.size or not np.isfinite(log_a).all():
        raise DomainError("need one finite log A branch per point")
    return log_a


def _series_powers(s: np.ndarray, kappa: float) -> np.ndarray:
    """[t^n] S^{-kappa} and [t^n] S^{kappa}, n < K, shape (2, K), of the
    series S(t) = sum_{n<K} s_n t^n with s_0 = 1, by J. C. P. Miller's
    recurrence for a power p = S^alpha (from p' S = alpha S' p):
    n p_n = sum_{k=1}^n ((alpha + 1) k - n) s_k p_{n-k}, both powers in
    one pass of K - 1 steps."""
    size = s.size
    alpha = np.array([-kappa, kappa])[:, None, None]
    k = np.arange(1.0, size)
    # coef[i, n - 1, k - 1] = ((alpha_i + 1) k / n - 1) s_k, read at k <= n
    coef = ((alpha + 1.0) * k / k[:, None] - 1.0) * s[1:]
    p = np.zeros((2, size), dtype=complex)
    p[:, 0] = 1.0
    for j in range(1, size):
        p[:, j] = (coef[:, j - 1, :j] * p[:, j - 1::-1]).sum(axis=1)
    return p


@lru_cache(maxsize=128)
def _handle_laurent(tw1: TwistPair, kappa: float, tau: TorusModulus,
                    w: complex, n_order: int) -> tuple:
    """The part of a self-sewn-torus build that rho does not enter:
    (char, kv, P, R, S, log K(w), S^{-+kappa}), kept per (tw1, kappa,
    tau, w, N), once per process, as ``specialfn._taylor_box`` keeps its
    box, so a build repeated at another rho (a rho scan, a handle Dehn
    move) reads it back.  Every array is read-only and of O(N) entries;
    a resonant twist raises and is not kept.

    First the resonance guard on theta[alpha1;beta1](kappa w) and the
    shifted characteristic ``char`` with ``kv`` (``TorusMoments``).
    Then one theta stage (``laurent``) and one forward substitution:
    P_1..P_{2N-1} of ``char`` at w and at -w, shape (2, 2N - 1);
    R_1..R_{2N-1} of its P1(z) = 1/z + sum_{n>=1} R_n z^{n-1}, shape
    (2N - 1,); the first 2N Taylor coefficients of S(t) = B_w(t) /
    b_0(t), with B_w(t) = theta_1(w - t)/theta_1(w) and b_0(t) = K(t)/t
    (the theta_1 rows at w and at the origin), shape (2N,); and a
    logarithm of K(w) = theta_1(w)/theta_1'(0).  Last the Miller rows
    S^{-kappa} and S^{kappa} of ``_series_powers``, shape (2, 2N).
    """
    log_mult, th0 = _theta_value((tw1.alpha, tw1.beta), kappa * w, tau.tau)
    if abs(complex(np.exp(log_mult) * th0)) < RESONANCE_GUARD:
        raise ResonanceError(
            "theta[alpha1;beta1](kappa w, tau) vanishes: degenerate twist")
    uv = w / TWO_PI_I
    v = uv.imag / tau.tau.imag
    kv = kappa * v
    char = TwistPair(tw1.alpha + kv,
                     tw1.beta + kappa * (uv.real - v * tau.tau.real))
    kmax = 2 * n_order
    z_red, m, k, _ = reduced = _reduce_off_lattice(np.array([w, -w]), tau)
    a, b, _, kz = _theta_stage(char, kmax, reduced, 2, tau, laurent=True)
    # w = z_red + 2 pi i (m tau + k): theta_1(w - t)/theta_1(w) is
    # e^{m t} times its value at the reduced point, and theta_1(w) is
    # (-1)^k e^{-i pi tau m^2 - m (z_red + i pi)} theta_1(z_red)
    m0 = m[0]
    b_w = np.convolve(b[0], np.cumprod(np.concatenate(
        ([1.0], m0 / np.arange(1.0, kmax)))))[:kmax]
    p = _substitute(np.vstack([a, b_w]), np.vstack([b, b[2:]]))
    log_k = (np.log(kz[0]) + 1j * np.pi * k[0]
             - m0 * (z_red[0] + 1j * np.pi * (tau.tau * m0 + 1.0)))
    p_w = p[:2, :-1] * _multiplier(char, m, k)[:, None]
    r_n = (-1.0) ** np.arange(1, kmax) * p[2, 1:]
    s = p[3]
    powers = _series_powers(s, kappa)
    for arr in (p_w, r_n, s, powers):
        arr.flags.writeable = False
    return char, kv, p_w, r_n, s, log_k, powers


class TorusMoments:
    """One self-sewn-torus setup: the twisted base kernel

        S_kappa(x,y) = U(x,y)^kappa theta[a1;b1](x-y+kappa w) /
                       (theta[a1;b1](kappa w) K(x-y)),
        U(x,y) = theta1(x-w) theta1(y) / (theta1(x) theta1(y-w)),

    and its moments G, h and hbar from Laurent data at the punctures.
    U^kappa = exp(kappa (log A(x) - log A(y))) on the continued branch of
    log A (``log_a``).  With w = 2 pi i (u + v tau), theta[a1;b1](z +
    kappa w) is e^{-kappa v z} theta[c](z) up to a constant, for the
    shifted characteristic c = [alpha1 + kappa v; beta1 + kappa u]
    (``char``, ``kv`` = kappa v), so S_kappa(x,y) = e^{kappa (log A(x) -
    log A(y))} f(x - y), f(z) = e^{-kappa v z} P1[c](z).  Whether log A
    enters at all (``tracked``: not at kappa = 0) is settled per build;
    ``char``, ``kv``, the resonance guard on theta[a1;b1](kappa w) and
    the Laurent data below, none of which rho enters, once per (tw1,
    kappa, tau, w, N) per process (``_handle_laurent``).

    Near c_a, y_a^{-k_a} e^{-kappa log A(y)} = y_a^{-k} E_a(y) with E_a
    analytic inside the y contour, so

        h_a(k,x) = rho^{(k_a-1/2)/2} e^{kappa log A(x)}
                   sum_{j<k} E_{a,j} [t^{k-1-j}] f(x - c_a - t),

    and hbar_a(k,y) likewise, from Ebar_a = x_abar^{k-k_a} e^{kappa log A}
    on the x contour and [s^n] f(c_abar - y + s).  With the prefactors,
    the series of e^{-+kappa v t} and e^{kappa v (c_a - c_1)} the
    moments are folded into one lower-triangular N x N matrix per block
    (``_taylor_blocks``), and [t^n] f(z - t) = e^{-kappa v z}
    sum_{i+l=n} (kappa v)^i/i! P_{l+1}(z).

    The moments E_{a,j} and Ebar_{a,j} of e^{-+kappa log A} are Taylor
    coefficients too (``_u_moments``): t A(t) = U_1 S(t) near 0 and
    A(w + t)/t = U_2 / S(-t) near w, with S = B_w / b_0 from the theta
    stage of ``_laurent``, so each contour's moments are one row of
    S^{-+kappa} (``_series_powers``) times one branch constant
    e^{-+kappa log U}, whose sheet is the one log A reaches at the
    contour's start node.

    G is the x-contour moment of h,

        G_ab(k,l) = rho^{(k_a-1/2)/2} (1/2pi i) oint_{C_abar}
                    x_abar^{-k_a} h_b(l,x) dx,

    and with x = c_abar + s, x_abar^{-k_a} e^{kappa log A(x) - kappa v x}
    = e^{-kappa v c_abar} s^{-k} D_a(s), D_a(s) = sum_i d_{a,i} s^i
    = Ebar_a(s) e^{-kappa v s}.  So G_ab = Hbar_a K_ab H_b^T, with Hbar
    and H the matrices of hbar and h and K_ab(m,j) = (-1)^m [s^m]
    P_{j+1}(c_abar - c_b + s): across the punctures (a = b)
    C(m+j, j) P_{m+j+1}[c](c_abar - c_a); at one puncture (a != b), where
    P1[c](s) = 1/s + sum_n R_n s^{n-1}, (-1)^{m+j} C(m+j, j) R_{m+j+1},
    and the polar part s^{-j-1} of P_{j+1}(s) adds
    rho^{(k_a-1/2)/2} e^{-kappa v c_abar} d_{a,k+j+1} to Hbar_a K_ab
    (``_closed_g``).  The R_n (the row the two-tori F reads too), the
    P_n at +-w and S come from one theta stage (``_laurent``), not a
    q-series.

    Contours C_a (``_specs``) are circles of the geometric-mean annulus
    radius round 0 and w, the x and y copies split by fixed factors so
    same-center contours never collide; the moduli's domain keeps them
    inside the sewing annuli.  A build holds no contour: their quadrature
    is the oracle (``oracle.TorusQuadrature``), and M is carried for the
    benchmark and the shims ``h_vector``/``hbar_vector``.
    """

    def __init__(self, tw1: TwistPair, handle: HandleTwist,
                 n_order: int, moduli: RhoModuliTorus,
                 m_points: int = DEFAULT_QUAD_POINTS) -> None:
        n_order = check_count(n_order, 1, "order must be >= 1")
        self.m_points = check_count(m_points, 8,
                                    "need at least 8 quadrature points")
        kap = handle.kappa
        self._handle_data = _handle_laurent(tw1, kap, moduli.tau, moduli.w,
                                            n_order)
        self.tw1 = tw1
        self.kappa = kap
        self.tracked = kap != 0.0
        self.char, self.kv = self._handle_data[:2]
        self.moduli = moduli
        self.n_order = n_order
        r = moduli.contour_radius
        # (label, radius) of the x contours of labels abar, over which
        # G row a and hbar_a integrate, and of the y contours of labels a,
        # over which G column a and h_a integrate (a = 1, 2)
        self._specs = ([(3 - a, X_RADIUS_FACTOR * r) for a in (1, 2)]
                       + [(a, Y_RADIUS_FACTOR * r) for a in (1, 2)])
        self._k = [mode_index(a, np.arange(1, n_order + 1), handle.kappa)
                   for a in (1, 2)]
        self._pref = np.concatenate(
            [moduli.rho_pow(0.5 * (ka - 0.5)) for ka in self._k])
        p, r_n = self._laurent()[:2]
        self._taylor_h, self._taylor_hbar, d = self._taylor_blocks(
            *self._u_moments())
        self.g = self._closed_g(d, p, r_n)

    def log_a(self, z, log_a_z=None):
        """Branch of log A at a point or an array of points: the supplied
        one, else continued in closed form; 0 if untracked."""
        mod = self.moduli
        if self.tracked and log_a_z is None:
            return log_a_torus(z, mod.tau, mod.w, z_ref=mod.z_ref,
                               log_a_ref=mod.log_a_ref)
        val = np.zeros(np.shape(z), dtype=complex) if not self.tracked \
            else np.asarray(log_a_z, dtype=complex)
        return val if np.ndim(z) else complex(val)

    def _u_moments(self) -> tuple:
        """The U^kappa moments in closed form: E_{a,j}, j < N, of the y
        contours and Ebar_{a,j}, j < 2N, of the x contours, shape (2, N)
        and (2, 2N), from the rows S^{-+kappa} of the series S (S(0) = 1)
        and log K(w) of ``_laurent`` (kept by ``_handle_laurent``).

        With U_1 = -K(w) and U_2 = 1/K(w), (t A)^{-+kappa}
        = U_1^{-+kappa} S(t)^{-+kappa} round 0 and (A/t)^{-+kappa}
        = U_2^{-+kappa} S(-t)^{+-kappa} round w, so the y moments are
        e^{-kappa log U_a} times [t^j] S^{-kappa} at 0 and (-1)^j [t^j]
        S^{kappa} at w, and the x moments e^{kappa log U_abar} times
        (-1)^j [t^j] S^{-kappa} at w and [t^j] S^{kappa} at 0.  Each
        contour's log U is the exact value of U on the sheet of its
        integrand, which continues log A from z_ref to the contour's
        start node c + r (plus the moduli's winding round w); that sheet
        is read, as an integer, at c + r/16 on the radius from the start
        node (one closed-form call of two-vertex paths), where log A
        + log t round 0, or log A - log t round w, is log U less
        +-log S(+-r/16), whose imaginary part stays far below pi
        (``_SHEET_RADIUS``).  Only where c + r/16 rounds to c is a build
        refused, since it reads no node.
        """
        n, kap, mod = self.n_order, self.kappa, self.moduli
        log_k, powers = self._handle_data[-2:]
        out = np.zeros((4, 2 * n), dtype=complex)
        out[:, 0] = 1.0
        if self.tracked:
            radii = np.array([r for _, r in self._specs])
            at_w = np.array([a == 2 for a, _ in self._specs])
            sign = np.where(at_w, -1.0, 1.0)
            centres = np.where(at_w, mod.w, 0.0)
            paths = centres[:, None] \
                + np.multiply.outer(radii, [1.0, _SHEET_RADIUS])
            if np.any(paths[:, 1] == centres):
                raise DomainError(
                    "contour radius too small: the sheet probe r/16 from "
                    "w rounds to w; rho too small")
            near = _continue_log_a(paths, mod.tau, mod.w, mod.z_ref,
                                   mod.log_a_ref)[:, 1] \
                + TWO_PI_I * mod.winding * at_w \
                + sign * np.log(_SHEET_RADIUS * radii)
            log_u = np.where(at_w, -log_k, log_k + 1j * np.pi)
            log_u = log_u + TWO_PI_I * np.round((near - log_u).imag / TWO_PI)
            # rows S^{-kappa}, S^{kappa} for labels a = 1, 2 of both
            # families; e^{+kappa log U} on the x contours, e^{-kappa log U}
            # on the y contours
            out = (powers[[0, 1, 0, 1]]
                   * sign[:, None] ** np.arange(2 * n)
                   * np.exp(kap * np.array([1.0, 1.0, -1.0, -1.0])
                            * log_u)[:, None])
        return out[2:, :n], out[:2]

    def _taylor_blocks(self, e: np.ndarray, ebar: np.ndarray) -> tuple:
        """The lower-triangular matrices of h and of hbar, shape (2, N, N)
        each, and e^{-kappa v c_abar} d_{a,i}, i < 2N, shape (2, 2N), from
        the moments E (shape (2, N)) and Ebar (shape (2, 2N)): row k - 1
        of block a maps the rows (P_1..P_N) at x - c_a (at c_abar - y for
        hbar) to h_a(k) / e^{kappa log A(x) - kappa v x}
        (hbar_a(k) / e^{kappa v y - kappa log A(y)})."""
        n, kv = self.n_order, self.kv
        d = np.subtract.outer(np.arange(n), np.arange(n))  # k - l
        lower = d >= 0
        d = np.where(lower, d, 0)
        shift = np.exp(kv * self.moduli.w)  # e^{kappa v (c_2 - c_1)}
        out = []
        # h: E_{a,j} with f(x - c_a - t); hbar: Ebar_{a,j} up to j = 2N - 1
        # for G, with [s^n] f(c_abar - y + s) = (-1)^n [t^n] f(c_abar - y
        # - t), which turns the sign of kappa v in the series and puts
        # (-1)^{l-1} on P_l
        for mom, sign, centre in ((e, -1.0, [1.0, shift]),
                                  (ebar, 1.0, [1.0 / shift, 1.0])):
            k = mom.shape[1]
            series = np.cumprod(np.concatenate(
                ([1.0], -sign * kv / np.arange(1, k))))
            g = np.array([np.convolve(ea, series)[:k] for ea in mom]) \
                * np.array(centre)[:, None]
            out.append(np.where(lower, g[:, d], 0.0)
                       * self._pref.reshape(2, n, 1) * (-sign) ** np.arange(n))
        # g of the x contours, the last pass: e^{-kappa v c_abar} d_{a,i}
        return (*out, g)

    def _laurent(self) -> tuple:
        """(P, R, S, log K(w)): the Laurent data at the punctures of one
        theta stage and one forward substitution, kept by
        ``_handle_laurent``, which states each one."""
        return self._handle_data[2:6]

    def _closed_g(self, d: np.ndarray, p: np.ndarray,
                  r: np.ndarray) -> np.ndarray:
        """G from the matrices of h and hbar, the scaled d_{a,i} of
        ``_taylor_blocks`` and the Laurent data P and R of ``_laurent``."""
        n = self.n_order
        mj = np.add.outer(np.arange(n), np.arange(n))
        binom = binomials(n)
        hb, h = self._taylor_hbar, self._taylor_h
        # a = 1 reads P at c_2 - c_1 = w, a = 2 at c_1 - c_2 = -w
        cross = [hb[a] @ (binom * p[a, mj]) for a in (0, 1)]
        same = [self._pref[n * a:n * (a + 1), None] * d[a, mj + 1]
                + hb[a] @ ((-1.0) ** mj * binom * r[mj]) for a in (0, 1)]
        return as_complex_matrix(np.block(
            [[(cross[a] if a == b else same[a]) @ h[b].T for b in (0, 1)]
             for a in (0, 1)]), "moment matrix G")

    def taylor_rows(self, xs, log_a_xs, ys, log_a_ys) -> tuple:
        """(h, hbar, S_kappa): the rows h(x_i) and hbar(y_j), shape (P, 2N)
        and (Q, 2N), and the base kernel S_kappa(x_i, y_j), shape (P, Q),
        at 1-D points with one log A branch each.

        One lattice reduction, one theta stage and one forward
        substitution: Taylor rows of P_k[char] at x - c_1, x - c_2,
        c_2 - y and c_1 - y, and the value-only points x - y (pole-guarded
        by the reduction).  Each row and entry is reduced on its own, so
        no value depends on the other points of its call.  The points are
        not validated here (``RhoTorusContext.kernel_matrix`` does that).
        """
        return self._rows(self._reduce(xs, ys), xs, log_a_xs, ys, log_a_ys)

    def _reduce(self, xs, ys) -> tuple:
        """One reduction of x - c_1, x - c_2, c_2 - y, c_1 - y and x - y."""
        c = np.array([0.0, self.moduli.w])
        return _reduce_off_lattice(np.concatenate(
            [np.subtract.outer(xs, c).ravel(),
             -np.subtract.outer(ys, c[::-1]).ravel(),
             np.subtract.outer(xs, ys).ravel()]), self.moduli.tau)

    def _rows(self, reduced, xs, log_a_xs, ys, log_a_ys) -> tuple:
        """``taylor_rows`` from ``reduced = _reduce(xs, ys)``."""
        n, kap, kv, char = self.n_order, self.kappa, self.kv, self.char
        p, q = xs.size, ys.size
        n_rows = 2 * (p + q)
        a, b, p1, _ = _theta_stage(char, n, reduced, n_rows, self.moduli.tau)
        mult = _multiplier(char, *reduced[1:3])
        rows = (_substitute(a, b) * mult[:n_rows, None]).reshape(-1, 2, 1, n)
        ex = np.exp(kap * log_a_xs - kv * xs)
        ey = np.exp(kv * ys - kap * log_a_ys)
        # row by row, not a matmul: BLAS rounding would depend on the batch
        h = (rows[:p] * self._taylor_h).sum(axis=-1).reshape(p, 2 * n)
        hb = (rows[p:] * self._taylor_hbar).sum(axis=-1).reshape(q, 2 * n)
        # operands of equal rank: a one-entry product broadcast from a
        # lower-rank operand takes another numpy loop, which rounds apart
        base = (ex[:, None] * ey[None, :]) * (mult[n_rows:] * p1).reshape(p, q)
        return ex[:, None] * h, ey[:, None] * hb, base

    # the benchmark traces h_vector, hbar_vector and the twisted
    # Eisenstein q-series of specialfn by name, and passes M and reads
    # ``m_points``: these two oracle shims, ``m_points`` (here and on
    # RhoTorusContext) and that q-series stay until the next benchmark change
    def h_vector(self, x, log_a_x=None) -> np.ndarray:
        """The one-point h row by contour quadrature (the oracle)."""
        from .oracle import TorusQuadrature
        return TorusQuadrature(self, self.m_points).h_matrix(
            np.ravel(x), log_a_x)[0]

    def hbar_vector(self, y, log_a_y=None) -> np.ndarray:
        """The one-point hbar row by contour quadrature (the oracle)."""
        from .oracle import TorusQuadrature
        return TorusQuadrature(self, self.m_points).hbar_matrix(
            np.ravel(y), log_a_y)[0]


# ----------------------------------------------------------------------
# kernel assembly
# ----------------------------------------------------------------------

class RhoTorusContext:
    """Cached genus-two assembly for one (tw1, handle, moduli, N).

    I - T is built once, at construction, and ``det`` is its ungated
    determinant; the first kernel call reads its gated inverse.  No value
    reads M, carried on ``moments`` for the benchmark and its shims.
    """

    def __init__(self, tw1: TwistPair, handle: HandleTwist,
                 moduli: RhoModuliTorus, n_order: int = DEFAULT_ORDER,
                 m_points: int = DEFAULT_QUAD_POINTS) -> None:
        self.tw1 = tw1
        self.handle = handle
        self.moduli = moduli
        self.moments = TorusMoments(tw1, handle, n_order, moduli, m_points)
        self.n_order = self.moments.n_order
        self._dth = _d_theta_diag(handle.theta, self.n_order)
        self._lu = LU(np.eye(2 * self.n_order, dtype=complex)
                      - moduli.xi * self.moments.g * self._dth[None, :])
        self._margin = X_RADIUS_FACTOR * moduli.contour_radius * 1.05

    @cached_property
    def _middle(self) -> np.ndarray:
        """Middle factor xi D^theta (I - T)^{-1}, from the gated inverse,
        held transposed for row-wise products."""
        return np.ascontiguousarray(
            (self.moduli.xi * self._dth[:, None] * self._lu.inverse()).T)

    def kernel_matrix(self, xs, ys, log_a_xs=None,
                      log_a_ys=None) -> np.ndarray:
        """Sewn genus-two kernel S(x_i, y_j), coefficient of dx^1/2 dy^1/2.

        Shape (P, Q).  Validation reads the call's one lattice reduction,
        measuring exactly only where its ``edge`` cannot clear; log A
        comes from one closed-form call; h, hbar and S_kappa from one theta
        stage over the same reduction (``TorusMoments.taylor_rows``), and
        h (xi D^theta (I - T)^{-1}) hbar^T is reduced row by row, so each
        entry equals its single ``kernel`` call bit for bit.
        """
        xs = np.ravel(np.asarray(xs, dtype=complex))
        ys = np.ravel(np.asarray(ys, dtype=complex))
        zs = np.concatenate([xs, ys])
        if not np.isfinite(zs).all():
            raise DomainError("points must be finite")
        mom, mod = self.moments, self.moduli
        reduced = mom._reduce(xs, ys)
        # each point's lesser edge of its two entries, x - c (c - y)
        d = np.minimum(reduced[3][:2 * zs.size:2], reduced[3][1:2 * zs.size:2])
        near = d <= self._margin
        if near.any():
            d[near] = _singular_distance(zs[near], mod.tau, mod.w)
            bad = d <= self._margin
            if bad.any():
                raise DomainError(f"point at distance {d[np.argmax(bad)]:.3e} "
                                  f"from a puncture lies inside the sewing "
                                  f"contours (need > {self._margin:.3e})")
        lax, lay = log_a_xs, log_a_ys
        if lax is None or lay is None:
            zs = np.concatenate(
                [z for z, la in ((xs, lax), (ys, lay)) if la is None])
            # beyond the contour margin, so clear of A's zeros and poles
            log_a = _continue_log_a(zs[:, None], mod.tau, mod.w, mod.z_ref,
                                    mod.log_a_ref)[:, 0] if mom.tracked \
                else mom.log_a(zs)
            if lax is None:
                lax, log_a = log_a[:xs.size], log_a[xs.size:]
            if lay is None:
                lay = log_a
        lax, lay = _branches(xs, lax), _branches(ys, lay)
        if not (xs.size and ys.size):
            return np.zeros((xs.size, ys.size), dtype=complex)
        h, hb, base = mom._rows(reduced, xs, lax, ys, lay)
        return base + row_products(row_products(h, self._middle), hb)

    def kernel(self, x, y, log_a_x=None, log_a_y=None) -> complex:
        """One value of kernel_matrix."""
        return complex(self.kernel_matrix(x, y, log_a_x, log_a_y)[0, 0])

    def det(self) -> complex:
        return self._lu.det()

