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
moments collapse to closed forms and T is exactly diagonal; on the torus
they are computed by trapezoidal contour quadrature with all fractional
powers tracked continuously in the contour angle.

Half-integer powers of rho are taken from the recorded branch log_rho
(never from a fresh principal root), so the handle Dehn move
log_rho -> log_rho + 2 pi i acts exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_CONFIG, NumericConfig
from .errors import (BranchTrackingError, DomainError, ResonanceError)
from .numerics import LU, as_complex_matrix
from .specialfn import (TorusModulus, TwistPair, _theta_g1_derivs, K,
                        lattice_distance, theta1)
from .epsilon import RADIUS_FACTOR, _check_xi, _finite, min_lattice_distance

__all__ = [
    "HandleTwist", "RhoModuliSphere", "RhoModuliTorus", "mode_index",
    "s_kappa_sphere", "sphere_moments", "SphereMoments",
    "det_i_minus_t_sphere", "RhoSphereContext", "torus_from_sphere",
    "log_a_torus", "s_kappa_torus", "TorusMoments",
    "RhoTorusContext", "szego_genus2_rho",
]

TWO_PI_I = 2j * np.pi
# same-center double contours must not collide: scale the x contour out
# and the y contour in relative to the geometric-mean radius
X_RADIUS_FACTOR = 1.25
Y_RADIUS_FACTOR = 0.8
_CLOSURE_TOL = 1e-8


class HandleTwist(TwistPair):
    """Twist data on the handle created by self-sewing.

    Same content as a genus-one TwistPair: multipliers
    theta_new = -e^{-2 pi i beta} and phi_new = -e^{2 pi i alpha} on the
    new cycles, with kappa = ((alpha + 1/2) mod 1) - 1/2 in [-1/2, 1/2).
    Torus self-sewing requires kappa != -1/2 (the sphere supports it
    through the delta term of the genus-zero kernel).
    """


def _is_half(kappa: float) -> bool:
    return abs(kappa + 0.5) < 1e-12


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

    Domain: |w - lambda| > 2 |rho|^{1/2} > 0 for every lattice point
    lambda, plus |rho| < r_1 r_2 for the sewing annulus radii so the
    moment solve converges.  The radii are fixed at construction.
    """

    tau: TorusModulus
    w: complex
    rho: complex
    log_rho: complex
    xi: complex
    z_ref: complex | None = None
    log_a_ref: complex | None = None
    winding: int = 0
    _radius: float = field(init=False, repr=False, compare=False)
    _contour_radius: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        w = _finite(self.w, "w")
        rho = _finite(self.rho, "rho")
        log_rho = _finite(self.log_rho, "log_rho")
        if rho == 0:
            raise DomainError("rho must be nonzero")
        _check_log(rho, log_rho, "rho")
        wdist = float(lattice_distance(w, self.tau))
        if wdist <= 2.0 * math.sqrt(abs(rho)):
            raise DomainError(
                f"|w - lambda| = {wdist:.3e} must exceed 2 |rho|^(1/2) "
                f"= {2.0 * math.sqrt(abs(rho)):.3e}")
        r = RADIUS_FACTOR * min(min_lattice_distance(self.tau), wdist)
        if abs(rho) >= r * r:
            raise DomainError(
                f"|rho| = {abs(rho):.3e} outside the convergence bound "
                f"r_1 r_2 = {r * r:.3e}")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "log_rho", log_rho)
        object.__setattr__(self, "xi", _check_xi(self.xi))
        object.__setattr__(self, "_radius", r)
        object.__setattr__(self, "_contour_radius", math.sqrt(abs(rho) / r * r))
        # branch anchor of log A(z) = log(theta1(z-w)/theta1(z)): value
        # log_a_ref at the reference point z_ref.  Default anchor is w/2,
        # where A = -1 exactly by oddness of theta1.  Modular generators
        # that move w transport this anchor on the covering space, which
        # keeps branches of U^kappa coherent across transformed moduli.
        if self.z_ref is None:
            object.__setattr__(self, "z_ref", w / 2.0)
            object.__setattr__(self, "log_a_ref", 1j * math.pi)
        else:
            object.__setattr__(self, "z_ref", complex(self.z_ref))
            object.__setattr__(self, "log_a_ref", complex(self.log_a_ref))
            val = complex(_a_values(self.z_ref, self.tau, w, DEFAULT_CONFIG))
            if abs(cmath.exp(self.log_a_ref) - val) > 1e-8 * abs(val):
                raise BranchTrackingError(
                    "log_a_ref is not a logarithm of theta1(z_ref - w) / "
                    "theta1(z_ref)")
        # `winding` is the second covering datum beside log_rho: the extra
        # integer number of 2 pi i branch sheets of log A carried by the
        # sewing contours around the puncture at w, relative to the sheet
        # reached by straight-path tracking from the anchor.  Generators
        # that translate w pick it up when the tracked sheet jumps across
        # a cut of the straight-path trivialization.
        object.__setattr__(self, "winding", int(self.winding))

    @classmethod
    def create(cls, tau, w, rho, xi=1j, log_rho=None,
               sqrt_rho=None) -> "RhoModuliTorus":
        t = tau if isinstance(tau, TorusModulus) else TorusModulus(tau)
        rho = complex(rho)
        if log_rho is None:
            log_rho = _branch_log(rho, sqrt_rho, "rho")
        return cls(tau=t, w=complex(w), rho=rho, log_rho=log_rho, xi=xi)

    def radius(self, a: int) -> float:
        """Sewing annulus outer radius r_a (equal for both annuli)."""
        if a not in (1, 2):
            raise DomainError("annulus label must be 1 or 2")
        return self._radius

    def contour_radius(self, a: int) -> float:
        """Geometric mean of the annulus inner and outer radii."""
        self.radius(a)  # checks the label
        return self._contour_radius

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

def s_kappa_sphere(handle: HandleTwist, x, y, log_x=None, log_y=None,
                   cfg: NumericConfig = DEFAULT_CONFIG):
    """Twisted genus-zero kernel coefficient of dx^1/2 dy^1/2.

        x^kappa y^{-kappa} / (x - y)
        + [theta/(1-theta)] x^{-1/2} y^{-1/2}   (only at kappa = -1/2)

    Fractional powers are principal unless explicit logarithms of x and
    y are supplied (used by phase-tracked contour quadrature).
    Broadcasts over array arguments.
    """
    xv = np.asarray(x, dtype=complex)
    yv = np.asarray(y, dtype=complex)
    if np.any(xv == 0) or np.any(yv == 0):
        raise DomainError("x, y must avoid the punctures 0 and infinity")
    lx = np.log(xv) if log_x is None else np.asarray(log_x, dtype=complex)
    ly = np.log(yv) if log_y is None else np.asarray(log_y, dtype=complex)
    diff = xv - yv
    scale = np.maximum(np.abs(xv), np.abs(yv))
    if np.any(np.abs(diff) < cfg.pole_guard * scale):
        raise DomainError("x = y pole of the genus-zero kernel")
    kap = handle.kappa
    val = np.exp(kap * (lx - ly)) / diff
    if _is_half(kap):
        th = handle.theta
        if abs(1.0 - th) < cfg.resonance_guard:
            raise ResonanceError(
                "kappa = -1/2 with theta = 1: delta term denominator vanishes")
        val = val + th / (1.0 - th) * np.exp(-0.5 * (lx + ly))
    return val if (np.ndim(x) or np.ndim(y)) else complex(val)


@dataclass(frozen=True)
class SphereMoments:
    """Closed-form sphere moments: diagonal T and the h / hbar evaluators."""

    handle: HandleTwist
    moduli: RhoModuliSphere
    n_order: int
    t: np.ndarray

    def _k(self, a: int) -> np.ndarray:
        return mode_index(a, np.arange(1, self.n_order + 1), self.handle.kappa)

    def h_vector(self, x, log_x=None) -> np.ndarray:
        """(h_1(k,x), h_2(k,x)) stacked, k = 1..N."""
        lx = cmath.log(complex(x)) if log_x is None else complex(log_x)
        k1, k2 = self._k(1), self._k(2)
        qp = self.moduli.q_pow
        h1 = -self.moduli.xi * qp(0.5 * (k1 - 0.5)) * np.exp((k1 - 1.0) * lx)
        h2 = qp(0.5 * (k2 - 0.5)) * np.exp(-k2 * lx)
        return np.concatenate([h1, h2])

    def hbar_vector(self, y, log_y=None) -> np.ndarray:
        """(hbar_1(k,y), hbar_2(k,y)) stacked, k = 1..N."""
        ly = cmath.log(complex(y)) if log_y is None else complex(log_y)
        k1, k2 = self._k(1), self._k(2)
        qp = self.moduli.q_pow
        hb1 = -qp(0.5 * (k1 - 0.5)) * np.exp(-k1 * ly)
        hb2 = self.moduli.xi * qp(0.5 * (k2 - 0.5)) * np.exp((k2 - 1.0) * ly)
        return np.concatenate([hb1, hb2])


def sphere_moments(handle: HandleTwist, n_order: int,
                   moduli: RhoModuliSphere,
                   cfg: NumericConfig = DEFAULT_CONFIG) -> SphereMoments:
    """Closed-form moments of the self-sewn sphere.

    T is exactly diagonal with T_aa(k,k) = theta^{-(-1)^a} q^{k_a - 1/2}
    on the recorded branch of log q.
    """
    if n_order < 1:
        raise DomainError("order must be >= 1")
    kap = handle.kappa
    if _is_half(kap):
        raise DomainError(
            "kappa = -1/2: closed-form sphere moments are only stated for "
            "kappa != -1/2 (the extra delta term changes the moments)")
    k = np.arange(1, n_order + 1)
    t11 = np.diag(moduli.q_pow(mode_index(1, k, kap) - 0.5) / handle.theta)
    t22 = np.diag(moduli.q_pow(mode_index(2, k, kap) - 0.5) * handle.theta)
    zero = np.zeros((n_order, n_order), dtype=complex)
    t = np.block([[t11, zero], [zero, t22]])
    return SphereMoments(handle=handle, moduli=moduli, n_order=n_order, t=t)


def det_i_minus_t_sphere(handle: HandleTwist, n_order: int,
                         moduli: RhoModuliSphere) -> complex:
    """Truncated product det(I-T) = prod_k (1 - theta^{-1} q^{k+kappa-1/2})
    (1 - theta q^{k-kappa-1/2}), k = 1..N."""
    if n_order < 1:
        raise DomainError("order must be >= 1")
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
    """Closed-form assembly of the self-sewn sphere for one (handle, q, N)."""

    def __init__(self, handle: HandleTwist, moduli: RhoModuliSphere,
                 n_order: int | None = None,
                 cfg: NumericConfig = DEFAULT_CONFIG) -> None:
        self.handle = handle
        self.moduli = moduli
        self.cfg = cfg
        self.n_order = n_order if n_order is not None else cfg.trunc_order
        self.moments = sphere_moments(handle, self.n_order, moduli, cfg)
        self._dth = _d_theta_diag(handle.theta, self.n_order)
        self._lu = LU(np.eye(2 * self.n_order, dtype=complex) - self.moments.t)

    def kernel(self, x, y, log_x=None, log_y=None) -> complex:
        """Sewn genus-one kernel coefficient of dx^1/2 dy^1/2.

        After the half-form conversion (value times (xy)^{1/2}, with
        X = log x, Y = log y on the supplied branches) this equals
        P1[theta;phi](X-Y, tau) for tau = log_q / (2 pi i).
        """
        mom = self.moments
        base = s_kappa_sphere(self.handle, x, y, log_x, log_y, self.cfg)
        hb = self._lu.solve(mom.hbar_vector(y, log_y), self.cfg)
        corr = self.moduli.xi * (mom.h_vector(x, log_x) * self._dth) @ hb
        return complex(base + corr)

    def det(self) -> complex:
        return self._lu.det()


def torus_from_sphere(handle: HandleTwist, x, y, moduli: RhoModuliSphere,
                      n_order: int, log_x=None, log_y=None,
                      cfg: NumericConfig = DEFAULT_CONFIG) -> complex:
    """Genus-one kernel from a self-sewn sphere (dx^1/2 dy^1/2 coefficient)."""
    ctx = RhoSphereContext(handle, moduli, n_order, cfg)
    return ctx.kernel(x, y, log_x, log_y)


# ----------------------------------------------------------------------
# torus: branch-tracked logarithm of A(z) = theta1(z-w)/theta1(z)
# ----------------------------------------------------------------------

_TRACK_MAX_NODES = 4096
_TRACK_ARG_LIMIT = 1.5  # max |arg| and |log magnitude| step per node


def _a_values(z, tau: TorusModulus, w: complex, cfg: NumericConfig):
    return theta1(np.asarray(z, dtype=complex) - w, tau, cfg) \
        / theta1(np.asarray(z, dtype=complex), tau, cfg)


def _min_singular_distance(z, tau: TorusModulus, w: complex) -> float:
    """Distance of z to the zeros (w + Lambda) and poles (Lambda) of A."""
    z = np.ravel(np.asarray(z, dtype=complex))
    return float(np.min(lattice_distance(np.concatenate([z, z - w]), tau)))


def _track_segment(z0: complex, z1: complex, tau: TorusModulus, w: complex,
                   cfg: NumericConfig) -> complex:
    """Continuous increment log A(z1) - log A(z0) along the straight segment."""
    n = 16
    while n <= _TRACK_MAX_NODES:
        t = np.linspace(0.0, 1.0, n + 1)
        pts = z0 + (z1 - z0) * t
        if _min_singular_distance(pts[1:-1], tau, w) < 10.0 * cfg.pole_guard:
            raise BranchTrackingError(
                "branch-tracking path passes too close to a zero or pole "
                "of theta1(z-w)/theta1(z)")
        vals = _a_values(pts, tau, w, cfg)
        ratios = vals[1:] / vals[:-1]
        steps = np.log(ratios)
        if np.all(np.abs(steps.imag) < _TRACK_ARG_LIMIT) \
                and np.all(np.abs(steps.real) < _TRACK_ARG_LIMIT):
            return complex(np.sum(steps))
        n *= 2
    raise BranchTrackingError(
        "branch tracking did not stabilize; path too close to a singularity")


def log_a_torus(z, tau: TorusModulus, w: complex,
                cfg: NumericConfig = DEFAULT_CONFIG,
                z_ref: complex | None = None,
                log_a_ref: complex | None = None) -> complex:
    """log of A(z) = theta1(z-w)/theta1(z), continued from a branch anchor.

    The default anchor is z_ref = w/2 with value i pi (A(w/2) = -1 by
    oddness of theta1); moduli transported by modular generators carry
    their own coherent (z_ref, log_a_ref).  The logarithm is continued
    along the straight path from the anchor to z (bent around any
    singularity it meets).  All fractional powers U^kappa in the
    self-sewing torus kernel use this tracker, so anchor constants
    cancel between the base kernel and the moment bilinears.
    """
    z = complex(z)
    if z_ref is None:
        anchor = w / 2.0
        base = 1j * np.pi
    else:
        anchor = complex(z_ref)
        base = complex(log_a_ref)
    if _min_singular_distance(np.array([z]), tau, w) < cfg.pole_guard:
        raise DomainError("point is at a zero or pole of theta1(z-w)/theta1(z)")
    return base + _segment_increment(anchor, z, tau, w, cfg)


def _segment_increment(z0: complex, z1: complex, tau: TorusModulus, w: complex,
                       cfg: NumericConfig) -> complex:
    """Continuous increment of log A from z0 to z1, bending around poles."""
    try:
        return _track_segment(z0, z1, tau, w, cfg)
    except BranchTrackingError:
        # bend the path around the singularity, trying both sides
        scale = min_lattice_distance(tau)
        mid = 0.5 * (z0 + z1)
        direction = (z1 - z0) / abs(z1 - z0) if z1 != z0 else 1.0
        for sign in (1.0, -1.0):
            way = mid + sign * 0.2j * scale * direction
            try:
                return _track_segment(z0, way, tau, w, cfg) \
                    + _track_segment(way, z1, tau, w, cfg)
            except BranchTrackingError:
                continue
        raise


def _circle_log_a(center: complex, radius: float, m: int, tau: TorusModulus,
                  w: complex, cfg: NumericConfig,
                  z_ref: complex | None = None,
                  log_a_ref: complex | None = None):
    """Contour nodes with angle-continuous log A, including the closure node.

    Returns (points, log_local, log_a) of length m+1; index m is the
    phi = 2 pi continuation of index 0 (same point, shifted branches).
    """
    phi = 2.0 * np.pi * np.arange(m + 1) / m
    pts = center + radius * np.exp(1j * phi)
    pts[m] = pts[0]
    log_local = math.log(radius) + 1j * phi
    vals = _a_values(pts, tau, w, cfg)
    steps = np.log(vals[1:] / vals[:-1])
    if np.any(np.abs(steps.imag) > _TRACK_ARG_LIMIT):
        raise BranchTrackingError(
            "contour too coarse for branch tracking; increase quadrature M")
    la0 = log_a_torus(pts[0], tau, w, cfg, z_ref, log_a_ref)
    log_a = la0 + np.concatenate([[0.0], np.cumsum(steps)])
    winding = (log_a[m] - log_a[0]) / TWO_PI_I
    if abs(winding - round(winding.real)) > 1e-8:
        raise BranchTrackingError(
            f"contour winding of log A not an integer: {winding}")
    return pts, log_local, log_a


# ----------------------------------------------------------------------
# torus: twisted base kernel S_kappa
# ----------------------------------------------------------------------

def _theta_g1(alpha: float, beta: float, z, tau: TorusModulus,
              cfg: NumericConfig):
    return _theta_g1_derivs(alpha, beta, np.asarray(z, dtype=complex),
                            tau.tau, 0, cfg)[0]


def _theta_const(tw1: TwistPair, kappa: float, w: complex, tau: TorusModulus,
                 cfg: NumericConfig) -> complex:
    val = complex(_theta_g1(tw1.alpha, tw1.beta, np.array(kappa * w), tau, cfg))
    if abs(val) < cfg.resonance_guard:
        raise ResonanceError(
            "theta[alpha1;beta1](kappa w, tau) vanishes: degenerate twist")
    return val


def _s_kappa_torus_grid(tw1: TwistPair, kappa: float, xs, log_ax, ys, log_ay,
                        tau: TorusModulus, w: complex,
                        cfg: NumericConfig) -> np.ndarray:
    """S_kappa coefficient on the grid xs x ys with supplied log A branches."""
    xs = np.asarray(xs, dtype=complex)
    ys = np.asarray(ys, dtype=complex)
    diff = xs[:, None] - ys[None, :]
    if np.any(lattice_distance(diff, tau) < cfg.pole_guard):
        raise DomainError("x - y hits the lattice: kernel pole")
    th0 = _theta_const(tw1, kappa, w, tau, cfg)
    num = _theta_g1(tw1.alpha, tw1.beta, diff + kappa * w, tau, cfg)
    if kappa == 0.0:
        u_pow = 1.0
    else:
        u_pow = np.exp(kappa * (np.asarray(log_ax, dtype=complex)[:, None]
                                - np.asarray(log_ay, dtype=complex)[None, :]))
    return u_pow * num / (th0 * K(diff, tau, cfg))


def s_kappa_torus(tw1: TwistPair, handle: HandleTwist, x, y,
                  moduli, cfg: NumericConfig = DEFAULT_CONFIG,
                  log_a_x=None, log_a_y=None) -> complex:
    """Twisted genus-one kernel coefficient of dx^1/2 dy^1/2.

        U(x,y)^kappa theta[a1;b1](x-y+kappa w) /
            (theta[a1;b1](kappa w) K(x-y)),
        U(x,y) = theta1(x-w) theta1(y) / (theta1(x) theta1(y-w)),

    with U^kappa = exp(kappa (log A(x) - log A(y))) on the tracked branch
    of log A (see log_a_torus); explicit branch values may be supplied.
    ``moduli`` is a RhoModuliTorus or a bare (tau, w) pair.
    """
    if isinstance(moduli, RhoModuliTorus):
        tau, w = moduli.tau, moduli.w
        z_ref, log_a_ref = moduli.z_ref, moduli.log_a_ref
    else:
        tau, w = moduli
        tau = tau if isinstance(tau, TorusModulus) else TorusModulus(tau)
        w = complex(w)
        z_ref = log_a_ref = None
    kap = handle.kappa
    if _is_half(kap):
        raise DomainError("kappa = -1/2 torus self-sewing is not supported")
    if kap != 0.0:
        if log_a_x is None:
            log_a_x = log_a_torus(x, tau, w, cfg, z_ref, log_a_ref)
        if log_a_y is None:
            log_a_y = log_a_torus(y, tau, w, cfg, z_ref, log_a_ref)
    grid = _s_kappa_torus_grid(tw1, kap, [complex(x)], [log_a_x],
                               [complex(y)], [log_a_y], tau, w, cfg)
    return complex(grid[0, 0])


# ----------------------------------------------------------------------
# torus: quadrature moments
# ----------------------------------------------------------------------

def _check_closure(values: np.ndarray, axis: int, what: str) -> np.ndarray:
    """Verify the phi = 2 pi node reproduces the phi = 0 node, then drop it."""
    first = np.take(values, 0, axis=axis)
    last = np.take(values, -1, axis=axis)
    scale = max(float(np.max(np.abs(values))), 1e-300)
    err = float(np.max(np.abs(last - first))) / scale
    if err > _CLOSURE_TOL:
        raise BranchTrackingError(
            f"{what} integrand not single-valued on the contour "
            f"(closure error {err:.2e})")
    return np.take(values, range(values.shape[axis] - 1), axis=axis)


class TorusMoments:
    """Quadrature moments of the self-sewn torus: G plus h / hbar evaluators.

    Contours C_a are circles of radius ``radius_scale`` times the
    geometric-mean annulus radius around the punctures 0 and w, with the
    x and y copies split by fixed factors so same-center double contours
    never collide.  All fractional powers (local coordinate weights and
    U^kappa) are continuous in the contour angle, and single-valuedness
    of each integrand is verified at the closure node.
    """

    def __init__(self, tw1: TwistPair, handle: HandleTwist,
                 n_order: int, moduli: RhoModuliTorus,
                 m_points: int | None = None,
                 radius_scale: float = 1.0,
                 cfg: NumericConfig = DEFAULT_CONFIG) -> None:
        if n_order < 1:
            raise DomainError("order must be >= 1")
        kap = handle.kappa
        if _is_half(kap):
            raise DomainError("kappa = -1/2 torus self-sewing is not supported")
        self.tw1 = tw1
        self.handle = handle
        self.moduli = moduli
        self.n_order = n_order
        self.m_points = m_points if m_points is not None else cfg.quad_points
        if self.m_points < 8:
            raise DomainError("need at least 8 quadrature points")
        self.cfg = cfg
        self.kappa = kap
        self.radius_scale = radius_scale
        base = [moduli.contour_radius(a) * radius_scale for a in (1, 2)]
        for a in (1, 2):
            if X_RADIUS_FACTOR * base[a - 1] >= moduli.radius(a):
                raise DomainError(
                    "contour radius exceeds the sewing annulus; "
                    "rho too close to the domain boundary")
        # x(row) and y(column) contours per annulus label
        self._contour = {}
        for a in (1, 2):
            for role, fac in (("x", X_RADIUS_FACTOR), ("y", Y_RADIUS_FACTOR)):
                self._contour[(a, role)] = self._make_contour(a, fac * base[a - 1])
        self.g = self._build_g()

    def _make_contour(self, a: int, radius: float) -> dict:
        mod = self.moduli
        if self.kappa != 0.0:
            pts, log_local, log_a = _circle_log_a(
                mod.center(a), radius, self.m_points, mod.tau, mod.w, self.cfg,
                mod.z_ref, mod.log_a_ref)
            if a == 2 and mod.winding:
                log_a = log_a + TWO_PI_I * mod.winding
        else:
            phi = 2.0 * np.pi * np.arange(self.m_points + 1) / self.m_points
            pts = mod.center(a) + radius * np.exp(1j * phi)
            pts[-1] = pts[0]
            log_local = math.log(radius) + 1j * phi
            log_a = np.zeros(self.m_points + 1, dtype=complex)
        # weights of (1/2pi i) oint f dz_local = sum w_j f_j over j < M
        weight = (pts[: self.m_points] - mod.center(a)) / self.m_points
        return {"a": a, "points": pts, "log_local": log_local,
                "log_a": log_a, "weight": weight}

    def _mode_weights(self, contour: dict, k_shifted: np.ndarray) -> np.ndarray:
        """W(k,j) = z_local^{-k_a} at every node including the closure node."""
        return np.exp(-np.multiply.outer(k_shifted, contour["log_local"]))

    def _grid(self, cx: dict, cy: dict) -> np.ndarray:
        return _s_kappa_torus_grid(
            self.tw1, self.kappa, cx["points"], cx["log_a"],
            cy["points"], cy["log_a"], self.moduli.tau, self.moduli.w, self.cfg)

    def _k(self, a: int) -> np.ndarray:
        return mode_index(a, np.arange(1, self.n_order + 1), self.kappa)

    def _build_g(self) -> np.ndarray:
        blocks = {}
        for a in (1, 2):
            for b in (1, 2):
                cx = self._contour[(3 - a, "x")]
                cy = self._contour[(b, "y")]
                grid = self._grid(cx, cy)
                ka = self._k(a)
                lb = self._k(b)
                wx = self._mode_weights(cx, ka)
                wy = self._mode_weights(cy, lb)
                # single-valuedness at the closure node, element-wise on the
                # raw weighted integrand (before any cancelling summation)
                _check_closure(
                    np.stack([wx[:, 0, None] * grid[None, 0, :],
                              wx[:, -1, None] * grid[None, -1, :]]),
                    0, f"G_{a}{b} x-contour")
                _check_closure(
                    np.stack([wy[:, 0, None] * grid[None, :, 0],
                              wy[:, -1, None] * grid[None, :, -1]]),
                    0, f"G_{a}{b} y-contour")
                m = self.m_points
                blk = (wx[:, :m] * cx["weight"]) @ grid[:m, :m] \
                    @ (wy[:, :m] * cy["weight"]).T
                pref = self.moduli.rho_pow(
                    0.5 * (ka[:, None] + lb[None, :] - 1.0))
                blocks[(a, b)] = pref * blk
        return as_complex_matrix(
            np.block([[blocks[(1, 1)], blocks[(1, 2)]],
                      [blocks[(2, 1)], blocks[(2, 2)]]]), "moment matrix G")

    def _point_log_a(self, z: complex, log_a_z) -> complex:
        if self.kappa == 0.0:
            return 0.0 + 0.0j
        if log_a_z is not None:
            return complex(log_a_z)
        return log_a_torus(z, self.moduli.tau, self.moduli.w, self.cfg,
                           self.moduli.z_ref, self.moduli.log_a_ref)

    def h_vector(self, x, log_a_x=None) -> np.ndarray:
        """(h_1(k,x), h_2(k,x)) stacked, k = 1..N, by contour quadrature."""
        x = complex(x)
        lax = self._point_log_a(x, log_a_x)
        out = []
        for a in (1, 2):
            cy = self._contour[(a, "y")]
            row = self._grid_point_first(x, lax, cy)
            ka = self._k(a)
            wy = self._mode_weights(cy, ka)
            vals = wy * row[None, :]
            vals = _check_closure(vals, 1, f"h_{a} contour")
            mom = vals @ cy["weight"]
            out.append(self.moduli.rho_pow(0.5 * (ka - 0.5)) * mom)
        return np.concatenate(out)

    def hbar_vector(self, y, log_a_y=None) -> np.ndarray:
        """(hbar_1(k,y), hbar_2(k,y)) stacked, k = 1..N, by quadrature."""
        y = complex(y)
        lay = self._point_log_a(y, log_a_y)
        out = []
        for a in (1, 2):
            cx = self._contour[(3 - a, "x")]
            col = self._grid_point_second(cx, y, lay)
            ka = self._k(a)
            wx = self._mode_weights(cx, ka)
            vals = wx * col[None, :]
            vals = _check_closure(vals, 1, f"hbar_{a} contour")
            mom = vals @ cx["weight"]
            out.append(self.moduli.rho_pow(0.5 * (ka - 0.5)) * mom)
        return np.concatenate(out)

    def _grid_point_first(self, x: complex, lax: complex, cy: dict) -> np.ndarray:
        return _s_kappa_torus_grid(
            self.tw1, self.kappa, [x], [lax], cy["points"], cy["log_a"],
            self.moduli.tau, self.moduli.w, self.cfg)[0]

    def _grid_point_second(self, cx: dict, y: complex, lay: complex) -> np.ndarray:
        return _s_kappa_torus_grid(
            self.tw1, self.kappa, cx["points"], cx["log_a"], [y], [lay],
            self.moduli.tau, self.moduli.w, self.cfg)[:, 0]


# ----------------------------------------------------------------------
# kernel assembly
# ----------------------------------------------------------------------

class RhoTorusContext:
    """Cached genus-two assembly for one (tw1, handle, moduli, N, M)."""

    def __init__(self, tw1: TwistPair, handle: HandleTwist,
                 moduli: RhoModuliTorus, n_order: int | None = None,
                 m_points: int | None = None, radius_scale: float = 1.0,
                 cfg: NumericConfig = DEFAULT_CONFIG) -> None:
        self.tw1 = tw1
        self.handle = handle
        self.moduli = moduli
        self.cfg = cfg
        self.n_order = n_order if n_order is not None else cfg.trunc_order
        self.moments = TorusMoments(tw1, handle, self.n_order, moduli,
                                    m_points, radius_scale, cfg)
        dth = _d_theta_diag(handle.theta, self.n_order)
        eye = np.eye(2 * self.n_order, dtype=complex)
        self._lu = LU(eye - moduli.xi * self.moments.g * dth[None, :])
        # middle factor D^theta (I - T)^{-1} applied from the left
        self._middle = dth[:, None] * self._lu.solve(eye, cfg)
        self._margin = X_RADIUS_FACTOR * max(moduli.contour_radius(1),
                                             moduli.contour_radius(2)) * 1.05

    def validate_point(self, z: complex) -> None:
        mod = self.moduli
        z = complex(z)
        d = float(np.min(lattice_distance(np.array([z, z - mod.w]), mod.tau)))
        if d <= self._margin:
            raise DomainError(
                f"point at distance {d:.3e} from a puncture lies inside "
                f"the sewing contours (need > {self._margin:.3e})")

    def kernel(self, x, y, log_a_x=None, log_a_y=None) -> complex:
        """Sewn genus-two kernel coefficient of dx^1/2 dy^1/2."""
        x, y = complex(x), complex(y)
        self.validate_point(x)
        self.validate_point(y)
        lax = self.moments._point_log_a(x, log_a_x)
        lay = self.moments._point_log_a(y, log_a_y)
        base = s_kappa_torus(self.tw1, self.handle, x, y,
                             (self.moduli.tau, self.moduli.w), self.cfg,
                             log_a_x=lax, log_a_y=lay)
        h = self.moments.h_vector(x, lax)
        hb = self.moments.hbar_vector(y, lay)
        return complex(base + self.moduli.xi * h @ self._middle @ hb)

    def det(self) -> complex:
        return self._lu.det()


def szego_genus2_rho(tw1: TwistPair, handle: HandleTwist, x, y,
                     moduli: RhoModuliTorus, n_order: int | None = None,
                     m_points: int | None = None,
                     cfg: NumericConfig = DEFAULT_CONFIG) -> complex:
    """Genus-two Szego kernel from a self-sewn torus (dx^1/2 dy^1/2 coeff)."""
    ctx = RhoTorusContext(tw1, handle, moduli, n_order, m_points, cfg=cfg)
    return ctx.kernel(x, y)
