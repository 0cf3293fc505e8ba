"""Theta functions, twisted Weierstrass functions and Eisenstein series.

Conventions (fixed everywhere in this package, normative for all tests):

* the torus lattice is ``Lambda = 2 pi i (Z tau + Z)`` and theta arguments
  carry the matching scaling,

      theta[alpha; beta](z | Omega)
        = sum_m exp( i pi (m+alpha).Omega.(m+alpha) + (m+alpha).(z + 2 pi i beta) )

  over integer vectors m, with real characteristic vectors alpha, beta;
* ``theta_1 = theta[1/2; 1/2]`` and ``K(z,tau) = theta_1(z,tau)/theta_1'(0,tau)``
  with ``K(z)/z -> 1`` as ``z -> 0``;
* cycle multipliers ``theta = -exp(-2 pi i beta)``, ``phi = -exp(2 pi i alpha)``;
  ``lam in [0,1)`` with ``phi = exp(2 pi i lam)`` and ``kappa = lam - 1/2``
  in ``[-1/2, 1/2)`` so ``phi = -exp(2 pi i kappa)``;
* the twisted Weierstrass function has the two equivalent forms

      P1[theta; phi](z, tau)
        = theta[alpha; beta](z,tau) / theta[alpha; beta](0,tau) / K(z,tau)
        = - sum_{k in Z} q_z^{k+lam} / (1 - theta^{-1} q^{k+lam}),

  with ``q = e^{2 pi i tau}``, ``q_z = e^z``, the series converging on the
  annulus ``|q| < |e^z| < 1``, and lattice shifts acting by
  ``P1(z + 2 pi i (m tau + n)) = theta^m phi^n P1(z)``;
* ``P_k = (-1)^{k-1}/(k-1)! d^{k-1}_z P1`` so that ``z^k P_k(z) -> 1``;
* the Laurent expansion ``P1(z) = 1/z - sum_{n>=1} E_n z^{n-1}`` defines the
  twisted Eisenstein series, from the theta stage (the q-series is an oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .config import (BLOCK_ENTRIES, POLE_GUARD, RESONANCE_GUARD, SERIES_TOL,
                     THETA_TOL)
from .errors import ConvergenceError, DomainError, ResonanceError

TWO_PI = 2.0 * np.pi
THETA_BOX_CAP = 64
_UNIT_TOL = 1e-9  # allowed | |multiplier| - 1 | of twist multipliers
_ORIGIN = np.zeros(1, dtype=complex)  # a point of every theta stage

__all__ = [
    "TorusModulus", "TwistPair", "theta1", "K",
    "lattice_reduce", "lattice_distance", "min_lattice_distance",
    "p1_theta", "p_k_vector", "eisenstein_theta",
    "eisenstein_twisted", "bernoulli_poly",
]


# ----------------------------------------------------------------------
# domain types
# ----------------------------------------------------------------------

def _gauss_reduce(t: complex) -> tuple:
    """Integer coordinates ((m1, n1), (m2, n2)) of a reduced basis of Z tau + Z.

    The basis b_i = m_i tau + n_i satisfies |b1| <= |b2| <= |b2 - b1| and
    Re(b2 conj(b1)) >= 0 (Lagrange-Gauss reduction, then a sign choice).
    """
    def vec(c):
        return c[0] * t + c[1]

    a, b = (0, 1), (1, 0)
    if abs(vec(a)) > abs(vec(b)):
        a, b = b, a
    while True:
        va = vec(a)
        mu = round((vec(b) * va.conjugate()).real / abs(va) ** 2)
        b = (b[0] - mu * a[0], b[1] - mu * a[1])
        if abs(vec(b)) >= abs(va):
            break
        a, b = b, a
    if (vec(b) * vec(a).conjugate()).real < 0:
        b = (-b[0], -b[1])
    return a, b


@dataclass(frozen=True)
class TorusModulus:
    """A point tau of the upper half-plane with derived nome q = e^{2 pi i tau}.

    ``reduced_basis`` holds, computed once, the integer coordinates of a
    Gauss-reduced basis b1, b2 of Z tau + Z (see ``_gauss_reduce``): b1 is
    a shortest lattice vector, and the angle between b1 and b2 is at most
    90 degrees, so each cell x b1 + y b2 (0 <= x, y <= 1) splits along
    b2 - b1 into two non-obtuse Delaunay triangles and the lattice point
    nearest any point of the cell is one of its four corners.
    ``cell`` (2 pi i b1, 2 pi i b2, their cross product and the cell's
    four corners, which ``lattice_distance`` reads) and ``theta1_deriv0``,
    the prime-form constant theta_1'(0, tau), are computed on first use
    and kept.
    """

    tau: complex
    reduced_basis: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        t = complex(self.tau)
        if not np.isfinite(t.real) or not np.isfinite(t.imag):
            raise DomainError("tau must be finite")
        if t.imag <= 0:
            raise DomainError(f"Im(tau) must be positive, got {t.imag}")
        object.__setattr__(self, "tau", t)
        object.__setattr__(self, "reduced_basis", _gauss_reduce(t))

    @property
    def q(self) -> complex:
        return np.exp(2j * np.pi * self.tau)

    @cached_property
    def cell(self) -> tuple:
        b1, b2 = (2j * np.pi * (m * self.tau + n)
                  for m, n in self.reduced_basis)
        return (b1, b2, (b1.conjugate() * b2).imag,
                np.array([0.0, b1, b2, b1 + b2]))

    @cached_property
    def theta1_deriv0(self) -> complex:
        val = -complex(_theta_sums(((0.5, 0.5),), np.zeros(1), self.tau,
                                   2, 1)[0][0, 0, 1])
        if val == 0:
            raise ConvergenceError(
                "theta_1'(0) evaluated to zero; broken theta sum")
        return val


def _reduce_mod1(values) -> tuple:
    out = tuple(float(v) % 1.0 for v in np.atleast_1d(np.asarray(values, dtype=float)))
    if not all(math.isfinite(v) for v in out):
        raise DomainError("characteristics must be finite reals")
    return out


@dataclass(frozen=True)
class TwistPair:
    """Genus-one twist data: characteristics plus derived multipliers.

    ``theta = -e^{-2 pi i beta}`` and ``phi = -e^{2 pi i alpha}`` are the
    multipliers around the two torus cycles, fixed at construction;
    ``lam`` and ``kappa`` are the additive exponents used by the q-series
    and the self-sewing scheme.
    """

    alpha: float
    beta: float
    theta: complex = field(init=False, repr=False, compare=False)
    phi: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a, b = _reduce_mod1([self.alpha, self.beta])
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "theta", complex(-np.exp(-2j * np.pi * b)))
        object.__setattr__(self, "phi", complex(-np.exp(2j * np.pi * a)))

    @classmethod
    def from_multipliers(cls, theta: complex, phi: complex) -> "TwistPair":
        theta = complex(theta)
        phi = complex(phi)
        if abs(abs(theta) - 1.0) > _UNIT_TOL:
            raise DomainError(f"theta must be unit modulus, |theta|={abs(theta)}")
        if abs(abs(phi) - 1.0) > _UNIT_TOL:
            raise DomainError(f"phi must be unit modulus, |phi|={abs(phi)}")
        alpha = np.angle(-phi) / TWO_PI
        beta = -np.angle(-theta) / TWO_PI
        return cls(alpha=alpha, beta=beta)

    @property
    def lam(self) -> float:
        """Exponent lam in [0,1) with phi = e^{2 pi i lam}."""
        return (self.alpha + 0.5) % 1.0

    @property
    def kappa(self) -> float:
        """Exponent kappa in [-1/2,1/2) with phi = -e^{2 pi i kappa}."""
        return self.lam - 0.5

    @property
    def is_trivial(self) -> bool:
        """True when (theta, phi) = (1, 1), the untwisted point."""
        return abs(self.theta - 1.0) < 1e-12 and abs(self.phi - 1.0) < 1e-12

    def inverse(self) -> "TwistPair":
        """Twist with both multipliers inverted."""
        return TwistPair(alpha=-self.alpha, beta=-self.beta)


# ----------------------------------------------------------------------
# theta functions
# ----------------------------------------------------------------------

def _box_radius(lam_min: float, cmax: float, tol: float) -> int:
    """Summation box radius making the Gaussian tail provably below tol."""
    big_l = -math.log(tol) + 6.0
    r = (cmax + math.sqrt(cmax * cmax + 4.0 * math.pi * lam_min * big_l)) \
        / (2.0 * math.pi * lam_min)
    radius = int(math.ceil(r)) + 2
    if radius > THETA_BOX_CAP:
        raise ConvergenceError(
            f"theta box radius {radius} exceeds cap {THETA_BOX_CAP}; "
            "Im(Omega) too small or |Re z| too large")
    return max(radius, 1)


def _theta_reduce(z, tau: complex, beta: float):
    """Reduce z by the exact quasi-periodicity of theta[alpha;beta].

    Returns ``(z_red, n, log_mult)`` with z = z_red + 2 pi i tau n,
    |Re z_red| <= pi Im tau and
    theta[alpha;beta](z) = e^{log_mult} theta[alpha;beta](z_red),
    log_mult = -i pi tau n^2 - n (z_red + 2 pi i beta).  Vectorized in z.
    """
    n = np.round(-np.real(z) / (TWO_PI * tau.imag))
    z_red = z - 2j * np.pi * tau * n
    return z_red, n, -1j * np.pi * tau * n * n - n * (z_red + 2j * np.pi * beta)


@lru_cache(maxsize=128)
def _taylor_box(chars: tuple, tau: complex, kmax: int) -> tuple:
    """The z-independent parts of ``_theta_sums``, kept per (chars, tau,
    kmax) and read-only: m + alpha, i pi tau (m+alpha)^2 + 2 pi i beta
    (m+alpha) and the Taylor rows (-(m+alpha))^n/n!, on a box that covers
    the strip |Re z| <= 2 pi Im tau of reduced points.  The rows are one
    real cumulative product row_n = row_{n-1} (-(m+alpha))/n (the
    recurrence of ``_power_table``, equal to it bit for bit), made in the
    C-contiguous (chars, 1, n, m) layout that ``_box_sums`` reads.
    """
    im = tau.imag
    radius = _box_radius(im, TWO_PI * im, THETA_TOL)
    # polynomial weights (m+alpha)^n only shift the tail by a few entries
    if kmax > 1:
        radius = min(radius + 2 + (kmax - 1) // 8, THETA_BOX_CAP)
    alpha, beta = np.array(chars, dtype=float).T[:, :, None, None]
    ma = np.arange(-radius, radius + 1, dtype=float) + alpha
    expo = (1j * np.pi * tau) * ma ** 2 + (2j * np.pi * beta) * ma
    rows = np.empty((len(chars), 1, kmax, ma.shape[-1]))
    rows[:, :, 0] = 1.0
    rows[:, :, 1:] = -ma[:, :, None] / np.arange(1, kmax)[:, None]
    np.cumprod(rows, axis=2, out=rows)
    for arr in (ma, expo, rows):
        arr.flags.writeable = False
    return ma, expo, rows


def _theta_sums(chars: tuple, z: np.ndarray, tau: complex, kmax: int,
                n_rows: int) -> tuple:
    """One theta sum of each (alpha, beta) in ``chars`` at the reduced
    points z (1-D): the scaled derivatives (-1)^n/n! d^n/dz^n
    theta[alpha;beta](z, tau), n < kmax, at the first n_rows points,
    shape (len(chars), n_rows, kmax), and the values at the rest, shape
    (len(chars), z.size - n_rows).  Every point reads one exp table over
    the box of (chars, tau, kmax), and each entry is reduced over the box
    on its own row, so no value depends on the other points of its call.
    The points are taken a block at a time, each block's Taylor product
    holding at most BLOCK_ENTRIES entries, so memory does not grow with
    the batch.
    """
    ma, expo, rows = _taylor_box(chars, tau, kmax)
    step = max(1, BLOCK_ENTRIES // rows.size)
    if z.size <= step:
        return _box_sums(ma, expo, rows, z, n_rows)
    parts = [_box_sums(ma, expo, rows, z[i:i + step],
                       min(max(n_rows - i, 0), step))
             for i in range(0, z.size, step)]
    return tuple(np.concatenate(p, axis=1) for p in zip(*parts))


def _box_sums(ma, expo, rows, z: np.ndarray, n_rows: int) -> tuple:
    """``_theta_sums`` of one block of points over the box (ma, expo,
    rows) of ``_taylor_box``."""
    terms = np.exp(expo + z[:, None] * ma)
    # row by row, not a matmul: BLAS rounding would depend on the batch
    return ((terms[:, :n_rows, None, :] * rows).sum(axis=-1),
            terms[:, n_rows:].sum(axis=-1))


def _theta_value(char: tuple, z, tau: complex) -> tuple:
    """(log_mult, val), shape z.shape each, with theta[alpha;beta](z, tau)
    = e^{log_mult} val for char = (alpha, beta): z reduced by
    ``_theta_reduce``, val a value-only point of ``_theta_sums``."""
    z_red, _, log_mult = _theta_reduce(np.asarray(z, dtype=complex), tau,
                                       char[1])
    if not np.all(np.isfinite(z_red)):
        raise DomainError("z must be finite")
    return log_mult, _theta_sums((char,), np.ravel(z_red), tau, 1, 0)[1][0] \
        .reshape(z_red.shape)


def theta1(z, tau: TorusModulus):
    """theta_1 = theta[1/2;1/2], vectorized in z.

    Each argument is reduced by the exact quasi-periodicity first
    (``_theta_value``), so a value does not depend on the other points of
    its call; a value outside the double range raises ConvergenceError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        # a non-finite z reduces to NaN, which _theta_value rejects
        log_mult, val = _theta_value((0.5, 0.5), z, tau.tau)
        val = np.exp(log_mult) * val
    if not np.all(np.isfinite(val)):
        raise ConvergenceError("theta_1 exceeds the double range; |Re z| too large")
    return val


def K(z, tau: TorusModulus):
    """Genus-one prime-form factor K(z,tau) = theta_1(z,tau)/theta_1'(0,tau).

    Odd in z with K(z)/z -> 1 as z -> 0. Vanishes on the lattice; callers
    dividing by K are responsible for pole guards.
    """
    return theta1(z, tau) / tau.theta1_deriv0


# ----------------------------------------------------------------------
# lattice reduction
# ----------------------------------------------------------------------

def lattice_reduce(z, tau: TorusModulus):
    """Shift z by a lattice vector into the convergence annulus of the q-series.

    Returns ``(z_red, m, n)`` with ``z = z_red + 2 pi i (m tau + n)``,
    ``Re z_red in (-2 pi Im tau, 0]`` (so |q| < |e^{z_red}| <= 1, split
    logarithmically at |q|^{1/2}) and ``Im z_red in [-pi, pi)``.
    Vectorized over z.
    """
    zv = np.asarray(z, dtype=complex)
    t = tau.tau
    v = -zv.real / (TWO_PI * t.imag)
    m = np.floor(v)
    rem = zv - 2j * np.pi * m * t
    n = np.floor(rem.imag / TWO_PI + 0.5)
    z_red = rem - 2j * np.pi * n
    return z_red, m.astype(int), n.astype(int)


def lattice_distance(z, tau: TorusModulus):
    """Distance from z to the nearest point of 2 pi i (Z tau + Z). Vectorized.

    Exact for every tau: the nearest lattice point is a corner of the
    cell of the reduced basis that contains z (see ``TorusModulus``).
    """
    zv = np.asarray(z, dtype=complex)
    b1, b2, cross, corners = tau.cell
    # cell coordinates: z = x b1 + y b2 for real x, y
    zc = zv.conjugate()
    x = np.floor((b2 * zc).imag / cross)
    y = np.floor((zc * b1).imag / -cross)
    r = zv - (x * b1 + y * b2)
    return np.abs(r[..., None] - corners).min(axis=-1)


def min_lattice_distance(tau: TorusModulus) -> float:
    """Minimal nonzero length D(q) = min |2 pi i (m tau + n)| of the lattice,
    the length of the first reduced basis vector."""
    m, n = tau.reduced_basis[0]
    return 2.0 * math.pi * abs(m * tau.tau + n)


# ----------------------------------------------------------------------
# twisted Weierstrass functions
# ----------------------------------------------------------------------

def _check_not_trivial(tw: TwistPair) -> None:
    if tw.is_trivial:
        raise ResonanceError(
            "(theta, phi) = (1, 1): the twisted genus-one kernel degenerates")


def _multiplier(tw: TwistPair, m, n):
    """Exact lattice-shift multiplier theta^m phi^n (vectorized in m, n)."""
    return tw.theta ** np.asarray(m) * tw.phi ** np.asarray(n)


def _reduce_off_lattice(z, tau: TorusModulus):
    """lattice_reduce of the flattened z and ``edge``, a lower bound on the
    lattice distance: the distance to the nearer line Re z = 0 or -2 pi
    Im tau less z_red's rounding.  |z| 2^-52 above POLE_GUARD raises."""
    zv = np.ravel(np.asarray(z, dtype=complex))
    size = np.abs(zv).max(initial=0.0)
    if not size * 2.0 ** -52 <= POLE_GUARD:
        raise DomainError("z must be finite" if not np.isfinite(zv).all() else
                          f"|z| = {size:.3e} too far out: its reduction "
                          f"rounds by more than {POLE_GUARD:.0e}")
    z_red, m, n = lattice_reduce(zv, tau)
    t = tau.tau  # the shift's terms stay below (|z| + 2 pi |t|)(1 + |t|/Im t)
    return z_red, m, n, np.minimum(-z_red.real, z_red.real + TWO_PI * t.imag) \
        - 2.0 ** -48 * (size + TWO_PI * abs(t)) * (1.0 + abs(t) / t.imag)


def _theta_stage(tw: TwistPair, kmax: int, reduced: tuple, n_rows: int,
                 tau: TorusModulus, laurent: bool = False) -> tuple:
    """Theta stage of P_k, refusing points within POLE_GUARD of the lattice:
    the normalised Taylor rows (a, b) at the first n_rows points of the
    reduction ``reduced`` (``_reduce_off_lattice``) and P1 at the rest.

    With P1 = A/B, A = theta[a;b](z) and B = theta[a;b](0) K(z,tau), the
    scaled derivatives a_n = (-1)^n A^{(n)}/n!, b_n and p_n of A, B and P1
    satisfy a_n = sum_{j<=n} p_j b_{n-j}, and P_k = p_{k-1}.  The rows
    are a_n and b_n, n < kmax, divided by b_0, shape (n_rows, kmax) each,
    for ``_substitute``; a value-only point needs P1 = a_0/b_0 alone.  A
    at every point and at 0 and theta_1 at every point come from one
    theta sum, which also decides resonance.  With ``laurent`` (even
    kmax) the rows of z P1(z) at 0 come last, B = K(z)/z shifting the odd
    theta_1's row by one, so p_n = (-1)^n R_n of P1 = 1/z + sum R_n z^{n-1}.
    The fourth entry is K(z) = theta_1(z)/theta_1'(0) at the row points
    (1 at the origin row, the limit of K(z)/z).
    """
    z_red, _, _, edge = reduced
    near = edge < POLE_GUARD
    if near.any() and (lattice_distance(z_red[near], tau) < POLE_GUARD).any():
        raise DomainError("z within pole guard of a lattice point")
    z = np.concatenate((z_red[:n_rows], _ORIGIN, z_red[n_rows:]))
    (a, k), (val, val1) = _theta_sums(((tw.alpha, tw.beta), (0.5, 0.5)), z,
                                      tau.tau, kmax, n_rows + laurent)
    th0 = a[-1, 0] if laurent else val[0]
    if abs(th0) < RESONANCE_GUARD:
        raise ResonanceError("theta[alpha;beta](0, tau) vanishes for this twist")
    d0 = tau.theta1_deriv0
    b0 = k[:, :1] / d0  # B / theta[a;b](0) at the row points
    if laurent:
        k[-1] = np.append(k[-1, 1:], 0.0)
        b0[-1] = 1.0
    p1 = val[1 - laurent:] / (th0 * (val1[1 - laurent:] / d0))
    return a / (th0 * b0), k / k[:, :1], p1, b0[:, 0]


def _substitute(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Substitution stage of P_k: the rows p with a_n = sum_{j<=n} p_j
    b_{n-j} (b_0 = 1) from the rows of ``_theta_stage``, written over a.

    Forward substitution: step n takes p_n b_{m-n} off every later a_m,
    for all rows at once.  One row per point: every step runs over rows
    of the same length whatever the batch, so a value does not depend
    on it.
    """
    kmax = a.shape[1]
    for n in range(1, kmax):
        a[:, n:] -= a[:, n - 1, None] * b[:, 1:kmax - n + 1]
    return a


def p1_theta(tw: TwistPair, z, tau: TorusModulus):
    """P1 via the theta-quotient route. Vectorized over z.

    Reduces z into the fundamental annulus -2 pi Im tau < Re z <= 0 first
    and multiplies by the exact lattice multiplier theta^m phi^n, so a
    value does not depend on the other points of its call; |z| beyond
    about 4.5e7, where z's own rounding reaches POLE_GUARD, raises
    DomainError.  Every point is a value-only point of the theta stage.
    """
    _check_not_trivial(tw)
    _, m, n, _ = reduced = _reduce_off_lattice(z, tau)
    val = (_multiplier(tw, m, n) * _theta_stage(tw, 1, reduced, 0, tau)[2]) \
        .reshape(np.shape(z))
    return val if np.ndim(z) else complex(val)


def p_k_vector(tw: TwistPair, kmax: int, z, tau: TorusModulus) -> np.ndarray:
    """P_k(z) for k = 1..kmax, term-wise analytic; shape z.shape + (kmax,).

    Each point is reduced into the fundamental annulus, and P_k there is
    the analytically differentiated theta quotient (exact derivatives,
    never finite differences) times the exact lattice multiplier
    theta^m phi^n.  Vectorized over z: all points share one theta sum
    (``_theta_stage``), over a box fixed by tau and kmax, and one forward
    substitution (``_substitute``), so a value does not depend on the
    other points of its call.
    """
    _check_not_trivial(tw)
    if kmax < 1:
        raise DomainError("kmax must be >= 1")
    z_red, m, n, _ = reduced = _reduce_off_lattice(z, tau)
    a, b = _theta_stage(tw, kmax, reduced, z_red.size, tau)[:2]
    out = _substitute(a, b) * _multiplier(tw, m, n)[:, None]
    return out.reshape(np.shape(z) + (kmax,))


@lru_cache(maxsize=128)
def _origin_eisenstein(tori: tuple, kmax: int) -> np.ndarray:
    """E_1..E_{kmax-1} of each (tw, tau) in ``tori``, shape (len(tori),
    kmax - 1): one theta stage per torus, its origin row alone (``laurent``,
    even kmax), and one forward substitution over the rows stacked.  The
    substitution takes kmax - 1 steps however many rows it carries, and
    each row is reduced on its own, so a row does not depend on the
    others.

    None of it depends on a sewing parameter, so the rows are kept per
    (tori, kmax), once per process, and read-only, as ``_taylor_box``
    keeps its box: a two-tori build repeated on the same tori (an epsilon
    scan, a Dehn twist) reads them back.  The key is the whole tuple, so
    a miss still makes one substitution for both tori; an error is not
    kept.
    """
    a, b = zip(*(_theta_stage(tw, kmax, _reduce_off_lattice(_ORIGIN[:0], tau),
                              0, tau, laurent=True)[:2] for tw, tau in tori))
    eis = (-1.0) ** np.arange(2, kmax + 1) \
        * _substitute(np.concatenate(a), np.concatenate(b))[:, 1:]
    eis.flags.writeable = False
    return eis


def eisenstein_theta(tw: TwistPair, nmax: int, tau: TorusModulus) -> np.ndarray:
    """E_1..E_nmax: minus the R_n of one theta stage's origin row, not the
    q-series; the one-torus case of the stacked rows that the two-tori
    ``f_matrix`` reads (``_origin_eisenstein``), equal to them bit for
    bit.  The array is the caller's own, writable copy of the kept row."""
    if nmax < 1:
        raise DomainError("nmax must be >= 1")
    return _origin_eisenstein(((tw, tau),),
                              2 * (nmax // 2 + 1))[0, :nmax].copy()


# ----------------------------------------------------------------------
# Bernoulli polynomials and twisted Eisenstein series
# ----------------------------------------------------------------------

# largest (order x r) Eisenstein table, 32 MB of complex entries
_EISENSTEIN_TABLE_CAP = 2_000_000
# zeta(2), zeta(4), zeta(6), zeta(8) in closed form; zeta(2m) for 2m >= 10
# sums n^{-2m} over n < _ZETA_TERMS, a tail below 49^{1-2m}/(2m-1) <= 7e-17
_ZETA_LOW = np.pi ** np.array([2, 4, 6, 8]) / np.array([6.0, 90.0, 945.0, 9450.0])
_ZETA_TERMS = 50


def _zeta_even(k: np.ndarray) -> np.ndarray:
    """zeta(k) for the even orders k = 2, 4, ..., in that order."""
    n = np.arange(_ZETA_TERMS - 1, 0, -1, dtype=float)[:, None]
    zeta = np.sum(n ** -k.astype(float), axis=0)
    low = min(k.size, _ZETA_LOW.size)
    zeta[:low] = _ZETA_LOW[:low]
    return zeta


def _bernoulli_scaled(nmax: int, lam: float) -> np.ndarray:
    """B_n(lam)/n! for n = 0..nmax.

    The Cauchy product of b_k = B_k/k! and lam^m/m!, with the Bernoulli
    numbers from B_2m/(2m)! = (-1)^{m+1} 2 zeta(2m)/(2 pi)^{2m}: accurate
    to a few ulp and free of terms that grow like n!.
    """
    k = np.arange(2, nmax + 1, 2)
    numbers = np.zeros(nmax + 1)
    numbers[0] = 1.0
    numbers[1:2] = -0.5
    numbers[2::2] = (np.where(k % 4 == 2, 2.0, -2.0) * _zeta_even(k)
                     * TWO_PI ** -k)
    powers = np.cumprod(np.concatenate(([1.0], lam / np.arange(1, nmax + 1))))
    return np.convolve(numbers, powers)[: nmax + 1]


def bernoulli_poly(n: int, lam: float) -> float:
    """Bernoulli polynomial B_n(lam), generating function q_z^lam/(q_z - 1).

    The expansion is 1/z + sum_{n>=1} B_n(lam)/n! z^{n-1}, so B_1(lam)
    = lam - 1/2 (B_1 = -1/2 convention for the Bernoulli numbers).
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    return float(math.factorial(n) * _bernoulli_scaled(n, lam)[n])


def _power_table(e: np.ndarray, x: np.ndarray, jmax: int) -> np.ndarray:
    """Rows j = 0..jmax of e^j/j! x, one column per node (any shape of
    nodes; e broadcasts against x).

    The recurrence row_j = row_{j-1} e/j carries 1/j! inside, so every
    intermediate value is itself a table entry: nothing overflows unless
    an entry does.  An entry below the double range drops to zero; up to
    a few hundred rows such entries lie many orders of magnitude below
    the largest entry of their row.
    """
    steps = np.empty((jmax + 1,) + x.shape, dtype=complex)
    steps[0] = x
    steps[1:] = e / np.arange(1, jmax + 1).reshape((-1,) + (1,) * x.ndim)
    return np.cumprod(steps, axis=0)


def eisenstein_twisted(tw: TwistPair, n, tau: TorusModulus):
    """Twisted Eisenstein series E_n[theta; phi](tau).

        E_n = -B_n(lam)/n!
              + 1/(n-1)! sum_{r>=0} (r+lam)^{n-1} u_r/(1-u_r)
              + (-1)^n/(n-1)! sum_{r>=1} (r-lam)^{n-1} v_r/(1-v_r)

    with u_r = theta^{-1} q^{r+lam}, v_r = theta q^{r-lam}. At the
    untwisted point (theta,phi) = (1,1) the resonant r=0 term carries the
    weight 0^{n-1} and is dropped for n >= 2 (classical Eisenstein
    reduction, E_n = 0 for odd n); n = 1 is a genuine degeneration.

    Vectorized over the order: an int ``n`` gives a complex, a 1-D
    integer array an array.  All orders come from one (order x r) table
    truncated where the tail of the largest order is below
    ``SERIES_TOL``, which bounds every lower order's tail too.
    """
    orders = np.asarray(n)
    if orders.ndim > 1 or not np.issubdtype(orders.dtype, np.integer):
        raise DomainError("n must be an integer or a 1-D integer array")
    if orders.size == 0:
        return np.empty(0, dtype=complex)
    if np.min(orders) < 1:
        raise DomainError("n must be >= 1")
    nmax = int(np.max(orders))
    lam = tw.lam
    th = tau.tau
    theta = tw.theta
    q_abs = abs(np.exp(2j * np.pi * th))
    rate = math.log(q_abs)
    logtol = math.log(SERIES_TOL) - 6.0
    rmax = int(math.ceil(logtol / rate)) + 4
    rmax += int(math.ceil((nmax - 1) * math.log(rmax + nmax + 2) / -rate)) + 2
    if nmax * (rmax + 1) > _EISENSTEIN_TABLE_CAP:
        raise ConvergenceError(
            f"Eisenstein table of {nmax} orders x {rmax + 1} terms too large; "
            "Im(tau) too small")

    e1 = np.arange(0, rmax + 1, dtype=float) + lam
    u = np.exp(2j * np.pi * th * e1) / theta
    den1 = 1.0 - u
    resonant = np.abs(den1) < RESONANCE_GUARD
    if np.any(resonant):
        # only the r=0, lam=0, theta=1 term can resonate inside the nome disk
        if lam == 0.0 and resonant[0] and not np.any(resonant[1:]):
            if np.min(orders) == 1:
                raise ResonanceError(
                    "E_1 at (theta,phi)=(1,1) diverges (untwisted resonance)")
            e1, u, den1 = e1[1:], u[1:], den1[1:]
        else:
            raise ResonanceError("resonant denominator in twisted Eisenstein sum")

    e2 = np.arange(1, rmax + 1, dtype=float) - lam
    v = theta * np.exp(2j * np.pi * th * e2)
    den2 = 1.0 - v
    if np.any(np.abs(den2) < RESONANCE_GUARD):
        raise ResonanceError("resonant denominator in twisted Eisenstein sum")

    signs = (-1.0) ** np.arange(1, nmax + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = _power_table(e1, u / den1, nmax - 1).sum(axis=1) \
            + signs * _power_table(e2, v / den2, nmax - 1).sum(axis=1)

    total = sums[orders - 1] - _bernoulli_scaled(nmax, lam)[orders]
    if not np.all(np.isfinite(total)):
        raise ConvergenceError(
            "twisted Eisenstein terms exceed double range; Im(tau) too small")
    return total if orders.ndim else complex(total)
