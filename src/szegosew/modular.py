"""Symmetry groups of the two sewing schemes and invariance residuals.

epsilon scheme: the group generated by the two torus modular groups
(gamma_1, gamma_2 acting by Moebius maps on tau_1, tau_2 and rescaling
epsilon) and the swap beta exchanging the tori.

rho scheme: L = H^ semidirect Gamma_1, generated by A = mu(1,0,0),
B = mu(0,1,0) (lattice shifts of the puncture separation w), the central
C (a full turn of rho, acting only on the recorded branch), and
Gamma_1 = SL(2,Z) acting on (tau, w, rho).

Elements are stored as words in the generators so that branch
bookkeeping (square roots of epsilon and rho, the half-form factors of
point rescalings) stays exact.  Both groups share one word core
(identity, compose, sp4) and one set of generator atoms, each with its
Sp(4,Z) matrix and its closed-form multiplier map.  Characteristic
transport is computed two ways -- the multiplier maps and the symplectic
characteristic law on (alpha, beta) through the Sp(4,Z) matrix of the
word -- and the two routes are asserted to agree.

``g.transform(ctx)`` walks the word of g once and returns the transformed
evaluation context together with the point map of the word, so the
residuals compare a context with its image without knowing the scheme.

The sewn kernel is a (1/2, 1/2)-form, so a rescaled point picks up the
half-form factor s = sqrt(c tau + d) (principal root) per point:
invariance means S_new(g x, g y) = S_old(x, y) s_x s_y.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

import numpy as np

from .epsilon import (EpsilonContext, EpsilonModuli, GenusTwoCharacteristicsEps,
                      SurfacePoint)
from .errors import BranchTrackingError, DomainError, SzegosewError
from .rho import (X_RADIUS_FACTOR, Y_RADIUS_FACTOR, HandleTwist,
                  RhoModuliTorus, RhoTorusContext, log_a_torus)
from .specialfn import TorusModulus, TwistPair

__all__ = [
    "EpsGroupElement", "RhoGroupElement",
    "act_eps_moduli", "act_eps_chars", "act_eps",
    "act_rho", "invariance_residual", "det_residual",
]

TWO_PI_I = 2j * np.pi


def _integer(v) -> int:
    """v as an int; DomainError unless v is integral."""
    try:
        n = int(v)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != v:
        raise DomainError(f"word entries must be integers, got {v!r}")
    return n


def _check_atom(kind, data) -> tuple:
    """(kind, data) with data checked: None for beta, an SL(2,Z) tuple for
    gamma1/gamma2, an integer power otherwise."""
    if kind == "beta":
        return kind, None
    if kind not in ("gamma1", "gamma2"):
        return kind, _integer(data)
    a, b, c, d = (_integer(v) for v in data)
    if a * d - b * c != 1:
        raise DomainError(f"(a,b,c,d)={data} must satisfy ad - bc = 1")
    return kind, (a, b, c, d)


# ----------------------------------------------------------------------
# generator atoms of both groups
# ----------------------------------------------------------------------

def _sp4_gamma(i: int, abcd) -> np.ndarray:
    """SL(2,Z) element (a,b,c,d) acting on the cycles of torus i (0 or 1)."""
    m = np.eye(4, dtype=int)
    m[i, i], m[i, i + 2], m[i + 2, i], m[i + 2, i + 2] = abcd
    return m


def _sp4_mu(a: int, b: int, c: int) -> np.ndarray:
    return np.array([[1, 0, 0, b], [a, 1, b, c],
                     [0, 0, 1, -a], [0, 0, 0, 1]], dtype=int)


# Sp(4,Z) matrix of each atom; mu(1,0,0)^n = mu(n,0,0) and
# mu(0,1,0)^n = mu(0,n,0) for every integer n
_SP4 = {"gamma1": lambda abcd: _sp4_gamma(0, abcd),
        "gamma2": lambda abcd: _sp4_gamma(1, abcd),
        "beta": lambda _: np.array([[0, 1, 0, 0], [1, 0, 0, 0],
                                    [0, 0, 0, 1], [0, 0, 1, 0]], dtype=int),
        "A": lambda n: _sp4_mu(n, 0, 0),
        "B": lambda n: _sp4_mu(0, n, 0),
        "C": lambda n: _sp4_mu(0, 0, n)}


def _atom_mults(kind, data, mults):
    """(theta1, theta2, phi1, phi2) under one generator atom."""
    th1, th2, ph1, ph2 = mults
    if kind == "beta":
        return th2, th1, ph2, ph1
    if kind == "A":
        return th1, th2 * (-th1) ** data, ph1 / (-ph2) ** data, ph2
    if kind == "B":
        return th1 * (-ph2) ** data, th2 * (-ph1) ** data, ph1, ph2
    if kind == "C":
        # theta2 -> theta2 phi2 per full turn of rho (the symplectic
        # characteristic law fixes this sign)
        return th1, th2 * ph2 ** data, ph1, ph2
    a, b, c, d = data
    if kind == "gamma1":
        return th1 ** a * ph1 ** b, th2, th1 ** c * ph1 ** d, ph2
    return th1, th2 ** a * ph2 ** b, ph1, th2 ** c * ph2 ** d


# ----------------------------------------------------------------------
# group elements as generator words
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _Word:
    """Word in the generators of one symmetry group; acts left-to-right.

    Every atom is checked at construction against the generators
    ``_KINDS`` of the group.
    """

    word: tuple = ()

    def __post_init__(self) -> None:
        for kind, _ in self.word:
            if kind not in self._KINDS:
                raise DomainError(f"{kind!r} is not a generator of "
                                  f"{type(self).__name__}")
        object.__setattr__(self, "word",
                           tuple(_check_atom(*atom) for atom in self.word))

    @classmethod
    def identity(cls):
        return cls(())

    @classmethod
    def gamma1(cls, a, b, c, d):
        """SL(2,Z) element acting on the first torus, in both groups."""
        return cls((("gamma1", (a, b, c, d)),))

    @classmethod
    def _power(cls, kind: str, n):
        return cls(((kind, n),) if n else ())

    def compose(self, other):
        """Word acting as self first, then other (of the same group)."""
        if type(other) is not type(self):
            raise DomainError(f"cannot compose a {type(self).__name__} with "
                              f"a {type(other).__name__}")
        return type(self)(self.word + other.word)

    def sp4(self) -> np.ndarray:
        m = np.eye(4, dtype=int)
        for kind, data in self.word:
            m = _SP4[kind](data) @ m
        return m


class EpsGroupElement(_Word):
    """Word in the epsilon-scheme generators gamma_1, gamma_2, beta_swap.

    Atoms are ("gamma1", (a,b,c,d)), ("gamma2", (a,b,c,d)) or
    ("beta", None).
    """

    _KINDS = ("gamma1", "gamma2", "beta")

    @classmethod
    def gamma2(cls, a, b, c, d) -> "EpsGroupElement":
        return cls((("gamma2", (a, b, c, d)),))

    @classmethod
    def beta_swap(cls) -> "EpsGroupElement":
        return cls((("beta", None),))

    def transform(self, ctx: EpsilonContext):
        """(transformed context, point map SurfacePoint -> (point, factor))."""
        if not isinstance(ctx, EpsilonContext):
            raise DomainError("epsilon-scheme words act on an EpsilonContext")
        chars = act_eps_chars(self, ctx.chars)
        moduli, point = _eps_walk(self, ctx.moduli)
        return EpsilonContext(chars, moduli, ctx.n_order), point


class RhoGroupElement(_Word):
    """Word in the rho-scheme generators A, B, C, gamma1.

    Atoms are ("A", n), ("B", n), ("C", n) with integer powers n, or
    ("gamma1", (a,b,c,d)).
    """

    _KINDS = ("A", "B", "C", "gamma1")

    @classmethod
    def a_shift(cls, n: int = 1) -> "RhoGroupElement":
        return cls._power("A", n)

    @classmethod
    def b_shift(cls, n: int = 1) -> "RhoGroupElement":
        return cls._power("B", n)

    @classmethod
    def c_power(cls, n: int = 1) -> "RhoGroupElement":
        return cls._power("C", n)

    @classmethod
    def mu(cls, a: int, b: int, c: int) -> "RhoGroupElement":
        return cls.a_shift(a).compose(cls.b_shift(b)).compose(cls.c_power(c))

    def transform(self, ctx: RhoTorusContext):
        """(transformed context, point map z -> (z', half-form factor))."""
        if not isinstance(ctx, RhoTorusContext):
            raise DomainError("rho-scheme words act on a RhoTorusContext")
        mults = _transport(self, (ctx.tw1.theta, ctx.handle.theta,
                                 ctx.tw1.phi, ctx.handle.phi))
        moduli, point = _rho_walk(self, ctx.moduli)
        ctx2 = RhoTorusContext(TwistPair.from_multipliers(mults[0], mults[2]),
                               HandleTwist.from_multipliers(mults[1], mults[3]),
                               moduli, ctx.n_order, ctx.moments.m_points)
        return ctx2, point


# ----------------------------------------------------------------------
# characteristic transport
# ----------------------------------------------------------------------

def sp4_char_transport(m: np.ndarray, alpha, beta):
    """Theta-characteristic transport under M = [[A,B],[C,D]] in Sp(4,Z).

        alpha' = D alpha - C beta + (1/2) diag(C D^T)
        beta'  = -B alpha + A beta + (1/2) diag(A B^T)
    """
    m = np.asarray(m, dtype=float)
    a, b = m[:2, :2], m[:2, 2:]
    c, d = m[2:, :2], m[2:, 2:]
    al = np.asarray(alpha, dtype=float)
    be = np.asarray(beta, dtype=float)
    al2 = d @ al - c @ be + 0.5 * np.diag(c @ d.T)
    be2 = -b @ al + a @ be + 0.5 * np.diag(a @ b.T)
    return al2, be2


def _transport(g: _Word, mults) -> tuple:
    """Multipliers (theta1, theta2, phi1, phi2) transported along g.

    The atom multiplier maps and the symplectic characteristic law
    through g.sp4() are asserted to agree.
    """
    out = tuple(complex(v) for v in mults)
    tw = [TwistPair.from_multipliers(out[i], out[i + 2]) for i in (0, 1)]
    for kind, data in g.word:
        out = _atom_mults(kind, data, out)
    al2, be2 = sp4_char_transport(g.sp4(), [t.alpha for t in tw],
                                  [t.beta for t in tw])
    expected = (*-np.exp(-TWO_PI_I * be2), *-np.exp(TWO_PI_I * al2))
    if max(abs(got - exp) for got, exp in zip(out, expected)) > 1e-9:
        raise SzegosewError(
            "characteristic transport routes disagree: multiplier map "
            f"gives {out}, symplectic law {tuple(map(complex, expected))}")
    return out


def act_eps_chars(g: EpsGroupElement,
                  c: GenusTwoCharacteristicsEps) -> GenusTwoCharacteristicsEps:
    """Transport the twist data; multiplier and symplectic routes asserted equal."""
    th1, th2, ph1, ph2 = _transport(g, (c.tw1.theta, c.tw2.theta,
                                        c.tw1.phi, c.tw2.phi))
    return GenusTwoCharacteristicsEps(TwistPair.from_multipliers(th1, ph1),
                                      TwistPair.from_multipliers(th2, ph2))


# ----------------------------------------------------------------------
# epsilon-scheme action
# ----------------------------------------------------------------------

def _eps_atom_moduli(kind, data, m: EpsilonModuli):
    """One generator on the moduli: (new moduli, point step).

    The point step is None for the swap, else (a, c tau_a + d) for the
    torus a whose points gamma_a rescales.
    """
    if kind == "beta":
        # the swap exchanges the tori; the sewing-relation branch xi flips
        # so that the cross-torus kernel values are preserved
        return replace(m, tau1=m.tau2, tau2=m.tau1, xi=-m.xi), None
    a, b, c, d = data
    which = 1 if kind == "gamma1" else 2
    tau = m.tau(which).tau
    j = c * tau + d
    step = {f"tau{which}": TorusModulus((a * tau + b) / j),
            "epsilon": m.epsilon / j,
            "sqrt_epsilon": m.sqrt_epsilon / cmath.sqrt(j)}
    return replace(m, **step), (which, j)


def _eps_walk(g: EpsGroupElement, m: EpsilonModuli):
    """Transformed moduli and the point map of g, from one walk of its word.

    gamma_a rescales points on torus a by 1/(c tau_a + d) and contributes
    the half-form factor sqrt(c tau_a + d); beta relabels the torus a
    point lives on without moving its complex coordinate.
    """
    steps = []
    for kind, data in g.word:
        m, step = _eps_atom_moduli(kind, data, m)
        steps.append(step)

    def point(pt: SurfacePoint):
        which, z = pt.which, complex(pt.z)
        factor = 1.0 + 0.0j
        for step in steps:
            if step is None:
                which = 3 - which
            elif step[0] == which:
                z = z / step[1]
                factor *= cmath.sqrt(step[1])
        return SurfacePoint(which, z), factor

    return m, point


def act_eps_moduli(g: EpsGroupElement, m: EpsilonModuli) -> EpsilonModuli:
    """Transformed sewing moduli with the square-root branch transported."""
    return _eps_walk(g, m)[0]


def act_eps_point(g: EpsGroupElement, m: EpsilonModuli, pt: SurfacePoint):
    """Transformed point and its accumulated half-form factor."""
    return _eps_walk(g, m)[1](pt)


def act_eps(g: EpsGroupElement, c: GenusTwoCharacteristicsEps,
            m: EpsilonModuli):
    """(chars', moduli') under the word g."""
    return act_eps_chars(g, c), act_eps_moduli(g, m)


# ----------------------------------------------------------------------
# rho-scheme action
# ----------------------------------------------------------------------

def _winding_jump(m: RhoModuliTorus, a: int, b: int) -> int:
    """Branch-sheet jump of the sewing contours under w -> w + 2pi i(a tau + b).

    The moment relations between the old and shifted moduli use the
    quasi-periodicity of log A(z) = log(theta1(z-w)/theta1(z)),
        log A(z + 2 pi i (a tau + b)) = log A(z) + a w  (mod 2 pi i),
    on the contours around the puncture at w.  Straight-path tracking
    from z_ref realizes this with a position-dependent integer sheet;
    this probe measures it at the actual contour radii so the atom can
    absorb the jump into the moduli's winding datum.  Only differences
    of tracked values are read, so the anchor value is 0.
    """
    delta = TWO_PI_I * (a * m.tau.tau + b)
    # probes on the x and y contour radii (rows) and their shifts (columns),
    # tracked in one sweep
    p = m.w + np.array([X_RADIUS_FACTOR, Y_RADIUS_FACTOR]) * m.contour_radius
    la = log_a_torus(p[:, None] + np.array([0.0, delta]), m.tau, m.w,
                     z_ref=m.z_ref, log_a_ref=0.0)
    sheets = []
    for l0, l1 in la:
        n = (l1 - l0 - a * m.w) / TWO_PI_I
        ni = round(n.real)
        if abs(n - ni) > 1e-8:
            raise BranchTrackingError(
                f"contour sheet jump is not an integer: {n}")
        sheets.append(ni)
    if sheets[0] != sheets[1]:
        raise BranchTrackingError(
            "inner and outer sewing contours landed on different branch "
            "sheets; the moduli cannot absorb the jump in one winding")
    return sheets[0]


def _rho_atom_moduli(kind, data, m: RhoModuliTorus):
    """One generator on the moduli: (new moduli, point step).

    The point step is c tau + d for gamma1, which rescales points, and
    None for the generators that leave points in place.
    """
    if kind in ("A", "B"):
        # A^n and B^n move the puncture w -> w + 2 pi i (a tau + b) one
        # unit step at a time, so each sheet probe reads the current w.
        # On the covering space a unit step also moves the recorded rho
        # branch, log_rho -> log_rho + 2 pi i (a - b), which makes the
        # kernel exactly invariant with the Sp(4) action on the
        # characteristics.
        unit = 1 if data > 0 else -1
        a, b = (unit, 0) if kind == "A" else (0, unit)
        for _ in range(abs(data)):
            winding = m.winding + b - a - _winding_jump(m, a, b)
            m = replace(m, w=m.w + TWO_PI_I * (a * m.tau.tau + b),
                        log_rho=m.log_rho + TWO_PI_I * (a - b),
                        winding=winding)
        return m, None
    if kind == "C":
        return replace(m, log_rho=m.log_rho + TWO_PI_I * data), None
    a, b, c, d = data
    tau = m.tau.tau
    j = c * tau + d
    return replace(m, tau=TorusModulus((a * tau + b) / j), w=m.w / j,
                   rho=m.rho / (j * j), log_rho=m.log_rho - 2.0 * cmath.log(j),
                   z_ref=m.z_ref / j), j


def _rho_walk(g: RhoGroupElement, m: RhoModuliTorus):
    """Transformed moduli and the point map of g, from one walk of its word.

    gamma1 rescales points by 1/(c tau + d) with half-form factor
    sqrt(c tau + d); the other generators leave points in place.
    """
    steps = []
    for kind, data in g.word:
        m, j = _rho_atom_moduli(kind, data, m)
        if j is not None:
            steps.append(j)

    def point(z):
        z = complex(z)
        factor = 1.0 + 0.0j
        for j in steps:
            z = z / j
            factor *= cmath.sqrt(j)
        return z, factor

    return m, point


def act_rho(g: RhoGroupElement, m: RhoModuliTorus, mults):
    """Transformed (moduli, multiplier tuple (theta1, theta2, phi1, phi2))."""
    return _rho_walk(g, m)[0], _transport(g, mults)


def act_rho_point(g: RhoGroupElement, m: RhoModuliTorus, z):
    """Transformed point coordinate and half-form factor (gamma1 rescales)."""
    return _rho_walk(g, m)[1](z)


# ----------------------------------------------------------------------
# invariance residuals
# ----------------------------------------------------------------------

def invariance_residual(ctx, image, pairs) -> float:
    """Max relative kernel-invariance residual of ctx against its image
    ``g.transform(ctx)`` under a group element g.

    The kernel is compared as a half-form: the residual at a pair (x, y)
    is |S_new(g x, g y) - S_old(x, y) s_x s_y| / |S_old(x, y)| with the
    accumulated point factors s.  ``pairs`` holds points in the form
    ``ctx.kernel_matrix`` takes them.
    """
    ctx2, point = image
    xs, ys = zip(*pairs)
    (x2, sx), (y2, sy) = (zip(*map(point, pts)) for pts in (xs, ys))
    # one kernel_matrix per context; the pairs are its diagonal
    old = np.diagonal(ctx.kernel_matrix(xs, ys))
    new = np.diagonal(ctx2.kernel_matrix(x2, y2))
    return float(np.max(np.abs(new - old * np.array(sx) * np.array(sy))
                        / np.abs(old)))


def det_residual(ctx, image) -> float:
    """Relative invariance residual of the sewing determinant of ctx
    against its image ``g.transform(ctx)``."""
    ctx2, _ = image
    d1 = ctx.det()
    return abs(ctx2.det() - d1) / abs(d1)
