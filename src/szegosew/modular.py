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
point rescalings) stays exact.  Characteristic transport is computed two
ways -- the explicit multiplier maps and the symplectic characteristic
law on (alpha, beta) through the Sp(4,Z) matrix of the word -- and the
two routes are asserted to agree.

``g.transform(ctx)`` walks the word of g once and returns the transformed
evaluation context together with the point map of the word, so the
residuals compare a context with its image without knowing the scheme.

The sewn kernel is a (1/2, 1/2)-form, so a rescaled point picks up the
half-form factor s = sqrt(c tau + d) (principal root) per point:
invariance means S_new(g x, g y) = S_old(x, y) s_x s_y.
"""

from __future__ import annotations

import cmath
import math
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


def _check_sl2(abcd) -> tuple:
    a, b, c, d = (int(v) for v in abcd)
    if a * d - b * c != 1:
        raise DomainError(f"(a,b,c,d)={abcd} must satisfy ad - bc = 1")
    return a, b, c, d


# ----------------------------------------------------------------------
# group elements as generator words
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EpsGroupElement:
    """Word in the epsilon-scheme generators gamma_1, gamma_2, beta_swap.

    Atoms are ("gamma1", (a,b,c,d)), ("gamma2", (a,b,c,d)) or
    ("beta", None); the word acts left-to-right.
    """

    word: tuple = ()

    @classmethod
    def identity(cls) -> "EpsGroupElement":
        return cls(())

    @classmethod
    def gamma1(cls, a, b, c, d) -> "EpsGroupElement":
        return cls((("gamma1", _check_sl2((a, b, c, d))),))

    @classmethod
    def gamma2(cls, a, b, c, d) -> "EpsGroupElement":
        return cls((("gamma2", _check_sl2((a, b, c, d))),))

    @classmethod
    def beta_swap(cls) -> "EpsGroupElement":
        return cls((("beta", None),))

    def compose(self, other: "EpsGroupElement") -> "EpsGroupElement":
        """Word acting as self first, then other."""
        return EpsGroupElement(self.word + other.word)

    def transform(self, ctx: EpsilonContext):
        """(transformed context, point map SurfacePoint -> (point, factor))."""
        if not isinstance(ctx, EpsilonContext):
            raise DomainError("epsilon-scheme words act on an EpsilonContext")
        chars = act_eps_chars(self, ctx.chars)
        moduli, point = _eps_walk(self, ctx.moduli)
        return EpsilonContext(chars, moduli, ctx.n_order), point

    def sp4(self) -> np.ndarray:
        m = np.eye(4, dtype=int)
        for kind, data in self.word:
            m = _EPS_SP4[kind](data) @ m
        return m


def _sp4_gamma1(abcd) -> np.ndarray:
    a, b, c, d = abcd
    return np.array([[a, 0, b, 0], [0, 1, 0, 0],
                     [c, 0, d, 0], [0, 0, 0, 1]], dtype=int)


def _sp4_gamma2(abcd) -> np.ndarray:
    a, b, c, d = abcd
    return np.array([[1, 0, 0, 0], [0, a, 0, b],
                     [0, 0, 1, 0], [0, c, 0, d]], dtype=int)


def _sp4_swap(_) -> np.ndarray:
    return np.array([[0, 1, 0, 0], [1, 0, 0, 0],
                     [0, 0, 0, 1], [0, 0, 1, 0]], dtype=int)


_EPS_SP4 = {"gamma1": _sp4_gamma1, "gamma2": _sp4_gamma2, "beta": _sp4_swap}


@dataclass(frozen=True)
class RhoGroupElement:
    """Word in the rho-scheme generators A, B, C, gamma1.

    Atoms are ("A", n), ("B", n), ("C", n) with integer powers n, or
    ("gamma1", (a,b,c,d)); the word acts left-to-right.
    """

    word: tuple = ()

    @classmethod
    def identity(cls) -> "RhoGroupElement":
        return cls(())

    @classmethod
    def a_shift(cls, n: int = 1) -> "RhoGroupElement":
        return cls((("A", int(n)),)) if n else cls(())

    @classmethod
    def b_shift(cls, n: int = 1) -> "RhoGroupElement":
        return cls((("B", int(n)),)) if n else cls(())

    @classmethod
    def c_power(cls, n: int = 1) -> "RhoGroupElement":
        return cls((("C", int(n)),)) if n else cls(())

    @classmethod
    def mu(cls, a: int, b: int, c: int) -> "RhoGroupElement":
        return cls.a_shift(a).compose(cls.b_shift(b)).compose(cls.c_power(c))

    @classmethod
    def gamma1(cls, a, b, c, d) -> "RhoGroupElement":
        return cls((("gamma1", _check_sl2((a, b, c, d))),))

    def compose(self, other: "RhoGroupElement") -> "RhoGroupElement":
        """Word acting as self first, then other."""
        return RhoGroupElement(self.word + other.word)

    def transform(self, ctx: RhoTorusContext):
        """(transformed context, point map z -> (z', half-form factor))."""
        if not isinstance(ctx, RhoTorusContext):
            raise DomainError("rho-scheme words act on a RhoTorusContext")
        mults = _rho_mults(self, (ctx.tw1.theta, ctx.handle.theta,
                                  ctx.tw1.phi, ctx.handle.phi))
        moduli, point = _rho_walk(self, ctx.moduli)
        ctx2 = RhoTorusContext(TwistPair.from_multipliers(mults[0], mults[2]),
                               HandleTwist.from_multipliers(mults[1], mults[3]),
                               moduli, ctx.n_order, ctx.moments.m_points,
                               ctx.moments.radius_scale)
        return ctx2, point

    def sp4(self) -> np.ndarray:
        m = np.eye(4, dtype=int)
        for kind, data in self.word:
            m = _RHO_SP4[kind](data) @ m
        return m


def _sp4_mu(a: int, b: int, c: int) -> np.ndarray:
    return np.array([[1, 0, 0, b], [a, 1, b, c],
                     [0, 0, 1, -a], [0, 0, 0, 1]], dtype=int)


# mu(1,0,0)^n = mu(n,0,0) and mu(0,1,0)^n = mu(0,n,0) for every integer n
_RHO_SP4 = {"A": lambda n: _sp4_mu(n, 0, 0),
            "B": lambda n: _sp4_mu(0, n, 0),
            "C": lambda n: _sp4_mu(0, 0, n),
            "gamma1": _sp4_gamma1}


# ----------------------------------------------------------------------
# characteristic transport: symplectic route
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


def _mults_from_char(alpha, beta):
    th = -np.exp(-TWO_PI_I * np.asarray(beta, dtype=float))
    ph = -np.exp(TWO_PI_I * np.asarray(alpha, dtype=float))
    return (complex(th[0]), complex(th[1]), complex(ph[0]), complex(ph[1]))


def _assert_char_routes_agree(word_mults, sp4_mat, alpha0, beta0) -> None:
    al2, be2 = sp4_char_transport(sp4_mat, alpha0, beta0)
    expected = _mults_from_char(al2, be2)
    for got, exp in zip(word_mults, expected):
        if abs(got - exp) > 1e-9:
            raise SzegosewError(
                "characteristic transport routes disagree: "
                f"multiplier map gives {word_mults}, symplectic law {expected}")


# ----------------------------------------------------------------------
# epsilon-scheme action
# ----------------------------------------------------------------------

def _eps_atom_mults(kind, data, mults):
    """(theta1, theta2, phi1, phi2) under one generator atom."""
    th1, th2, ph1, ph2 = mults
    if kind == "beta":
        return (th2, th1, ph2, ph1)
    a, b, c, d = data
    if kind == "gamma1":
        return (th1 ** a * ph1 ** b, th2, th1 ** c * ph1 ** d, ph2)
    if kind == "gamma2":
        return (th1, th2 ** a * ph2 ** b, ph1, th2 ** c * ph2 ** d)
    raise DomainError(f"unknown epsilon-scheme generator {kind}")


def act_eps_chars(g: EpsGroupElement,
                  c: GenusTwoCharacteristicsEps) -> GenusTwoCharacteristicsEps:
    """Transport the twist data; multiplier and symplectic routes asserted equal."""
    mults = (c.tw1.theta, c.tw2.theta, c.tw1.phi, c.tw2.phi)
    for kind, data in g.word:
        mults = _eps_atom_mults(kind, data, mults)
    _assert_char_routes_agree(mults, g.sp4(),
                              (c.tw1.alpha, c.tw2.alpha),
                              (c.tw1.beta, c.tw2.beta))
    return GenusTwoCharacteristicsEps(
        TwistPair.from_multipliers(mults[0], mults[2]),
        TwistPair.from_multipliers(mults[1], mults[3]))


@dataclass(frozen=True)
class _EpsState:
    tau1: complex
    tau2: complex
    epsilon: complex
    sqrt_epsilon: complex
    xi: complex


def _eps_atom_moduli(kind, data, st: _EpsState):
    """One generator on the moduli: (new state, point step).

    The point step is None for the swap, else (a, c tau_a + d) for the
    torus a whose points gamma_a rescales.
    """
    if kind == "beta":
        # the swap exchanges the tori; the sewing-relation branch xi flips
        # so that the cross-torus kernel values are preserved
        return (_EpsState(st.tau2, st.tau1, st.epsilon, st.sqrt_epsilon,
                           -st.xi), None)
    a, b, c, d = data
    tau = st.tau1 if kind == "gamma1" else st.tau2
    j = c * tau + d
    s = cmath.sqrt(j)
    tau2 = (a * tau + b) / j
    if kind == "gamma1":
        return (_EpsState(tau2, st.tau2, st.epsilon / j, st.sqrt_epsilon / s,
                          st.xi), (1, j))
    return (_EpsState(st.tau1, tau2, st.epsilon / j, st.sqrt_epsilon / s,
                      st.xi), (2, j))


def _eps_walk(g: EpsGroupElement, m: EpsilonModuli):
    """Transformed moduli and the point map of g, from one walk of its word.

    gamma_a rescales points on torus a by 1/(c tau_a + d) and contributes
    the half-form factor sqrt(c tau_a + d); beta relabels the torus a
    point lives on without moving its complex coordinate.
    """
    st = _EpsState(m.tau1.tau, m.tau2.tau, m.epsilon, m.sqrt_epsilon, m.xi)
    steps = []
    for kind, data in g.word:
        st, step = _eps_atom_moduli(kind, data, st)
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

    moduli = EpsilonModuli(tau1=TorusModulus(st.tau1),
                           tau2=TorusModulus(st.tau2), epsilon=st.epsilon,
                           sqrt_epsilon=st.sqrt_epsilon, xi=st.xi)
    return moduli, point


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

def _rho_atom_mults(kind, data, mults):
    th1, th2, ph1, ph2 = mults
    if kind == "A":
        step = 1 if data >= 0 else -1
        for _ in range(abs(int(data))):
            if step > 0:
                th1, th2, ph1, ph2 = th1, -th2 * th1, -ph1 / ph2, ph2
            else:
                th1, th2, ph1, ph2 = th1, -th2 / th1, -ph1 * ph2, ph2
        return th1, th2, ph1, ph2
    if kind == "B":
        step = 1 if data >= 0 else -1
        for _ in range(abs(int(data))):
            if step > 0:
                th1, th2 = -th1 * ph2, -th2 * ph1
            else:
                th1, th2 = -th1 / ph2, -th2 / ph1
        return th1, th2, ph1, ph2
    if kind == "C":
        # C: theta2 -> theta2 phi2 per full turn of rho (the symplectic
        # characteristic law fixes this sign)
        return th1, th2 * ph2 ** int(data), ph1, ph2
    if kind == "gamma1":
        a, b, c, d = data
        return th1 ** a * ph1 ** b, th2, th1 ** c * ph1 ** d, ph2
    raise DomainError(f"unknown rho-scheme generator {kind}")


@dataclass(frozen=True)
class _RhoState:
    tau: complex
    w: complex
    rho: complex
    log_rho: complex
    xi: complex
    z_ref: complex
    log_a_ref: complex
    winding: int
    contour_radius: float


def _winding_jump(st: _RhoState, a: int, b: int) -> int:
    """Branch-sheet jump of the sewing contours under w -> w + 2pi i(a tau + b).

    The moment relations between the old and shifted moduli use the
    quasi-periodicity of log A(z) = log(theta1(z-w)/theta1(z)),
        log A(z + 2 pi i (a tau + b)) = log A(z) + a w  (mod 2 pi i),
    on the contours around the puncture at w.  Straight-path tracking
    from the anchor realizes this with a position-dependent integer
    sheet; this probe measures it at the actual contour radii so the
    atom can absorb the jump into the moduli's winding datum.
    """
    delta = TWO_PI_I * (a * st.tau + b)
    # probes on the x and y contour radii (rows) and their shifts (columns),
    # tracked in one sweep
    p = st.w + np.array([X_RADIUS_FACTOR, Y_RADIUS_FACTOR]) * st.contour_radius
    la = log_a_torus(p[:, None] + np.array([0.0, delta]), TorusModulus(st.tau),
                     st.w, z_ref=st.z_ref, log_a_ref=st.log_a_ref)
    sheets = []
    for l0, l1 in la:
        n = (l1 - l0 - a * st.w) / TWO_PI_I
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


def _rho_atom_moduli(kind, data, st: _RhoState):
    """One generator on the moduli: (new state, point step).

    The point step is c tau + d for gamma1, which rescales points, and
    None for the generators that leave points in place.
    """
    # Lattice shifts of the puncture, w -> w + 2 pi i (a tau + b), move the
    # branch anchor of log A(z) = log(theta1(z - w)/theta1(z)) on the
    # covering space.  Theta quasi-periodicity gives the exact law
    #     log A_new(z) = log A_old(z) + a (z - w + i pi)
    #                    - i pi tau a^2 - i pi b,
    # applied here at the fixed reference point z_ref so that all branch
    # tracking in the transformed moduli stays coherent with the original.
    # On the covering space the puncture shifts also move the recorded
    # rho branch: with the anchored log A convention, a unit shift
    # w -> w + 2 pi i tau carries log_rho -> log_rho + 2 pi i and
    # w -> w + 2 pi i carries log_rho -> log_rho - 2 pi i, which is what
    # makes the kernel exactly invariant with the canonical (Sp4) action
    # on the characteristics.  Multi-step shifts are applied one unit at
    # a time so each anchor update uses the current w.
    if kind == "A":
        for _ in range(abs(int(data))):
            a = 1 if data > 0 else -1
            shift = a * (st.z_ref - st.w + 1j * math.pi) \
                - 1j * math.pi * st.tau
            winding = st.winding - a - _winding_jump(st, a, 0)
            st = replace(st, w=st.w + TWO_PI_I * a * st.tau,
                         log_rho=st.log_rho + TWO_PI_I * a,
                         log_a_ref=st.log_a_ref + shift, winding=winding)
        return st, None
    if kind == "B":
        for _ in range(abs(int(data))):
            b = 1 if data > 0 else -1
            winding = st.winding + b - _winding_jump(st, 0, b)
            st = replace(st, w=st.w + TWO_PI_I * b,
                         log_rho=st.log_rho - TWO_PI_I * b,
                         log_a_ref=st.log_a_ref - 1j * math.pi * b,
                         winding=winding)
        return st, None
    if kind == "C":
        return replace(st, log_rho=st.log_rho + TWO_PI_I * data), None
    a, b, c, d = data
    j = c * st.tau + d
    # theta1 modular covariance: the Gaussian factors exp(c z^2 / (4 pi i j))
    # cancel between numerator and denominator of A up to the exact linear
    # correction c (w^2 - 2 z w) / (4 pi i j) in log A at z.
    shift = c * (st.w * st.w - 2.0 * st.z_ref * st.w) / (2.0 * TWO_PI_I * j)
    return _RhoState((a * st.tau + b) / j, st.w / j, st.rho / (j * j),
                     st.log_rho - 2.0 * cmath.log(j), st.xi,
                     st.z_ref / j, st.log_a_ref + shift, st.winding,
                     st.contour_radius / abs(j)), j


def _rho_walk(g: RhoGroupElement, m: RhoModuliTorus):
    """Transformed moduli and the point map of g, from one walk of its word.

    gamma1 rescales points by 1/(c tau + d) with half-form factor
    sqrt(c tau + d); the other generators leave points in place.
    """
    st = _RhoState(m.tau.tau, m.w, m.rho, m.log_rho, m.xi,
                   m.z_ref, m.log_a_ref, m.winding, m.contour_radius)
    steps = []
    for kind, data in g.word:
        st, j = _rho_atom_moduli(kind, data, st)
        if j is not None:
            steps.append(j)

    def point(z):
        z = complex(z)
        factor = 1.0 + 0.0j
        for j in steps:
            z = z / j
            factor *= cmath.sqrt(j)
        return z, factor

    moduli = RhoModuliTorus(tau=TorusModulus(st.tau), w=st.w, rho=st.rho,
                            log_rho=st.log_rho, xi=st.xi,
                            z_ref=st.z_ref, log_a_ref=st.log_a_ref,
                            winding=st.winding)
    return moduli, point


def _rho_mults(g: RhoGroupElement, mults) -> tuple:
    """Multipliers (theta1, theta2, phi1, phi2) transported along g.

    The multiplier maps and the symplectic route are asserted equal.
    """
    tw1 = TwistPair.from_multipliers(mults[0], mults[2])
    tw2 = TwistPair.from_multipliers(mults[1], mults[3])
    out = tuple(complex(v) for v in mults)
    for kind, data in g.word:
        out = _rho_atom_mults(kind, data, out)
    _assert_char_routes_agree(out, g.sp4(), (tw1.alpha, tw2.alpha),
                              (tw1.beta, tw2.beta))
    return out


def act_rho(g: RhoGroupElement, m: RhoModuliTorus, mults):
    """Transformed (moduli, multiplier tuple (theta1, theta2, phi1, phi2))."""
    mults = _rho_mults(g, mults)
    return _rho_walk(g, m)[0], mults


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
